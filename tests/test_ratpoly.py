import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermops.ratpoly import (
    ONE,
    X,
    ZERO,
    RatPoly,
    count_real_roots,
    from_roots,
    interpolate,
    is_real_rooted,
    parse_rat,
    poly_gcd,
    rat,
    rat_str,
    squarefree_part,
)

F = Fraction


def test_rat_accepts_int_str_fraction():
    assert rat(3) == F(3)
    assert rat("2/5") == F(2, 5)
    assert rat(F(7, 2)) == F(7, 2)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_str_and_parse_round_trip():
    for q in (F(0), F(-3, 7), F(22)):
        assert parse_rat(rat_str(q)) == q


def test_parse_rat_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rat("1/0")


def test_trailing_zeros_stripped():
    p = RatPoly([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1


def test_zero_polynomial_degree():
    assert ZERO.degree == -1
    assert ZERO.is_zero
    assert RatPoly([0, 0]).is_zero


def test_coeff_out_of_range_is_zero():
    p = RatPoly([1, 2])
    assert p.coeff(5) == 0
    assert p.coeff(1) == 2


def test_arithmetic():
    p = RatPoly([1, 2, 3])
    q = RatPoly([0, 1])
    assert (p + q).coeffs == (F(1), F(3), F(3))
    assert (p - p).is_zero
    assert (p * q).coeffs == (F(0), F(1), F(2), F(3))
    assert (2 * p).coeffs == (F(2), F(4), F(6))
    assert (p / 2).coeffs == (F(1, 2), F(1), F(3, 2))
    assert (-q).coeffs == (F(0), F(-1))


def test_pow():
    assert ((X + 1) ** 3).coeffs == (F(1), F(3), F(3), F(1))
    assert (X**0) == ONE


def test_divmod_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        a = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))])
        b = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(X, ZERO)


def test_eval_horner():
    p = RatPoly([5, -1, 2])
    assert p(F(3)) == 5 - 3 + 18
    assert p(0) == 5


def test_compose():
    p = X**2 + 1
    inner = X - 2
    assert p.compose(inner) == (X - 2) ** 2 + 1


def test_derivative():
    p = X**4
    assert p.derivative() == 4 * X**3
    assert p.derivative(4) == RatPoly([24])
    assert p.derivative(5).is_zero


def test_monic():
    p = RatPoly([2, 0, 4])
    assert p.monic().coeffs == (F(1, 2), F(0), F(1))
    with pytest.raises(ValueError):
        ZERO.monic()


def test_from_roots():
    p = from_roots([1, -2])
    assert p == (X - 1) * (X + 2)
    assert from_roots([]) == ONE


def test_interpolate():
    pts = [(F(0), F(1)), (F(1), F(2)), (F(2), F(5))]
    p = interpolate(pts)
    assert all(p(x) == y for x, y in pts)
    assert p == X**2 + 1
    with pytest.raises(ValueError):
        interpolate([(F(1), F(0)), (F(1), F(2))])


def test_json_round_trip():
    p = RatPoly([F(1, 3), 0, F(-2)])
    assert RatPoly.from_json_dict(p.to_json_dict()) == p


def test_to_text():
    assert (X**2 - X).to_text() == "x^2 - x"
    assert ZERO.to_text() == "0"
    assert RatPoly([F(1, 2)]).to_text() == "1/2"


def test_poly_gcd():
    p = (X - 1) ** 2 * (X + 3)
    q = (X - 1) * (X + 5)
    assert poly_gcd(p, q) == X - 1
    assert poly_gcd(p, ZERO) == p.monic()


def test_squarefree_part():
    p = (X - 1) ** 3 * (X + 2) ** 2
    assert squarefree_part(p) == (X - 1) * (X + 2)
    assert squarefree_part(RatPoly([7])) == ONE
    with pytest.raises(ValueError):
        squarefree_part(ZERO)


def test_count_real_roots_known():
    assert count_real_roots(X**2 + 1) == 0
    assert count_real_roots(X**2 - 1) == 2
    assert count_real_roots((X - 1) ** 5) == 1
    assert count_real_roots(X**3 - X) == 3
    assert count_real_roots(RatPoly([4])) == 0
    with pytest.raises(ValueError):
        count_real_roots(ZERO)


def test_is_real_rooted_conventions():
    assert is_real_rooted(ZERO)
    assert is_real_rooted(RatPoly([5]))
    assert is_real_rooted(X + 7)
    assert is_real_rooted((X - 1) ** 2 * (X + 4))
    assert not is_real_rooted(X**2 + 1)
    assert not is_real_rooted((X**2 + 1) * (X - 3))


def _quadratic_real_count(a, b, c):
    disc = b * b - 4 * a * c
    if disc > 0:
        return 2
    return 1 if disc == 0 else 0


def _cubic_real_count(a, b, c, d):
    disc = (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b**2 * c**2
        - 4 * a * c**3
        - 27 * a**2 * d**2
    )
    if disc > 0:
        return 3
    if disc < 0:
        return 1
    # Repeated roots: count distinct roots of the squarefree part directly.
    p = RatPoly([d, c, b, a])
    sf = squarefree_part(p)
    if sf.degree == 1:
        return 1
    return _quadratic_real_count(sf.coeff(2), sf.coeff(1), sf.coeff(0))


def test_count_real_roots_against_discriminant():
    """Sturm counts agree with discriminant classification on 200 seeded cases."""
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        deg = rng.choice((2, 3))
        coeffs = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(deg)]
        lead = F(0)
        while lead == 0:
            lead = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        coeffs.append(lead)
        p = RatPoly(coeffs)
        if deg == 2:
            expected = _quadratic_real_count(p.coeff(2), p.coeff(1), p.coeff(0))
        else:
            expected = _cubic_real_count(p.coeff(3), p.coeff(2), p.coeff(1), p.coeff(0))
        assert count_real_roots(p) == expected, f"mismatch for {p.to_text()}"


small_rats = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys = st.lists(small_rats, min_size=0, max_size=6).map(RatPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_product_rule(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@settings(max_examples=60, deadline=None)
@given(polys, polys, small_rats)
def test_eval_is_ring_homomorphism(p, q, x0):
    assert (p * q)(x0) == p(x0) * q(x0)
    assert (p + q)(x0) == p(x0) + q(x0)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_rats, min_size=1, max_size=5))
def test_root_product_count(roots):
    p = from_roots(roots)
    assert count_real_roots(p) == len(set(roots))
    assert is_real_rooted(p)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_count_real_roots_ignores_multiplicity(p, q):
    """The Sturm count of p * q^2 equals the count on its squarefree part."""
    r = p * q * q
    if r.is_zero:
        return
    assert count_real_roots(r) == count_real_roots(squarefree_part(r))
