import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermops.classify import coefficient_reality_table
from hermops.diffop import build_operator
from hermops.hermite import hermite_polys
from hermops.jensen import GammaSeq
from hermops.laguerre import laguerre_polys
from hermops import ratpoly
from hermops.ratpoly import (
    ONE,
    X,
    ZERO,
    RatPoly,
    combine_in_basis,
    count_real_roots,
    expand_in_basis,
    is_real_rooted,
    parse_rat,
    poly_gcd,
    rat,
    rat_str,
    squarefree_part,
)
from oracles import FractionPoly, from_roots, interpolate, sturm_real_rooted

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


def test_parse_rat_rejects_exponent_notation():
    for text in ("1e3", "2E-5", "1e10000000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_rat(text)
    assert parse_rat("3/5") == F(3, 5)
    assert parse_rat("-2") == F(-2)
    assert parse_rat(" 7 ") == F(7)


def test_parse_rat_refuses_underscores_and_inner_whitespace_on_every_version():
    """Fraction's own grammar takes "1_0" from Python 3.11 and "1 /2" from 3.12; parse_rat takes neither."""
    for text in ("1_0", "1_0/3", "1 /2", "1/ 2", "1\t/2", "- 1"):
        with pytest.raises(ValueError) as info:
            parse_rat(text)
        assert str(info.value) == f"invalid rational {text!r}"
    assert parse_rat(" 1/2\n") == F(1, 2)
    assert parse_rat("0.5") == parse_rat("1/2")


def test_rat_parses_strings_like_parse_rat():
    # Fraction("1e1000000") alone would build a 3.3-million-bit numerator.
    for text in ("1e1000000", "1/0"):
        with pytest.raises(ValueError):
            rat(text)
    assert rat("2/5") == F(2, 5)


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
    assert RatPoly([parse_rat(c) for c in p.to_json_dict()["coeffs"]]) == p


def test_to_text():
    assert (X**2 - X).to_text() == "x^2 - x"
    assert ZERO.to_text() == "0"
    assert RatPoly([F(1, 2)]).to_text() == "1/2"


def test_to_text_renders_coefficients_past_the_int_string_limit():
    p = RatPoly([F(10**5000 + 1, 3), 1])
    expected = "x + 1" + "0" * 4999 + "1/3"
    assert p.to_text() == expected
    assert repr(p) == f"RatPoly({expected!r})"
    assert RatPoly([F(-(10**5000)), F(10**5000 + 1, 3)]).to_text() == (
        "1" + "0" * 4999 + "1/3*x - 1" + "0" * 5000
    )


def test_expand_in_basis_needs_a_triangular_basis():
    basis = [ONE, X + X**2]  # deg basis[1] = 2 breaks the triangular shape
    with pytest.raises(ArithmeticError):
        expand_in_basis(X, basis)
    assert expand_in_basis(ZERO, []) == []
    assert combine_in_basis([], []) == ZERO
    shifted = [ONE, 2 * X - 1, 3 * X**2 + X]
    p = RatPoly([F(1, 2), F(-3), F(7, 5)])
    coeffs = expand_in_basis(p, shifted)
    assert len(coeffs) == 3
    assert combine_in_basis(coeffs, shifted) == p


def test_poly_gcd():
    p = (X - 1) ** 2 * (X + 3)
    q = (X - 1) * (X + 5)
    assert poly_gcd(p, q) == X - 1
    assert poly_gcd(p, ZERO) == p.monic()
    r = -3 * (X + F(1, 2))
    assert poly_gcd(ZERO, r) == r.monic()
    assert poly_gcd(ZERO, RatPoly([F(-5, 7)])) == poly_gcd(RatPoly([F(-5, 7)]), ZERO) == ONE
    with pytest.raises(ValueError, match="gcd of two zero polynomials is undefined"):
        poly_gcd(ZERO, ZERO)


small_ints = st.integers(min_value=-30, max_value=30)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_ints, max_size=9), st.lists(small_ints, max_size=5), st.integers(min_value=-30, max_value=-1))
@example([1, 0, 0, 1], [1], -2)  # three elimination steps by a negative leading coefficient
@example([], [3], -1)
def test_signed_prem_is_a_positive_multiple_of_the_remainder(f, g_low, g_lead):
    g = g_low + [g_lead]
    r = ratpoly._signed_prem(f, g)
    exact = FractionPoly(f) % FractionPoly(g)
    assert len(r) == len(exact.coeffs)
    if r:
        scale = F(r[-1]) / exact.leading
        assert scale > 0
        assert FractionPoly(r) == exact * scale


def test_squarefree_part():
    p = (X - 1) ** 3 * (X + 2) ** 2
    assert squarefree_part(p) == (X - 1) * (X + 2)
    for c in (7, -3, F(-2, 9)):
        assert squarefree_part(RatPoly([c])) == ONE
    with pytest.raises(ValueError):
        squarefree_part(ZERO)


def test_count_real_roots_known():
    assert count_real_roots(X**2 + 1) == 0
    assert count_real_roots(X**2 - 1) == 2
    assert count_real_roots((X - 1) ** 5) == 1
    assert count_real_roots(X**3 - X) == 3
    for c in (4, -3, F(-2, 9)):
        assert count_real_roots(RatPoly([c])) == 0
    with pytest.raises(ValueError):
        count_real_roots(ZERO)


def test_is_real_rooted_conventions():
    assert is_real_rooted(ZERO)
    assert is_real_rooted(RatPoly([5]))
    assert is_real_rooted(X + 7)
    assert is_real_rooted((X - 1) ** 2 * (X + 4))
    assert not is_real_rooted(X**2 + 1)
    assert not is_real_rooted((X**2 + 1) * (X - 3))
    # A Sturm count below deg p is a repeated root or a nonreal pair.
    assert is_real_rooted((X - F(1, 3)) ** 4 * (X + 2))
    assert is_real_rooted(X**5)
    assert not is_real_rooted((X - 1) ** 2 * (X**2 + 1))
    assert not is_real_rooted((X**2 + 1) ** 2)


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


# -- the one-chain root test against the squarefree oracle ----------------------


def _oracle_real_rooted(p):
    """The squarefree route: count on the squarefree part, compare with its degree."""
    sf = squarefree_part(p)
    return count_real_roots(sf) == sf.degree


# A product of rational linear factors with repeated roots, times quadratics
# x^2 + b x + c with and without real roots (b^2 - 4c of either sign, or 0).
products_with_repeats = st.builds(
    lambda roots, reps, quads, scale: from_roots(roots * reps)
    * math.prod((RatPoly([c, b, 1]) for b, c in quads), start=ONE)
    * scale,
    st.lists(small_rats, max_size=3),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(small_rats, small_rats), max_size=2),
    small_rats.filter(bool),
)


@settings(max_examples=80, deadline=None)
@given(products_with_repeats, st.lists(small_rats, max_size=2))
def test_is_real_rooted_matches_squarefree_oracle(p, extra_roots):
    p = p * from_roots(extra_roots)
    assert is_real_rooted(p) == _oracle_real_rooted(p)
    assert p.degree - _chain_gcd_degree(p) == squarefree_part(p).degree


def _chain_gcd_degree(p):
    """deg gcd(p, p'), read off the end of p's Sturm chain, as a shortfall reads it."""
    return len(ratpoly._sturm_chain(tuple(ratpoly._int_coeffs(p)))[-1]) - 1


def test_shortfall_root_test_builds_one_chain(monkeypatch):
    # A count below deg p reads deg gcd(p, p') too; both come from the one kept chain.
    calls = []

    def counted(f, g):
        calls.append(len(f) - 1)
        return original(f, g)

    original = ratpoly._prs
    monkeypatch.setattr(ratpoly, "_prs", counted)
    ratpoly._sturm_chain.cache_clear()
    # Newton's inequalities hold here, so Sturm decides: 1 distinct real root of 4.
    assert not is_real_rooted((X - 1) ** 2 * ((X - 10) ** 2 + 1))
    assert calls == [4]
    # 3 distinct real roots of 4: the shortfall reads deg gcd(p, p') = 1 off the same chain.
    assert is_real_rooted((X - 1) ** 2 * (X + 3) * (X - 2))
    assert calls == [4, 4]
    # Below degree 4 the closed forms decide, with no chain, shortfall or not.
    calls.clear()
    assert is_real_rooted((X - 1) ** 2 * (X + 3))
    assert is_real_rooted((X - 1) ** 2)
    assert not is_real_rooted((X - 1) * (X**2 + 1))
    assert not is_real_rooted(X**2 + 1)
    assert calls == []
    # x^4 - 2x^3 + 2x^2 - 2x + 1 breaks Newton's inequalities (a_1^2 * 1 * 3 = 12 < a_0 a_2 * 2 * 4 = 16),
    # so the test ends with no chain at all.
    calls.clear()
    assert not is_real_rooted((X - 1) ** 2 * (X**2 + 1))
    assert calls == []


def test_quartic_with_nonzero_discriminant_builds_no_chain(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append(len(f) - 1)
        return original(f, g)

    original = ratpoly._prs
    monkeypatch.setattr(ratpoly, "_prs", counted)
    ratpoly._sturm_chain.cache_clear()
    # Both discriminants are nonzero, so the signs of the discriminant, P and D decide;
    # the first meets Newton's inequalities, so only those signs keep it from a chain.
    assert is_real_rooted((X - 1) * (X + 1) * (X - 2) * (X + 3))
    assert not is_real_rooted((X**2 + 1) * (X**2 + 4))
    assert calls == []


# Real-rooted inputs for the certificate: rational linear factors with
# multiplicities times x^m (zero low coefficients), and x^e R(x^2) with R's
# roots the squares r^2, even or odd with every other coefficient zero, as Q_k is.
real_rooted_polys = st.one_of(
    st.builds(
        lambda pairs, m, scale: from_roots([r for r, k in pairs for _ in range(k)]) * X**m * scale,
        st.lists(st.tuples(small_rats, st.integers(min_value=1, max_value=4)), max_size=4),
        st.integers(min_value=0, max_value=3),
        small_rats.filter(bool),
    ),
    st.builds(
        lambda rs, e, scale: math.prod((X**2 - r * r for r in rs), start=X**e) * scale,
        st.lists(small_rats, max_size=4),
        st.integers(min_value=0, max_value=1),
        small_rats.filter(bool),
    ),
)


@settings(max_examples=200, deadline=None)
@given(real_rooted_polys)
@example((X - 1) ** 4)  # equality in every one of Newton's inequalities
@example(X**5)
def test_newton_never_refutes_a_real_rooted_polynomial(p):
    assert not ratpoly._newton_refutes(tuple(ratpoly._int_coeffs(p)))


# Integer polynomials of degree <= 8: products of linear factors, close root
# pairs r, r + 1/d, and irreducible quadratics (x - a)^2 + b with b > 0, some
# of them nearly a double root; and plain integer coefficient lists.
root_test_factors = st.one_of(
    st.builds(lambda r: X - r, small_rats),
    st.builds(lambda r, d: (X - r) * (X - r - F(1, d)), small_rats, st.integers(min_value=1, max_value=10**6)),
    st.builds(
        lambda a, b: (X - a) ** 2 + b,
        small_rats,
        st.fractions(min_value=0, max_value=4, max_denominator=10**6).filter(bool),
    ),
)
integer_polys = st.one_of(
    st.lists(root_test_factors, max_size=4).map(lambda fs: math.prod(fs, start=ONE)),
    st.lists(st.integers(min_value=-20, max_value=20), max_size=9).map(RatPoly),
)


@settings(max_examples=200, deadline=None)
@given(integer_polys)
def test_is_real_rooted_matches_sturm_only_oracle(p):
    assert is_real_rooted(p) == sturm_real_rooted(p)


# Integer polynomials of degree 1-4 for the closed forms: rational roots
# (the list repeated, then cut to degree 4) times at most two irreducible
# quadratics (x - a)^2 + b, scaled by any nonzero integer, so the leading
# coefficient may be negative.
low_degree_polys = st.builds(
    lambda roots, reps, quads, scale: from_roots((roots * reps)[: 4 - 2 * len(quads)])
    * math.prod(quads, start=ONE)
    * scale,
    st.lists(small_rats, max_size=4),
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.builds(lambda a, b: (X - a) ** 2 + b, small_rats, small_rats.filter(lambda b: b > 0)),
        max_size=2,
    ),
    st.integers(min_value=-6, max_value=6).filter(bool),
).filter(lambda p: p.degree >= 1)


@settings(max_examples=300, deadline=None)
@given(low_degree_polys)
@example((X - 2) ** 2 * (X + F(1, 3)))  # zero discriminant: a double root
@example((X + 1) ** 3)  # zero discriminant: a triple root
@example(X**3)
@example(-(X**3) + 3 * X)  # zero middle coefficients, negative leading coefficient
@example(X**3 + 1)  # one real root, zero middle coefficients
@example(-3 * X**2 + 2)
@example(X**4 - 1)  # quartic, negative discriminant: two real roots
@example((X**2 + 1) ** 2)  # quartic, zero discriminant, no real root
@example((X**2 + 1) * (X**2 + 4))  # positive discriminant, no real root
@example((X - 1) ** 2 * (X**2 + 1))  # zero discriminant, two real roots
@example(X**4 + X**2)
@example((X - 1) ** 4)  # zero discriminant, real-rooted
@example((X - 1) ** 3 * (X + 2))
@example((X**2 - 1) ** 2)
@example((X - 1) * (X + 1) * (X - 2) * (X + 3))  # positive discriminant, four real roots
def test_closed_form_root_tests_match_sturm_only_oracle(p):
    c = tuple(ratpoly._int_coeffs(p))
    assert ratpoly._real_rooted_ints(c) == sturm_real_rooted(p)
    assert ratpoly._real_rooted_ints(tuple(-x for x in c)) == sturm_real_rooted(-p)
    for m in (2, -3):  # the falsifier passes images that are not primitive
        assert ratpoly._real_rooted_ints(tuple(m * x for x in c)) == sturm_real_rooted(p)


def test_squarefree_degree_known():
    # deg p - deg gcd(p, p'), the number of distinct complex roots, at the end of the chain.
    for p, distinct in (((X - 1) ** 3 * (X + 2) ** 2 * (X**2 + 1), 4), (X**4, 1), (RatPoly([3]), 0)):
        assert p.degree - _chain_gcd_degree(p) == distinct == squarefree_part(p).degree
    with pytest.raises(ValueError):
        squarefree_part(ZERO)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=1, max_size=8),
    st.sampled_from([F(1, 2), F(1), F(2)]),
    st.integers(min_value=0, max_value=2),
)
def test_reality_table_matches_squarefree_oracle(values, alpha, p):
    seq = GammaSeq.from_values(values)
    k_max = 7
    table = coefficient_reality_table(alpha, seq, k_max, p)
    qpolys = build_operator(alpha, seq, k_max, p)
    assert len(table) == len(qpolys) == k_max + 1
    for real, q in zip(table, qpolys):
        if q.is_zero:
            assert real
            continue
        assert count_real_roots(q) == count_real_roots(squarefree_part(q))
        assert real == _oracle_real_rooted(q) == is_real_rooted(q)


# -- the list-based change of basis against RatPoly arithmetic ------------------


def _reference_expand(p, basis):
    """Back-substitution on RatPoly values, one polynomial per step."""
    out = [F(0)] * (p.degree + 1)
    residual = p
    for k in range(p.degree, -1, -1):
        c = residual.coeff(k) / basis[k].coeff(k)
        if c != 0:
            out[k] = c
            residual = residual - c * basis[k]
    if not residual.is_zero:
        raise ArithmeticError("nonzero residual")
    return out


def _reference_combine(coeffs, basis):
    total = ZERO
    for k, c in enumerate(coeffs):
        total = total + rat(c) * basis[k]
    return total


def _family(name, alpha, n):
    if name == "standard":
        return hermite_polys(n, 0)
    if name == "hermite":
        return hermite_polys(n, alpha + F(1, 7))
    return laguerre_polys(n, alpha - F(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["standard", "hermite", "laguerre"]),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
    st.lists(small_rats, max_size=8).map(RatPoly),
    st.lists(st.one_of(small_rats, st.integers(-5, 5)), max_size=8),
)
def test_change_of_basis_matches_ratpoly_reference(name, alpha, p, coeffs):
    basis = _family(name, alpha, 8)
    assert expand_in_basis(p, basis) == _reference_expand(p, basis)
    assert combine_in_basis(coeffs, basis) == _reference_combine(coeffs, basis)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(small_rats, max_size=6), min_size=6, max_size=6),
    st.lists(small_rats.filter(bool), min_size=6, max_size=6),
    st.integers(min_value=0, max_value=5),
    small_rats,
    st.lists(small_rats, max_size=6).map(RatPoly),
)
def test_change_of_basis_on_random_bases(lows, leads, bad, extra, p):
    """Random triangular bases, one entry possibly given a term above its index."""
    basis = [
        RatPoly((low + [0] * k)[:k] + [lead]) for k, (low, lead) in enumerate(zip(lows, leads))
    ]
    basis[bad] = basis[bad] + RatPoly([0] * (bad + 1) + [extra])
    try:
        expected = _reference_expand(p, basis)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            expand_in_basis(p, basis)
        return
    assert expand_in_basis(p, basis) == expected
    assert combine_in_basis(expected, basis) == _reference_combine(expected, basis) == p
