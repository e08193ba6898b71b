import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermops.diffop import (
    HermiteDiffOp,
    TruncationError,
    apply_operator,
    binomial_poly,
    build_operator,
    check_diagonal_action,
    check_operator_equivalence,
    check_standard_basis_limit,
    coefficient_polynomial,
    interpolation_poly,
    solve_operator_from_action,
    standard_coefficient,
)
from hermops.hermite import hermite_polys
from hermops.jensen import GammaSeq, finite_difference
from hermops.ratpoly import ONE, X, ZERO, RatPoly
from hermops.sequences import make_sequence

F = Fraction


def _sequences():
    return [
        make_sequence("const1"),
        make_sequence("linear(3)"),
        make_sequence("example311"),
        make_sequence("besselJ0"),
    ]


def test_formula_matches_action_solve():
    """The closed-form coefficients agree with forward substitution from the
    diagonal action, for every test sequence and several alpha values."""
    for alpha in (F(1, 2), F(1), F(2)):
        for seq in _sequences():
            op = build_operator(alpha, seq, 10)
            oracle = solve_operator_from_action(alpha, seq, 10)
            assert op.qpolys == oracle.qpolys, (alpha, seq.name)


def test_diagonal_action():
    alpha = F(1)
    for seq in _sequences():
        op = build_operator(alpha, seq, 12)
        H = hermite_polys(12, alpha)
        for n in range(13):
            assert apply_operator(op, H[n]) == seq[n] * H[n]


def test_action_on_general_polynomial_is_linear():
    alpha = F(1, 2)
    seq = make_sequence("besselJ0")
    op = build_operator(alpha, seq, 8)
    rng = random.Random(11)
    for _ in range(10):
        f = RatPoly([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(7)])
        g = RatPoly([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)])
        assert apply_operator(op, f + g) == apply_operator(op, f) + apply_operator(op, g)


def test_truncation_error():
    op = build_operator(F(1), make_sequence("const1"), 3)
    with pytest.raises(TruncationError):
        apply_operator(op, X**4)
    assert apply_operator(op, X**3) == X**3


def test_bessel_coefficients_frozen():
    alpha = F(1)
    seq = make_sequence("besselJ0")
    q2 = coefficient_polynomial(alpha, seq, 2)
    q3 = coefficient_polynomial(alpha, seq, 3)
    assert q2 == RatPoly([F(1, 4), 0, F(-1, 4)])
    assert q3 == RatPoly([0, F(1, 6), 0, F(1, 9)])


def test_q3_shape_in_alpha():
    # x(2x^2 + 3*alpha)/18 across several alpha values.
    seq = make_sequence("besselJ0")
    for alpha in (F(1, 2), F(1), F(2), F(7, 3)):
        expected = (2 * X**3 + 3 * alpha * X) / 18
        assert coefficient_polynomial(alpha, seq, 3) == expected


def test_coefficient_parity_and_leading():
    import math

    alpha = F(2, 3)
    for seq in _sequences():
        op = build_operator(alpha, seq, 10)
        for k, q in enumerate(op.qpolys):
            assert q.degree <= k
            for i, c in enumerate(q.coeffs):
                if (k - i) % 2 == 1:
                    assert c == 0, f"parity violated at k={k}, i={i}"
            if q.degree == k:
                assert q.leading == finite_difference(seq, k) / math.factorial(k)


def test_shifted_operator_matches_shifted_sequence():
    alpha = F(1)
    seq = make_sequence("example311")
    for p in (1, 2):
        report = check_operator_equivalence(alpha, seq, 8, p)
        assert report.passed
        op = build_operator(alpha, seq, 8, p)
        oracle = solve_operator_from_action(alpha, seq.shifted(p), 8)
        assert op.qpolys == oracle.qpolys


def test_operator_json_round_trip():
    op = build_operator(F(1, 2), make_sequence("besselJ0"), 5, 1)
    assert HermiteDiffOp.from_json_dict(op.to_json_dict()) == op


def test_standard_coefficient_alpha_zero():
    seq = make_sequence("besselJ0")
    for k in range(9):
        assert coefficient_polynomial(F(0), seq, k) == standard_coefficient(seq, k)


def test_standard_coefficient_shape():
    import math

    seq = make_sequence("example311")
    for k in range(8):
        d_k = finite_difference(seq, k)
        expected = (d_k / math.factorial(k)) * X**k if d_k else ZERO
        assert standard_coefficient(seq, k) == expected


def test_standard_basis_limit_reports():
    for name in ("besselJ0", "example311", "linear(3)"):
        report = check_standard_basis_limit(make_sequence(name), 8)
        assert report.passed, report.failures[:1]


def test_binomial_poly():
    assert binomial_poly(0) == ONE
    assert binomial_poly(1) == X
    assert binomial_poly(2) == (X**2 - X) / 2
    for n in range(8):
        from math import comb

        assert binomial_poly(3)(F(n)) == comb(n, 3)


def test_interpolation_poly_linear():
    for a in (F(3), F(0), F(-2, 5)):
        seq = GammaSeq.linear(a)
        op = build_operator(F(1), seq, 6)
        assert interpolation_poly(op) == X + a


def test_interpolation_poly_quadratic():
    seq = GammaSeq(lambda k: F(k * (k - 1)), sign_pattern="nonneg", name="fall2")
    op = build_operator(F(3, 2), seq, 8)
    p = interpolation_poly(op)
    assert p == X**2 - X
    for n in range(11):
        assert p(F(n)) == seq[n]


def test_interpolation_poly_rejects_overweight_coefficients():
    op = HermiteDiffOp(alpha=F(1), p_shift=0, qpolys=(ZERO, X**2))
    with pytest.raises(ValueError):
        interpolation_poly(op)


def test_check_reports_pass():
    alpha = F(2)
    for seq in _sequences():
        assert check_diagonal_action(alpha, seq, 10).passed
        assert check_operator_equivalence(alpha, seq, 8).passed


def test_build_operator_rejects_negative_order():
    with pytest.raises(ValueError):
        build_operator(F(1), make_sequence("const1"), -1)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=5, max_denominator=7)),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=1, max_size=14),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=4),
)
def test_build_operator_matches_action_solve_on_random_input(alpha, values, order, p):
    seq = GammaSeq.from_values(values)
    op = build_operator(alpha, seq, order, p)
    assert op.qpolys == solve_operator_from_action(alpha, seq.shifted(p), order).qpolys
    assert op.qpolys[order] == coefficient_polynomial(alpha, seq, order, p)
