import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hermops.cli import main
from hermops.diffop import (
    HermiteDiffOp,
    TruncationError,
    _interpolant_degree,
    apply_operator,
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
from hermops.jensen import FactoredSpec, GammaSeq, finite_difference
from hermops.ratpoly import X, ZERO, RatPoly, parse_rat
from hermops.sequences import make_sequence
from oracles import hermite_sum_qpolys, interpolate

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
    assert apply_operator(op, ZERO) == ZERO


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


def test_operator_json_round_trip(capsys):
    """`qpoly`'s JSON reads back as the operator it printed."""
    op = build_operator(F(1, 2), make_sequence("besselJ0"), 5, 1)
    assert main(["qpoly", "--seq", "besselJ0", "--alpha", "1/2", "--kmax", "5", "--p", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    qpolys = tuple(RatPoly([parse_rat(c) for c in q["coeffs"]]) for q in data["Q"])
    assert HermiteDiffOp(parse_rat(data["alpha"]), data["p_shift"], qpolys) == op


def test_standard_coefficient_alpha_zero():
    seq = make_sequence("besselJ0")
    for k in range(9):
        assert coefficient_polynomial(F(0), seq, k) == standard_coefficient(seq, k)


def test_standard_coefficient_shape():
    import math

    for seq in (make_sequence("example311"), make_sequence("const1")):  # const1: d_k = 0 for k >= 1
        for k in range(8):
            d_k = finite_difference(seq, k)
            expected = (d_k / math.factorial(k)) * X**k if d_k else ZERO
            assert standard_coefficient(seq, k) == expected


def test_standard_basis_limit_reports():
    for name in ("besselJ0", "example311", "linear(3)"):
        report = check_standard_basis_limit(make_sequence(name), 8)
        assert report.passed, report.failures[:1]


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(small_fracs, min_size=1, max_size=7, unique=True),
    st.lists(small_fracs, max_size=7),
    st.lists(small_fracs, max_size=7),
)
@example([F(0), F(1), F(1, 2)], [], [])  # all-zero values: degree -1
@example([F(0), F(1), F(1, 2), F(1, 4)], [F(3)], [F(3)] * 4)  # constants
def test_interpolant_degree_matches_lagrange_oracle(xs, coeffs, free):
    known = RatPoly(coeffs[: len(xs)])  # degree < len(xs), so the interpolant is known itself
    ys = [known(x) for x in xs]
    assert _interpolant_degree(xs, ys) == interpolate(list(zip(xs, ys))).degree == known.degree
    free = (free + [F(0)] * len(xs))[: len(xs)]
    assert _interpolant_degree(xs, free) == interpolate(list(zip(xs, free))).degree


def test_interpolation_poly_linear():
    for a in (F(3), F(0), F(-2, 5)):
        seq = GammaSeq.linear(a)
        op = build_operator(F(1), seq, 6)
        assert interpolation_poly(op) == X + a


def test_interpolation_poly_quadratic():
    seq = GammaSeq(lambda k: F(k * (k - 1)), name="fall2")
    op = build_operator(F(3, 2), seq, 8)
    p = interpolation_poly(op)
    assert p == X**2 - X
    for n in range(11):
        assert p(F(n)) == seq[n]


@pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2)])
def test_interpolation_poly_quartic(alpha):
    """gamma_n = n^4 - 3n^2 + 1 puts C(x, 3) and C(x, 4) into the binomial sum; orders 5 and 6 add zeros."""
    quartic = X**4 - 3 * X**2 + 1
    seq = GammaSeq(lambda k: quartic(k), name="quartic")
    p = interpolation_poly(build_operator(alpha, seq, 6))
    assert p == quartic
    assert [p(n) for n in range(10)] == [n**4 - 3 * n**2 + 1 for n in range(10)]


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


_positive = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)

# One draw per difference route: row by row (every step factor after the first
# is 1), a factored generator (factors t, sigma = s/t) and the geom-factorial ODE.
_random_sequences = st.one_of(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=1, max_size=14).map(
        GammaSeq.from_values
    ),
    st.builds(
        lambda c, m, sigma, zeros: GammaSeq.from_lpplus(FactoredSpec(c=c, m=m, sigma=sigma, zeros=tuple(zeros))),
        _positive,
        st.integers(min_value=0, max_value=2),
        st.one_of(st.just(F(0)), st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7)),
        st.lists(_positive, max_size=4),
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).map(GammaSeq.geometric_factorial),
)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=5, max_denominator=7)),
    _random_sequences,
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=4),
)
@example(F(3, 2), GammaSeq.from_lpplus(FactoredSpec(sigma=F(3, 2), zeros=(F(1), F(2)))), 7, 3)
@example(F(1), GammaSeq.geometric_factorial(F(3, 5)), 7, 2)
def test_build_operator_matches_action_solve_on_random_input(alpha, seq, order, p):
    op = build_operator(alpha, seq, order, p)
    assert op.qpolys == solve_operator_from_action(alpha, seq.shifted(p), order).qpolys
    assert op.qpolys[order] == coefficient_polynomial(alpha, seq, order, p)
    # Q_k does not depend on the truncation, which check_standard_basis_limit relies on.
    assert all(build_operator(alpha, seq, n, p).qpolys == op.qpolys[: n + 1] for n in range(order + 1))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=9, max_denominator=11)),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=31),
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=0, max_value=5),
)
def test_monomial_form_matches_hermite_sum(alpha, values, order, p):
    """`build_operator`'s monomial closed form against the paper's formula as
    written, a sum of scaled Hermite polynomials."""
    seq = GammaSeq.from_values(values)
    assert list(build_operator(alpha, seq, order, p).qpolys) == hermite_sum_qpolys(alpha, seq, order, p)


@pytest.mark.parametrize("name", ["besselJ0", "example311"])
def test_dilation_covariance(name):
    """Q_k^(c^2)(x) = c^k * Q_k^(1)(x/c): alpha only scales x."""
    seq = make_sequence(name)
    base = build_operator(F(1), seq, 20).qpolys
    for c in (F(1, 2), F(2), F(3, 2)):
        scaled = build_operator(c * c, seq, 20).qpolys
        for k in range(21):
            assert scaled[k] == c**k * base[k].compose(RatPoly([0, 1 / c])), (c, k)
