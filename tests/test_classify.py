import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hermops

from hermops import classify
from hermops.cli import main
from hermops.classify import (
    FALSIFIED,
    INCONCLUSIVE,
    IS_MS,
    NOT_MS,
    HermiteBasis,
    LaguerreBasis,
    _IntegerMap,
    _corpus_degree,
    check_turan_necessity,
    coefficient_reality_table,
    falsify_sequence,
    is_classical_ms,
    is_hermite_ms,
    ratio_limit_check,
)
from hermops.diffop import build_operator
from hermops.jensen import DifferenceTable, FactoredSpec, GammaSeq, finite_difference, ratio_sequence
from hermops.hermite import from_hermite_basis, to_hermite_basis
from hermops.laguerre import from_laguerre_basis, to_laguerre_basis
from hermops.ratpoly import (
    X,
    RatPoly,
    _content_strip,
    _real_rooted_ints,
    _strip,
    combine_in_basis,
    count_real_roots,
    expand_in_basis,
    is_real_rooted,
)
from hermops.sequences import BESSEL_J0_ODE, EXP_HALF_COSH_ODE, example311_spec, make_sequence

from oracles import exp_bessel_gamma, reference_corpus_degree, reference_falsify, reference_ratio_limit_check

F = Fraction


def test_is_hermite_ms_threshold():
    assert is_hermite_ms(FactoredSpec(sigma=F(1))).status == IS_MS
    assert is_hermite_ms(FactoredSpec(sigma=F(3, 2), zeros=(F(2),))).status == IS_MS
    assert is_hermite_ms(FactoredSpec(sigma=F(1, 2))).status == NOT_MS
    assert is_hermite_ms(example311_spec()).status == NOT_MS


def test_is_hermite_ms_series_inconclusive():
    # A plain sequence carries no rate certificate, whatever its rule.
    for seq in (make_sequence("besselJ0"), GammaSeq.linear(1)):
        verdict = is_hermite_ms(seq)
        assert verdict.status == INCONCLUSIVE
        assert "sigma unknown" in verdict.reason
    with pytest.raises(TypeError):
        is_hermite_ms(42)


def test_is_classical_ms():
    assert is_classical_ms(FactoredSpec(sigma=F(1, 2))).status == IS_MS
    assert is_classical_ms(GammaSeq.linear(F(2))).status == IS_MS
    assert is_classical_ms(GammaSeq.linear(F(0))).status == IS_MS
    assert is_classical_ms(GammaSeq.linear(F(-1))).status == NOT_MS
    assert is_classical_ms(make_sequence("besselJ0")).status == INCONCLUSIVE
    with pytest.raises(TypeError):
        is_classical_ms(42)


def test_reality_table_example311():
    table = coefficient_reality_table(F(1), make_sequence("example311"), 10)
    assert not all(table)
    false_rows = [k for k, real in enumerate(table) if not real]
    assert false_rows[0] == 4
    assert false_rows == list(range(4, 11))


def test_reality_table_first_breakdown_is_alpha_independent():
    seq = make_sequence("example311")
    for alpha in (F(1, 2), F(2), F(5)):
        table = coefficient_reality_table(alpha, seq, 6)
        assert [k for k, real in enumerate(table) if not real][0] == 4


# -- the paper's theorem on drawn generators ------------------------------------

theorem_alphas = st.one_of(
    st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(7, 3), F(1000, 7)]),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
)
theorem_zeros = st.lists(st.fractions(min_value=F(1, 5), max_value=6, max_denominator=5), max_size=4)


def _sigma(low, high):
    return st.fractions(min_value=low, max_value=high, max_denominator=7)


def _verdicts(alpha, spec, k_max):
    return list(coefficient_reality_table(alpha, GammaSeq.from_lpplus(spec), k_max))


@settings(max_examples=40, deadline=None)
@given(_sigma(1, 4), theorem_zeros, st.integers(0, 1), theorem_alphas)
def test_sigma_at_least_one_makes_every_coefficient_real_rooted(sigma, zeros, m, alpha):
    # phi in L-P+ with sigma >= 1 gives a Hermite multiplier sequence: every Q_k is real-rooted.
    spec = FactoredSpec(c=F(3, 2), m=m, sigma=sigma, zeros=tuple(zeros))
    assert all(_verdicts(alpha, spec, 30))


@settings(max_examples=40, deadline=None)
@given(_sigma(0, 4), theorem_zeros, st.integers(0, 1), theorem_alphas)
def test_reality_row_is_the_same_for_every_alpha(sigma, zeros, m, alpha):
    # Q_k(x; alpha) = alpha^(k/2) * Q_k(x/sqrt(alpha); 1): a dilation keeps every root real or not.
    spec = FactoredSpec(c=F(2, 5), m=m, sigma=sigma, zeros=tuple(zeros))
    assert _verdicts(alpha, spec, 24) == _verdicts(F(1), spec, 24)


@settings(max_examples=25, deadline=None)
@given(
    _sigma(0, 1).filter(lambda s: s < 1),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
    theorem_alphas,
)
def test_pure_exponential_below_one_fails_first_at_k_2(sigma, c, alpha):
    # d_k = c * (sigma - 1)^k, so d_2 * (d_2 + 2*d_1) = c^2 * (sigma - 1)^3 * (sigma + 1) < 0.
    spec = FactoredSpec(c=c, sigma=sigma)
    assert _verdicts(alpha, spec, 6)[:3] == [True, True, False]


# The sigma < 1 direction on generators with zeros.  Q_k = (d_k/k!)*x^k - (alpha/2)*(d_k + 2*d_(k-1))/(k-2)!*x^(k-2)
# + ..., so real roots would make the sum of their squares, alpha*k*(k-1)*(d_k + 2*d_(k-1))/d_k, nonnegative:
# T_k = d_k^2 + 2*d_k*d_(k-1) >= 0.  A ratio rho = d_k/d_(k-1) within 1 - sigma of r = sigma - 1 lies in (2r, 0),
# inside (-2, 0), so T_k = d_(k-1)^2 * rho * (rho + 2) < 0 there, and Q_k is not real-rooted for k >= 2.
below_one = _sigma(0, 1).filter(lambda s: s < 1)
window_alphas = st.sampled_from([F(1, 2), F(1), F(2)])


def _assert_window_refutes_reality(alpha, seq, p, k0, width):
    table = DifferenceTable(seq, k0 + width, p)
    qpolys = build_operator(alpha, seq, k0 + width, p)
    defined = [k for k in range(k0, k0 + width + 1) if table.ratio(k) is not None]
    assert defined
    for k in defined:
        assert table.turan(k) < 0, k
        assert k < 2 or not is_real_rooted(qpolys[k]), k  # Q_1 = d_1*x has no x^(k-2) term


@settings(max_examples=40, deadline=None)
@given(below_one, theorem_zeros, st.integers(0, 1), window_alphas)
def test_sigma_below_one_ratio_window_refutes_reality(sigma, zeros, m, alpha):
    spec = FactoredSpec(c=F(3, 2), m=m, sigma=sigma, zeros=tuple(zeros))
    k0 = ratio_limit_check(spec, window=2, tol=1 - sigma)
    assert k0 is not None
    _assert_window_refutes_reality(alpha, GammaSeq.from_lpplus(spec), 0, k0, 2)


def _ratio_window(seq, sigma, p, k_max=60):
    """The first k0 below k_max whose ratios at k0 - 1..k0 + 1 are each within 1 - sigma of sigma - 1 or
    undefined, one of them defined."""
    rows = ratio_sequence(seq, k_max, p)
    near = [rho is None or abs(rho - (sigma - 1)) < 1 - sigma for _, rho in rows]
    defined = [rho is not None for _, rho in rows]
    return next(k for k in range(1, k_max - 1) if all(near[k - 1 : k + 2]) and any(defined[k - 1 : k + 2]))


@settings(max_examples=30, deadline=None)
@given(below_one, theorem_zeros, st.integers(0, 1), window_alphas, st.integers(1, 4))
def test_sigma_below_one_ratio_window_refutes_reality_after_a_shift(sigma, zeros, m, alpha, p):
    # phi^(p) keeps the factored form with the same sigma (Laguerre), so its ratios d_(k,p)/d_(k-1,p) also tend to r,
    # unless phi is a polynomial (sigma = 0) of degree below p and phi^(p) = 0.
    assume(sigma > 0 or p <= m + len(zeros))
    seq = GammaSeq.from_lpplus(FactoredSpec(c=F(3, 2), m=m, sigma=sigma, zeros=tuple(zeros)))
    _assert_window_refutes_reality(alpha, seq, p, _ratio_window(seq, sigma, p), 2)


# The extension to infinitely many zeros, through the ODE route: y = e^(sigma*x) * 0F1(;b;r*x) with b, r > 0 is
# e^(sigma*x) times a Bessel-type entire function of genus 0 whose zeros are all negative, and it solves
# x*y'' + (b - 2*sigma*x)*y' + (sigma^2*x - b*sigma - r)*y = 0.  The draws are fixed here, not tuned to the outcome.
bessel_b = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
bessel_r = st.fractions(min_value=F(1, 7), max_value=4, max_denominator=7)


def _exp_bessel_ode(sigma, b, r):
    """That ODE cleared to integers, in `GammaSeq.from_ode`'s form (q2, (r0, r1), (s0, s1))."""
    coeffs = (F(1), b, -2 * sigma, -b * sigma - r, sigma**2)
    scale = math.lcm(*(c.denominator for c in coeffs))
    q2, r0, r1, s0, s1 = (int(c * scale) for c in coeffs)
    return q2, (r0, r1), (s0, s1)


def _exp_bessel_seq(sigma, b, r):
    return GammaSeq.from_ode(_exp_bessel_ode(sigma, b, r), name=f"exp-bessel({sigma},{b},{r})")


def test_exp_bessel_family_holds_both_named_series():
    for (sigma, b, r), ode, name in (
        ((F(0), F(1), F(1)), BESSEL_J0_ODE, "besselJ0"),
        ((F(1, 2), F(1, 2), F(1, 2)), EXP_HALF_COSH_ODE, "exp-half-cosh"),
    ):
        assert _exp_bessel_ode(sigma, b, r) == ode
        assert [exp_bessel_gamma(sigma, b, r, k) for k in range(31)] == make_sequence(name).values(30)


@settings(max_examples=30, deadline=None)
@given(_sigma(0, 3), bessel_b, bessel_r, st.integers(0, 4))
def test_exp_bessel_gammas_and_differences_match_the_oracles(sigma, b, r, p):
    seq = _exp_bessel_seq(sigma, b, r)
    assert seq.values(24) == [exp_bessel_gamma(sigma, b, r, k) for k in range(25)]
    table = DifferenceTable(seq, 20, p)
    assert [table[k] for k in range(21)] == [finite_difference(seq, k, p) for k in range(21)]


@settings(max_examples=15, deadline=None)
@given(_sigma(1, 3), bessel_b, bessel_r, window_alphas, st.integers(1, 4))
def test_exp_bessel_sigma_at_least_one_makes_every_coefficient_real_rooted(sigma, b, r, alpha, p):
    seq = _exp_bessel_seq(sigma, b, r)
    assert all(coefficient_reality_table(alpha, seq, 30))
    assert all(coefficient_reality_table(alpha, seq, 30, p))


@settings(max_examples=30, deadline=None)
@given(below_one, bessel_b, bessel_r, window_alphas, st.integers(0, 4))
@example(F(6, 7), F(2), F(4), F(1), 3)
def test_exp_bessel_sigma_below_one_ratio_window_refutes_reality(sigma, b, r, alpha, p):
    # e^(-x) * y^(p) = e^((sigma - 1)*x) * (a sum of 0F1 terms of order 1/2), so d_(k,p)/d_(k-1,p) tends to sigma - 1,
    # the later the larger r/(1 - sigma) is: the window starts at k0 = 60 for (sigma, b, r, p) = (6/7, 2, 4, 3).
    seq = _exp_bessel_seq(sigma, b, r)
    _assert_window_refutes_reality(alpha, seq, p, _ratio_window(seq, sigma, p, 100), 2)


def test_reality_table_constant_sequence():
    table = coefficient_reality_table(F(1), make_sequence("const1"), 8)
    assert all(table)


def test_reality_table_requires_positive_alpha():
    with pytest.raises(ValueError):
        coefficient_reality_table(F(0), make_sequence("const1"), 4)


def test_reality_table_json(capsys):
    """`reality`'s JSON is the library table's alpha, shift and verdicts."""
    table = coefficient_reality_table(F(1), make_sequence("example311"), 5, 1)
    assert main(["reality", "--seq", "example311", "--alpha", "1", "--kmax", "5", "--p", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"alpha": "1/1", "p": 1, "rows": [{"k": k, "real_rooted": real} for k, real in enumerate(table)]}


def test_turan_necessity():
    for name in ("besselJ0", "example311", "const1", "linear(3)"):
        report = check_turan_necessity(F(1), make_sequence(name), 10)
        assert report.passed, report.failures[:1]


def test_ratio_limit_example311():
    assert ratio_limit_check(example311_spec(), window=20, tol=F(1, 100), cap=200) == 103
    assert example311_spec().sigma - 1 == F(-1, 2)


def test_ratio_limit_simple_exponential():
    # gamma_k = 2^k: differences are 1^k, ratios exactly 1 = sigma - 1 at once.
    assert ratio_limit_check(FactoredSpec(sigma=F(2)), window=10, tol=F(1, 100), cap=50) == 1


RATIO_GRID_IN_CAP = [
    (F(0), ()),
    (F(0), (F(1),)),
    (F(1, 2), ()),
    (F(1, 2), (F(1),)),
    (F(1, 2), (F(1), F(2))),
    (F(1, 2), (F(1), F(1))),
    (F(3, 2), ()),
    (F(3, 2), (F(1),)),
    (F(3, 2), (F(1), F(2))),
    (F(3, 2), (F(1), F(1))),
    (F(2), ()),
    (F(2), (F(1),)),
]


@pytest.mark.parametrize("sigma,zeros", RATIO_GRID_IN_CAP)
def test_ratio_limit_within_default_cap(sigma, zeros):
    assert ratio_limit_check(FactoredSpec(sigma=sigma, zeros=zeros), window=20, tol=F(1, 100), cap=200) is not None


@pytest.mark.parametrize(
    "sigma,zeros", [(F(0), (F(1), F(2))), (F(2), (F(1), F(1)))]
)
def test_ratio_limit_cap_exhaustion(sigma, zeros):
    # Two-zero specs at |sigma - 1| = 1 converge just past the default cap
    # (first windows start at 204 and 201); the check must return None
    # rather than inventing a window.
    assert ratio_limit_check(FactoredSpec(sigma=sigma, zeros=zeros), window=20, tol=F(1, 100), cap=200) is None


def test_ratio_limit_scan_matches_the_per_start_oracle():
    """One pass over the ratios gives the K0 of re-reading each window, on 720 searches."""
    grid = itertools.product(
        (F(1, 3), F(1, 2), F(3, 2), F(7, 4), F(5, 2)),
        ((), (F(1),), (F(1), F(1)), (F(1, 2), F(3))),
        (0, 1, 5, 20),
        (F(1, 10), F(1, 100), F(1, 1000)),
        (1, 7, 60),
    )
    found = 0
    for sigma, zeros, window, tol, cap in grid:
        spec = FactoredSpec(sigma=sigma, zeros=zeros)
        k0 = ratio_limit_check(spec, window=window, tol=tol, cap=cap)
        assert k0 == reference_ratio_limit_check(spec, window, tol, cap), (sigma, zeros, window, tol, cap)
        found += k0 is not None
    assert found == 257  # both outcomes are on the grid


def test_ratio_limit_rejects_sigma_one():
    with pytest.raises(ValueError):
        ratio_limit_check(FactoredSpec(sigma=F(1)), window=5, tol=F(1, 100), cap=50)
    with pytest.raises(TypeError):
        ratio_limit_check(make_sequence("besselJ0"), window=5, tol=F(1, 100), cap=50)
    with pytest.raises(ValueError):
        ratio_limit_check(FactoredSpec(sigma=F(2)), window=5, tol=F(0), cap=50)


@pytest.mark.parametrize(
    "window, cap, message",
    [
        (20, 0, "cap must be at least 1, got 0"),
        (-1, 50, "window must be nonnegative, got -1"),
        (0, -3, "cap must be at least 1, got -3"),
    ],
)
def test_ratio_limit_rejects_bad_window_and_cap(window, cap, message):
    with pytest.raises(ValueError, match=message):
        ratio_limit_check(example311_spec(), window=window, tol=F(1, 100), cap=cap)


def test_bases_round_trip():
    p = (X - 2) * (X + 5) * X
    for basis in (HermiteBasis(F(0)), HermiteBasis(F(1, 2)), LaguerreBasis(F(1))):
        polys = basis.family(p.degree)
        assert combine_in_basis(expand_in_basis(p, polys), polys) == p


def test_basis_labels():
    # The labels appear in witness JSON.
    assert HermiteBasis(F(0)).label == "hermite(0)"
    assert HermiteBasis(F(1, 2)).label == "hermite(1/2)"
    assert LaguerreBasis(F(1)).label == "laguerre(1)"
    assert HermiteBasis(F(2, 4)) == HermiteBasis(F(1, 2))
    assert HermiteBasis(F(1, 2)) != LaguerreBasis(F(1, 2))


@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(1), F(7, 3)])
def test_hermite_expansion_of_powers_matches_closed_form(alpha):
    # x^n = sum_j n! / (2^j j! (n-2j)!) alpha^j H_(n-2j)
    polys = HermiteBasis(alpha).family(8)
    for n in range(9):
        expected = [F(0)] * (n + 1)
        for j in range(n // 2 + 1):
            den = 2**j * math.factorial(j) * math.factorial(n - 2 * j)
            expected[n - 2 * j] = F(math.factorial(n), den) * alpha**j
        assert expand_in_basis(X**n, polys) == expected
        assert to_hermite_basis(X**n, alpha) == expected


@pytest.mark.parametrize("alpha", [F(0), F(1), F(-1, 2), F(5, 2)])
def test_laguerre_expansion_of_powers_matches_closed_form(alpha):
    # x^n = n! sum_k (-1)^k C(n + alpha, n - k) L_k
    polys = LaguerreBasis(alpha).family(8)
    for n in range(9):
        expected = []
        for k in range(n + 1):
            binom = F(1)
            for i in range(k + 1, n + 1):
                binom *= alpha + i
            binom /= math.factorial(n - k)
            expected.append((-1) ** k * math.factorial(n) * binom)
        assert expand_in_basis(X**n, polys) == expected
        assert to_laguerre_basis(X**n, alpha) == expected


_rats = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["standard", "hermite", "laguerre"]),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
    st.lists(_rats, max_size=8).map(RatPoly),
)
def test_bases_round_trip_random(family, alpha, p):
    # The standard basis is the Hermite family at alpha = 0.
    if family == "laguerre":
        a = alpha - F(1, 2)
        basis, to_basis, from_basis = LaguerreBasis(a), to_laguerre_basis, from_laguerre_basis
    else:
        a = F(0) if family == "standard" else alpha + F(1, 7)
        basis = HermiteBasis(a)
        to_basis, from_basis = to_hermite_basis, from_hermite_basis
    polys = basis.family(8)
    coeffs = expand_in_basis(p, polys)
    assert len(coeffs) == p.degree + 1
    assert combine_in_basis(coeffs, polys) == p
    # One shape: the module-level conversions return exactly the basis's plain list.
    expansion = to_basis(p, a)
    assert type(expansion) is list
    assert expansion == coeffs
    assert from_basis(coeffs, a) == p


def test_public_names_resolve():
    for name in hermops.__all__:
        assert getattr(hermops, name) is not None, name
    gone = ("SeriesSpec", "bessel_j0_spec", "exp_half_cosh_spec", "StandardBasis")
    # test-only routes, still defined in their own modules
    gone += ("finite_difference", "taylor_gamma", "squarefree_part")
    gone += ("to_hermite_basis", "from_hermite_basis", "to_laguerre_basis", "from_laguerre_basis")
    for name in gone:
        assert not hasattr(hermops, name), name


def test_falsify_linear_negative_on_hermite():
    verdict = falsify_sequence(GammaSeq.linear(F(-1)), HermiteBasis(F(1)), 4)
    assert verdict.status == FALSIFIED
    w = verdict.witness
    assert w.input_poly.degree == 2
    assert is_real_rooted(w.input_poly)
    assert not is_real_rooted(w.image_poly)


def test_falsify_witness_is_sound():
    """Re-derive the witness image independently and confirm non-reality."""
    basis = LaguerreBasis(F(1))
    seq = GammaSeq.linear(F(3))
    verdict = falsify_sequence(seq, basis, 6)
    assert verdict.status == FALSIFIED
    w = verdict.witness
    polys = basis.family(w.input_poly.degree)
    coeffs = expand_in_basis(w.input_poly, polys)
    image = combine_in_basis([seq[n] * c for n, c in enumerate(coeffs)], polys)
    assert image == w.image_poly
    assert count_real_roots(image) < image.degree


def test_falsify_inconclusive_inside_laguerre_band():
    for a in (F(0), F(1), F(2)):
        verdict = falsify_sequence(GammaSeq.linear(a), LaguerreBasis(F(1)), 5)
        assert verdict.status == INCONCLUSIVE
        assert verdict.bound == 5
        assert verdict.witness is None


def test_falsify_classical_shift_is_inconclusive():
    # k+1 is a classical multiplier sequence; the search must not "find" anything.
    verdict = falsify_sequence(GammaSeq.linear(F(1)), HermiteBasis(F(0)), 5)
    assert verdict.status == INCONCLUSIVE


def test_falsify_standard_negative_entry():
    # gamma with mixed signs on the standard basis: x+1 -> gamma_0 + gamma_1 x.
    verdict = falsify_sequence(GammaSeq.from_values([1, 2, -3]), HermiteBasis(F(0)), 4)
    assert verdict.status == FALSIFIED


def test_each_corpus_degree_and_its_columns_are_built_once_per_process():
    seq, basis = GammaSeq.linear(F(1)), LaguerreBasis(F(1))
    _corpus_degree.cache_clear()
    first = json.dumps(falsify_sequence(seq, basis, 5).to_json_dict(), sort_keys=True)
    second = json.dumps(falsify_sequence(seq, basis, 5).to_json_dict(), sort_keys=True)
    assert first == second and json.loads(first)["status"] == INCONCLUSIVE
    # The first search builds degrees 1..5 (each degree above 1 reads its predecessor's stream); the second builds none.
    info = _corpus_degree.cache_info()
    assert (info.misses, info.hits) == (5, 4 + 5)
    assert _corpus_degree(5) is _corpus_degree(5)
    assert _corpus_degree.cache_info().misses == 5


def test_witness_corpus_matches_the_fraction_built_oracle():
    # Integer root products give the same candidates in the same order as from_roots in Fractions, degree by degree.
    for n in range(1, 7):
        ours, cols, state = _corpus_degree(n)
        reference, reference_state = reference_corpus_degree(n)
        assert ours == reference and state == reference_state
        assert all(c.degree == n for c in ours)
        assert cols == tuple(zip(*(c._num for c in reference)))
        assert all(type(c) is int for col in cols for c in col)


def test_verdict_json():
    verdict = falsify_sequence(GammaSeq.linear(F(-1)), HermiteBasis(F(1)), 4)
    data = verdict.to_json_dict()
    assert data["status"] == FALSIFIED
    assert "input" in data["witness"]
    json.dumps(data)

    inconclusive = falsify_sequence(GammaSeq.linear(F(1)), HermiteBasis(F(0)), 3)
    data = inconclusive.to_json_dict()
    assert data["status"] == INCONCLUSIVE
    assert data["bound"] == 3
    json.dumps(data)


def _basis(family, alpha):
    """A basis from a drawn alpha >= 0: Hermite at alpha + 1/7, Laguerre at alpha - 1/2."""
    if family == "standard":
        return HermiteBasis(F(0))
    if family == "hermite":
        return HermiteBasis(alpha + F(1, 7))
    return LaguerreBasis(alpha - F(1, 2))


_families = st.sampled_from(["standard", "hermite", "laguerre"])
_alphas = st.fractions(min_value=0, max_value=4, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_rats, min_size=7, max_size=7),
    _families,
    _alphas,
    st.lists(_rats, min_size=1, max_size=7).map(RatPoly).filter(bool),
    st.integers(min_value=1, max_value=12),
)
def test_integer_map_is_a_positive_multiple_of_the_exact_image(values, family, alpha, p, g):
    # Zero and negative gammas included; the matrix covers degree 6 and serves every lower degree.
    # p's numerators times g >= 1 stand for a candidate whose numerators are not primitive.
    basis, seq = _basis(family, alpha), GammaSeq.from_values(values)
    action, polys = _IntegerMap(seq, basis, 6), basis.family(6)
    [ints] = action.expand([(g * c,) for c in p._num])  # a batch of one candidate
    scaled = _strip(list(ints))
    exact = combine_in_basis([seq[n] * c for n, c in enumerate(expand_in_basis(p, polys))], polys)
    image = RatPoly(scaled)
    if exact.is_zero:
        assert image.is_zero
    else:
        ratio = image.leading / exact.leading
        assert ratio > 0
        assert image == exact * ratio
    # The falsifier's root test and its witness image do not depend on the content of the numerators.
    assert _real_rooted_ints(tuple(_content_strip(scaled))) == is_real_rooted(exact)
    assert RatPoly._reduced(scaled, action.den * p._den * g) == exact


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.lists(_rats, min_size=6, max_size=6).map(GammaSeq.from_values),
        st.fractions(min_value=-3, max_value=6, max_denominator=4).map(GammaSeq.linear),
    ),
    _families,
    _alphas,
    st.integers(min_value=1, max_value=5),
)
def test_falsify_matches_the_per_candidate_route(seq, family, alpha, deg_max):
    basis = _basis(family, alpha)
    ours = falsify_sequence(seq, basis, deg_max).to_json_dict()
    reference = reference_falsify(seq, basis, deg_max).to_json_dict()
    assert json.dumps(ours, sort_keys=True) == json.dumps(reference, sort_keys=True)


@pytest.mark.parametrize("values", [[1, 1], [0, 1, 1], [1, 3, 3], [1, 2, 3, 4], [1, 1, 1, 1, 0, 1]])
@pytest.mark.parametrize("family", ["standard", "hermite", "laguerre"])
def test_falsify_on_images_that_lose_degree(values, family):
    # gamma is zero past the list, so an image's top coefficients vanish; its root test is on the true degree.
    seq, basis = GammaSeq.from_values(values), _basis(family, F(6, 7))
    ours = falsify_sequence(seq, basis, 4).to_json_dict()
    assert json.dumps(ours, sort_keys=True) == json.dumps(reference_falsify(seq, basis, 4).to_json_dict(), sort_keys=True)


_BASES = (HermiteBasis(0), HermiteBasis(F(3, 2)), LaguerreBasis(F(3, 2)))


def _same_verdict_as_the_per_candidate_route(seq, basis, deg_max):
    ours = falsify_sequence(seq, basis, deg_max)
    reference = reference_falsify(seq, basis, deg_max)
    assert json.dumps(ours.to_json_dict(), sort_keys=True) == json.dumps(reference.to_json_dict(), sort_keys=True)
    return ours


@pytest.mark.parametrize(
    "seq",
    [
        GammaSeq.linear(F(1)),
        GammaSeq.linear(F(-1, 2)),
        # k(k - 1), inconclusive on all three: zero rows and entries skip their products, degree 1 loses its top
        GammaSeq.from_values([0, 0, 2, 6, 12, 20, 30]),
        # gamma_6 = 0 and the identity below: every degree-6 image loses its top, x^6's all of it
        GammaSeq.from_values([1, 1, 1, 1, 1, 1]),
    ],
    ids=lambda seq: seq.name,
)
@pytest.mark.parametrize("basis", _BASES, ids=lambda basis: basis.label)
def test_falsify_at_degree_six_matches_the_per_candidate_route(seq, basis):
    # HermiteBasis(0) maps x^j to gamma_j x^j, so every entry off the diagonal is zero.
    _same_verdict_as_the_per_candidate_route(seq, basis, 6)


@pytest.mark.parametrize("basis", _BASES, ids=lambda basis: basis.label)
def test_falsify_the_zero_sequence(basis):
    # Every image is zero, which is real-rooted by convention.
    action = _IntegerMap(GammaSeq.from_values([]), basis, 6)
    assert all(not any(image) for image in action.expand(_corpus_degree(6)[1]))
    verdict = _same_verdict_as_the_per_candidate_route(GammaSeq.from_values([]), basis, 6)
    assert verdict.status == INCONCLUSIVE


@pytest.mark.parametrize(
    "values, basis, degree, at",
    [
        ([6, 4, 5, 3], LaguerreBasis(F(1)), 2, 0),
        ([0, 0, 4, 1, 0, 4], LaguerreBasis(F(1)), 5, 0),
        ([1, -2, 3, -3], HermiteBasis(F(1)), 4, -1),  # gamma_4 = 0, so the witness's image is stripped too
    ],
)
def test_witness_at_either_end_of_its_degree(values, basis, degree, at):
    verdict = _same_verdict_as_the_per_candidate_route(GammaSeq.from_values(values), basis, 6)
    assert verdict.witness.input_poly == _corpus_degree(degree)[0][at]


def _pinned_searches() -> list:
    factored = GammaSeq.from_lpplus(FactoredSpec(sigma=F(3, 2), zeros=(F(1), F(2))))
    return [
        (make_sequence("linear(1)"), HermiteBasis(0)),
        (make_sequence("linear(-1)"), HermiteBasis(1)),
        (make_sequence("linear(3/2)"), LaguerreBasis(1)),
        (make_sequence("linear(5)"), LaguerreBasis(1)),
        (make_sequence("linear(-3)"), LaguerreBasis(F(1, 2))),
        (make_sequence("geom-factorial(1/3)"), HermiteBasis(1)),
        (make_sequence("besselJ0"), HermiteBasis(2)),
        (make_sequence("example311"), HermiteBasis(1)),
        (factored, HermiteBasis(1)),
        (GammaSeq.from_values([1, 1, 1, 1, 0, 1]), LaguerreBasis(F(6, 7))),
        (GammaSeq.from_values([]), HermiteBasis(1)),
    ]


@pytest.mark.parametrize(
    "deg_max, digest",
    [
        (6, "af0248bbf19fdca05797ed42fec0d184833206087d25ee226cbdeb186af2f431"),
        (7, "e03057e450b49ec4e939bcf57335343585835599be97bfe4d60c624f5ec0e550"),
        (8, "1f02eb2520a53c3ade7f245c0963cc41278a566249ac2f7f1d9bdb5a3118e6dc"),
    ],
)
def test_verdict_bytes_above_the_bench_degrees_are_pinned(deg_max, digest):
    # The bench's searches stop at deg_max 6; these pin the verdicts, witnesses included, up to 8.
    verdicts = [falsify_sequence(seq, basis, deg_max).to_json_dict() for seq, basis in _pinned_searches()]
    assert hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest() == digest


def _count_expand_calls(monkeypatch) -> list:
    """Count calls of every `expand` method of a class defined in classify, as perfbench does."""
    calls = []
    for cls in list(vars(classify).values()):
        if isinstance(cls, type) and cls.__module__ == classify.__name__ and "expand" in vars(cls):
            original = vars(cls)["expand"]

            def counted(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "expand", counted)
    return calls


def test_one_counted_expand_per_corpus_degree_searched(monkeypatch):
    calls = _count_expand_calls(monkeypatch)
    verdict = falsify_sequence(GammaSeq.linear(F(1)), LaguerreBasis(F(1)), 5)
    assert verdict.status == INCONCLUSIVE
    assert len(calls) == 5

    calls.clear()
    verdict = falsify_sequence(GammaSeq.linear(F(-1)), HermiteBasis(F(1)), 4)
    assert verdict.status == FALSIFIED
    assert len(calls) == verdict.witness.input_poly.degree > 1


def test_falsify_rejects_deg_max_below_one():
    for deg_max in (0, -1):
        with pytest.raises(ValueError, match="^deg_max must be at least 1$"):
            falsify_sequence(GammaSeq.linear(F(1)), HermiteBasis(F(0)), deg_max)
