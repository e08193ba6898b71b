import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermops

from hermops.classify import (
    FALSIFIED,
    INCONCLUSIVE,
    IS_MS,
    NOT_MS,
    HermiteBasis,
    LaguerreBasis,
    StandardBasis,
    _witness_candidates,
    check_turan_necessity,
    coefficient_reality_table,
    falsify_sequence,
    is_classical_ms,
    is_hermite_ms,
    ratio_limit_check,
)
from hermops.jensen import FactoredSpec, GammaSeq, bessel_j0_spec
from hermops.hermite import to_hermite_basis
from hermops.laguerre import to_laguerre_basis
from hermops.ratpoly import X, RatPoly, count_real_roots, is_real_rooted
from hermops.sequences import example311_spec, make_sequence

F = Fraction


def test_is_hermite_ms_threshold():
    assert is_hermite_ms(FactoredSpec(sigma=F(1))).status == IS_MS
    assert is_hermite_ms(FactoredSpec(sigma=F(3, 2), zeros=(F(2),))).status == IS_MS
    assert is_hermite_ms(FactoredSpec(sigma=F(1, 2))).status == NOT_MS
    assert is_hermite_ms(example311_spec()).status == NOT_MS


def test_is_hermite_ms_series_inconclusive():
    verdict = is_hermite_ms(bessel_j0_spec())
    assert verdict.status == INCONCLUSIVE


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
    assert not table.all_real_rooted
    false_rows = [row.k for row in table.rows if not row.real_rooted]
    assert false_rows[0] == 4
    assert false_rows == list(range(4, 11))


def test_reality_table_first_breakdown_is_alpha_independent():
    seq = make_sequence("example311")
    for alpha in (F(1, 2), F(2), F(5)):
        table = coefficient_reality_table(alpha, seq, 6)
        assert [row.k for row in table.rows if not row.real_rooted][0] == 4


def test_reality_table_constant_sequence():
    table = coefficient_reality_table(F(1), make_sequence("const1"), 8)
    assert table.all_real_rooted


def test_reality_table_requires_positive_alpha():
    with pytest.raises(ValueError):
        coefficient_reality_table(F(0), make_sequence("const1"), 4)


def test_reality_table_json():
    table = coefficient_reality_table(F(1), make_sequence("example311"), 5, 1)
    data = table.to_json_dict()
    assert data["alpha"] == "1/1"
    assert data["p"] == 1
    assert len(data["rows"]) == 6
    json.dumps(data)  # serializable as-is


def test_turan_necessity():
    for name in ("besselJ0", "example311", "const1", "linear(3)"):
        report = check_turan_necessity(F(1), make_sequence(name), 10)
        assert report.passed, report.failures[:1]


def test_ratio_limit_example311():
    report = ratio_limit_check(example311_spec(), window=20, tol=F(1, 100), cap=200)
    assert report.passed
    assert report.data["k0"] == 103
    assert report.data["target"] == F(-1, 2)


def test_ratio_limit_simple_exponential():
    # gamma_k = 2^k: differences are 1^k, ratios exactly 1 = sigma - 1 at once.
    report = ratio_limit_check(FactoredSpec(sigma=F(2)), window=10, tol=F(1, 100), cap=50)
    assert report.passed
    assert report.data["k0"] == 1


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
    spec = FactoredSpec(sigma=sigma, zeros=zeros)
    report = ratio_limit_check(spec, window=20, tol=F(1, 100), cap=200)
    assert report.passed
    assert report.data["target"] == sigma - 1


@pytest.mark.parametrize(
    "sigma,zeros", [(F(0), (F(1), F(2))), (F(2), (F(1), F(1)))]
)
def test_ratio_limit_cap_exhaustion(sigma, zeros):
    # Two-zero specs at |sigma - 1| = 1 converge just past the default cap
    # (first windows start at 204 and 201); the check must report the
    # exhausted search rather than inventing a window.
    report = ratio_limit_check(
        FactoredSpec(sigma=sigma, zeros=zeros), window=20, tol=F(1, 100), cap=200
    )
    assert not report.passed
    assert "no window" in report.failures[0]
    assert "200" in report.failures[0]


def test_ratio_limit_rejects_sigma_one():
    with pytest.raises(ValueError):
        ratio_limit_check(FactoredSpec(sigma=F(1)), window=5, tol=F(1, 100), cap=50)
    with pytest.raises(TypeError):
        ratio_limit_check(bessel_j0_spec(), window=5, tol=F(1, 100), cap=50)
    with pytest.raises(ValueError):
        ratio_limit_check(FactoredSpec(sigma=F(2)), window=5, tol=F(0), cap=50)


def test_bases_round_trip():
    p = (X - 2) * (X + 5) * X
    for basis in (StandardBasis(), HermiteBasis(F(1, 2)), LaguerreBasis(F(1))):
        assert basis.reconstruct(basis.expand(p)) == p


def test_hermite_basis_rejects_alpha_zero():
    with pytest.raises(ValueError):
        HermiteBasis(F(0))


def test_basis_labels():
    # The labels appear in witness JSON.
    assert StandardBasis().label == "standard"
    assert HermiteBasis(F(1, 2)).label == "hermite(1/2)"
    assert LaguerreBasis(F(1)).label == "laguerre(1)"
    assert HermiteBasis(F(2, 4)) == HermiteBasis(F(1, 2))
    assert HermiteBasis(F(1, 2)) != LaguerreBasis(F(1, 2))


@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(1), F(7, 3)])
def test_hermite_expansion_of_powers_matches_closed_form(alpha):
    # x^n = sum_j n! / (2^j j! (n-2j)!) alpha^j H_(n-2j)
    basis = StandardBasis() if alpha == 0 else HermiteBasis(alpha)
    for n in range(9):
        expected = [F(0)] * (n + 1)
        for j in range(n // 2 + 1):
            den = 2**j * math.factorial(j) * math.factorial(n - 2 * j)
            expected[n - 2 * j] = F(math.factorial(n), den) * alpha**j
        assert basis.expand(X**n) == expected
        assert list(to_hermite_basis(X**n, alpha).coeffs) == expected


@pytest.mark.parametrize("alpha", [F(0), F(1), F(-1, 2), F(5, 2)])
def test_laguerre_expansion_of_powers_matches_closed_form(alpha):
    # x^n = n! sum_k (-1)^k C(n + alpha, n - k) L_k
    basis = LaguerreBasis(alpha)
    for n in range(9):
        expected = []
        for k in range(n + 1):
            binom = F(1)
            for i in range(k + 1, n + 1):
                binom *= alpha + i
            binom /= math.factorial(n - k)
            expected.append((-1) ** k * math.factorial(n) * binom)
        assert basis.expand(X**n) == expected
        assert to_laguerre_basis(X**n, alpha) == expected


_rats = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["standard", "hermite", "laguerre"]),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
    st.lists(_rats, max_size=8).map(RatPoly),
)
def test_bases_round_trip_random(family, alpha, p):
    if family == "standard":
        basis = StandardBasis()
    elif family == "hermite":
        basis = HermiteBasis(alpha + F(1, 7))
    else:
        basis = LaguerreBasis(alpha - F(1, 2))
    coeffs = basis.expand(p)
    assert len(coeffs) == p.degree + 1
    assert basis.reconstruct(coeffs) == p


def test_public_names_resolve():
    for name in hermops.__all__:
        assert getattr(hermops, name) is not None, name
    with pytest.raises(ValueError):
        hermops.HermiteBasis(F(0))


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
    coeffs = basis.expand(w.input_poly)
    image = basis.reconstruct([seq[n] * c for n, c in enumerate(coeffs)])
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
    verdict = falsify_sequence(GammaSeq.linear(F(1)), StandardBasis(), 5)
    assert verdict.status == INCONCLUSIVE


def test_falsify_standard_negative_entry():
    # gamma with mixed signs on the standard basis: x+1 -> gamma_0 + gamma_1 x.
    verdict = falsify_sequence(GammaSeq.from_values([1, 2, -3]), StandardBasis(), 4)
    assert verdict.status == FALSIFIED


def test_witness_corpus_is_built_once_per_deg_max():
    seq, basis = GammaSeq.linear(F(3)), LaguerreBasis(F(1))
    _witness_candidates.cache_clear()
    first = json.dumps(falsify_sequence(seq, basis, 5).to_json_dict(), sort_keys=True)
    second = json.dumps(falsify_sequence(seq, basis, 5).to_json_dict(), sort_keys=True)
    assert first == second
    corpus = _witness_candidates(5)
    assert isinstance(corpus, tuple)
    assert _witness_candidates(5) is corpus
    info = _witness_candidates.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_verdict_json():
    verdict = falsify_sequence(GammaSeq.linear(F(-1)), HermiteBasis(F(1)), 4)
    data = verdict.to_json_dict()
    assert data["status"] == FALSIFIED
    assert "input" in data["witness"]
    json.dumps(data)

    inconclusive = falsify_sequence(GammaSeq.linear(F(1)), StandardBasis(), 3)
    data = inconclusive.to_json_dict()
    assert data["status"] == INCONCLUSIVE
    assert data["bound"] == 3
    json.dumps(data)
