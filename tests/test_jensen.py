import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermops.jensen import (
    DifferenceTable,
    FactoredSpec,
    GammaSeq,
    bessel_j0_spec,
    check_difference_reconstruction,
    check_shift_recurrence,
    check_sum_interchange,
    difference_via_exp_shift,
    exp_half_cosh_spec,
    finite_difference,
    histogram_bins,
    jensen_reversed,
    ratio_csv_lines,
    ratio_sequence,
    taylor_gamma,
    turan_quantity,
)
from hermops.ratpoly import rat_str

F = Fraction

BESSEL_DIFFERENCES = [F(1), F(0), F(-1, 2), F(2, 3), F(-5, 8), F(7, 15), F(-37, 144), F(17, 420)]


def test_factored_spec_validation():
    with pytest.raises(ValueError):
        FactoredSpec(c=0)
    with pytest.raises(ValueError):
        FactoredSpec(m=-1)
    with pytest.raises(ValueError):
        FactoredSpec(sigma=F(-1, 2))
    with pytest.raises(ValueError):
        FactoredSpec(zeros=(F(0),))


def test_factored_json_dict():
    spec = FactoredSpec(sigma=F(1, 2), zeros=(F(1), F(1)))
    d = spec.to_json_dict()
    assert d["sigma"] == "1/2"
    assert d["zeros"] == ["1/1", "1/1"]


def test_pure_exponential_gammas():
    spec = FactoredSpec(sigma=F(3, 2))
    for k in range(8):
        assert taylor_gamma(spec, k) == F(3, 2) ** k


def test_one_plus_x_times_exp():
    # (1+x)e^x has Taylor coefficients (k+1)/k!, so gamma_k = k+1.
    spec = FactoredSpec(sigma=F(1), zeros=(F(1),))
    for k in range(10):
        assert taylor_gamma(spec, k) == k + 1


def test_monomial_prefactor():
    # x^2 e^x: gamma_k = k!/( (k-2)! ) = k(k-1) for k >= 2, zero before.
    spec = FactoredSpec(m=2, sigma=F(1))
    assert [taylor_gamma(spec, k) for k in range(6)] == [0, 0, 2, 6, 12, 20]


def test_bessel_differences_frozen():
    seq = GammaSeq.from_lpplus(bessel_j0_spec())
    for k, expected in enumerate(BESSEL_DIFFERENCES):
        assert finite_difference(seq, k) == expected


def test_exp_half_cosh_leading_gammas():
    seq = GammaSeq.from_lpplus(exp_half_cosh_spec())
    assert seq.values(2) == [F(1), F(3, 2), F(19, 12)]


def test_difference_two_routes_agree():
    specs = [
        FactoredSpec(sigma=F(1, 2), zeros=(F(1), F(1))),
        FactoredSpec(sigma=F(2), zeros=(F(3),)),
        FactoredSpec(c=F(2), m=1, sigma=F(1)),
    ]
    for spec in specs:
        seq = GammaSeq.from_lpplus(spec)
        for k in range(10):
            assert finite_difference(seq, k) == difference_via_exp_shift(spec, k)


def test_difference_of_constant_vanishes():
    seq = GammaSeq.constant(F(5))
    assert finite_difference(seq, 0) == 5
    for k in range(1, 8):
        assert finite_difference(seq, k) == 0


def test_difference_of_linear():
    seq = GammaSeq.linear(F(3))
    assert finite_difference(seq, 0) == 3
    assert finite_difference(seq, 1) == 1
    for k in range(2, 8):
        assert finite_difference(seq, k) == 0


def test_jensen_reversed_at_minus_one():
    seq = GammaSeq.from_lpplus(bessel_j0_spec())
    for n in range(8):
        p = jensen_reversed(seq, n)
        assert p(F(-1)) == finite_difference(seq, n)


def test_jensen_reversed_coefficients():
    seq = GammaSeq.linear(F(0))
    p = jensen_reversed(seq, 3)
    # gamma = 0,1,2,3: sum C(3,k) gamma_k x^{3-k} = 3x^2 + 6x + 3.
    assert p.coeffs == (F(3), F(6), F(3))


def test_shifted_indexing_and_name():
    seq = GammaSeq.linear(F(0))
    sh = seq.shifted(2)
    assert sh[0] == seq[2]
    assert sh[5] == seq[7]
    assert sh.name == f"{seq.name}+2"
    with pytest.raises(ValueError):
        seq.shifted(-1)


def test_shift_of_shift():
    seq = GammaSeq.from_lpplus(bessel_j0_spec())
    assert seq.shifted(1).shifted(2).values(5) == seq.shifted(3).values(5)


def test_finite_difference_shift_parameter():
    seq = GammaSeq.from_lpplus(bessel_j0_spec())
    for k in range(6):
        for p in range(4):
            assert finite_difference(seq, k, p) == finite_difference(seq.shifted(p), k)


def test_sign_pattern_enforced():
    seq = GammaSeq(lambda k: F(-1) ** k, sign_pattern="nonneg", name="bad")
    with pytest.raises(ValueError):
        seq[1]


def test_sign_pattern_alternating():
    seq = GammaSeq(
        lambda k: F((-1) ** k, k + 1), sign_pattern="alternating-even-start", name="alt"
    )
    assert seq.values(3) == [F(1), F(-1, 2), F(1, 3), F(-1, 4)]
    flipped = seq.shifted(1)
    assert flipped.sign_pattern == "alternating-odd-start"


def test_unknown_sign_pattern():
    with pytest.raises(ValueError):
        GammaSeq(lambda k: F(k), sign_pattern="positive")


def test_from_values_tail():
    seq = GammaSeq.from_values([1, 2, F(9, 2)])
    assert seq.values(4) == [F(1), F(2), F(9, 2), F(0), F(0)]
    assert seq.name == "explicit-list"
    truncated = GammaSeq.from_values([1, 2], tail_zero=False)
    with pytest.raises(IndexError):
        truncated[2]


def test_negative_index():
    seq = GammaSeq.constant(1)
    with pytest.raises(IndexError):
        seq[-1]


def test_nonneg_representative():
    alt = GammaSeq.geometric_factorial(F(-1, 2))
    rep = alt.nonneg_representative()
    assert rep.values(5) == [abs(v) for v in alt.values(5)]
    mixed = GammaSeq(lambda k: F(2 - k), name="mixed-rule")
    with pytest.raises(ValueError):
        mixed.nonneg_representative()


def test_geometric_factorial_values():
    seq = GammaSeq.geometric_factorial(F(1, 2))
    for k in range(6):
        assert seq[k] == F(1, 2) ** k / math.factorial(k)


def test_turan_quantity_values():
    seq = GammaSeq.from_lpplus(bessel_j0_spec())
    expected = {1: F(0), 2: F(1, 4), 3: F(-2, 9), 4: F(-85, 192), 5: F(-329, 900)}
    for k, value in expected.items():
        assert turan_quantity(seq, k) == value
    with pytest.raises(ValueError):
        turan_quantity(seq, 0)


def test_ratio_sequence_table():
    spec = FactoredSpec(sigma=F(1, 2), zeros=(F(1), F(1)))
    seq = GammaSeq.from_lpplus(spec)
    rows = ratio_sequence(seq, 7)
    assert [v for _, v in rows] == [
        F(3, 2),
        F(1, 6),
        F(-13, 2),
        F(-33, 26),
        F(-61, 66),
        F(-97, 122),
        F(-141, 194),
    ]


def test_ratio_sequence_undefined_rows():
    seq = GammaSeq.from_lpplus(bessel_j0_spec())
    rows = dict(ratio_sequence(seq, 3))
    assert rows[1] == 0  # d_1/d_0 = 0/1
    assert rows[2] is None  # d_2/d_1 divides by zero
    assert rows[3] == F(2, 3) / F(-1, 2)


def test_ratio_csv_lines():
    lines = ratio_csv_lines([(1, F(3, 2)), (2, None)])
    assert lines[0] == "k,num,den,approx"
    assert lines[1] == "1,3,2,1.5"
    assert lines[2] == "2,,,NA"


def test_histogram_bins_exact():
    values = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    out = histogram_bins(values, 2)
    assert len(out) == 2
    lo0, hi0, c0 = out[0]
    lo1, hi1, c1 = out[1]
    assert (lo0, hi0, hi1) == (F(0), F(1, 2), F(1))
    assert c0 + c1 == len(values)
    assert (c0, c1) == (2, 3)  # top edge closes the last bin


def test_histogram_degenerate_range():
    out = histogram_bins([F(2), F(2), F(2)], 4)
    assert out[0][2] == 3
    assert all(count == 0 for _, _, count in out[1:])


def test_histogram_empty_and_bad_bins():
    assert histogram_bins([], 3) == []
    with pytest.raises(ValueError):
        histogram_bins([F(1)], 0)


def test_difference_reconstruction_reports():
    for seq in (GammaSeq.constant(1), GammaSeq.from_lpplus(bessel_j0_spec())):
        report = check_difference_reconstruction(seq, 10)
        assert report.passed
        assert report.checked == 11


def test_shift_recurrence_reports():
    seq = GammaSeq.from_lpplus(FactoredSpec(sigma=F(1, 2), zeros=(F(1), F(1))))
    report = check_shift_recurrence(seq, 8, 4)
    assert report.passed


def test_shift_recurrence_random_seeded():
    rng = random.Random(99)
    for _ in range(20):
        values = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(20)]
        seq = GammaSeq.from_values(values)
        assert check_shift_recurrence(seq, 8, 8).passed


def test_sum_interchange():
    table = {(k, i): F(k * k - 3 * i, 7) for k in range(12) for i in range(12)}
    for n in (4, 8, 9):
        for j in range(n // 2 + 1):
            report = check_sum_interchange(n, j, table)
            assert report.passed
    with pytest.raises(ValueError):
        check_sum_interchange(4, 3, table)


def _exp_half_cosh_sum(k):
    # gamma_k = k! * [x^k] e^(x/2) * cosh(sqrt(2x)),
    # with cosh(sqrt(2x)) = sum_j 2^j x^j / (2j)!.
    total = F(0)
    for j in range(k + 1):
        total += F(2**j, math.factorial(2 * j)) * F(1, 2) ** (k - j) / math.factorial(k - j)
    return math.factorial(k) * total


def test_exp_half_cosh_recurrence_matches_series_sum():
    spec = exp_half_cosh_spec()
    assert [spec.rule(k) for k in range(201)] == [_exp_half_cosh_sum(k) for k in range(201)]


def test_exp_half_cosh_memo_belongs_to_the_spec():
    first, second = exp_half_cosh_spec(), exp_half_cosh_spec()
    assert first.rule is not second.rule
    assert second.rule(30) == first.rule(30) == _exp_half_cosh_sum(30)


sequence_values = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-20, max_value=20, max_denominator=12)),
    min_size=0,
    max_size=36,
)


@settings(max_examples=60, deadline=None)
@given(sequence_values, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=30))
def test_difference_table_matches_binomial_sum(values, p, k_max):
    seq = GammaSeq.from_values(values)
    table = DifferenceTable(seq, k_max, p)
    assert [table[k] for k in range(k_max + 1)] == [finite_difference(seq, k, p) for k in range(k_max + 1)]
    for k in range(1, k_max + 1):
        prev = finite_difference(seq, k - 1, p)
        assert table.ratio(k) == (None if prev == 0 else finite_difference(seq, k, p) / prev)


def test_difference_table_rejects_negative_indices():
    seq = GammaSeq.constant(1)
    for k_max, p in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            DifferenceTable(seq, k_max, p)
    with pytest.raises(ValueError):
        ratio_sequence(seq, 3, -1)


def test_output_renders_past_the_int_string_limit():
    # Both parts are longer than str() allows by default (4300 digits), and coprime.
    value = F(10**5200 - 3, 10**5100 + 1)
    num = "9" * 5199 + "7"
    den = "1" + "0" * 5099 + "1"
    assert ratio_csv_lines([(1, value)])[1] == f"1,{num},{den},1e+100"
    assert rat_str(-value) == f"-{num}/{den}"
