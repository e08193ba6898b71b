import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermops.jensen import (
    DifferenceTable,
    FactoredSpec,
    GammaSeq,
    approx_str,
    check_difference_reconstruction,
    check_shift_recurrence,
    check_sum_interchange,
    difference_ode,
    finite_difference,
    histogram_bins,
    ode_terms,
    ratio_csv_lines,
    ratio_sequence,
    taylor_gamma,
    turan_quantity,
)
from hermops.ratpoly import rat_str
from hermops.sequences import BESSEL_J0_ODE, EXP_HALF_COSH_ODE, make_sequence
from oracles import (
    closed_form_differences,
    closed_form_gamma,
    difference_via_exp_shift,
    fraction_histogram_bins,
    jensen_reversed,
)

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
    seq = make_sequence("besselJ0")
    for k, expected in enumerate(BESSEL_DIFFERENCES):
        assert finite_difference(seq, k) == expected


def test_exp_half_cosh_leading_gammas():
    seq = make_sequence("exp-half-cosh")
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
    seq = GammaSeq(lambda k: F(5))
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
    seq = make_sequence("besselJ0")
    table = DifferenceTable(seq, 7)
    for n in range(8):
        assert jensen_reversed(seq, n)(F(-1)) == table[n]


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
    seq = make_sequence("besselJ0")
    assert seq.shifted(1).shifted(2).values(5) == seq.shifted(3).values(5)


def test_finite_difference_shift_parameter():
    seq = make_sequence("besselJ0")
    for k in range(6):
        for p in range(4):
            assert finite_difference(seq, k, p) == finite_difference(seq.shifted(p), k)


def test_from_values_tail():
    seq = GammaSeq.from_values([1, 2, F(9, 2)])
    assert seq.values(4) == [F(1), F(2), F(9, 2), F(0), F(0)]
    assert seq.name == "explicit-list"


def test_negative_index():
    seq = make_sequence("const1")
    with pytest.raises(IndexError):
        seq[-1]


def test_geometric_factorial_values():
    seq = GammaSeq.geometric_factorial(F(1, 2))
    for k in range(6):
        assert seq[k] == F(1, 2) ** k / math.factorial(k)


@pytest.mark.parametrize("r", [F(-2), F(-5, 3), F(0), F(1), F(3, 7), F(5, 2)])
def test_geometric_factorial_ode_gives_r_power_over_factorial(r):
    seq = GammaSeq.geometric_factorial(r)
    assert seq.values(200) == [r**k / math.factorial(k) for k in range(201)]


def test_turan_quantity_values():
    seq = make_sequence("besselJ0")
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
    seq = make_sequence("besselJ0")
    rows = dict(ratio_sequence(seq, 3))
    assert rows[1] == 0  # d_1/d_0 = 0/1
    assert rows[2] is None  # d_2/d_1 divides by zero
    assert rows[3] == F(2, 3) / F(-1, 2)


def test_ratio_csv_lines():
    lines = list(ratio_csv_lines([(1, F(3, 2)), (2, None)]))
    assert lines == ["k,num,den,approx", "1,3,2,1.5", "2,,,NA"]


def test_approx_column_past_the_float_range():
    # Inside the float range the column is float(value) at .12g; outside it
    # the exact value is rounded to 12 significant digits in the same style.
    for value in (F(3, 2), F(-1, 3), F(10**300 + 7), F(1, 10**300), F(0)):
        assert approx_str(value) == f"{float(value):.12g}"
    assert approx_str(F(10) ** 400) == "1e+400"
    assert approx_str(F(-123456789012345) * F(10) ** 390) == "-1.23456789012e+404"
    assert approx_str(F(25, 10**401)) == "2.5e-400"
    assert approx_str(F(3, 10**310)) == "3e-310"  # subnormal as a float
    big = F(10**400 - 1)
    assert list(ratio_csv_lines([(1, big)]))[1] == f"1,{'9' * 400},1,1e+400"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_approx_str_is_float_formatting_inside_the_float_range(data):
    # Numerators and denominators up to 4000 bits, the value between the
    # smallest normal float and the largest float.
    num_bits = data.draw(st.integers(min_value=1, max_value=4000))
    den_bits = data.draw(st.integers(min_value=max(1, num_bits - 1020), max_value=min(4000, num_bits + 1020)))
    num = data.draw(st.integers(min_value=2 ** (num_bits - 1), max_value=2**num_bits))
    den = data.draw(st.integers(min_value=2 ** (den_bits - 1), max_value=2**den_bits))
    value = F(num, den) * data.draw(st.sampled_from((1, -1)))
    assume(F(sys.float_info.min) <= abs(value) < F(sys.float_info.max))
    assert approx_str(value) == f"{float(value):.12g}"


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
    for seq in (make_sequence("const1"), make_sequence("besselJ0")):
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
    seq = make_sequence("exp-half-cosh")
    assert seq.values(200) == [_exp_half_cosh_sum(k) for k in range(201)]


def _three_term(step, n):
    """(e_k, c_(k-1)) for k = 0..n, e_0 = 1, e_(k+1) = a_k e_k + b_k e_(k-1) for
    step(k) = (a_k, b_k, c_k), as the old three-term recurrences ran them and
    `ode_terms` yields them: numerators over the running product of the c_k."""
    prev, e, out = 0, 1, [(1, 1)]
    for k in range(n):
        a, b, c = step(k)
        prev, e = e, a * e + b * prev
        out.append((e, c))
    return out


def test_named_series_steps_are_the_hand_derived_ones():
    # The recurrences each series ran before they were derived from its ODE.
    for a, b in ((1, 1), (3, 5), (-5, 3), (0, 1), (5, 2)):
        geom = difference_ode(((-a, 0), (b, 0), (0, b)), 0)
        assert geom == ((b - a, b), (b, 2 * b), (0, b))
        assert list(itertools.islice(ode_terms(geom, [1], [1]), 101)) == _three_term(
            lambda k: (a - (2 * k + 1) * b, -k * k * b * b, (k + 1) * b), 100
        )
    q2, r, s = EXP_HALF_COSH_ODE
    pairs = (s, r, (0, q2))
    assert difference_ode(pairs, 0) == ((-1, 1), (2, 4), (0, 4))
    assert list(itertools.islice(ode_terms(difference_ode(pairs, 0), [1], [1]), 101)) == _three_term(
        lambda k: (1 - 4 * k, -2 * k * (2 * k - 1), 2 * (2 * k + 1)), 100
    )
    assert list(itertools.islice(ode_terms(pairs, [1], [1]), 101)) == _three_term(
        lambda k: (4 * k + 3, -2 * k * (2 * k - 1), 2 * (2 * k + 1)), 100
    )


def test_difference_ode_raises_the_order_only_for_a_shifted_x_term():
    # exp-half-cosh has an x*phi term (b_0 = 1), so a shift p > 0 takes p + 1
    # derivatives: U = phi' solves 4x U''' + (10 - 4x) U'' + (x - 11) U' + 2 U = 0,
    # and U = e^x * w gives the pairs below.  geom-factorial has b_0 = 0: order 2 at every p.
    q2, r, s = EXP_HALF_COSH_ODE
    pairs = (s, r, (0, q2))
    assert difference_ode(pairs, 1) == ((1, 1), (9, 5), (10, 8), (0, 4))
    assert [len(difference_ode(pairs, p)) for p in (0, 1, 7)] == [3, 4, 4]
    assert [difference_ode(((-3, 0), (5, 0), (0, 5)), p) for p in (0, 2)] == [
        ((2, 5), (5, 10), (0, 5)),
        ((12, 5), (15, 10), (0, 5)),
    ]


def _assert_in_order_rule_under_concurrent_reads(make_seq, gamma):
    # The rule keeps only its last step and relies on GammaSeq calling it in
    # order, under its lock; a lost or repeated step would put a wrong value in the memo.
    indices = [150, 40, 199, 3, 120, 77, 0, 200, 61, 180, 12, 99] * 2
    expected = [gamma(k) for k in indices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            seq = make_seq()
            with ThreadPoolExecutor(max_workers=8) as pool:
                assert list(pool.map(seq.__getitem__, indices, timeout=60)) == expected
    finally:
        sys.setswitchinterval(interval)


def test_ode_gammas_under_concurrent_reads():
    _assert_in_order_rule_under_concurrent_reads(lambda: make_sequence("exp-half-cosh"), _exp_half_cosh_sum)


def test_factored_gammas_under_concurrent_reads():
    spec = FactoredSpec(c=F(3, 2), m=1, sigma=F(4, 3), zeros=(F(1), F(5, 2), F(7, 3)))
    _assert_in_order_rule_under_concurrent_reads(lambda: GammaSeq.from_lpplus(spec), lambda k: closed_form_gamma(spec, k))


def test_exp_half_cosh_memo_belongs_to_the_spec():
    first, second = make_sequence("exp-half-cosh"), make_sequence("exp-half-cosh")
    assert first._rule is not second._rule
    assert second[30] == first[30] == _exp_half_cosh_sum(30)


positive_rationals = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(
    positive_rationals,
    st.integers(min_value=0, max_value=3),
    st.one_of(st.just(F(0)), positive_rationals),
    st.lists(positive_rationals, max_size=4),
)
def test_factored_gammas_are_nonnegative(c, m, sigma, zeros):
    # c > 0, sigma >= 0 and x_k > 0: every Taylor coefficient of phi is >= 0.
    spec = FactoredSpec(c=c, m=m, sigma=sigma, zeros=tuple(zeros))
    assert all(taylor_gamma(spec, k) >= 0 for k in range(31))


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
    seq = make_sequence("const1")
    for k_max, p in ((-1, 0), (3, -1)):
        with pytest.raises(ValueError):
            DifferenceTable(seq, k_max, p)
    with pytest.raises(ValueError):
        ratio_sequence(seq, 3, -1)


@pytest.mark.parametrize("seq", [make_sequence("besselJ0"), GammaSeq.from_values([1, 2, 5, 3, 7, 4])])
def test_difference_table_rejects_indices_outside_its_rows(seq):
    # A negative index must not wrap to the last row: ratio(0) would read nums[-1].
    table = DifferenceTable(seq, 5)
    assert [table[k] for k in range(6)] == [finite_difference(seq, k) for k in range(6)]
    for k in (-1, 6):
        with pytest.raises(IndexError):
            table[k]
    for k in (-1, 0, 6):
        with pytest.raises(IndexError):
            table.ratio(k)
        with pytest.raises(IndexError):
            table.turan(k)


def test_output_renders_past_the_int_string_limit():
    # Both parts are longer than str() allows by default (4300 digits), and coprime.
    value = F(10**5200 - 3, 10**5100 + 1)
    num = "9" * 5199 + "7"
    den = "1" + "0" * 5099 + "1"
    assert list(ratio_csv_lines([(1, value)]))[1] == f"1,{num},{den},1e+100"
    assert rat_str(-value) == f"-{num}/{den}"


# -- direct routes against the row-by-row table --------------------------------


def _assert_direct_route_matches(seq, k_max, p):
    """The direct route of `seq` gives the differences, ratios and Turan values
    of the row-by-row table of the same gammas (a wrapper with no route): each
    d_(k,p) read in its per-k form nums[k]/(factors[0] * ... * factors[k]), and
    through the table's indexing."""
    assert seq.differences is not None
    plain = GammaSeq(lambda k: seq[k])
    table = DifferenceTable(seq, k_max, p)
    oracle = DifferenceTable(plain, k_max, p)
    nums, factors = seq.differences(k_max, p)
    assert len(nums) == len(factors) == k_max + 1
    assert all(f > 0 for f in factors)
    per_k = [F(num, math.prod(factors[: k + 1])) for k, num in enumerate(nums)]
    assert per_k == [oracle[k] for k in range(k_max + 1)]
    assert (table.nums, table.factors) == (nums, factors)
    assert [table[k] for k in range(k_max + 1)] == [oracle[k] for k in range(k_max + 1)]
    assert [table[k] for k in range(k_max + 1)] == [finite_difference(seq, k, p) for k in range(k_max + 1)]
    assert [table.ratio(k) for k in range(1, k_max + 1)] == [oracle.ratio(k) for k in range(1, k_max + 1)]
    assert [table.turan(k) for k in range(1, k_max + 1)] == [oracle.turan(k) for k in range(1, k_max + 1)]
    assert ratio_sequence(seq, max(k_max, 1), p) == ratio_sequence(plain, max(k_max, 1), p)
    if k_max >= 1:
        assert turan_quantity(seq, k_max, p) == oracle.turan(k_max)


sigmas = st.one_of(
    st.just(F(0)),
    st.just(F(1)),
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
    st.fractions(min_value=F(10, 9), max_value=6, max_denominator=9),
)


@settings(max_examples=60, deadline=None)
@given(
    positive_rationals,
    st.integers(min_value=0, max_value=3),
    sigmas,
    st.lists(positive_rationals, max_size=10),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=60),
)
def test_factored_heads_match_the_table(c, m, sigma, zeros, p, k_max):
    # The gammas and heads of the (t*D + u) steps against one closed form per k.
    spec = FactoredSpec(c=c, m=m, sigma=sigma, zeros=tuple(zeros))
    gammas = [closed_form_gamma(spec, k) for k in range(k_max + p + 1)]
    assert GammaSeq.from_lpplus(spec).values(k_max + p) == gammas
    assert [taylor_gamma(spec, k) for k in range(k_max + p + 1)] == gammas
    table = DifferenceTable(GammaSeq.from_lpplus(spec), k_max, p)
    assert [table[k] for k in range(k_max + 1)] == closed_form_differences(spec, k_max, p)
    _assert_direct_route_matches(GammaSeq.from_lpplus(spec), k_max, p)


def test_factored_heads_with_many_zeros_match_the_table():
    # deg R = 241 < K: the steps run over the whole of R until the trim.
    rng = random.Random(16)
    zeros = tuple(F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(240))
    spec = FactoredSpec(c=F(2, 3), m=1, sigma=F(5, 3), zeros=zeros)
    _assert_direct_route_matches(GammaSeq.from_lpplus(spec), 300, 2)


@pytest.mark.parametrize(
    "sigma, zeros, p, k_max",
    [
        (F(1), (F(1), F(2), F(3, 4)), 0, 12),  # u = 0: d_k = 0 from k = 4 on
        (F(1), (F(1), F(2), F(3, 4)), 2, 12),
        (F(2), (F(1, 3), F(5)), 3, 20),  # t = 1
        (F(1, 2), tuple(F(j, 3) for j in range(1, 41)), 3, 12),  # deg R > K + p: trimmed from step 0
        (F(7, 5), tuple(F(1) for _ in range(30)), 0, 30),  # deg R = K
    ],
)
def test_factored_per_k_form_on_edge_cases(sigma, zeros, p, k_max):
    spec = FactoredSpec(c=F(3, 2), sigma=sigma, zeros=zeros)
    seq = GammaSeq.from_lpplus(spec)
    _assert_direct_route_matches(seq, k_max, p)
    table = DifferenceTable(seq, k_max, p)
    assert [table[k] for k in range(k_max + 1)] == closed_form_differences(spec, k_max, p)
    if sigma == 1:
        assert [table.ratio(k) for k in range(len(zeros) + 2, k_max + 1)] == [None] * (k_max - len(zeros) - 1)


@pytest.mark.parametrize("r", [F(-2), F(-5, 3), F(1), F(3, 7), F(0), F(5, 2)])
@pytest.mark.parametrize("p", [0, 1, 4])
def test_geometric_factorial_recurrence_matches_the_table(r, p):
    for k_max in (0, 1, 2, 60):
        _assert_direct_route_matches(GammaSeq.geometric_factorial(r), k_max, p)


@settings(max_examples=40, deadline=None)
@given(
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=30),
)
def test_drawn_geometric_factorial_shifts_match_the_table(r, p, k_max):
    _assert_direct_route_matches(GammaSeq.geometric_factorial(r), k_max, p)


@pytest.mark.parametrize("name", ["besselJ0", "exp-half-cosh"])
@pytest.mark.parametrize("p", [0, 2, 5])
def test_named_series_recurrences_match_the_table(name, p):
    _assert_direct_route_matches(make_sequence(name), 80, p)


@pytest.mark.parametrize("name, ode", [("besselJ0", BESSEL_J0_ODE), ("exp-half-cosh", EXP_HALF_COSH_ODE)])
@pytest.mark.parametrize("p", [40, 150])
def test_named_series_at_large_shifts_match_the_table(name, ode, p):
    # Each p has its own recurrence, over the gammas' step factors c_k = r0 + k*q2:
    # factors = [D_p, c_p, ..., c_(p+k_max-1)], D_p = c_0 * ... * c_(p-1).
    q2, (r0, _), _ = ode
    for k_max in (0, 1, 2, 60):
        seq = make_sequence(name)
        _assert_direct_route_matches(seq, k_max, p)
        factors = seq.differences(k_max, p)[1]
        assert factors == [math.prod(r0 + k * q2 for k in range(p))] + [r0 + k * q2 for k in range(p, p + k_max)]


def test_bessel_is_geometric_factorial_of_one():
    seq = make_sequence("besselJ0")
    assert seq.name == "besselJ0"
    assert seq.values(30) == GammaSeq.geometric_factorial(1).values(30)
    table = DifferenceTable(seq, 7)
    assert [table[k] for k in range(8)] == BESSEL_DIFFERENCES


# -- histogram ------------------------------------------------------------------


EDGE_EPS = F(1, 10**45)  # far below a float's resolution at any edge drawn here


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_histogram_bins_match_the_fraction_oracle(data):
    bins = data.draw(st.integers(min_value=1, max_value=20))
    lo = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=30))
    span = data.draw(st.one_of(st.just(F(0)), st.fractions(min_value=F(1, 30), max_value=50, max_denominator=30)))
    edges = data.draw(st.lists(st.integers(min_value=0, max_value=bins), max_size=12))
    inner = data.draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40), max_size=12))
    values = [lo + span * i / bins for i in edges] + [lo + span * f for f in inner]
    assert histogram_bins(values, bins) == fraction_histogram_bins(values, bins)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_histogram_bins_at_interior_edges_match_the_fraction_oracle(data):
    """Values on an interior edge and 1/10^45 either side of it, whose floats tie, in any order."""
    bins = data.draw(st.integers(min_value=2, max_value=20))
    lo = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=30))
    span = data.draw(st.fractions(min_value=F(1, 30), max_value=50, max_denominator=30))
    near = data.draw(st.lists(st.tuples(st.integers(min_value=1, max_value=bins - 1), st.sampled_from((-1, 0, 1))), max_size=12))
    values = data.draw(st.permutations([lo, lo + span] + [lo + span * i / bins + o * EDGE_EPS for i, o in near]))
    assert histogram_bins(values, bins) == fraction_histogram_bins(values, bins)


# beyond the float range both ways, and three that underflow to 0.0 or -0.0
FLOAT_EDGES = (F(10**400, 3), F(-(10**400), 3), F(1, 10**400), F(-1, 10**400), F(2, 10**400))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_histogram_bounds_match_plain_min_and_max(data):
    """The bounds come from float keys with exact tie-breaks; the oracle takes plain min and max."""
    bins = data.draw(st.integers(min_value=1, max_value=12))
    bases = data.draw(st.lists(st.fractions(max_denominator=10**6) | st.sampled_from(FLOAT_EDGES), min_size=1, max_size=6))
    values = []
    for x in bases:  # x +- eps rounds to x's float, as a different value
        eps = F(1, 10**40 * x.denominator)
        values += data.draw(st.lists(st.sampled_from((x, x + eps, x - eps)), min_size=1, max_size=3))
    assert histogram_bins(values, bins) == fraction_histogram_bins(values, bins)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_histogram_bins_beyond_the_float_range_match_the_fraction_oracle(data):
    """One value past the float range puts every key, the edges' too, on exact values."""
    bins = data.draw(st.integers(min_value=1, max_value=12))
    big = data.draw(st.sampled_from(FLOAT_EDGES[:2]))
    lo = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=30))
    a, b = min(lo, big), max(lo, big)
    near = data.draw(st.lists(st.tuples(st.integers(min_value=0, max_value=bins), st.sampled_from((-1, 0, 1))), max_size=8))
    inner = data.draw(st.lists(st.fractions(max_denominator=10**6) | st.sampled_from(FLOAT_EDGES[2:]), max_size=8))
    edge_values = [min(b, max(a, a + (b - a) * i / bins + o * EDGE_EPS)) for i, o in near]
    values = data.draw(st.permutations([a, b] + edge_values + inner))
    assert histogram_bins(values, bins) == fraction_histogram_bins(values, bins)


@pytest.mark.parametrize(
    "values",
    [
        [F(5, 7)],
        [F(1, 3) + F(1, 10**41), F(1, 3), F(1, 3) - F(1, 10**41)],
        list(FLOAT_EDGES),
        [F(10**400, 3)],
        [F(1, 3) + EDGE_EPS, F(1, 3)],  # two values whose floats tie
        [F(5, 7), F(-(10**400), 3)],
        [F(1, 10**400), F(-1, 10**400)],  # 0.0 and -0.0
    ],
)
def test_histogram_bounds_on_single_tied_and_extreme_values(values):
    assert histogram_bins(values, 3) == fraction_histogram_bins(values, 3)


def test_histogram_of_large_ratios_matches_the_fraction_oracle():
    bessel = [v for _, v in ratio_sequence(make_sequence("besselJ0"), 260) if v is not None]
    cosh = [v for _, v in ratio_sequence(make_sequence("exp-half-cosh"), 600) if v is not None]
    # exp-half-cosh's ratios tend to sigma - 1 = -1/2; those within 1/100 of it span about 0.02
    cluster = [v for v in cosh if abs(v + F(1, 2)) < F(1, 100)]
    for values, bins in ((bessel, 1), (bessel, 7), (bessel, 18), (cosh, 7), (cluster, 7), (cluster, 100)):
        assert histogram_bins(values, bins) == fraction_histogram_bins(values, bins)
