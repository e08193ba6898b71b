"""Acceptance suite: ten numbered criteria, one test (and one pass/fail line)
per criterion, with exact tolerances and the stated runtime targets.

Criterion 2 is split in two: 2a checks the seven frozen ratio values; 2b
asserts the exact convergence index K0 = 103, derived independently from the
closed form d_k = (-1/2)^k (4k^2 - 8k + 1). The stated bound K0 <= 100 is a
documented erratum: the deviation at k = 100 is 394/38413 > 1/100, and 2b
asserts that too.
"""

import random
import time
from fractions import Fraction

from hermops.classify import (
    FALSIFIED,
    INCONCLUSIVE,
    LaguerreBasis,
    coefficient_reality_table,
    falsify_sequence,
    ratio_limit_check,
)
from hermops.cli import main as cli_main
from hermops.diffop import (
    apply_operator,
    build_operator,
    coefficient_polynomial,
    interpolation_poly,
    solve_operator_from_action,
    standard_coefficient,
)
from hermops.hermite import check_identities, from_hermite_basis, hermite_polys, hermite_product_expand
from hermops.jensen import (
    FactoredSpec,
    GammaSeq,
    check_difference_reconstruction,
    check_shift_recurrence,
    check_sum_interchange,
    finite_difference,
    ratio_sequence,
    turan_quantity,
)
from hermops.laguerre import LaguerreParam, check_eigen_action
from hermops.ratpoly import X, count_real_roots, is_real_rooted
from hermops.sequences import example311_spec, make_sequence

F = Fraction

ZERO_MULTISETS = ((), (F(1),), (F(1), F(2)), (F(1), F(1)))


def _line(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_01_operator_equivalence_and_action():
    start = time.monotonic()
    names = ("const1", "linear(3)", "example311", "besselJ0")
    for alpha in (F(1, 2), F(1), F(2)):
        for name in names:
            seq = make_sequence(name)
            op = build_operator(alpha, seq, 10)
            oracle = solve_operator_from_action(alpha, seq, 10)
            assert op.qpolys == oracle.qpolys, (alpha, name)
            H = hermite_polys(12, alpha)
            op12 = build_operator(alpha, seq, 12)
            for n in range(13):
                assert apply_operator(op12, H[n]) == seq[n] * H[n], (alpha, name, n)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"runtime {elapsed:.2f}s exceeds the 10s target"
    _line("01", f"3 alphas x 4 sequences, k <= 10 equivalence, n <= 12 action, {elapsed:.2f}s")


def test_criterion_02a_ratio_table_values():
    rows = ratio_sequence(make_sequence("example311"), 7)
    expected = [F(3, 2), F(1, 6), F(-13, 2), F(-33, 26), F(-61, 66), F(-97, 122), F(-141, 194)]
    assert [v for _, v in rows] == expected
    _line("02a", "seven ratio values exact")


def test_criterion_02b_ratio_limit_bound():
    report = ratio_limit_check(example311_spec(), window=20, tol=F(1, 100), cap=200)
    assert report.passed
    k0 = report.data["k0"]

    # Independent route: for (1+x)^2 e^(x/2) the differences have the closed
    # form d_k = (-1/2)^k (4k^2 - 8k + 1), so d_k/d_(k-1) + 1/2 equals
    # -(4k - 6)/(4k^2 - 16k + 13); the denominator has no integer root.
    def closed_ratio(k):
        return F(-1, 2) * F(4 * k * k - 8 * k + 1, 4 * k * k - 16 * k + 13)

    def deviation(k):
        return abs(F(4 * k - 6, 4 * k * k - 16 * k + 13))

    cap, window, tol = 200, 20, F(1, 100)
    scanned = range(1, cap + window + 1)
    rows = ratio_sequence(GammaSeq.from_lpplus(example311_spec()), cap + window)
    assert rows == [(k, closed_ratio(k)) for k in scanned]
    assert all(abs(closed_ratio(k) + F(1, 2)) == deviation(k) for k in scanned)

    # k = 1, 2 sit far off the limit and the deviation is strictly decreasing
    # from k = 3 on, so the first window start is the first k >= 3 below tol.
    assert deviation(1) == 2 and deviation(2) == F(2, 3)
    assert all(deviation(k) > deviation(k + 1) for k in range(3, cap + window))
    expected_k0 = next(k for k in range(3, cap + 1) if deviation(k) < tol)
    assert expected_k0 == 103
    assert deviation(102) == F(402, 39997) and deviation(102) >= tol
    assert deviation(103) == F(406, 40801) and deviation(103) < tol
    assert k0 == expected_k0, f"window starts at k0={k0}, closed form gives {expected_k0}"

    # The source states K0 <= 100; the deviation at k=100 is 394/38413 > 1/100,
    # so no window can start there (documented erratum).
    assert deviation(100) == F(394, 38413) and deviation(100) > tol
    _line("02b", f"convergence window starts at k0={k0} (stated bound 100: erratum)")


def test_criterion_03_bessel_worked_example():
    seq = make_sequence("besselJ0")
    differences = [finite_difference(seq, k) for k in range(8)]
    assert differences == [F(1), F(0), F(-1, 2), F(2, 3), F(-5, 8), F(7, 15), F(-37, 144), F(17, 420)]
    for k, value in {1: F(0), 3: F(-2, 9), 4: F(-85, 192), 5: F(-329, 900)}.items():
        assert turan_quantity(seq, k) == value
    # The source table prints 1 at k=2; the definition gives 1/4 (documented erratum).
    assert turan_quantity(seq, 2) == F(1, 4)
    for alpha in (F(1, 2), F(1), F(2)):
        q3 = solve_operator_from_action(alpha, seq, 3).qpolys[3]
        assert q3 == (2 * X**3 + 3 * alpha * X) / 18
        assert count_real_roots(q3) == 1
        assert not is_real_rooted(q3)
    _line("03", "differences, Turan values (k=2 erratum: 1/4), Q_3 single real root")


def test_criterion_04_reality_for_type_at_least_one():
    start = time.monotonic()
    for sigma in (F(1), F(3, 2), F(2)):
        for zeros in ZERO_MULTISETS:
            seq = GammaSeq.from_lpplus(FactoredSpec(sigma=sigma, zeros=zeros))
            for alpha in (F(1, 2), F(1), F(2)):
                for p in (0, 1, 2):
                    table = coefficient_reality_table(alpha, seq, 10, p)
                    assert table.all_real_rooted, (sigma, zeros, alpha, p)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"runtime {elapsed:.2f}s exceeds the 60s target"
    _line("04", f"36 spec/alpha combos x p in {{0,1,2}}, k <= 10, {elapsed:.2f}s")


def test_criterion_05_reality_breaks_below_type_one():
    start = time.monotonic()
    first_failures = {}
    for sigma in (F(0), F(1, 2), F(9, 10)):
        for zeros in ZERO_MULTISETS:
            seq = GammaSeq.from_lpplus(FactoredSpec(sigma=sigma, zeros=zeros))
            table = coefficient_reality_table(F(1), seq, 25)
            broken = [row.k for row in table.rows if not row.real_rooted]
            assert broken, (sigma, zeros)
            first_failures[(sigma, zeros)] = broken[0]
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"runtime {elapsed:.2f}s exceeds the 60s target"
    worst = max(first_failures.values())
    _line("05", f"12 sub-type specs all break by k={worst}, {elapsed:.2f}s")


def test_criterion_06_geometric_factorial_family():
    region_notes = []
    for r in (F(0), F(1, 2), F(4, 7), F(3, 5), F(9, 10), F(1)):
        seq = GammaSeq.geometric_factorial(r)
        flags = []
        for alpha in (F(1, 2), F(1), F(2)):
            op = build_operator(alpha, seq, 4)
            flags.append((is_real_rooted(op.qpolys[2]), is_real_rooted(op.qpolys[4])))
        assert len(set(flags)) == 1, f"reality flags vary with alpha at r={r}"
        q2_real, q4_real = flags[0]
        assert not (q2_real and q4_real), f"both Q_2 and Q_4 real-rooted at r={r}"
        region_notes.append(f"r={r}: Q2={'R' if q2_real else 'N'} Q4={'R' if q4_real else 'N'}")
    # Computed region (emitted, not asserted against any printed interval):
    # Q_2 non-real exactly for r < 2 - sqrt(2) on [0, 1].
    _line("06", "; ".join(region_notes))


def test_criterion_07_identity_suites():
    names = ("const1", "example311", "besselJ0")

    for name in names:
        assert check_difference_reconstruction(make_sequence(name), 10).passed

    rng = random.Random(0xACCE)
    for _ in range(100):
        n = rng.randint(2, 9)
        table = {
            (k, i): F(rng.randint(-30, 30), rng.randint(1, 9))
            for k in range(n + 1)
            for i in range(n + 1)
        }
        for j in range(n // 2 + 1):
            assert check_sum_interchange(n, j, table).passed

    for name in names:
        assert check_shift_recurrence(make_sequence(name), 8, 8).passed
    for _ in range(100):
        values = [F(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(20)]
        assert check_shift_recurrence(GammaSeq.from_values(values), 8, 8).passed

    assert check_identities(12, F(1)).passed
    alpha = F(1)
    for n in range(9):
        for m in range(9):
            expansion = hermite_product_expand(n, m, alpha)
            direct = hermite_polys(n, alpha)[n] * hermite_polys(m, alpha)[m]
            assert from_hermite_basis(expansion) == direct

    for name in names:
        seq = make_sequence(name)
        for k in range(9):
            assert coefficient_polynomial(F(0), seq, k) == standard_coefficient(seq, k)

    _line("07", "reconstruction, 100 interchange tables, shift recurrence +100 random, "
                "Hermite identities, products n,m <= 8, alpha=0 substitution")


def test_criterion_08_interpolation_polynomial():
    for a in (F(3), F(-2), F(1, 4)):
        op = build_operator(F(1), GammaSeq.linear(a), 6)
        assert interpolation_poly(op) == X + a
    falling = GammaSeq(lambda k: F(k * (k - 1)), sign_pattern="nonneg", name="fall2")
    op = build_operator(F(1), falling, 8)
    p = interpolation_poly(op)
    assert p == X * (X - 1)
    for n in range(11):
        assert p(F(n)) == falling[n]
    _line("08", "x+a and x(x-1) recovered; p(n) matches gamma_n for n <= 10")


def test_criterion_09_laguerre_boundary():
    for alpha in (F(0), F(1, 2), F(1), F(2)):
        for a in (F(-1), F(0), F(1), alpha + 1, alpha + 2):
            assert check_eigen_action(LaguerreParam(alpha, a), 10).passed, (alpha, a)

    basis = LaguerreBasis(F(1))
    for a in (F(-1), F(3)):
        verdict = falsify_sequence(GammaSeq.linear(a), basis, 6)
        assert verdict.status == FALSIFIED, f"a={a}"
        w = verdict.witness
        # Independent soundness re-check: expand, rescale, reconstruct, recount.
        coeffs = basis.expand(w.input_poly)
        image = basis.reconstruct([(n + a) * c for n, c in enumerate(coeffs)])
        assert image == w.image_poly
        assert is_real_rooted(w.input_poly)
        assert count_real_roots(image) < image.degree
    for a in (F(0), F(1), F(2)):
        assert falsify_sequence(GammaSeq.linear(a), basis, 6).status == INCONCLUSIVE
    _line("09", "eigen grid exact; witnesses at a=-1,3 re-verified; band inconclusive")


def test_criterion_10_ratio_dataset_cli(tmp_path, capsys):
    start = time.monotonic()
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        code = cli_main(
            [
                "ratios",
                "--seq",
                "exp-half-cosh",
                "--kmax",
                "200",
                "--histogram",
                "10",
                "--output",
                str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"runtime {elapsed:.2f}s exceeds the 120s target"

    first, second = (path.read_bytes() for path in paths)
    assert first == second, "reruns are not byte-identical"

    lines = first.decode().splitlines()
    split = lines.index("")
    ratio_rows = lines[1:split]
    assert len(ratio_rows) == 200
    defined = [row for row in ratio_rows if not row.endswith("NA")]
    hist_rows = lines[split + 2 :]
    assert len(hist_rows) == 10
    assert sum(int(row.rsplit(",", 1)[1]) for row in hist_rows) == len(defined)
    _line("10", f"200 rows, deterministic, histogram sums to {len(defined)}, {elapsed:.2f}s")
