"""Packaged reproductions of the worked examples, with frozen reference data.

Each demo recomputes a published worked example from scratch and compares
against reference values stored here.  Two reference entries are known
errata in the source material: the demos assert the definitionally computed
values and attach labeled notes for the divergences.  A report's notes are
every line `hermops examples` prints under its PASS/FAIL line.
"""

from fractions import Fraction

from .classify import (
    FALSIFIED,
    INCONCLUSIVE,
    IS_MS,
    HermiteBasis,
    LaguerreBasis,
    coefficient_reality_table,
    falsify_sequence,
    is_classical_ms,
    ratio_limit_check,
)
from .diffop import (
    build_operator,
    coefficient_polynomial,
    interpolation_poly,
    solve_operator_from_action,
)
from .jensen import DifferenceTable, GammaSeq, ratio_sequence
from .laguerre import check_eigen_action, operator_coefficients
from .ratpoly import RatPoly, count_real_roots, is_real_rooted, rat_str
from .reporting import CheckReport
from .sequences import example311_spec, make_sequence

# Reference ratio table for the example311 sequence, entries k = 1..7.
RATIO_TABLE_REFERENCE = (
    Fraction(3, 2),
    Fraction(1, 6),
    Fraction(-13, 2),
    Fraction(-33, 26),
    Fraction(-61, 66),
    Fraction(-97, 122),
    Fraction(-141, 194),
)

# Finite differences of the besselJ0 sequence, k = 0..7.
BESSEL_DIFFERENCES_REFERENCE = (
    Fraction(1),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-5, 8),
    Fraction(7, 15),
    Fraction(-37, 144),
    Fraction(17, 420),
)

# Turan-type necessity values for besselJ0, k = 1..5, as computed from the
# definition.  The source material prints 1 at k = 2; the definitional value
# is 1/4 (see the attached note emitted by the demo).
BESSEL_TURAN_REFERENCE = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(-2, 9),
    Fraction(-85, 192),
    Fraction(-329, 900),
)

TURAN_ERRATUM_NOTE = (
    "NOTE (documented erratum): the source table prints 1 for the k=2 "
    "necessity value; the definition gives 1/4, which is asserted here."
)

Q3_ERRATUM_NOTE = (
    "NOTE (documented erratum): the source prints the third coefficient "
    "polynomial as x*(x^2 + 6*alpha)/18; both computation routes give "
    "x*(2*x^2 + 3*alpha)/18, which is asserted here."
)

GEOM_REGION_NOTE = (
    "NOTE (documented divergence): for gamma_k = r^k/k! the computed second "
    "coefficient is Q_2 = ((r^2 - 4r + 2)/4) x^2 + (alpha/4)(2 - r^2), so on "
    "0 <= r <= 1 it is non-real-rooted exactly when r^2 - 4r + 2 > 0, i.e. "
    "r < 2 - sqrt(2) ~ 0.5857864; the printed constant term ((r^2/3 - 1) "
    "factor) and the printed region tokens do not match this computation, "
    "so computed regions are emitted and the printed ones are not asserted."
)


def table1_demo() -> CheckReport:
    """Reproduce the seven published ratio-table entries for example311."""
    seq = make_sequence("example311")
    rows = ratio_sequence(seq, 7)
    k0 = ratio_limit_check(example311_spec(), window=20, tol=Fraction(1, 100))
    outcomes = [
        None if value == expected else f"ratio at k={k}: computed {value}, reference {expected}"
        for (k, value), expected in zip(rows, RATIO_TABLE_REFERENCE)
    ] + [None if k0 is not None else "ratio limit check did not locate a converged window"]
    notes = []
    if k0 is not None:
        notes.append(
            f"difference ratios confirmed within 1/100 of -1/2 on the window "
            f"[{k0}, {k0 + 20}] (first such window start: {k0})"
        )
    if not any(outcomes):
        notes.extend(f"k={k}: {rat_str(value)}" for k, value in rows)
    return CheckReport.tally("table1", outcomes, notes)


def bessel_demo() -> CheckReport:
    """Worked values for the besselJ0 sequence, including both errata notes."""
    seq = make_sequence("besselJ0")
    differences = DifferenceTable(seq, len(BESSEL_DIFFERENCES_REFERENCE) - 1)

    def outcomes():
        for k, expected in enumerate(BESSEL_DIFFERENCES_REFERENCE):
            got = differences[k]
            yield None if got == expected else f"difference d_{k}: computed {got}, reference {expected}"
        for k, expected in enumerate(BESSEL_TURAN_REFERENCE, start=1):
            got = differences.turan(k)
            yield None if got == expected else f"necessity value at k={k}: computed {got}, reference {expected}"
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            q3 = coefficient_polynomial(alpha, seq, 3)
            if q3 != RatPoly([0, alpha / 6, 0, Fraction(1, 9)]):
                yield f"Q_3 at alpha={alpha}: computed {q3.to_text()}"
            elif q3 != solve_operator_from_action(alpha, seq, 3)[3]:
                yield f"Q_3 at alpha={alpha}: formula and oracle disagree"
            elif count_real_roots(q3) != 1 or is_real_rooted(q3):
                yield f"Q_3 at alpha={alpha}: expected exactly one real root"
            else:
                yield None
        yield "reality table should mark k=3 as not real-rooted" if coefficient_reality_table(1, seq, 4)[3] else None

    return CheckReport.tally("bessel", outcomes(), (TURAN_ERRATUM_NOTE, Q3_ERRATUM_NOTE))


def linear_operator_demo() -> CheckReport:
    """The operator of the linear family gamma_k = k + a at a = 3.

    Its coefficient list is (a, x, -alpha, 0, 0, ...) for every alpha > 0,
    the eigenvalues interpolate to the polynomial x + a, and for a < 0 the
    falsifier produces a concrete witness on the Hermite basis.
    """
    a = 3
    seq = GammaSeq.linear(a)
    verdict = is_classical_ms(seq)
    bad = falsify_sequence(GammaSeq.linear(-1), HermiteBasis(Fraction(1)), 4)

    def outcomes():
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            op = build_operator(alpha, seq, 5)
            expected = (
                RatPoly([a]),
                RatPoly([0, 1]),
                RatPoly([-alpha]),
                RatPoly(),
                RatPoly(),
                RatPoly(),
            )
            yield None if op == expected else (
                f"operator coefficients at alpha={alpha} differ from (a, x, -alpha, 0...)"
            )
            yield None if interpolation_poly(op) == RatPoly([a, 1]) else (
                f"eigenvalue interpolation at alpha={alpha} is not x + {a}"
            )
        yield None if verdict.status == IS_MS else f"linear({a}) with a >= 0 should classify affirmatively"
        yield None if bad.status == FALSIFIED else "linear(-1) on hermite(1) should be falsified by degree 4"

    return CheckReport.tally(f"linear-operator[a={a}]", outcomes())


def geom_family_demo() -> CheckReport:
    """Reality of Q_2 and Q_4 across the family gamma_k = r^k/k!.

    For every sampled r in [0, 1] at least one of the two coefficients is
    non-real-rooted, so no member of the family acts as a multiplier
    sequence on the Hermite basis.  Reality here is alpha-independent
    (verified on an alpha grid): the coefficients are parity-even with
    alpha-homogeneous lower terms.
    """
    grid = (
        Fraction(0),
        Fraction(1, 2),
        Fraction(4, 7),
        Fraction(3, 5),
        Fraction(9, 10),
        Fraction(1),
    )
    notes = [GEOM_REGION_NOTE]
    outcomes = []
    for r in grid:
        seq = GammaSeq.geometric_factorial(r)
        per_alpha = []
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            qpolys = build_operator(alpha, seq, 4)
            per_alpha.append((is_real_rooted(qpolys[2]), is_real_rooted(qpolys[4])))
        q2_real, q4_real = per_alpha[0]
        outcomes += [
            None if len(set(per_alpha)) == 1 else f"reality at r={r} depends on alpha; expected alpha-invariance",
            f"r={r}: both Q_2 and Q_4 real-rooted; expected a non-real witness" if q2_real and q4_real else None,
        ]
        notes.append(f"r={rat_str(r)}: Q_2 real-rooted={q2_real}, Q_4 real-rooted={q4_real}")
    return CheckReport.tally("geom-factorial-family", outcomes, notes)


def laguerre_demo() -> CheckReport:
    """Eigen structure and the membership boundary on the Laguerre basis: each (Q_0, Q_1, Q_2) is
    real-rooted, yet the search should falsify (n + a) exactly when a lies outside [0, alpha + 1]."""
    alpha = Fraction(1)
    reports = [check_eigen_action(alpha, a, 10) for a in (Fraction(-1), Fraction(0), Fraction(3))]

    def outcomes():
        yield from (failure for report in reports for failure in report.failures or [None])
        for a in (-1, 0, 1, 2, 3):
            real = all(is_real_rooted(q) for q in operator_coefficients(alpha, a))
            yield None if real else f"operator coefficients at a={a} must be real-rooted"
            status = falsify_sequence(GammaSeq.linear(a), LaguerreBasis(alpha), 6).status
            expected, where = (INCONCLUSIVE, "in") if 0 <= a <= alpha + 1 else (FALSIFIED, "outside")
            yield None if status == expected else f"a={a} lies {where} [0, alpha+1] but was {status}"

    return CheckReport.tally("laguerre-boundary", outcomes())


_DEMOS = {
    "table1": table1_demo,
    "bessel": bessel_demo,
    "linear-op": linear_operator_demo,
    "geom-family": geom_family_demo,
    "laguerre": laguerre_demo,
}
DEMO_IDS = tuple(_DEMOS)


def run_demo(demo_id: str) -> CheckReport:
    if demo_id not in _DEMOS:
        raise ValueError(f"unknown demo id {demo_id!r}; known: {', '.join(DEMO_IDS)}")
    return _DEMOS[demo_id]()
