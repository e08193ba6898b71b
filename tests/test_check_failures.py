"""Every function that builds a check report, on inputs that make its assertions fail.

The commands run these functions only on inputs where every assertion holds,
so the failure paths are pinned here: each case patches one dependency (or
hands in a sequence whose difference route is wrong) and compares the
report's line, its count and every failure message with frozen values.
"""

import itertools
from fractions import Fraction as F

import pytest

from hermops import classify, demos, diffop, hermite, jensen, laguerre
from hermops.classify import Verdict
from hermops.jensen import GammaSeq
from hermops.ratpoly import RatPoly
from hermops.reporting import CheckReport
from hermops.sequences import make_sequence


def _ones_route(k_max, p):
    """A wrong difference route: every d_(k,p) is 1."""
    return [1] * (k_max + 1), [1] * (k_max + 1)


def _bad_linear():
    """gamma_k = k, read through the wrong route."""
    return GammaSeq(lambda k: F(k), name="bad-route", differences=_ones_route)


_build_operator = diffop.build_operator
_standard_coefficient = diffop.standard_coefficient
_laguerre_operator_apply = laguerre.laguerre_operator_apply


def _shifted_constant(fn, amount):
    """`fn` with `amount` added to every polynomial it returns."""
    return lambda *args: [q + amount for q in fn(*args)]


class _DriftingTable(dict):
    """A table whose n-th read adds n to the stored value, so the two summation orders disagree."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = itertools.count()

    def __getitem__(self, key):
        return super().__getitem__(key) + next(self.reads)


def _bumped_operator(alpha, seq, order, p=0):
    """build_operator with alpha^3 added to every Q_k: zero at alpha = 0, alpha-degree 3 elsewhere."""
    return tuple(q + F(alpha) ** 3 for q in _build_operator(alpha, seq, order, p))


def _bumped_standard(seq, k):
    return _standard_coefficient(seq, k) + (1 if k == 1 else 0)


def _odd_degrees_off(alpha, a, f):
    return _laguerre_operator_apply(alpha, a, f) + f.degree % 2


def _one_off_op(alpha, seq, order, p=0):
    op = _build_operator(alpha, seq, order, p)
    return (op[0] + 1,) + op[1:]


def _const1_table(alpha, k_max):
    """The reality table of gamma = 1, whose Q_k vanish for k >= 1 and so count as real-rooted."""
    return classify.coefficient_reality_table(alpha, make_sequence("const1"), k_max)


def _status_by_sign(seq, basis, deg_max):
    """Falsified exactly when gamma_0 = a >= 0: wrong for a = -1 and for every a in [0, alpha + 1]."""
    return Verdict("falsified" if seq[0] >= 0 else "inconclusive", "patched")


def _bumped(values, *positions):
    return tuple(v + 1 if i in positions else v for i, v in enumerate(values))


# (id, build, [(module, name, replacement)]): `build` runs with the patches applied.
CASES = [
    ("difference-reconstruction", lambda: jensen.check_difference_reconstruction(_bad_linear(), 4), []),
    ("shift-recurrence", lambda: jensen.check_shift_recurrence(_bad_linear(), 4, 1), []),
    (
        "sum-interchange",
        lambda: jensen.check_sum_interchange(4, 1, _DriftingTable({(k, i): k + i for k in range(5) for i in range(5)})),
        [],
    ),
    (
        "hermite-identities",
        lambda: hermite.check_identities(3, 1),
        [(hermite, "hermite_polys", _shifted_constant(hermite.hermite_polys, 1))],
    ),
    ("diagonal-action", lambda: diffop.check_diagonal_action(1, _bad_linear(), 3), []),
    ("operator-equivalence", lambda: diffop.check_operator_equivalence(1, _bad_linear(), 3), []),
    (
        "standard-basis-limit",
        lambda: diffop.check_standard_basis_limit(make_sequence("besselJ0"), 6),
        [(diffop, "build_operator", _bumped_operator), (diffop, "standard_coefficient", _bumped_standard)],
    ),
    (
        "laguerre-eigen",
        lambda: laguerre.check_eigen_action(1, 2, 3),
        [(laguerre, "laguerre_operator_apply", _odd_degrees_off)],
    ),
    (
        "turan-necessity",
        lambda: classify.check_turan_necessity(1, make_sequence("besselJ0"), 6),
        [(classify, "is_real_rooted", lambda q: True)],
    ),
    (
        "table1-ratios",
        demos.table1_demo,
        [(demos, "RATIO_TABLE_REFERENCE", _bumped(demos.RATIO_TABLE_REFERENCE, 1, 4))],
    ),
    (
        "table1-limit",
        demos.table1_demo,
        [(demos, "ratio_limit_check", lambda *args, **kwargs: None)],
    ),
    (
        "bessel-references",
        demos.bessel_demo,
        [
            (demos, "BESSEL_DIFFERENCES_REFERENCE", _bumped(demos.BESSEL_DIFFERENCES_REFERENCE, 0, 7)),
            (demos, "BESSEL_TURAN_REFERENCE", _bumped(demos.BESSEL_TURAN_REFERENCE, 2)),
        ],
    ),
    (
        "bessel-q3",
        demos.bessel_demo,
        [
            (demos, "coefficient_polynomial", lambda alpha, seq, k: RatPoly([0, alpha / 6, 0, F(1, 9)]) + (alpha == 1)),
            (demos, "count_real_roots", lambda q: 3),
        ],
    ),
    (
        "bessel-oracle-and-table",
        demos.bessel_demo,
        [
            (demos, "solve_operator_from_action", lambda alpha, seq, order: _build_operator(2 * alpha, seq, order)),
            (demos, "coefficient_reality_table", lambda alpha, seq, k_max: _const1_table(alpha, k_max)),
        ],
    ),
    (
        "linear-operator",
        demos.linear_operator_demo,
        [
            (demos, "build_operator", _one_off_op),
            (demos, "is_classical_ms", lambda seq: Verdict("inconclusive", "patched")),
            (demos, "falsify_sequence", lambda seq, basis, deg_max: Verdict("inconclusive", "patched")),
        ],
    ),
    ("geom-family", demos.geom_family_demo, [(demos, "is_real_rooted", lambda q: q.coeff(0) <= F(1, 4))]),
    (
        "laguerre-boundary",
        demos.laguerre_demo,
        [
            (laguerre, "laguerre_operator_apply", _odd_degrees_off),
            (demos, "is_real_rooted", lambda q: q.degree < 1),
            (demos, "falsify_sequence", _status_by_sign),
        ],
    ),
]

# Frozen per case: the report's line, its count and every failure message, in order.
EXPECTED = {
    "difference-reconstruction": (
        "FAIL difference-reconstruction[bad-route] (5 of 5 checks failed; first: reconstruction fails at n=0: 1 != 0)",
        5,
        (
            "reconstruction fails at n=0: 1 != 0",
            "reconstruction fails at n=1: 2 != 1",
            "reconstruction fails at n=2: 4 != 2",
            "reconstruction fails at n=3: 8 != 3",
            "reconstruction fails at n=4: 16 != 4",
        ),
    ),
    "shift-recurrence": (
        "FAIL shift-recurrence[bad-route] (6 of 6 checks failed; first: shift recurrence fails at k=2, p=0: 2 != 1)",
        6,
        (
            "shift recurrence fails at k=2, p=0: 2 != 1",
            "shift recurrence fails at k=3, p=0: 2 != 1",
            "shift recurrence fails at k=4, p=0: 2 != 1",
            "shift recurrence fails at k=2, p=1: 2 != 1",
            "shift recurrence fails at k=3, p=1: 2 != 1",
            "shift recurrence fails at k=4, p=1: 2 != 1",
        ),
    ),
    "sum-interchange": (
        "FAIL sum-interchange[n=4,j=1] (1 of 1 checks failed; first: sum interchange fails: 19 != 35)",
        1,
        (
            "sum interchange fails: 19 != 35",
        ),
    ),
    "hermite-identities": (
        "FAIL hermite-identities (14 of 15 checks failed; first: derivative rule fails at n=1, alpha=1)",
        15,
        (
            "derivative rule fails at n=1, alpha=1",
            "derivative rule fails at n=2, alpha=1",
            "derivative rule fails at n=3, alpha=1",
            "eigenvalue equation fails at n=1, alpha=1",
            "eigenvalue equation fails at n=2, alpha=1",
            "eigenvalue equation fails at n=3, alpha=1",
            "classical rescaling fails at n=0, alpha=1/2",
            "classical rescaling fails at n=1, alpha=1/2",
            "classical rescaling fails at n=2, alpha=1/2",
            "classical rescaling fails at n=3, alpha=1/2",
            "classical rescaling fails at n=0, alpha=2",
            "classical rescaling fails at n=1, alpha=2",
            "classical rescaling fails at n=2, alpha=2",
            "classical rescaling fails at n=3, alpha=2",
        ),
    ),
    "diagonal-action": (
        "FAIL diagonal-action[bad-route,alpha=1] (4 of 4 checks failed; first: diagonal action fails at n=0, alpha=1: residual 1)",
        4,
        (
            "diagonal action fails at n=0, alpha=1: residual 1",
            "diagonal action fails at n=1, alpha=1: residual x",
            "diagonal action fails at n=2, alpha=1: residual 2*x^2 - 2",
            "diagonal action fails at n=3, alpha=1: residual 5*x^3 - 15*x",
        ),
    ),
    "operator-equivalence": (
        "FAIL operator-equivalence[bad-route,alpha=1,p=0] (3 of 4 checks failed; first: routes disagree at k=0, p=0: formula 1 vs solved 0)",
        4,
        (
            "routes disagree at k=0, p=0: formula 1 vs solved 0",
            "routes disagree at k=2, p=0: formula 1/2*x^2 - 3/2 vs solved -1",
            "routes disagree at k=3, p=0: formula 1/6*x^3 - 3/2*x vs solved 0",
        ),
    ),
    "standard-basis-limit": (
        "FAIL standard-basis-limit[besselJ0] (6 of 33 checks failed; first: coefficient of x^0 in Q_0 has alpha-degree 3 > 0)",
        33,
        (
            "coefficient of x^0 in Q_0 has alpha-degree 3 > 0",
            "alpha=0 coefficient mismatch at k=1",
            "coefficient of x^0 in Q_2 has alpha-degree 3 > 1",
            "coefficient of x^0 in Q_3 has alpha-degree 3 > 1",
            "coefficient of x^0 in Q_4 has alpha-degree 3 > 2",
            "coefficient of x^0 in Q_5 has alpha-degree 3 > 2",
        ),
    ),
    "laguerre-eigen": (
        "FAIL laguerre-eigen[alpha=1,a=2] (2 of 4 checks failed; first: eigen action fails at n=1, alpha=1, a=2)",
        4,
        (
            "eigen action fails at n=1, alpha=1, a=2",
            "eigen action fails at n=3, alpha=1, a=2",
        ),
    ),
    "turan-necessity": (
        "FAIL turan-necessity[besselJ0,alpha=1,p=0] (4 of 5 checks failed; first: Q_3 real-rooted but necessity value -2/9 < 0)",
        5,
        (
            "Q_3 real-rooted but necessity value -2/9 < 0",
            "Q_4 real-rooted but necessity value -85/192 < 0",
            "Q_5 real-rooted but necessity value -329/900 < 0",
            "Q_6 real-rooted but necessity value -18019/103680 < 0",
        ),
    ),
    "table1-ratios": (
        "FAIL table1 (2 of 8 checks failed; first: ratio at k=2: computed 1/6, reference 7/6)",
        8,
        (
            "ratio at k=2: computed 1/6, reference 7/6",
            "ratio at k=5: computed -61/66, reference 5/66",
        ),
    ),
    "table1-limit": (
        "FAIL table1 (1 of 8 checks failed; first: ratio limit check did not locate a converged window)",
        8,
        (
            "ratio limit check did not locate a converged window",
        ),
    ),
    "bessel-references": (
        "FAIL bessel (3 of 17 checks failed; first: difference d_0: computed 1, reference 2)",
        17,
        (
            "difference d_0: computed 1, reference 2",
            "difference d_7: computed 17/420, reference 437/420",
            "necessity value at k=3: computed -2/9, reference 7/9",
        ),
    ),
    "bessel-q3": (
        "FAIL bessel (3 of 17 checks failed; first: Q_3 at alpha=1/2: expected exactly one real root)",
        17,
        (
            "Q_3 at alpha=1/2: expected exactly one real root",
            "Q_3 at alpha=1: computed 1/9*x^3 + 1/6*x + 1",
            "Q_3 at alpha=2: expected exactly one real root",
        ),
    ),
    "bessel-oracle-and-table": (
        "FAIL bessel (4 of 17 checks failed; first: Q_3 at alpha=1/2: formula and oracle disagree)",
        17,
        (
            "Q_3 at alpha=1/2: formula and oracle disagree",
            "Q_3 at alpha=1: formula and oracle disagree",
            "Q_3 at alpha=2: formula and oracle disagree",
            "reality table should mark k=3 as not real-rooted",
        ),
    ),
    "linear-operator": (
        "FAIL linear-operator[a=3] (8 of 8 checks failed; first: operator coefficients at alpha=1/2 differ from (a, x, -alpha, 0...))",
        8,
        (
            "operator coefficients at alpha=1/2 differ from (a, x, -alpha, 0...)",
            "eigenvalue interpolation at alpha=1/2 is not x + 3",
            "operator coefficients at alpha=1 differ from (a, x, -alpha, 0...)",
            "eigenvalue interpolation at alpha=1 is not x + 3",
            "operator coefficients at alpha=2 differ from (a, x, -alpha, 0...)",
            "eigenvalue interpolation at alpha=2 is not x + 3",
            "linear(3) with a >= 0 should classify affirmatively",
            "linear(-1) on hermite(1) should be falsified by degree 4",
        ),
    ),
    "geom-family": (
        "FAIL geom-factorial-family (12 of 12 checks failed; first: reality at r=0 depends on alpha; expected alpha-invariance)",
        12,
        (
            "reality at r=0 depends on alpha; expected alpha-invariance",
            "r=0: both Q_2 and Q_4 real-rooted; expected a non-real witness",
            "reality at r=1/2 depends on alpha; expected alpha-invariance",
            "r=1/2: both Q_2 and Q_4 real-rooted; expected a non-real witness",
            "reality at r=4/7 depends on alpha; expected alpha-invariance",
            "r=4/7: both Q_2 and Q_4 real-rooted; expected a non-real witness",
            "reality at r=3/5 depends on alpha; expected alpha-invariance",
            "r=3/5: both Q_2 and Q_4 real-rooted; expected a non-real witness",
            "reality at r=9/10 depends on alpha; expected alpha-invariance",
            "r=9/10: both Q_2 and Q_4 real-rooted; expected a non-real witness",
            "reality at r=1 depends on alpha; expected alpha-invariance",
            "r=1: both Q_2 and Q_4 real-rooted; expected a non-real witness",
        ),
    ),
    "laguerre-boundary": (
        "FAIL laguerre-boundary (24 of 25 checks failed; first: eigen action fails at n=1, alpha=1, a=-1)",
        25,
        (
            *(f"eigen action fails at n={n}, alpha=1, a={a}" for a in (-1, 0, 3) for n in (1, 3, 5, 7, 9)),
            "operator coefficients at a=-1 must be real-rooted",
            "a=-1 lies outside [0, alpha+1] but was inconclusive",
            "operator coefficients at a=0 must be real-rooted",
            "a=0 lies in [0, alpha+1] but was falsified",
            "operator coefficients at a=1 must be real-rooted",
            "a=1 lies in [0, alpha+1] but was falsified",
            "operator coefficients at a=2 must be real-rooted",
            "a=2 lies in [0, alpha+1] but was falsified",
            "operator coefficients at a=3 must be real-rooted",
        ),
    ),
}


@pytest.mark.parametrize("build, patches", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_failing_inputs_keep_their_report(monkeypatch, request, build, patches):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    report = build()
    assert not report.passed
    assert (report.line(), report.checked, report.failures) == EXPECTED[request.node.callspec.id]


def test_suites_that_check_nothing_fail():
    bessel = make_sequence("besselJ0")
    for report, name in (
        (classify.check_turan_necessity(1, bessel, 1), "turan-necessity[besselJ0,alpha=1,p=0]"),
        (jensen.check_shift_recurrence(bessel, 1, 3), "shift-recurrence[besselJ0]"),
    ):
        assert (report.passed, report.checked, report.line()) == (False, 0, f"FAIL {name} (0 checks: nothing was checked)")
    with pytest.raises(ValueError, match="^indices must be nonnegative$"):
        diffop.check_standard_basis_limit(bessel, -2)


def test_turan_necessity_counts_every_k_from_two_real_rooted_or_not():
    bessel = make_sequence("besselJ0")
    reports = [classify.check_turan_necessity(1, bessel, k_max) for k_max in (2, 8)]
    assert [(r.passed, r.checked) for r in reports] == [(True, 1), (True, 7)]
