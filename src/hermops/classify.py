"""Multiplier-sequence classification, reality tables, and falsification.

A nonnegative sequence (gamma_k) acts on polynomials coefficientwise in a
chosen basis.  On the Hermite basis with parameter alpha > 0, the sequence
preserves real-rootedness exactly when its generating function phi(x) =
sum gamma_k x^k / k! has the factored form with exponential rate sigma >= 1;
on the monomial basis the factored form alone suffices.  `is_hermite_ms` and
`is_classical_ms` answer affirmatively only on certificates of membership
(the factored data); everything else is either refuted by structure or left
inconclusive, because a finite computation cannot affirm an infinite
property.  `falsify_sequence` searches a deterministic corpus of real-rooted
polynomials for a concrete counterexample and returns a re-checkable witness
when it finds one.

The falsifier acts on one basis type, `Basis`: a label and a triangular
polynomial family, expanded and reconstructed through `ratpoly`'s one
change of basis.  `StandardBasis`, `HermiteBasis` and `LaguerreBasis` are
its three constructors; the standard basis is the Hermite family at
alpha = 0 (H_n = x^n).  A basis keeps its polynomial list, and the witness
corpus is built once per deg_max, so a search builds neither per candidate.
"""

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import laguerre as _laguerre
from .hermite import hermite_polys, validate_alpha
from .jensen import (
    DifferenceTable,
    FactoredSpec,
    GammaSeq,
    LPPlusSpec,
    SeriesSpec,
    ratio_sequence,
)
from .diffop import build_operator
from .ratpoly import (
    RatLike,
    RatPoly,
    combine_in_basis,
    count_real_roots,
    expand_in_basis,
    from_roots,
    is_real_rooted,
    rat,
    rat_str,
    squarefree_part,
)
from .reporting import CheckReport

IS_MS = "is_hms"
NOT_MS = "not_hms"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

RATIO_SEARCH_CAP = 200


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample: a real-rooted input whose image is not."""

    basis: str
    input_poly: RatPoly
    image_poly: RatPoly

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "input": self.input_poly.to_json_dict(),
            "image": self.image_poly.to_json_dict(),
            "input_degree": self.input_poly.degree,
        }


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str
    witness: Optional[Witness] = None
    bound: Optional[int] = None

    def to_json_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# -- bases for coefficientwise action ----------------------------------------


@dataclass(frozen=True)
class Basis:
    """A triangular basis b_0, b_1, ... (deg b_n = n) for coefficientwise action.

    `family(n)` returns [b_0, ..., b_n].  The list is kept and rebuilt only
    when a higher degree is asked for, so a search over polynomials of
    degree <= deg_max builds it at most deg_max times.  Bases compare by
    label.
    """

    label: str
    family: Callable[[int], list] = field(compare=False, repr=False)
    _polys: list = field(init=False, default_factory=list, compare=False, repr=False)

    def _polys_to(self, n: int) -> list:
        if len(self._polys) <= n:
            self._polys[:] = self.family(n)
        return self._polys

    def expand(self, p: RatPoly) -> list:
        return expand_in_basis(p, self._polys_to(p.degree))

    def reconstruct(self, coeffs: list) -> RatPoly:
        return combine_in_basis(coeffs, self._polys_to(len(coeffs) - 1))


def StandardBasis() -> Basis:
    """The monomials x^n: the Hermite family at alpha = 0."""
    return Basis("standard", lambda n: hermite_polys(n, 0))


def HermiteBasis(alpha: RatLike) -> Basis:
    """The generalized Hermite family H_n^(alpha), alpha > 0."""
    a = validate_alpha(alpha)
    if a == 0:
        raise ValueError("use StandardBasis for alpha = 0")
    return Basis(f"hermite({a})", lambda n: hermite_polys(n, a))


def LaguerreBasis(alpha: RatLike) -> Basis:
    """The generalized Laguerre family L_n^(alpha), alpha > -1."""
    a = _laguerre.validate_laguerre_alpha(alpha)
    return Basis(f"laguerre({a})", lambda n: _laguerre.laguerre_polys(n, a))


# -- affirmative / negative classification -----------------------------------


def is_hermite_ms(phi: LPPlusSpec) -> Verdict:
    """Membership test for the Hermite basis, from factored data.

    The coefficient sequence of a factored generator preserves
    real-rootedness on the Hermite basis (any alpha > 0) exactly when
    sigma >= 1.  Series-defined generators carry no rate certificate, so
    they come back inconclusive.
    """
    if isinstance(phi, SeriesSpec):
        return Verdict(INCONCLUSIVE, f"series-defined generator {phi.name!r}: sigma unknown")
    if phi.sigma >= 1:
        return Verdict(IS_MS, f"factored form with sigma = {phi.sigma} >= 1")
    return Verdict(NOT_MS, f"factored form with sigma = {phi.sigma} < 1")


def is_classical_ms(phi) -> Verdict:
    """Membership test for the monomial basis.

    Factored generators qualify by construction.  The linear family
    gamma_k = k + a has a closed-form answer: membership exactly when
    a >= 0 (its generating function is (x + a) e^x, which has the factored
    form only then).  Anything else is inconclusive.
    """
    if isinstance(phi, FactoredSpec):
        return Verdict(IS_MS, "factored form certifies membership on the monomial basis")
    if isinstance(phi, SeriesSpec):
        return Verdict(INCONCLUSIVE, f"series-defined generator {phi.name!r}")
    if isinstance(phi, GammaSeq):
        a = phi.params.get("a")
        if phi.name and phi.name.startswith("linear(") and a is not None:
            if a >= 0:
                return Verdict(IS_MS, f"linear sequence k + {a} with a >= 0")
            return Verdict(NOT_MS, f"linear sequence k + {a} with a < 0")
        return Verdict(INCONCLUSIVE, "no factored data for this sequence")
    raise TypeError(f"cannot classify object of type {type(phi).__name__}")


# -- reality tables and necessity checks --------------------------------------


@dataclass(frozen=True)
class RealityRow:
    k: int
    real_rooted: bool
    distinct_real_roots: int
    degree: int


@dataclass(frozen=True)
class RealityTable:
    alpha: Fraction
    p_shift: int
    rows: tuple

    @property
    def all_real_rooted(self) -> bool:
        return all(r.real_rooted for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "alpha": rat_str(self.alpha),
            "p": self.p_shift,
            "rows": [{"k": r.k, "real_rooted": r.real_rooted} for r in self.rows],
        }


def coefficient_reality_table(alpha: RatLike, seq: GammaSeq, k_max: int, p: int = 0) -> RealityTable:
    """Real-rootedness of every coefficient polynomial Q_k, k = 0..k_max."""
    a = validate_alpha(alpha)
    if a == 0:
        raise ValueError("the reality table needs alpha > 0")
    rows = []
    for k, q in enumerate(build_operator(a, seq, k_max, p).qpolys):
        if q.is_zero:
            rows.append(RealityRow(k, True, 0, -1))
            continue
        sf = squarefree_part(q)
        roots = count_real_roots(sf)
        rows.append(RealityRow(k, roots == sf.degree, roots, q.degree))
    return RealityTable(a, p, tuple(rows))


def check_turan_necessity(alpha: RatLike, seq: GammaSeq, k_max: int, p: int = 0) -> CheckReport:
    """Real-rootedness of Q_k forces d_k^2 + 2 d_k d_{k-1} >= 0.

    Checked as an implication for every k in [2, k_max]: whenever the
    computed Q_k is real-rooted, the quadratic expression in the finite
    differences must be nonnegative.
    """
    failures = []
    checked = 0
    op = build_operator(alpha, seq, max(k_max, 0), p)
    table = DifferenceTable(seq, op.order, p)
    for k in range(2, k_max + 1):
        if is_real_rooted(op.qpolys[k]):
            checked += 1
            t = table.turan(k)
            if t < 0:
                failures.append(f"Q_{k} real-rooted but necessity value {t} < 0")
    return CheckReport(
        f"turan-necessity[{seq.name},alpha={rat(alpha)},p={p}]", checked, tuple(failures)
    )


def ratio_limit_check(
    phi: FactoredSpec,
    window: int = 20,
    tol: RatLike = Fraction(1, 100),
    cap: int = RATIO_SEARCH_CAP,
) -> CheckReport:
    """Locate where the difference ratios settle onto sigma - 1.

    Scans for the smallest K0 <= cap such that every defined ratio with
    index in [K0, K0 + window] lies strictly within tol of sigma - 1.
    Requires sigma != 1: at sigma = 1 the differences are eventually zero
    and the ratios degenerate.
    """
    if not isinstance(phi, FactoredSpec):
        raise TypeError("ratio limit analysis needs the factored form")
    if phi.sigma == 1:
        raise ValueError("sigma = 1 makes the difference ratios degenerate; no limit to check")
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    target = phi.sigma - 1
    seq = GammaSeq.from_lpplus(phi)
    rows = ratio_sequence(seq, cap + window)
    values = dict(rows)
    for k0 in range(1, cap + 1):
        entries = [values[k] for k in range(k0, k0 + window + 1)]
        defined = [v for v in entries if v is not None]
        if not defined:
            continue
        if all(abs(v - target) < tol for v in defined):
            return CheckReport(
                "ratio-limit",
                cap,
                data={"k0": k0, "target": target, "window": window, "tol": tol},
            )
    return CheckReport(
        "ratio-limit",
        cap,
        (f"no window of width {window} within {tol} of {target} found with start <= {cap}",),
        data={"target": target, "window": window, "tol": tol},
    )


# -- falsification -------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _witness_candidates(deg_max: int) -> tuple:
    """Deterministic corpus of real-rooted polynomials, ascending degree.

    Mixes powers of linear factors, exhaustive small products over a fixed
    rational root set, shifted Hermite and Laguerre polynomials (real-rooted
    by classical theory), and seeded random root multisets.  The order is
    fixed so falsification results are reproducible run to run.  The corpus
    is built once per deg_max and shared, hence an immutable tuple; only a
    few distinct deg_max values are ever in use, so the memo is small.
    """
    if deg_max < 1:
        raise ValueError("deg_max must be at least 1")
    half = Fraction(1, 2)
    shifts = [0, 1, -1, 2, -2, half, -half, 3, -3, 5, -5]
    root_set = [0, 1, -1, 2, -2, 3, -3, half, -half, 5, -5]

    candidates = []

    for n in range(1, deg_max + 1):
        for c in shifts:
            candidates.append(from_roots([c] * n))

    def multisets(size, start=0, prefix=()):
        if size == 0:
            candidates.append(from_roots(prefix))
            return
        for i in range(start, len(root_set)):
            multisets(size - 1, i, prefix + (root_set[i],))

    for size in range(2, min(3, deg_max) + 1):
        multisets(size)

    for family_polys in (hermite_polys(deg_max, 1), _laguerre.laguerre_polys(deg_max, 1)):
        for n in range(2, deg_max + 1):
            base = family_polys[n]
            for t in (0, 1, -1, half, -half, 2):
                candidates.append(base.compose(RatPoly([t, 1])))

    rng = random.Random(0x5EED)
    for n in range(2, deg_max + 1):
        for _ in range(30):
            roots = [
                Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(n)
            ]
            candidates.append(from_roots(roots))

    seen = set()
    unique = []
    for p in candidates:
        if p.degree < 1 or p.degree > deg_max:
            continue
        if p.coeffs in seen:
            continue
        seen.add(p.coeffs)
        unique.append(p)
    unique.sort(key=lambda q: q.degree)
    return tuple(unique)


def falsify_sequence(seq: GammaSeq, basis: Basis, deg_max: int) -> Verdict:
    """Search for a real-rooted polynomial whose coefficientwise image is not.

    A hit refutes the multiplier-sequence property on the given basis and is
    returned as a witness (both polynomials, re-verified before reporting).
    No hit proves nothing; the verdict is then inconclusive with the searched
    degree bound attached, never an affirmation.
    """
    for candidate in _witness_candidates(deg_max):
        coeffs = basis.expand(candidate)
        image = basis.reconstruct([seq[n] * c for n, c in enumerate(coeffs)])
        if not is_real_rooted(image):
            if not is_real_rooted(candidate):
                continue
            return Verdict(
                FALSIFIED,
                f"degree-{candidate.degree} witness on basis {basis.label}",
                witness=Witness(basis.label, candidate, image),
            )
    return Verdict(
        INCONCLUSIVE,
        f"no witness among real-rooted polynomials of degree <= {deg_max}",
        bound=deg_max,
    )
