"""Multiplier-sequence classification, reality tables, and falsification.

A nonnegative sequence (gamma_k) acts on polynomials coefficientwise in a
chosen basis.  On the Hermite basis with parameter alpha > 0, the sequence
preserves real-rootedness exactly when its generating function phi(x) =
sum gamma_k x^k / k! has the factored form with exponential rate sigma >= 1;
on the monomial basis the factored form alone suffices.  `is_hermite_ms` and
`is_classical_ms` take a `FactoredSpec` (the one certificate) or a
`GammaSeq`, and answer affirmatively only on a certificate of membership;
a sequence is either refuted by structure or left inconclusive, because a
finite computation cannot affirm an infinite property.  `falsify_sequence`
searches a deterministic corpus of real-rooted polynomials for a concrete
counterexample and returns a re-checkable witness when it finds one.

The falsifier acts on one basis type, `Basis`: a label and a triangular
polynomial family, expanded and reconstructed through `ratpoly`'s one
change of basis.  `StandardBasis`, `HermiteBasis` and `LaguerreBasis` are
its three constructors; the standard basis is the Hermite family at
alpha = 0 (H_n = x^n).  Each degree of the witness corpus is built once, and
a search reads its basis's family once, so neither is built per candidate.
A search applies one integer matrix, the sequence's map on degree <= deg_max
over one denominator, to each candidate's integer numerators, and runs the
root test on that integer image; the verdict is the same on that positive
multiple, and only a witness gets the exact image.
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import laguerre as _laguerre
from .hermite import hermite_polys, validate_alpha
from .jensen import DifferenceTable, FactoredSpec, GammaSeq, ratio_sequence
from .diffop import build_operator
from .ratpoly import (
    RatLike,
    RatPoly,
    _real_rooted_ints,
    _strip,
    combine_in_basis,
    expand_in_basis,
    is_real_rooted,
    rat,
    rat_str,
)
from .reporting import CheckReport, Record

IS_MS = "is_hms"
NOT_MS = "not_hms"
FALSIFIED = "falsified"
INCONCLUSIVE = "inconclusive"

RATIO_SEARCH_CAP = 200


class Witness(Record):
    """A concrete counterexample: a real-rooted input whose image is not."""

    __slots__ = ("basis", "input_poly", "image_poly")

    def __init__(self, basis: str, input_poly: RatPoly, image_poly: RatPoly):
        super().__init__(basis, input_poly, image_poly)

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "input": self.input_poly.to_json_dict(),
            "image": self.image_poly.to_json_dict(),
            "input_degree": self.input_poly.degree,
        }


class Verdict(Record):
    __slots__ = ("status", "reason", "witness", "bound")

    def __init__(self, status: str, reason: str, witness: Optional[Witness] = None, bound: Optional[int] = None):
        super().__init__(status, reason, witness, bound)

    def to_json_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# -- bases for coefficientwise action ----------------------------------------


class Basis(Record):
    """A triangular basis b_0, b_1, ... (deg b_n = n) for coefficientwise action: `family(n)`
    returns [b_0, ..., b_n].  Bases compare, hash and show by label."""

    __slots__ = ("label", "family")
    _fields = ("label",)

    def __init__(self, label: str, family: Callable[[int], list]):
        super().__init__(label, family)


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


def is_hermite_ms(phi) -> Verdict:
    """Membership test for the Hermite basis, from factored data.

    The coefficient sequence of a factored generator preserves
    real-rootedness on the Hermite basis (any alpha > 0) exactly when
    sigma >= 1.  A `GammaSeq` carries no rate certificate, so it comes back
    inconclusive.
    """
    if isinstance(phi, FactoredSpec):
        if phi.sigma >= 1:
            return Verdict(IS_MS, f"factored form with sigma = {phi.sigma} >= 1")
        return Verdict(NOT_MS, f"factored form with sigma = {phi.sigma} < 1")
    if isinstance(phi, GammaSeq):
        return Verdict(INCONCLUSIVE, f"no factored form for {phi.name or 'this sequence'}: sigma unknown")
    raise TypeError(f"cannot classify object of type {type(phi).__name__}")


def is_classical_ms(phi) -> Verdict:
    """Membership test for the monomial basis.

    Factored generators qualify by construction.  The linear family
    gamma_k = k + a has a closed-form answer: membership exactly when
    a >= 0 (its generating function is (x + a) e^x, which has the factored
    form only then).  Any other `GammaSeq` is inconclusive.
    """
    if isinstance(phi, FactoredSpec):
        return Verdict(IS_MS, "factored form certifies membership on the monomial basis")
    if isinstance(phi, GammaSeq):
        a = phi.params.get("a")
        if a is None:
            return Verdict(INCONCLUSIVE, "no factored data for this sequence")
        if a >= 0:
            return Verdict(IS_MS, f"linear sequence k + {a} with a >= 0")
        return Verdict(NOT_MS, f"linear sequence k + {a} with a < 0")
    raise TypeError(f"cannot classify object of type {type(phi).__name__}")


# -- reality tables and necessity checks --------------------------------------


class RealityRow(Record):
    """Whether Q_k is real-rooted."""

    __slots__ = ("k", "real_rooted", "q")

    def __init__(self, k: int, real_rooted: bool, q: RatPoly):
        super().__init__(k, real_rooted, q)


class RealityTable(Record):
    __slots__ = ("alpha", "p_shift", "rows")

    def __init__(self, alpha: Fraction, p_shift: int, rows: tuple):
        super().__init__(alpha, p_shift, rows)

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
    qpolys = build_operator(a, seq, k_max, p).qpolys
    rows = [RealityRow(k, is_real_rooted(q), q) for k, q in enumerate(qpolys)]
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


def _root_product(roots) -> RatPoly:
    """The monic polynomial with the given rational roots, multiplied out in integers.

    Its numerators are the product of the primitive factors q x - p, one per
    root p/q in lowest terms; by Gauss's lemma the product is primitive, and
    its leading coefficient prod q, the denominator, is positive.
    """
    ints = [1]
    for r in roots:
        ints = [r.denominator * a - r.numerator * b for a, b in zip([0, *ints], [*ints, 0])]
    return RatPoly._reduced(ints, ints[-1])


@functools.lru_cache(maxsize=None)
def _corpus_degree(n: int) -> tuple:
    """Degree n of the witness corpus, and the state its random stream ends in.

    Degree n: powers of linear factors, every product of n roots from a fixed
    rational set (n <= 3), shifted Hermite and Laguerre polynomials
    (real-rooted by classical theory) and 30 seeded random root multisets,
    deduplicated; root products are multiplied out in integers.  The random
    stream runs through the degrees in ascending order, so degree n starts
    where degree n - 1 left it and never depends on deg_max.
    """
    half = Fraction(1, 2)
    rng = random.Random(0x5EED)
    if n > 1:
        rng.setstate(_corpus_degree(n - 1)[1])
    candidates = [_root_product([c] * n) for c in (0, 1, -1, 2, -2, half, -half, 3, -3, 5, -5)]
    if 1 < n <= 3:
        root_set = (0, 1, -1, 2, -2, 3, -3, half, -half, 5, -5)
        candidates += [_root_product(r) for r in itertools.combinations_with_replacement(root_set, n)]
    if n > 1:
        for base in (hermite_polys(n, 1)[n], _laguerre.laguerre_polys(n, 1)[n]):
            candidates += [base.compose(RatPoly([t, 1])) for t in (0, 1, -1, half, -half, 2)]
        for _ in range(30):
            candidates.append(_root_product([Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(n)]))
    return tuple(dict.fromkeys(candidates)), rng.getstate()


@functools.lru_cache(maxsize=8)
def _witness_candidates(deg_max: int) -> tuple:
    """Deterministic corpus of real-rooted polynomials of degree 1..deg_max, ascending.

    The order is fixed so falsification results are reproducible run to
    run.  It is the degree <= deg_max prefix of any larger corpus, so each
    degree is built once; the result is an immutable tuple of polynomials.
    """
    if deg_max < 1:
        raise ValueError("deg_max must be at least 1")
    return tuple(itertools.chain.from_iterable(_corpus_degree(n)[0] for n in range(1, deg_max + 1)))


class _IntegerMap:
    """T = B diag(gamma) B^-1 on monomials of degree <= deg_max, times one denominator `den`.

    Column j is the image of x^j; T is upper triangular, so row i keeps only
    T[i][i..deg_max], and the matrix serves every degree up to deg_max.
    """

    def __init__(self, seq: GammaSeq, basis: Basis, deg_max: int):
        polys = basis.family(deg_max)
        cols = []
        for j in range(deg_max + 1):
            coeffs = expand_in_basis(RatPoly([0] * j + [1]), polys)
            cols.append(combine_in_basis([seq[n] * c for n, c in enumerate(coeffs)], polys))
        self.den = math.lcm(*(c._den for c in cols))
        self.rows = [
            [c._num[i] * (self.den // c._den) if i < len(c._num) else 0 for c in cols[i:]]
            for i in range(deg_max + 1)
        ]

    # perfbench counts one call of a classify `expand` per candidate (ROADMAP item 1 removes this).
    def expand(self, ints: Sequence[int]) -> list:
        """T * ints, the image of the polynomial with coefficients ints, times den."""
        return [sum(map(operator.mul, self.rows[i], ints[i:])) for i in range(len(ints))]


def falsify_sequence(seq: GammaSeq, basis: Basis, deg_max: int) -> Verdict:
    """Search for a real-rooted polynomial whose coefficientwise image is not.

    A hit refutes the multiplier-sequence property on the given basis and is
    returned as a witness (both polynomials, re-verified before reporting).
    No hit proves nothing; the verdict is then inconclusive with the searched
    degree bound attached, never an affirmation.
    """
    corpus = _witness_candidates(deg_max)  # raises on deg_max < 1 before the map is built
    action = _IntegerMap(seq, basis, deg_max)
    for candidate in corpus:
        image = _strip(action.expand(candidate._num))
        if not _real_rooted_ints(tuple(image)):
            if not is_real_rooted(candidate):
                continue
            # image is den * T * num for the candidate num / _den
            exact = RatPoly._reduced(image, action.den * candidate._den)
            return Verdict(
                FALSIFIED,
                f"degree-{candidate.degree} witness on basis {basis.label}",
                witness=Witness(basis.label, candidate, exact),
            )
    return Verdict(
        INCONCLUSIVE,
        f"no witness among real-rooted polynomials of degree <= {deg_max}",
        bound=deg_max,
    )
