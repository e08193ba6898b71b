"""Independent slow routes that the tests compare the package against.

Each function here computes a quantity the package also computes, by a
different route written as the formula is stated, so agreement between the
two is evidence for both.  None of them is used by the package itself.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from hermops.classify import FALSIFIED, INCONCLUSIVE, Basis, Verdict, Witness, _witness_candidates
from hermops.hermite import hermite_polys, validate_alpha
from hermops.jensen import FactoredSpec, GammaSeq, finite_difference
from hermops.laguerre import laguerre_polys
from hermops.ratpoly import (
    ONE,
    RatLike,
    RatPoly,
    _int_coeffs,
    count_real_roots,
    is_real_rooted,
    poly_gcd,
    rat,
)


def hermite_sum_qpolys(alpha: RatLike, seq: GammaSeq, order: int, p: int = 0) -> list:
    """[Q_0, ..., Q_order] by the paper's formula as written,

        Q_k = sum_j (-alpha)^j / (j! (k-2j)!) * d_{k-j} * H_{k-2j},

    summing the Hermite polynomials coefficientwise.
    """
    a = validate_alpha(alpha)
    d = [finite_difference(seq, i, p) for i in range(order + 1)]
    polys = hermite_polys(order, a)
    out = []
    for k in range(order + 1):
        coeffs = [Fraction(0)] * (k + 1)
        for j in range(k // 2 + 1):
            scale = (-a) ** j * Fraction(1, math.factorial(j) * math.factorial(k - 2 * j)) * d[k - j]
            if scale:
                for i, c in enumerate(polys[k - 2 * j].coeffs):
                    if c:
                        coeffs[i] += scale * c
        out.append(RatPoly(coeffs))
    return out


def difference_via_exp_shift(phi: FactoredSpec, k: int) -> Fraction:
    """k! * [x^k] of e^(-x) * phi(x) for a factored phi.

    Multiplying by e^(-x) turns the exponential rate sigma into sigma - 1
    while leaving the polynomial part alone, so this is the generating-
    function route to the k-th finite difference of the coefficient
    sequence of phi:  k! * c * sum_j a_j * (sigma - 1)^(k-m-j) / (k-m-j)!.
    """
    if not isinstance(phi, FactoredSpec):
        raise TypeError("the exponential-shift route needs the factored form")
    if k < 0:
        raise ValueError("index must be nonnegative")
    rate = phi.sigma - 1
    n = k - phi.m
    total = Fraction(0)
    product = [Fraction(1)]
    for z in phi.zeros:
        product = [a + b / z for a, b in zip(product + [0], [0] + product)]
    for j, a in enumerate(product):
        if j <= n:
            total += a * rate ** (n - j) / math.factorial(n - j)
    return math.factorial(k) * phi.c * total


def fraction_histogram_bins(values: list, bins: int) -> list:
    """`histogram_bins` on Fractions: each value's bin is int((v - lo) / width)."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if lo == hi:
        return [(lo, hi, len(values))] + [(lo, hi, 0)] * (bins - 1)
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        counts[min(int((v - lo) / width), bins - 1)] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)]


def hermite_product_expand(n: int, m: int, alpha: RatLike) -> list:
    """Linearization of a product of two basis elements:

    H_n * H_m = sum_i alpha^i * i! * C(m,i) * C(n,i) * H_{m+n-2i}.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    a = validate_alpha(alpha)
    out = [Fraction(0)] * (n + m + 1)
    for i in range(min(n, m) + 1):
        out[n + m - 2 * i] += a**i * math.factorial(i) * math.comb(m, i) * math.comb(n, i)
    return out


def reference_falsify(seq: GammaSeq, basis: Basis, deg_max: int) -> Verdict:
    """`falsify_sequence` one candidate at a time, on Fractions.

    Each candidate is expanded in the basis, scaled by gamma and
    reconstructed, so the map is rebuilt per candidate instead of applied as
    one integer matrix.
    """
    for candidate, _ in _witness_candidates(deg_max):
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


def sturm_real_rooted(p: RatPoly) -> bool:
    """Real-rootedness by Sturm alone, with no Newton certificate ahead of it.

    p is real-rooted exactly when its distinct real roots are all its
    distinct roots: the Sturm count equals deg p - deg gcd(p, p').
    Constants and zero are real-rooted, as in `is_real_rooted`.
    """
    if p.degree < 1:
        return True
    return count_real_roots(p) == p.degree - poly_gcd(p, p.derivative()).degree


def from_roots(roots) -> RatPoly:
    """The monic polynomial with the given rational roots (with multiplicity), multiplied out in Fractions."""
    p = ONE
    for r in roots:
        p = p * RatPoly([-rat(r), 1])
    return p


@functools.lru_cache(maxsize=None)
def reference_corpus_degree(n: int) -> tuple:
    """Degree n of the witness corpus built in Fractions, and its random stream's end state.

    Every candidate comes from `from_roots` or `RatPoly.compose`, and its
    integers from `_int_coeffs`; the same candidates, order, deduplication
    and random stream as `classify._corpus_degree`.
    """
    half = Fraction(1, 2)
    rng = random.Random(0x5EED)
    if n > 1:
        rng.setstate(reference_corpus_degree(n - 1)[1])
    candidates = [from_roots([c] * n) for c in (0, 1, -1, 2, -2, half, -half, 3, -3, 5, -5)]
    if 1 < n <= 3:
        root_set = (0, 1, -1, 2, -2, 3, -3, half, -half, 5, -5)
        candidates += [from_roots(r) for r in itertools.combinations_with_replacement(root_set, n)]
    if n > 1:
        for base in (hermite_polys(n, 1)[n], laguerre_polys(n, 1)[n]):
            candidates += [base.compose(RatPoly([t, 1])) for t in (0, 1, -1, half, -half, 2)]
        for _ in range(30):
            candidates.append(from_roots(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2, 3))) for _ in range(n)))
    unique = {}
    for p in candidates:
        unique.setdefault(p.coeffs, p)
    return tuple((p, tuple(_int_coeffs(p))) for p in unique.values()), rng.getstate()


def reference_witness_candidates(deg_max: int) -> tuple:
    """The witness corpus of degree 1..deg_max, ascending, from `reference_corpus_degree`."""
    return tuple(itertools.chain.from_iterable(reference_corpus_degree(n)[0] for n in range(1, deg_max + 1)))
