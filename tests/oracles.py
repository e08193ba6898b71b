"""Independent slow routes that the tests compare the package against.

Each function here computes a quantity the package also computes, by a
different route written as the formula is stated, so agreement between the
two is evidence for both.  None of them is used by the package itself.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from hermops.classify import FALSIFIED, INCONCLUSIVE, Basis, Verdict, Witness
from hermops.hermite import hermite_polys, validate_alpha
from hermops.jensen import FactoredSpec, GammaSeq, finite_difference, ratio_sequence
from hermops.laguerre import laguerre_polys
from hermops.ratpoly import (
    ONE,
    RatLike,
    RatPoly,
    _content_strip,
    combine_in_basis,
    count_real_roots,
    expand_in_basis,
    int_str,
    is_real_rooted,
    parse_rat,
    poly_gcd,
    rat,
    rat_str,
)


def hermite_sum_qpolys(alpha: RatLike, seq: GammaSeq, order: int, p: int = 0) -> list:
    """[Q_0, ..., Q_order] by the paper's formula as written,

        Q_k = sum_j (-alpha)^j / (j! (k-2j)!) * d_{k-j} * H_{k-2j},

    summing the Hermite polynomials of `fraction_hermite_polys` coefficientwise.
    """
    a = validate_alpha(alpha)
    d = [finite_difference(seq, i, p) for i in range(order + 1)]
    polys = fraction_hermite_polys(order, a)
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


def exp_poly_head(ints, u: int, t: int, k: int) -> int:
    """t^k * k! * [x^k] e^(u*x/t) * sum_j ints[j] * x^j, an integer, in closed form:
    sum_(j <= J) ints[j] * k!/(k-j)! * u^(k-j) * t^j with J = min(k, deg)."""
    top = min(k, len(ints) - 1)
    total = 0
    falling = 1  # k!/(k-j)!
    for j in range(top + 1):
        total += ints[j] * falling * u ** (top - j) * t**j
        falling *= k - j
    return total * u ** (k - top)


def closed_form_gamma(phi: FactoredSpec, k: int) -> Fraction:
    """gamma_k of a factored phi = e^(sigma*x) * R/den, one closed form per k."""
    s, t = phi.sigma.numerator, phi.sigma.denominator
    return Fraction(exp_poly_head(phi._ints, s, t, k), phi._den * t**k)


def closed_form_differences(phi: FactoredSpec, k_max: int, p: int) -> list:
    """The differences d_(0,p)..d_(k_max,p) of `GammaSeq.from_lpplus(phi)`, each in
    closed form: R_p by p steps R -> t*R' + s*R, then
    d_(k,p) = k! * [x^k] e^((sigma-1)*x) * R_p/(den*t^p)."""
    s, t = phi.sigma.numerator, phi.sigma.denominator
    ints = list(phi._ints)
    for _ in range(p):
        ints = [s * a + t * (j + 1) * b for j, (a, b) in enumerate(zip(ints, ints[1:] + [0]))]
    return [Fraction(exp_poly_head(ints, s - t, t, k), phi._den * t ** (p + k)) for k in range(k_max + 1)]


def exp_bessel_gamma(sigma: RatLike, b: RatLike, r: RatLike, k: int) -> Fraction:
    """gamma_k = k! * [x^k] e^(sigma*x) * 0F1(;b;r*x), the Cauchy product of the two Taylor series:
    [x^m] e^(sigma*x) = sigma^m/m! and [x^n] 0F1(;b;r*x) = r^n/((b)_n * n!), (b)_n = b*(b+1)*...*(b+n-1)."""
    sigma, b, r = rat(sigma), rat(b), rat(r)
    exp = [sigma**m / math.factorial(m) for m in range(k + 1)]
    hyp = [r**n / (math.prod(b + j for j in range(n)) * math.factorial(n)) for n in range(k + 1)]
    return math.factorial(k) * sum(exp[k - n] * hyp[n] for n in range(k + 1))


def jensen_reversed(seq: GammaSeq, n: int) -> RatPoly:
    """The reversed Jensen polynomial sum_k C(n,k) * gamma_k * x^(n-k).

    Its degree is exactly n whenever gamma_0 != 0, and its value at -1 is the
    n-th finite difference of the sequence.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        out[n - k] = math.comb(n, k) * seq[k]
    return RatPoly(out)


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

    Each candidate of the Fraction-built corpus is expanded in the basis,
    scaled by gamma and reconstructed, so the map is rebuilt per candidate
    instead of applied as one integer matrix to a degree's columns.
    """
    polys = basis.family(deg_max)
    for candidate in reference_witness_candidates(deg_max):
        coeffs = expand_in_basis(candidate, polys)
        image = combine_in_basis([seq[n] * c for n, c in enumerate(coeffs)], polys)
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


def reference_ratio_limit_check(phi: FactoredSpec, window: int, tol: Fraction, cap: int) -> Optional[int]:
    """`ratio_limit_check` one start at a time: for K0 = 1, 2, ..., cap, read the
    ratios at K0..K0 + window again and return the first K0 whose defined
    ratios exist and all lie strictly within tol of sigma - 1, or None."""
    target = phi.sigma - 1
    values = dict(ratio_sequence(GammaSeq.from_lpplus(phi), cap + window))
    for k0 in range(1, cap + 1):
        defined = [values[k] for k in range(k0, k0 + window + 1) if values[k] is not None]
        if defined and all(abs(v - target) < tol for v in defined):
            return k0
    return None


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


def interpolate(points: Sequence[tuple]) -> RatPoly:
    """Lagrange interpolation through ``(x, y)`` pairs with distinct x.

    The oracle for `diffop._interpolant_degree`, which reads only the degree,
    off Newton divided differences, with no polynomial built.
    """
    xs = [rat(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = RatPoly()
    for i, (_, y) in enumerate(points):
        yi = rat(y)
        if yi == 0:
            continue
        num = ONE
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * RatPoly([-xj, 1])
            den *= xs[i] - xj
        total = total + num * (yi / den)
    return total


@functools.lru_cache(maxsize=None)
def reference_corpus_degree(n: int) -> tuple:
    """Degree n of the witness corpus built in Fractions, and its random stream's end state.

    Every candidate comes from `from_roots` or `RatPoly.compose`; the same
    candidates, order, deduplication and random stream as
    `classify._corpus_degree`.
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
    return tuple(unique.values()), rng.getstate()


def reference_witness_candidates(deg_max: int) -> tuple:
    """The witness corpus of degree 1..deg_max, ascending, from `reference_corpus_degree`."""
    return tuple(itertools.chain.from_iterable(reference_corpus_degree(n)[0] for n in range(1, deg_max + 1)))


class FractionPoly:
    """The earlier layout of `RatPoly`: a tuple of Fractions, one Fraction operation per coefficient term."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FractionPoly([other])
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __radd__(self, other) -> "FractionPoly":
        return self.__add__(other)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly([-c for c in self._coeffs])

    def __sub__(self, other) -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FractionPoly([other])
        return self + (-other)

    def __rsub__(self, other) -> "FractionPoly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "FractionPoly":
        if isinstance(other, FractionPoly):
            if self.is_zero or other.is_zero:
                return FractionPoly()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a:
                    for j, b in enumerate(other._coeffs):
                        out[i + j] += a * b
            return FractionPoly(out)
        scalar = rat(other)
        return FractionPoly([scalar * c for c in self._coeffs])

    def __rmul__(self, other) -> "FractionPoly":
        return self.__mul__(other)

    def __truediv__(self, other) -> "FractionPoly":
        scalar = rat(other)
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int) -> "FractionPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = FractionPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other: "FractionPoly"):
        if not isinstance(other, FractionPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        r = list(self._coeffs)
        q = [Fraction(0)] * max(len(r) - len(other._coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        while len(r) - 1 >= d and r:
            t = r[-1] / lead
            k = len(r) - 1 - d
            q[k] = t
            for i, c in enumerate(other._coeffs):
                r[k + i] -= t * c
            while r and r[-1] == 0:
                r.pop()
        return FractionPoly(q), FractionPoly(r)

    def __mod__(self, other: "FractionPoly") -> "FractionPoly":
        return divmod(self, other)[1]

    # -- calculus / evaluation ---------------------------------------------

    def derivative(self, order: int = 1) -> "FractionPoly":
        """Formal derivative of the given order (order 0 returns self)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self._coeffs
        for _ in range(order):
            cs = tuple(i * c for i, c in enumerate(cs) if i > 0)
            if not cs:
                return FractionPoly()
        return FractionPoly(cs)

    def __call__(self, x0: RatLike) -> Fraction:
        x = rat(x0)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "FractionPoly") -> "FractionPoly":
        """Substitute `inner` for the variable (Horner over polynomials)."""
        acc = FractionPoly()
        for c in reversed(self._coeffs):
            acc = acc * inner + FractionPoly([c])
        return acc

    # -- presentation / serialization ----------------------------------------

    def __repr__(self) -> str:
        return f"FractionPoly({self.to_text()!r})"

    def to_text(self) -> str:
        """Human-readable rendering such as ``x^3 - 3*x``."""
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            mag_text = int_str(mag.numerator) if mag.denominator == 1 else rat_str(mag)
            if i == 0:
                body = mag_text
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag_text}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_dict(self) -> dict:
        return {"coeffs": [rat_str(c) for c in self._coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FractionPoly":
        return cls([parse_rat(c) for c in data["coeffs"]])


def lcm_int_coeffs(p) -> list:
    """Primitive integer coefficients of p by the lcm of its Fraction coefficients' denominators."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _content_strip([c.numerator * (den // c.denominator) for c in p.coeffs])


def fraction_hermite_polys(n_max: int, alpha: RatLike) -> list:
    """[H_0, ..., H_n_max] by H_n = x*H_(n-1) - alpha*(n-1)*H_(n-2) on `FractionPoly`."""
    a = validate_alpha(alpha)
    x = FractionPoly([0, 1])
    polys = [FractionPoly([1]), x]
    for n in range(2, n_max + 1):
        polys.append(x * polys[n - 1] - (a * (n - 1)) * polys[n - 2])
    return polys[: n_max + 1]


def closed_form_physicists_hermite(n: int) -> RatPoly:
    """The physicists' H_n = n! * sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!), term by term."""
    coeffs = [Fraction(0)] * (n + 1)
    for m in range(n // 2 + 1):
        term = Fraction(math.factorial(n) * 2 ** (n - 2 * m), math.factorial(m) * math.factorial(n - 2 * m))
        coeffs[n - 2 * m] = -term if m % 2 else term
    return RatPoly(coeffs)


def fraction_laguerre_polys(n_max: int, alpha: RatLike) -> list:
    """[L_0, ..., L_n_max] by the closed form, one Fraction per coefficient."""
    a = rat(alpha)
    out = []
    for n in range(n_max + 1):
        coeffs = []
        for k in range(n + 1):
            rising = Fraction(1)
            for j in range(k + 1, n + 1):
                rising *= a + j
            term = rising / math.factorial(n - k) / math.factorial(k)
            coeffs.append(-term if k % 2 else term)
        out.append(FractionPoly(coeffs))
    return out


# The JSON of `hermops qpoly` and `hermops reality` as the `json` module's encoder writes it.  A Q_k reaches
# the encoder's `default` hook as a `RatPoly`, whose coefficients are reduced `Fraction`s rendered by rat_str.
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, default=lambda q: {"coeffs": [rat_str(c) for c in q.coeffs]})


def encoder_qpoly_json(qpolys, alpha, p) -> str:
    """The text of `hermops qpoly --format json` for the coefficients `qpolys` at `alpha` and offset `p`."""
    return _ENCODER.encode({"Q": qpolys, "alpha": rat_str(alpha), "p_shift": p}) + "\n"


def encoder_reality_json(rows, alpha, p) -> str:
    """The text of `hermops reality --format json` for the verdicts `rows` at `alpha` and offset `p`."""
    rows = [{"k": k, "real_rooted": real} for k, real in enumerate(rows)]
    return _ENCODER.encode({"alpha": rat_str(alpha), "p": p, "rows": rows}) + "\n"
