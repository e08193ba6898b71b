"""Eigenvalue sequences, their generating functions, and finite differences.

A sequence (gamma_k) of exact rationals is wrapped in `GammaSeq`.  Sequences
can come from a closed-form rule, an explicit list, or a `FactoredSpec`
describing a function

    phi(x) = c * x^m * e^(sigma*x) * prod_k (1 + x/x_k),   c > 0, sigma >= 0,
                                                           x_k > 0,

in which case gamma_k = k! * [x^k] phi.  Functions of this form are entire
with only real nonpositive zeros; `SeriesSpec` covers named generators whose
Taylor coefficients are rational but whose factored data is not available.

The quantity driving everything downstream is the k-th forward finite
difference of the sequence taken at offset p,

    d_(k,p) = sum_n C(k,n) * gamma_(n+p) * (-1)^(k-n),

which equals the reversed Jensen polynomial of the p-shifted sequence
evaluated at -1, and also equals k! * [x^k] (e^(-x) * phi_p(x)) where phi_p
generates the shifted sequence.  Every consumer in the package reads these
numbers from one `DifferenceTable`, which takes adjacent differences of
gamma_p..gamma_(p+K) once, over the integers.  `finite_difference` (the
binomial sum) and `difference_via_exp_shift` (the generating-function route,
for factored specs) compute single entries independently and serve as
oracles for the table.
"""

import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .ratpoly import RatLike, RatPoly, int_str, rat, rat_str
from .reporting import CheckReport

SIGN_PATTERNS = (
    "nonneg",
    "nonpos",
    "alternating-even-start",
    "alternating-odd-start",
    "mixed",
)


@dataclass(frozen=True)
class FactoredSpec:
    """Factored form c * x^m * e^(sigma*x) * prod(1 + x/x_k)."""

    c: Fraction = Fraction(1)
    m: int = 0
    sigma: Fraction = Fraction(0)
    zeros: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))
        object.__setattr__(self, "sigma", rat(self.sigma))
        object.__setattr__(self, "zeros", tuple(rat(z) for z in self.zeros))
        if self.c <= 0:
            raise ValueError("leading constant c must be positive")
        if self.m < 0:
            raise ValueError("zero multiplicity m must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if any(z <= 0 for z in self.zeros):
            raise ValueError("all x_k must be positive")
        out = [Fraction(1)]
        for z in self.zeros:
            nxt = out + [Fraction(0)]
            inv = Fraction(1) / z
            for i, c in enumerate(out):
                nxt[i + 1] += c * inv
            out = nxt
        object.__setattr__(self, "_product", tuple(out))

    def product_coeffs(self) -> list:
        """Coefficients a_j of prod_k (1 + x/x_k), a polynomial of degree N."""
        return list(self._product)

    def to_json_dict(self) -> dict:
        return {
            "c": rat_str(self.c),
            "m": self.m,
            "sigma": rat_str(self.sigma),
            "zeros": [rat_str(z) for z in self.zeros],
        }


@dataclass(frozen=True)
class SeriesSpec:
    """A named generator given directly by its coefficient rule gamma_k."""

    name: str
    rule: Callable[[int], Fraction]


LPPlusSpec = Union[FactoredSpec, SeriesSpec]


def _factorial_reciprocal(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


def bessel_j0_spec() -> SeriesSpec:
    """gamma_k = 1/k!, the coefficient sequence whose generating function is
    the Bessel-type series sum x^k/(k!)^2."""
    return SeriesSpec("besselJ0", _factorial_reciprocal)


class _ExpHalfCoshRule:
    """gamma_k = k! * [x^k] e^(x/2) * cosh(sqrt(2x)), memoized.

    phi(x) = e^(x/2) * cosh(sqrt(2x)) satisfies 2x*phi'' + (1 - 2x)*phi' +
    (x/2 - 3/2)*phi = 0, which on gamma_k gives the three-term recurrence

        (2k + 1) * gamma_(k+1) = (2k + 3/2) * gamma_k - (k/2) * gamma_(k-1),

    with gamma_0 = 1 and gamma_1 = 3/2, so each new term costs O(1).
    """

    def __init__(self):
        self._gammas = [Fraction(1), Fraction(3, 2)]
        self._lock = threading.Lock()

    def __call__(self, k: int) -> Fraction:
        with self._lock:
            g = self._gammas
            while len(g) <= k:
                n = len(g) - 1
                g.append(((2 * n + Fraction(3, 2)) * g[n] - Fraction(n, 2) * g[n - 1]) / (2 * n + 1))
            return g[k]


def exp_half_cosh_spec() -> SeriesSpec:
    """gamma_k of e^(x/2) * cosh(sqrt(2x)), a generator with sigma = 1/2 and
    infinitely many zeros; useful as a stress sequence for ratio scans."""
    return SeriesSpec("exp-half-cosh", _ExpHalfCoshRule())


def _taylor_sum(c: Fraction, m: int, product_coeffs: list, sigma: Fraction, index: int) -> Fraction:
    """index! * [x^index] of c * x^m * e^(sigma*x) * (polynomial with product_coeffs).

    With k = index - m, sigma = s/t and a_j = A_j/D over one denominator D,
    this is c * index!/k! * sum_j A_j * k!/(k-j)! * s^(k-j) * t^j / (D * t^k):
    the sum is an integer, so the value costs one reduction.
    """
    if index < m:
        return Fraction(0)
    k = index - m
    s, t = sigma.numerator, sigma.denominator
    den = math.lcm(*(a.denominator for a in product_coeffs))
    total = 0
    falling = 1  # k!/(k-j)!
    for j in range(min(k, len(product_coeffs) - 1) + 1):
        a = product_coeffs[j]
        total += a.numerator * (den // a.denominator) * falling * s ** (k - j) * t**j
        falling *= k - j
    return Fraction(c.numerator * math.perm(index, m) * total, c.denominator * den * t**k)


def taylor_gamma(phi: LPPlusSpec, k: int) -> Fraction:
    """gamma_k = k! * [x^k] phi, exactly."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if isinstance(phi, SeriesSpec):
        return rat(phi.rule(k))
    return _taylor_sum(phi.c, phi.m, phi.product_coeffs(), phi.sigma, k)


def difference_via_exp_shift(phi: FactoredSpec, k: int) -> Fraction:
    """k! * [x^k] of e^(-x) * phi(x) for a factored phi.

    Multiplying by e^(-x) turns the exponential rate sigma into sigma - 1
    while leaving the polynomial part alone, so this is the generating-
    function route to the k-th finite difference of the coefficient
    sequence of phi.
    """
    if not isinstance(phi, FactoredSpec):
        raise TypeError("the exponential-shift route needs the factored form")
    if k < 0:
        raise ValueError("index must be nonnegative")
    return _taylor_sum(phi.c, phi.m, phi.product_coeffs(), phi.sigma - 1, k)


class GammaSeq:
    """A lazily evaluated, memoized sequence of exact rationals.

    `sign_pattern` declares the expected signs and is checked on every value
    actually computed; a violation raises immediately rather than poisoning
    downstream results.  "mixed" declares nothing.
    """

    def __init__(
        self,
        rule: Callable[[int], Fraction],
        sign_pattern: str = "mixed",
        name: Optional[str] = None,
        params: Optional[dict] = None,
    ):
        if sign_pattern not in SIGN_PATTERNS:
            raise ValueError(f"unknown sign pattern {sign_pattern!r}")
        self._rule = rule
        self.sign_pattern = sign_pattern
        self.name = name
        self.params = dict(params or {})
        self._cache: list = []
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"GammaSeq({label}, sign_pattern={self.sign_pattern})"

    def _check_sign(self, k: int, value: Fraction) -> None:
        pattern = self.sign_pattern
        if pattern == "mixed":
            return
        if pattern == "nonneg":
            ok = value >= 0
        elif pattern == "nonpos":
            ok = value <= 0
        elif pattern == "alternating-even-start":
            ok = (value >= 0) if k % 2 == 0 else (value <= 0)
        else:  # alternating-odd-start
            ok = (value <= 0) if k % 2 == 0 else (value >= 0)
        if not ok:
            raise ValueError(
                f"sequence {self.name or '<anonymous>'} declared {pattern} "
                f"but gamma_{k} = {value}"
            )

    def __getitem__(self, k: int) -> Fraction:
        if not isinstance(k, int) or k < 0:
            raise IndexError("sequence index must be a nonnegative integer")
        with self._lock:
            while len(self._cache) <= k:
                i = len(self._cache)
                value = rat(self._rule(i))
                self._check_sign(i, value)
                self._cache.append(value)
            return self._cache[k]

    def values(self, n: int) -> list:
        return [self[k] for k in range(n + 1)]

    def shifted(self, p: int) -> "GammaSeq":
        """The sequence k -> gamma_(k+p)."""
        if p < 0:
            raise ValueError("shift must be nonnegative")
        if p == 0:
            return self
        pattern = self.sign_pattern
        if pattern in ("alternating-even-start", "alternating-odd-start") and p % 2 == 1:
            pattern = (
                "alternating-odd-start"
                if pattern == "alternating-even-start"
                else "alternating-even-start"
            )
        name = f"{self.name}+{p}" if self.name else None
        return GammaSeq(lambda k: self[k + p], sign_pattern=pattern, name=name)

    def nonneg_representative(self) -> "GammaSeq":
        """The sign-normalized companion sequence.

        The four sign patterns other than "mixed" are equivalent for
        multiplier-sequence purposes: negating the sequence or twisting it by
        (-1)^k changes nothing about which polynomials it maps to real-rooted
        polynomials.  This returns the nonnegative representative; mixed
        sequences have none and raise.
        """
        pattern = self.sign_pattern
        if pattern == "nonneg":
            return self
        if pattern == "nonpos":
            return GammaSeq(lambda k: -self[k], "nonneg", name=self.name)
        if pattern == "alternating-even-start":
            return GammaSeq(lambda k: (-1) ** k * self[k], "nonneg", name=self.name)
        if pattern == "alternating-odd-start":
            return GammaSeq(lambda k: (-1) ** (k + 1) * self[k], "nonneg", name=self.name)
        raise ValueError("a mixed-sign sequence has no nonnegative representative")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_lpplus(cls, spec: LPPlusSpec, name: Optional[str] = None) -> "GammaSeq":
        label = name or (spec.name if isinstance(spec, SeriesSpec) else "factored")
        return cls(lambda k: taylor_gamma(spec, k), "nonneg", name=label)

    @classmethod
    def from_values(cls, values, tail_zero: bool = True, name=None) -> "GammaSeq":
        vals = tuple(rat(v) for v in values)

        def rule(k: int) -> Fraction:
            if k < len(vals):
                return vals[k]
            if tail_zero:
                return Fraction(0)
            raise IndexError(f"sequence {name or '<list>'} is only defined up to {len(vals) - 1}")

        return cls(rule, "mixed", name=name or "explicit-list", params={"length": len(vals)})

    @classmethod
    def constant(cls, c: RatLike = 1) -> "GammaSeq":
        value = rat(c)
        pattern = "nonneg" if value >= 0 else "nonpos"
        return cls(lambda k: value, pattern, name=f"const({value})", params={"c": value})

    @classmethod
    def linear(cls, a: RatLike) -> "GammaSeq":
        a = rat(a)
        pattern = "nonneg" if a >= 0 else "mixed"
        return cls(lambda k: k + a, pattern, name=f"linear({a})", params={"a": a})

    @classmethod
    def geometric_factorial(cls, r: RatLike) -> "GammaSeq":
        """gamma_k = r^k / k!."""
        r = rat(r)
        pattern = "nonneg" if r >= 0 else "alternating-even-start"
        return cls(
            lambda k: r**k / math.factorial(k),
            pattern,
            name=f"geom-factorial({r})",
            params={"r": r},
        )


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


def finite_difference(seq: GammaSeq, k: int, p: int = 0) -> Fraction:
    """The k-th forward difference of the sequence at offset p, as a binomial sum.

    An O(k) oracle for single entries; the package itself reads differences
    from `DifferenceTable`.
    """
    if k < 0 or p < 0:
        raise ValueError("indices must be nonnegative")
    total = Fraction(0)
    for n in range(k + 1):
        term = math.comb(k, n) * seq[n + p]
        total += term if (k - n) % 2 == 0 else -term
    return total


class DifferenceTable:
    """The forward differences d_(k,p) for k = 0..k_max at one offset p.

    gamma_p..gamma_(p+k_max) are read once and scaled to integers over their
    least common denominator `den`; row 0 is those integers and row k+1 the
    adjacent differences of row k, so `heads[k]` (the first entry of row k)
    is d_(k,p) * den.  Indexing gives d_(k,p) as a Fraction.
    """

    __slots__ = ("heads", "den")

    def __init__(self, seq: GammaSeq, k_max: int, p: int = 0):
        if k_max < 0 or p < 0:
            raise ValueError("indices must be nonnegative")
        gammas = [seq[p + i] for i in range(k_max + 1)]
        den = math.lcm(*(g.denominator for g in gammas))
        row = [g.numerator * (den // g.denominator) for g in gammas]
        heads = []
        while row:
            heads.append(row[0])
            row = list(map(operator.sub, row[1:], row))
        self.heads = heads
        self.den = den

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.heads[k], self.den)

    def ratio(self, k: int) -> Optional[Fraction]:
        """d_k / d_(k-1) for 1 <= k <= k_max, or None when d_(k-1) = 0.

        The common denominator cancels, so the ratio comes straight from the
        two integer heads.
        """
        prev = self.heads[k - 1]
        return None if prev == 0 else Fraction(self.heads[k], prev)

    def turan(self, k: int) -> Fraction:
        """d_k^2 + 2*d_k*d_(k-1) for 1 <= k <= k_max."""
        dk = self[k]
        return dk * dk + 2 * dk * self[k - 1]


def turan_quantity(seq: GammaSeq, k: int, p: int = 0) -> Fraction:
    """d_k^2 + 2*d_k*d_{k-1} for the differences d_j = d_(j,p).

    Nonnegativity of this expression is a necessary consequence of the
    real-rootedness of the k-th operator coefficient, so a negative value is
    a certificate of non-reality.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return DifferenceTable(seq, k, p).turan(k)


def ratio_sequence(seq: GammaSeq, k_max: int, p: int = 0) -> list:
    """Successive difference ratios [(k, d_k/d_{k-1}) for k = 1..k_max].

    The entry at k is None when d_{k-1} = 0 (the ratio is undefined there);
    downstream consumers skip undefined entries.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    table = DifferenceTable(seq, k_max, p)
    return [(k, table.ratio(k)) for k in range(1, k_max + 1)]


def ratio_csv_lines(rows: list) -> list:
    """Render ratio rows as CSV lines `k,num,den,approx`.

    `approx` is a 12-significant-digit decimal for display only; undefined
    entries render as `k,,,NA`.  Numerators and denominators are written in
    full at any size.
    """
    lines = ["k,num,den,approx"]
    for k, value in rows:
        if value is None:
            lines.append(f"{k},,,NA")
        else:
            lines.append(f"{k},{int_str(value.numerator)},{int_str(value.denominator)},{float(value):.12g}")
    return lines


def histogram_bins(values: list, bins: int) -> list:
    """Equal-width exact binning of rational values.

    Returns [(lo, hi, count)] with `bins` rows spanning [min, max]; interior
    bins are half-open on the right and the final bin is closed so every
    value lands exactly once.  Empty input gives an empty list.
    """
    if bins < 1:
        raise ValueError("bin count must be positive")
    if not values:
        return []
    lo = min(values)
    hi = max(values)
    if lo == hi:
        rows = [(lo, hi, len(values))]
        rows.extend((lo, hi, 0) for _ in range(bins - 1))
        return rows
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        idx = int((v - lo) / width)
        if idx >= bins:
            idx = bins - 1
        counts[idx] += 1
    return [(lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)]


# -- identity checks ---------------------------------------------------------


def check_difference_reconstruction(seq: GammaSeq, n_max: int) -> CheckReport:
    """gamma_n = sum_k C(n,k) * d_k with d_k the k-th difference at 0.

    This is the binomial (Newton-series) inversion of the finite-difference
    transform; it must hold exactly for every sequence.
    """
    failures = []
    table = DifferenceTable(seq, n_max)
    diffs = [table[k] for k in range(n_max + 1)]
    for n in range(n_max + 1):
        total = sum(math.comb(n, k) * diffs[k] for k in range(n + 1))
        if total != seq[n]:
            failures.append(f"reconstruction fails at n={n}: {total} != {seq[n]}")
    return CheckReport(f"difference-reconstruction[{seq.name}]", n_max + 1, tuple(failures))


def check_shift_recurrence(seq: GammaSeq, k_max: int, p_max: int) -> CheckReport:
    """d_{k,p} + d_{k+1,p} = d_{k,p+1} for 2 <= k <= k_max, 0 <= p <= p_max."""
    failures = []
    checked = 0
    tables = [DifferenceTable(seq, k_max + 1, p) for p in range(p_max + 2)]
    for p in range(p_max + 1):
        for k in range(2, k_max + 1):
            checked += 1
            lhs = tables[p][k] + tables[p][k + 1]
            rhs = tables[p + 1][k]
            if lhs != rhs:
                failures.append(f"shift recurrence fails at k={k}, p={p}: {lhs} != {rhs}")
    return CheckReport(f"shift-recurrence[{seq.name}]", checked, tuple(failures))


def check_sum_interchange(n: int, j: int, table: dict) -> CheckReport:
    """Exchange of a triangular double summation.

    For 0 <= j <= n//2 and any table of values a[k, i]:

        sum_{k=2j}^{n} sum_{i=0}^{min(k-2j, n-k)} a[k,i]
      = sum_{i=0}^{n//2 - j} sum_{k=i+2j}^{n-i} a[k,i].

    Both sides enumerate the same lattice points; this check evaluates both
    orders on the supplied table and compares exactly.
    """
    if j < 0 or j > n // 2:
        raise ValueError(f"need 0 <= j <= n//2, got j={j}, n={n}")
    left = Fraction(0)
    for k in range(2 * j, n + 1):
        for i in range(min(k - 2 * j, n - k) + 1):
            left += rat(table[(k, i)])
    right = Fraction(0)
    for i in range(n // 2 - j + 1):
        for k in range(i + 2 * j, n - i + 1):
            right += rat(table[(k, i)])
    failures = () if left == right else (f"sum interchange fails: {left} != {right}",)
    return CheckReport(f"sum-interchange[n={n},j={j}]", 1, failures, data={"value": left})
