"""Eigenvalue sequences, their generating functions, and finite differences.

A sequence (gamma_k) of exact rationals is wrapped in `GammaSeq`.  Sequences
can come from a closed-form rule, an explicit list, or a `FactoredSpec`
describing a function

    phi(x) = c * x^m * e^(sigma*x) * prod_k (1 + x/x_k),   c > 0, sigma >= 0,
                                                           x_k > 0,

in which case gamma_k = k! * [x^k] phi.  Functions of this form are entire
with only real nonpositive zeros, and `FactoredSpec` is the package's one
certificate of that.  A sequence known only by its rule (the named series in
`sequences`, an explicit list) is a plain `GammaSeq` and carries none.

The quantity driving everything downstream is the k-th forward finite
difference of the sequence taken at offset p,

    d_(k,p) = sum_n C(k,n) * gamma_(n+p) * (-1)^(k-n),

which equals the reversed Jensen polynomial of the p-shifted sequence
evaluated at -1, and also equals k! * [x^k] (e^(-x) * phi_p(x)) where phi_p
generates the shifted sequence.  Every consumer in the package reads these
numbers from one `DifferenceTable`.  A factored generator fills it in
closed form (e^(-x) * phi^(p) has the factored shape with sigma - 1 for
sigma), a series given by its ODE (`GammaSeq.from_ode`: geom-factorial,
besselJ0, exp-half-cosh) by the recurrence of the ODE of e^(-x) * phi; any
other sequence by row-by-row differences of its gammas, which with
`finite_difference` (the binomial sum) is the oracle for both.
"""

import decimal
import functools
import math
import operator
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .ratpoly import RatLike, RatPoly, int_str, rat, rat_str
from .reporting import CheckReport


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
        prod = [1]  # prod_k (n_k + d_k*x) for x_k = n_k/d_k, over prod_k n_k
        for z in self.zeros:
            prod = [z.numerator * a + z.denominator * b for a, b in zip(prod + [0], [0] + prod)]
        ints = (0,) * self.m + tuple(self.c.numerator * a for a in prod)
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", self.c.denominator * math.prod(z.numerator for z in self.zeros))

    def difference_heads(self, k_max: int, p: int) -> tuple:
        """(heads, den) with d_(k,p) = heads[k]/den for k = 0..k_max, in closed form.

        phi^(p) = e^(sigma*x) * R, R = (D + sigma)^p (c * x^m * prod(1 + x/x_k)),
        so e^(-x) * phi^(p) = e^((sigma-1)*x) * R and no gamma is read.  With
        sigma = s/t each D + sigma is t*R' + s*R on integers.
        """
        s, t = self.sigma.numerator, self.sigma.denominator
        ints = list(self._ints)
        for _ in range(p):
            ints = [s * a + t * (j + 1) * b for j, (a, b) in enumerate(zip(ints, ints[1:] + [0]))]
        heads = [_exp_poly_head(ints, s - t, t, k) * t ** (k_max - k) for k in range(k_max + 1)]
        return heads, self._den * t ** (p + k_max)

    def to_json_dict(self) -> dict:
        return {
            "c": rat_str(self.c),
            "m": self.m,
            "sigma": rat_str(self.sigma),
            "zeros": [rat_str(z) for z in self.zeros],
        }


def _exp_poly_head(ints: list, u: int, t: int, k: int) -> int:
    """t^k * k! * [x^k] e^(u*x/t) * sum_j ints[j] * x^j, an integer:
    sum_(j <= J) ints[j] * k!/(k-j)! * u^(k-j) * t^j with J = min(k, deg)."""
    top = min(k, len(ints) - 1)
    total = 0
    falling = 1  # k!/(k-j)!
    for j in range(top + 1):
        total += ints[j] * falling * u ** (top - j) * t**j
        falling *= k - j
    return total * u ** (k - top)


def taylor_gamma(phi: FactoredSpec, k: int) -> Fraction:
    """gamma_k = k! * [x^k] of c * x^m * e^(sigma*x) * prod(1 + x/x_k), exactly:
    `FactoredSpec.difference_heads`' closed form with sigma for sigma - 1, p = 0."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    s, t = phi.sigma.numerator, phi.sigma.denominator
    return Fraction(_exp_poly_head(phi._ints, s, t, k), phi._den * t**k)


def ode_step(ode: tuple) -> Callable[[int], tuple]:
    """`recurrence_heads`' step for u_k = k! * [x^k] y, y a solution of
    q2*x*y'' + (r0 + r1*x)*y' + (s0 + s1*x)*y = 0, ode = (q2, (r0, r1), (s0, s1)):
    k derivatives at 0 give c_k u_(k+1) = -(k*r1 + s0) u_k - k*s1 u_(k-1) with
    c_k = k*q2 + r0, so e_k = u_k * D_k has b_k = -k*s1 * c_(k-1)."""
    q2, (r0, r1), (s0, s1) = ode
    return lambda k: (-(k * r1 + s0), -k * s1 * ((k - 1) * q2 + r0), k * q2 + r0)


def exp_shift_ode(ode: tuple) -> tuple:
    """The ODE of e^(-x) * y: y = e^x * psi turns (P2, P1, P0) into
    (P2, 2*P2 + P1, P2 + P1 + P0), here with P2 = q2*x."""
    q2, (r0, r1), (s0, s1) = ode
    return q2, (r0, 2 * q2 + r1), (r0 + s0, q2 + r1 + s1)


def recurrence_heads(step: Callable[[int], tuple], k_max: int, p: int) -> tuple:
    """(heads, den) with d_(k,p) = heads[k]/den, from a three-term recurrence.

    d_k = e_k / D_k, e_0 = D_0 = 1, e_(k+1) = a_k e_k + b_k e_(k-1) (so e_1 = a_0)
    and D_(k+1) = c_k D_k for step(k) = (a_k, b_k, c_k), integers with c_k > 0.
    d_(k,p) = sum_j C(p,j) d_(k+j,0) is summed as p adjacent-pair passes.
    """
    n = k_max + p
    es = [1, step(0)[0]]
    for k in range(1, n):
        a, b, _ = step(k)
        es.append(a * es[k] + b * es[k - 1])
    heads = [0] * (n + 1)
    scale = 1  # D_n / D_k
    for k in range(n, -1, -1):
        heads[k] = es[k] * scale
        if k:
            scale *= step(k - 1)[2]
    for _ in range(p):
        heads = list(map(operator.add, heads, heads[1:]))
    return heads, scale


class GammaSeq:
    """A lazily evaluated, memoized sequence of exact rationals: the rule is called
    under the lock, once per k, for k = 0, 1, 2, ... in order.  `differences`, if
    given, maps (k_max, p) to `DifferenceTable`'s (heads, den) directly."""

    def __init__(
        self,
        rule: Callable[[int], Fraction],
        name: Optional[str] = None,
        params: Optional[dict] = None,
        differences: Optional[Callable[[int, int], tuple]] = None,
    ):
        self._rule = rule
        self.name = name
        self.params = dict(params or {})
        self.differences = differences
        self._cache: list = []
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"GammaSeq({self.name or 'anonymous'})"

    def __getitem__(self, k: int) -> Fraction:
        if not isinstance(k, int) or k < 0:
            raise IndexError("sequence index must be a nonnegative integer")
        with self._lock:
            while len(self._cache) <= k:
                self._cache.append(rat(self._rule(len(self._cache))))
            return self._cache[k]

    def values(self, n: int) -> list:
        return [self[k] for k in range(n + 1)]

    def shifted(self, p: int) -> "GammaSeq":
        """The sequence k -> gamma_(k+p)."""
        if p < 0:
            raise ValueError("shift must be nonnegative")
        if p == 0:
            return self
        name = f"{self.name}+{p}" if self.name else None
        return GammaSeq(lambda k: self[k + p], name=name)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_lpplus(cls, spec: FactoredSpec, name: Optional[str] = None) -> "GammaSeq":
        return cls(lambda k: taylor_gamma(spec, k), name=name or "factored", differences=spec.difference_heads)

    @classmethod
    def from_values(cls, values, name=None) -> "GammaSeq":
        """The listed values, then zeros."""
        vals = tuple(rat(v) for v in values)
        return cls(lambda k: vals[k] if k < len(vals) else Fraction(0), name=name or "explicit-list")

    @classmethod
    def constant(cls, c: RatLike = 1) -> "GammaSeq":
        value = rat(c)
        return cls(lambda k: value, name=f"const({value})")

    @classmethod
    def linear(cls, a: RatLike) -> "GammaSeq":
        """gamma_k = k + a; `params["a"]` keeps a for `is_classical_ms`."""
        a = rat(a)
        return cls(lambda k: k + a, name=f"linear({a})", params={"a": a})

    @classmethod
    def from_ode(cls, ode: tuple, name: str) -> "GammaSeq":
        """gamma_k = k! * [x^k] phi for the solution phi(0) = 1 of `ode` (as in
        `ode_step`): the gammas by its recurrence, the differences by that of
        e^(-x) * phi.  The rule keeps e_(k-1), e_k and D_k only."""
        step = ode_step(ode)
        state = [0, 1, 1]  # e_(k-1), e_k, D_k for the next k the rule is called with

        def rule(k: int) -> Fraction:
            prev, e, d = state
            a, b, c = step(k)
            state[:] = e, a * e + b * prev, c * d
            return Fraction(e, d)

        return cls(rule, name, differences=functools.partial(recurrence_heads, ode_step(exp_shift_ode(ode))))

    @classmethod
    def geometric_factorial(cls, r: RatLike) -> "GammaSeq":
        """gamma_k = r^k / k!: with r = a/b, phi = sum r^k x^k / k!^2 solves
        b*x*phi'' + b*phi' - a*phi = 0."""
        r = rat(r)
        a, b = r.numerator, r.denominator
        return cls.from_ode((b, (b, 0), (-a, 0)), name=f"geom-factorial({r})")


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

    `heads[k]` is d_(k,p) * den for a positive common denominator `den`, not
    necessarily the least; indexing gives d_(k,p) as a reduced Fraction.  A
    sequence's `differences` route (factored generators, geom-factorial,
    besselJ0, exp-half-cosh) supplies both.  Otherwise gamma_p..gamma_(p+k_max)
    are scaled to integers over their lcm: row 0 is those integers, row k+1
    the adjacent differences of row k, and heads[k] heads row k.
    """

    __slots__ = ("heads", "den")

    def __init__(self, seq: GammaSeq, k_max: int, p: int = 0):
        if k_max < 0 or p < 0:
            raise ValueError("indices must be nonnegative")
        if seq.differences is not None:
            self.heads, self.den = seq.differences(k_max, p)
            return
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


def approx_str(value: Fraction) -> str:
    """`value` to 12 significant digits, as ``f"{float(value):.12g}"`` renders it.

    Past the float range (a ratio of 400-digit integers, say) ``float``
    raises or loses digits, so there the exact value is rounded to 12
    digits in decimal.
    """
    try:
        x = float(value)
    except OverflowError:
        x = 0.0
    if abs(x) >= sys.float_info.min or not value:
        return f"{x:.12g}"
    ctx = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return f"{ctx.divide(value.numerator, value.denominator).normalize(ctx):.12g}"


def ratio_csv_lines(rows: list) -> list:
    """Render ratio rows as CSV lines `k,num,den,approx`.

    `approx` is a 12-significant-digit decimal (`approx_str`) for display
    only; undefined entries render as `k,,,NA`.  Numerators and denominators
    are written in full at any size.
    """
    lines = ["k,num,den,approx"]
    for k, value in rows:
        if value is None:
            lines.append(f"{k},,,NA")
        else:
            lines.append(f"{k},{int_str(value.numerator)},{int_str(value.denominator)},{approx_str(value)}")
    return lines


def histogram_bins(values: list, bins: int) -> list:
    """Equal-width exact binning of rational values.

    Returns [(lo, hi, count)] with `bins` rows spanning [min, max]; interior
    bins are half-open on the right and the final bin is closed so every
    value lands exactly once.  Empty input gives an empty list.  A value's
    bin is floor((v - lo) * bins / (hi - lo)), one integer floor division
    with the denominators cross-multiplied.
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
    span = hi - lo
    width = span / bins
    ln, ld = lo.numerator, lo.denominator
    mul, div = bins * span.denominator, span.numerator * ld
    counts = [0] * bins
    for v in values:
        idx = (v.numerator * ld - ln * v.denominator) * mul // (v.denominator * div)
        counts[min(idx, bins - 1)] += 1
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
