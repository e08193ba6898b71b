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
numbers from one `DifferenceTable`.  A generator runs one integer recurrence
for its gammas and its differences: a factored one steps R -> t*R' + u*R
(`FactoredSpec._steps`, sigma = s/t), a series given by its ODE
(`GammaSeq.from_ode`: geom-factorial, besselJ0, exp-half-cosh) its
three-term recurrence (`ode_terms`).  Any other sequence gets row-by-row
differences of its gammas, the oracle for both with `finite_difference`.
"""

import decimal
import functools
import itertools
import math
import operator
import sys
import threading
from fractions import Fraction
from typing import Callable, Optional

from .ratpoly import RatLike, int_str, rat
from .reporting import CheckReport, Record


class FactoredSpec(Record):
    """Factored form c * x^m * e^(sigma*x) * prod(1 + x/x_k) = e^(sigma*x) * R/den, R the
    integer polynomial `_ints`: its gammas, p-shift and differences all come from `_steps`."""

    __slots__ = ("c", "m", "sigma", "zeros", "_ints", "_den")

    def __init__(self, c: RatLike = Fraction(1), m: int = 0, sigma: RatLike = Fraction(0), zeros: tuple = ()):
        super().__init__(rat(c), m, rat(sigma), tuple(rat(z) for z in zeros))
        if self.c <= 0:
            raise ValueError("leading constant c must be positive")
        if self.m < 0:
            raise ValueError("zero multiplicity m must be nonnegative")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if any(z <= 0 for z in self.zeros):
            raise ValueError("all x_k must be positive")
        prod = [1]  # prod_k (n_k + d_k*x) for x_k = n_k/d_k, over prod_k n_k
        for n, d in ((z.numerator, z.denominator) for z in self.zeros):
            prod = [n * a + d * b for a, b in zip(prod + [0], [0] + prod)]
        self._ints = (0,) * self.m + tuple(self.c.numerator * a for a in prod)
        self._den = self.c.denominator * math.prod(z.numerator for z in self.zeros)

    def difference_heads(self, k_max: int, p: int) -> tuple:
        """(nums, factors) with d_(k,p) = nums[k]/(factors[0] * ... * factors[k]) for
        k = 0..k_max, reading no gamma: e^(-x) * phi^(p) = e^((s-t)*x/t) * R_p/(den * t^p),
        R_p = (t*D + s)^p R, so d_(k,p) = ((t*D + s - t)^k R_p)(0)/(den * t^p * t^k)."""
        s, t = self.sigma.numerator, self.sigma.denominator
        shifted = next(itertools.islice(self._steps(self._ints[: k_max + p + 1], s, k_max + p), p, None))
        nums = [ints[0] for ints in itertools.islice(self._steps(shifted, s - t, k_max), k_max + 1)]
        return nums, [self._den * t**p] + [t] * k_max

    def _steps(self, ints, u: int, last: Optional[int] = None):
        """R = ints, then t*R' + u*R of the previous R (sigma = s/t): the k-th is
        (t*D + u)^k R, whose value at 0, t^k * k! * [x^k] e^(u*x/t) * R, reads ints[0..k]
        only.  This is the D-finite recurrence of e^(u*x/t) * R (Stanley, 1980); u = s
        gives the p-shift and the gammas, u = s - t the differences.  Given the `last`
        step whose value at 0 is read, the k-th keeps only [0..last-k]: a triangle."""
        t = self.sigma.denominator
        for k in itertools.count():
            yield ints
            tail = ints[1:] if last is not None and len(ints) > last - k else [*ints[1:], 0]
            ints = [u * a + t * j * b for j, (a, b) in enumerate(zip(ints, tail), 1)]


def taylor_gamma(phi: FactoredSpec, k: int) -> Fraction:
    """gamma_k = k! * [x^k] of c * x^m * e^(sigma*x) * prod(1 + x/x_k), exactly:
    ((t*D + s)^k R)(0)/(den * t^k) from k steps of `FactoredSpec._steps` on
    R[0..k], O(k * min(k, deg R)) integer products per call.  Nothing in the
    package calls it: `GammaSeq.from_lpplus` reads the same steps in order."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    s, t = phi.sigma.numerator, phi.sigma.denominator
    head = next(itertools.islice(phi._steps(phi._ints[: k + 1], s, k), k, None))[0]
    return Fraction(head, phi._den * t**k)


def ode_step(ode: tuple) -> Callable[[int], tuple]:
    """`ode_terms`' step for u_k = k! * [x^k] y, y a solution of
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


def ode_terms(step: Callable[[int], tuple]):
    """(e_k, D_k) for k = 0, 1, ..., for ever: e_0 = D_0 = 1,
    e_(k+1) = a_k e_k + b_k e_(k-1) (so e_1 = a_0) and D_(k+1) = c_k D_k for
    step(k) = (a_k, b_k, c_k), integers with c_k > 0."""
    prev, e, d = 0, 1, 1
    for k in itertools.count():
        yield e, d
        a, b, c = step(k)
        prev, e, d = e, a * e + b * prev, c * d


def recurrence_heads(step: Callable[[int], tuple], k_max: int, p: int) -> tuple:
    """(nums, factors) with d_(k,p) = nums[k]/D_(k+p), d_k = e_k/D_k the `ode_terms` of step,
    D_(k+p) = factors[0] * ... * factors[k] = D_p * c_p * ... * c_(k+p-1).  Each of the p
    passes d_(k,q+1) = d_(k,q) + d_(k+1,q) is nums[k] * c_(k+q) + nums[k+1] over D_(k+q+1)."""
    n = k_max + p
    nums = [e for e, _ in itertools.islice(ode_terms(step), n + 1)]
    c = [step(k)[2] for k in range(n)]
    for q in range(p):
        nums = [a * c[k + q] + b for k, (a, b) in enumerate(zip(nums, nums[1:]))]
    return nums, [math.prod(c[:p])] + c[p:]


class GammaSeq:
    """A lazily evaluated, memoized sequence of exact rationals: the rule is called
    under the lock, once per k, for k = 0, 1, 2, ... in order.  `differences`, if
    given, maps (k_max, p) to `DifferenceTable`'s (nums, factors) directly."""

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
        """gamma_k = ((t*D + s)^k R)(0)/(den * t^k), stepping R once per k."""
        s, t = spec.sigma.numerator, spec.sigma.denominator
        steps = spec._steps(spec._ints, s)
        return cls(
            lambda k: Fraction(next(steps)[0], spec._den * t**k), name=name or "factored", differences=spec.difference_heads
        )

    @classmethod
    def from_values(cls, values, name=None) -> "GammaSeq":
        """The listed values, then zeros."""
        vals = tuple(rat(v) for v in values)
        return cls(lambda k: vals[k] if k < len(vals) else Fraction(0), name=name or "explicit-list")

    @classmethod
    def linear(cls, a: RatLike) -> "GammaSeq":
        """gamma_k = k + a; `params["a"]` keeps a for `is_classical_ms`."""
        a = rat(a)
        return cls(lambda k: k + a, name=f"linear({a})", params={"a": a})

    @classmethod
    def from_ode(cls, ode: tuple, name: str) -> "GammaSeq":
        """gamma_k = k! * [x^k] phi for the solution phi(0) = 1 of `ode` (as in
        `ode_step`): gamma_k = e_k/D_k from `ode_terms` of its step, read once
        per k in order, and the differences from `recurrence_heads` on the
        step of e^(-x) * phi."""
        terms = ode_terms(ode_step(ode))
        differences = functools.partial(recurrence_heads, ode_step(exp_shift_ode(ode)))
        return cls(lambda k: Fraction(*next(terms)), name, differences=differences)

    @classmethod
    def geometric_factorial(cls, r: RatLike) -> "GammaSeq":
        """gamma_k = r^k / k!: with r = a/b, phi = sum r^k x^k / k!^2 solves
        b*x*phi'' + b*phi' - a*phi = 0."""
        r = rat(r)
        a, b = r.numerator, r.denominator
        return cls.from_ode((b, (b, 0), (-a, 0)), name=f"geom-factorial({r})")


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

    d_(k,p) = nums[k] / (factors[0] * ... * factors[k]): integer numerators over a
    running product of positive step factors.  A sequence's `differences` route
    (factored generators, geom-factorial, besselJ0, exp-half-cosh) supplies both.
    Otherwise gamma_p..gamma_(p+k_max) are scaled to integers over their lcm, the
    first factor: row 0 is those integers, row k+1 the adjacent differences of row
    k, nums[k] heads row k and every later factor is 1.  `heads` and `den`, with
    d_(k,p) = heads[k]/den, are built from these on first use and kept.
    """

    __slots__ = ("nums", "factors", "heads", "den")

    def __init__(self, seq: GammaSeq, k_max: int, p: int = 0):
        if k_max < 0 or p < 0:
            raise ValueError("indices must be nonnegative")
        if seq.differences is not None:
            self.nums, self.factors = seq.differences(k_max, p)
            return
        gammas = [seq[p + i] for i in range(k_max + 1)]
        den = math.lcm(*(g.denominator for g in gammas))
        row = [g.numerator * (den // g.denominator) for g in gammas]
        nums = []
        while row:
            nums.append(row[0])
            row = list(map(operator.sub, row[1:], row))
        self.nums = nums
        self.factors = [den] + [1] * k_max

    def __getattr__(self, name: str):
        """`heads` and `den` when first read: heads[k] = nums[k] * factors[k+1] * ... *
        factors[k_max] from one backward pass, over den = the product of every factor."""
        if name not in ("heads", "den"):
            raise AttributeError(name)
        *scales, self.den = itertools.accumulate(reversed(self.factors), operator.mul, initial=1)
        self.heads = list(map(operator.mul, self.nums, reversed(scales)))
        return getattr(self, name)

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self.heads[k], self.den)

    def ratio(self, k: int) -> Optional[Fraction]:
        """d_k / d_(k-1) for 1 <= k <= k_max, or None when d_(k-1) = 0.

        The running product up to k - 1 cancels, so the ratio comes from the two
        numerators and the one step factor between them.
        """
        prev = self.nums[k - 1]
        return None if prev == 0 else Fraction(self.nums[k], prev * self.factors[k])

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
    num, den = value.numerator, value.denominator
    try:
        x = num / den  # what float(value) computes
    except OverflowError:
        x = 0.0
    if abs(x) >= sys.float_info.min or not num:
        return f"{x:.12g}"
    ctx = decimal.Context(prec=12, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return f"{ctx.divide(num, den).normalize(ctx):.12g}"


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
    try:  # n/d rounds correctly, so it is monotone in v: only equal floats need an exact comparison
        keys = [v.numerator / v.denominator for v in values]
    except OverflowError:  # a value beyond the float range
        keys = values
    (_, lo), (_, hi) = min(zip(keys, values)), max(zip(keys, values))
    if lo == hi:
        return [(lo, hi, len(values))] + [(lo, hi, 0)] * (bins - 1)
    span = hi - lo
    ln, ld = lo.numerator, lo.denominator
    mul, div = bins * span.denominator, span.numerator * ld
    counts = [0] * bins
    for v in values:
        idx = (v.numerator * ld - ln * v.denominator) * mul // (v.denominator * div)
        counts[min(idx, bins - 1)] += 1
    edges = [Fraction(ln * mul + i * div, ld * mul) for i in range(bins + 1)]  # lo + i*span/bins
    return [(edges[i], edges[i + 1], counts[i]) for i in range(bins)]


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
