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
(`FactoredSpec._steps`, sigma = s/t), an ODE series (`GammaSeq.from_ode`)
the recurrence of its ODE (`ode_terms`) and, for d_(k,p), of the ODE of
e^(-x) * phi^(p) (`difference_ode`).  Any other sequence gets row-by-row
differences of its gammas, the oracle for both with `finite_difference`.
"""

import bisect
import collections
import decimal
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
    """gamma_k = k! * [x^k] of c * x^m * e^(sigma*x) * prod(1 + x/x_k), exactly: entry k of
    `GammaSeq.from_lpplus(phi)`.  Nothing in the package calls it."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return GammaSeq.from_lpplus(phi)[k]


def difference_ode(ode: tuple, p: int) -> tuple:
    """The ODE of e^(-x) * y^(p), y a solution of `ode` (pairs as in `ode_terms`): p derivatives
    put (a_i + p*b_(i+1), b_i) on y^(p+i), and p*b_0 on y^(p-1); if that is not 0, p + 1 put
    (a_(i-1) + (p+1)*b_i, b_(i-1)) on y^(p+i-1), one order more.  y^(p) = e^x * w then turns
    sum_i P_i * D^i into sum_i P_i * (D + 1)^i, by Horner's rule (D-finite closure, Stanley 1980)."""
    if p * ode[0][1]:
        ode, p = ((0, 0), *ode), p + 1
    shifted = [(a + p * b1, b) for (a, b), (_, b1) in zip(ode, (*ode[1:], (0, 0)))]
    w = []
    for pair in reversed(shifted):  # w * (D + 1) + pair
        w = [(a0 + a1, b0 + b1) for (a0, b0), (a1, b1) in zip([pair, *w], [*w, (0, 0)])]
    return tuple(w)


def ode_terms(ode: tuple, nums: list, factors: list):
    """(num_n, factor_n) for ever, u_n = num_n/(factor_0 * ... * factor_n) = n! * [x^n] y, y solving
    sum_i (a_i + b_i*x) * y^(i) = 0 for ode = ((a_0, b_0), ..., (a_r, b_r)), a_r = 0: the r - 1 given, then
    c_k * u_(k+r-1) = -sum_(j=-1..r-2) (a_j + k*b_(j+1)) * u_(k+j), a_(-1) = 0, c_k = a_(r-1) + k*b_r > 0."""
    a, b = zip(*ode)
    coefs = list(zip((0, *a[:-2]), b[:-1]))  # (a_j, b_(j+1)) for j = -1..r-2
    window = collections.deque([(0, 1), *zip(nums, factors)], maxlen=len(coefs))  # terms k-1 .. k+r-2, u_(-1) = 0
    yield from zip(nums, factors)
    for k, c in enumerate(itertools.count(a[-2], b[-1])):
        acc = 0
        for (a_j, b_j), (num, factor) in zip(coefs, window):
            acc = acc * factor + (a_j + k * b_j) * num
        window.append((-acc, c))
        yield window[-1]


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
        """gamma_k = k! * [x^k] phi, phi(0) = 1, for q2*x*phi'' + (r0 + r1*x)*phi' + (s0 + s1*x)*phi = 0,
        ode = (q2, (r0, r1), (s0, s1)): its `ode_terms`, read once per k in order.  d_(k,p) are those of
        `difference_ode`, from gamma_p (and gamma_(p+1) - gamma_p at order 3) over the factors [D_p, c_p]."""
        pairs = (ode[2], ode[1], (0, ode[0]))
        terms, dens = itertools.tee(ode_terms(pairs, [1], [1]))
        gammas = map(Fraction, (num for num, _ in terms), itertools.accumulate((f for _, f in dens), operator.mul))

        def differences(k_max: int, p: int) -> list:
            e, c = zip(*itertools.islice(ode_terms(pairs, [1], [1]), p + 2))
            shifted = difference_ode(pairs, p)
            given = len(shifted) - 2
            start = [e[p], e[p + 1] - c[p + 1] * e[p]][:given], [math.prod(c[: p + 1]), c[p + 1]][:given]
            return list(map(list, zip(*itertools.islice(ode_terms(shifted, *start), k_max + 1))))

        return cls(lambda k: next(gammas), name, differences=differences)

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
    running product of positive step factors, the one form every reader uses.  A
    sequence's `differences` route (factored generators, geom-factorial, besselJ0,
    exp-half-cosh) supplies both.  Otherwise gamma_p..gamma_(p+k_max) are scaled to
    integers over their lcm, the first factor: row 0 is those integers, row k+1 the
    adjacent differences of row k, nums[k] heads row k and every later factor is 1.
    """

    __slots__ = ("nums", "factors")

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

    def _check(self, k: int, low: int) -> None:
        if not low <= k < len(self.nums):
            raise IndexError(f"difference index {k} is outside {low}..{len(self.nums) - 1}")

    def __getitem__(self, k: int) -> Fraction:
        self._check(k, 0)
        return Fraction(self.nums[k], math.prod(self.factors[: k + 1]))

    def ratio(self, k: int) -> Optional[Fraction]:
        """d_k / d_(k-1) for 1 <= k <= k_max, or None when d_(k-1) = 0.

        The running product up to k - 1 cancels, so the ratio comes from the two
        numerators and the one step factor between them.
        """
        self._check(k, 1)
        prev = self.nums[k - 1]
        return None if prev == 0 else Fraction(self.nums[k], prev * self.factors[k])

    def turan(self, k: int) -> Fraction:
        """d_k^2 + 2*d_k*d_(k-1) for 1 <= k <= k_max: with d_(k-1) = nums[k-1] *
        factors[k] / D_k, it is nums[k] * (nums[k] + 2*factors[k]*nums[k-1]) / D_k^2."""
        self._check(k, 1)
        num = self.nums[k]
        return Fraction(num * (num + 2 * self.factors[k] * self.nums[k - 1]), math.prod(self.factors[: k + 1]) ** 2)


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


def ratio_csv_lines(rows: list):
    """Yield the header, then each ratio row, as CSV lines `k,num,den,approx`.

    `approx` is a 12-significant-digit decimal (`approx_str`) for display
    only; undefined entries render as `k,,,NA`.  Numerators and denominators
    are written in full at any size.
    """
    yield "k,num,den,approx"
    for k, value in rows:
        if value is None:
            yield f"{k},,,NA"
        else:
            yield f"{k},{int_str(value.numerator)},{int_str(value.denominator)},{approx_str(value)}"


def histogram_bins(values: list, bins: int) -> list:
    """Equal-width exact binning of rational values.

    Returns [(lo, hi, count)] with `bins` rows spanning [min, max]; interior
    bins are half-open on the right and the final bin is closed so every
    value lands exactly once.  Empty input gives an empty list.  One sort of
    (float, value) pairs gives the bounds and the order; a bin counts the
    values between the bisections of that order at its two edges.
    """
    if bins < 1:
        raise ValueError("bin count must be positive")
    if not values:
        return []
    try:  # n/d rounds correctly, so it is monotone in v: only equal floats compare Fractions
        key = lambda v: v.numerator / v.denominator
        order = sorted((key(v), v) for v in values)
    except OverflowError:  # a value beyond the float range; edges lie in [lo, hi], so only then
        key = lambda v: v
        order = sorted((v, v) for v in values)
    lo, hi = order[0][1], order[-1][1]
    if lo == hi:
        return [(lo, hi, len(values))] + [(lo, hi, 0)] * (bins - 1)
    step = (hi - lo) / bins
    edges = [lo + step * i for i in range(bins + 1)]  # exact; each sum reduces by a gcd of denominators
    below = [0] + [bisect.bisect_left(order, (key(e), e)) for e in edges[1:-1]] + [len(values)]
    return [(edges[i], edges[i + 1], below[i + 1] - below[i]) for i in range(bins)]


# -- identity checks ---------------------------------------------------------


def check_difference_reconstruction(seq: GammaSeq, n_max: int) -> CheckReport:
    """gamma_n = sum_k C(n,k) * d_k with d_k the k-th difference at 0.

    This is the binomial (Newton-series) inversion of the finite-difference
    transform; it must hold exactly for every sequence.
    """
    table = DifferenceTable(seq, n_max)
    diffs = [table[k] for k in range(n_max + 1)]
    totals = [sum(math.comb(n, k) * diffs[k] for k in range(n + 1)) for n in range(n_max + 1)]
    outcomes = (
        None if total == seq[n] else f"reconstruction fails at n={n}: {total} != {seq[n]}"
        for n, total in enumerate(totals)
    )
    return CheckReport.tally(f"difference-reconstruction[{seq.name}]", outcomes)


def check_shift_recurrence(seq: GammaSeq, k_max: int, p_max: int) -> CheckReport:
    """d_{k,p} + d_{k+1,p} = d_{k,p+1} for 2 <= k <= k_max, 0 <= p <= p_max."""
    tables = [DifferenceTable(seq, k_max + 1, p) for p in range(p_max + 2)]

    def outcomes():
        for p in range(p_max + 1):
            for k in range(2, k_max + 1):
                lhs = tables[p][k] + tables[p][k + 1]
                rhs = tables[p + 1][k]
                yield None if lhs == rhs else f"shift recurrence fails at k={k}, p={p}: {lhs} != {rhs}"

    return CheckReport.tally(f"shift-recurrence[{seq.name}]", outcomes())


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
    outcome = None if left == right else f"sum interchange fails: {left} != {right}"
    return CheckReport.tally(f"sum-interchange[n={n},j={j}]", [outcome])
