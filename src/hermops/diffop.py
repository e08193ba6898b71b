"""Hermite-diagonal differential operators and their coefficient polynomials.

For a parameter alpha >= 0 and an eigenvalue sequence (gamma_n), the operator
T = sum_k Q_k(x) D^k acts diagonally on the Hermite basis, T[H_n] =
gamma_n * H_n.  The coefficients admit the closed form

    Q_k(x) = sum_{j=0}^{floor(k/2)} (-alpha)^j / (j! (k-2j)!)
             * d_{k-j} * H_{k-2j}(x),

where d_i is the i-th finite difference of the sequence (taken at offset p
for the shifted variant).  Substituting the explicit coefficients of
H_{k-2j} and collecting x^(k-2m), with l = m - j the index inside H_{k-2j},
gives the monomial form that `build_operator` evaluates:

    Q_k(x) = sum_{m=0}^{floor(k/2)} (-alpha/2)^m / (m! (k-2m)!)
             * S_(k,m) * x^(k-2m),   S_(k,m) = sum_j C(m,j) 2^j d_{k-j}.

S_(k,0) = d_k and S_(k,m) = S_(k,m-1) + 2*S_(k-1,m-1), so Q_0..Q_K come
from the per-k numerators and step factors of one difference table, each row
on its own denominator, with no Hermite polynomials;
alpha enters only through the factor (-alpha/2)^m, which is the dilation
covariance Q_k^(c^2 alpha)(x) = c^k * Q_k^(alpha)(x/c).
`solve_operator_from_action` recovers the same coefficients with no
formula at all, by forward substitution from the diagonal action itself,
and serves as an independent oracle.  At alpha = 0 the basis degenerates to
x^n and the coefficients collapse to `standard_coefficient`.
"""

import math
from fractions import Fraction

from .hermite import hermite_polys, three_term, validate_alpha
from .jensen import DifferenceTable, GammaSeq
from .ratpoly import RatLike, RatPoly, combine_in_basis, rat
from .reporting import CheckReport, Record


class TruncationError(ValueError):
    """Raised when an operator is applied to a polynomial of higher degree

    than the operator's stored order; derivatives beyond the truncation
    would be silently dropped, so this is a hard error."""


class HermiteDiffOp(Record):
    """A truncated diagonal operator: alpha, offset p, and [Q_0, ..., Q_K]."""

    __slots__ = ("alpha", "p_shift", "qpolys")

    def __init__(self, alpha: RatLike, p_shift: int, qpolys: tuple):
        super().__init__(validate_alpha(alpha), p_shift, tuple(qpolys))
        if self.p_shift < 0:
            raise ValueError("p_shift must be nonnegative")
        if not self.qpolys:
            raise ValueError("an operator needs at least the order-zero coefficient")

    @property
    def order(self) -> int:
        return len(self.qpolys) - 1


def coefficient_polynomial(alpha: RatLike, seq: GammaSeq, k: int, p: int = 0) -> RatPoly:
    """The k-th coefficient polynomial Q_k for the (p-shifted) sequence."""
    return build_operator(alpha, seq, k, p).qpolys[k]


def standard_coefficient(seq: GammaSeq, k: int) -> RatPoly:
    """Coefficient of the operator diagonal on the monomial basis:
    T[x^n] = gamma_n x^n forces Q_k = d_k / k! * x^k."""
    return RatPoly([Fraction(0)] * k + [DifferenceTable(seq, k)[k] / math.factorial(k)])


def build_operator(alpha: RatLike, seq: GammaSeq, order: int, p: int = 0) -> HermiteDiffOp:
    """Materialize the operator truncated at the given order: Q_0..Q_order.

    With d_i = nums[i] / D_i from one `DifferenceTable`, D_i = factors[0] * ... *
    factors[i], and -alpha/2 = step_num / step_den, the x^(k-2m) coefficient of
    Q_k is step_num^m * S / (step_den^m * D_k * m! * (k-2m)!), where S = S_(k,m) * D_k
    is an integer: nums[k] at m = 0, and by the module's recurrence, since
    D_k = factors[k] * D_(k-1), S_(k,m-1) * D_k + 2 * factors[k] * S_(k-1,m-1) * D_(k-1).
    Q_k is built as integer numerators over step_den^(k//2) * D_k * k! and reduced once.
    """
    a = validate_alpha(alpha)
    table = DifferenceTable(seq, order, p)
    step_num, step_den = -a.numerator, 2 * a.denominator
    num_pow = [step_num**m for m in range(order // 2 + 1)]
    den_pow = [step_den**m for m in range(order // 2 + 1)]
    qpolys = []
    prev = []
    fact = den = 1
    for k, (head, factor) in enumerate(zip(table.nums, table.factors)):
        fact *= max(k, 1)
        den *= factor
        top = k // 2
        sums = [head]
        for m in range(1, top + 1):
            sums.append(sums[m - 1] + 2 * factor * prev[m - 1])
        num = [0] * (k + 1)
        ways = 1  # k! / (m! (k-2m)!)
        for m, s in enumerate(sums):
            if m:
                ways = ways * (k - 2 * m + 2) * (k - 2 * m + 1) // m
            num[k - 2 * m] = num_pow[m] * den_pow[top - m] * ways * s
        qpolys.append(RatPoly._reduced(num, den_pow[top] * den * fact))
        prev = sums
    return HermiteDiffOp(a, p, tuple(qpolys))


def apply_operator(op: HermiteDiffOp, f: RatPoly) -> RatPoly:
    """sum_k Q_k * f^(k); exact only when the truncation covers deg f."""
    if f.degree > op.order:
        raise TruncationError(
            f"operator of order {op.order} applied to degree {f.degree}; "
            f"higher derivatives would be dropped"
        )
    total = RatPoly()
    for k, q in enumerate(op.qpolys):
        if k > f.degree:
            break
        if not q.is_zero:
            total = total + q * f.derivative(k)
    return total


def solve_operator_from_action(alpha: RatLike, seq: GammaSeq, order: int) -> HermiteDiffOp:
    """Recover [Q_0..Q_order] from the diagonal action alone.

    Imposing T[H_n] = gamma_n H_n for n = 0..order and using
    D^k H_n = n!/(n-k)! * H_{n-k} gives a triangular system: the D^n term
    contributes Q_n * n!, so each Q_n is determined by forward substitution
    from the lower coefficients.  No finite-difference formula is involved,
    which makes this an independent oracle for `coefficient_polynomial`.
    """
    a = validate_alpha(alpha)
    polys = hermite_polys(order, a)
    qs = []
    for n in range(order + 1):
        rhs = seq[n] * polys[n]
        for k in range(n):
            falling = Fraction(math.factorial(n), math.factorial(n - k))
            rhs = rhs - falling * (qs[k] * polys[n - k])
        qs.append(rhs / math.factorial(n))
    return HermiteDiffOp(a, 0, tuple(qs))


def check_diagonal_action(alpha: RatLike, seq: GammaSeq, n_max: int) -> CheckReport:
    """Verify T[H_n] = gamma_n * H_n exactly for every n <= n_max."""
    a = validate_alpha(alpha)
    polys = hermite_polys(n_max, a)
    op = build_operator(a, seq, n_max)  # apply_operator stops at k = deg H_n

    def outcomes():
        for n, poly in enumerate(polys):
            lhs = apply_operator(op, poly)
            rhs = seq[n] * poly
            yield None if lhs == rhs else f"diagonal action fails at n={n}, alpha={a}: residual {(lhs - rhs).to_text()}"

    return CheckReport.tally(f"diagonal-action[{seq.name},alpha={a}]", outcomes())


def check_operator_equivalence(alpha: RatLike, seq: GammaSeq, order: int, p: int = 0) -> CheckReport:
    """Formula route vs. solved-from-action route, coefficient by coefficient.

    The shifted variant is covered by solving against the p-shifted sequence,
    since the offset-p coefficients are exactly the offset-0 coefficients of
    that sequence.
    """
    formula = build_operator(alpha, seq, order, p)
    solved = solve_operator_from_action(alpha, seq.shifted(p), order)
    outcomes = (
        None if q == r else f"routes disagree at k={k}, p={p}: formula {q.to_text()} vs solved {r.to_text()}"
        for k, (q, r) in enumerate(zip(formula.qpolys, solved.qpolys))
    )
    return CheckReport.tally(f"operator-equivalence[{seq.name},alpha={rat(alpha)},p={p}]", outcomes)


def _interpolant_degree(xs: list, ys: list) -> int:
    """Degree of the polynomial through the points (xs[i], ys[i]) with distinct xs; -1 on all-zero ys.

    The interpolant is sum_j f[x_0..x_j] * (x - x_0)...(x - x_(j-1)), so its
    degree is the index of the last nonzero Newton divided difference.
    """
    diffs = [Fraction(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    return max((j for j, d in enumerate(diffs) if d), default=-1)


def check_standard_basis_limit(seq: GammaSeq, k_max: int) -> CheckReport:
    """Degeneration to the monomial basis as alpha -> 0.

    Two assertions per k: (i) the coefficient at alpha = 0 equals the
    monomial-basis coefficient exactly; (ii) each x^i-coefficient of Q_k,
    viewed as a function of alpha, interpolates to a polynomial in alpha of
    degree at most floor(k/2).  The nodes are 0 together with dyadic samples
    1, 1/2, 1/4, ...; at least floor(k/2) + 2 nodes are used, so the degree
    bound is a genuine consistency check, not a fit.  One operator of order
    k_max is built per node, since Q_k does not depend on the truncation, and
    each alpha-degree is read off the samples' divided differences.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    node_count = max(5, k_max // 2 + 2)
    nodes = [Fraction(0)] + [Fraction(1, 2**j) for j in range(node_count - 1)]
    operators = [build_operator(node, seq, k_max).qpolys for node in nodes]

    def outcomes():
        for k in range(k_max + 1):
            if operators[0][k] != standard_coefficient(seq, k):
                yield f"alpha=0 coefficient mismatch at k={k}"
                continue
            yield None
            count = max(5, k // 2 + 2)
            samples = [qpolys[k] for qpolys in operators[:count]]
            top_degree = max(s.degree for s in samples)
            for i in range(top_degree + 1):
                degree = _interpolant_degree(nodes[:count], [s.coeff(i) for s in samples])
                yield None if degree <= k // 2 else f"coefficient of x^{i} in Q_{k} has alpha-degree {degree} > {k // 2}"

    return CheckReport.tally(f"standard-basis-limit[{seq.name}]", outcomes())


def interpolation_poly(op: HermiteDiffOp) -> RatPoly:
    """The polynomial p with p(n) = eigenvalue_n for finite-order operators.

    When every Q_k has degree at most k (so Q_k^(k) is a constant), the
    eigenvalues satisfy gamma_n = p(n) for the polynomial
    p(x) = sum_k C(x,k) * Q_k^(k); such operators have polynomial
    eigenvalue sequences and conversely.  The binomial basis C(x, k) comes
    from `three_term` on n*C(x, n) = (x-n+1)*C(x, n-1).
    """
    consts = []
    for k, q in enumerate(op.qpolys):
        dk = q.derivative(k)
        if dk.degree > 0:
            raise ValueError(
                f"Q_{k} has degree {q.degree} > {k}; the eigenvalue sequence "
                f"is not polynomial and no interpolation exists"
            )
        consts.append(dk.coeff(0))
    return combine_in_basis(consts, three_term(op.order, lambda n: (1, 1 - n, 0, n)))
