"""Laguerre polynomials and the linear-eigenvalue operator on that basis.

The generalized Laguerre polynomial of degree n for parameter alpha > -1 is

    L_n(x) = sum_k (-1)^k * [prod_{j=k+1}^{n} (alpha+j) / (n-k)!] / k! * x^k,

normalized so L_n(0) = C(n+alpha, n).  The second-order operator

    T[f] = a*f + (x - alpha - 1)*f' - x*f''

acts diagonally with T[L_n] = (n + a) * L_n, so the sequence (n + a) is
diagonal on the Laguerre basis for every a even though all three operator
coefficients are real-rooted polynomials.  Whether (n + a) actually maps
real-rooted polynomials to real-rooted polynomials on this basis depends on
a: it does exactly when 0 <= a <= alpha + 1, which makes this operator the
standard counterexample to reading reality of the coefficients as
sufficiency; `demos.counterexample_demo` exercises both sides of that
boundary.

L_n has degree n, so `to_laguerre_basis` and `from_laguerre_basis` are the
triangular change of basis of `ratpoly.expand_in_basis` and
`ratpoly.combine_in_basis`, the same routines every basis uses.
"""

import math
from fractions import Fraction

from .ratpoly import RatLike, RatPoly, X, combine_in_basis, expand_in_basis, rat
from .reporting import CheckReport, Record


def validate_laguerre_alpha(alpha: RatLike) -> Fraction:
    a = rat(alpha)
    if a <= -1:
        raise ValueError(f"Laguerre parameter must exceed -1, got {a}")
    return a


class LaguerreParam(Record):
    """Basis parameter alpha > -1 together with the eigenvalue offset a."""

    __slots__ = ("alpha", "a")

    def __init__(self, alpha: RatLike, a: RatLike):
        super().__init__(validate_laguerre_alpha(alpha), rat(a))


def laguerre_polys(n_max: int, alpha: RatLike) -> list:
    """[L_0, ..., L_{n_max}] for the given alpha, by the closed form."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a = validate_laguerre_alpha(alpha)
    u, v = a.numerator, a.denominator
    out = []
    for n in range(n_max + 1):
        # over v^n * n!, the x^k numerator is (-1)^k C(n,k) v^k prod_(j=k+1..n) (u + j*v)
        num = [0] * (n + 1)
        rising = 1
        for k in range(n, -1, -1):
            term = math.comb(n, k) * v**k * rising
            num[k] = -term if k % 2 else term
            rising *= u + k * v
        out.append(RatPoly._reduced(num, v**n * math.factorial(n)))
    return out


def operator_coefficients(params: LaguerreParam) -> tuple:
    """The coefficient polynomials (Q_0, Q_1, Q_2) = (a, x - alpha - 1, -x)."""
    return (
        RatPoly([params.a]),
        RatPoly([-params.alpha - 1, 1]),
        -X,
    )


def laguerre_operator_apply(params: LaguerreParam, f: RatPoly) -> RatPoly:
    """a*f + (x - alpha - 1)*f' - x*f''."""
    q0, q1, q2 = operator_coefficients(params)
    return q0 * f + q1 * f.derivative() + q2 * f.derivative(2)


def check_eigen_action(params: LaguerreParam, n_max: int) -> CheckReport:
    """Verify T[L_n] = (n + a) * L_n exactly for n <= n_max."""
    polys = laguerre_polys(n_max, params.alpha)
    failures = []
    for n in range(n_max + 1):
        lhs = laguerre_operator_apply(params, polys[n])
        rhs = (n + params.a) * polys[n]
        if lhs != rhs:
            failures.append(f"eigen action fails at n={n}, alpha={params.alpha}, a={params.a}")
    return CheckReport(
        f"laguerre-eigen[alpha={params.alpha},a={params.a}]", n_max + 1, tuple(failures)
    )


def to_laguerre_basis(p: RatPoly, alpha: RatLike) -> list:
    """Coefficients of p in the Laguerre basis.

    L_n has degree n with leading coefficient (-1)^n / n!, so the conversion
    is triangular.  Returns a plain list (callers index by degree).
    """
    return expand_in_basis(p, laguerre_polys(max(p.degree, 0), alpha))


def from_laguerre_basis(coeffs: list, alpha: RatLike) -> RatPoly:
    return combine_in_basis(coeffs, laguerre_polys(max(len(coeffs) - 1, 0), alpha))
