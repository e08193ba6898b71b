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

from fractions import Fraction

from .hermite import three_term
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
    """[L_0, ..., L_{n_max}] by `three_term` on n*L_n = (2n - 1 + alpha - x)*L_(n-1) - (n - 1 + alpha)*L_(n-2)."""
    a = validate_laguerre_alpha(alpha)
    u, v = a.numerator, a.denominator
    return three_term(n_max, lambda n: (-v, (2 * n - 1) * v + u, (n - 1) * v + u, n * v))


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
    outcomes = (
        None if laguerre_operator_apply(params, poly) == (n + params.a) * poly
        else f"eigen action fails at n={n}, alpha={params.alpha}, a={params.a}"
        for n, poly in enumerate(polys)
    )
    return CheckReport.tally(f"laguerre-eigen[alpha={params.alpha},a={params.a}]", outcomes)


def to_laguerre_basis(p: RatPoly, alpha: RatLike) -> list:
    """Coefficients of p in the Laguerre basis.

    L_n has degree n with leading coefficient (-1)^n / n!, so the conversion
    is triangular.  Returns a plain list (callers index by degree).
    """
    return expand_in_basis(p, laguerre_polys(max(p.degree, 0), alpha))


def from_laguerre_basis(coeffs: list, alpha: RatLike) -> RatPoly:
    return combine_in_basis(coeffs, laguerre_polys(max(len(coeffs) - 1, 0), alpha))
