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
sufficiency.  `counterexample_demo` exercises both sides of that boundary.

L_n has degree n, so `to_laguerre_basis` and `from_laguerre_basis` are the
triangular change of basis of `ratpoly.expand_in_basis` and
`ratpoly.combine_in_basis`, the same routines every basis uses.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .ratpoly import RatLike, RatPoly, X, combine_in_basis, expand_in_basis, is_real_rooted, rat, rat_str
from .reporting import CheckReport


def validate_laguerre_alpha(alpha: RatLike) -> Fraction:
    a = rat(alpha)
    if a <= -1:
        raise ValueError(f"Laguerre parameter must exceed -1, got {a}")
    return a


@dataclass(frozen=True)
class LaguerreParam:
    """Basis parameter alpha > -1 together with the eigenvalue offset a."""

    alpha: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", validate_laguerre_alpha(self.alpha))
        object.__setattr__(self, "a", rat(self.a))


def laguerre_polys(n_max: int, alpha: RatLike) -> list:
    """[L_0, ..., L_{n_max}] for the given alpha, by the closed form."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a = validate_laguerre_alpha(alpha)
    out = []
    for n in range(n_max + 1):
        coeffs = []
        for k in range(n + 1):
            rising = Fraction(1)
            for j in range(k + 1, n + 1):
                rising *= a + j
            term = rising / math.factorial(n - k) / math.factorial(k)
            coeffs.append(-term if k % 2 else term)
        out.append(RatPoly(coeffs))
    return out


def laguerre_poly(n: int, alpha: RatLike) -> RatPoly:
    return laguerre_polys(n, alpha)[n]


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


def counterexample_demo(alpha: RatLike, a_values, deg_max: int = 6) -> list:
    """Probe the sequence (n + a) on the Laguerre basis for each a.

    For every requested a the operator's three coefficient polynomials are
    certified real-rooted (they always are), then the falsification search
    runs over the witness corpus.  Values of a outside [0, alpha + 1] should
    produce a witness; values inside should come back inconclusive.  Returns
    a JSON-ready list of {a, coefficients_real_rooted, status, witness?}.
    """
    from .classify import LaguerreBasis, falsify_sequence
    from .jensen import GammaSeq

    a_param = validate_laguerre_alpha(alpha)
    results = []
    for a in a_values:
        a = rat(a)
        params = LaguerreParam(a_param, a)
        coeffs_ok = all(is_real_rooted(q) for q in operator_coefficients(params))
        verdict = falsify_sequence(GammaSeq.linear(a), LaguerreBasis(a_param), deg_max)
        entry = {
            "a": rat_str(a),
            "coefficients_real_rooted": coeffs_ok,
            "status": verdict.status,
        }
        if verdict.witness is not None:
            entry["witness"] = verdict.witness.to_json_dict()
        if verdict.bound is not None:
            entry["bound"] = verdict.bound
        results.append(entry)
    return results
