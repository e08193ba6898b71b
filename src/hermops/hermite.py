"""Generalized Hermite polynomials and expansions in the Hermite basis.

The family depends on a rational parameter alpha >= 0 and is monic of the
stated degree:

    H_0 = 1,  H_1 = x,  H_n = x*H_{n-1} - alpha*(n-1)*H_{n-2}.

Equivalently H_n(x) = sum_j n!/2^j * (-alpha)^j / (j! (n-2j)!) * x^(n-2j).
At alpha = 0 the recurrence collapses to H_n = x^n, and at alpha = 1 these
are the probabilists' Hermite polynomials.  Two structural identities pin
the family down and are verified by `check_identities`:

    H_n' = n * H_{n-1}                    (derivative rule)
    n * H_n = x*H_n' - alpha*H_n''        (second-order eigenvalue equation)

together with the rescaling that links the family to the physicists'
polynomials wherever sqrt(2*alpha) is rational.

H_n has degree n, so `to_hermite_basis` and `from_hermite_basis` are the
triangular change of basis of `ratpoly.expand_in_basis` and
`ratpoly.combine_in_basis`, the same routines every basis uses.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .ratpoly import ONE, RatLike, RatPoly, X, combine_in_basis, expand_in_basis, parse_rat, rat, rat_str
from .reporting import CheckReport


def validate_alpha(alpha: RatLike) -> Fraction:
    a = rat(alpha)
    if a < 0:
        raise ValueError(f"alpha must be nonnegative, got {a}")
    return a


def hermite_polys(n_max: int, alpha: RatLike) -> list:
    """The list [H_0, ..., H_{n_max}] for the given alpha."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a = validate_alpha(alpha)
    polys = [ONE]
    if n_max >= 1:
        polys.append(X)
    for n in range(2, n_max + 1):
        polys.append(X * polys[n - 1] - (a * (n - 1)) * polys[n - 2])
    return polys


def hermite_poly(n: int, alpha: RatLike) -> RatPoly:
    return hermite_polys(n, alpha)[n]


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients of a polynomial in the basis H_0, H_1, ... for one alpha.

    Trailing zero coefficients are stripped on construction.  Expansions with
    different alpha values must never be combined; `__add__` enforces that.
    """

    alpha: Fraction
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        cs = [rat(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other: "HermiteExpansion") -> "HermiteExpansion":
        if not isinstance(other, HermiteExpansion):
            return NotImplemented
        if self.alpha != other.alpha:
            raise ValueError(
                f"cannot combine expansions with different alpha ({self.alpha} vs {other.alpha})"
            )
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return HermiteExpansion(self.alpha, tuple(out))

    def to_json_dict(self) -> dict:
        return {"alpha": rat_str(self.alpha), "coeffs": [rat_str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermiteExpansion":
        return cls(parse_rat(data["alpha"]), tuple(parse_rat(c) for c in data["coeffs"]))


def to_hermite_basis(p: RatPoly, alpha: RatLike) -> HermiteExpansion:
    """Expand p in the H-basis (triangular: H_n is monic of degree n)."""
    a = validate_alpha(alpha)
    return HermiteExpansion(a, tuple(expand_in_basis(p, hermite_polys(max(p.degree, 0), a))))


def from_hermite_basis(expansion: HermiteExpansion) -> RatPoly:
    """Evaluate sum_k c_k H_k back to an ordinary polynomial."""
    polys = hermite_polys(max(expansion.degree, 0), expansion.alpha)
    return combine_in_basis(expansion.coeffs, polys)


def hermite_product_expand(n: int, m: int, alpha: RatLike) -> HermiteExpansion:
    """Linearization of a product of two basis elements:

    H_n * H_m = sum_i alpha^i * i! * C(m,i) * C(n,i) * H_{m+n-2i}.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    a = validate_alpha(alpha)
    out = [Fraction(0)] * (n + m + 1)
    for i in range(min(n, m) + 1):
        out[n + m - 2 * i] += a**i * math.factorial(i) * math.comb(m, i) * math.comb(n, i)
    return HermiteExpansion(a, tuple(out))


def classical_hermite(n: int) -> RatPoly:
    """Physicists' Hermite polynomial (H_0 = 1, H_1 = 2x, H_{n+1} = 2x*H_n - 2n*H_{n-1})."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    polys = [ONE, 2 * X]
    for i in range(1, n):
        polys.append(2 * X * polys[i] - (2 * i) * polys[i - 1])
    return polys[n]


def check_identities(n_max: int, alpha: RatLike) -> CheckReport:
    """Verify the structural identities of the family up to degree n_max.

    Runs the derivative rule for every n <= n_max, the second-order
    eigenvalue equation when alpha > 0, and the classical-rescaling relation
    H_n(x / sqrt(2a)) = (2/a)^(n/2) * H_n^(a)(x) at a = 1/2 and a = 2, the
    two parameter values where sqrt(2a) is rational.
    """
    a = validate_alpha(alpha)
    failures = []
    checked = 0
    polys = hermite_polys(n_max, a)
    for n in range(1, n_max + 1):
        checked += 1
        if polys[n].derivative() != n * polys[n - 1]:
            failures.append(f"derivative rule fails at n={n}, alpha={a}")
    if a > 0:
        for n in range(n_max + 1):
            checked += 1
            lhs = n * polys[n]
            rhs = X * polys[n].derivative() - a * polys[n].derivative(2)
            if lhs != rhs:
                failures.append(f"eigenvalue equation fails at n={n}, alpha={a}")
    for aa, root in ((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(2))):
        scaled = hermite_polys(n_max, aa)
        sub = RatPoly([0, Fraction(1) / root])
        for n in range(n_max + 1):
            checked += 1
            lhs = classical_hermite(n).compose(sub)
            rhs = (Fraction(2) / root) ** n * scaled[n]
            if lhs != rhs:
                failures.append(f"classical rescaling fails at n={n}, alpha={aa}")
    return CheckReport("hermite-identities", checked, tuple(failures))
