"""Generalized Hermite polynomials and expansions in the Hermite basis.

The family depends on a rational parameter alpha >= 0 and is monic of the
stated degree:

    H_0 = 1,  H_1 = x,  H_n = x*H_{n-1} - alpha*(n-1)*H_{n-2}.

Equivalently H_n(x) = sum_j n!/2^j * (-alpha)^j / (j! (n-2j)!) * x^(n-2j).
`three_term` runs the recurrence, as it does for every family.  At alpha = 0
the recurrence collapses to H_n = x^n, and at alpha = 1 these are the
probabilists' Hermite polynomials.  Two structural identities pin the
family down and are verified by `check_identities`:

    H_n' = n * H_{n-1}                    (derivative rule)
    n * H_n = x*H_n' - alpha*H_n''        (second-order eigenvalue equation)

together with the rescaling that links the family to the physicists'
polynomials wherever sqrt(2*alpha) is rational.

H_n has degree n, so `to_hermite_basis` and `from_hermite_basis` are the
triangular change of basis of `ratpoly.expand_in_basis` and
`ratpoly.combine_in_basis`, the same routines every basis uses; an
expansion is a plain coefficient list, as in the Laguerre basis.
"""

from fractions import Fraction

from .ratpoly import ONE, RatLike, RatPoly, X, combine_in_basis, expand_in_basis, rat
from .reporting import CheckReport


def validate_alpha(alpha: RatLike) -> Fraction:
    a = rat(alpha)
    if a < 0:
        raise ValueError(f"alpha must be nonnegative, got {a}")
    return a


def three_term(n_max: int, step) -> list:
    """[p_0, ..., p_{n_max}] with p_0 = 1 and w_n*p_n = (a_n*x + b_n)*p_(n-1) - c_n*p_(n-2), where
    step(n) = (a_n, b_n, c_n, w_n) are integers, a_n != 0 < w_n.  In integers p_n = P_n / (w_1*...*w_n)
    with P_n = (a_n*x + b_n)*P_(n-1) - c_n*w_(n-1)*P_(n-2); each p_n is reduced once.  A negative n_max raises."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out, prev, ints = [ONE], [], [1]
    w_prev = den = 1
    for n in range(1, n_max + 1):
        a, b, c, w = step(n)
        prev, ints = ints, [a * s + b * t - c * w_prev * r for s, t, r in zip([0, *ints], [*ints, 0], [*prev, 0, 0])]
        w_prev, den = w, den * w
        out.append(RatPoly._reduced(ints, den))
    return out


def hermite_polys(n_max: int, alpha: RatLike) -> list:
    """The list [H_0, ..., H_{n_max}] for the given alpha = u/v, by `three_term` on v*H_n = v*x*H_(n-1) - u*(n-1)*H_(n-2)."""
    a = validate_alpha(alpha)
    return three_term(n_max, lambda n: (a.denominator, 0, a.numerator * (n - 1), a.denominator))


def to_hermite_basis(p: RatPoly, alpha: RatLike) -> list:
    """Coefficients c_0..c_n of p = sum c_k H_k, n = deg p, as a plain list."""
    return expand_in_basis(p, hermite_polys(max(p.degree, 0), alpha))


def from_hermite_basis(coeffs: list, alpha: RatLike) -> RatPoly:
    """Evaluate sum_k c_k H_k back to an ordinary polynomial."""
    return combine_in_basis(coeffs, hermite_polys(max(len(coeffs) - 1, 0), alpha))


def _classical_hermite_polys(n_max: int) -> list:
    """Physicists' [H_0, ..., H_n_max] by `three_term`; H_n = n! * sum_m (-1)^m (2x)^(n-2m) / (m! (n-2m)!)."""
    return three_term(n_max, lambda n: (2, 0, 2 * (n - 1), 1))


def check_identities(n_max: int, alpha: RatLike) -> CheckReport:
    """Verify the structural identities of the family up to degree n_max.

    Runs the derivative rule for every n <= n_max, the second-order
    eigenvalue equation when alpha > 0, and the classical-rescaling relation
    H_n(x / sqrt(2a)) = (2/a)^(n/2) * H_n^(a)(x) at a = 1/2 and a = 2, the
    two parameter values where sqrt(2a) is rational.
    """
    a = validate_alpha(alpha)
    polys = hermite_polys(n_max, a)

    def outcomes():
        for n in range(1, n_max + 1):
            yield None if polys[n].derivative() == n * polys[n - 1] else f"derivative rule fails at n={n}, alpha={a}"
        if a > 0:
            for n in range(n_max + 1):
                lhs = n * polys[n]
                rhs = X * polys[n].derivative() - a * polys[n].derivative(2)
                yield None if lhs == rhs else f"eigenvalue equation fails at n={n}, alpha={a}"
        classical = _classical_hermite_polys(n_max)
        for aa, root in ((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(2))):
            scaled = hermite_polys(n_max, aa)
            sub = RatPoly([0, Fraction(1) / root])
            for n in range(n_max + 1):
                lhs = classical[n].compose(sub)
                rhs = (Fraction(2) / root) ** n * scaled[n]
                yield None if lhs == rhs else f"classical rescaling fails at n={n}, alpha={aa}"

    return CheckReport.tally("hermite-identities", outcomes())
