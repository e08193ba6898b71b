"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are immutable and densely represented: a tuple of
`fractions.Fraction` coefficients in ascending degree order with no trailing
zeros, so the empty tuple is the zero polynomial and ``degree == len - 1``
otherwise.  Everything here is exact; floating point never enters any
computation, only (optionally) display.

Real-root counting uses Sturm sequences.  The chain is computed over the
integers with pseudo-remainders: each remainder is known up to a positive
rational factor once the accumulated sign of the pseudo-division multiplier
is corrected, and integer content is stripped after every step to keep
coefficient growth polynomial.  Sign variations at -oo/+oo then come from
leading coefficients alone, which gives the count of distinct real roots on
the whole line.  The chain of p and p' ends in gcd(p, p'), a factor common
to every member, so the count holds for p with repeated roots too and
needs no squarefree part.
"""

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Fraction
RatLike = Union[Fraction, int, str]


def rat(value: RatLike) -> Fraction:
    """Coerce an int, string, or Fraction to an exact rational.

    Floats are rejected on purpose: every correctness-relevant quantity in
    this package must stay exact.
    """
    if isinstance(value, float):
        raise TypeError("floating-point input is not allowed; pass int, str or Fraction")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def int_str(n: int) -> str:
    """Decimal digits of n at any size.

    ``str`` refuses ints longer than ``sys.get_int_max_str_digits()`` (4300
    by default, never below 640), a limit meant for parsing untrusted input.
    Output of exact results must not stop there, so long values are split
    at a power of ten and rendered half by half.
    """
    if n.bit_length() <= 2000:  # at most 603 digits, under any limit
        return str(n)
    if n < 0:
        return "-" + int_str(-n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(n, 10**half)
    return int_str(high) + int_str(low).zfill(half)


def rat_str(value: RatLike) -> str:
    """Canonical ``"num/den"`` rendering, lowest terms, positive denominator."""
    q = rat(value)
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def parse_rat(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction; a zero denominator is a ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {text!r}: zero denominator") from None


class RatPoly:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RatPoly([other])
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __radd__(self, other) -> "RatPoly":
        return self.__add__(other)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self._coeffs])

    def __sub__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RatPoly([other])
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, RatPoly):
            if self.is_zero or other.is_zero:
                return ZERO
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a:
                    for j, b in enumerate(other._coeffs):
                        out[i + j] += a * b
            return RatPoly(out)
        scalar = rat(other)
        return RatPoly([scalar * c for c in self._coeffs])

    def __rmul__(self, other) -> "RatPoly":
        return self.__mul__(other)

    def __truediv__(self, other) -> "RatPoly":
        scalar = rat(other)
        if scalar == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int) -> "RatPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other: "RatPoly"):
        if not isinstance(other, RatPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero polynomial")
        r = list(self._coeffs)
        q = [Fraction(0)] * max(len(r) - len(other._coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        while len(r) - 1 >= d and r:
            t = r[-1] / lead
            k = len(r) - 1 - d
            q[k] = t
            for i, c in enumerate(other._coeffs):
                r[k + i] -= t * c
            while r and r[-1] == 0:
                r.pop()
        return RatPoly(q), RatPoly(r)

    def __floordiv__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "RatPoly") -> "RatPoly":
        return divmod(self, other)[1]

    # -- calculus / evaluation ---------------------------------------------

    def derivative(self, order: int = 1) -> "RatPoly":
        """Formal derivative of the given order (order 0 returns self)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self._coeffs
        for _ in range(order):
            cs = tuple(i * c for i, c in enumerate(cs) if i > 0)
            if not cs:
                return ZERO
        return RatPoly(cs)

    def __call__(self, x0: RatLike) -> Fraction:
        x = rat(x0)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "RatPoly") -> "RatPoly":
        """Substitute `inner` for the variable (Horner over polynomials)."""
        acc = ZERO
        for c in reversed(self._coeffs):
            acc = acc * inner + RatPoly([c])
        return acc

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic normalization")
        return self / self.leading

    # -- presentation / serialization ----------------------------------------

    def __repr__(self) -> str:
        return f"RatPoly({self.to_text()!r})"

    def to_text(self) -> str:
        """Human-readable rendering such as ``x^3 - 3*x``."""
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            mag_text = int_str(mag.numerator) if mag.denominator == 1 else rat_str(mag)
            if i == 0:
                body = mag_text
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag_text}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_dict(self) -> dict:
        return {"coeffs": [rat_str(c) for c in self._coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatPoly":
        return cls([parse_rat(c) for c in data["coeffs"]])


ZERO = RatPoly()
ONE = RatPoly([1])
X = RatPoly([0, 1])


def from_roots(roots: Iterable[RatLike]) -> RatPoly:
    """The monic polynomial with the given rational roots (with multiplicity)."""
    p = ONE
    for r in roots:
        p = p * RatPoly([-rat(r), 1])
    return p


def expand_in_basis(p: RatPoly, basis: Sequence[RatPoly]) -> list:
    """Coefficients c_0..c_n with p = sum c_k * basis[k], n = deg p.

    The basis must have deg basis[k] = k with any nonzero leading
    coefficient (at least deg p + 1 entries), so the change of basis is
    triangular: peeling coefficients from the top degree down terminates
    with an exactly zero residual.  The zero polynomial expands to [].
    """
    out = [Fraction(0)] * (p.degree + 1)
    residual = p
    for k in range(p.degree, -1, -1):
        c = residual.coeff(k) / basis[k].coeff(k)
        if c != 0:
            out[k] = c
            residual = residual - c * basis[k]
    if not residual.is_zero:
        raise ArithmeticError("back-substitution left a nonzero residual")
    return out


def combine_in_basis(coeffs: Iterable[RatLike], basis: Sequence[RatPoly]) -> RatPoly:
    """The polynomial sum c_k * basis[k]; the inverse of `expand_in_basis`."""
    total = ZERO
    for k, c in enumerate(coeffs):
        c = rat(c)
        if c:
            total = total + c * basis[k]
    return total


def interpolate(points: Sequence[tuple]) -> RatPoly:
    """Lagrange interpolation through ``(x, y)`` pairs with distinct x."""
    xs = [rat(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    total = ZERO
    for i, (_, y) in enumerate(points):
        yi = rat(y)
        if yi == 0:
            continue
        num = ONE
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * RatPoly([-xj, 1])
            den *= xs[i] - xj
        total = total + num * (yi / den)
    return total


# -- gcd / squarefree / Sturm machinery -------------------------------------


def _int_coeffs(p: RatPoly) -> list:
    """Primitive integer coefficient list that is a positive multiple of p."""
    den = math.lcm(*(c.denominator for c in p.coeffs)) if p.coeffs else 1
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints) if ints else 1
    return [c // g for c in ints] if g > 1 else ints


def _strip(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _content_strip(cs: list) -> list:
    if not cs:
        return cs
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _signed_prem(f: list, g: list) -> list:
    """Remainder of f by g, up to a positive rational factor.

    Classic pseudo-division multiplies f by lc(g) once per elimination step;
    tracking the step count lets us cancel the overall sign when lc(g) < 0,
    so the result is always a positive multiple of the true remainder.  That
    is exactly what sign-variation counting needs.
    """
    r = list(f)
    c = g[-1]
    steps = 0
    while True:
        _strip(r)
        if len(r) < len(g):
            break
        k = len(r) - len(g)
        lead = r[-1]
        r = [c * x for x in r]
        for i, gc in enumerate(g):
            r[k + i] -= lead * gc
        r.pop()
        steps += 1
    if steps % 2 == 1 and c < 0:
        r = [-x for x in r]
    return r


def _int_gcd_poly(f: list, g: list) -> list:
    """Primitive gcd of two integer polynomials (sign not normalized)."""
    a, b = list(f), list(g)
    while b:
        a, b = b, _content_strip(_signed_prem(a, b))
    return _content_strip(a)


def poly_gcd(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic greatest common divisor over the rationals."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    g = _int_gcd_poly(_int_coeffs(p), _int_coeffs(q))
    return RatPoly(g).monic()


def squarefree_part(p: RatPoly) -> RatPoly:
    """The monic product of the distinct irreducible factors of p.

    Computed as p / gcd(p, p'); constants map to 1.  Raises on the zero
    polynomial.
    """
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial is undefined")
    if p.degree == 0:
        return ONE
    g = poly_gcd(p, p.derivative())
    q, r = divmod(p, g)
    if not r.is_zero:
        raise ArithmeticError("exact division failed in squarefree computation")
    return q.monic()


def _sturm_chain(coeffs: list) -> list:
    """Sturm chain of a primitive integer polynomial, ending in gcd(p, p')."""
    chain = [coeffs]
    deriv = _content_strip(_strip([i * c for i, c in enumerate(coeffs)][1:]))
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) - 1 >= 1:
        rem = _signed_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_content_strip([-x for x in rem]))
    return chain


def _sign_variations_at_infinity(chain: list, direction: int) -> int:
    signs = []
    for cs in chain:
        s = 1 if cs[-1] > 0 else -1
        if direction < 0 and (len(cs) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    flips = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            flips += 1
    return flips


def count_real_roots(p: RatPoly) -> int:
    """Number of distinct real roots of p, exactly.

    A Sturm chain over the integers yields the count on the whole real line
    as V(-oo) - V(+oo).  Repeated roots are counted once: every member of the
    chain is a multiple of gcd(p, p'), which changes no sign variation.
    Raises ValueError on the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if p.degree == 0:
        return 0
    chain = _sturm_chain(_int_coeffs(p))
    return _sign_variations_at_infinity(chain, -1) - _sign_variations_at_infinity(chain, +1)


def is_real_rooted(p: RatPoly) -> bool:
    """True when every complex root of p is real.

    The zero polynomial and (nonzero) constants are real-rooted by
    convention: they have no roots at all, so the condition holds vacuously.
    Otherwise p is real-rooted exactly when its squarefree part has as many
    distinct real roots as its degree.
    """
    if p.is_zero or p.degree == 0:
        return True
    sf = squarefree_part(p)
    return count_real_roots(sf) == sf.degree
