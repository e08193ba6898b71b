"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are immutable and densely represented: a tuple of integer
numerators in ascending degree order over one positive denominator, in
lowest terms (gcd(den, *num) = 1) and with no trailing zeros, so the zero
polynomial is the empty tuple over 1 and ``degree == len - 1`` otherwise.
That form is unique, so equality and hashing compare integers.  Sums,
products, scalar multiples, derivatives and compositions run on the
numerators and reduce the result once, with one gcd; `coeffs`, `coeff`,
`leading` and `to_text` build reduced `fractions.Fraction`s only when asked,
and `to_json_dict` reduces each numerator against the denominator as it
renders.  Everything here is exact; floating point never enters any
computation, only (optionally) display.

Real-root counting uses Sturm sequences.  The chain is computed over the
integers with pseudo-remainders by the divisor taken with a positive
leading coefficient, so each is a positive multiple of the true remainder,
and integer content is stripped after every step to keep coefficient
growth polynomial.  Sign variations at -oo/+oo then come from
leading coefficients alone, which gives the count of distinct real roots on
the whole line.  The chain of p and p' ends in gcd(p, p'), a factor common
to every member, so the count holds for p with repeated roots too and
needs no squarefree part.  A root test below degree 4 is a closed form on
the integer coefficients: true at degree 1, the discriminant's sign at
degrees 2 and 3, and at degree 4 the signs of the discriminant and two more
forms unless the discriminant is 0.  Else it first checks Newton's
inequalities, which every real-rooted polynomial satisfies, so one violation
is an exact "no" in O(n) integer work; else it is one chain: a count of
deg p means distinct real roots, and only a shortfall reads deg gcd(p, p')
too.  One primitive remainder sequence, `_prs`, builds every chain; its last
member is the gcd `poly_gcd` returns.  The last chain is memoised on p's
primitive integer coefficients, so a shortfall builds it once.

The change of basis works in place on one list of integer numerators over
one denominator and builds one RatPoly at the end, not a temporary
polynomial per step.
"""

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

RatLike = Union[Fraction, int, str]


def rat(value: RatLike) -> Fraction:
    """Coerce an int, string, or Fraction to an exact rational.

    Floats are rejected on purpose: every correctness-relevant quantity in
    this package must stay exact.  Strings go through `parse_rat`.
    """
    if isinstance(value, float):
        raise TypeError("floating-point input is not allowed; pass int, str or Fraction")
    if isinstance(value, Fraction):
        return value
    return parse_rat(value) if isinstance(value, str) else Fraction(value)


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


def brief(text: str) -> str:
    """text quoted for an error message, cut to its first 20 characters."""
    return repr(text[:20]) + ("..." if len(text) > 20 else "")


def parse_rat(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a decimal such as ``"0.5"`` into a Fraction; anything else is a ValueError.

    Whitespace may surround the text but not sit inside it, and underscores are
    refused: ``Fraction`` takes ``"1_0"`` from Python 3.11 and ``"1 /2"`` from 3.12.
    Exponent notation is refused: ``Fraction("1e10000000")`` alone builds a
    33-million-bit numerator, which would stall the caller.  The error quotes
    only the start of the text, however long it is.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"invalid rational {brief(text)}: exponent notation is not accepted")
    body = text.strip()
    try:
        if "_" in body or any(c.isspace() for c in body):
            raise ValueError
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {brief(text)}: zero denominator") from None
    except ValueError:
        raise ValueError(f"invalid rational {brief(text)}") from None


def _strip(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


class RatPoly:
    """Immutable dense polynomial with rational coefficients: integer numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if type(c) is int else rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        # over the lcm of reduced denominators, gcd(den, *num) is already 1
        self._num = tuple(_strip([c.numerator * (den // c.denominator) for c in cs]))
        self._den = den

    @classmethod
    def _reduced(cls, num: list, den: int) -> "RatPoly":
        """num / den (den > 0) in lowest terms: trailing zeros and the common factor removed."""
        g = math.gcd(den, *_strip(num))  # den itself when num is zero, so zero is () over 1
        p = object.__new__(cls)
        p._num = tuple(c // g for c in num) if g > 1 else tuple(num)
        p._den = den // g
        return p

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, ascending."""
        return tuple(Fraction(c, self._den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        return self.coeff(len(self._num) - 1)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, sign: int) -> "RatPoly":
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, RatPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = RatPoly([other])
        den = math.lcm(self._den, other._den)
        out = [c * (den // self._den) for c in self._num] + [0] * (len(other._num) - len(self._num))
        for i, c in enumerate(other._num):
            out[i] += sign * (den // other._den) * c
        return RatPoly._reduced(out, den)

    def __add__(self, other) -> "RatPoly":
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly._reduced([-c for c in self._num], self._den)

    def __sub__(self, other) -> "RatPoly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "RatPoly":
        return (-self)._combine(other, 1)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, RatPoly):
            return RatPoly._reduced(_mul_ints(self._num, other._num), self._den * other._den)
        scalar = rat(other)
        return RatPoly._reduced([scalar.numerator * c for c in self._num], scalar.denominator * self._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatPoly":
        return self * (1 / rat(other))  # ZeroDivisionError on a zero scalar

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
        r, b = list(self.coeffs), other.coeffs
        q = [0] * max(len(r) - len(b) + 1, 0)
        while len(r) >= len(b):
            k = len(r) - len(b)
            q[k] = t = r[-1] / b[-1]
            for i, c in enumerate(b):
                r[k + i] -= t * c
            _strip(r)
        return RatPoly(q), RatPoly(r)

    # -- calculus / evaluation ---------------------------------------------

    def derivative(self, order: int = 1) -> "RatPoly":
        """Formal derivative of the given order (order 0 returns an equal polynomial)."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        num = self._num
        return RatPoly._reduced([math.perm(i, order) * num[i] for i in range(order, len(num))], self._den)

    def __call__(self, x0: RatLike) -> Fraction:
        x = rat(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "RatPoly") -> "RatPoly":
        """Substitute `inner` for the variable: Horner over integer numerators, one reduction."""
        num = self._num
        if not num:
            return ZERO
        m, e = inner._num, inner._den
        acc, epow = [num[-1]], 1
        for c in reversed(num[:-1]):  # after c_j: acc = sum_(i >= j) c_i m^(i-j) e^(deg-i)
            epow *= e
            acc = _mul_ints(acc, m) or [0]
            acc[0] += c * epow
        return RatPoly._reduced(acc, self._den * epow)

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic normalization")
        return self / self.leading

    # -- presentation / serialization ----------------------------------------

    def __repr__(self) -> str:
        return f"RatPoly({self.to_text()!r})"

    def to_text(self) -> str:
        """Human-readable rendering such as ``x^3 - 3*x``."""
        text = ""
        for i, c in reversed(tuple(enumerate(self.coeffs))):
            if c == 0:
                continue
            mag = abs(c)
            body = int_str(mag.numerator) if mag.denominator == 1 else rat_str(mag)
            if i:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{body}*{var}"
            sign = "-" if c < 0 else "+"
            text += f" {sign} {body}" if text else body if c > 0 else f"-{body}"
        return text or "0"

    def to_json_dict(self) -> dict:
        """Each coefficient as rat_str renders it, reduced from the numerators without a Fraction; a zero is "0/1"."""
        den = self._den
        gs = [math.gcd(c, den) if c else 0 for c in self._num]
        return {"coeffs": [f"{int_str(c // g)}/{int_str(den // g)}" if c else "0/1" for c, g in zip(self._num, gs)]}


def _mul_ints(a: Sequence[int], b: Sequence[int]) -> list:
    """Product of two integer coefficient lists (zeros when either is empty)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


ZERO = RatPoly()
ONE = RatPoly([1])
X = RatPoly([0, 1])


def expand_in_basis(p: RatPoly, basis: Sequence[RatPoly]) -> list:
    """Coefficients c_0..c_n with p = sum c_k * basis[k], n = deg p.

    The basis must have deg basis[k] = k with any nonzero leading
    coefficient (at least deg p + 1 entries), so the change of basis is
    triangular: peeling coefficients from the top degree down, in place on
    one residual, ends with an exactly zero residual.  Each step subtracts
    c_k times all of basis[k], so a basis that is not triangular leaves a
    residual and raises ArithmeticError.  Zero expands to [].  The residual
    is integer numerators over one (possibly negative) denominator, which a
    step multiplies by the leading numerator of basis[k].
    """
    residual, den = list(p._num), p._den
    out = [Fraction(0)] * len(residual)
    for k in range(len(out) - 1, -1, -1):
        r = residual[k]
        if r:
            b = basis[k]._num
            lead = b[k] if k < len(b) else 0
            out[k] = Fraction(r * basis[k]._den, den * lead)
            residual = [c * lead for c in residual] + [0] * (len(b) - len(residual))
            den *= lead
            for i, bc in enumerate(b):
                residual[i] -= r * bc
    if any(residual):
        raise ArithmeticError("back-substitution left a nonzero residual")
    return out


def combine_in_basis(coeffs: Iterable[RatLike], basis: Sequence[RatPoly]) -> RatPoly:
    """Sum of c_k * basis[k] over one common denominator; inverse of `expand_in_basis`."""
    terms = [(rat(c), basis[k]) for k, c in enumerate(coeffs)]
    den = math.lcm(*(c.denominator * b._den for c, b in terms))
    total = []
    for c, b in terms:
        scale = c.numerator * (den // (c.denominator * b._den))
        total += [0] * (len(b._num) - len(total))
        for i, bc in enumerate(b._num):
            total[i] += scale * bc
    return RatPoly._reduced(total, den)


# -- gcd / squarefree / Sturm machinery -------------------------------------


def _int_coeffs(p: RatPoly) -> tuple:
    """Primitive integer coefficients that are a positive multiple of p: its numerators, content stripped.

    When the numerators are already primitive this is p's own tuple, not a copy.
    """
    g = math.gcd(*p._num)
    return p._num if g <= 1 else tuple(c // g for c in p._num)


def _content_strip(cs: list) -> list:
    if not cs:
        return cs
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _signed_prem(f: list, g: list) -> list:
    """Remainder of f by g, up to a positive rational factor.

    Pseudo-division multiplies f by lc(g) once per elimination step, so it
    divides by g negated to a positive leading coefficient: the remainder by
    -g is the remainder by g, and the result is a positive multiple of it.
    That is exactly what sign-variation counting needs.
    """
    if g[-1] < 0:
        g = [-x for x in g]
    r = list(f)
    c = g[-1]
    while True:
        _strip(r)
        if len(r) < len(g):
            return r
        k = len(r) - len(g)
        lead = r[-1]
        r = [c * x for x in r]
        for i, gc in enumerate(g):
            r[k + i] -= lead * gc
        r.pop()


def _prs(f: list, g: list) -> list:
    """Primitive remainder sequence f, g, -prem(f, g), ... of integer polynomials.

    Each remainder is negated and content-stripped, and the sequence ends in
    the primitive gcd(f, g).  An empty g (zero) never enters it, so
    gcd(f, 0) = f.
    """
    chain = [f]
    while g:
        chain.append(g)
        if len(g) == 1:  # a constant divides everything: the next remainder is zero
            break
        g = _content_strip([-x for x in _signed_prem(chain[-2], g)])
    return chain


def poly_gcd(p: RatPoly, q: RatPoly) -> RatPoly:
    """Monic greatest common divisor over the rationals; gcd(p, 0) is p made monic."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return RatPoly(_prs(_int_coeffs(p), _int_coeffs(q))[-1]).monic()


def squarefree_part(p: RatPoly) -> RatPoly:
    """The monic product of the distinct irreducible factors of p.

    Computed as p / gcd(p, p'); constants map to 1.  Raises on the zero
    polynomial.
    """
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial is undefined")
    g = poly_gcd(p, p.derivative())
    q, r = divmod(p, g)
    if not r.is_zero:
        raise ArithmeticError("exact division failed in squarefree computation")
    return q.monic()


@functools.lru_cache(maxsize=1)
def _sturm_chain(coeffs: tuple) -> tuple:
    """Sturm chain of a primitive integer polynomial, ending in gcd(p, p'); the last is kept, read-only."""
    chain = _prs(coeffs, _content_strip(_strip([i * c for i, c in enumerate(coeffs)][1:])))
    return tuple(map(tuple, chain))


def _sturm_count(chain: tuple) -> int:
    """V(-oo) - V(+oo), from the signs of the chain's leading coefficients.

    At -oo a member's sign is its leading coefficient's times (-1)^degree, so
    two neighbours differ there exactly when they differ at +oo xor their
    degrees differ by an odd number.
    """
    count = 0
    for a, b in zip(chain, chain[1:]):
        at_plus = (a[-1] > 0) != (b[-1] > 0)
        count += (at_plus != ((len(a) - len(b)) % 2 == 1)) - at_plus
    return count


def count_real_roots(p: RatPoly) -> int:
    """Number of distinct real roots of p, exactly.

    A Sturm chain over the integers yields the count on the whole real line
    as V(-oo) - V(+oo).  Repeated roots are counted once: every member of the
    chain is a multiple of gcd(p, p'), which changes no sign variation.
    Raises ValueError on the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    return _sturm_count(_sturm_chain(_int_coeffs(p)))


def _newton_refutes(c: tuple) -> bool:
    """True when the integer coefficients c break one of Newton's inequalities.

    Every real-rooted polynomial of degree n satisfies
    a_i^2 i(n-i) >= a_(i-1) a_(i+1) (i+1)(n-i+1) for 0 < i < n
    (Hardy-Littlewood-Polya, Inequalities, 2.22), so a strict violation
    proves a non-real root.  Holding proves nothing.
    """
    n = len(c) - 1
    return any(c[i] * c[i] * i * (n - i) < c[i - 1] * c[i + 1] * (i + 1) * (n - i + 1) for i in range(1, n))


def _real_rooted_ints(c: tuple, count: Optional[Callable[[], int]] = None) -> bool:
    """Root test on integer coefficients: closed forms up to degree 4, else Newton, then Sturm.

    A quadratic or cubic is real-rooted exactly when its discriminant is >= 0
    (a zero one means a repeated root, which is real).  A quartic
    a4 x^4 + ... + a0 with discriminant disc = (4 I^3 - J^2) / 27 != 0 has
    distinct roots: two real ones when disc < 0; when disc > 0, four exactly
    when P = 8 a4 a2 - 3 a3^2 < 0 and
    D = 64 a4^3 a0 - 16 a4^2 a2^2 + 16 a4 a3^2 a2 - 16 a4^2 a3 a1 - 3 a3^4 < 0,
    else none (Rees 1922; Lazard 1988).  disc = 0 goes on to Newton and Sturm.
    All these forms and Newton's inequalities are homogeneous of even degree,
    so c may be any nonzero multiple of the polynomial; its content is
    stripped only for the memoised chain.  `count` returns c's number of
    distinct real roots (by default read off c's chain); a count below deg c
    also reads deg gcd(c, c') off the kept chain.
    """
    n = len(c) - 1
    if n == 2:
        return c[1] * c[1] >= 4 * c[0] * c[2]
    if n == 3:
        a0, a1, a2, a3 = c
        return 18 * a0 * a1 * a2 * a3 - 4 * a0 * a2**3 + a1 * a1 * a2 * a2 - 4 * a3 * a1**3 - 27 * a0 * a0 * a3 * a3 >= 0
    if n == 4:
        a0, a1, a2, a3, a4 = c
        i = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
        j = 72 * a4 * a2 * a0 + 9 * a3 * a2 * a1 - 27 * a4 * a1 * a1 - 27 * a0 * a3 * a3 - 2 * a2**3
        disc = 4 * i**3 - j * j
        if disc:
            return disc > 0 and 8 * a4 * a2 < 3 * a3 * a3 and (
                64 * a4**3 * a0 - 16 * a4 * a4 * (a2 * a2 + a3 * a1) + 16 * a4 * a3 * a3 * a2 < 3 * a3**4
            )
    if n < 2 or _newton_refutes(c):
        return n < 2
    c = tuple(_content_strip(c))
    roots = count() if count else _sturm_count(_sturm_chain(c))
    return roots == n or roots == n - (len(_sturm_chain(c)[-1]) - 1)


def is_real_rooted(p: RatPoly) -> bool:
    """True when every complex root of p is real.

    The zero polynomial and (nonzero) constants are real-rooted by
    convention: they have no roots at all, so the condition holds vacuously.
    Up to degree 3 a closed form on p's primitive integer coefficients
    decides: a line is real-rooted, and a quadratic or cubic exactly when its
    discriminant is >= 0.  A quartic with a nonzero discriminant is decided by
    the signs of the discriminant and two more forms (see `_real_rooted_ints`).
    Else, from degree 4 on, Newton's inequalities go first; every
    real-rooted polynomial satisfies them, so one strict violation is an
    exact "no".  Only when they all hold is one Sturm chain built, through
    `count_real_roots(p)`: a count of deg p settles it, and a shortfall reads
    deg gcd(p, p') off the same chain, since the count ignores multiplicity.
    """
    return _real_rooted_ints(_int_coeffs(p), lambda: count_real_roots(p))
