"""Named sequence registry used by the command line and the test suite.

Registered selectors:

    const1              gamma_k = 1
    linear(a)           gamma_k = k + a          (a rational, e.g. linear(3))
    example311          gamma_k of e^(x/2) * (1 + x)^2
    besselJ0            gamma_k = 1/k!           (geom-factorial(1) under its own name)
    exp-half-cosh       gamma_k of e^(x/2) * cosh(sqrt(2x))
    geom-factorial(r)   gamma_k = r^k / k!       (r rational, e.g. geom-factorial(3/5))
    file:PATH           explicit list from a JSON file {"gammas": ["p/q", ...]}

Selectors with an argument take one rational in parentheses.  `file:` data
beyond the listed prefix is treated as an all-zero tail.

Every selector builds a plain `GammaSeq`.  Only example311 has factored data
(`example311_spec`), the certificate `classify` reads; besselJ0 and
exp-half-cosh are given by their coefficient rules, plus a three-term
recurrence for their differences that `DifferenceTable` reads directly.
"""

import functools
import json
import re
import threading
from fractions import Fraction

from .jensen import FactoredSpec, GammaSeq, recurrence_heads
from .ratpoly import parse_rat

NAMES = ("const1", "linear(a)", "example311", "besselJ0", "exp-half-cosh",
         "geom-factorial(r)", "file:PATH")

_ARG_FORM = re.compile(r"^([a-zA-Z0-9-]+)\(([^)]+)\)$")


def example311_spec() -> FactoredSpec:
    """Factored data for the sequence registered as example311."""
    return FactoredSpec(c=1, m=0, sigma=Fraction(1, 2), zeros=(1, 1))


class _ExpHalfCoshRule:
    """gamma_k = k! * [x^k] e^(x/2) * cosh(sqrt(2x)), memoized.

    phi(x) = e^(x/2) * cosh(sqrt(2x)) satisfies 2x*phi'' + (1 - 2x)*phi' +
    (x/2 - 3/2)*phi = 0, which on gamma_k gives the three-term recurrence

        (2k + 1) * gamma_(k+1) = (2k + 3/2) * gamma_k - (k/2) * gamma_(k-1),

    with gamma_0 = 1 and gamma_1 = 3/2, so each new term costs O(1).
    """

    def __init__(self):
        self._gammas = [Fraction(1), Fraction(3, 2)]
        self._lock = threading.Lock()

    def __call__(self, k: int) -> Fraction:
        with self._lock:
            g = self._gammas
            while len(g) <= k:
                n = len(g) - 1
                g.append(((2 * n + Fraction(3, 2)) * g[n] - Fraction(n, 2) * g[n - 1]) / (2 * n + 1))
            return g[k]


def _exp_half_cosh_step(k: int) -> tuple:
    """(2k+1) d_(k+1) = (1/2 - 2k) d_k - (k/2) d_(k-1), d_0 = 1, d_1 = 1/2, from phi's
    ODE with D + 1 for D, on d_k = e_k / D_k with D_(k+1) = 2(2k+1) D_k."""
    return 1 - 4 * k, -2 * k * (2 * k - 1), 2 * (2 * k + 1)


def _json_rat(value, what: str) -> Fraction:
    """A rational from JSON: a "p/q" string or an integer, never a float or bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f'{what} must be a rational string "p/q" or an integer, got {json.dumps(value)}')
    return parse_rat(str(value))


def _json_rat_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {json.dumps(value)}")
    return [_json_rat(v, f"each entry of {what}") for v in value]


def _from_file(path: str) -> GammaSeq:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "gammas" not in data:
        raise ValueError(f"sequence file {path} must be a JSON object with a 'gammas' list")
    values = _json_rat_list(data["gammas"], f"'gammas' in {path}")
    return GammaSeq.from_values(values, name=f"file:{path}")


def make_sequence(selector: str) -> GammaSeq:
    """Build the sequence named by a selector string (see module docstring)."""
    text = selector.strip()
    if text == "const1":
        seq = GammaSeq.constant(1)
        seq.name = "const1"
        return seq
    if text == "example311":
        return GammaSeq.from_lpplus(example311_spec(), name="example311")
    if text == "besselJ0":
        # generating function sum x^k/(k!)^2, a Bessel-type series: geom-factorial(1)
        seq = GammaSeq.geometric_factorial(1)
        seq.name = "besselJ0"
        return seq
    if text == "exp-half-cosh":
        # sigma = 1/2 and infinitely many zeros; a stress sequence for ratio scans
        differences = functools.partial(recurrence_heads, 1, _exp_half_cosh_step)
        return GammaSeq(_ExpHalfCoshRule(), name="exp-half-cosh", differences=differences)
    if text.startswith("file:"):
        return _from_file(text[len("file:"):])
    match = _ARG_FORM.match(text)
    if match:
        head, arg = match.group(1), match.group(2)
        if head == "linear":
            return GammaSeq.linear(parse_rat(arg))
        if head == "geom-factorial":
            return GammaSeq.geometric_factorial(parse_rat(arg))
    raise ValueError(f"unknown sequence selector {selector!r}; known: {', '.join(NAMES)}")


def factored_from_json(text: str) -> FactoredSpec:
    """Parse a factored generator from a JSON object string.

    Keys: "sigma" (required, "p/q"), "c" (default "1"), "m" (default 0),
    "zeros" (default [], list of "p/q").
    """
    data = json.loads(text)
    if not isinstance(data, dict) or "sigma" not in data:
        raise ValueError('factored generator needs a JSON object with at least "sigma"')
    m = data.get("m", 0)
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f'factored generator: "m" must be an integer, got {json.dumps(m)}')
    return FactoredSpec(
        c=_json_rat(data.get("c", "1"), 'factored generator: "c"'),
        m=m,
        sigma=_json_rat(data["sigma"], 'factored generator: "sigma"'),
        zeros=tuple(_json_rat_list(data.get("zeros", []), 'factored generator: "zeros"')),
    )
