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
beyond the listed prefix is treated as an all-zero tail.  A `file:` holds one
JSON object whose only key is "gammas"; another key, or a key given twice, is
an error, by the same rule `factored_from_json` applies to its keys.

Every selector builds a plain `GammaSeq`.  Only example311 has factored data
(`example311_spec`), the certificate `classify` reads; besselJ0,
geom-factorial and exp-half-cosh are each given by one ODE constant, from
which `GammaSeq.from_ode` derives both the recurrence for their gammas and
the one for their differences that `DifferenceTable` reads directly.
"""

import collections
import io
import json
import os
import re
from fractions import Fraction

from .jensen import FactoredSpec, GammaSeq
from .ratpoly import brief, parse_rat

NAMES = ("const1", "linear(a)", "example311", "besselJ0", "exp-half-cosh",
         "geom-factorial(r)", "file:PATH")

_ARG_FORM = re.compile(r"^([a-zA-Z0-9-]+)\(([^)]+)\)$")

DEFAULT_KMAX_CAP = 2000


def check_range(name: str, value: int) -> None:
    """A size whose cost grows with it must lie in 0..HERMOPS_KMAX_CAP (default DEFAULT_KMAX_CAP)."""
    text = os.environ.get("HERMOPS_KMAX_CAP", str(DEFAULT_KMAX_CAP)).strip()
    cap = int(text) if text.isascii() and text.isdigit() else 0
    if cap < 1:
        raise ValueError(f"HERMOPS_KMAX_CAP must be a positive integer, got {brief(text)}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    if value > cap:
        raise ValueError(f"{name} {value} exceeds the configured cap {cap} (HERMOPS_KMAX_CAP)")


def example311_spec() -> FactoredSpec:
    """Factored data for the sequence registered as example311."""
    return FactoredSpec(c=1, m=0, sigma=Fraction(1, 2), zeros=(1, 1))


# Each ODE (q2, (r0, r1), (s0, s1)) is q2*x*phi'' + (r0 + r1*x)*phi' + (s0 + s1*x)*phi = 0.
BESSEL_J0_ODE = (1, (1, 0), (-1, 0))  # phi = sum x^k / k!^2, geom-factorial(1)
# phi = e^(x/2) * cosh(sqrt(2x)): 2x*phi'' + (1 - 2x)*phi' + (x/2 - 3/2)*phi = 0, times 2
EXP_HALF_COSH_ODE = (4, (2, -4), (-3, 1))


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number", float: "number"}


def _json_kind(value) -> str:
    """A decoded JSON value named for an error message by its type; a string or number adds its start.

    A container is never rendered, so the message stays short however large
    or deeply nested the offending value is.
    """
    if value is None or isinstance(value, bool):
        return f"JSON {json.dumps(value)}"
    kind = _JSON_TYPES[type(value)]
    if isinstance(value, (list, dict)):
        return f"a JSON {kind}"
    return f"JSON {kind} {brief(value if isinstance(value, str) else json.dumps(value))}"


def _json_rat(value, what: str) -> Fraction:
    """A rational from JSON: a "p/q" string or an integer, never a float or bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f'{what} must be a rational string "p/q" or an integer, got {_json_kind(value)}')
    return parse_rat(str(value))


def _json_rat_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {_json_kind(value)}")
    return [_json_rat(v, f"each entry of {what}") for v in value]


def _json_object(fh, what: str, required: str, optional: tuple = ()) -> dict:
    """The JSON object read from fh, whose keys are `required` and any of `optional`, each at most once.

    Malformed JSON, bytes that are not UTF-8, nesting past the recursion
    limit, a value that is not an object, a key given twice, any other key,
    or no `required` key is a ValueError naming the input `what`.
    """
    known = sorted((required, *optional))

    def members(pairs):
        data = dict(pairs)
        if len(data) < len(pairs):
            twice = next(key for key, n in collections.Counter(key for key, _ in pairs).items() if n > 1)
            raise ValueError(f"{what}: duplicate key {brief(twice)}")
        return data

    try:
        data = json.load(fh, object_pairs_hook=members)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} is JSON nested too deeply") from None
    unknown = [key for key in data if key not in known] if isinstance(data, dict) else []
    if unknown:
        raise ValueError(f"{what}: unknown key {brief(unknown[0])}; known: {', '.join(known)}")
    if not isinstance(data, dict) or required not in data:
        raise ValueError(f'{what} needs a JSON object with at least "{required}"')
    return data


def make_sequence(selector: str) -> GammaSeq:
    """Build the sequence named by a selector string (see module docstring)."""
    text = selector.strip()
    if text == "const1":
        return GammaSeq(lambda k: Fraction(1), name="const1")
    if text == "example311":
        return GammaSeq.from_lpplus(example311_spec(), name="example311")
    if text == "besselJ0":
        return GammaSeq.from_ode(BESSEL_J0_ODE, name="besselJ0")
    if text == "exp-half-cosh":
        # sigma = 1/2 and infinitely many zeros; a stress sequence for ratio scans
        return GammaSeq.from_ode(EXP_HALF_COSH_ODE, name="exp-half-cosh")
    if text.startswith("file:"):
        path = text[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            data = _json_object(fh, f"sequence file {path}", "gammas")
        return GammaSeq.from_values(_json_rat_list(data["gammas"], f"'gammas' in {path}"), name=text)
    match = _ARG_FORM.match(text)
    if match:
        head, arg = match.group(1), match.group(2)
        if head == "linear":
            return GammaSeq.linear(parse_rat(arg))
        if head == "geom-factorial":
            return GammaSeq.geometric_factorial(parse_rat(arg))
    raise ValueError(f"unknown sequence selector {brief(selector)}; known: {', '.join(NAMES)}")


def factored_from_json(text: str) -> FactoredSpec:
    """Parse a factored generator from a JSON object string.

    Keys: "sigma" (required, "p/q"), "c" (default "1"), "m" (default 0),
    "zeros" (default [], list of "p/q"); another key, or a key given twice, is
    an error.  "m" and the number of zeros size the generator's polynomial, so
    both are checked by `check_range` before it is multiplied out.
    """
    data = _json_object(io.StringIO(text), "factored generator", "sigma", ("c", "m", "zeros"))
    m = data.get("m", 0)
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f'factored generator: "m" must be an integer, got {_json_kind(m)}')
    c = _json_rat(data.get("c", "1"), 'factored generator: "c"')
    sigma = _json_rat(data["sigma"], 'factored generator: "sigma"')
    zeros = tuple(_json_rat_list(data.get("zeros", []), 'factored generator: "zeros"'))
    check_range('factored generator: "m"', m)
    check_range('factored generator: number of "zeros"', len(zeros))
    return FactoredSpec(c=c, m=m, sigma=sigma, zeros=zeros)
