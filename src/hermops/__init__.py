"""Exact diagonal differential operators on generalized Hermite bases.

The package works entirely over the rationals: a polynomial is integer
numerators over one denominator, and sequence entries and operator data are
`fractions.Fraction` values, so every check is an exact identity rather than
a floating-point comparison.
"""

from .classify import (
    FALSIFIED,
    INCONCLUSIVE,
    IS_MS,
    NOT_MS,
    HermiteBasis,
    LaguerreBasis,
    Verdict,
    Witness,
    check_turan_necessity,
    coefficient_reality_table,
    falsify_sequence,
    is_classical_ms,
    is_hermite_ms,
    ratio_limit_check,
)
from .diffop import (
    TruncationError,
    apply_operator,
    build_operator,
    coefficient_polynomial,
    interpolation_poly,
    solve_operator_from_action,
)
from .hermite import hermite_polys
from .jensen import (
    DifferenceTable,
    FactoredSpec,
    GammaSeq,
    ratio_sequence,
    turan_quantity,
)
from .laguerre import laguerre_polys
from .ratpoly import RatPoly, count_real_roots, is_real_rooted, rat, rat_str
from .reporting import CheckReport
from .sequences import make_sequence

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DifferenceTable",
    "FALSIFIED",
    "FactoredSpec",
    "GammaSeq",
    "HermiteBasis",
    "INCONCLUSIVE",
    "IS_MS",
    "LaguerreBasis",
    "NOT_MS",
    "RatPoly",
    "TruncationError",
    "Verdict",
    "Witness",
    "apply_operator",
    "build_operator",
    "check_turan_necessity",
    "coefficient_polynomial",
    "coefficient_reality_table",
    "count_real_roots",
    "falsify_sequence",
    "hermite_polys",
    "interpolation_poly",
    "is_classical_ms",
    "is_hermite_ms",
    "is_real_rooted",
    "laguerre_polys",
    "make_sequence",
    "rat",
    "rat_str",
    "ratio_limit_check",
    "ratio_sequence",
    "solve_operator_from_action",
    "turan_quantity",
]
