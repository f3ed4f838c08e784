"""knuthsums: exact-rational verification of Reed Dawson / Knuth-type
binomial and harmonic sum identities.

Everything is computed over arbitrary-precision rationals; the brute-force
finite sum is the universal oracle and closed forms must match it exactly.
"""

from .catalog import DEFAULT_ELL_GRID, REGISTRY, Identity, VerificationReport, run_sweep, verify
from .core import (
    Rational,
    format_rational,
    gbinom,
    harmonic,
    odd_harmonic,
    parse_rational,
    pochhammer,
)
from .gammaprod import Finite, GammaExpr, GammaValue, Irreducible, Pole, Zero, gauss_second_rhs
from .gammaprod import reduce as reduce_gamma
from .hyper import HyperSeries, eval_terminating, kummer_even, kummer_odd_zero, prop2_as_2f1

__all__ = [
    "DEFAULT_ELL_GRID",
    "Finite",
    "GammaExpr",
    "GammaValue",
    "HyperSeries",
    "Identity",
    "Irreducible",
    "Pole",
    "Rational",
    "REGISTRY",
    "VerificationReport",
    "Zero",
    "eval_terminating",
    "format_rational",
    "gauss_second_rhs",
    "gbinom",
    "harmonic",
    "kummer_even",
    "kummer_odd_zero",
    "odd_harmonic",
    "parse_rational",
    "pochhammer",
    "prop2_as_2f1",
    "reduce_gamma",
    "run_sweep",
    "verify",
]
