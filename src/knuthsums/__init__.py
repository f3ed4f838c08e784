"""knuthsums: exact-rational verification of Reed Dawson / Knuth-type
binomial and harmonic sum identities.

Everything is computed over arbitrary-precision rationals; the brute-force
finite sum is the universal oracle and closed forms must match it exactly.
The namespace holds the identity registry and its checks; everything
else lives in the submodules.
"""

from .catalog import REGISTRY, Identity, VerificationReport, run_sweep, verify

__all__ = ["REGISTRY", "Identity", "VerificationReport", "run_sweep", "verify"]
