"""knuthsums: exact-rational verification of Reed Dawson / Knuth-type
binomial and harmonic sum identities.

Everything is computed over arbitrary-precision rationals; the brute-force
finite sum is the universal oracle and closed forms must match it exactly.
The namespace holds the identity registry and its checks; everything
else lives in the submodules.  Nothing is imported up front: the names
below are read on first access (PEP 562), `REGISTRY` from `catalog` and
the case model and the sweep from `sweep`, so importing one submodule,
say `knuthsums.hyper`, loads only what that submodule needs.
"""

__all__ = ["REGISTRY", "Identity", "VerificationReport", "run_sweep", "verify"]


def __getattr__(name: str):
    if name == "REGISTRY":
        from .catalog import REGISTRY

        return REGISTRY
    if name in __all__:
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
