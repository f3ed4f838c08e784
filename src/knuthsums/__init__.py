"""knuthsums: exact-rational verification of Reed Dawson / Knuth-type
binomial and harmonic sum identities.

Everything is computed over arbitrary-precision rationals; the brute-force
finite sum is the universal oracle and closed forms must match it exactly.
The namespace holds the identity registry and its checks; everything
else lives in the submodules.  Nothing is imported up front: the names
below are read from `catalog` on first access (PEP 562), so importing one
submodule, say `knuthsums.hyper`, loads only what that submodule needs.
"""

__all__ = ["REGISTRY", "Identity", "VerificationReport", "run_sweep", "verify"]


def __getattr__(name: str):
    if name in __all__:
        from . import catalog

        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
