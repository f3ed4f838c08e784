"""The package namespace: submodules load only when they are used."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_closed_form_modules_load_without_the_registry():
    code = (
        "import sys\n"
        "import knuthsums.hyper, knuthsums.gammaprod, knuthsums.legendre\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('knuthsums'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert {"knuthsums.hyper", "knuthsums.gammaprod", "knuthsums.legendre"} <= loaded
    assert not loaded & {"knuthsums.catalog", "knuthsums.abel", "knuthsums.wz"}


def test_namespace_names_resolve_on_first_access():
    import knuthsums
    from knuthsums import REGISTRY, catalog, run_sweep, verify

    assert REGISTRY is catalog.REGISTRY and "knuth-old-sum" in REGISTRY
    assert verify is catalog.verify and run_sweep is catalog.run_sweep
    assert knuthsums.Identity is catalog.Identity
    assert knuthsums.VerificationReport is catalog.VerificationReport
    with pytest.raises(AttributeError):
        knuthsums.nonexistent
