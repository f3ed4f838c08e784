"""The package namespace and its module boundaries: submodules load only
when they are used, no module reaches into core's private names, every
function is reached by a CLI run or tabled with the reason it is not, and
the README's library examples run as written."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(code: str) -> str:
    """The stdout of a fresh interpreter running code."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _added_by(code: str) -> set[str]:
    """The modules a fresh interpreter adds while running code. What its
    start-up loaded is left out: a `site` or a .pth file may import, say,
    `inspect` before the package does anything."""
    code = "import sys\n_before = set(sys.modules)\n" + code
    code += "\nprint(' '.join(sorted(set(sys.modules) - _before)))\n"
    return set(_python(code).splitlines()[-1].split())


def _loaded_after(code: str) -> set[str]:
    """The knuthsums modules a fresh interpreter holds after running code."""
    return {m for m in _added_by(code) if m.startswith("knuthsums")}


def _cli_run(*argv: str) -> str:
    """Code that runs `python -m knuthsums argv` in process, output dropped.
    The entry leaves through `os._exit`, which here raises SystemExit, so
    the code after this runs."""
    return (
        "import contextlib, io, os, runpy, sys\n"
        f"sys.argv = ['knuthsums', *{list(argv)!r}]\n"
        "def _exit(code):\n"
        "    raise SystemExit(code)\n"
        "os._exit = _exit\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('knuthsums', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, 1), exc.code\n"
    )


def test_closed_form_modules_load_without_the_registry():
    loaded = _loaded_after("import knuthsums.hyper, knuthsums.gammaprod, knuthsums.legendre")
    assert {"knuthsums.hyper", "knuthsums.gammaprod", "knuthsums.legendre"} <= loaded
    assert not loaded & {"knuthsums.catalog", "knuthsums.abel", "knuthsums.wz"}


def test_namespace_names_resolve_on_first_access():
    import knuthsums
    from knuthsums import REGISTRY, catalog, run_sweep, sweep, verify

    assert REGISTRY is catalog.REGISTRY and "knuth-old-sum" in REGISTRY
    assert verify is catalog.verify is sweep.verify
    assert run_sweep is catalog.run_sweep is sweep.run_sweep
    assert knuthsums.Identity is catalog.Identity is sweep.Identity
    assert knuthsums.VerificationReport is catalog.VerificationReport is sweep.VerificationReport
    with pytest.raises(AttributeError):
        knuthsums.nonexistent


def test_verify_loads_neither_wz_nor_gammaprod():
    loaded = _loaded_after(_cli_run("verify", "--identity", "all", "--n-max", "2"))
    assert {"knuthsums.cli", "knuthsums.sweep", "knuthsums.catalog", "knuthsums.legendre"} <= loaded
    assert not loaded & {"knuthsums.wz", "knuthsums.gammaprod"}


def test_wz_loads_no_gammaprod():
    loaded = _loaded_after(_cli_run("wz", "--n-max", "1"))
    assert "knuthsums.wz" in loaded
    assert "knuthsums.gammaprod" not in loaded


def test_wz_loads_no_registry():
    # a wz run builds its own identities: the twelve registered ones and
    # the modules behind them would only be compiled and never read
    loaded = _loaded_after(_cli_run("wz", "--n-max", "1"))
    assert {"knuthsums.cli", "knuthsums.sweep", "knuthsums.wz"} <= loaded
    assert not loaded & {"knuthsums.catalog", "knuthsums.abel", "knuthsums.legendre"}


def test_sweep_loads_only_core():
    # the case model knows no identity: the registry is read when a sweep starts
    loaded = _loaded_after("import knuthsums.sweep")
    assert loaded == {"knuthsums", "knuthsums.sweep", "knuthsums.core"}


def test_closed_forms_load_no_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, which
    # would dominate the start-up of a closed-forms run
    code = "import knuthsums.hyper, knuthsums.gammaprod, knuthsums.legendre\nknuthsums.legendre.moment(1, 1)"
    assert not _added_by(code) & {"dataclasses", "inspect"}


def test_verify_and_wz_runs_load_no_json():
    # `verify` and `wz` write their JSON lines themselves
    for argv in (
        ("verify", "--identity", "knuth-old-sum", "--n-max", "1", "--format", "json"),
        ("wz", "--certificate", "prop1", "--n-max", "1", "--format", "json"),
    ):
        loaded = _added_by(_cli_run(*argv))
        assert not {m for m in loaded if m.split(".")[0] == "json"}, argv


def test_list_prints_json():
    # `list` is the one subcommand that imports json
    from knuthsums.catalog import REGISTRY

    code = (
        "import runpy, sys\n"
        "sys.argv = ['knuthsums', 'list', '--format', 'json']\n"
        "try:\n"
        "    runpy.run_module('knuthsums', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    entries = json.loads(_python(code))
    assert [e["name"] for e in entries] == sorted(REGISTRY)
    assert all(e["params"] == list(REGISTRY[e["name"]].param_names) for e in entries)


def test_readme_python_examples_run():
    # every fenced python block of README.md, in process, so that its
    # "Library use" cannot drift from the API
    readme = Path(SRC).parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text("utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(readme), "exec"), {})


def test_moment_loads_gammaprod_on_first_call():
    from knuthsums import legendre

    points = [(1, 1), (F(-1, 2), 0), (F(-1, 2), 3), (2, 5), (F(1, 3), 4), (F(7, 2), 6)]
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from knuthsums import legendre\n"
        "assert 'knuthsums.gammaprod' not in sys.modules\n"
        f"for p, n in {[(str(p), n) for p, n in points]!r}:\n"
        "    print(repr(legendre.moment(Fraction(p), n)))\n"
    )
    assert _python(code).splitlines() == [repr(legendre.moment(F(p), n)) for p, n in points]


def _module_trees() -> dict[str, ast.Module]:
    """The parsed source of every module of the package, by module name."""
    return {path.stem: ast.parse(path.read_text("utf-8")) for path in Path(SRC, "knuthsums").glob("*.py")}


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a module or a statement reads, imports or takes as an
    attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _small(argv, cap=3):
    """argv with every --n-max and --*-n-max value capped at cap."""
    argv = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag.endswith("n-max"):
            argv[i + 1] = str(min(int(argv[i + 1]), cap))
    return argv


def _code(member):
    """The code object of a function, of the one an lru_cache wraps, or None."""
    return getattr(getattr(member, "__wrapped__", member), "__code__", None)


def _definitions():
    """{code object or class: "module.qualname"} for every top-level
    function and class of the package and every function a class body
    defines, but for dunders other than __init__, which Python's protocols
    (equality, hashing, printing, pickling, module attributes) call."""
    import knuthsums

    package = Path(knuthsums.__file__).parent
    found = {}
    for path in package.glob("*.py"):
        if path.stem == "__main__":
            continue  # importing it runs the process entry
        module = importlib.import_module("knuthsums" if path.stem == "__init__" else f"knuthsums.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from another module, or not a definition
            for member in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                code = _code(member)
                if isinstance(member, type):
                    target, name = member, member.__name__
                elif code is not None and Path(code.co_filename).parent == package:
                    target, name = code, code.co_name  # not a method dataclasses or NamedTuple made
                else:
                    continue
                if name == "__init__" or not (name.startswith("__") and name.endswith("__")):
                    found[target] = f"{path.stem}.{getattr(member, '__wrapped__', member).__qualname__}"
    return found


# What the CLI and the closed-forms driver never reach, each with the
# ROADMAP item that gives it a path or removes it, or why no run here can
# reach it
UNREACHED = {
    "core.Record._values": "Record equality and hashing: library API, which the README documents",
    "core.falling": "item 7: tracing.CORE_FUNCTIONS",
    "core.gbinom": "item 7: tracing.CORE_FUNCTIONS",
    "core.harmonic": "item 7: tracing.CORE_FUNCTIONS",
    "core.odd_harmonic": "item 7: tracing.CORE_FUNCTIONS",
    "core.pochhammer": "item 7: tracing.CORE_FUNCTIONS",
    "gammaprod.Irreducible.__init__": "item 4: no closed form on a registered grid is irreducible",
    "hyper.prop2_as_2f1": "item 4",
    "sweep.VerificationReport.to_record": "item 5: the library's record, which cli._json_lines writes itself",
    "cli.run": "the process entry, which tests/test_cli.py runs in child processes",
    "sweep._pool_map": "--jobs 2, which tests/test_cli.py runs; worker processes are out of this trace",
}


def test_every_package_function_is_reached_or_tabled(monkeypatch):
    # the golden CLI runs at small sizes, serial, the CLI paths the goldens
    # skip (list, --fail-fast) and the closed-forms driver on tiny draws,
    # traced in process: what none of them calls is code that no identity,
    # check or CLI path needs, unless UNREACHED says why
    from test_golden import CLOSED_FORMS, GOLDEN, PERFBENCH, TEXT_GOLDEN

    from knuthsums import cli

    monkeypatch.syspath_prepend(PERFBENCH)
    import closed_forms

    definitions = _definitions()
    for name, module in list(sys.modules.items()):
        if name.startswith("knuthsums"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()  # a warm cache would not call its function
    runs = [_small(argv) for argv, _, _ in GOLDEN + TEXT_GOLDEN]
    runs = [argv + ["--jobs", "1"] if argv[0] == "verify" else argv for argv in runs]
    runs += [["list"], ["list", "--format", "json"], ["verify", "--n-max", "1", "--fail-fast"]]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for argv in runs]
        codes.append(closed_forms.main(_small(CLOSED_FORMS[0]), out))
    finally:
        sys.setprofile(None)
    assert set(codes) <= {0, 1}, codes
    # a class is reached when code that ran reads its name or calls one of
    # its functions, and so are its bases
    names = set().union(*(code.co_names for code in reached))
    classes = [target for target in definitions if isinstance(target, type)]
    live = {cls for cls in classes if cls.__name__ in names or reached.intersection(map(_code, vars(cls).values()))}
    reached |= {base for cls in live for base in cls.__mro__}
    unreached = [name for target, name in definitions.items() if target not in reached]
    assert sorted(unreached) == sorted(UNREACHED)


def test_no_module_reads_a_private_name_of_core():
    # the binomial row layout of the shifted family is known to core alone
    private = []
    for module, tree in _module_trees().items():
        if module == "core":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("core", "knuthsums.core"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "core":
                names = [node.attr]
            else:
                continue
            private += [(module, name) for name in names if name.startswith("_")]
    assert private == []


def test_the_shifted_closed_forms_are_built_in_core_alone():
    # prop1's and prop2's closed forms are written once, as core.prop1_closed
    # and prop2_closed: the registry's RHSs, abel-first and the WZ
    # normalisations read them and build no binomial pair of their own
    trees = _module_trees()
    assert {module for module, tree in trees.items() if "gbinom_pair" in _names_read(tree)} == {"core"}
    readers = {module for module, tree in trees.items() if "prop1_closed" in _names_read(tree)}
    assert readers == {"catalog", "abel", "wz"}


INTERPRETER_WIDE = {
    ("gc", "freeze"), ("gc", "disable"), ("gc", "enable"), ("gc", "set_threshold"),
    ("sys", "set_int_max_str_digits"),
}


def test_only_the_process_entry_sets_interpreter_wide_state():
    # tests and the benchmark's tracer call cli.main in process, so only
    # the process entry, `__main__` and cli.run, may change the collector
    # or the int limit
    found = []
    for module, tree in _module_trees().items():
        for statement in tree.body:
            owner = statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(statement):
                if isinstance(node, ast.ImportFrom) and node.module in ("gc", "sys"):
                    found += [(module, owner, f"{node.module}.{alias.name}") for alias in node.names
                              if (node.module, alias.name) in INTERPRETER_WIDE]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    target = (ast.unparse(node.func.value), node.func.attr)
                    if target in INTERPRETER_WIDE:
                        found.append((module, owner, ".".join(target)))
    assert sorted(found) == [
        ("__main__", None, "gc.disable"), ("cli", "run", "gc.enable"), ("cli", "run", "gc.freeze"),
    ]
