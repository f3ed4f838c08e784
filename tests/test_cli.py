"""CLI behavior: sweeps, exit codes, report formats, and round-tripping."""

import collections
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import knuthsums
from knuthsums import cli, wz
from knuthsums.catalog import REGISTRY
from knuthsums.core import format_rational, parse_rational


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_knuth_full_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum", "--n-max", "50",
        "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 51
    assert all(r["status"] == "pass" for r in records)


def test_verify_with_ell_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "prop1-general-ell", "--n-max", "12",
        "--ell", "1/2,1/3", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 13 * 2
    assert {r["params"]["ell"] for r in records} == {"1/2", "1/3"}


def test_unknown_identity_is_config_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "no-such-name")
    assert code == 2
    assert "knuth-old-sum" in err  # diagnostic names the valid keys


def test_decimal_ell_rejected(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum", "--ell", "0.5"
    )
    assert code == 2
    assert "rational" in err


def test_negative_n_max_rejected(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum", "--n-max", "-3"
    )
    assert code == 2


def test_nonpositive_jobs_rejected(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum", "--jobs", "0"
    )
    assert code == 2
    assert "jobs" in err


def test_sweep_config_is_validated_up_front(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum", "--n-max", "7",
        "--ell", "2/3", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["params"] for r in records] == [{"n": n} for n in range(8)]
    assert all(r["status"] == "pass" for r in records)


def test_empty_selector_is_config_error(capsys):
    for flag, sub in (("--identity", "verify"), ("--certificate", "wz")):
        for selector in (",", ""):
            code, out, err = run_cli(capsys, sub, flag, selector, "--n-max", "1")
            assert code == 2, (sub, selector)
            assert out == ""
            assert "names given" in err


def test_empty_list_entry_is_config_error(capsys):
    # a blank entry among named ones is a typo, not an entry to drop
    for argv, message in (
        (("verify", "--identity", "prop1-general-ell", "--ell=1/2,,1"),
         "--ell has an empty entry (entry 2 of '1/2,,1')"),
        (("verify", "--identity", "prop1-general-ell", "--ell=1/2,1,"),
         "--ell has an empty entry (entry 3 of '1/2,1,')"),
        (("verify", "--identity", "prop1-general-ell,,knuth-old-sum"),
         "--identity has an empty entry (entry 2 of 'prop1-general-ell,,knuth-old-sum')"),
        (("verify", "--identity", ",knuth-old-sum"),
         "--identity has an empty entry (entry 1 of ',knuth-old-sum')"),
        (("wz", "--certificate", "prop1", "--ell=,1/2"),
         "--ell has an empty entry (entry 1 of ',1/2')"),
        (("wz", "--certificate", "prop1, ,prop2"),
         "--certificate has an empty entry (entry 2 of 'prop1, ,prop2')"),
        (("wz", "--certificate", "prop1,"),
         "--certificate has an empty entry (entry 2 of 'prop1,')"),
    ):
        code, out, err = run_cli(capsys, *argv, "--n-max", "1")
        assert code == 2, argv
        assert out == ""
        assert message in err, argv
    # a value with no entries at all keeps its own message
    for sub in ("verify", "wz"):
        for grid in ("", ",", " , "):
            code, out, err = run_cli(capsys, sub, "--n-max", "1", f"--ell={grid}")
            assert (code, out) == (2, ""), (sub, grid)
            assert "empty --ell grid" in err


def test_fail_fast_prefix_and_order_with_unsorted_grid(capsys, monkeypatch):
    argv = ["verify", "--identity", "all", "--n-max", "12", "--ell=7/5,-1/3,2,-2,1/2",
            "--format", "json", "--fail-fast"]
    shifts = ["-2", "-1/3", "1/2", "7/5", "2"]  # the grid, sorted

    def params(ident, n):
        first = ident.param_names[0]
        if "ell" in ident.param_names:
            return [{first: n, "ell": ell} for ell in shifts]
        if "x" in ident.param_names:
            return [{first: n, "x": format_rational(F(j, 2 * n + 1))} for j in range(1, 2 * n + 2)]
        return [{first: n}]

    def keys(out):
        return [(r["identity"], r["params"]) for r in map(json.loads, out.splitlines())]

    # every case passes: the whole sweep, sorted by (identity, n, shift)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert keys(out) == [
        (name, p) for name, ident in sorted(REGISTRY.items())
        for n in range(13) for p in params(ident, n)
    ]

    # the first failure, in sweep order, is prop1 at n = 5, l = 2: the
    # shifts -2 and 1/2 come after it in the grid and are never checked
    ident = REGISTRY["prop1-general-ell"]

    def rhs(n, ell):
        return ident.rhs(n, ell) + (n == 5 and ell == 2)

    monkeypatch.setitem(REGISTRY, "prop1-general-ell", dataclasses.replace(ident, rhs=rhs))
    outputs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 1
        outputs.append(out)
        expected = [
            (name, p) for name, other in sorted(REGISTRY.items()) if name < ident.name
            for n in range(13) for p in params(other, n)
        ]
        expected += [(ident.name, p) for n in range(5) for p in params(ident, n)]
        expected += [(ident.name, {"n": 5, "ell": ell}) for ell in ("-1/3", "7/5", "2")]
        assert keys(out) == expected
        assert json.loads(out.splitlines()[-1])["status"] == "fail"

    def strip_micros(text):
        return [{k: v for k, v in json.loads(line).items() if k != "micros"} for line in text.splitlines()]

    assert strip_micros(outputs[0]) == strip_micros(outputs[1])


def test_repeated_shift_is_config_error(capsys):
    # 2/4 only equals 1/2 once normalised
    for argv in (
        ("verify", "--identity", "prop2-general-ell"),
        ("wz", "--certificate", "prop1"),
    ):
        code, out, err = run_cli(capsys, *argv, "--n-max", "0", "--ell", "1/2,2/4")
        assert code == 2
        assert out == ""
        assert "repeats the shift 1/2" in err


def test_repeated_selector_is_config_error(capsys):
    # a name given twice would check every one of its cases twice
    for argv in (
        ("verify", "--identity", "knuth-old-sum,knuth-old-sum", "--n-max", "1"),
        ("wz", "--certificate", "prop1,prop1", "--n-max", "0", "--ell", "1/2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert f"{argv[1]} repeats the name {argv[2].split(',')[0]}" in err


def test_json_records_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "verify", "--identity", "prop2-general-ell,abel-first",
        "--n-max", "8", "--format", "json",
    )
    for line in out.splitlines():
        rec = json.loads(line)
        ident = REGISTRY[rec["identity"]]
        params = {
            k: v if isinstance(v, int) else parse_rational(v)
            for k, v in rec["params"].items()
        }
        if rec["status"] == "skip":
            assert not ident.validity(**params)
            continue
        assert format_rational(ident.lhs(**params)) == rec["lhs"]
        assert format_rational(ident.rhs(**params)) == rec["rhs"]


def test_output_deterministic_across_jobs(capsys):
    argv = ["verify", "--identity", "knuth-old-sum,abel-second", "--n-max", "15",
            "--format", "tsv"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "3")

    def strip_micros(text):
        rows = [line.split("\t") for line in text.splitlines()]
        return [row[:5] for row in rows]

    assert code1 == code2 == 0
    assert strip_micros(out1) == strip_micros(out2)


def test_skips_reported_not_passed(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "prop1-general-ell", "--n-max", "3",
        "--ell", "-1", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    statuses = {r["params"]["n"]: r["status"] for r in records}
    assert statuses[0] == "pass"  # l = -1 only degenerates once n >= 1
    assert statuses[1] == statuses[2] == statuses[3] == "skip"


def test_summary_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum", "--n-max", "5"
    )
    assert code == 0
    assert "knuth-old-sum" in out and "TOTAL" in out


def test_wz_command_passes_for_registered_certificates(capsys):
    for cert in ("prop1", "prop2"):
        code, out, _ = run_cli(
            capsys, "wz", "--certificate", cert, "--n-max", "6",
            "--ell", "0,1/2,1/3", "--format", "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["status"] == "pass" for r in records)
        kinds = {r["identity"] for r in records}
        assert kinds == {f"wz-{cert}-residual", f"wz-{cert}-row-sum"}


def test_wz_negative_control_fails(capsys):
    code, out, _ = run_cli(
        capsys, "wz", "--certificate", "negative-control", "--n-max", "4",
        "--ell", "1/2", "--format", "json",
    )
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert any(r["status"] == "fail" and "residual" in r["identity"] for r in records)
    assert any(r["status"] == "fail" and "row-sum" in r["identity"] for r in records)


def test_wz_fail_fast_stops_early(capsys):
    code, out, _ = run_cli(
        capsys, "wz", "--certificate", "negative-control", "--n-max", "30",
        "--ell", "1/2", "--format", "json", "--fail-fast",
    )
    assert code == 1
    # the first case (n = 0) already fails: both of its records, nothing more
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["identity"], r["params"], r["status"]) for r in records] == [
        ("wz-negative-control-residual", {"n": 0, "ell": "1/2"}, "fail"),
        ("wz-negative-control-row-sum", {"n": 0, "ell": "1/2"}, "pass"),
    ]
    assert records[0]["reason"] == "lhs != rhs"


def test_wz_rows_report_evaluator_errors():
    def broken(*args):
        raise ValueError("synthetic failure")

    pair = wz.WZPair("broken", broken, broken, broken, lambda n, ell: True, broken)
    rows = cli._wz_rows(cli._wz_checks(pair), 1, F(1, 2))
    assert [(r.identity, r.status) for r in rows] == [
        ("wz-broken-residual", "fail"),
        ("wz-broken-row-sum", "fail"),
    ]
    assert all(r.reason == "evaluator error: synthetic failure" for r in rows)


def test_wz_trace_hooks_fire(capsys, monkeypatch):
    # the benchmark's traced run replaces these names in place; a wz path
    # that bypasses them would silently drop its per-layer split
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    certificates = wz.certificates
    monkeypatch.setattr(wz, "certificates", lambda: {
        name: dataclasses.replace(pair, F=counted("F", pair.F), G=counted("G", pair.G))
        for name, pair in certificates().items()
    })
    monkeypatch.setattr(cli, "_wz_rows", counted("_wz_rows", cli._wz_rows))
    monkeypatch.setattr(wz, "wz_residual", counted("wz_residual", wz.wz_residual))
    code, out, _ = run_cli(capsys, "wz", "--n-max", "2", "--ell", "1/2")
    assert code == 1  # the negative control fails
    assert calls["_wz_rows"] == 3 * 3  # once per (pair, n, l)
    assert calls["wz_residual"] and calls["F"] and calls["G"]


def test_benchmark_trace_hooks_exist(monkeypatch):
    # the benchmark's traced run replaces these names; deleting one would
    # pass every other test and crash only that run
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    )
    import tracing
    from knuthsums import catalog, core, gammaprod, hyper, legendre

    hooked = [(core, name) for name in tracing.CORE_FUNCTIONS] + [
        (cli, "_wz_rows"), (cli, "run_sweep"), (catalog, "verify"),
        (wz, "wz_residual"), (wz, "certificates"),
        (hyper, "eval_terminating"), (gammaprod, "reduce"),
        (legendre, "moment"), (legendre, "moment_by_expansion"), (legendre, "shifted_legendre"),
    ]
    for module, name in hooked:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for ident in REGISTRY.values():
        dataclasses.replace(ident, lhs=ident.lhs, rhs=ident.rhs, validity=ident.validity)
    for pair in wz.certificates().values():
        dataclasses.replace(pair, F=pair.F, G=pair.G)


def test_wz_boundary_pole_is_a_reasoned_skip(capsys):
    # at l = -1 the companion's boundary factor 2n+l+1 vanishes for n = 0
    code, out, _ = run_cli(
        capsys, "wz", "--certificate", "prop1", "--ell=-1", "--n-max", "3",
        "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 8
    skipped = [r for r in records if r["status"] == "skip"]
    assert [(r["identity"], r["params"]["n"]) for r in skipped] == [("wz-prop1-residual", 0)]
    assert "1+l vanishes" in skipped[0]["reason"]
    assert all(r["status"] == "pass" for r in records if r not in skipped)


def test_all_skipped_warning_goes_to_stderr(capsys):
    for argv in (
        ("verify", "--identity", "abel-first", "--ell=-1/2", "--n-max", "2"),
        ("wz", "--certificate", "prop2", "--ell=-1"),
    ):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(r["status"] == "skip" for r in records)
        assert "every case was skipped" in err


def test_wz_unknown_certificate(capsys):
    code, _, err = run_cli(capsys, "wz", "--certificate", "prop99")
    assert code == 2
    assert "prop1" in err


def test_list_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "corollary-odd-harmonic" in out
    assert len(out.strip().splitlines()) == len(REGISTRY)

    code, out, _ = run_cli(capsys, "list", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == len(REGISTRY)
    assert {e["name"] for e in entries} == set(REGISTRY)


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(knuthsums.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "knuthsums", "verify", "--identity",
         "knuth-old-sum", "--n-max", "10", "--format", "summary"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "TOTAL" in proc.stdout
