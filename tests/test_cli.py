"""CLI behavior: sweeps, exit codes, report formats, and round-tripping."""

import collections
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knuthsums
from knuthsums import cli, wz
from knuthsums.catalog import REGISTRY, VerificationReport
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


def test_non_ascii_digits_are_config_error(capsys):
    # `\d` alone matches the Arabic-Indic digits of `٣/٤`, which Fraction
    # reads as 3/4
    for literal in ("٣/٤", "1/٤", "３", "-٣"):
        with pytest.raises(ValueError):
            parse_rational(literal)
    for sub in ("verify", "wz"):
        code, out, err = run_cli(capsys, sub, "--n-max", "1", "--ell=1/2,٣/٤", "--format", "json")
        assert (code, out) == (2, ""), sub
        assert "not an exact rational literal" in err and "٣/٤" in err


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


# reports as `catalog.verify` builds them and beyond: any identity text,
# int and Fraction values for the usual parameter names (few distinct ones,
# so that values repeat across reports), sides that are None or not, every
# status, and reasons that need JSON escapes
_PARAM_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
_REPORTS = st.builds(
    VerificationReport,
    identity=st.one_of(st.sampled_from(sorted(REGISTRY)), st.text()),
    params=st.lists(
        st.tuples(st.sampled_from(("n", "m", "ell", "x")), _PARAM_VALUES),
        min_size=1, max_size=3, unique_by=lambda param: param[0],
    ).map(tuple),
    lhs=st.one_of(st.none(), st.fractions()),
    rhs=st.one_of(st.none(), st.fractions()),
    status=st.sampled_from(("pass", "fail", "skip")),
    reason=st.one_of(
        st.sampled_from(
            ("", "lhs != rhs", 'evaluator error: "q"', "a \\ b", "two\nlines", "ℓ = ½", "\x7f\t")
        ),
        st.text(),
    ),
    micros=st.integers(min_value=0, max_value=10**9),
)


@settings(max_examples=120)
@given(st.lists(_REPORTS, max_size=6))
@example([
    # one shift as an int and as a Fraction: a memo keyed on the value alone
    # would print the second like the first
    VerificationReport("prop1-general-ell", (("n", 2), ("ell", 3)), F(1), F(1), "pass"),
    VerificationReport("prop1-general-ell", (("n", 2), ("ell", F(3))), F(1), None, "fail", "x"),
    VerificationReport("prop1-general-ell", (("n", 3), ("ell", 3)), None, None, "skip", "é\"\n"),
])
def test_json_lines_match_json_dumps(reports):
    out = io.StringIO()
    cli._emit(reports, "json", out)
    assert out.getvalue().splitlines(keepends=True) == [
        json.dumps(rep.to_record()) + "\n" for rep in reports
    ]


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit")
@pytest.mark.parametrize("status", ["pass", "fail"])
@pytest.mark.parametrize("fmt", ["json", "tsv", "summary"])
def test_sides_beyond_the_int_string_limit_are_written(capsys, monkeypatch, fmt, status):
    # str(int) refuses more than 4300 digits by default (Python 3.11), and
    # a sweep such as gf-polynomial at n = 800 has sides that long: the
    # output must still be written whole, after the sweep has finished
    side = F(10**5000 + 1, 7)
    digits = "1" + "0" * 4999 + "1"  # its numerator, written without str(int)
    report = VerificationReport(
        "knuth-old-sum", (("n", 800),), side, side if status == "pass" else side + 1, status,
        "" if status == "pass" else "lhs != rhs",
    )
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: [report])
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever ran before
    try:
        code, out, _ = run_cli(capsys, "verify", "--identity", "knuth-old-sum", "--format", fmt)
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == (0 if status == "pass" else 1)
    if fmt == "json":
        assert json.loads(out)["lhs"] == f"{digits}/7"
    elif fmt == "tsv":
        assert out.splitlines()[1].split("\t")[2] == f"{digits}/7"
    else:
        assert "TOTAL" in out
        assert (f"lhs={digits}/7 " in out) == (status == "fail")


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_pipe_exits_quietly(jobs):
    # the reader stops after one line, as `| head -1` does, while the sweep
    # still has far more than a pipe's buffer to write
    src = os.path.dirname(os.path.dirname(knuthsums.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "knuthsums", "verify", "--identity", "all",
         "--n-max", "30", "--format", "json", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(proc.stdout.readline())["identity"] == "abel-first"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


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
