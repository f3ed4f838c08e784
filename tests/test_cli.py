"""CLI behavior: sweeps, exit codes, report formats, and round-tripping."""

import ast
import collections
import dataclasses
import gc
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
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


def _without_micros(out):
    """The JSON records of `out` with their timing, which legitimately varies, dropped."""
    return [{k: v for k, v in json.loads(line).items() if k != "micros"} for line in out.splitlines()]


def _prop1_wrong_at(monkeypatch, n_bad, ell_bad):
    ident = REGISTRY["prop1-general-ell"]

    def rhs(n, ell):
        num, den = ident.rhs(n, ell)
        return num + (n == n_bad and ell == ell_bad) * den, den

    monkeypatch.setitem(REGISTRY, ident.name, dataclasses.replace(ident, rhs=rhs))


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

    # the first failure, in sweep order, is prop1 at n = 5, l = -1/3: the
    # shifts 1/2, 7/5 and 2 come after it in the sorted grid and are never
    # checked, though 7/5 comes before it in the grid as given
    _prop1_wrong_at(monkeypatch, 5, F(-1, 3))
    name = "prop1-general-ell"
    code, full, _ = run_cli(capsys, *argv[:-1])  # the same sweep without --fail-fast
    assert code == 1
    lines = full.splitlines(keepends=True)
    first_fail = next(i for i, line in enumerate(lines) if json.loads(line)["status"] == "fail")
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 1
        expected = [
            (other, p) for other, ident in sorted(REGISTRY.items()) if other < name
            for n in range(13) for p in params(ident, n)
        ]
        expected += [(name, p) for n in range(5) for p in params(REGISTRY[name], n)]
        expected += [(name, {"n": 5, "ell": ell}) for ell in ("-2", "-1/3")]
        assert keys(out) == expected
        assert json.loads(out.splitlines()[-1])["status"] == "fail"
        # the full run's output, cut after its first failing record
        assert _without_micros(out) == _without_micros("".join(lines[: first_fail + 1]))


@pytest.mark.parametrize("fail_fast", [False, True], ids=["whole", "fail-fast"])
@pytest.mark.parametrize("command, selector, keys, extra", [
    ("verify", "--identity", ["prop1-general-ell", "knuth-old-sum", "abel-first"], ["--jobs", "1"]),
    ("verify", "--identity", ["prop1-general-ell", "knuth-old-sum", "abel-first"], ["--jobs", "2"]),
    ("wz", "--certificate", ["prop1", "negative-control"], []),
], ids=["verify-jobs-1", "verify-jobs-2", "wz"])
def test_output_does_not_depend_on_the_order_of_keys_or_shifts(
    capsys, monkeypatch, command, selector, keys, extra, fail_fast
):
    # a grid is a set of sample points: listing its shifts, or the keys, in
    # another order checks the same cases and prints the same records
    shifts = ["7/5", "-1/3", "2", "-2", "1/2"]
    _prop1_wrong_at(monkeypatch, 5, F(-1, 3))  # wz fails on negative-control
    outputs = []
    for keys_order, shifts_order in (
        (list, list),
        (reversed, reversed),
        (sorted, lambda entries: sorted(entries, key=F)),
        (lambda entries: entries[1:] + entries[:1], lambda entries: entries[2:] + entries[:2]),
    ):
        code, out, _ = run_cli(
            capsys, command, f"{selector}={','.join(keys_order(keys))}",
            f"--ell={','.join(shifts_order(shifts))}", "--n-max", "7", "--format", "json",
            *extra, *(["--fail-fast"] if fail_fast else []),
        )
        assert code == 1
        outputs.append(_without_micros(out))
    assert any(r["status"] == "fail" for r in outputs[0])
    assert all(rows == outputs[0] for rows in outputs)


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
        assert format_rational(F(*ident.lhs(**params))) == rec["lhs"]
        assert format_rational(F(*ident.rhs(**params))) == rec["rhs"]


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
@given(st.lists(_REPORTS, max_size=6), st.lists(_PARAM_VALUES, max_size=6))
@example(
    [
        # one shift as an int and as a Fraction: a memo keyed on the value
        # alone would print the second like the first
        VerificationReport("prop1-general-ell", (("n", 2), ("ell", 3)), F(1), F(1), "pass"),
        VerificationReport("prop1-general-ell", (("n", 2), ("ell", F(3))), F(1), None, "fail", "x"),
        VerificationReport("prop1-general-ell", (("n", 3), ("ell", 3)), None, None, "skip", "é\"\n"),
        # an x point at a grid value, and a shift off the grid
        VerificationReport("prop1-general-ell", (("n", 2), ("x", F(3))), None, None, "skip"),
        VerificationReport("prop1-general-ell", (("n", 2), ("ell", F(5, 2))), None, None, "skip"),
    ],
    [3, F(1, 2)],
)
def test_json_lines_match_json_dumps(reports, grid):
    # the grid's shifts are formatted up front and looked up by integer pair
    out = io.StringIO()
    cli._emit(reports, "json", out, grid)
    assert out.getvalue().splitlines(keepends=True) == [
        json.dumps(rep.to_record()) + "\n" for rep in reports
    ]


class _NullSink:
    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_emit_memory_does_not_grow_with_distinct_x_points(fmt):
    # gf-polynomial's x points occur once each: writing 1000 of them must
    # hold no more than writing 100 (a memo of each point's text would hold
    # ~0.2 MB more); the reports are made as they are read
    def peak(points):
        reports = (
            VerificationReport("gf-polynomial", (("n", 7), ("x", F(j, points + 1))), F(j), F(j), "pass")
            for j in range(1, points + 1)
        )
        gc.collect()
        tracemalloc.start()
        try:
            counts = cli._emit(reports, fmt, _NullSink(), (F(1, 2),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts["pass"] == points
        return peak

    peak(100)  # warm the caches that do not grow
    assert peak(1000) - peak(100) < 8 * 1024


def test_wz_writes_each_certificate_before_checking_the_next(monkeypatch):
    # one pair's records are written before the next pair is evaluated, so
    # no more than one pair's reports are held at a time
    out = io.StringIO()
    written_before = {}
    wz_rows = cli._wz_rows

    def recorded(checks, n, ell):
        written_before.setdefault(checks[0].name, out.getvalue())
        return wz_rows(checks, n, ell)

    monkeypatch.setattr(cli, "_wz_rows", recorded)
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main([
        "wz", "--certificate", "prop1,prop2,negative-control", "--n-max", "2",
        "--ell", "1/2,1/3", "--format", "json",
    ])
    assert code == 1
    assert list(written_before) == ["wz-negative-control-residual", "wz-prop1-residual", "wz-prop2-residual"]
    assert written_before["wz-negative-control-residual"] == ""
    first = json.loads(written_before["wz-prop1-residual"].splitlines()[0])
    assert first["identity"] == "wz-negative-control-residual"
    assert written_before["wz-prop1-residual"].count("\n") == 2 * 3 * 2
    assert written_before["wz-prop2-residual"].count("\n") == 2 * 2 * 3 * 2


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit")
def test_main_leaves_the_int_string_limit_as_it_found_it(capsys):
    previous = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 640):
            sys.set_int_max_str_digits(limit)
            code, _, _ = run_cli(capsys, "verify", "--identity", "knuth-old-sum", "--n-max", "2")
            assert code == 0
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int string limit")
def test_ell_literals_beyond_the_int_string_limit_parse(capsys):
    digits = "1" + "0" * 4999 + "1"  # 5001 digits, past the default limit of 4300
    literals = [digits, f"-{digits}/7", f"3/{digits}"]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "prop1-general-ell", "--n-max", "2",
            "--ell", ",".join(literals), "--format", "json",
        )
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3 * len(literals)
    assert all(r["status"] == "pass" for r in records)
    assert {r["params"]["ell"] for r in records} == set(literals)


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


def test_verify_trace_hook_sees_every_case(capsys, monkeypatch):
    # the benchmark times each case through `catalog.verify`; a sweep that
    # called `sweep.verify` directly would leave those per-case spans empty
    from knuthsums import catalog

    calls = collections.Counter()
    verify = catalog.verify

    def counted(ident, params):
        calls[ident.name] += 1
        return verify(ident, params)

    monkeypatch.setattr(catalog, "verify", counted)
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "knuth-old-sum,prop1-general-ell", "--n-max", "3",
        "--ell=-1,1/2", "--format", "json",
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(records) == 4 + 4 * 2
    assert calls == collections.Counter(r["identity"] for r in records)
    calls.clear()
    reports = list(knuthsums.run_sweep(["abel-second", "gf-polynomial"], 3, jobs=1))
    assert calls == collections.Counter(r.identity for r in reports)
    assert calls["gf-polynomial"] == 1 + 3 + 5 + 7


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "knuthsums", "verify", "--identity", "all",
         "--n-max", "30", "--format", "json", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
    )
    assert json.loads(proc.stdout.readline())["identity"] == "abel-first"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


def _child_env() -> dict:
    """The environment of a child that imports the same package as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(knuthsums.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "knuthsums", "verify", "--identity",
         "knuth-old-sum", "--n-max", "10", "--format", "summary"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "TOTAL" in proc.stdout


def _console_script() -> str:
    """The `knuthsums` entry of `[project.scripts]` in pyproject.toml, read
    line by line: `tomllib` is not in Python 3.10's standard library."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    table = None
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as f:
        for line in map(str.strip, f):
            key, _, value = line.partition("=")
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]" and key.strip() == "knuthsums":
                return ast.literal_eval(value.strip())
    raise AssertionError("pyproject.toml declares no `knuthsums` script")


def test_console_script_is_the_process_entry():
    assert _console_script() == "knuthsums.cli:run"


# How each process entry starts: `python -m knuthsums` as runpy runs it, and
# the console script as the wrapper an installer writes for its entry.
LAUNCHES = {
    "module": "runpy.run_module('knuthsums', run_name='__main__', alter_sys=True)\n",
    "console-script": "from {module} import {attr}\nsys.exit({attr}())\n",
}


@pytest.mark.parametrize("launch", sorted(LAUNCHES))
def test_process_entry_freezes_the_import_time_heap(launch):
    # the exit call sees the frozen generation, so none of the run's
    # collections walk the imports; the entry leaves through os._exit, so
    # no atexit hook runs and no collection at shutdown walks them either
    module, attr = _console_script().split(":")
    code = (
        "import gc, os, runpy, sys\n"
        "before = gc.get_freeze_count()\n"
        "def _exit(code, exit=os._exit):\n"
        "    print(before, gc.get_freeze_count(), file=sys.stderr, flush=True)\n"
        "    exit(code)\n"
        "os._exit = _exit\n"
        + LAUNCHES[launch].format(module=module, attr=attr)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--identity", "knuth-old-sum", "--n-max", "10"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "TOTAL" in proc.stdout
    before, after = map(int, proc.stderr.split())
    assert after > before


@pytest.mark.parametrize("launch", sorted(LAUNCHES))
def test_process_entry_delivers_everything_before_it_leaves(launch, capsys, tmp_path):
    # the entry leaves through os._exit, which flushes nothing, runs no
    # atexit hook and joins no process: its output and exit code must be
    # out, and its pool workers joined, by then.  Each run leads a session
    # of its own, so a worker left running would still be in its group.
    module, attr = _console_script().split(":")
    code = "import runpy, sys\n" + LAUNCHES[launch].format(module=module, attr=attr)
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # buffered, output not flushed is lost

    def start(*argv, stdout=subprocess.PIPE):
        return subprocess.Popen(
            [sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE,
            text=True, env=env, start_new_session=True,
        )

    def finish(proc):
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            # the group is empty, or what is left in it is this test's to stop
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                left = False
            else:
                left = True
                proc.wait()
        assert not left, "the entry left processes running in its group"
        return proc.returncode, out, err

    sweep = ("verify", "--identity", "all", "--n-max", "10", "--format", "json")
    _, expected, _ = run_cli(capsys, *sweep)
    assert len(expected) > 64 * 1024  # more than a pipe holds
    # through a pipe and to a file, from the pool, with and without --fail-fast
    returncode, out, err = finish(start(*sweep, "--jobs", "2"))
    assert (returncode, _without_micros(out), err) == (0, _without_micros(expected), "")
    with open(tmp_path / "out.json", "w") as f:
        returncode, _, err = finish(start(*sweep, "--jobs", "2", "--fail-fast", stdout=f))
    out = (tmp_path / "out.json").read_text()
    assert (returncode, _without_micros(out), err) == (0, _without_micros(expected), "")
    # a reader that stops after one line, as `| head -1` does
    proc = start(*sweep, "--jobs", "2")
    assert json.loads(proc.stdout.readline())["identity"] == "abel-first"
    proc.stdout.close()
    returncode, _, err = finish(proc)
    assert (returncode, err) == (1, "")

    # the exit codes, with the summaries and the messages, which hold no timing
    for argv, returncode, message in (
        (("wz", "--certificate", "negative-control", "--n-max", "2"), 1, ""),
        (("verify", "--ell=one"), 2, "error: not an exact rational literal"),
        (("verify", "--identity", "abel-first", "--ell=-1/2", "--n-max", "2"), 0, "warning: every case was skipped"),
    ):
        got = finish(start(*argv))
        assert got == run_cli(capsys, *argv)
        assert got[0] == returncode and got[2].startswith(message)


def test_main_leaves_the_freeze_count_as_it_found_it(capsys):
    before = gc.get_freeze_count()
    for argv in (("verify", "--identity", "knuth-old-sum", "--n-max", "2"), ("list",)):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert gc.get_freeze_count() == before


@pytest.mark.parametrize("fail_fast", [(), ("--fail-fast",)], ids=["all", "fail-fast"])
def test_pooled_process_prints_the_serial_records(fail_fast):
    # pool workers fork from a process whose import-time heap is frozen
    def records(jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "knuthsums", "verify", "--identity", "all", "--n-max", "12",
             "--ell=7/5,-1/3,2,-2,1/2", "--format", "json", "--jobs", jobs, *fail_fast],
            capture_output=True, text=True, env=_child_env(),
        )
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        return proc.returncode, [{k: v for k, v in row.items() if k != "micros"} for row in rows]

    serial = records("1")
    assert serial[0] == 0 and len(serial[1]) > 400
    assert records("2") == serial
