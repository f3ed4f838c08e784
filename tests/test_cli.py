"""CLI behavior: sweeps, exit codes, report formats, and round-tripping."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import knuthsums
from knuthsums import cli
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


def test_sweep_config_is_validated_up_front():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["verify", "--identity", "knuth-old-sum", "--n-max", "7", "--ell", "2/3"]
    )
    config = cli.sweep_config_from_args(args)
    assert config.identities == ("knuth-old-sum",)
    assert config.ell_grid == (F(2, 3),)
    reports = cli.run_config(config)
    assert len(reports) == 8 and all(r.passed for r in reports)


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
        lhs, rhs = ident.evaluate(**params)
        assert format_rational(lhs) == rec["lhs"]
        assert format_rational(rhs) == rec["rhs"]


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
    assert len(out.splitlines()) < 20


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
        assert "every case was validity-skipped" in err


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
