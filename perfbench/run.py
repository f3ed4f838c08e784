"""The knuthsums benchmark: runs one workload (or all of them), checks every
output, and prints each metric by name with its unit.

    python3 perfbench/run.py --workload wide-pool --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 28 [--trace 1]

With `--workload`, the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with `--trace 0`, its `per_layer` metrics with `--trace 1`.
The exit code is nonzero when any output is wrong.

The program runs from this checkout's `src/` (nothing needs installing) and
is driven from outside: one process per run of a workload, timed from
launch to exit, with peak RSS taken over the process and its pool workers.
The times are scaled by the speed of the machine at the moment, which a
reference computation run between them gauges (see `measure_end_to_end`).
Tracing is off for the end-to-end metrics; the traced run (tracing.py)
gives the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_ROUNDS = 9  # fewest rounds in an end-to-end measurement
# Reported times are scaled to a machine that runs reference.py in this
# time: a round figure within the 0.2-0.34 s that the reference took on the
# machine the benchmark was defined on (2 vCPUs, Python 3.11).
REFERENCE_S = 0.25
DEADLINE_S = 170  # every process started is killed after this long


@dataclass
class Launch:
    wall_s: float
    peak_rss_mb: float
    rc: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts program processes one at a time from this checkout's sources,
    through spawner.py, with a scratch directory that is removed when the
    runner closes."""

    def __init__(self) -> None:
        self.scratch = tempfile.TemporaryDirectory(prefix=".bench_run-", dir=ROOT)
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def close(self, abort: bool = False) -> None:
        """Stops the spawner; with `abort`, also the run it is waiting for."""
        if abort:
            self.spawner.terminate()
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        self.scratch.cleanup()

    def path(self, name: str) -> str:
        return os.path.join(self.scratch.name, name)

    def launch(self, argv) -> Launch:
        """Run `python3 argv...` to exit.  Its rusage, from wait4, covers
        the pool workers it reaped, so ru_maxrss is the peak RSS over all
        of them."""
        out, err = self.path("stdout"), self.path("stderr")
        timeout = self.deadline - time.monotonic()
        self.spawner.stdin.write(json.dumps([[sys.executable, *argv], out, err, timeout]) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process died")
        wall, maxrss_kb, status = json.loads(reply)
        with open(out, "rb") as f_out, open(err, "rb") as f_err:
            return Launch(wall, maxrss_kb / 1024, os.waitstatus_to_exitcode(status), f_out.read(), f_err.read())


@dataclass
class Outcome:
    tally: checker.Tally  # every unexpected outcome of the measurement
    metrics: dict[str, float]

    @property
    def correct(self) -> bool:
        return self.tally.unexpected == 0


def check_rc(wl: workloads.Workload, run: Launch, tally: checker.Tally) -> None:
    if run.rc != wl.expected_rc:
        tally.unexpected += 1
        sys.stderr.write(f"{wl.name}: exit code {run.rc}, expected {wl.expected_rc}\n")
        sys.stderr.write(run.stderr.decode(errors="replace")[-2000:])


def check_launch(wl: workloads.Workload, run: Launch, tally: checker.Tally) -> None:
    tally.add(checker.check_output(run.stdout, wl.expected_records))
    check_rc(wl, run, tally)


def measure_end_to_end(runner: Runner, wl: workloads.Workload, seconds: float) -> Outcome:
    """Runs the reference (reference.py), the workload's smallest-input twin
    (set-up time) and the workload in turn, for at least MIN_ROUNDS rounds
    and until `seconds` have passed, with one more reference run at the end.

    Each time is scaled to the machine's speed at the moment it was taken:
    divided by the mean of the reference runs just before and just after
    it, and multiplied by REFERENCE_S; a metric is the median of the scaled
    times.  On a shared virtual machine the speed of one command changes by
    up to half for a minute or more at a time, more than a measurement
    lasts.  Over five 28-s measurements of wz-grid the median run was 0.56 s
    in two and 0.77-0.84 s in three, and the set-up time moved with it
    (0.12 s against 0.15-0.16 s).  Scaled, the median of 20-run windows
    varied by 1-2% from window to window (quartile distance over median)
    against 6-11% unscaled.  The reference runs code of its own, so no
    change to the program moves it.  `peak_rss_mb`, which speed does not
    move, is the median as measured."""
    tally = checker.Tally()
    runner.launch(wl.setup_argv)  # writes bytecode caches
    reference = [run_reference(runner)]
    setup: list[Launch] = []
    runs: list[Launch] = []
    start = time.perf_counter()
    while len(runs) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup.append(runner.launch(wl.setup_argv))
        check_rc(wl, setup[-1], tally)
        runs.append(runner.launch(wl.argv))
        check_launch(wl, runs[-1], tally)
        reference.append(run_reference(runner))
    if wl.pool_argv is not None:
        # Output must not depend on --jobs: compare once per measurement.
        pooled = runner.launch(wl.pool_argv)
        check_rc(wl, pooled, tally)
        if checker.without_micros(pooled.stdout) != checker.without_micros(runs[0].stdout):
            sys.stderr.write(f"{wl.name}: --jobs {wl.jobs} output differs from the --jobs 1 output\n")
            tally.unexpected += 1
    around = [(before + after) / 2 for before, after in zip(reference, reference[1:])]
    wall = REFERENCE_S * statistics.median(r.wall_s / ref for r, ref in zip(runs, around))
    unscaled = [statistics.median(r.wall_s for r in launches) for launches in (runs, setup)]
    sys.stderr.write(
        f"{wl.name}: {len(runs)} rounds; unscaled medians: wall {unscaled[0]:.4f} s, "
        f"set-up {unscaled[1]:.4f} s, reference {statistics.median(reference):.4f} s\n"
    )
    cases = tally.cases / len(runs)
    return Outcome(tally, {
        "wall_s": wall,
        "cases_per_s": cases / wall,
        "setup_s": REFERENCE_S * statistics.median(r.wall_s / ref for r, ref in zip(setup, around)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "failed_share": tally.unexpected / max(tally.attempted, 1),
    })


def run_reference(runner: Runner) -> float:
    """The wall time of one run of reference.py."""
    run = runner.launch((str(HERE / "reference.py"),))
    if run.rc != 0:
        sys.stderr.write(run.stderr.decode(errors="replace")[-2000:])
        raise SystemExit(f"error: the reference computation failed with exit code {run.rc}")
    return run.wall_s


def traced_argv(runner: Runner, wl: workloads.Workload, argv, tag: str):
    spans, records = runner.path(f"{tag}.spans.json"), runner.path(f"{tag}.records.jsonl")
    rest = argv[2:] if wl.kind != "closed-forms" else ("closed-forms", *argv[1:])
    return (str(HERE / "tracing.py"), spans, records, *rest), spans, records


def traced_launch(runner: Runner, wl: workloads.Workload, argv, tag: str, tally: checker.Tally):
    """A traced run of `argv`: its launch, its span aggregates and the
    tally of its records, which is also added to `tally`."""
    full, spans_path, records_path = traced_argv(runner, wl, argv, tag)
    run = runner.launch(full)
    if run.rc != 0:
        sys.stderr.write(run.stderr.decode(errors="replace")[-2000:])
        raise SystemExit(f"{wl.name}: traced run failed with exit code {run.rc}")
    with open(spans_path) as f:
        spans = json.load(f)
    with open(records_path, "rb") as f:
        got = checker.check_output(f.read(), wl.expected_records)
    tally.add(got)
    if spans["rc"] != wl.expected_rc:
        tally.unexpected += 1
    return run, spans, got


def _span(trace: dict, name: str, field: str) -> float:
    return trace["spans"].get(name, {}).get(field, 0)


def _percentile_us(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1e6 if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(wl, main: dict, pool: dict | None, got, untraced: Launch) -> dict:
    """Per-layer metrics from the traced run of the workload (`main`) and,
    for a workload with a pool variant, the traced run of that (`pool`)."""
    m: dict[str, float] = {}
    for fn in ("gbinom", "falling", "pochhammer", "harmonic", "odd_harmonic"):
        m[f"core.{fn}.calls"] = _span(main, f"core.{fn}", "calls")
        m[f"core.{fn}.self_s"] = _span(main, f"core.{fn}", "self_s")
    for ident in workloads.IDENTITIES:
        for side in ("lhs", "rhs", "validity"):
            m[f"catalog.{ident}.{side}_s"] = _span(main, f"catalog.{ident}.{side}", "total_s")
    m["catalog.skipped_share"] = got.skipped / max(got.attempted, 1) if wl.kind == "verify" else 0.0
    cases = main["samples"]["catalog.verify"]
    m["catalog.verify.overhead_s"] = _span(main, "catalog.verify", "self_s")
    m["catalog.verify.case_p50_us"] = _percentile_us(cases, 50)
    m["catalog.verify.case_p99_us"] = _percentile_us(cases, 99)
    m["catalog.verify.case_samples"] = len(cases)
    serial_wall = _span(main, "catalog.run_sweep", "total_s")
    pool_wall = _span(pool, "catalog.run_sweep", "total_s") if pool else 0.0
    m["catalog.run_sweep.overhead_s"] = _span(main, "catalog.run_sweep", "self_s")
    m["catalog.run_sweep.pool_overhead_s"] = pool_wall - serial_wall / wl.jobs if pool_wall else 0.0
    m["catalog.run_sweep.speedup"] = serial_wall / pool_wall if pool_wall else 0.0
    # the CLI's wall minus its sweep: run_sweep for verify, the rows for wz
    work = serial_wall if wl.kind == "verify" else _span(main, "wz.row_sum", "total_s")
    m["cli.emit_s"] = _span(main, "cli.main", "total_s") - work
    m["cli.output_bytes"] = len(untraced.stdout)
    for fn in ("wz_residual", "F", "G"):
        m[f"wz.{fn}.calls"] = _span(main, f"wz.{fn}", "calls")
        m[f"wz.{fn}.self_s"] = _span(main, f"wz.{fn}", "self_s")
    m["wz.row_sum.self_s"] = _span(main, "wz.row_sum", "self_s")
    m["wz.retained_mb"] = main.get("retained_bytes", 0) / 2**20
    for name in ("gammaprod.reduce", "hyper.eval_terminating"):
        m[f"{name}.calls"] = _span(main, name, "calls")
        m[f"{name}.self_s"] = _span(main, name, "self_s")
    for fn in ("moment", "moment_by_expansion", "shifted_legendre"):
        m[f"legendre.{fn}.self_s"] = _span(main, f"legendre.{fn}", "self_s")
    return m


def measure_per_layer(runner: Runner, wl: workloads.Workload, seconds: float) -> Outcome:
    """Alternates an untraced and a traced run of the workload until
    `seconds` have passed.  Each metric is the median over the rounds (the
    lower median, so that counts stay whole); the tracing overhead compares
    the median traced run with the median untraced one, as `wall_s` is
    taken."""
    tally = checker.Tally()
    rounds: list[dict] = []
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    runner.launch(wl.setup_argv)  # writes bytecode caches
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        untraced = runner.launch(wl.argv)
        check_launch(wl, untraced, tally)
        run, main, got = traced_launch(runner, wl, wl.argv, "main", tally)
        pool = None
        if wl.pool_argv is not None:
            _, pool, _ = traced_launch(runner, wl, wl.pool_argv, "pool", tally)
        rounds.append(layer_metrics(wl, main, pool, got, untraced))
        walls["untraced"].append(untraced.wall_s)
        walls["traced"].append(run.wall_s)
    metrics = {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
    metrics["trace.overhead_share"] = (
        statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1
    )
    return Outcome(tally, metrics)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def units(spec: dict, section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[section]}


# Reported by --all beside the end-to-end metrics.  BENCHMARK.json leaves it
# out because it is 0 on a correct program; the result line carries the
# same information as `failed` over `attempted`.
EXTRA_UNITS = {"failed_share": "ratio"}


def check_checkout() -> None:
    if not (SRC / "knuthsums" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'knuthsums'}; run from a full checkout")
    if not SPEC_PATH.is_file():
        raise SystemExit(f"error: {SPEC_PATH} is missing")


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.SIZES) -> Outcome:
    wl = workloads.build(name, seed, sizes)
    runner = Runner()
    try:
        measure = measure_per_layer if trace else measure_end_to_end
        outcome = measure(runner, wl, seconds)
    except BaseException:
        runner.close(abort=True)
        raise
    runner.close()
    return outcome


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Run the knuthsums benchmark.")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_one, which stops the spawner


def main(argv=None, sizes=workloads.SIZES, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    check_checkout()
    spec = load_spec()
    wanted = units(spec, "per_layer" if args.trace else "end_to_end")
    if args.all:
        if not args.trace:
            wanted = {**wanted, **EXTRA_UNITS}
        correct = True
        for name in workloads.WORKLOADS:
            outcome = run_one(name, args.seed, args.seconds, bool(args.trace), sizes)
            correct = correct and outcome.correct
            for metric, unit in wanted.items():
                out.write(f"{name}\t{metric}\t{outcome.metrics[metric]!r}\t{unit}\n")
            out.flush()
        return 0 if correct else 1
    outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    result = {
        "correct": outcome.correct,
        "attempted": max(outcome.tally.attempted, 1),
        "failed": outcome.tally.unexpected,
        "metrics": {
            metric: {"value": outcome.metrics[metric], "unit": unit}
            for metric, unit in wanted.items()
        },
    }
    out.write(json.dumps(result) + "\n")
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
