"""Smoke test of the benchmark itself, at tiny sizes (about 40 s):

    python3 perfbench/smoke.py

Every workload, traced and untraced, must print every metric that
BENCHMARK.json names, with its unit, and find its outputs correct.  The
checker must reject doctored records (a pass whose sides differ, a passing
negative control, a skip outside the validity-excluded points), which is the
benchmark's own negative control.
"""

from __future__ import annotations

import io
import json
import sys

import checker
import run
import workloads

TINY = {
    "shifted-deep": {"n_max": 6, "shifts": 8},
    "wide-pool": {"n_max": 4, "shifts": 10, "jobs": 2},
    "wz-grid": {"n_max": 4, "shifts": 6},
    "closed-forms": {
        "kummer_n_max": 4, "kummer_a": 6,
        "gauss_n_max": 4, "gauss_b": 6,
        "moment_n_max": 4, "moment_p": 6,
    },
}


def _line(rec: dict) -> bytes:
    return (json.dumps(rec) + "\n").encode()


def check_checker() -> None:
    good = {"identity": "prop1-general-ell", "params": {"n": 2, "ell": "1/3"},
            "lhs": "5/9", "rhs": "5/9", "status": "pass", "micros": 7}
    assert checker.check_output(_line(good), 1).unexpected == 0
    assert checker.check_output(_line(good), 2).unexpected == 1, "missing record not caught"

    doctored = dict(good, rhs="4/9")
    assert checker.check_output(_line(doctored), 1).unexpected == 1, "pass with lhs != rhs accepted"

    row = {"identity": "wz-negative-control-row-sum", "params": {"n": 3, "ell": "1/2"},
           "lhs": "1", "rhs": "1", "status": "pass", "micros": 3}
    assert checker.check_output(_line(row), 1).unexpected == 1, "passing negative control accepted"
    failing = dict(row, lhs="231/16", status="fail")
    assert checker.check_output(_line(failing), 1).unexpected == 0
    at_zero = dict(row, params={"n": 0, "ell": "1/2"})
    assert checker.check_output(_line(at_zero), 1).unexpected == 0, "n = 0 row must pass"
    # C(2n+l, n) = 1 at n = 2, l = -2: the unnormalized row really sums to 1
    assert checker.check_output(_line(dict(row, params={"n": 2, "ell": "-2"})), 1).unexpected == 0

    residual = {"identity": "wz-negative-control-residual", "params": {"n": 1, "ell": "1/2"},
                "lhs": "0", "rhs": "0", "status": "pass", "micros": 3}
    assert checker.check_output(_line(residual), 1).unexpected == 1, "zero control residual accepted"

    # Skips are checked against the identities' domains, both ways.
    skip = dict(good, params={"n": 4, "ell": "-2"}, lhs=None, rhs=None, status="skip")
    assert checker.check_output(_line(skip), 1).unexpected == 0, "expected skip rejected"
    half = dict(skip, params={"n": 4, "ell": "1/2"})
    assert checker.check_output(_line(half), 1).unexpected == 1, "skip at a half-integer accepted"
    no_ell = dict(skip, identity="knuth-old-sum", params={"n": 4})
    assert checker.check_output(_line(no_ell), 1).unexpected == 1, "skip without a shift accepted"
    not_skipped = dict(good, params={"n": 4, "ell": "-2"}, lhs="0", rhs="0")
    assert checker.check_output(_line(not_skipped), 1).unexpected == 1, "pass outside the domain accepted"

    base = b'{"identity": "x", "params": {"n": 1}, "lhs": "1", "rhs": "1", "status": "pass"'
    assert checker.without_micros(base + b', "micros": 12}\n') == checker.without_micros(base + b', "micros": 5}\n')


def check_metrics() -> None:
    spec = run.load_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = run.units(spec, section)
        for name in workloads.WORKLOADS:
            out = io.StringIO()
            argv = ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
            rc = run.main(argv, sizes=TINY, out=out)
            result = json.loads(out.getvalue().splitlines()[-1])
            assert rc == 0 and result["correct"] and result["failed"] == 0, (name, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for metric, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (name, metric)
            print(f"ok {name} trace={trace}: {len(got)} metrics")


def check_seeded_inputs() -> None:
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5), name
        assert workloads.build(name, 5).argv != workloads.build(name, 6).argv, name


def main() -> int:
    check_checker()
    check_seeded_inputs()
    check_metrics()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
