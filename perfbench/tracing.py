"""Traced run of one workload: wraps the package's public functions with
span timers, runs the workload in this process, and writes the aggregates.

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json RECORDS.jsonl verify ...  # CLI arguments
    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json RECORDS.jsonl wz ...      # CLI arguments
    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json RECORDS.jsonl closed-forms ...

Nothing in the package is edited.  A module that binds a primitive with
`from .core import gbinom` holds its own reference, so each importing
module's name is replaced.  `verify` and `wz` run through `cli.main`, with
`wz.certificates()` returning pairs whose F and G are wrapped.

Spans are aggregated per name in memory (calls, inclusive and self time,
where self time is a span's duration minus what its direct child spans
cover) and written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import json
import sys
import time
from fractions import Fraction

from knuthsums import abel, catalog, cli, core, gammaprod, hyper, legendre, wz

import closed_forms

CORE_FUNCTIONS = ("gbinom", "falling", "pochhammer", "harmonic", "odd_harmonic")
CORE_IMPORTERS = (core, catalog, abel, wz, hyper, legendre)


class Tracer:
    """Per-name span aggregates, with individual durations kept for the
    names listed in `sampled`."""

    def __init__(self, sampled=()) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.samples: dict[str, list[float]] = {name: [] for name in sampled}
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return traced

    def patch(self, module, attr: str, name: str) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            },
            "samples": self.samples,
        }


def install_core(tracer: Tracer) -> None:
    for fn in CORE_FUNCTIONS:
        original = getattr(core, fn)
        wrapped = tracer.wrap(f"core.{fn}", original)
        for module in CORE_IMPORTERS:
            if getattr(module, fn, None) is original:
                setattr(module, fn, wrapped)


def run_cli(tracer: Tracer, argv: list[str], sink) -> int:
    main = tracer.wrap("cli.main", cli.main)
    with contextlib.redirect_stdout(sink):
        return main(argv)


def run_verify(tracer: Tracer, argv: list[str], sink) -> dict:
    for name, ident in list(catalog.REGISTRY.items()):
        catalog.REGISTRY[name] = dataclasses.replace(
            ident,
            lhs=tracer.wrap(f"catalog.{name}.lhs", ident.lhs),
            rhs=tracer.wrap(f"catalog.{name}.rhs", ident.rhs),
            validity=tracer.wrap(f"catalog.{name}.validity", ident.validity),
        )
    tracer.patch(catalog, "verify", "catalog.verify")
    tracer.patch(cli, "run_sweep", "catalog.run_sweep")
    return {"rc": run_cli(tracer, argv, sink)}


def run_wz(tracer: Tracer, argv: list[str], sink) -> dict:
    """`cmd_wz` takes its pairs from `wz.certificates()`, so the pairs it
    gets carry wrapped F and G.  The span `wz.row_sum` is `cli._wz_rows`,
    whose self time is the row sum and record building: all of it but its
    `wz_residual` and F calls."""
    certificates = wz.certificates

    def traced_certificates():
        return {
            name: dataclasses.replace(pair, F=tracer.wrap("wz.F", pair.F), G=tracer.wrap("wz.G", pair.G))
            for name, pair in certificates().items()
        }

    wz.certificates = traced_certificates
    tracer.patch(wz, "wz_residual", "wz.wz_residual")
    tracer.patch(cli, "_wz_rows", "wz.row_sum")
    return {"rc": run_cli(tracer, argv, sink), "retained_bytes": cache_bytes(wz)}


def run_closed_forms(tracer: Tracer, argv: list[str], sink) -> dict:
    tracer.patch(hyper, "eval_terminating", "hyper.eval_terminating")
    tracer.patch(gammaprod, "reduce", "gammaprod.reduce")
    for fn in ("moment", "moment_by_expansion", "shifted_legendre"):
        tracer.patch(legendre, fn, f"legendre.{fn}")
    return {"rc": closed_forms.main(argv, out=sink)}


def deep_size(obj, seen: set[int]) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_size(k, seen) + deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (tuple, list)):
        size += sum(deep_size(item, seen) for item in obj)
    elif isinstance(obj, Fraction):
        size += deep_size(obj.numerator, seen) + deep_size(obj.denominator, seen)
    return size


def cache_bytes(module) -> int:
    """Bytes held by the `functools.lru_cache` tables of `module`'s
    functions: keys, results and the rationals inside them."""
    seen: set[int] = set()
    total = 0
    for fn in vars(module).values():
        if not hasattr(fn, "cache_info"):
            continue
        for ref in gc.get_referents(fn):
            if isinstance(ref, dict) and ref is not getattr(fn, "__dict__", None):
                total += deep_size(ref, seen)
    return total


RUNNERS = {"verify": run_verify, "wz": run_wz, "closed-forms": run_closed_forms}


def main(argv: list[str]) -> int:
    spans_path, records_path, kind, *rest = argv
    tracer = Tracer(sampled=("catalog.verify",))
    install_core(tracer)
    args = rest if kind == "closed-forms" else [kind, *rest]
    with open(records_path, "w") as sink:
        extra = RUNNERS[kind](tracer, args, sink)
    with open(spans_path, "w") as out:
        json.dump({**tracer.summary(), **extra}, out)
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
