"""Command-line front end: sweep identity verifications, check WZ
certificates, and list the registry.

Exit codes: 0 when every non-skipped case passes, 1 when any case fails,
2 for configuration errors (unknown identity keys, malformed rationals).
Rationals cross the wire as exact "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import wz
from .catalog import DEFAULT_ELL_GRID, REGISTRY, VerificationReport, run_sweep
from .core import parse_rational

TSV_COLUMNS = ("identity", "params", "lhs", "rhs", "status", "micros")


@dataclass(frozen=True)
class SweepConfig:
    """A validated verification sweep: which identities, how far, over which
    exact shift grid, and how to report."""

    identities: tuple[str, ...]
    n_max: int
    ell_grid: tuple[Fraction, ...]
    fmt: str = "summary"
    fail_fast: bool = False
    jobs: int = 1


class ConfigError(ValueError):
    pass


def _resolve_identities(selector: str) -> list[str]:
    if selector == "all":
        return sorted(REGISTRY)
    names = [s.strip() for s in selector.split(",") if s.strip()]
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ConfigError(
            f"unknown identity name(s): {', '.join(unknown)}\n"
            f"valid keys: {', '.join(sorted(REGISTRY))}"
        )
    if not names:
        raise ConfigError("no identity names given")
    return names


def _parse_grid(literals: str | None) -> tuple[Fraction, ...]:
    if literals is None:
        return DEFAULT_ELL_GRID
    try:
        values = tuple(parse_rational(s) for s in literals.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not values:
        raise ConfigError("empty --ell grid")
    return values


def _params_compact(rec: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in rec["params"].items())


def _emit(reports: list[VerificationReport], fmt: str, out) -> None:
    records = [r.to_record() for r in reports]
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
        return
    if fmt == "tsv":
        out.write("\t".join(TSV_COLUMNS) + "\n")
        for rec in records:
            row = (
                rec["identity"],
                _params_compact(rec),
                str(rec["lhs"]),
                str(rec["rhs"]),
                rec["status"],
                str(rec["micros"]),
            )
            out.write("\t".join(row) + "\n")
        return
    # summary
    by_name: dict[str, dict[str, int]] = {}
    for rec in records:
        tally = by_name.setdefault(rec["identity"], {"pass": 0, "fail": 0, "skip": 0})
        tally[rec["status"]] += 1
    width = max((len(n) for n in by_name), default=8)
    out.write(f"{'identity'.ljust(width)}  cases  pass  fail  skip\n")
    totals = {"pass": 0, "fail": 0, "skip": 0}
    for name in sorted(by_name):
        t = by_name[name]
        cases = sum(t.values())
        out.write(
            f"{name.ljust(width)}  {cases:5d}  {t['pass']:4d}  {t['fail']:4d}  {t['skip']:4d}\n"
        )
        for key in totals:
            totals[key] += t[key]
    out.write(
        f"{'TOTAL'.ljust(width)}  {sum(totals.values()):5d}  {totals['pass']:4d}  "
        f"{totals['fail']:4d}  {totals['skip']:4d}\n"
    )
    for rec in records:
        if rec["status"] == "fail":
            out.write(
                f"FAIL {rec['identity']} [{_params_compact(rec)}] "
                f"lhs={rec['lhs']} rhs={rec['rhs']} {rec.get('reason', '')}\n"
            )


def _exit_code(reports: list[VerificationReport]) -> int:
    statuses = [r.status for r in reports]
    if "fail" in statuses:
        return 1
    if statuses and all(s == "skip" for s in statuses):
        print("warning: every case was validity-skipped", file=sys.stderr)
    return 0


def sweep_config_from_args(args) -> SweepConfig:
    if args.n_max < 0:
        raise ConfigError(f"--n-max must be nonnegative, got {args.n_max}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be positive, got {args.jobs}")
    return SweepConfig(
        identities=tuple(_resolve_identities(args.identity)),
        n_max=args.n_max,
        ell_grid=_parse_grid(args.ell),
        fmt=args.format,
        fail_fast=args.fail_fast,
        jobs=args.jobs,
    )


def run_config(config: SweepConfig) -> list[VerificationReport]:
    return run_sweep(
        list(config.identities),
        config.n_max,
        config.ell_grid,
        jobs=config.jobs,
        fail_fast=config.fail_fast,
    )


def cmd_verify(args) -> int:
    config = sweep_config_from_args(args)
    reports = run_config(config)
    _emit(reports, config.fmt, sys.stdout)
    return _exit_code(reports)


def _wz_rows(
    pair: wz.WZPair, n: int, ell: Fraction
) -> list[VerificationReport]:
    """Residual record (over the widened k range -1..2n+3) plus the row-sum
    record for one (n, ell)."""
    params = (("n", n), ("ell", ell))
    rows: list[VerificationReport] = []
    zero = Fraction(0)
    start = time.perf_counter_ns()
    try:
        bad = zero
        for k in range(-1, 2 * n + 4):
            r = wz.wz_residual(pair, n, k, ell)
            if r != 0:
                bad = r
                break
        micros = (time.perf_counter_ns() - start) // 1000
        status = "pass" if bad == 0 else "fail"
        rows.append(
            VerificationReport(
                f"wz-{pair.name}-residual", params, bad, zero, status,
                "" if status == "pass" else "nonzero residual", micros,
            )
        )
    except wz.CertificateDenominatorZero as exc:
        micros = (time.perf_counter_ns() - start) // 1000
        rows.append(
            VerificationReport(
                f"wz-{pair.name}-residual", params, None, None, "skip",
                f"certificate denominator zero: {exc}", micros,
            )
        )
    start = time.perf_counter_ns()
    try:
        if not pair.defined(n, ell):
            raise wz.CertificateDenominatorZero(f"undefined at n={n}, l={ell}")
        total = sum((pair.F(n, k, ell) for k in pair.support(n)), zero)
        micros = (time.perf_counter_ns() - start) // 1000
        status = "pass" if total == 1 else "fail"
        rows.append(
            VerificationReport(
                f"wz-{pair.name}-row-sum", params, total, Fraction(1), status,
                "" if status == "pass" else "row sum differs from 1", micros,
            )
        )
    except wz.CertificateDenominatorZero as exc:
        micros = (time.perf_counter_ns() - start) // 1000
        rows.append(
            VerificationReport(
                f"wz-{pair.name}-row-sum", params, None, None, "skip",
                f"certificate denominator zero: {exc}", micros,
            )
        )
    return rows


def cmd_wz(args) -> int:
    pairs = wz.certificates()
    if args.certificate == "all":
        chosen = sorted(pairs)
    else:
        chosen = [s.strip() for s in args.certificate.split(",") if s.strip()]
        unknown = [c for c in chosen if c not in pairs]
        if unknown:
            raise ConfigError(
                f"unknown certificate(s): {', '.join(unknown)}; valid: {', '.join(sorted(pairs))}"
            )
    grid = _parse_grid(args.ell)
    if args.n_max < 0:
        raise ConfigError(f"--n-max must be nonnegative, got {args.n_max}")
    reports: list[VerificationReport] = []
    stop = False
    for name in chosen:
        for ell in grid:
            for n in range(args.n_max + 1):
                rows = _wz_rows(pairs[name], n, ell)
                reports.extend(rows)
                if args.fail_fast and any(r.status == "fail" for r in rows):
                    stop = True
                    break
            if stop:
                break
        if stop:
            break
    reports.sort(key=lambda r: (r.identity, tuple(v for _, v in r.params)))
    _emit(reports, args.format, sys.stdout)
    return _exit_code(reports)


def cmd_list(args) -> int:
    entries = [
        {
            "name": name,
            "summary": ident.summary,
            "params": list(ident.param_names),
        }
        for name, ident in sorted(REGISTRY.items())
    ]
    if args.format == "json":
        json.dump(entries, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        width = max(len(e["name"]) for e in entries)
        for e in entries:
            sys.stdout.write(f"{e['name'].ljust(width)}  {e['summary']}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knuthsums",
        description="Exact verification of Reed Dawson / Knuth-type sum identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep identities over a parameter grid")
    p_verify.add_argument("--identity", default="all", help="comma-separated keys, or 'all'")
    p_verify.add_argument("--n-max", type=int, default=20)
    p_verify.add_argument("--ell", default=None, help="comma-separated exact rationals p/q")
    p_verify.add_argument("--format", choices=("json", "tsv", "summary"), default="summary")
    p_verify.add_argument("--fail-fast", action="store_true")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_wz = sub.add_parser("wz", help="check WZ certificates: residual grid and row sums")
    p_wz.add_argument("--certificate", default="all", help="prop1, prop2, negative-control or 'all'")
    p_wz.add_argument("--n-max", type=int, default=10)
    p_wz.add_argument("--ell", default=None)
    p_wz.add_argument("--format", choices=("json", "tsv", "summary"), default="summary")
    p_wz.add_argument("--fail-fast", action="store_true")
    p_wz.set_defaults(func=cmd_wz)

    p_list = sub.add_parser("list", help="list registered identities")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
