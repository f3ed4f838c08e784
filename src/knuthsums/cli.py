"""Command-line front end: sweep identity verifications, check WZ
certificates, and list the registry.

Exit codes: 0 when every non-skipped case passes, 1 when any case fails,
2 for configuration errors (unknown or repeated keys, malformed or repeated
rationals, an empty entry in a comma-separated list).
Rationals cross the wire as exact "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from . import catalog
from .catalog import DEFAULT_ELL_GRID, REGISTRY, Identity, VerificationReport, run_sweep
from .core import format_rational, parse_rational

if TYPE_CHECKING:
    from . import wz

TSV_COLUMNS = ("identity", "params", "lhs", "rhs", "status", "micros")


class ConfigError(ValueError):
    pass


def _entries(text: str, flag: str) -> list[str]:
    """The stripped entries of a comma-separated option value: none when
    every entry is blank, a ConfigError naming the first blank entry when
    only some are."""
    entries = [s.strip() for s in text.split(",")]
    if not any(entries):
        return []
    if "" in entries:
        position = entries.index("") + 1
        raise ConfigError(f"{flag} has an empty entry (entry {position} of {text!r})")
    return entries


def _select(selector: str, valid, what: str) -> list[str]:
    """The keys of `valid` named by a comma-separated selector, or all of
    them for "all"."""
    if selector == "all":
        return sorted(valid)
    names = _entries(selector, f"--{what}")
    unknown = [n for n in names if n not in valid]
    if unknown:
        raise ConfigError(
            f"unknown {what} name(s): {', '.join(unknown)}\n"
            f"valid keys: {', '.join(sorted(valid))}"
        )
    if not names:
        raise ConfigError(f"no {what} names given")
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated:
        raise ConfigError(f"--{what} repeats the name {repeated}")
    return names


def _parse_grid(literals: str | None) -> tuple[Fraction, ...]:
    if literals is None:
        return DEFAULT_ELL_GRID
    try:
        values = tuple(parse_rational(s) for s in _entries(literals, "--ell"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not values:
        raise ConfigError("empty --ell grid")
    seen: set[Fraction] = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"--ell repeats the shift {format_rational(value)}")
        seen.add(value)
    return values


def _sweep_grid(args) -> tuple[int, tuple[Fraction, ...]]:
    """The validated --n-max and --ell of a sweeping subcommand."""
    if args.n_max < 0:
        raise ConfigError(f"--n-max must be nonnegative, got {args.n_max}")
    return args.n_max, _parse_grid(args.ell)


@lru_cache(maxsize=256)
def _json_string(text: str) -> str:
    """`text` as the JSON string literal `json.dumps` writes: quoted, and
    escaped to ASCII only when it has to be."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


def _param_fragments(name: str, value: int | Fraction) -> tuple[str, str]:
    """One parameter as a JSON member (`"ell": "1/2"`, `"n": 3`) and as
    compact text (`ell=1/2`)."""
    if isinstance(value, int):
        return f"{_json_string(name)}: {value}", f"{name}={value}"
    text = format_rational(value)
    return f'{_json_string(name)}: "{text}"', f"{name}={text}"


def _rows(reports: Iterable[VerificationReport]) -> Iterator[tuple]:
    """The row form of each report, from which every format is written:
    (identity, params as JSON members, params as compact text, lhs, rhs,
    status, micros, reason), each side as `p/q` text or None.

    Parameter values are memoised by integer pair (no Fraction is hashed),
    and the memo is cleared when full: most x points occur once.
    """
    fragments: dict[tuple, tuple[str, str]] = {}
    for identity, params, lhs, rhs, status, reason, micros in reports:
        members, texts = [], []
        for name, value in params:
            key = (name, value) if isinstance(value, int) else (name, value.numerator, value.denominator)
            pair = fragments.get(key)
            if pair is None:
                if len(fragments) > 1024:
                    fragments.clear()
                pair = fragments[key] = _param_fragments(name, value)
            members.append(pair[0])
            texts.append(pair[1])
        yield (
            identity, ", ".join(members), ";".join(texts),
            None if lhs is None else format_rational(lhs),
            None if rhs is None else format_rational(rhs),
            status, micros, reason,
        )


def _json_lines(rows: Iterable[tuple]) -> Iterator[str]:
    """Each row as the line `json.dumps(report.to_record())` writes, built
    directly: default separators, ASCII only, the record's key order."""
    for identity, members, _, lhs, rhs, status, micros, reason in rows:
        lhs = "null" if lhs is None else f'"{lhs}"'
        rhs = "null" if rhs is None else f'"{rhs}"'
        end = f', "reason": {_json_string(reason)}}}\n' if reason else "}\n"
        yield (
            f'{{"identity": {_json_string(identity)}, "params": {{{members}}}, '
            f'"lhs": {lhs}, "rhs": {rhs}, "status": {_json_string(status)}, '
            f'"micros": {micros}{end}'
        )


def _emit(reports: Iterable[VerificationReport], fmt: str, out) -> dict[str, int]:
    """Write the reports in `fmt` as they come (the summary keeps counts and
    failures only) and return the count of each status."""
    by_name: dict[str, dict[str, int]] = {}

    def tallied():
        for rep in reports:
            by_name.setdefault(rep.identity, {"pass": 0, "fail": 0, "skip": 0})[rep.status] += 1
            yield rep

    if fmt == "json":
        out.writelines(_json_lines(_rows(tallied())))
    elif fmt == "tsv":
        out.write("\t".join(TSV_COLUMNS) + "\n")
        out.writelines(
            f"{identity}\t{text}\t{lhs}\t{rhs}\t{status}\t{micros}\n"
            for identity, _, text, lhs, rhs, status, micros, _ in _rows(tallied())
        )
    else:
        failed = [rep for rep in tallied() if rep.status == "fail"]
    totals = {key: sum(t[key] for t in by_name.values()) for key in ("pass", "fail", "skip")}
    if fmt == "summary":
        width = max(map(len, by_name), default=8)
        out.write(f"{'identity'.ljust(width)}  cases  pass  fail  skip\n")
        for name, t in [*sorted(by_name.items()), ("TOTAL", totals)]:
            out.write(
                f"{name.ljust(width)}  {sum(t.values()):5d}  {t['pass']:4d}  {t['fail']:4d}  {t['skip']:4d}\n"
            )
        out.writelines(
            f"FAIL {identity} [{text}] lhs={lhs} rhs={rhs} {reason}\n"
            for identity, _, text, lhs, rhs, _, _, reason in _rows(failed)
        )
    return totals


def _exit_code(counts: dict[str, int]) -> int:
    if counts["fail"]:
        return 1
    if counts["skip"] and not counts["pass"]:
        print("warning: every case was skipped", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    names = _select(args.identity, REGISTRY, "identity")
    n_max, grid = _sweep_grid(args)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be positive, got {args.jobs}")
    reports = run_sweep(names, n_max, grid, jobs=args.jobs, fail_fast=args.fail_fast)
    return _exit_code(_emit(reports, args.format, sys.stdout))


def _wz_checks(pair: wz.WZPair) -> tuple[Identity, Identity]:
    """One pair's residual check (over the widened k range -1..2n+3) and
    row-sum check, as identities over (n, l)."""
    from . import wz

    return (
        Identity(
            f"wz-{pair.name}-residual",
            "F(n+1,k) - F(n,k) = G(n,k+1) - G(n,k) for k = -1..2n+3",
            ("n", "ell"),
            lambda n, ell: wz.residual_grid(pair, n, ell),
            lambda n, ell: Fraction(0),
        ),
        Identity(
            f"wz-{pair.name}-row-sum",
            "sum_k F(n,k) = 1",
            ("n", "ell"),
            lambda n, ell: wz.row_sum(pair, n, ell),
            lambda n, ell: Fraction(1),
        ),
    )


def _wz_rows(checks: tuple[Identity, ...], n: int, ell: Fraction) -> list[VerificationReport]:
    """The records of one pair's checks at one (n, l)."""
    return [catalog.verify(check, {"n": n, "ell": ell}) for check in checks]


def cmd_wz(args) -> int:
    # imported here, not at module level, so that `verify` never loads wz
    from . import wz

    pairs = wz.certificates()
    names = _select(args.certificate, pairs, "certificate")
    n_max, grid = _sweep_grid(args)
    checks = [_wz_checks(pairs[name]) for name in names]
    reports: list[VerificationReport] = []
    # the case order (pair, l, n) fixes which prefix --fail-fast prints
    for pair_checks, ell, n in itertools.product(checks, grid, range(n_max + 1)):
        rows = _wz_rows(pair_checks, n, ell)
        reports.extend(rows)
        if args.fail_fast and any(r.status == "fail" for r in rows):
            break
    catalog.sort_reports(reports, grid)
    return _exit_code(_emit(reports, args.format, sys.stdout))


def cmd_list(args) -> int:
    import json

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
    # output is exact: a side may have more digits than the 4300 that
    # str(int) allows by default since Python 3.11
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader has gone: flush the rest to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
