"""Command-line front end: sweep identity verifications, check WZ
certificates, and list the registry.

Exit codes: 0 when every non-skipped case passes, 1 when any case fails,
2 for configuration errors (unknown or repeated keys, malformed or repeated
rationals, an empty entry in a comma-separated list, a negative --n-max,
--jobs below 1).
Rationals cross the wire as exact "p/q" strings, never floats.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import format_rational, parse_rational
from .sweep import DEFAULT_ELL_GRID, Identity, VerificationReport, run_sweep, verify

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


def _fraction_fragments(name: str, value: Fraction) -> tuple[str, str]:
    """A Fraction parameter as a JSON member (`"ell": "1/2"`) and as
    compact text (`ell=1/2`)."""
    text = format_rational(value)
    return f'{_json_string(name)}: "{text}"', f"{name}={text}"


def _rows(reports: Iterable[VerificationReport], grid: Iterable[Fraction] = ()) -> Iterator[tuple]:
    """The row form of each report, from which every format is written:
    (identity, params as JSON members, params as compact text, lhs, rhs,
    status, micros, reason), each side as `p/q` text or None.  A passing
    report holds one Fraction as both sides, which is formatted once.

    Each shift of the run's `grid` is formatted once, up front, and looked
    up by integer pair (no Fraction is hashed); an int parameter (`n`,
    `"n": 3`), an x point and a shift off the grid are formatted where they
    occur, so what is kept does not grow with the number of reports.
    """
    shifts = {(ell.numerator, ell.denominator): _fraction_fragments("ell", ell) for ell in grid}
    for identity, params, lhs, rhs, status, reason, micros in reports:
        members, texts = [], []
        for name, value in params:
            if isinstance(value, int):
                member, text = f"{_json_string(name)}: {value}", f"{name}={value}"
            else:
                member, text = (
                    name == "ell" and shifts.get((value.numerator, value.denominator))
                ) or _fraction_fragments(name, value)
            members.append(member)
            texts.append(text)
        lhs_text = None if lhs is None else format_rational(lhs)
        rhs_text = lhs_text if rhs is lhs else None if rhs is None else format_rational(rhs)
        yield identity, ", ".join(members), ";".join(texts), lhs_text, rhs_text, status, micros, reason


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


def _emit(
    reports: Iterable[VerificationReport], fmt: str, out, grid: Iterable[Fraction] = ()
) -> dict[str, int]:
    """Write the reports in `fmt` as they come (the summary keeps counts and
    failures only) and return the count of each status.  `grid` is the
    run's shift grid, whose values are formatted once."""
    by_name: dict[str, dict[str, int]] = {}

    def tallied():
        for rep in reports:
            by_name.setdefault(rep.identity, {"pass": 0, "fail": 0, "skip": 0})[rep.status] += 1
            yield rep

    if fmt == "json":
        out.writelines(_json_lines(_rows(tallied(), grid)))
    elif fmt == "tsv":
        out.write("\t".join(TSV_COLUMNS) + "\n")
        out.writelines(
            f"{identity}\t{text}\t{lhs}\t{rhs}\t{status}\t{micros}\n"
            for identity, _, text, lhs, rhs, status, micros, _ in _rows(tallied(), grid)
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
            for identity, _, text, lhs, rhs, _, _, reason in _rows(failed, grid)
        )
    return totals


def _exit_code(counts: dict[str, int]) -> int:
    if counts["fail"]:
        return 1
    if counts["skip"] and not counts["pass"]:
        print("warning: every case was skipped", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    # imported here, not at module level, so that `wz` never loads the registry
    from .catalog import REGISTRY

    names = _select(args.identity, REGISTRY, "identity")
    n_max, grid = _sweep_grid(args)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be positive, got {args.jobs}")
    reports = run_sweep(names, n_max, grid, jobs=args.jobs, fail_fast=args.fail_fast)
    return _exit_code(_emit(reports, args.format, sys.stdout, grid))


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
            lambda n, ell: (0, 1),
        ),
        Identity(
            f"wz-{pair.name}-row-sum",
            "sum_k F(n,k) = 1",
            ("n", "ell"),
            lambda n, ell: wz.row_sum(pair, n, ell),
            lambda n, ell: (1, 1),
        ),
    )


def _wz_rows(checks: tuple[Identity, ...], n: int, ell: Fraction) -> list[VerificationReport]:
    """The records of one pair's checks at one (n, l)."""
    return [verify(check, {"n": n, "ell": ell}) for check in checks]


def cmd_wz(args) -> int:
    """Check the selected pairs at every (n, l) and write the records in
    `verify`'s order: by check, then n, then shift, all ascending.

    The pairs run one at a time, in name order, which is the order of
    their check names: a pair's cases run (l, n), so that the row bundles
    of n and n+1 at one shift meet in turn in `wz._rows`' cache, and its
    records are sorted and written before the next pair runs.  So the
    reports held at once are one pair's, and the prefix that --fail-fast
    prints does not depend on the order the pairs or shifts were listed in.
    """
    # imported here, not at module level, so that `verify` never loads wz
    from . import wz

    pairs = wz.certificates()
    names = _select(args.certificate, pairs, "certificate")
    n_max, grid = _sweep_grid(args)
    shifts = sorted(grid)

    def reports() -> Iterator[VerificationReport]:
        for name in sorted(names):
            checks = _wz_checks(pairs[name])
            block: list[VerificationReport] = []
            failed = False
            for ell, n in itertools.product(shifts, range(n_max + 1)):
                rows = _wz_rows(checks, n, ell)
                block.extend(rows)
                failed = args.fail_fast and any(r.status == "fail" for r in rows)
                if failed:
                    break
            # stable: within one (check, n) the shifts keep their ascending order
            block.sort(key=lambda rep: (rep.identity, rep.params[0][1]))
            yield from block
            if failed:
                return

    return _exit_code(_emit(reports(), args.format, sys.stdout, grid))


def cmd_list(args) -> int:
    import json

    from .catalog import REGISTRY

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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader has gone: flush the rest to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def run() -> None:
    """The process entry: freeze the import-time heap, which lives until
    exit, so no collection walks it, and turn the collector back on
    (`python -m knuthsums` turns it off while the package imports).  Then
    run `main`, flush its output and leave with its code through
    `os._exit`, which skips the interpreter's teardown of that heap and
    every atexit hook.  An exception out of `main`, argparse's SystemExit
    included, takes the normal exit path."""
    gc.freeze()
    gc.enable()
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
