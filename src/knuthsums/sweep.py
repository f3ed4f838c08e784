"""The case model and the one sweep path: an `Identity` names a pair of
evaluators over a parameter space, `iter_cases` lists its cases, `verify`
checks one case exactly into a `VerificationReport`, and `run_sweep` checks
every case of the named identities of the registry.

This module knows no identity.  `run_sweep` reads `catalog.REGISTRY` and
`catalog._verify_case` when it is called, so `wz`, which builds identities
of its own, loads no registry, and a tracer or a test that replaces
`catalog.verify` or an entry of the registry sees every case of a sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .core import CertificateDenominatorZero, as_rational, format_rational

# Mixes integers, half-integers and generic rationals; identities skip the
# grid points their validity predicate excludes.
DEFAULT_ELL_GRID: tuple[Fraction, ...] = (
    Fraction(-1, 3),
    Fraction(-1, 4),
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 5),
)


@dataclass(frozen=True)
class Identity:
    """A named pair of evaluators over a parameter space.

    The space follows from param_names: one integer parameter is swept
    0..n_max; a second parameter "ell" crosses it with the rational shift
    grid, and a second parameter "x" with a per-n set of 2n+1 rational
    sample points, enough to pin down a degree-2n polynomial identity.

    `verify` calls lhs, rhs and validity with the values of a case
    positionally, in param_names order.  Each side returns its value as an
    unreduced integer pair (numerator, denominator), the denominator of
    either sign; a zero denominator is an evaluator error.
    """

    name: str
    summary: str
    param_names: tuple[str, ...]
    lhs: Callable[..., tuple[int, int]]
    rhs: Callable[..., tuple[int, int]]
    validity: Callable[..., bool] = field(default=lambda *values: True)


class VerificationReport(NamedTuple):
    """Outcome of one (identity, parameter assignment) check."""

    identity: str
    params: tuple[tuple[str, int | Fraction], ...]
    lhs: Fraction | None
    rhs: Fraction | None
    status: str  # "pass" | "fail" | "skip"
    reason: str = ""
    micros: int = 0

    def to_record(self) -> dict:
        params = {
            name: value if isinstance(value, int) else format_rational(value)
            for name, value in self.params
        }
        rec = {
            "identity": self.identity,
            "params": params,
            "lhs": None if self.lhs is None else format_rational(self.lhs),
            "rhs": None if self.rhs is None else format_rational(self.rhs),
            "status": self.status,
            "micros": self.micros,
        }
        if self.reason:
            rec["reason"] = self.reason
        return rec


def iter_cases(
    ident: Identity, n_max: int, ell_grid: tuple[Fraction, ...] = DEFAULT_ELL_GRID
) -> Iterator[dict]:
    """All parameter assignments for a sweep up to n_max (validity-excluded
    points are still yielded; verify() reports them as skipped)."""
    first, *rest = ident.param_names
    if rest not in ([], ["ell"], ["x"]):
        raise ValueError(f"no parameter space for parameters {ident.param_names}")
    for n in range(n_max + 1):
        if rest == ["ell"]:
            for ell in ell_grid:
                yield {first: n, "ell": ell}
        elif rest == ["x"]:
            for j in range(1, 2 * n + 2):
                yield {first: n, "x": Fraction(j, 2 * n + 1)}
        else:
            yield {first: n}


def verify(ident: Identity, params: dict) -> VerificationReport:
    """Evaluate both sides on one parameter assignment and compare exactly.

    The sides' integer pairs are compared by cross-multiplication, and only
    the LHS is reduced: a passing case reports that one Fraction as both
    sides, and a failing one reduces its RHS on its own.  Validity-excluded
    cases are reported as skipped, never as passes, and so is a WZ
    certificate whose denominator vanishes at the case; other evaluator
    errors, a zero denominator on either side among them, become failures
    carrying the error text.
    """
    values = tuple(params[name] for name in ident.param_names)
    flat = tuple(zip(ident.param_names, values))
    if not ident.validity(*values):
        return VerificationReport(ident.name, flat, None, None, "skip", "validity excluded")
    start = time.perf_counter_ns()
    try:
        num, den = ident.lhs(*values)
        rhs_num, rhs_den = ident.rhs(*values)
        lhs = Fraction(num, den)
        # with both denominators nonzero, equal cross products mean equal
        # values; a zero RHS denominator makes Fraction raise
        rhs = lhs if rhs_den and num * rhs_den == rhs_num * den else Fraction(rhs_num, rhs_den)
    except Exception as exc:  # captured, not propagated: the report is the API
        micros = (time.perf_counter_ns() - start) // 1000
        if isinstance(exc, CertificateDenominatorZero):
            status, reason = "skip", f"certificate denominator zero: {exc}"
        else:
            status, reason = "fail", f"evaluator error: {exc}"
        return VerificationReport(ident.name, flat, None, None, status, reason, micros)
    micros = (time.perf_counter_ns() - start) // 1000
    if rhs is lhs:
        return VerificationReport(ident.name, flat, lhs, rhs, "pass", "", micros)
    return VerificationReport(ident.name, flat, lhs, rhs, "fail", "lhs != rhs", micros)


def run_sweep(
    names: list[str],
    n_max: int,
    ell_grid: tuple[Fraction, ...] = DEFAULT_ELL_GRID,
    jobs: int = 1,
    fail_fast: bool = False,
) -> Iterator[VerificationReport]:
    """Verify every case of the named registry identities, as an iterator
    of reports in (identity, n, shift) order whatever jobs is.  The cases
    are evaluated in that order too, the serial path as the iterator is
    read, so with fail_fast the reports are the cases through the first
    failure.

    A shift may be any exact type `core.as_rational` takes; it is swept,
    and reported, as a Fraction.  At the call, unknown names raise KeyError,
    a float shift or a non-int n_max or jobs TypeError, and a name or a
    shift given twice, a negative n_max or a jobs below 1 ValueError.
    """
    if not (isinstance(n_max, int) and isinstance(jobs, int)):
        raise TypeError(f"n_max and jobs must be ints, got {n_max!r} and {jobs!r}")
    if n_max < 0 or jobs < 1:
        raise ValueError(f"n_max must be nonnegative and jobs positive, got {n_max} and {jobs}")
    # read here, not at import: `wz` runs load no registry, and each case
    # goes through `catalog.verify`, which a tracer may have replaced
    from . import catalog

    registry = catalog.REGISTRY
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(f"unknown identities: {', '.join(unknown)}; valid keys: {', '.join(sorted(registry))}")
    names = sorted(names)
    grid = sorted(Fraction(as_rational(ell)) for ell in ell_grid)
    # a name or a shift given twice would check each of its cases twice
    for what, values in (("identity", names), ("shift", grid)):
        repeat = next((b for a, b in zip(values, values[1:]) if a == b), None)
        if repeat is not None:
            raise ValueError(f"the {what} {repeat} is given twice")
    cases = (
        (name, params)
        for name in names
        for params in iter_cases(registry[name], n_max, grid)
    )
    # a pool forks all its workers at the first submit: ask for no more
    # than there are cases, nor than the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1)
    if workers > 1:
        cases = list(cases)  # pool.map submits them all at once anyway
        workers = min(workers, len(cases))
    verify_case = catalog._verify_case
    # a generator on either path, so that the caller can close() it
    results = _pool_map(verify_case, cases, workers) if workers > 1 else (verify_case(case) for case in cases)
    return _through_first_failure(results) if fail_fast else results


def _pool_map(fn, cases, workers):
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        # a few chunks per worker: cases grow costlier along n, so one
        # chunk per worker would leave the others idle at the end
        yield from pool.map(fn, cases, chunksize=max(1, len(cases) // (4 * workers)))
    finally:  # closed early, this cancels the queued cases instead of running them
        pool.shutdown(cancel_futures=True)


def _through_first_failure(reports):
    for rep in reports:
        yield rep
        if rep.status == "fail":
            return
