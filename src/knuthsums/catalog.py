"""The identity registry: every closed-form summation identity this
package verifies, as (brute-force LHS, closed-form RHS, validity) triples.

Each identity is registered under a stable kebab-case key.  The LHS
evaluator is always the plain finite sum over exact rationals -- the
universal oracle -- and the RHS is the closed form; verification is exact
equality, no tolerances anywhere.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterator, NamedTuple

from . import abel, legendre
from .core import CertificateDenominatorZero, exact_sum, format_rational, gbinom_pair
from .core import harmonic, odd_harmonic, prop1_terms, prop2_terms

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
    """

    name: str
    summary: str
    param_names: tuple[str, ...]
    lhs: Callable[..., Fraction]
    rhs: Callable[..., Fraction]
    validity: Callable[..., bool] = field(default=lambda **params: True)


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


# ---------------------------------------------------------------------------
# Alternating central-binomial sums with a rational shift parameter.
# ---------------------------------------------------------------------------


def knuth_lhs(n: int) -> Fraction:
    """sum_{k=0}^n (-1/2)^k C(n,k) C(2k,k)."""
    s = sum(
        (-1) ** k * math.comb(n, k) * math.comb(2 * k, k) * 2 ** (n - k)
        for k in range(n + 1)
    )
    return Fraction(s, 2**n)


def knuth_rhs(n: int) -> Fraction:
    """2^(-n) C(n, n/2) for even n, else 0."""
    if n % 2:
        return Fraction(0)
    return Fraction(math.comb(n, n // 2), 2**n)


def prop1_valid(n: int, ell: Fraction) -> bool:
    """The shift must avoid the negative integers >= -n, where the Gamma
    form of choose(n+l, k+l) degenerates."""
    return not (ell.denominator == 1 and -n <= ell.numerator <= -1)


def prop1_lhs(n: int, ell: Fraction) -> Fraction:
    """sum_{k=0}^n (-1/2)^k choose(n+l, k+l) choose(2k+2l, k), one integer
    over one denominator (`core.prop1_terms`)."""
    terms, den = prop1_terms(n, ell)
    return Fraction(sum(terms), den)


def prop1_rhs(n: int, ell: Fraction) -> Fraction:
    """2^(-n) choose(n+l, n/2) for even n, else 0, with l = a/b one
    integer pair (`core.gbinom_pair` of (nb+a, b)) over 2^n."""
    if n % 2:
        return Fraction(0)
    a, b = ell.numerator, ell.denominator
    num, den = gbinom_pair(n * b + a, b, n // 2)
    return Fraction(num, den * 2**n)


# choose(k+l, k) for k <= n vanishes exactly at the integer shifts
# -n <= l <= -1 that prop1 excludes; at even n the closed form's
# choose(n/2+l, n/2) vanishes only on the subset -n/2 <= l <= -1, so it
# never decides.
prop2_valid = prop1_valid


def prop2_lhs(n: int, ell: Fraction) -> Fraction:
    """sum_{k=0}^n (-1/2)^k C(n,k) choose(2k+2l, k) / choose(k+l, k), one
    integer over one denominator (`core.prop2_terms`)."""
    terms, den = prop2_terms(n, ell)
    return Fraction(sum(terms), den)


def prop2_rhs(n: int, ell: Fraction) -> Fraction:
    """2^(-n) C(n, n/2) / choose(n/2+l, n/2) for even n, else 0.

    With l = a/b and h = n/2, choose(h+l, h) is `core.gbinom_pair` of
    (hb+a, b); ZeroDivisionError where it vanishes.
    """
    if n % 2:
        return Fraction(0)
    a, b = ell.numerator, ell.denominator
    h = n // 2
    num, den = gbinom_pair(h * b + a, b, h)
    return Fraction(math.comb(n, h) * den, 2**n * num)


# ---------------------------------------------------------------------------
# Binomial-harmonic sums.
# ---------------------------------------------------------------------------


def hkmix_lhs(n: int) -> Fraction:
    """sum_{k=0}^{2n} (-1/2)^k C(2k,k) C(2n,k) (3 H_k - 2 H_{2k}), each term
    passed to `exact_sum` as its H_k part and its H_{2k} part."""

    def terms(k: int) -> Iterator[tuple[int, int]]:
        c = (-1) ** k * math.comb(2 * k, k) * math.comb(2 * n, k)
        h, h2 = harmonic(k), harmonic(2 * k)
        yield 3 * c * h.numerator, 2**k * h.denominator
        yield -2 * c * h2.numerator, 2**k * h2.denominator

    return exact_sum(pair for k in range(2 * n + 1) for pair in terms(k))


def hkmix_rhs(n: int) -> Fraction:
    """4^(-n) C(2n,n) H_n."""
    return Fraction(math.comb(2 * n, n), 4**n) * harmonic(n)


def _harmonic_over_next(m: int, k: int) -> tuple[int, int]:
    """The term (-2)^k C(m,k) H_k / (k+1) as an integer pair."""
    h = harmonic(k)
    return (-2) ** k * math.comb(m, k) * h.numerator, (k + 1) * h.denominator


def oddh_corollary_lhs(m: int) -> Fraction:
    """sum_{k=0}^m (-2)^k C(m,k) H_k / (k+1)."""
    return exact_sum(_harmonic_over_next(m, k) for k in range(m + 1))


def oddh_corollary_rhs(m: int) -> Fraction:
    """-(2/(m+1)) O_((m+1)/2) for odd m, else 0."""
    if m % 2 == 0:
        return Fraction(0)
    return Fraction(-2, m + 1) * odd_harmonic((m + 1) // 2)


def intermediate_lhs(n: int) -> Fraction:
    """sum_{k=0}^{2n} (-2)^k C(2n+1,k) H_k / (k+1)."""
    return exact_sum(_harmonic_over_next(2 * n + 1, k) for k in range(2 * n + 1))


def intermediate_rhs(n: int) -> Fraction:
    """(4^n - 1) H_{2n}/(n+1) + H_n/(2(n+1)) + (4^n - 1)/((n+1)(2n+1))."""
    p = 4**n - 1
    return (
        p * harmonic(2 * n) / (n + 1)
        + harmonic(n) / (2 * (n + 1))
        + Fraction(p, (n + 1) * (2 * n + 1))
    )


@lru_cache(maxsize=4)
def _gf_row(n: int) -> tuple[tuple[int, ...], int]:
    """The integer coefficients c_k = C(2n,k) (-2)^k L/(k+1), k <= 2n, of
    the gf-polynomial's terms over L = lcm(1..2n+1).

    Sweeps visit the 2n+1 points of one n in a row (and so do the pool's
    chunks), so a few rows cover them.
    """
    m = 2 * n
    lcm = math.lcm(*range(1, m + 2))
    return tuple(math.comb(m, k) * (-2) ** k * (lcm // (k + 1)) for k in range(m + 1)), lcm


def gfpoly_lhs(n: int, x: Fraction) -> Fraction:
    """sum_{k=0}^{2n} (-1/2)^k C(2n,k) 4^k x^k / (k+1)  (equals (-2x)^k terms).

    With x = p/q, every term is an integer over L q^(2n): c_k p^k q^(2n-k)
    with c_k from `_gf_row`, summed by homogeneous Horner in (p, q).
    """
    p, q = x.numerator, x.denominator
    coeffs, lcm = _gf_row(n)
    total = coeffs[-1]
    q_power = 1
    for c in reversed(coeffs[:-1]):
        q_power *= q
        total = total * p + c * q_power
    return Fraction(total, lcm * q_power)


def gfpoly_rhs(n: int, x: Fraction) -> Fraction:
    """(1 - (1-2x)^(2n+1)) / (2(2n+1)x) for x != 0; the x -> 0 limit is 1.

    With x = p/q this is (q^(2n+1) - (q-2p)^(2n+1)) / (2(2n+1) p q^(2n)).
    """
    p, q = x.numerator, x.denominator
    if p == 0:
        return Fraction(1)
    m = 2 * n
    q_power = q**m
    return Fraction(q_power * q - (q - 2 * p) ** (m + 1), 2 * (m + 1) * p * q_power)


def tauraso_lhs(n: int) -> Fraction:
    """sum_{k=0}^{2n} (-1)^k C(2n,k) C(2n+k,k) C(2k,k) 4^(2n-k) H_k."""

    def term(k: int) -> tuple[int, int]:
        h = harmonic(k)
        c = (-1) ** k * math.comb(2 * n, k) * math.comb(2 * n + k, k) * math.comb(2 * k, k)
        return c * 4 ** (2 * n - k) * h.numerator, h.denominator

    return exact_sum(term(k) for k in range(2 * n + 1))


def tauraso_rhs(n: int) -> Fraction:
    """C(2n,n)^2 H_{2n}."""
    return math.comb(2 * n, n) ** 2 * harmonic(2 * n)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


REGISTRY: dict[str, Identity] = {
    ident.name: ident
    for ident in (
        Identity(
            "knuth-old-sum",
            "sum (-1/2)^k C(n,k) C(2k,k) = [n even] 2^-n C(n,n/2)",
            ("n",),
            knuth_lhs,
            knuth_rhs,
        ),
        Identity(
            "prop1-general-ell",
            "sum (-1/2)^k C(n+l,k+l) C(2k+2l,k) = [n even] 2^-n C(n+l,n/2)",
            ("n", "ell"),
            prop1_lhs,
            prop1_rhs,
            prop1_valid,
        ),
        Identity(
            "prop2-general-ell",
            "sum (-1/2)^k C(n,k) C(2k+2l,k)/C(k+l,k) = [n even] 2^-n C(n,n/2)/C(n/2+l,n/2)",
            ("n", "ell"),
            prop2_lhs,
            prop2_rhs,
            prop2_valid,
        ),
        Identity(
            "example-3hk-2h2k",
            "sum_{k<=2n} (-1/2)^k C(2k,k) C(2n,k) (3H_k - 2H_2k) = 4^-n C(2n,n) H_n",
            ("n",),
            hkmix_lhs,
            hkmix_rhs,
        ),
        Identity(
            "corollary-odd-harmonic",
            "sum (-2)^k C(m,k) H_k/(k+1) = [m odd] -(2/(m+1)) O_((m+1)/2)",
            ("m",),
            oddh_corollary_lhs,
            oddh_corollary_rhs,
        ),
        Identity(
            "corollary-intermediate",
            "sum_{k<=2n} (-2)^k C(2n+1,k) H_k/(k+1) = (4^n-1)H_2n/(n+1) + H_n/(2n+2) + (4^n-1)/((n+1)(2n+1))",
            ("n",),
            intermediate_lhs,
            intermediate_rhs,
        ),
        Identity(
            "gf-polynomial",
            "sum_{k<=2n} C(2n,k) (-2x)^k/(k+1) = (1-(1-2x)^(2n+1))/(2(2n+1)x)",
            ("n", "x"),
            gfpoly_lhs,
            gfpoly_rhs,
        ),
        Identity(
            "tauraso-h2n",
            "sum_{k<=2n} (-1)^k C(2n,k) C(2n+k,k) C(2k,k) 4^(2n-k) H_k = C(2n,n)^2 H_2n",
            ("n",),
            tauraso_lhs,
            tauraso_rhs,
        ),
        Identity(
            "odd-knuth-sum",
            "sum (-1/4)^k C(n,k) C(2k,k) O_k = -(1/4)^n C(2n,n) O_n",
            ("n",),
            legendre.odd_knuth_lhs,
            legendre.odd_knuth_rhs,
        ),
        Identity(
            "legendre-log-moment",
            "int_0^1 ln(x)/sqrt(x) P_n(2x-1) dx = 4(-1)^n (H_n - 2 H_2n - 1/(2n+1))/(2n+1)",
            ("n",),
            legendre.log_moment_sqrt_lhs,
            legendre.log_moment_sqrt_rhs,
        ),
        Identity(
            "abel-first",
            "sum (-1/2)^k C(n+l,k+l) C(2k+2l,k) k(n-k)/(k+2l+1) = [n even] -2^-n n C(n+l,n/2)",
            ("n", "ell"),
            abel.abel1_lhs,
            abel.abel1_rhs,
            abel.abel1_valid,
        ),
        Identity(
            "abel-second",
            "sum (-1/2)^k C(2k,k) C(n,k) (2k+1)(k^2+3k+3)(n-k)/((k+1)^2(k+2)(k+3)) = 1/2 - [n even] C(n,n/2)(n+1)/(2^n(n+2))",
            ("n",),
            abel.abel2_lhs,
            abel.abel2_rhs,
        ),
    )
}


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

    Validity-excluded cases are reported as skipped, never as passes, and
    so is a WZ certificate whose denominator vanishes at the case; other
    evaluator errors become failures carrying the error text.
    """
    flat = tuple((name, params[name]) for name in ident.param_names)
    if not ident.validity(**params):
        return VerificationReport(ident.name, flat, None, None, "skip", "validity excluded")
    start = time.perf_counter_ns()
    try:
        lhs = ident.lhs(**params)
        rhs = ident.rhs(**params)
    except Exception as exc:  # captured, not propagated: the report is the API
        micros = (time.perf_counter_ns() - start) // 1000
        if isinstance(exc, CertificateDenominatorZero):
            status, reason = "skip", f"certificate denominator zero: {exc}"
        else:
            status, reason = "fail", f"evaluator error: {exc}"
        return VerificationReport(ident.name, flat, None, None, status, reason, micros)
    micros = (time.perf_counter_ns() - start) // 1000
    status = "pass" if lhs == rhs else "fail"
    reason = "" if status == "pass" else "lhs != rhs"
    return VerificationReport(ident.name, flat, lhs, rhs, status, reason, micros)


def _verify_case(case: tuple[str, dict]) -> VerificationReport:
    name, params = case
    return verify(REGISTRY[name], params)


def run_sweep(
    names: list[str],
    n_max: int,
    ell_grid: tuple[Fraction, ...] = DEFAULT_ELL_GRID,
    jobs: int = 1,
    fail_fast: bool = False,
) -> Iterator[VerificationReport]:
    """Verify every case of the named identities, as an iterator of reports
    sorted by (identity, n, shift) whatever jobs is; unknown names raise
    KeyError at the call.  Results are read in case order and yielded in
    blocks of one identity at one n (a serial sweep holds one block), so
    with fail_fast they are the cases through the first failure.
    """
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown identities: {', '.join(unknown)}; valid keys: {', '.join(sorted(REGISTRY))}")
    cases = (
        (name, params)
        for name in sorted(names)
        for params in iter_cases(REGISTRY[name], n_max, ell_grid)
    )
    # a pool forks all its workers at the first submit: ask for no more
    # than there are cases, nor than the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1)
    if workers > 1:
        cases = list(cases)  # pool.map submits them all at once anyway
        workers = min(workers, len(cases))
    results = _pool_map(cases, workers) if workers > 1 else map(_verify_case, cases)
    if fail_fast:
        results = _through_first_failure(results)
    key = _report_key(ell_grid)
    blocks = groupby(results, lambda rep: (rep.identity, rep.params[0]))
    return (rep for _, block in blocks for rep in sorted(block, key=key))


def _pool_map(cases, workers):
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        # a few chunks per worker: cases grow costlier along n, so one
        # chunk per worker would leave the others idle at the end
        yield from pool.map(_verify_case, cases, chunksize=max(1, len(cases) // (4 * workers)))
    finally:  # closed early, this cancels the queued cases instead of running them
        pool.shutdown(cancel_futures=True)


def _through_first_failure(reports):
    for rep in reports:
        yield rep
        if rep.status == "fail":
            return


def _report_key(ell_grid):
    """The key (identity, n, shift rank), a shift looked up by its integer
    pair so no Fraction is hashed; x points come in order already."""
    rank = {(ell.numerator, ell.denominator): r for r, ell in enumerate(sorted(ell_grid))}

    def key(rep):
        name, ell = rep.params[-1]
        return rep.identity, rep.params[0][1], rank[ell.numerator, ell.denominator] if name == "ell" else 0

    return key


def sort_reports(reports: list[VerificationReport], ell_grid: tuple[Fraction, ...]) -> None:
    """Sort reports in place in `run_sweep`'s order."""
    reports.sort(key=_report_key(ell_grid))
