"""Checks the records a workload printed, one JSON object per line.

Expected outcomes:
- a case is validity-skipped exactly where the identity's closed form or
  certificate is undefined at its point (the rules are restated below from
  the identities' domains, not taken from the program), and nowhere else;
- every case that is not skipped passes, with lhs equal to rhs;
- every `wz-negative-control-residual` record fails;
- `wz-negative-control-row-sum` fails except where its unnormalized row
  sum C(2n+l, n) is 1: at n = 0, and for n >= 1 only at some negative
  integer shifts (for any other l, C(2n+l, n) - 1 is a monic integer
  polynomial in l whose rational roots are integers).

Any other outcome is unexpected, as is a record count that differs from
the count the inputs imply.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

_MICROS = re.compile(rb', "micros": \d+')


@dataclass
class Tally:
    attempted: int = 0  # records, skipped ones included
    cases: int = 0  # records that were not skipped
    skipped: int = 0
    unexpected: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.cases += other.cases
        self.skipped += other.skipped
        self.unexpected += other.unexpected


def _binom(a: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for j in range(m):
        out = out * (a - j) / (j + 1)
    return out


def _negative_int_within(ell: Fraction, low: int) -> bool:
    """l is an integer with low <= l <= -1."""
    return ell.denominator == 1 and low <= ell <= -1


def _binom_vanishes(top: Fraction, m: int) -> bool:
    """C(top, m) = top (top-1) ... (top-m+1) / m! is 0."""
    return top.denominator == 1 and 0 <= top <= m - 1


def _skipped(ident: str, n: int, ell: Fraction) -> bool:
    """Whether the case (ident, n, l) lies outside the identity's domain."""
    if ident in ("prop1-general-ell", "prop2-general-ell"):
        # choose(n+l, k+l) (prop1) and choose(k+l, k) (prop2) degenerate at
        # the negative integers >= -n; prop2's closed-form denominator
        # choose(n/2+l, n/2) vanishes only at a subset of those.
        return _negative_int_within(ell, -n)
    if ident == "abel-first":
        # the same, plus the summand's k + 2l + 1 vanishing for some k <= n
        two_l = 2 * ell
        return _negative_int_within(ell, -n) or (two_l.denominator == 1 and -n <= two_l + 1 <= 0)
    if ident.startswith("wz-prop1-"):
        # F is normalized by C(2n+l, n); the residual also needs row n + 1
        rows = (n,) if ident.endswith("-row-sum") else (n, n + 1)
        return any(_binom_vanishes(2 * m + ell, m) for m in rows)
    if ident.startswith("wz-prop2-"):
        # choose(k+l, k) must stay nonzero through k = 2m + 2 on each row m used
        m = n if ident.endswith("-row-sum") else n + 1
        return _negative_int_within(ell, -(2 * m + 2))
    return False


def expected_status(rec: dict) -> str:
    """"pass", "fail" or "skip"."""
    ident, params = rec["identity"], rec["params"]
    n = params.get("n", params.get("m"))
    ell = Fraction(params["ell"]) if "ell" in params else None
    if ell is not None and _skipped(ident, n, ell):
        return "skip"
    if ident == "wz-negative-control-residual":
        return "fail"
    if ident == "wz-negative-control-row-sum":
        return "pass" if _binom(2 * n + ell, n) == 1 else "fail"
    return "pass"


def is_expected(rec: dict) -> bool:
    status, lhs, rhs = rec.get("status"), rec.get("lhs"), rec.get("rhs")
    want = expected_status(rec)
    if status != want:
        return False
    if status == "pass":
        return lhs is not None and lhs == rhs
    if status == "fail":
        return lhs != rhs
    return True


def check_output(stdout: bytes, expected_records: int) -> Tally:
    """Tally the records in `stdout`.  A line that is not a record counts
    as unexpected; so does each record missing from or in excess of
    `expected_records`."""
    tally = Tally()
    for line in stdout.decode().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        if not isinstance(rec, dict):
            tally.unexpected += 1
            continue
        tally.attempted += 1
        if rec.get("status") == "skip":
            tally.skipped += 1
        else:
            tally.cases += 1
        if not is_expected(rec):
            tally.unexpected += 1
    if tally.attempted != expected_records:
        tally.unexpected += abs(expected_records - tally.attempted)
        tally.attempted = max(tally.attempted, expected_records)
    return tally


def without_micros(stdout: bytes) -> bytes:
    """The output with every `micros` field cut out of the raw bytes, for a
    byte comparison across `--jobs` values."""
    return _MICROS.sub(b"", stdout)
