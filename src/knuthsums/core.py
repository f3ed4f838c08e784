"""Exact rational arithmetic and the combinatorial primitives used everywhere else.

Every value in this package is an exact rational (`fractions.Fraction`);
nothing is ever rounded.  This module supplies the building blocks:
rising factorials (Pochhammer symbols), generalized binomial coefficients
with a rational upper argument, the two binomial rows every shifted sum
walks (choose(a, j) and choose(2k+2l, k)), and memoized harmonic /
odd-harmonic numbers.
"""

from __future__ import annotations

import math
import re
import threading
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


class CertificateDenominatorZero(ZeroDivisionError):
    """A WZ certificate's denominator vanishes at an evaluation point: raised
    in `wz`, reported as a skip by `catalog.verify`."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal `p` or `p/q`.

    Decimal and float-looking literals are rejected outright: a string such
    as "0.5" raises instead of being silently converted.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal (use p or p/q): {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render a rational as `p` or `p/q`, the inverse of parse_rational."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_nonpositive_integer(x: Fraction | int) -> bool:
    q = Fraction(x)
    return q.denominator == 1 and q.numerator <= 0


def pochhammer(x: Fraction | int, k: int) -> Fraction:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {k}")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def falling(x: Fraction | int, k: int) -> Fraction:
    """Falling factorial x (x-1) ... (x-k+1)."""
    if k < 0:
        raise ValueError(f"falling-factorial order must be nonnegative, got {k}")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(k):
        out *= x - j
    return out


def gbinom(a: Fraction | int, m: int) -> Fraction:
    """Generalized binomial coefficient: a rational upper argument over an
    integer lower index, a(a-1)...(a-m+1) / m!.

    Binomials whose lower entry is shifted by a non-integer (such as
    choose(n+l, k+l) for rational l) are evaluated through the symmetry
    choose(n+l, k+l) = gbinom(n+l, n-k), which is exact whenever the index
    difference n-k is an integer.
    """
    if m < 0:
        raise ValueError(f"gbinom lower index must be nonnegative, got {m}")
    return falling(a, m) / math.factorial(m)


def gbinom_row(a: Fraction | int, m: int) -> list[Fraction]:
    """choose(a, j) for j = 0..m, each entry from the previous one by the
    ratio (a-j+1)/j."""
    a = Fraction(a)
    row = [Fraction(1)]
    for j in range(1, m + 1):
        row.append(row[-1] * (a - j + 1) / j)
    return row


def binom2k_row(ell: Fraction | int, m: int) -> list[Fraction]:
    """choose(2k+2l, k) for k = 0..m and a rational shift l, each entry from
    the previous one by the ratio (2k+2l-1)(2k+2l) / ((k+2l) k), or
    directly in the 0/0 steps that a negative half-integer l produces."""
    two_ell = 2 * Fraction(ell)
    row = [Fraction(1)]
    for k in range(1, m + 1):
        den = (k + two_ell) * k
        if row[-1] == 0 or den == 0:
            row.append(gbinom(2 * k + two_ell, k))
        else:
            row.append(row[-1] * (2 * k + two_ell - 1) * (2 * k + two_ell) / den)
    return row


class HarmonicCache:
    """Memoized harmonic numbers H_n and odd harmonic numbers O_r.

    H_n = 1 + 1/2 + ... + 1/n and O_r = 1 + 1/3 + ... + 1/(2r-1), with
    H_0 = O_0 = 0.  Growth is amortized O(1) per new index and guarded by a
    lock so concurrent readers always see fully built prefixes.
    """

    def __init__(self) -> None:
        self._h = [Fraction(0)]
        self._o = [Fraction(0)]
        self._lock = threading.Lock()

    def harmonic(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"harmonic index must be nonnegative, got {n}")
        if n >= len(self._h):
            with self._lock:
                h = self._h
                while len(h) <= n:
                    h.append(h[-1] + Fraction(1, len(h)))
        return self._h[n]

    def odd_harmonic(self, r: int) -> Fraction:
        if r < 0:
            raise ValueError(f"odd-harmonic index must be nonnegative, got {r}")
        if r >= len(self._o):
            with self._lock:
                o = self._o
                while len(o) <= r:
                    o.append(o[-1] + Fraction(1, 2 * len(o) - 1))
        return self._o[r]


_CACHE = HarmonicCache()


def harmonic(n: int) -> Fraction:
    """n-th harmonic number H_n as an exact rational."""
    return _CACHE.harmonic(n)


def odd_harmonic(r: int) -> Fraction:
    """r-th odd harmonic number O_r = 1 + 1/3 + ... + 1/(2r-1)."""
    return _CACHE.odd_harmonic(r)
