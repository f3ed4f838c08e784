"""Exact rational arithmetic and the combinatorial primitives used everywhere else.

Every value that crosses a module boundary is an exact rational
(`fractions.Fraction`); nothing is ever rounded.  This module supplies the
building blocks: rising and falling factorials, generalized binomial
coefficients with a rational upper argument, the integer kernels of the
shifted family, and the harmonic and odd-harmonic rows.  Only this
module knows the shifted family's row layout over l = a/b (the prefix
products U_j of choose(x, j), the M_k of choose(2k+2l, k) and the prefix
products Q_k of choose(-l-1, k), the last two in one bounded per-shift
cache); every other module reads it through `prop1_row` / `prop2_row`,
their terms continued past the support, `prop1_continued` /
`prop2_continued`, and the even-index closed forms `prop1_closed` /
`prop2_closed`.  All of it works in integers inside: a factorial of
x = p/q is one integer product over a power of q, a shifted sum one
integer numerator, H_0..H_m or O_0..O_m one row of prefix sums over the
lcm of their denominators (`harmonic_row`, read by every harmonic sum),
and the few other literal sums (abel-second, the Legendre moments) go
through `exact_sum`, one integer numerator over the lcm of its
denominators; each builds a single `Fraction` at the end.  `Record` is
the immutable value type the closed-form modules build their results on.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable

# ASCII digits only: `\d` alone would also match other scripts' digits,
# which Fraction accepts
_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)


class CertificateDenominatorZero(ZeroDivisionError):
    """A WZ certificate's denominator vanishes at an evaluation point: raised
    in `wz`, reported as a skip by `catalog.verify`."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal `p` or `p/q`.

    Decimal and float-looking literals are rejected outright: a string such
    as "0.5" raises instead of being silently converted.  Where `Fraction`
    refuses a part for its length (Python's int string limit, 4300 digits
    by default), `decimal.Decimal` converts it exactly, as in
    `format_rational`; the limit itself is left as it is.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal (use p or p/q): {text!r}")
    try:
        try:
            return Fraction(s)
        except ValueError:
            from decimal import Decimal

            num, _, den = s.partition("/")
            return Fraction(int(Decimal(num)), int(Decimal(den or 1)))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction | int) -> str:
    """Render a rational as `p` or `p/q`, the inverse of `parse_rational`.

    Where `str` refuses an integer for its length (Python's int string
    limit, 4300 digits by default), `decimal.Decimal` converts it exactly
    and is not subject to the limit.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        from decimal import Decimal

        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"


def as_rational(x) -> Fraction | int:
    """x itself when it is already an int or a Fraction, else Fraction(x).

    A binary float is refused: 0.1 is not 1/10 but the nearest binary
    fraction, so it would be evaluated at the wrong point without a word.
    """
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, float):
        raise TypeError(f"binary float {x!r} is not exact: pass a Fraction or a 'p/q' string")
    return Fraction(x)


class Record:
    """An immutable value type over `__slots__`, without `dataclasses`.

    A subclass names its compared fields in `_fields` and sets its slots
    in `__init__` with `object.__setattr__`.  Two records are equal when
    they have the same exact type and equal fields; the hash and the repr
    (`Name(field=value, ...)`, as a frozen dataclass prints it) read the
    same fields.  A slot outside `_fields` is derived data: it takes part
    in none of them, and pickling or copying rebuilds it through
    `__init__`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def exact_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of the rationals num/den given as integer pairs (num, den),
    as one integer numerator over the lcm L of the denominators:
    sum num * (L // den) over L, reduced once.  An empty sum is 0.

    Denominators must be nonzero; a negative one keeps its sign through
    L // den.
    """
    terms = list(terms)
    lcm = math.lcm(*(den for _, den in terms))
    return Fraction(sum(num * (lcm // den) for num, den in terms), lcm)


def pochhammer(x: Fraction | int, k: int) -> Fraction:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1.

    With x = p/q, (x)_k = p (p+q) ... (p+(k-1)q) / q^k: one integer
    prefix product over one power of q.
    """
    if k < 0:
        raise ValueError(f"pochhammer order must be nonnegative, got {k}")
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(range(p, p + k * q, q)), q**k)


def falling(x: Fraction | int, k: int) -> Fraction:
    """Falling factorial x (x-1) ... (x-k+1), with x = p/q the integer
    product p (p-q) ... (p-(k-1)q) over q^k."""
    if k < 0:
        raise ValueError(f"falling-factorial order must be nonnegative, got {k}")
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(range(p, p - k * q, -q)), q**k)


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
    a = as_rational(a)
    return Fraction(*gbinom_pair(a.numerator, a.denominator, m))


def gbinom_pair(p: int, q: int, m: int) -> tuple[int, int]:
    """choose(p/q, m) as an integer pair: p (p-q) ... (p-(m-1)q) over q^m m!,
    for m >= 0 and q > 0."""
    return math.prod(range(p, p - m * q, -q)), q**m * math.factorial(m)


def _falling_numerators(p: int, q: int, m: int) -> list[int]:
    """The prefix products U_j = p (p-q) ... (p-(j-1)q), j = 0..m: with
    x = p/q, choose(x, j) = U_j / (q^j j!).  One factor per step, so no
    division happens and no step can be 0/0."""
    row = [1]
    for i in range(m):
        row.append(row[-1] * (p - i * q))
    return row


@lru_cache(maxsize=64)
def _shift_rows(a: int, b: int) -> tuple[list[int], list[int]]:
    """The two rows of the shift l = a/b that every shifted sum reads, as
    `_grown_rows` has grown them so far: the M_k of choose(2k+2l, k) and
    the prefix products Q_k of choose(-l-1, k).

    Row n is a prefix of row n+1, so a sweep along n builds each entry
    once per shift, as long as the cache holds its whole grid: a sweep
    visits every shift once per n, so with one shift more every lookup
    misses.  64 shifts cover 41 integer shifts at n <= 40, and hold about
    1.2 MB at n = 100.
    """
    return [1], [1]


def _grown_rows(a: int, b: int, m: int) -> tuple[list[int], list[int]]:
    """The cached rows of `_shift_rows` for l = a/b, grown through k = m.
    They are shared by every caller: read them, never mutate them."""
    b2k, reflected = _shift_rows(a, b)
    for k in range(len(b2k), m + 1):
        b2k.append(math.prod(range(2 * a + 2 * k * b, 2 * a + k * b, -b)))
    for i in range(len(reflected) - 1, m):
        reflected.append(reflected[-1] * (-a - b - i * b))
    return b2k, reflected


def prop1_row(n: int, a: int, b: int) -> tuple[list[int], int]:
    """The terms of sum_{k=0}^n (-1/2)^k choose(n+l, k+l) choose(2k+2l, k)
    at l = a/b, b > 0, as integers over one common denominator.

    choose(n+l, k+l) = choose(n+l, n-k) = U_{n-k} / (b^(n-k) (n-k)!), U
    built from n+l = (nb+a)/b, and choose(2k+2l, k) = M_k / (b^k k!), so
    the k-th term is (-1)^k 2^(n-k) C(n,k) U_{n-k} M_k over 2^n b^n n!.
    """
    upper = _falling_numerators(n * b + a, b, n)
    b2k = _grown_rows(a, b, n)[0]
    terms = [math.comb(n, k) * upper[n - k] * b2k[k] << (n - k) for k in range(n + 1)]
    terms[1::2] = [-t for t in terms[1::2]]  # the sign (-1)^k
    return terms, 2**n * b**n * math.factorial(n)


def prop2_row(n: int, a: int, b: int) -> tuple[list[int], int]:
    """The terms of sum_{k=0}^n (-1/2)^k C(n,k) choose(2k+2l, k) / choose(k+l, k)
    at l = a/b, b > 0, as integers over one common denominator.

    choose(k+l, k) = (-1)^k choose(-l-1, k), and that sign cancels the one
    in (-1/2)^k.  choose(-l-1, k) = Q_k / (b^k k!) and
    choose(2k+2l, k) = M_k / (b^k k!), so the k-th term is
    C(n,k) M_k / (2^k Q_k); Q_k divides Q_n, so it is the integer
    C(n,k) M_k 2^(n-k) Q_n/Q_k over 2^n Q_n.  Raises ValueError where
    choose(k+l, k) vanishes for some k <= n.
    """
    b2k, reflected = _grown_rows(a, b, n)
    top = reflected[n]
    if top == 0:
        ell = a if b == 1 else f"{a}/{b}"
        raise ValueError(f"choose(k+l,k) vanishes at k={reflected.index(0)} for l={ell}")
    terms = [math.comb(n, k) * b2k[k] * (top // reflected[k]) << (n - k) for k in range(n + 1)]
    return terms, 2**n * top


def prop1_closed(n: int, a: int, b: int) -> tuple[int, int]:
    """2^(-n) choose(n+l, n/2), the sum of `prop1_row` at even n, l = a/b."""
    num, den = gbinom_pair(n * b + a, b, n // 2)
    return num, den << n


def prop2_closed(n: int, a: int, b: int) -> tuple[int, int]:
    """2^(-n) C(n, n/2) / choose(n/2+l, n/2), the sum of `prop2_row` at even
    n, l = a/b; the denominator is 0 where choose(n/2+l, n/2) vanishes."""
    num, den = gbinom_pair(n // 2 * b + a, b, n // 2)
    return math.comb(n, n // 2) * den, num << n


def prop1_continued(n: int, k: int, a: int, b: int) -> tuple[int, int]:
    """Term k > n of `prop1_row(n, a, b)` continued past the support and
    without its vanishing 1/(n-k)!, as one integer pair: there
    choose(n+l, n-k) (n-k)! = Gamma(n+l+1) / Gamma(k+l+1)
    = b^(k-n) / prod_{t=n+1}^{k} (tb+a), so the term is
    (-1)^k M_k b^(k-n) over 2^k b^k k! prod_{t=n+1}^{k} (tb+a), whose
    denominator is 0 at a pole."""
    m = _grown_rows(a, b, k)[0][k]
    factors = math.prod(range((n + 1) * b + a, k * b + a + 1, b))
    return (-m if k % 2 else m) * b ** (k - n), b**k * math.factorial(k) * factors << k


def prop2_continued(n: int, k: int, a: int, b: int) -> tuple[int, int]:
    """Term k > n of `prop2_row(n, a, b)` continued past the support and
    without its vanishing 1/(n-k)!: C(n,k) (n-k)! = 1 / prod_{t=n+1}^{k} t,
    so the term is M_k over 2^k Q_k prod_{t=n+1}^{k} t, one integer pair
    whose denominator is 0 where choose(k+l, k) vanishes."""
    b2k, reflected = _grown_rows(a, b, k)
    return b2k[k], reflected[k] * math.prod(range(n + 1, k + 1)) << k


def harmonic_row(m: int, odd: bool = False) -> tuple[list[int], int]:
    """H_0..H_m, or with `odd` O_0..O_m (O_j = 1 + 1/3 + ... + 1/(2j-1)), as
    integer prefix sums row[j] over one denominator L, the lcm of the
    denominators 1..m (or 1, 3, ..., 2m-1); row[0] = 0."""
    if m < 0:
        raise ValueError(f"harmonic index must be nonnegative, got {m}")
    dens = range(1, 2 * m, 2) if odd else range(1, m + 1)
    lcm = math.lcm(*dens)
    return list(accumulate((lcm // d for d in dens), initial=0)), lcm


def harmonic(n: int) -> Fraction:
    """n-th harmonic number H_n as an exact rational.  Each call builds the
    whole row H_0..H_n: a caller that needs many values reads one
    `harmonic_row(m)` instead."""
    row, den = harmonic_row(n)
    return Fraction(row[n], den)


def odd_harmonic(r: int) -> Fraction:
    """r-th odd harmonic number O_r = 1 + 1/3 + ... + 1/(2r-1).  Each call
    builds the whole row O_0..O_r: a caller that needs many values reads
    one `harmonic_row(m, odd=True)` instead."""
    row, den = harmonic_row(r, odd=True)
    return Fraction(row[r], den)
