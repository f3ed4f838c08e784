"""Exact rational arithmetic and the combinatorial primitives used everywhere else.

Every value that crosses a module boundary is an exact rational
(`fractions.Fraction`); nothing is ever rounded.  This module supplies the
building blocks: rising and falling factorials, generalized binomial
coefficients with a rational upper argument, the integer numerators of
the two binomial rows every shifted sum walks (choose(x, j) and
choose(2k+2l, k), each over a known denominator), the summand kernels of
the two shifted Reed Dawson sums built from them over one bounded cache
of per-shift rows, and memoized harmonic / odd-harmonic numbers.
Everything but the harmonic numbers works in integers inside: a
factorial of x = p/q is one integer product over a power of q, a
shifted sum is accumulated as one integer numerator, and every other
literal sum of rationals goes through `exact_sum`, one integer numerator
over the lcm of its denominators; each builds a single `Fraction` at
the end.  `Record` is the immutable value type the closed-form modules
build their results on.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
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
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational(x) -> Fraction | int:
    """x itself when it is already an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


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


def is_nonpositive_integer(x: Fraction | int) -> bool:
    return x.denominator == 1 and x.numerator <= 0


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
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(range(p, p + k * q, q)), q**k)


def falling(x: Fraction | int, k: int) -> Fraction:
    """Falling factorial x (x-1) ... (x-k+1), with x = p/q the integer
    product p (p-q) ... (p-(k-1)q) over q^k."""
    if k < 0:
        raise ValueError(f"falling-factorial order must be nonnegative, got {k}")
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
    return Fraction(*gbinom_pair(a.numerator, a.denominator, m))


def gbinom_pair(p: int, q: int, m: int) -> tuple[int, int]:
    """choose(p/q, m) as an integer pair: p (p-q) ... (p-(m-1)q) over q^m m!,
    for m >= 0 and q > 0."""
    return math.prod(range(p, p - m * q, -q)), q**m * math.factorial(m)


def _falling_numerators(p: int, q: int, m: int) -> list[int]:
    """The prefix products U_j = p (p-q) ... (p-(j-1)q), j = 0..m."""
    row = [1]
    for i in range(m):
        row.append(row[-1] * (p - i * q))
    return row


def gbinom_numerators(x: Fraction | int, m: int) -> list[int]:
    """Integer numerators of the row choose(x, j), j = 0..m.

    With x = p/q in lowest terms, choose(x, j) = U_j / (q^j j!) where
    U_j = p (p-q) ... (p-(j-1)q): the prefix products of one factor per
    step, so no division happens and no step can be 0/0.
    """
    x = as_rational(x)
    return _falling_numerators(x.numerator, x.denominator, m)


@lru_cache(maxsize=16)
def _shift_rows(a: int, b: int) -> tuple[list[int], list[int]]:
    """The two rows of the shift l = a/b that every shifted sum reads, as
    `_grown_rows` has grown them so far: the M_k of choose(2k+2l, k) and
    the prefix products Q_k of choose(-l-1, k).

    Row n is a prefix of row n+1, so a sweep along n builds each entry
    once per shift; 16 shifts cover the default grid's 10.
    """
    return [1], [1]


def _grown_rows(ell: Fraction | int, m: int) -> tuple[list[int], list[int]]:
    """The cached rows of `_shift_rows` for l, grown through k = m.  They
    are shared by every caller: read them, never mutate them."""
    a, b = ell.numerator, ell.denominator
    b2k, reflected = _shift_rows(a, b)
    for k in range(len(b2k), m + 1):
        b2k.append(math.prod(range(2 * a + 2 * k * b, 2 * a + k * b, -b)))
    for i in range(len(reflected) - 1, m):
        reflected.append(reflected[-1] * (-a - b - i * b))
    return b2k, reflected


def binom2k_numerators(ell: Fraction | int, m: int) -> list[int]:
    """Integer numerators of choose(2k+2l, k), k = 0..m, for a rational shift l.

    With l = a/b in lowest terms, choose(2k+2l, k) = M_k / (b^k k!) where
    M_k = (2a+2kb) (2a+2kb-b) ... (2a+kb+b), one product per entry, read
    from the per-shift cache as a fresh list.
    """
    return _grown_rows(as_rational(ell), m)[0][: m + 1]


def prop1_terms(n: int, ell: Fraction | int) -> tuple[list[int], int]:
    """The terms of sum_{k=0}^n (-1/2)^k choose(n+l, k+l) choose(2k+2l, k)
    as integers over one common denominator.

    With l = a/b, choose(n+l, n-k) = U_{n-k} / (b^(n-k) (n-k)!), U built
    from n+l = (nb+a)/b, and choose(2k+2l, k) = M_k / (b^k k!), so the
    k-th term is (-1)^k 2^(n-k) C(n,k) U_{n-k} M_k over 2^n b^n n!.
    """
    ell = as_rational(ell)
    a, b = ell.numerator, ell.denominator
    upper = _falling_numerators(n * b + a, b, n)
    b2k = _grown_rows(ell, n)[0]
    terms = [math.comb(n, k) * upper[n - k] * b2k[k] << (n - k) for k in range(n + 1)]
    terms[1::2] = [-t for t in terms[1::2]]  # the sign (-1)^k
    return terms, 2**n * b**n * math.factorial(n)


def prop2_terms(n: int, ell: Fraction | int) -> tuple[list[int], int]:
    """The terms of sum_{k=0}^n (-1/2)^k C(n,k) choose(2k+2l, k) / choose(k+l, k)
    as integers over one common denominator.

    choose(k+l, k) = (-1)^k choose(-l-1, k), and that sign cancels the one
    in (-1/2)^k.  With l = a/b, choose(-l-1, k) = Q_k / (b^k k!) and
    choose(2k+2l, k) = M_k / (b^k k!), so the k-th term is
    C(n,k) M_k / (2^k Q_k); Q_k divides Q_n, so it is the integer
    C(n,k) M_k 2^(n-k) Q_n/Q_k over 2^n Q_n.  Raises ValueError where
    choose(k+l, k) vanishes for some k <= n.
    """
    ell = as_rational(ell)
    b2k, reflected = _grown_rows(ell, n)
    top = reflected[n]
    if top == 0:
        raise ValueError(f"choose(k+l,k) vanishes at k={reflected.index(0)} for l={ell}")
    terms = [math.comb(n, k) * b2k[k] * (top // reflected[k]) << (n - k) for k in range(n + 1)]
    return terms, 2**n * top


# H_n = 1 + 1/2 + ... + 1/n and O_r = 1 + 1/3 + ... + 1/(2r-1), with
# H_0 = O_0 = 0, grown on demand.
_HARMONIC = [Fraction(0)]
_ODD_HARMONIC = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """n-th harmonic number H_n as an exact rational."""
    if n < 0:
        raise ValueError(f"harmonic index must be nonnegative, got {n}")
    h = _HARMONIC
    while len(h) <= n:
        h.append(h[-1] + Fraction(1, len(h)))
    return h[n]


def odd_harmonic(r: int) -> Fraction:
    """r-th odd harmonic number O_r = 1 + 1/3 + ... + 1/(2r-1)."""
    if r < 0:
        raise ValueError(f"odd-harmonic index must be nonnegative, got {r}")
    o = _ODD_HARMONIC
    while len(o) <= r:
        o.append(o[-1] + Fraction(1, 2 * len(o) - 1))
    return o[r]
