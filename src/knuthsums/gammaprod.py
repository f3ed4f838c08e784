"""Exact reduction of formal products of Gamma factors at rational arguments.

One kernel, `reduce`, reduces (num/den) * prod Gamma(p/q)^e given as an
integer pair and integer triples (p, q, e).  It groups the arguments that
differ by integers and writes each against its group's smallest argument
b = p0/q:

    Gamma(b + s) / Gamma(b) = (b)_s = p0 (p0+q) ... (p0+(s-1)q) / q^s.

What remains is evaluated in closed form: Gamma at positive integers as
factorials, Gamma at half-integers through

    Gamma(m + 1/2) = (2m-1)!! sqrt(pi) / 2^m             (m >= 0)
    Gamma(1/2 - m) = (-2)^m sqrt(pi) / (2m-1)!!           (m >= 1)

Every factor is an integer over an integer, so the rational part is one
integer numerator over one integer denominator and a single `Fraction` is
built for the result.  The closed forms, `gauss_second_rhs` and
`legendre.moment`, build their triples from the integers of their
parameters and pass them straight to `reduce`.

The result is one of: Finite(q, s) meaning q * pi^(s/2); Zero (a Gamma
pole survived in denominator position); Pole (one survived in the
numerator); or Irreducible (arguments that are neither integer nor
half-integer survive, or a 0 * inf combination that only a limit could
resolve -- this engine never takes limits).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Record, as_rational


class GammaValue(Record):
    """Base class for the result of `reduce`: an immutable value that
    equals only the same variant with equal fields."""

    __slots__ = ()


class Finite(GammaValue):
    """Fully reduced value q * pi^(s/2) with q a nonzero rational."""

    __slots__ = _fields = ("q", "s")
    q: Fraction
    s: int

    def __init__(self, q: Fraction, s: int) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)


class Zero(GammaValue):
    """A Gamma pole survived in the denominator, so the product is 0."""

    __slots__ = ()


class Pole(GammaValue):
    """A Gamma pole survived in the numerator."""

    __slots__ = ()


class Irreducible(GammaValue):
    """Whatever could not be evaluated exactly: the rational scalar q times
    prod Gamma(p/d)^e over the surviving integer triples `factors`
    (p, d, e), sorted by p/d.

    pi^(s/2) is folded back in as the triple (1, 2, s), Gamma(1/2)^s, so
    the residual stays a pure Gamma product.
    """

    __slots__ = _fields = ("q", "factors")
    q: Fraction
    factors: tuple[tuple[int, int, int], ...]

    def __init__(self, q: Fraction, factors: tuple[tuple[int, int, int], ...]) -> None:
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "factors", factors)


def _half_pair(p: int) -> tuple[int, int]:
    """Gamma(p/2) / sqrt(pi) for odd p as an integer pair (num, den):
    ((2m-1)!!, 2^m) at p = 2m+1 >= 1 and ((-2)^m, (2m-1)!!) at p = 1-2m <= -1."""
    if p > 0:
        return math.prod(range(1, p - 1, 2)), 1 << (p // 2)
    m = (1 - p) // 2
    return (-2) ** m, math.prod(range(1, 2 * m, 2))


def _times(num: int, den: int, x: int, y: int, e: int) -> tuple[int, int]:
    """(num/den) (x/y)^e as an integer pair; a negative e swaps x and y."""
    if e < 0:
        x, y, e = y, x, -e
    return num * x**e, den * y**e


def reduce(num: int, den: int, triples) -> GammaValue:
    """Reduce (num/den) * prod Gamma(p/q)^e over integer triples (p, q, e),
    p/q in lowest terms and q > 0, to a GammaValue.

    Every input must be an int: a float or a Fraction, even an integral
    one, raises TypeError.  A zero num or den, a q <= 0 or a gcd(p, q) != 1
    raises ValueError.

    Repeated arguments merge first (a net exponent 0 drops the factor); the
    rest are grouped by (p mod q, q).  Integer arguments go one by one: a
    positive one multiplies in (p-1)!; a nonpositive one is a pole of Gamma
    and classifies the whole product on its own.  Any other group is sorted
    by p, and each argument p/q is (b)_s Gamma(b) with b = p0/q the group's
    smallest argument and (b)_s = prod(range(p0, p, q)) / q^s, taken segment
    by segment between consecutive arguments, each segment raised to the
    sum of the exponents at and above it.  The Gamma(b)^net left over is
    evaluated when b is a half-integer (`_half_pair`, one factor of
    pi^(1/2) each) and kept otherwise.  A negative exponent multiplies into
    the other side of the pair (`_times`).  These cancellations are exact
    and happen before any pole classification.  Distinct surviving poles
    are never merged: a pole in numerator and denominator at once is a
    0 * inf that we refuse to resolve, hence Irreducible.
    """
    if not (isinstance(num, int) and isinstance(den, int)):
        raise TypeError(f"the scalar must be an integer pair, got {num!r}, {den!r}")
    if not (num and den):
        raise ValueError(f"the scalar and its denominator must be nonzero, got {num}/{den}")
    merged: dict[tuple[int, int], int] = {}
    for p, q, e in triples:
        if not (isinstance(p, int) and isinstance(q, int) and isinstance(e, int)):
            raise TypeError(f"a Gamma factor must be an integer triple (p, q, e), got {(p, q, e)!r}")
        if q <= 0 or math.gcd(p, q) != 1:
            raise ValueError(f"a Gamma argument p/q must have q > 0 and be in lowest terms, got {p}/{q}")
        merged[p, q] = merged.get((p, q), 0) + e
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (p, q), e in merged.items():
        if e:
            groups.setdefault((p % q, q), []).append((p, e))
    pi_halves = 0  # result carries pi^(pi_halves/2)
    num_pole = den_pole = False
    leftover: list[tuple[int, int, int]] = []  # surviving (p, q, e)

    for (_, q), members in groups.items():
        if q == 1:
            for p, exp in members:
                if p >= 1:
                    num, den = _times(num, den, math.factorial(p - 1), 1, exp)
                elif exp > 0:
                    num_pole = True
                else:
                    den_pole = True
            continue
        members.sort()
        net = sum(exp for _, exp in members)
        tail = net
        for (lo, exp), (hi, _) in zip(members, members[1:]):
            tail -= exp  # the exponents of every argument >= hi
            if tail:
                seg = math.prod(range(lo, hi, q))
                num, den = _times(num, den, seg, q ** ((hi - lo) // q), tail)
        if net == 0:
            continue
        base = members[0][0]
        if q == 2:
            num, den = _times(num, den, *_half_pair(base), net)
            pi_halves += net
        else:
            leftover.append((base, q, net))

    if num_pole and den_pole:
        leftover += [(p, 1, e) for (p, q), e in merged.items() if q == 1 and p <= 0 and e]
    elif num_pole:
        return Pole()
    elif den_pole:
        return Zero()
    if not leftover:
        return Finite(Fraction(num, den), pi_halves)
    if pi_halves:
        leftover.append((1, 2, pi_halves))
    return Irreducible(Fraction(num, den), tuple(sorted(leftover, key=lambda t: Fraction(t[0], t[1]))))


def gauss_second_rhs(a: Fraction | int, b: Fraction | int) -> GammaValue:
    """Closed form for the balanced 2F1 at argument 1/2:

        sqrt(pi) Gamma((a+b+1)/2) / (Gamma((a+1)/2) Gamma((b+1)/2))

    reduced as a Gamma product (sqrt(pi) = Gamma(1/2)).  With a = p/q and
    b = r/s the three arguments are (ps + rq + qs)/(2qs), (p + q)/(2q) and
    (r + s)/(2s), each brought to lowest terms by one gcd.
    """
    a = as_rational(a)
    b = as_rational(b)
    p, q = a.numerator, a.denominator
    r, s = b.numerator, b.denominator
    triples = [(1, 2, 1)]
    for x, y, e in ((p * s + r * q + q * s, 2 * q * s, 1), (p + q, 2 * q, -1), (r + s, 2 * s, -1)):
        g = math.gcd(x, y)
        triples.append((x // g, y // g, e))
    return reduce(1, 1, triples)
