"""Exact reduction of formal products of Gamma factors at rational arguments.

A GammaExpr is scalar * prod_i Gamma(a_i)^{e_i} with rational a_i and
integer e_i.  Reduction groups the factors whose arguments differ by
integers and writes each against the group's smallest argument b = p/q:

    Gamma(b + s) / Gamma(b) = (b)_s = p (p+q) ... (p+(s-1)q) / q^s.

What remains is evaluated in closed form: Gamma at positive integers as
factorials, Gamma at half-integers through

    Gamma(m + 1/2) = (2m-1)!! sqrt(pi) / 2^m             (m >= 0)
    Gamma(1/2 - m) = (-2)^m sqrt(pi) / (2m-1)!!           (m >= 1)

Every factor is an integer over an integer, so the rational part is kept
as one integer numerator and one integer denominator (a negative exponent
swaps the two) and a single `Fraction` is built for the result.

The result is one of: Finite(q, s) meaning q * pi^(s/2); Zero (a Gamma
pole survived in denominator position); Pole (one survived in the
numerator); or Irreducible (arguments that are neither integer nor
half-integer survive, or a 0 * inf combination that only a limit could
resolve -- this engine never takes limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import as_rational, is_nonpositive_integer

HALF = Fraction(1, 2)


class GammaExpr:
    """Formal product scalar * prod Gamma(arg)^exp; duplicate args merge."""

    __slots__ = ("factors", "scalar")

    def __init__(self, factors, scalar: Fraction | int = 1) -> None:
        items = factors.items() if isinstance(factors, dict) else factors
        # keyed by (numerator, denominator): int pairs hash and compare
        # faster than Fractions
        merged: dict[tuple[int, int], list] = {}
        for arg, exp in items:
            a = as_rational(arg)
            merged.setdefault((a.numerator, a.denominator), [a, 0])[1] += int(exp)
        s = as_rational(scalar)
        if s == 0:
            raise ValueError("GammaExpr scalar must be nonzero")
        # p/q sorts as the integer p * (lcm // q) over the common denominator
        lcm = math.lcm(*(q for _, q in merged))
        ordered = sorted((p * (lcm // q), a, e) for (p, q), (a, e) in merged.items() if e)
        self.factors: tuple[tuple[Fraction | int, int], ...] = tuple((a, e) for _, a, e in ordered)
        self.scalar: Fraction | int = s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaExpr):
            return NotImplemented
        return self.factors == other.factors and self.scalar == other.scalar

    def __hash__(self) -> int:
        return hash((self.factors, self.scalar))

    def __repr__(self) -> str:
        parts = " * ".join(f"G({a})^{e}" for a, e in self.factors)
        return f"GammaExpr({self.scalar} * {parts or '1'})"


class GammaValue:
    """Base class for the result of reducing a GammaExpr."""

    __slots__ = ()


@dataclass(frozen=True)
class Finite(GammaValue):
    """Fully reduced value q * pi^(s/2) with q a nonzero rational."""

    q: Fraction
    s: int


@dataclass(frozen=True)
class Zero(GammaValue):
    """A Gamma pole survived in the denominator, so the product is 0."""


@dataclass(frozen=True)
class Pole(GammaValue):
    """A Gamma pole survived in the numerator."""


@dataclass(frozen=True)
class Irreducible(GammaValue):
    """Whatever could not be evaluated exactly, kept as a GammaExpr.

    pi^(s/2) contributions are folded back in as Gamma(1/2)^s factors so
    the residual stays a pure Gamma product.
    """

    residual: GammaExpr


def _half_pair(p: int) -> tuple[int, int]:
    """Gamma(p/2) / sqrt(pi) for odd p as an integer pair (num, den):
    ((2m-1)!!, 2^m) at p = 2m+1 >= 1 and ((-2)^m, (2m-1)!!) at p = 1-2m <= -1."""
    if p > 0:
        return math.prod(range(1, p - 1, 2)), 1 << (p // 2)
    m = (1 - p) // 2
    return (-2) ** m, math.prod(range(1, 2 * m, 2))


def gamma_half(a: Fraction) -> Fraction:
    """The rational q with Gamma(a) = q * sqrt(pi), for half-integer a."""
    if a.denominator != 2:
        raise ValueError(f"{a} is not a half-integer")
    return Fraction(*_half_pair(a.numerator))


def _times(num: int, den: int, x: int, y: int, e: int) -> tuple[int, int]:
    """(num/den) (x/y)^e as an integer pair; a negative e swaps x and y."""
    if e < 0:
        x, y, e = y, x, -e
    return num * x**e, den * y**e


def reduce(expr: GammaExpr) -> GammaValue:
    """Reduce a Gamma product to a GammaValue.

    The rational part is one integer pair num/den, starting from the
    scalar.  Factors are grouped by (p mod q, q) of their argument p/q, so
    a group's arguments differ by integers.  Integer arguments go one by
    one: a positive one multiplies in (p-1)!; a nonpositive one is a pole
    of Gamma and classifies the whole product on its own.  In any other
    group each argument p/q is (b)_s Gamma(b) with b = p0/q the group's
    smallest argument and (b)_s = prod(range(p0, p, q)) / q^s; the product
    of these is taken segment by segment between consecutive arguments,
    each segment raised to the sum of the exponents at and above it.  The
    Gamma(b)^net left over is evaluated when b is a half-integer
    (`_half_pair`, one factor of pi^(1/2) each) and kept otherwise.  A
    negative exponent multiplies into the other side of the pair.  These
    cancellations are exact and happen before any pole classification.
    Distinct surviving nonpositive-integer arguments are never merged with
    each other: a pole in numerator and denominator at once is a 0 * inf
    that we refuse to resolve, hence Irreducible.  One `Fraction` is built,
    for Finite's value or for Irreducible's scalar.
    """
    num, den = expr.scalar.numerator, expr.scalar.denominator
    pi_halves = 0  # result carries pi^(pi_halves/2)
    num_pole = False
    den_pole = False
    leftover: list[tuple[Fraction, int]] = []

    # factors are sorted by argument, so each group's members are too
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for arg, exp in expr.factors:
        p, q = arg.numerator, arg.denominator
        groups.setdefault((p % q, q), []).append((p, exp))

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
            leftover.append((Fraction(base, q), net))

    if num_pole and den_pole:
        if pi_halves:
            leftover.append((HALF, pi_halves))
        for arg, exp in expr.factors:
            if is_nonpositive_integer(arg):
                leftover.append((arg, exp))
        return Irreducible(GammaExpr(leftover, Fraction(num, den)))
    if num_pole:
        return Pole()
    if den_pole:
        return Zero()
    rational = Fraction(num, den)
    if leftover:
        if pi_halves:
            leftover.append((HALF, pi_halves))
        return Irreducible(GammaExpr(leftover, rational))
    return Finite(rational, pi_halves)


def gauss_second_rhs(a: Fraction | int, b: Fraction | int) -> GammaValue:
    """Closed form for the balanced 2F1 at argument 1/2:

        sqrt(pi) Gamma((a+b+1)/2) / (Gamma((a+1)/2) Gamma((b+1)/2))

    built as a Gamma product (sqrt(pi) = Gamma(1/2)) and reduced.
    """
    a = Fraction(a)
    b = Fraction(b)
    expr = GammaExpr(
        [
            (HALF, 1),
            ((a + b + 1) / 2, 1),
            ((a + 1) / 2, -1),
            ((b + 1) / 2, -1),
        ]
    )
    return reduce(expr)
