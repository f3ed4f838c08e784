"""Exact reduction of formal products of Gamma factors at rational arguments.

A GammaExpr is scalar * prod_i Gamma(a_i)^{e_i} with rational a_i and
integer e_i.  Reduction pairs factors whose arguments differ by integers
into Pochhammer ratios, then evaluates what remains: Gamma at positive
integers as factorials, Gamma at half-integers through

    Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)          (m >= 0)
    Gamma(1/2 - m) = (-4)^m m! sqrt(pi) / (2m)!          (m >= 1)

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

from .core import is_nonpositive_integer, pochhammer

HALF = Fraction(1, 2)


class GammaExpr:
    """Formal product scalar * prod Gamma(arg)^exp; duplicate args merge."""

    __slots__ = ("factors", "scalar")

    def __init__(self, factors, scalar: Fraction | int = 1) -> None:
        items = factors.items() if isinstance(factors, dict) else factors
        merged: dict[Fraction, int] = {}
        for arg, exp in items:
            a = Fraction(arg)
            merged[a] = merged.get(a, 0) + int(exp)
        s = Fraction(scalar)
        if s == 0:
            raise ValueError("GammaExpr scalar must be nonzero")
        self.factors: tuple[tuple[Fraction, int], ...] = tuple(
            sorted((a, e) for a, e in merged.items() if e != 0)
        )
        self.scalar: Fraction = s

    def __mul__(self, other: "GammaExpr") -> "GammaExpr":
        return GammaExpr(
            list(self.factors) + list(other.factors), self.scalar * other.scalar
        )

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

    def as_rational(self) -> Fraction:
        if self.s != 0:
            raise ValueError(f"value carries pi^({self.s}/2), not rational")
        return self.q


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


def gamma_half(a: Fraction) -> Fraction:
    """The rational q with Gamma(a) = q * sqrt(pi), for half-integer a."""
    if (a - HALF).denominator != 1:
        raise ValueError(f"{a} is not a half-integer")
    m = int(a - HALF)
    if m >= 0:
        return Fraction(math.factorial(2 * m), 4**m * math.factorial(m))
    m = -m
    return Fraction((-4) ** m * math.factorial(m), math.factorial(2 * m))


def reduce(expr: GammaExpr) -> GammaValue:
    """Reduce a Gamma product to a GammaValue.

    Strategy: group factors by argument mod 1; within a group convert
    ratios against the smallest argument into Pochhammer products (these
    cancellations are exact and happen before any pole classification);
    then terminally evaluate integer and half-integer bases.  Distinct
    surviving nonpositive-integer arguments are never merged with each
    other: a pole in numerator and denominator at once is a 0 * inf that
    we refuse to resolve, hence Irreducible.
    """
    rational = expr.scalar
    pi_halves = 0  # result carries pi^(pi_halves/2)
    num_pole = False
    den_pole = False
    leftover: list[tuple[Fraction, int]] = []

    groups: dict[Fraction, list[tuple[Fraction, int]]] = {}
    for arg, exp in expr.factors:
        groups.setdefault(arg - math.floor(arg), []).append((arg, exp))

    for frac_part, members in groups.items():
        if frac_part == 0:
            # Positive integers evaluate to factorials.  Nonpositive
            # integers are poles of Gamma; each surviving one classifies
            # the whole product on its own.
            for arg, exp in members:
                if arg >= 1:
                    rational *= Fraction(math.factorial(int(arg) - 1)) ** exp
                elif exp > 0:
                    num_pole = True
                else:
                    den_pole = True
            continue
        base = min(arg for arg, _ in members)
        net = 0
        for arg, exp in members:
            shift = int(arg - base)
            rational *= pochhammer(base, shift) ** exp
            net += exp
        if net == 0:
            continue
        if frac_part == HALF:
            rational *= gamma_half(base) ** net
            pi_halves += net
        else:
            leftover.append((base, net))

    if num_pole and den_pole:
        if pi_halves:
            leftover.append((HALF, pi_halves))
        for arg, exp in expr.factors:
            if is_nonpositive_integer(arg):
                leftover.append((arg, exp))
        return Irreducible(GammaExpr(leftover, rational))
    if num_pole:
        return Pole()
    if den_pole:
        return Zero()
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
