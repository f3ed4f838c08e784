"""Shifted Legendre polynomials on [0,1], their exact moments, and the
odd-harmonic analogue of the Reed Dawson sum.

P_n(2x-1) is expanded into monomial coefficients by exact polynomial
multiplication of the product form

    P_n(2x-1) = sum_k C(n,k)^2 (x-1)^(n-k) x^k,

which gives integer coefficients c_j = (-1)^(n-j) C(n,j) C(n+j,j).  The
x^p moments over [0,1] reduce to a three-factor Gamma product; the
log-weighted moment against 1/sqrt(x) is a finite rational because
int_0^1 x^(j-1/2) ln(x) dx = -4/(2j+1)^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .core import as_rational, exact_sum, harmonic, odd_harmonic

if TYPE_CHECKING:
    from . import gammaprod


class ShiftedLegendre(NamedTuple):
    """Monomial coefficients of P_n(2x-1): coeffs[j] multiplies x^j."""

    n: int
    coeffs: tuple[int, ...]

    def value_at_one(self) -> int:
        return sum(self.coeffs)

    def value_at_zero(self) -> int:
        return self.coeffs[0]


@lru_cache(maxsize=64)
def shifted_legendre(n: int) -> ShiftedLegendre:
    """Expand sum_k C(n,k)^2 (x-1)^(n-k) x^k into monomial coefficients.

    The expansion costs O(n^2) big-integer products and is immutable, so
    the 64 most recent degrees are kept: a moment grid reads the same n
    for every p.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        w = math.comb(n, k) ** 2
        p = n - k
        # (x-1)^p contributes C(p,i) (-1)^(p-i) x^i
        for i in range(p + 1):
            coeffs[k + i] += w * math.comb(p, i) * (-1) ** (p - i)
    return ShiftedLegendre(n, tuple(coeffs))


def moment(p: Fraction | int, n: int) -> gammaprod.GammaValue:
    """int_0^1 x^p P_n(2x-1) dx as the reduced Gamma product
    Gamma(p+1)^2 / (Gamma(p-n+1) Gamma(p+n+2)), for rational p > -1 and
    n >= 0.  With p = a/d the arguments are the integer pairs (a+d)/d,
    (a+(1-n)d)/d and (a+(n+2)d)/d."""
    # the only user of gammaprod here: the registry's LHSs never load it
    from . import gammaprod

    p = as_rational(p)
    a, d = p.numerator, p.denominator
    if a <= -d:
        raise ValueError(f"moment requires p > -1, got {Fraction(a, d)}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    expr = gammaprod.GammaExpr(
        [
            (Fraction(a + d, d), 2),
            (Fraction(a + (1 - n) * d, d), -1),
            (Fraction(a + (n + 2) * d, d), -1),
        ]
    )
    return gammaprod.reduce(expr)


def moment_by_expansion(p: Fraction | int, n: int) -> Fraction:
    """Brute-force oracle for moment(): integrate the monomial expansion
    term by term, sum_j coeffs[j] / (p + j + 1).

    With p = a/d the j-th term is coeffs[j] d / (a + (j+1) d), summed
    by `core.exact_sum`.
    """
    p = Fraction(p)
    if p <= -1:
        raise ValueError(f"moment requires p > -1, got {p}")
    a, d = p.numerator, p.denominator
    return exact_sum((c * d, a + (j + 1) * d) for j, c in enumerate(shifted_legendre(n).coeffs))


def log_moment_sqrt_lhs(n: int) -> Fraction:
    """int_0^1 ln(x)/sqrt(x) P_n(2x-1) dx, exactly: each monomial x^j
    contributes coeffs[j] * (-4/(2j+1)^2)."""
    return exact_sum((-4 * c, (2 * j + 1) ** 2) for j, c in enumerate(shifted_legendre(n).coeffs))


def log_moment_sqrt_rhs(n: int) -> Fraction:
    """Closed form 4(-1)^n H_n/(2n+1) - 8(-1)^n H_{2n}/(2n+1) - 4(-1)^n/(2n+1)^2."""
    sign = (-1) ** n
    return (
        4 * sign * harmonic(n) / (2 * n + 1)
        - 8 * sign * harmonic(2 * n) / (2 * n + 1)
        - Fraction(4 * sign, (2 * n + 1) ** 2)
    )


def odd_knuth_lhs(n: int) -> Fraction:
    """sum_{k=0}^n (-1/4)^k C(n,k) C(2k,k) O_k over exact rationals."""

    def term(k: int) -> tuple[int, int]:
        o = odd_harmonic(k)
        return (-1) ** k * math.comb(n, k) * math.comb(2 * k, k) * o.numerator, 4**k * o.denominator

    return exact_sum(term(k) for k in range(n + 1))


def odd_knuth_rhs(n: int) -> Fraction:
    """Closed form -(1/4)^n C(2n,n) O_n."""
    return -Fraction(math.comb(2 * n, n), 4**n) * odd_harmonic(n)
