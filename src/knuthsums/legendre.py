"""Shifted Legendre polynomials on [0,1], their exact moments, and the
odd-harmonic analogue of the Reed Dawson sum.

P_n(2x-1) has the integer monomial coefficients

    c_j = (-1)^(n-j) C(n,j) C(n+j,j),

each computed from this formula, O(n) per row.  The row is checked by the
log-moment and Tauraso closed forms, which both read it.  The
x^p moments over [0,1] reduce to a three-factor Gamma product; the
log-weighted moment against 1/sqrt(x) is a finite rational because
int_0^1 x^(j-1/2) ln(x) dx = -4/(2j+1)^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import as_rational, exact_sum, harmonic_row

if TYPE_CHECKING:
    from . import gammaprod


def shifted_legendre(n: int) -> tuple[int, ...]:
    """The monomial coefficients c_j = (-1)^(n-j) C(n,j) C(n+j,j) of
    P_n(2x-1): c_j multiplies x^j."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return tuple((-1) ** (n - j) * math.comb(n, j) * math.comb(n + j, j) for j in range(n + 1))


def moment(p: Fraction | int, n: int) -> gammaprod.GammaValue:
    """int_0^1 x^p P_n(2x-1) dx as the reduced Gamma product
    Gamma(p+1)^2 / (Gamma(p-n+1) Gamma(p+n+2)), for rational p > -1 and
    n >= 0.  With p = a/d the arguments are the integer triples
    (a+d, d, 2), (a+(1-n)d, d, -1) and (a+(n+2)d, d, -1), each in lowest
    terms as gcd(a + jd, d) = gcd(a, d) = 1."""
    # the only user of gammaprod here: the registry's LHSs never load it
    from . import gammaprod

    p = as_rational(p)
    a, d = p.numerator, p.denominator
    if a <= -d:
        raise ValueError(f"moment requires p > -1, got {p}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    triples = [(a + d, d, 2), (a + (1 - n) * d, d, -1), (a + (n + 2) * d, d, -1)]
    return gammaprod.reduce(1, 1, triples)


def moment_by_expansion(p: Fraction | int, n: int) -> Fraction:
    """Brute-force oracle for moment(): integrate the monomial expansion
    term by term, sum_j c_j / (p + j + 1).

    With p = a/d the j-th term is c_j d / (a + (j+1) d), summed
    by `core.exact_sum` into one integer pair.
    """
    p = as_rational(p)
    a, d = p.numerator, p.denominator
    if a <= -d:
        raise ValueError(f"moment requires p > -1, got {p}")
    return Fraction(*exact_sum((c * d, a + (j + 1) * d) for j, c in enumerate(shifted_legendre(n))))


def log_moment_sqrt_lhs(n: int) -> tuple[int, int]:
    """int_0^1 ln(x)/sqrt(x) P_n(2x-1) dx, exactly: each monomial x^j
    contributes c_j * (-4/(2j+1)^2)."""
    return exact_sum((-4 * c, (2 * j + 1) ** 2) for j, c in enumerate(shifted_legendre(n)))


def log_moment_sqrt_rhs(n: int) -> tuple[int, int]:
    """Closed form 4(-1)^n H_n/(2n+1) - 8(-1)^n H_{2n}/(2n+1) - 4(-1)^n/(2n+1)^2,
    one integer over (2n+1)^2 L with H_j = h[j] / L from `core.harmonic_row`."""
    h, den = harmonic_row(2 * n)
    return (-1) ** n * 4 * ((h[n] - 2 * h[2 * n]) * (2 * n + 1) - den), (2 * n + 1) ** 2 * den


def odd_knuth_lhs(n: int) -> tuple[int, int]:
    """sum_{k=0}^n (-1/4)^k C(n,k) C(2k,k) O_k, one integer over 4^n L with
    O_k = o[k] / L read from `core.harmonic_row(n, odd=True)`."""
    o, den = harmonic_row(n, odd=True)
    s = sum((-1) ** k * math.comb(n, k) * math.comb(2 * k, k) * o[k] << 2 * (n - k) for k in range(n + 1))
    return s, den << 2 * n


def odd_knuth_rhs(n: int) -> tuple[int, int]:
    """Closed form -(1/4)^n C(2n,n) O_n."""
    o, den = harmonic_row(n, odd=True)
    return -math.comb(2 * n, n) * o[n], den << 2 * n
