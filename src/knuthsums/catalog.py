"""The identity registry: every closed-form summation identity this
package verifies, as (brute-force LHS, closed-form RHS, validity) triples.

Each identity is registered under a stable kebab-case key.  The LHS
evaluator is always the plain finite sum over exact rationals -- the
universal oracle -- and the RHS is the closed form; verification is exact
equality, no tolerances anywhere.  The case model and the sweep live in
`sweep`, which reads this registry when a sweep is started.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import abel, legendre
from .core import as_rational, harmonic_row, prop1_closed, prop1_row, prop2_closed, prop2_row

# the case model and the sweep, re-exported: `catalog.verify` is the name
# `_verify_case` calls, so replacing it here reaches every case of a sweep
from .sweep import DEFAULT_ELL_GRID, Identity, VerificationReport, iter_cases, run_sweep, verify  # noqa: F401


# ---------------------------------------------------------------------------
# Alternating central-binomial sums with a rational shift parameter.
# ---------------------------------------------------------------------------


def knuth_lhs(n: int) -> Fraction:
    """sum_{k=0}^n (-1/2)^k C(n,k) C(2k,k)."""
    s = sum((-1) ** k * math.comb(n, k) * math.comb(2 * k, k) << (n - k) for k in range(n + 1))
    return Fraction(s, 2**n)


def knuth_rhs(n: int) -> Fraction:
    """2^(-n) C(n, n/2) for even n, else 0."""
    if n % 2:
        return Fraction(0)
    return Fraction(math.comb(n, n // 2), 2**n)


def prop1_valid(n: int, ell: Fraction | int) -> bool:
    """The shift must avoid the negative integers >= -n, where the Gamma
    form of choose(n+l, k+l) degenerates."""
    ell = as_rational(ell)
    return not (ell.denominator == 1 and -n <= ell.numerator <= -1)


def prop1_lhs(n: int, ell: Fraction | int) -> Fraction:
    """sum_{k=0}^n (-1/2)^k choose(n+l, k+l) choose(2k+2l, k), one integer
    over one denominator (`core.prop1_row`)."""
    ell = as_rational(ell)
    terms, den = prop1_row(n, ell.numerator, ell.denominator)
    return Fraction(sum(terms), den)


def prop1_rhs(n: int, ell: Fraction | int) -> Fraction:
    """2^(-n) choose(n+l, n/2) for even n, else 0: `core.prop1_closed`."""
    ell = as_rational(ell)
    if n % 2:
        return Fraction(0)
    return Fraction(*prop1_closed(n, ell.numerator, ell.denominator))


# choose(k+l, k) for k <= n vanishes exactly at the integer shifts
# -n <= l <= -1 that prop1 excludes; at even n the closed form's
# choose(n/2+l, n/2) vanishes only on the subset -n/2 <= l <= -1, so it
# never decides.
prop2_valid = prop1_valid


def prop2_lhs(n: int, ell: Fraction | int) -> Fraction:
    """sum_{k=0}^n (-1/2)^k C(n,k) choose(2k+2l, k) / choose(k+l, k), one
    integer over one denominator (`core.prop2_row`)."""
    ell = as_rational(ell)
    terms, den = prop2_row(n, ell.numerator, ell.denominator)
    return Fraction(sum(terms), den)


def prop2_rhs(n: int, ell: Fraction | int) -> Fraction:
    """2^(-n) C(n, n/2) / choose(n/2+l, n/2) for even n, else 0:
    `core.prop2_closed`; ZeroDivisionError where choose(n/2+l, n/2) vanishes."""
    ell = as_rational(ell)
    if n % 2:
        return Fraction(0)
    return Fraction(*prop2_closed(n, ell.numerator, ell.denominator))


# ---------------------------------------------------------------------------
# Binomial-harmonic sums.
# ---------------------------------------------------------------------------


def hkmix_lhs(n: int) -> Fraction:
    """sum_{k=0}^{2n} (-1/2)^k C(2k,k) C(2n,k) (3 H_k - 2 H_{2k}), one
    integer over 2^(2n) L, H_j = h[j] / L read from `core.harmonic_row(4n)`."""
    h, den = harmonic_row(4 * n)
    s = sum(
        (-1) ** k * math.comb(2 * k, k) * math.comb(2 * n, k) * (3 * h[k] - 2 * h[2 * k]) << (2 * n - k)
        for k in range(2 * n + 1)
    )
    return Fraction(s, den << 2 * n)


def hkmix_rhs(n: int) -> Fraction:
    """4^(-n) C(2n,n) H_n."""
    h, den = harmonic_row(n)
    return Fraction(math.comb(2 * n, n) * h[n], den << 2 * n)


def _over_next_sum(m: int, top: int) -> Fraction:
    """sum_{k=0}^{top} (-2)^k C(m,k) H_k / (k+1): with H_k = h[k] / L over
    L = lcm(1..top+1), which every k+1 divides, one integer over L^2."""
    h, den = harmonic_row(top + 1)
    s = sum((-2) ** k * math.comb(m, k) * h[k] * (den // (k + 1)) for k in range(top + 1))
    return Fraction(s, den * den)


def oddh_corollary_lhs(m: int) -> Fraction:
    """sum_{k=0}^m (-2)^k C(m,k) H_k / (k+1)."""
    return _over_next_sum(m, m)


def oddh_corollary_rhs(m: int) -> Fraction:
    """-(2/(m+1)) O_((m+1)/2) for odd m, else 0."""
    if m % 2 == 0:
        return Fraction(0)
    o, den = harmonic_row((m + 1) // 2, odd=True)
    return Fraction(-2 * o[-1], (m + 1) * den)


def intermediate_lhs(n: int) -> Fraction:
    """sum_{k=0}^{2n} (-2)^k C(2n+1,k) H_k / (k+1)."""
    return _over_next_sum(2 * n + 1, 2 * n)


def intermediate_rhs(n: int) -> Fraction:
    """(4^n - 1) H_{2n}/(n+1) + H_n/(2(n+1)) + (4^n - 1)/((n+1)(2n+1)),
    one integer over 2(n+1)(2n+1) L."""
    p = 4**n - 1
    h, den = harmonic_row(2 * n)
    return Fraction((2 * p * h[2 * n] + h[n]) * (2 * n + 1) + 2 * p * den, 2 * (n + 1) * (2 * n + 1) * den)


@lru_cache(maxsize=2)
def _gf_row(n: int, q: int) -> tuple[tuple[int, ...], int]:
    """The coefficients d_k = C(2n,k) (-2)^k (L/(k+1)) q^(2n-k), k <= 2n, of
    the gf-polynomial's terms at x = p/q, over L q^(2n), L = lcm(1..2n+1).

    Sweeps visit the 2n+1 points of one n in a row (and so do the pool's
    chunks), and `gfpoly_lhs` writes them all over q = 2n+1.
    """
    m = 2 * n
    lcm = math.lcm(*range(1, m + 2))
    coeffs = tuple(math.comb(m, k) * (-2) ** k * (lcm // (k + 1)) * q ** (m - k) for k in range(m + 1))
    return coeffs, lcm * q**m


def gfpoly_lhs(n: int, x: Fraction | int) -> Fraction:
    """sum_{k=0}^{2n} (-1/2)^k C(2n,k) 4^k x^k / (k+1)  (equals (-2x)^k terms).

    With x = p/q written as p'/q' over q' = lcm(q, 2n+1), every term is an
    integer over L q'^(2n): d_k p'^k with d_k from `_gf_row(n, q')`, summed
    by Horner's rule in p'.  So the points j/(2n+1) of one n share a row.
    """
    x = as_rational(x)
    q = math.lcm(x.denominator, 2 * n + 1)
    coeffs, den = _gf_row(n, q)
    p = x.numerator * (q // x.denominator)
    total = coeffs[-1]
    for d in reversed(coeffs[:-1]):
        total = total * p + d
    return Fraction(total, den)


def gfpoly_rhs(n: int, x: Fraction | int) -> Fraction:
    """(1 - (1-2x)^(2n+1)) / (2(2n+1)x) for x != 0; the x -> 0 limit is 1.

    With x = p/q this is (q^(2n+1) - (q-2p)^(2n+1)) / (2(2n+1) p q^(2n)).
    """
    x = as_rational(x)
    p, q = x.numerator, x.denominator
    if p == 0:
        return Fraction(1)
    m = 2 * n
    q_power = q**m
    return Fraction(q_power * q - (q - 2 * p) ** (m + 1), 2 * (m + 1) * p * q_power)


def tauraso_lhs(n: int) -> Fraction:
    """sum_{k=0}^{2n} (-1)^k C(2n,k) C(2n+k,k) C(2k,k) 4^(2n-k) H_k, with
    (-1)^k C(2n,k) C(2n+k,k) read as c_k of the Legendre row P_2n(2x-1)."""
    h, den = harmonic_row(2 * n)
    c = legendre.shifted_legendre(2 * n)
    return Fraction(sum(c[k] * math.comb(2 * k, k) * h[k] << 2 * (2 * n - k) for k in range(2 * n + 1)), den)


def tauraso_rhs(n: int) -> Fraction:
    """C(2n,n)^2 H_{2n}."""
    h, den = harmonic_row(2 * n)
    return Fraction(math.comb(2 * n, n) ** 2 * h[2 * n], den)


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


def _verify_case(case: tuple[str, dict]) -> VerificationReport:
    """One case of `run_sweep`, named so that a pool worker can look it up."""
    name, params = case
    return verify(REGISTRY[name], params)
