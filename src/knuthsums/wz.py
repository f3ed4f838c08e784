"""Wilf-Zeilberger certificate checking on exact-rational grids.

A WZ pair is a normalized summand F(n, k) with compact k-support together
with a rational-function certificate R(n, k); the companion G = R * F must
satisfy

    F(n+1, k) - F(n, k) = G(n, k+1) - G(n, k)

identically, which telescopes (F has compact support) into the row sums
sum_k F(n, k) being constant in n.

The certificates checked here share the denominator (k-2n-1)(k-2n-2).  On
the support boundary k = 2n+1, 2n+2 that denominator vanishes while F
vanishes too, and the product R * F continues to a finite nonzero value:
the factor 1/Gamma(2n-k+1) inside F cancels through

    (k-2n-1)(k-2n-2) Gamma(2n-k+1) = Gamma(2n-k+3).

Every pair is built by `_pair` from one spec.  Its F is a registered
identity's own summand at index 2n (the integer term row of
`core.prop1_terms` or `core.prop2_terms`), times a normalisation free of
k; its R carries the certificate numerator.  Its companion G is R * F, by
`naive_companion`, wherever R is finite, and is hand-derived only at the
two boundary points k = 2n+1, 2n+2, where it is that cancelled limit; so
the pair equation can be verified at every grid point, boundary included.
Evaluating a bare certificate where its denominator vanishes (and
nothing cancels) raises CertificateDenominatorZero, which callers report
separately from a nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .core import CertificateDenominatorZero, gbinom, prop1_terms, prop2_terms


@dataclass(frozen=True)
class WZPair:
    """Summand F (supported on k = 0..2n), certificate R, companion
    G = R*F (its boundary limits taken), and the parameter domain where
    everything is defined."""

    name: str
    F: Callable[[int, int, Fraction], Fraction]
    R: Callable[[int, int, Fraction], Fraction]
    G: Callable[[int, int, Fraction], Fraction]
    defined: Callable[[int, Fraction], bool]


@lru_cache(maxsize=4)
def _summand_row(terms: Callable, norm: Callable, n: int, ell: Fraction) -> tuple[Fraction, ...]:
    """F(n, k) for k = 0..2n: the registered summand's terms at index 2n,
    times norm(n, l).

    A residual check at n reads rows n and n+1 and the row sum row n, so
    a sweep along n keeps hitting a handful of rows.
    """
    nums, den = terms(2 * n, ell)
    scale = norm(n, ell) / den
    return tuple(t * scale for t in nums)


def naive_companion(
    F: Callable[[int, int, Fraction], Fraction],
    R: Callable[[int, int, Fraction], Fraction],
) -> Callable[[int, int, Fraction], Fraction]:
    """G = R * F taken literally: zero wherever F is zero, and
    CertificateDenominatorZero when F is nonzero where R blows up.  Every
    registered pair's companion is this rule away from the two boundary
    points where R's pole cancels against F's zero."""

    def g(n: int, k: int, ell: Fraction) -> Fraction:
        fv = F(n, k, ell)
        if fv == 0:
            return Fraction(0)
        return R(n, k, ell) * fv

    return g


def _pair(
    name: str,
    terms: Callable[[int, Fraction], tuple[list[int], int]],
    rest: Callable[[int, Fraction], Fraction],
    shift: Callable[[Fraction], Fraction],
    norm: Callable[[int, Fraction], Fraction],
    defined: Callable[[int, Fraction], bool],
    offset: int = 0,
) -> WZPair:
    """The pair whose summand is the registered summand `terms` at index
    2n, normalised by a factor free of k:

        F(n,k) = terms(2n, l)[k] * norm(n, l)
        R(n,k) = -k(k+offset+2l) / ((k-2n-1)(k-2n-2))

    The k-th term is rest(k, l), the factors free of n, times the row
    entry choose(2n+s, 2n-k) = Gamma(2n+s+1) / (Gamma(k+s+1) Gamma(2n-k+1))
    with s = shift(l).  G is `naive_companion(F, R)`, that is R * F, at
    every k except k = 2n+1, 2n+2.  There R has its pole and F its zero,
    and G is the limit, with the row entry continued past the support:

        G(n,k) = -k(k+offset+2l) rest(k, l) norm(n, l)
                 / prod_{t=2n+1}^{k} (t+s)

    A vanishing factor of that product raises CertificateDenominatorZero.
    F lives on k = 0..2n and G on k = 1..2n+2.
    """

    def numerator(k: int, ell: Fraction) -> Fraction:
        return Fraction(-k) * ((k + offset) + 2 * ell)

    def F(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        return _summand_row(terms, norm, n, ell)[k]

    def R(n: int, k: int, ell: Fraction) -> Fraction:
        den = (k - 2 * n - 1) * (k - 2 * n - 2)
        if den == 0:
            raise CertificateDenominatorZero(f"certificate denominator vanishes at n={n}, k={k}")
        return numerator(k, ell) / den

    companion = naive_companion(F, R)

    def G(n: int, k: int, ell: Fraction) -> Fraction:
        if k not in (2 * n + 1, 2 * n + 2):
            return companion(n, k, ell)
        s = shift(ell)
        factors = [top + s for top in range(2 * n + 1, k + 1)]
        if 0 in factors:
            top = 2 * n + 1 + factors.index(0)
            raise CertificateDenominatorZero(f"Gamma ratio factor {top}+l vanishes at k={k}, l={s}")
        return numerator(k, ell) * rest(k, ell) * norm(n, ell) / math.prod(factors)

    return WZPair(name, F, R, G, defined)


def _head(k: int, ell: Fraction) -> Fraction:
    """(-1/2)^k choose(2k+2l, k), the factor every pair's term carries."""
    return Fraction(-1, 2) ** k * gbinom(2 * k + 2 * ell, k)


def register_prop1_certificate() -> WZPair:
    """The pair for the shifted Reed Dawson sum at even index 2n:

        F(n,k) = (-1/2)^k choose(2n+l, k+l) choose(2k+2l, k) 4^n / choose(2n+l, n)
    """
    return _pair(
        "prop1",
        prop1_terms,
        _head,
        lambda ell: ell,
        lambda n, ell: 4**n / gbinom(2 * n + ell, n),
        # choose(2n+l, n) vanishes exactly at the integers -2n <= l <= -n-1
        defined=lambda n, ell: ell.denominator != 1 or not -2 * n <= ell <= -n - 1,
    )


def register_prop2_certificate() -> WZPair:
    """The pair for the Pochhammer-normalized variant at even index 2n:

        F(n,k) = (-1/2)^k C(2n,k) choose(2k+2l, k) 4^n choose(n+l, n)
                 / (choose(k+l, k) C(2n,n))
    """
    return _pair(
        "prop2",
        prop2_terms,
        lambda k, ell: _head(k, ell) / gbinom(k + ell, k),
        lambda ell: Fraction(0),
        lambda n, ell: 4**n * gbinom(n + ell, n) / math.comb(2 * n, n),
        # choose(k+l, k) = (l+1)_k / k! must stay nonzero through k = 2n+2
        defined=lambda n, ell: ell.denominator != 1 or not -(2 * n + 2) <= ell <= -1,
    )


def negative_control() -> WZPair:
    """A deliberately broken pair: the summand is left unnormalized (its
    row sums grow with n) and the certificate numerator is corrupted to
    k(k+2l+1).  Both the residual check and the row-sum check must fail."""
    return _pair(
        "negative-control",
        prop1_terms,
        _head,
        lambda ell: ell,
        lambda n, ell: Fraction(4**n),
        defined=lambda n, ell: True,
        offset=1,
    )


def certificates() -> dict[str, WZPair]:
    pairs = [register_prop1_certificate(), register_prop2_certificate(), negative_control()]
    return {p.name: p for p in pairs}


def wz_residual(pair: WZPair, n: int, k: int, ell: Fraction | int) -> Fraction:
    """F(n+1,k) - F(n,k) - G(n,k+1) + G(n,k); zero iff the pair equation
    holds at this point."""
    ell = Fraction(ell)
    if not (pair.defined(n, ell) and pair.defined(n + 1, ell)):
        raise CertificateDenominatorZero(
            f"pair {pair.name} undefined at n={n}, l={ell}"
        )
    return (
        pair.F(n + 1, k, ell)
        - pair.F(n, k, ell)
        - pair.G(n, k + 1, ell)
        + pair.G(n, k, ell)
    )


def residual_grid(pair: WZPair, n: int, ell: Fraction | int) -> Fraction:
    """The first nonzero residual over the widened range k = -1..2n+3, or 0
    when the pair equation holds at every point of it."""
    for k in range(-1, 2 * n + 4):
        r = wz_residual(pair, n, k, ell)
        if r != 0:
            return r
    return Fraction(0)


def row_sum(pair: WZPair, n: int, ell: Fraction | int) -> Fraction:
    """sum_k F(n, k) over row n's support k = 0..2n; 1 for a verified pair."""
    ell = Fraction(ell)
    if not pair.defined(n, ell):
        raise CertificateDenominatorZero(
            f"pair {pair.name} undefined at n={n}, l={ell}"
        )
    return sum((pair.F(n, k, ell) for k in range(2 * n + 1)), Fraction(0))


def wz_sum_constant(pair: WZPair, n_max: int, ell: Fraction | int) -> list[Fraction]:
    """Row sums sum_k F(n, k) for n = 0..n_max; all 1 for a verified pair."""
    return [row_sum(pair, n, ell) for n in range(n_max + 1)]
