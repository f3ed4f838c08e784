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

Every pair is built by `_pair` from one spec (the binomial row its
summand reads, its normalisation, its certificate numerator), which
derives F and R.  Its companion G is R * F, by `naive_companion`,
wherever R is finite, and is hand-derived only at the two boundary
points k = 2n+1, 2n+2, where it is that cancelled limit; so the pair
equation can be verified at every grid point, boundary included.
Evaluating a bare certificate where its denominator vanishes (and
nothing cancels) raises CertificateDenominatorZero, which callers report
separately from a nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .core import CertificateDenominatorZero, binom2k_numerators, gbinom_numerators

HALF = Fraction(1, 2)


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


class _Rows(NamedTuple):
    upper: tuple[Fraction, ...]
    central: tuple[Fraction, ...]
    b2k: tuple[Fraction, ...]
    shifted: tuple[Fraction, ...]


def _over(numerators: list[int], b: int) -> tuple[Fraction, ...]:
    """The row entries numerators[j] / (b^j j!)."""
    row = []
    den = 1
    for j, num in enumerate(numerators):
        if j:
            den *= b * j
        row.append(Fraction(num, den))
    return tuple(row)


@lru_cache(maxsize=4)
def _rows(n: int, ell: Fraction) -> _Rows:
    """The binomial rows every pair reads at one (n, l):

    upper[j] = choose(2n+l, j) and central[j] = C(2n, j) for j = 0..2n;
    b2k[k] = choose(2k+2l, k) and shifted[k] = choose(k+l, k) for
    k = 0..2n+2, the last index a companion G(n, k) reaches.  Each entry
    is one `Fraction` built from the integer numerators of `core`.

    A residual check at n reads rows n and n+1 and the row sum row n, so
    a sweep along n keeps hitting a handful of entries.
    """
    b = ell.denominator
    # choose(k+l, k) = (-1)^k choose(-l-1, k)
    reflected = _over(gbinom_numerators(-ell - 1, 2 * n + 2), b)
    return _Rows(
        _over(gbinom_numerators(2 * n + ell, 2 * n), b),
        _over(gbinom_numerators(2 * n, 2 * n), 1),
        _over(binom2k_numerators(ell, 2 * n + 2), b),
        tuple(-r if k % 2 else r for k, r in enumerate(reflected)),
    )


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
    row: Callable[[_Rows, Fraction], tuple[tuple[Fraction, ...], Fraction]],
    defined: Callable[[int, Fraction], bool],
    normalise: Callable[[Fraction, _Rows, int, int], Fraction] | None = None,
    offset: int = 0,
) -> WZPair:
    """The pair whose summand reads the binomial row `row(rows, l)` picks,
    returned with that row's shift:

        F(n,k) = (-1/2)^k choose(2k+2l, k) 4^n row[2n-k] * normalisation
        R(n,k) = -k(k+offset+2l) / ((k-2n-1)(k-2n-2))

    G is `naive_companion(F, R)`, that is R * F, at every k except
    k = 2n+1, 2n+2.  There R has its pole and F its zero, and G is the
    limit, with row[2n-k] = Gamma(2n+shift+1) / (Gamma(k+shift+1)
    Gamma(2n-k+1)) continued past the support:

        G(n,k) = -k(k+offset+2l) (-1/2)^k choose(2k+2l, k) 4^n
                 * normalisation / prod_{t=2n+1}^{k} (t+shift)

    A vanishing factor of that product raises CertificateDenominatorZero.
    F lives on k = 0..2n and G on k = 1..2n+2; `normalise(value, rows,
    n, k)` is applied last.
    """

    def numerator(k: int, ell: Fraction) -> Fraction:
        return Fraction(-k) * ((k + offset) + 2 * ell)

    def head(n: int, k: int, rows: _Rows) -> Fraction:
        return (-HALF) ** k * rows.b2k[k] * 4**n

    def F(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        rows = _rows(n, ell)
        binoms, _ = row(rows, ell)
        value = head(n, k, rows) * binoms[2 * n - k]
        return normalise(value, rows, n, k) if normalise else value

    def R(n: int, k: int, ell: Fraction) -> Fraction:
        den = (k - 2 * n - 1) * (k - 2 * n - 2)
        if den == 0:
            raise CertificateDenominatorZero(f"certificate denominator vanishes at n={n}, k={k}")
        return numerator(k, ell) / den

    companion = naive_companion(F, R)

    def G(n: int, k: int, ell: Fraction) -> Fraction:
        if k not in (2 * n + 1, 2 * n + 2):
            return companion(n, k, ell)
        rows = _rows(n, ell)
        _, shift = row(rows, ell)
        factors = [top + shift for top in range(2 * n + 1, k + 1)]
        if 0 in factors:
            top = 2 * n + 1 + factors.index(0)
            raise CertificateDenominatorZero(f"Gamma ratio factor {top}+l vanishes at k={k}, l={shift}")
        value = numerator(k, ell) * head(n, k, rows) / math.prod(factors)
        return normalise(value, rows, n, k) if normalise else value

    return WZPair(name, F, R, G, defined)


def register_prop1_certificate() -> WZPair:
    """The pair for the shifted Reed Dawson sum at even index 2n:

        F(n,k) = (-1/2)^k choose(2n+l, k+l) choose(2k+2l, k) 4^n / choose(2n+l, n)
    """
    return _pair(
        "prop1",
        lambda rows, ell: (rows.upper, ell),
        defined=lambda n, ell: _rows(n, ell).upper[n] != 0,
        normalise=lambda value, rows, n, k: value / rows.upper[n],
    )


def register_prop2_certificate() -> WZPair:
    """The pair for the Pochhammer-normalized variant at even index 2n:

        F(n,k) = (-1/2)^k C(2n,k) choose(2k+2l, k) 4^n choose(n+l, n)
                 / (choose(k+l, k) C(2n,n))
    """
    return _pair(
        "prop2",
        lambda rows, ell: (rows.central, Fraction(0)),
        # choose(k+l, k) = (l+1)_k / k! must stay nonzero through k = 2n+2
        defined=lambda n, ell: ell.denominator != 1 or not -(2 * n + 2) <= ell <= -1,
        normalise=lambda value, rows, n, k: (
            value * rows.shifted[n] / (rows.shifted[k] * rows.central[n])
        ),
    )


def negative_control() -> WZPair:
    """A deliberately broken pair: the summand is left unnormalized (its
    row sums grow with n) and the certificate numerator is corrupted to
    k(k+2l+1).  Both the residual check and the row-sum check must fail."""
    return _pair(
        "negative-control",
        lambda rows, ell: (rows.upper, ell),
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
