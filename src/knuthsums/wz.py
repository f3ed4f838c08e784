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

Each registered pair therefore carries an explicit companion evaluator
with that cancellation performed, so the pair equation can be verified at
every grid point, boundary included.  Evaluating a bare certificate where
its denominator vanishes (and nothing cancels) raises
CertificateDenominatorZero, which callers report separately from a
nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .core import binom2k_row, gbinom_row

HALF = Fraction(1, 2)


class CertificateDenominatorZero(ZeroDivisionError):
    """The certificate's denominator vanishes at an evaluation point."""


@dataclass(frozen=True)
class WZPair:
    """Summand F, certificate R, companion G = R*F (cancellations done),
    the k-support of row n, and the parameter domain where everything is
    defined."""

    name: str
    F: Callable[[int, int, Fraction], Fraction]
    R: Callable[[int, int, Fraction], Fraction]
    G: Callable[[int, int, Fraction], Fraction]
    support: Callable[[int], range]
    defined: Callable[[int, Fraction], bool]


class _Rows(NamedTuple):
    upper: tuple[Fraction, ...]
    central: tuple[Fraction, ...]
    b2k: tuple[Fraction, ...]
    shifted: tuple[Fraction, ...]


@lru_cache(maxsize=4)
def _rows(n: int, ell: Fraction) -> _Rows:
    """The binomial rows every pair reads at one (n, l):

    upper[j] = choose(2n+l, j) and central[j] = C(2n, j) for j = 0..2n;
    b2k[k] = choose(2k+2l, k) and shifted[k] = choose(k+l, k) for
    k = 0..2n+2, the last index a companion G(n, k) reaches.

    A residual check at n reads rows n and n+1 and the row sum row n, so
    a sweep along n keeps hitting a handful of entries.
    """
    # choose(k+l, k) = (-1)^k choose(-l-1, k)
    reflected = gbinom_row(-ell - 1, 2 * n + 2)
    return _Rows(
        tuple(gbinom_row(2 * n + ell, 2 * n)),
        tuple(gbinom_row(2 * n, 2 * n)),
        tuple(binom2k_row(ell, 2 * n + 2)),
        tuple(-r if k % 2 else r for k, r in enumerate(reflected)),
    )


def _trunc_ratio(upper: tuple[Fraction, ...], shift: Fraction, k: int) -> Fraction:
    """Gamma(n2+shift+1) / (Gamma(k+shift+1) Gamma(n2-k+3)) for integer k,
    given upper[m] = choose(n2+shift, m) for m = 0..n2.

    This is the certificate denominator absorbed into the binomial part of
    F; it vanishes for k >= n2+3.  At k = n2+1, n2+2 it is the reciprocal
    of (n2+shift+1) or (n2+shift+1)(n2+shift+2): a pole where a factor
    vanishes, which raises CertificateDenominatorZero.
    """
    n2 = len(upper) - 1
    if k >= n2 + 3:
        return Fraction(0)
    if k <= n2:
        m = n2 - k
        return upper[m] / ((m + 1) * (m + 2))
    factors = [top + shift for top in range(n2 + 1, k + 1)]
    if 0 in factors:
        top = n2 + 1 + factors.index(0)
        raise CertificateDenominatorZero(f"Gamma ratio factor {top}+l vanishes at k={k}, l={shift}")
    return 1 / math.prod(factors)


def _cert_denominator(n: int, k: int) -> int:
    return (k - 2 * n - 1) * (k - 2 * n - 2)


def _shared_certificate(n: int, k: int, ell: Fraction) -> Fraction:
    """-k(k+2l) / ((k-2n-1)(k-2n-2)), the certificate both registered pairs share."""
    den = _cert_denominator(n, k)
    if den == 0:
        raise CertificateDenominatorZero(f"certificate denominator vanishes at n={n}, k={k}")
    return Fraction(-k) * (k + 2 * ell) / den


def _corrupted_certificate(n: int, k: int, ell: Fraction) -> Fraction:
    den = _cert_denominator(n, k)
    if den == 0:
        raise CertificateDenominatorZero(f"certificate denominator vanishes at n={n}, k={k}")
    return Fraction(-k) * (k + 2 * ell + 1) / den


def _even_support(n: int) -> range:
    return range(0, 2 * n + 1)


def register_prop1_certificate() -> WZPair:
    """The pair for the shifted Reed Dawson sum at even index 2n:

        F(n,k) = (-1/2)^k choose(2n+l, k+l) choose(2k+2l, k) 4^n / choose(2n+l, n)
    """

    def defined(n: int, ell: Fraction) -> bool:
        return _rows(n, ell).upper[n] != 0

    def f(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        rows = _rows(n, ell)
        return (-HALF) ** k * rows.upper[2 * n - k] * rows.b2k[k] * 4**n / rows.upper[n]

    def g(n: int, k: int, ell: Fraction) -> Fraction:
        if k <= 0 or k >= 2 * n + 3:
            return Fraction(0)
        rows = _rows(n, ell)
        head = Fraction(-k) * (k + 2 * ell) * (-HALF) ** k * rows.b2k[k] * 4**n
        return head * _trunc_ratio(rows.upper, ell, k) / rows.upper[n]

    return WZPair("prop1", f, _shared_certificate, g, _even_support, defined)


def register_prop2_certificate() -> WZPair:
    """The pair for the Pochhammer-normalized variant at even index 2n:

        F(n,k) = (-1/2)^k C(2n,k) choose(2k+2l, k) 4^n choose(n+l, n)
                 / (choose(k+l, k) C(2n,n))
    """

    def defined(n: int, ell: Fraction) -> bool:
        # choose(k+l, k) = (l+1)_k / k! must stay nonzero through k = 2n+2
        if ell.denominator != 1:
            return True
        return not (-(2 * n + 2) <= ell <= -1)

    def f(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        rows = _rows(n, ell)
        num = rows.central[k] * rows.b2k[k] * 4**n * rows.shifted[n]
        return (-HALF) ** k * num / (rows.shifted[k] * rows.central[n])

    def g(n: int, k: int, ell: Fraction) -> Fraction:
        if k <= 0 or k >= 2 * n + 3:
            return Fraction(0)
        rows = _rows(n, ell)
        head = Fraction(-k) * (k + 2 * ell) * (-HALF) ** k * rows.b2k[k] * 4**n
        head *= rows.shifted[n] / (rows.shifted[k] * rows.central[n])
        return head * _trunc_ratio(rows.central, Fraction(0), k)

    return WZPair("prop2", f, _shared_certificate, g, _even_support, defined)


def negative_control() -> WZPair:
    """A deliberately broken pair: the summand is left unnormalized (its
    row sums grow with n) and the certificate numerator is corrupted to
    k(k+2l+1).  Both the residual check and the row-sum check must fail."""

    def defined(n: int, ell: Fraction) -> bool:
        return True

    def f(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        rows = _rows(n, ell)
        return (-HALF) ** k * rows.upper[2 * n - k] * rows.b2k[k] * 4**n

    def g(n: int, k: int, ell: Fraction) -> Fraction:
        if k <= 0 or k >= 2 * n + 3:
            return Fraction(0)
        rows = _rows(n, ell)
        head = Fraction(-k) * (k + 2 * ell + 1) * (-HALF) ** k * rows.b2k[k] * 4**n
        return head * _trunc_ratio(rows.upper, ell, k)

    return WZPair("negative-control", f, _corrupted_certificate, g, _even_support, defined)


def certificates() -> dict[str, WZPair]:
    pairs = [register_prop1_certificate(), register_prop2_certificate(), negative_control()]
    return {p.name: p for p in pairs}


def naive_companion(
    F: Callable[[int, int, Fraction], Fraction],
    R: Callable[[int, int, Fraction], Fraction],
) -> Callable[[int, int, Fraction], Fraction]:
    """G = R * F taken literally: zero wherever F is zero, and
    CertificateDenominatorZero when F is nonzero where R blows up.  Useful
    for ad-hoc pairs whose certificate has no boundary cancellation."""

    def g(n: int, k: int, ell: Fraction) -> Fraction:
        fv = F(n, k, ell)
        if fv == 0:
            return Fraction(0)
        return R(n, k, ell) * fv

    return g


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


def wz_sum_constant(pair: WZPair, n_max: int, ell: Fraction | int) -> list[Fraction]:
    """Row sums sum_k F(n, k) for n = 0..n_max; all 1 for a verified pair."""
    ell = Fraction(ell)
    sums = []
    for n in range(n_max + 1):
        if not pair.defined(n, ell):
            raise CertificateDenominatorZero(
                f"pair {pair.name} undefined at n={n}, l={ell}"
            )
        sums.append(sum((pair.F(n, k, ell) for k in pair.support(n)), Fraction(0)))
    return sums
