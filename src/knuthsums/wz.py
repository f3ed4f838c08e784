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

Every pair is built by `_pair` from one spec and reads everything from
one integer row bundle per (pair, n, l), cached by `_rows`: row n of F (a
registered identity's own summand at index 2n, from `core.prop1_terms` or
`core.prop2_terms`, times a normalisation free of k) and row n of G over
k = 0..2n+2, each over one denominator.  G is R * F where R is finite and
the cancelled limit at the two boundary points, so the pair equation can
be verified at every grid point, boundary included.  `residual_grid`
tests each k of the rows as an integer and hands a nonzero k, or one that
reads a boundary pole of G, to the pointwise `wz_residual`.  Evaluating a
bare certificate where its denominator vanishes (and nothing cancels)
raises CertificateDenominatorZero, which callers report separately from a
nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .core import CertificateDenominatorZero, gbinom, prop1_terms, prop2_terms


class Rows(NamedTuple):
    """Row n of a pair at one shift l, in integers: F(n, k) = f[k] / f_den
    for k = 0..2n, and G(n, k) = g[k] / g_den for k = 0..2n+2 except at a
    boundary pole, where g holds 0 and `poles` maps k to the reason."""

    f: tuple[int, ...]
    f_den: int
    g: tuple[int, ...]
    g_den: int
    poles: Mapping[int, str]


@dataclass(frozen=True)
class WZPair:
    """Summand F (supported on k = 0..2n), certificate R, companion
    G = R*F (its boundary limits taken), the parameter domain where
    everything is defined, and the row bundle `rows(n, l)` that F and G
    are read from.  F, G and rows are evaluated only where defined(n, l)
    holds; outside it they may raise any error."""

    name: str
    F: Callable[[int, int, Fraction], Fraction]
    R: Callable[[int, int, Fraction], Fraction]
    G: Callable[[int, int, Fraction], Fraction]
    defined: Callable[[int, Fraction], bool]
    rows: Callable[[int, Fraction], Rows]


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


def _numerator(k: int, ell: Fraction, offset: int) -> Fraction:
    """-k(k+offset+2l), the certificate numerator."""
    return Fraction(-k) * ((k + offset) + 2 * ell)


@lru_cache(maxsize=4)
def _rows(
    terms: Callable[[int, Fraction], tuple[list[int], int]],
    rest: Callable[[int, Fraction], Fraction],
    shift: Callable[[Fraction], Fraction],
    norm: Callable[[int, Fraction], Fraction],
    offset: int,
    n: int,
    ell: Fraction,
) -> Rows:
    """The row bundle of the pair `_pair` builds from this spec, at (n, l).

    With l = a/b, G(n, k) = -k((k+offset)b+2a) F(n, k) / (b j(j+1)) on the
    support, j = 2n+1-k.  j and j+1 are coprime and at most 2n+2, so
    j(j+1) divides lcm(1..2n+2), and f_den b lcm(1..2n+2) is a common
    denominator of G's support row; the two boundary limits join it
    through one more lcm.  A residual check at n reads rows n and n+1 and
    the row sum row n, so a sweep along n keeps hitting a handful of
    bundles.
    """
    nums, den = terms(2 * n, ell)
    scale = norm(n, ell)
    f = tuple(t * scale.numerator for t in nums)
    f_den = den * scale.denominator
    a, b = ell.numerator, ell.denominator
    lcm = math.lcm(*range(1, 2 * n + 3))
    g = [
        -k * ((k + offset) * b + 2 * a) * f[k] * (lcm // ((2 * n + 1 - k) * (2 * n + 2 - k)))
        for k in range(2 * n + 1)
    ]
    g_den = f_den * b * lcm
    s = shift(ell)
    poles: dict[int, str] = {}
    limits = []
    for k in (2 * n + 1, 2 * n + 2):
        factors = [top + s for top in range(2 * n + 1, k + 1)]
        if 0 in factors:
            top = 2 * n + 1 + factors.index(0)
            poles[k] = f"Gamma ratio factor {top}+l vanishes at k={k}, l={s}"
            limits.append(Fraction(0))
        else:
            limits.append(_numerator(k, ell, offset) * rest(k, ell) * scale / math.prod(factors))
    common = math.lcm(g_den, *(v.denominator for v in limits))
    g = [x * (common // g_den) for x in g] + [v.numerator * (common // v.denominator) for v in limits]
    # the bundle is shared by every caller of the cache, so it is read-only
    return Rows(f, f_den, tuple(g), common, MappingProxyType(poles))


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
    with s = shift(l).  G is R * F (`naive_companion(F, R)`) at every k
    except k = 2n+1, 2n+2.  There R has its pole and F its zero, and G is
    the limit, with the row entry continued past the support:

        G(n,k) = -k(k+offset+2l) rest(k, l) norm(n, l)
                 / prod_{t=2n+1}^{k} (t+s)

    A vanishing factor of that product is a pole: G raises
    CertificateDenominatorZero there.  F lives on k = 0..2n and G on
    k = 1..2n+2.  F and G read row n from the bundle `_rows` caches for
    (n, l), boundary limits included, and build one Fraction per call, so
    like the bundle they are evaluated only where defined(n, l) holds.
    """

    def rows(n: int, ell: Fraction) -> Rows:
        return _rows(terms, rest, shift, norm, offset, n, ell)

    def F(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        row = rows(n, ell)
        return Fraction(row.f[k], row.f_den)

    def R(n: int, k: int, ell: Fraction) -> Fraction:
        den = (k - 2 * n - 1) * (k - 2 * n - 2)
        if den == 0:
            raise CertificateDenominatorZero(f"certificate denominator vanishes at n={n}, k={k}")
        return _numerator(k, ell, offset) / den

    def G(n: int, k: int, ell: Fraction) -> Fraction:
        if k < 0 or k > 2 * n + 2:
            return Fraction(0)
        row = rows(n, ell)
        if k in row.poles:
            raise CertificateDenominatorZero(row.poles[k])
        return Fraction(row.g[k], row.g_den)

    return WZPair(name, F, R, G, defined, rows)


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


def _undefined(pair: WZPair, n: int, ell: Fraction) -> CertificateDenominatorZero:
    return CertificateDenominatorZero(f"pair {pair.name} undefined at n={n}, l={ell}")


def wz_residual(pair: WZPair, n: int, k: int, ell: Fraction | int) -> Fraction:
    """F(n+1,k) - F(n,k) - G(n,k+1) + G(n,k); zero iff the pair equation
    holds at this point."""
    ell = Fraction(ell)
    if not (pair.defined(n, ell) and pair.defined(n + 1, ell)):
        raise _undefined(pair, n, ell)
    return (
        pair.F(n + 1, k, ell)
        - pair.F(n, k, ell)
        - pair.G(n, k + 1, ell)
        + pair.G(n, k, ell)
    )


def residual_grid(pair: WZPair, n: int, ell: Fraction | int) -> Fraction:
    """The first nonzero residual over the widened range k = -1..2n+3, or 0
    when the pair equation holds at every point of it.

    Rows n and n+1 of F and row n of G are scaled to one denominator and
    every k is tested as an integer; the first k that is nonzero, or
    reads a boundary pole of G, is evaluated by `wz_residual`, which
    returns that residual or raises that pole.
    """
    ell = Fraction(ell)
    if not (pair.defined(n, ell) and pair.defined(n + 1, ell)):
        raise _undefined(pair, n, ell)
    lo, hi = pair.rows(n, ell), pair.rows(n + 1, ell)
    common = math.lcm(lo.f_den, hi.f_den, lo.g_den)
    # each list is indexed by k + 1, for k = -1..2n+3 (G also at 2n+4)
    f1 = [0, *(x * (common // hi.f_den) for x in hi.f), 0]
    f0 = [0, *(x * (common // lo.f_den) for x in lo.f), 0, 0, 0]
    g = [0, *(x * (common // lo.g_den) for x in lo.g), 0, 0]
    for k, (a, b, c, d) in enumerate(zip(f1, f0, g[1:], g), start=-1):
        if a - b - c + d or k in lo.poles or k + 1 in lo.poles:
            return wz_residual(pair, n, k, ell)
    return Fraction(0)


def row_sum(pair: WZPair, n: int, ell: Fraction | int) -> Fraction:
    """sum_k F(n, k) over row n's support k = 0..2n; 1 for a verified pair."""
    ell = Fraction(ell)
    if not pair.defined(n, ell):
        raise _undefined(pair, n, ell)
    row = pair.rows(n, ell)
    return Fraction(sum(row.f), row.f_den)


def wz_sum_constant(pair: WZPair, n_max: int, ell: Fraction | int) -> list[Fraction]:
    """Row sums sum_k F(n, k) for n = 0..n_max; all 1 for a verified pair."""
    return [row_sum(pair, n, ell) for n in range(n_max + 1)]
