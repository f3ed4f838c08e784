"""Wilf-Zeilberger certificate checking on exact-rational grids.

A WZ pair is a normalized summand F(n, k) with compact k-support and a
rational-function certificate R(n, k); the companion G = R * F must satisfy

    F(n+1, k) - F(n, k) = G(n, k+1) - G(n, k)

identically, which telescopes (F has compact support) into the row sums
sum_k F(n, k) being constant in n.

The certificates checked here share the denominator (k-2n-1)(k-2n-2).  On
the support boundary k = 2n+1, 2n+2 that denominator vanishes while F
vanishes too, and the product R * F continues to a finite nonzero value:
the factor 1/Gamma(2n-k+1) inside F cancels through

    (k-2n-1)(k-2n-2) Gamma(2n-k+1) = Gamma(2n-k+3) = 1.

Every pair is built by `_pair` from integer kernels over the shift
l = a/b: `terms` (`core.prop1_row` or `core.prop2_row`, a registered
identity's own summand at index 2n) gives a row of integers over one
denominator, and `continued` (`core.prop1_continued` or
`core.prop2_continued`, a term past the support without its 1/(2n-k)!)
and `norm` (1/RHS(2n), the registered closed form `core.prop1_closed`
or `core.prop2_closed` turned over, or (4^n, 1) for the control) each
give one (numerator, denominator) pair, so F(n, k) = terms(2n)[k]
norm(n); `core` alone knows the binomials and where the shift sits.
From them `_rows` builds and caches one bundle per (pair, n, a, b): row n
of F and row n of G over k = 0..2n+2, boundary limits included, each over
one integer denominator.  G is R * F where R is finite and the cancelled
limit at the two boundary points, so the pair equation can be verified at
every grid point.  `residual_grid` tests each k of the rows as an integer
and hands a nonzero k, or one that reads a boundary pole of G, to the
pointwise `wz_residual`, which raises that pole; otherwise the residual
is returned as the rows' integer pair.  Like the registry's evaluators,
`residual_grid` and `row_sum` return unreduced integer pairs for
`sweep.verify`.  Evaluating a bare certificate where its denominator vanishes
(and nothing cancels) raises CertificateDenominatorZero, which callers
report separately from a nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .core import CertificateDenominatorZero, as_rational
from .core import prop1_closed, prop1_continued, prop1_row, prop2_closed, prop2_continued, prop2_row

# for annotations only: a pair's pointwise functions of (n, k, l), and its
# integer kernels over l = a/b, a row of terms over one denominator, the
# continued term k of row n and the normalisation of row n, each a
# (numerator, denominator) pair
if TYPE_CHECKING:
    Pointwise = Callable[[int, int, Fraction], Fraction]
    TermRow = Callable[[int, int, int], tuple[list[int], int]]
    Continued = Callable[[int, int, int, int], tuple[int, int]]
    Kernel = Callable[[int, int, int], tuple[int, int]]


class Rows(NamedTuple):
    """Row n of a pair at one shift l, in integers: F(n, k) = f[k] / f_den,
    f_den of either sign, for k = 0..2n, and G(n, k) = g[k] / g_den for
    k = 0..2n+2 but at a boundary pole: g holds 0, `poles` maps k to why."""

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
    F: Pointwise
    R: Pointwise
    G: Pointwise
    defined: Callable[[int, Fraction], bool]
    rows: Callable[[int, Fraction], Rows]


@lru_cache(maxsize=4)
def _rows(terms: TermRow, continued: Continued, norm: Kernel, offset: int, n: int, a: int, b: int) -> Rows:
    """The row bundle of the pair `_pair` builds from this spec, at n and
    l = a/b, from integer pairs alone: no Fraction is built.

    Row n of F, F(n, k) = terms(2n)[k] norm(n), is the integers of
    terms(2n, a, b), each times norm's numerator, over f_den, the product
    of the two denominators.  On the support, with j = 2n+1-k,
    G(n, k) = -k((k+offset)b+2a) F(n, k) / (b j(j+1)), and j(j+1) divides
    L = lcm(1..2n+2).  At k = 2n+1, 2n+2 G is
    -k((k+offset)b+2a) continued(2n, k) norm(n) / b, one integer pair
    each, or a pole where the continued term's denominator is 0; one lcm
    joins f_den b L to their denominators into g_den.  A residual
    check at n reads rows n and n+1 and the row sum row n, so a sweep
    along n keeps hitting a handful of bundles.
    """
    nums, den = terms(2 * n, a, b)
    scale, scale_den = norm(n, a, b)
    f = tuple(t * scale for t in nums)
    f_den = den * scale_den
    lcm = math.lcm(*range(1, 2 * n + 3))
    g = [
        -k * ((k + offset) * b + 2 * a) * f[k] * (lcm // ((2 * n + 1 - k) * (2 * n + 2 - k)))
        for k in range(2 * n + 1)
    ]
    g_den = f_den * b * lcm
    poles: dict[int, str] = {}
    limits = []
    for k in (2 * n + 1, 2 * n + 2):
        num, den = continued(2 * n, k, a, b)
        if den:
            limits.append((-k * ((k + offset) * b + 2 * a) * scale * num, b * den * scale_den))
        else:
            # only an integer shift l = a zeroes a factor t + l of the Gamma ratio, at t = -a
            poles[k] = f"Gamma ratio factor {-a}+l vanishes at k={k}, l={a}"
            limits.append((0, 1))
    # lcm is never negative; num * (common // d) keeps a negative d's sign
    common = math.lcm(g_den, *(d for _, d in limits))
    g_scale = common // g_den
    g = [x * g_scale for x in g] + [num * (common // d) for num, d in limits]
    # the bundle is shared by every caller of the cache, so it is read-only
    return Rows(f, f_den, tuple(g), common, MappingProxyType(poles))


def _pair(
    name: str, terms: TermRow, continued: Continued, norm: Kernel,
    defined: Callable[[int, Fraction], bool], offset: int = 0,
) -> WZPair:
    """The pair whose summand is the registered summand `terms` at index
    2n, normalised by a factor free of k.  With l = a/b:

        F(n,k) = terms(2n, a, b)[k] norm(n, a, b)
        R(n,k) = -k(k+offset+2l) / ((k-2n-1)(k-2n-2))

    norm is 1/RHS(2n) for the registered pairs and (4^n, 1) for the
    control.  The kernels are integer: `terms` gives a row of integers over
    one denominator, `continued` and `norm` a (numerator, denominator)
    pair whose denominator, of either sign, is nonzero where the pair is
    defined, but for a pole of the continued term.  G is the product R * F,
    zero wherever F is, except at k = 2n+1, 2n+2, where R has its pole and
    F its zero; there G is the limit, the row entry continued through its
    Gamma ratio:

        G(n,k) = -k(k+offset+2l) continued(2n, k, a, b) norm(n, a, b)

    continued(2n, k) is term k of terms(2n) without its vanishing factor
    1/Gamma(2n-k+1), which R's denominator turns into Gamma(2n-k+3) = 1.
    Where its denominator is 0, G has a pole and raises
    CertificateDenominatorZero.  F (on k = 0..2n) and G (on k = 1..2n+2)
    read row n from the bundle `_rows` caches for (n, a, b) and build one
    Fraction per call; like the bundle, they are evaluated only where
    defined(n, l) holds.
    """

    def rows(n: int, ell: Fraction | int) -> Rows:
        return _rows(terms, continued, norm, offset, n, ell.numerator, ell.denominator)

    def F(n: int, k: int, ell: Fraction | int) -> Fraction:
        if k < 0 or k > 2 * n:
            return Fraction(0)
        row = rows(n, ell)
        return Fraction(row.f[k], row.f_den)

    def R(n: int, k: int, ell: Fraction | int) -> Fraction:
        den = (k - 2 * n - 1) * (k - 2 * n - 2)
        if den == 0:
            raise CertificateDenominatorZero(f"certificate denominator vanishes at n={n}, k={k}")
        a, b = ell.numerator, ell.denominator
        return Fraction(-k * ((k + offset) * b + 2 * a), b * den)

    def G(n: int, k: int, ell: Fraction | int) -> Fraction:
        if k < 0 or k > 2 * n + 2:
            return Fraction(0)
        row = rows(n, ell)
        if k in row.poles:
            raise CertificateDenominatorZero(row.poles[k])
        return Fraction(row.g[k], row.g_den)

    return WZPair(name, F, R, G, defined, rows)


def register_prop1_certificate() -> WZPair:
    """The pair for the shifted Reed Dawson sum at even index 2n, over its RHS:

        F(n,k) = (-1/2)^k choose(2n+l, k+l) choose(2k+2l, k) 4^n / choose(2n+l, n)
    """
    return _pair(
        "prop1", prop1_row, prop1_continued,
        lambda n, a, b: prop1_closed(2 * n, a, b)[::-1],
        # choose(2n+l, n) vanishes exactly at the integers -2n <= l <= -n-1
        defined=lambda n, ell: ell.denominator != 1 or not -2 * n <= ell.numerator <= -n - 1,
    )


def register_prop2_certificate() -> WZPair:
    """The pair for the Pochhammer-normalized variant at index 2n, over its RHS:

        F(n,k) = (-1/2)^k C(2n,k) choose(2k+2l, k) 4^n choose(n+l, n)
                 / (choose(k+l, k) C(2n,n))
    """
    return _pair(
        "prop2", prop2_row, prop2_continued,
        lambda n, a, b: prop2_closed(2 * n, a, b)[::-1],
        # choose(k+l, k) = (l+1)_k / k! must stay nonzero through k = 2n+2
        defined=lambda n, ell: ell.denominator != 1 or not -(2 * n + 2) <= ell.numerator <= -1,
    )


def negative_control() -> WZPair:
    """A deliberately broken pair: the summand is scaled by 4^n alone (its
    row sums grow with n) and the certificate numerator is corrupted to
    k(k+2l+1).  Both the residual check and the row-sum check must fail."""
    return _pair(
        "negative-control", prop1_row, prop1_continued,
        lambda n, a, b: (1 << 2 * n, 1),
        defined=lambda n, ell: True,
        offset=1,
    )


def certificates() -> dict[str, WZPair]:
    pairs = [register_prop1_certificate(), register_prop2_certificate(), negative_control()]
    return {p.name: p for p in pairs}


def _defined_shift(pair: WZPair, ell: Fraction | int, n: int, last: int) -> Fraction | int:
    """ell as an exact rational, once the pair is defined at rows n and last."""
    ell = as_rational(ell)
    if not (pair.defined(n, ell) and pair.defined(last, ell)):
        raise CertificateDenominatorZero(f"pair {pair.name} undefined at n={n}, l={ell}")
    return ell


def wz_residual(pair: WZPair, n: int, k: int, ell: Fraction | int) -> Fraction:
    """F(n+1,k) - F(n,k) - G(n,k+1) + G(n,k); zero iff the pair equation
    holds at this point."""
    ell = _defined_shift(pair, ell, n, n + 1)
    return pair.F(n + 1, k, ell) - pair.F(n, k, ell) - pair.G(n, k + 1, ell) + pair.G(n, k, ell)


def residual_grid(pair: WZPair, n: int, ell: Fraction | int) -> tuple[int, int]:
    """The first nonzero residual over the widened range k = -1..2n+3, or 0
    when the pair equation holds at every point of it, as an unreduced
    integer pair.

    Rows n and n+1 of F and row n of G are scaled to one denominator and
    every k is tested as an integer, so the residual at k is one integer
    over that denominator.  The first k that is nonzero, or reads a
    boundary pole of G, is also evaluated pointwise by `wz_residual`: it
    raises the pole that G reads first there, and otherwise agrees with
    the pair returned.
    """
    ell = _defined_shift(pair, ell, n, n + 1)
    lo, hi = pair.rows(n, ell), pair.rows(n + 1, ell)
    common = math.lcm(lo.f_den, hi.f_den, lo.g_den)
    f1_scale, f0_scale, g_scale = common // hi.f_den, common // lo.f_den, common // lo.g_den
    # each list is indexed by k + 1, for k = -1..2n+3 (G also at 2n+4)
    f1 = [0, *(x * f1_scale for x in hi.f), 0]
    f0 = [0, *(x * f0_scale for x in lo.f), 0, 0, 0]
    g = [0, *(x * g_scale for x in lo.g), 0, 0]
    poles = lo.poles
    for k, (a, b, c, d) in enumerate(zip(f1, f0, g[1:], g), start=-1):
        if a - b - c + d or poles and (k in poles or k + 1 in poles):
            wz_residual(pair, n, k, ell)  # raises a pole that G reads at k
            return a - b - c + d, common
    return 0, 1


def row_sum(pair: WZPair, n: int, ell: Fraction | int) -> tuple[int, int]:
    """sum_k F(n, k) over row n's support k = 0..2n, as an unreduced integer
    pair; 1 for a verified pair."""
    ell = _defined_shift(pair, ell, n, n)
    row = pair.rows(n, ell)
    return sum(row.f), row.f_den

