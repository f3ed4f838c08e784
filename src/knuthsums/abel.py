"""Summation by parts in its modified-Abel form, truncated to a finite
cutoff, plus the two Reed Dawson-like identities it produces here.

With backward difference (del A)_i = A_i - A_{i-1} and forward-style
difference (del' B)_i = B_i - B_{i+1}, the finite transform

    sum_{i=1}^{M} B_i (A_i - A_{i-1})
      = A_M B_{M+1} - A_0 B_1 + sum_{i=1}^{M} A_i (B_i - B_{i+1})

is an algebraic identity for arbitrary sequences; the boundary term
A_M B_{M+1} plays the role of the limit term, and equals it whenever A has
compact support below the cutoff.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import _falling_numerators, _grown_rows, as_rational, exact_sum, gbinom_pair, pochhammer


class SequencePair(NamedTuple):
    """Two sequences A, B (total on 0..cutoff+1) and a truncation index."""

    A: Callable[[int], Fraction]
    B: Callable[[int], Fraction]
    cutoff: int


def transform_residual(pair: SequencePair) -> Fraction:
    """Left side minus right side of the finite summation-by-parts identity.

    Always exactly 0; exposed as a residual so the telescoping structure
    itself is checkable on arbitrary sequences.
    """
    a = [pair.A(i) for i in range(pair.cutoff + 1)]
    b = [pair.B(i) for i in range(pair.cutoff + 2)]
    m = pair.cutoff
    lhs = sum((b[i] * (a[i] - a[i - 1]) for i in range(1, m + 1)), Fraction(0))
    rhs = a[m] * b[m + 1] - a[0] * b[1]
    rhs += sum((a[i] * (b[i] - b[i + 1]) for i in range(1, m + 1)), Fraction(0))
    return lhs - rhs


def first_pair(n: int, ell: Fraction | int, cutoff: int | None = None) -> SequencePair:
    """The compactly supported pair behind the weighted shifted sum:

        A_i = -(i-n)(-n)_i / (n i!)      (zero for i >= n)
        B_i = 2^i (l+1/2)_i / (2l+1)_i
    """
    if n < 1:
        raise ValueError(f"pair requires n >= 1, got {n}")
    ell = as_rational(ell)

    def a(i: int) -> Fraction:
        return Fraction(-(i - n)) * pochhammer(-n, i) / (n * math.factorial(i))

    def b(i: int) -> Fraction:
        den = pochhammer(2 * ell + 1, i)
        if den == 0:
            raise ValueError(f"(2l+1)_i vanishes for l={ell}, i={i}")
        return 2**i * pochhammer(ell + Fraction(1, 2), i) / den

    return SequencePair(a, b, n if cutoff is None else cutoff)


def abel1_valid(n: int, ell: Fraction | int) -> bool:
    """k+2l+1 must stay nonzero on 0..n, that is 2l+1 must not be an
    integer in [-n, 0], and l must avoid the negative integers >= -n where
    the binomials' Gamma form degenerates."""
    a, b = ell.numerator, ell.denominator
    if b == 1 and -n <= a < 0:
        return False
    # 2l+1 = (2a+b)/b, with a and b coprime, is an integer only for b = 1, 2
    return not (b <= 2 and -n <= (2 * a + b) // b <= 0)


def abel1_lhs(n: int, ell: Fraction | int) -> Fraction:
    """sum_{k=0}^n (-1/2)^k choose(n+l, k+l) choose(2k+2l, k) k(n-k)/(k+2l+1).

    With l = a/b, these are prop1's terms (`core.prop1_row`): the k-th is
    (-1)^k 2^(n-k) C(n,k) U_{n-k} M_k over 2^n b^n n!, times the weight
    k(n-k) b / (kb+2a+b).  M_k = (2a+2kb)(2a+2kb-b)...(2a+(k+1)b) ends in
    the factor kb+2a+b, so each weighted term is the integer
    C(n,k) U_{n-k} (M_k // (kb+2a+b)) k(n-k) b 2^(n-k) over prop1's
    denominator: one integer sum and one Fraction.
    """
    ell = as_rational(ell)
    a, b = ell.numerator, ell.denominator
    upper = _falling_numerators(n * b + a, b, n)
    b2k = _grown_rows(a, b, n)[0]
    # k(n-k) vanishes at k = 0 and k = n
    total = sum(
        (-1) ** k * math.comb(n, k) * upper[n - k] * (b2k[k] // (k * b + 2 * a + b)) * k * (n - k) << (n - k)
        for k in range(1, n)
    )
    return Fraction(total * b, 2**n * b**n * math.factorial(n))


def abel1_rhs(n: int, ell: Fraction | int) -> Fraction:
    """-2^(-n) n choose(n+l, n/2) for even n, else 0, with l = a/b one
    integer pair (`core.gbinom_pair` of (nb+a, b)) over 2^n."""
    if n % 2:
        return Fraction(0)
    ell = as_rational(ell)
    a, b = ell.numerator, ell.denominator
    num, den = gbinom_pair(n * b + a, b, n // 2)
    return Fraction(-n * num, den * 2**n)


def abel2_lhs(n: int) -> Fraction:
    """sum_{k=0}^n (-1/2)^k C(2k,k) C(n,k) (2k+1)(k^2+3k+3)(n-k) / ((k+1)^2 (k+2)(k+3))."""

    def term(k: int) -> tuple[int, int]:
        num = (-1) ** k * math.comb(2 * k, k) * math.comb(n, k)
        num *= (2 * k + 1) * (k * k + 3 * k + 3) * (n - k)
        return num, 2**k * (k + 1) ** 2 * (k + 2) * (k + 3)

    return exact_sum(term(k) for k in range(n + 1))


def abel2_rhs(n: int) -> Fraction:
    """1/2 - C(n, n/2)(n+1) / (2^n (n+2)) for even n, else 1/2."""
    if n % 2:
        return Fraction(1, 2)
    return Fraction(1, 2) - Fraction(math.comb(n, n // 2) * (n + 1), 2**n * (n + 2))
