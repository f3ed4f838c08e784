"""The two Reed Dawson-like identities that summation by parts produces.

Both hold by the modified Abel lemma: with (del A)_i = A_i - A_{i-1} and
(del' B)_i = B_i - B_{i+1}, for arbitrary sequences

    sum_{i=1}^{M} B_i (A_i - A_{i-1})
      = A_M B_{M+1} - A_0 B_1 + sum_{i=1}^{M} A_i (B_i - B_{i+1}).

The first identity takes A_i = -(i-n)(-n)_i / (n i!), zero for i >= n, and
B_i = 2^i (l+1/2)_i / (2l+1)_i at M = n, where the boundary term vanishes;
`tests/test_abel.py` checks the lemma on lists.  The first identity's sum
re-weights the integer terms of `core.prop1_row` and reads no binomial
row of its own.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import as_rational, exact_sum, prop1_closed, prop1_row


def abel1_valid(n: int, ell: Fraction | int) -> bool:
    """k+2l+1 must stay nonzero on 0..n, that is 2l+1 must not be an
    integer in [-n, 0], and l must avoid the negative integers >= -n where
    the binomials' Gamma form degenerates."""
    ell = as_rational(ell)
    a, b = ell.numerator, ell.denominator
    if b == 1 and -n <= a < 0:
        return False
    # 2l+1 = (2a+b)/b, with a and b coprime, is an integer only for b = 1, 2
    return not (b <= 2 and -n <= (2 * a + b) // b <= 0)


def abel1_lhs(n: int, ell: Fraction | int) -> tuple[int, int]:
    """sum_{k=0}^n (-1/2)^k choose(n+l, k+l) choose(2k+2l, k) k(n-k)/(k+2l+1).

    With l = a/b, these are prop1's terms (`core.prop1_row`), each times
    the weight k(n-k) b / (kb+2a+b).  The k-th term carries the factor
    M_k = (2a+2kb)(2a+2kb-b)...(2a+(k+1)b) of choose(2k+2l, k), which
    ends in kb+2a+b, so each weighted term is an integer over prop1's
    denominator, and the sum is one integer pair.
    """
    ell = as_rational(ell)
    a, b = ell.numerator, ell.denominator
    terms, den = prop1_row(n, a, b)
    # k(n-k) vanishes at k = 0 and k = n
    total = sum(terms[k] // (k * b + 2 * a + b) * k * (n - k) for k in range(1, n))
    return total * b, den


def abel1_rhs(n: int, ell: Fraction | int) -> tuple[int, int]:
    """-2^(-n) n choose(n+l, n/2) for even n, else 0: -n times the integer
    pair of `core.prop1_closed`."""
    ell = as_rational(ell)
    if n % 2:
        return 0, 1
    num, den = prop1_closed(n, ell.numerator, ell.denominator)
    return -n * num, den


def abel2_lhs(n: int) -> tuple[int, int]:
    """sum_{k=0}^n (-1/2)^k C(2k,k) C(n,k) (2k+1)(k^2+3k+3)(n-k) / ((k+1)^2 (k+2)(k+3))."""

    def term(k: int) -> tuple[int, int]:
        num = (-1) ** k * math.comb(2 * k, k) * math.comb(n, k)
        num *= (2 * k + 1) * (k * k + 3 * k + 3) * (n - k)
        return num, 2**k * (k + 1) ** 2 * (k + 2) * (k + 3)

    return exact_sum(term(k) for k in range(n + 1))


def abel2_rhs(n: int) -> tuple[int, int]:
    """1/2 - C(n, n/2)(n+1) / (2^n (n+2)) for even n, else 1/2: over
    2^n (n+2), which is even, one integer pair."""
    if n % 2:
        return 1, 2
    den = 2**n * (n + 2)
    return den // 2 - math.comb(n, n // 2) * (n + 1), den
