"""Terminating generalized hypergeometric series over exact rationals.

A series here is a pFq whose upper parameter list contains a nonpositive
integer, so the sum has finitely many nonzero terms and is meaningful even
at arguments (like z = 2) far outside the convergence disk.  The generic
evaluator sums those terms through their term ratio, a quotient of two
integers once every parameter is written p/q, keeping one integer
numerator and denominator and building a single `Fraction` at the end.
Alongside it live the two classical 2F1(2) closed forms this package
leans on:

    2F1[-2n,     a; 2a | 2] = (1/2)_n / (a+1/2)_n
    2F1[-(2n+1), a; 2a | 2] = 0

(the odd case follows from the z -> z/(z-1) reflection, whose fixed point
is z = 2: with lower parameter exactly 2a the series maps to minus itself
for odd upper index).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Record, as_rational


class HyperSeries(Record):
    """A terminating pFq: upper/lower rational parameters and argument.

    At least one upper parameter must be a nonpositive integer (the
    termination witness); no lower parameter may be a nonpositive integer
    >= -N where N is the termination index, since its Pochhammer would
    vanish inside the summation range.  Parameters given as int or
    Fraction are stored as they are, so a series built from ints equals
    (and hashes like) the same series built from Fractions.  Equality,
    hash and repr read upper, lower and argument only.
    """

    __slots__ = ("upper", "lower", "argument", "termination_index")
    _fields = ("upper", "lower", "argument")
    upper: tuple[Fraction | int, ...]
    lower: tuple[Fraction | int, ...]
    argument: Fraction | int
    # Smallest N with (-N) among the upper parameters; the sum stops at k = N.
    termination_index: int

    def __init__(self, upper, lower, argument) -> None:
        rational = (int, Fraction)
        upper = tuple([u if isinstance(u, rational) else as_rational(u) for u in upper])
        lower = tuple([l if isinstance(l, rational) else as_rational(l) for l in lower])
        if not isinstance(argument, rational):
            argument = as_rational(argument)
        n = -1
        for u in upper:
            if u.denominator == 1 and u.numerator <= 0 and (n < 0 or -u.numerator < n):
                n = -u.numerator
        if n < 0:
            raise ValueError("series does not terminate: no nonpositive integer upper parameter")
        for b in lower:
            if b.denominator == 1 and -n <= b.numerator <= 0:
                raise ValueError(
                    f"lower parameter {b} makes a denominator Pochhammer vanish within range"
                )
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "argument", argument)
        object.__setattr__(self, "termination_index", n)


def eval_terminating(series: HyperSeries) -> Fraction:
    """Sum the series exactly: sum_{k=0}^{N} prod(upper)_k / prod(lower)_k * z^k / k!.

    The k-th term is the (k-1)-th times the term ratio
    r_k = prod(u+k-1) / prod(l+k-1) * z / k.  With each parameter written
    p/q, r_k is the integer z_num * prod_lower q * prod_upper (p+(k-1)q)
    over the integer z_den * k * prod_upper q * prod_lower (p+(k-1)q),
    each product multiplied out in a plain loop.  The sum
    1 + r_1 (1 + r_2 (1 + ... (1 + r_N))) is accumulated by Horner's rule
    from k = N down to 1 as one integer numerator a over one integer
    denominator b, and a single `Fraction` is built at the end.  No lower
    factor l+k-1 vanishes for k <= N: HyperSeries rejects every such l.
    """
    upper = [(u.numerator, u.denominator) for u in series.upper]
    lower = [(l.numerator, l.denominator) for l in series.lower]
    z = series.argument
    num_scale = z.numerator * math.prod(q for _, q in lower)
    den_scale = z.denominator * math.prod(q for _, q in upper)
    a = b = 1
    for k in range(series.termination_index, 0, -1):
        num = num_scale
        for p, q in upper:
            num *= p + (k - 1) * q
        den = den_scale * k
        for p, q in lower:
            den *= p + (k - 1) * q
        b *= den
        a = b + num * a
    return Fraction(a, b)


def _check_twice(p: int, q: int, m: int) -> None:
    """Raise when the lower parameter 2a, a = p/q, is a nonpositive integer
    c with -c <= m, so that (2a)_k vanishes for some k <= m."""
    c, r = divmod(2 * p, q)
    if r == 0 and -m <= c <= 0:
        raise ValueError(f"lower parameter 2a={c} hits a vanishing Pochhammer")


def kummer_even(n: int, a: Fraction | int) -> Fraction:
    """Closed form (1/2)_n / (a+1/2)_n for 2F1[-2n, a; 2a | 2].

    With a = p/q, (1/2)_n = 1 * 3 * ... * (2n-1) / 2^n and
    (a+1/2)_n = prod_{i<n} (2p + (2i+1)q) / (2q)^n, so the quotient is
    the integer 1 * 3 * ... * (2n-1) * q^n over the integer
    prod_{i<n} (2p + (2i+1)q).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a = as_rational(a)
    p, q = a.numerator, a.denominator
    den = math.prod(range(2 * p + q, 2 * p + (2 * n + 1) * q, 2 * q))
    if den == 0:
        raise ValueError(f"(a+1/2)_n vanishes for a={Fraction(p, q)}, n={n}")
    _check_twice(p, q, 2 * n)
    return Fraction(math.prod(range(1, 2 * n, 2)) * q**n, den)


def kummer_odd_zero(n: int, a: Fraction | int) -> Fraction:
    """The vanishing evaluation 2F1[-(2n+1), a; 2a | 2] = 0 for n >= 0.

    With the lower parameter exactly twice the free upper parameter, every
    odd-index terminating series at argument 2 vanishes; this is the closed
    form the odd rows of the shifted sums reduce to.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a = as_rational(a)
    _check_twice(a.numerator, a.denominator, 2 * n + 1)
    return Fraction(0)


def prop2_as_2f1(n: int, ell: Fraction | int) -> HyperSeries:
    """The normalized shifted sum written hypergeometrically: 2F1[-n, l+1/2; 2l+1 | 2]."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ell = as_rational(ell)
    return HyperSeries((-n, ell + Fraction(1, 2)), (2 * ell + 1,), 2)
