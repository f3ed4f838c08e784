"""The closed forms that build their Gamma arguments and Pochhammer bases
from integer pairs agree with the Fraction-argument versions they
replaced, kept below as oracles: same value, or the same ValueError."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knuthsums import legendre
from knuthsums.core import is_nonpositive_integer, pochhammer
from knuthsums.gammaprod import GammaExpr, gauss_second_rhs, reduce
from knuthsums.hyper import kummer_even, kummer_odd_zero

HALF = F(1, 2)


def _gauss_second_rhs_by_fractions(a, b):
    a = F(a)
    b = F(b)
    return reduce(GammaExpr([(HALF, 1), ((a + b + 1) / 2, 1), ((a + 1) / 2, -1), ((b + 1) / 2, -1)]))


def _moment_by_fractions(p, n):
    p = F(p)
    if p <= -1:
        raise ValueError(f"moment requires p > -1, got {p}")
    return reduce(GammaExpr([(p + 1, 2), (p - n + 1, -1), (p + n + 2, -1)]))


def _kummer_even_by_fractions(n, a):
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a = F(a)
    den = pochhammer(a + F(1, 2), n)
    if den == 0:
        raise ValueError(f"(a+1/2)_n vanishes for a={a}, n={n}")
    if is_nonpositive_integer(2 * a) and -int(2 * a) <= 2 * n:
        raise ValueError(f"lower parameter 2a={2 * a} hits a vanishing Pochhammer")
    return pochhammer(F(1, 2), n) / den


def _kummer_odd_zero_by_fractions(n, a):
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    a = F(a)
    c = 2 * a
    if is_nonpositive_integer(c) and -int(c) <= 2 * n + 1:
        raise ValueError(f"lower parameter 2a={c} hits a vanishing Pochhammer")
    return F(0)


def _outcome(f, *args):
    """("value", value, repr) or ("error", message) of f(*args)."""
    try:
        value = f(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "value", value, repr(value)


def _rational(p, q):
    """Fractions p/q; an integer value comes as an int half the time."""
    return st.builds(
        lambda x, as_int: x.numerator if as_int and x.denominator == 1 else x,
        st.builds(F, p, q),
        st.booleans(),
    )


# |p| <= 40 over denominators <= 9, and half-integers (the family whose
# Pochhammers vanish) at twice the rate
RATIONALS = st.one_of(
    _rational(st.integers(-40, 40), st.integers(1, 9)),
    _rational(st.integers(-40, 40), st.just(2)),
)
DEGREES = st.integers(0, 25)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS)
@example(-4, F(1, 3))
@example(F(-3), 2)  # Zero: an odd upper index
@example(F(1, 3), F(1, 5))  # Irreducible
@example(-1, -1)  # poles on both sides
def test_gauss_second_rhs_matches_fraction_arguments(a, b):
    assert _outcome(gauss_second_rhs, a, b) == _outcome(_gauss_second_rhs_by_fractions, a, b)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, DEGREES)
@example(F(-3, 2), 1)  # p <= -1
@example(-1, 0)
@example(F(-8, 9), 25)
@example(2, 5)  # Zero: orthogonal to lower monomials
@example(F(-1, 2), 3)
def test_moment_matches_fraction_arguments(p, n):
    assert _outcome(legendre.moment, p, n) == _outcome(_moment_by_fractions, p, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2, 25), RATIONALS)
@example(2, F(-3, 2))  # (a+1/2)_n vanishes
@example(3, -1)  # 2a = -2 within range
@example(1, -1)  # 2a = -2 just out of range
@example(0, F(-1, 2))
@example(-1, HALF)
def test_kummer_even_matches_fraction_arguments(n, a):
    assert _outcome(kummer_even, n, a) == _outcome(_kummer_even_by_fractions, n, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2, 25), RATIONALS)
@example(2, F(-3, 2))  # 2a = -3 within range
@example(1, F(-5, 2))  # 2a = -5 out of range
@example(0, 0)
@example(-1, 1)
def test_kummer_odd_zero_matches_fraction_arguments(n, a):
    assert _outcome(kummer_odd_zero, n, a) == _outcome(_kummer_odd_zero_by_fractions, n, a)
