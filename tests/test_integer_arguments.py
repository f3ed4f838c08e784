"""The closed forms that build their Gamma arguments, Pochhammer bases and
shifted binomials from integer pairs agree with the Fraction-argument
versions they replaced, kept below as oracles: same value, or the same
error."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knuthsums import abel, catalog, legendre
from knuthsums.core import pochhammer
from knuthsums.gammaprod import (
    Finite,
    Irreducible,
    Pole,
    Zero,
    gauss_second_rhs,
    reduce,
)
from knuthsums.hyper import kummer_even, kummer_odd_zero

HALF = F(1, 2)


def is_nonpositive_integer(x):
    return x.denominator == 1 and x.numerator <= 0


def _reduce_arguments(factors):
    """`reduce` of prod Gamma(x)^e over (Fraction x, e) pairs, each x split
    into its numerator and denominator."""
    return reduce(1, 1, [(x.numerator, x.denominator, e) for x, e in factors])


def _gauss_second_rhs_by_fractions(a, b):
    a = F(a)
    b = F(b)
    return _reduce_arguments([(HALF, 1), ((a + b + 1) / 2, 1), ((a + 1) / 2, -1), ((b + 1) / 2, -1)])


def _moment_by_fractions(p, n):
    p = F(p)
    if p <= -1:
        raise ValueError(f"moment requires p > -1, got {p}")
    return _reduce_arguments([(p + 1, 2), (p - n + 1, -1), (p + n + 2, -1)])


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


def _gbinom_by_fractions(a, m):
    """choose(a, m) as a product of Fraction factors over m!."""
    return math.prod((F(a) - i for i in range(m)), start=F(1)) / math.factorial(m)


def _prop1_rhs_by_fractions(n, ell):
    if n % 2:
        return F(0)
    return _gbinom_by_fractions(n + F(ell), n // 2) / 2**n


def _prop2_rhs_by_fractions(n, ell):
    if n % 2:
        return F(0)
    return F(math.comb(n, n // 2), 2**n) / _gbinom_by_fractions(n // 2 + F(ell), n // 2)


def _abel1_rhs_by_fractions(n, ell):
    if n % 2:
        return F(0)
    return -F(n, 2**n) * _gbinom_by_fractions(n + F(ell), n // 2)


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


# The closed forms build the integer triples they hand `gammaprod.reduce`
# from the integers of their parameters, each brought to lowest terms by a
# gcd; the route they replaced built one Fraction per Gamma argument, which
# `Fraction` keeps in lowest terms (the `_by_fractions` oracles above).
# Each example list below is annotated with the GammaValue kind it reaches.
TRIPLE_DENOMINATORS = [1, 2, 3, 4, 5, 7, 9]
GAUSS_EXAMPLES = [
    (-2, 2),  # Finite, rational
    (1, 1),  # Finite with a factor of pi
    (F(-3), F(1, 3)),  # Zero: an odd upper index
    (HALF, F(-7, 2)),  # Pole
    (F(1, 3), F(1, 5)),  # Irreducible
    (-3, -2),  # Irreducible: poles on both sides
]
MOMENT_EXAMPLES = [
    (F(1, 3), 0),  # n = 0: the first two arguments merge
    (0, 0),
    (2, 5),  # Zero
    (F(-8, 9), 24),
]


def _examples(cases):
    def wrap(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return wrap


def _moment_argument(d):
    """p = a/d > -1, as an int half the time when d = 1."""
    return _rational(st.integers(1 - d, 40), st.just(d))


# each argument from RATIONALS or over TRIPLE_DENOMINATORS; `_outcome`
# compares GammaValues by equality, which covers the variant, the value and
# an Irreducible's scalar and factors, and by repr
GAUSS_ARGUMENTS = st.one_of(
    RATIONALS, _rational(st.integers(-40, 40), st.sampled_from(TRIPLE_DENOMINATORS))
)
MOMENT_ARGUMENTS = st.one_of(RATIONALS, st.sampled_from(TRIPLE_DENOMINATORS).flatmap(_moment_argument))


@settings(max_examples=300, deadline=None)
@given(GAUSS_ARGUMENTS, GAUSS_ARGUMENTS)
@example(-4, F(1, 3))
@example(F(-3), 2)  # Zero: an odd upper index
@example(F(1, 3), F(1, 5))  # Irreducible
@example(-1, -1)  # poles on both sides
@_examples(GAUSS_EXAMPLES)
def test_gauss_second_rhs_matches_fraction_arguments(a, b):
    assert _outcome(gauss_second_rhs, a, b) == _outcome(_gauss_second_rhs_by_fractions, a, b)


@settings(max_examples=300, deadline=None)
@given(MOMENT_ARGUMENTS, DEGREES)
@example(F(-3, 2), 1)  # p <= -1
@example(-1, 0)
@example(F(-8, 9), 25)
@example(2, 5)  # Zero: orthogonal to lower monomials
@example(F(-1, 2), 3)
@_examples(MOMENT_EXAMPLES)
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


# shifts with denominators <= 9, negative integers and half-integers, each
# integer value as an int half the time
SHIFTS = st.one_of(
    _rational(st.integers(-40, 40), st.integers(1, 9)),
    _rational(st.integers(-40, -1), st.just(1)),
    _rational(st.integers(-40, 40), st.just(2)),
)
SHIFTED_RHS = {
    "prop1": (lambda n, ell: F(*catalog.prop1_rhs(n, ell)), _prop1_rhs_by_fractions),
    "prop2": (lambda n, ell: F(*catalog.prop2_rhs(n, ell)), _prop2_rhs_by_fractions),
    "abel1": (lambda n, ell: F(*abel.abel1_rhs(n, ell)), _abel1_rhs_by_fractions),
}


def _rhs_outcome(f, n, ell):
    """("value", value, type) of f(n, ell), or ("zero-division",)."""
    try:
        value = f(n, ell)
    except ZeroDivisionError:
        return ("zero-division",)
    return "value", value, type(value)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SHIFTED_RHS)), st.integers(0, 40), SHIFTS)
@example("prop2", 4, -2)  # choose(n/2+l, n/2) vanishes
@example("prop2", 4, -3)  # the first integer below the zeros
@example("prop1", 40, F(-81, 2))
@example("abel1", 0, F(1, 9))
def test_shifted_rhs_matches_gbinom_form(name, n, ell):
    integer_form, fraction_form = SHIFTED_RHS[name]
    assert _rhs_outcome(integer_form, n, ell) == _rhs_outcome(fraction_form, n, ell)


def test_prop2_rhs_raises_exactly_where_its_binomial_vanishes():
    shifts = [*range(-25, 6), F(-7, 2), F(-1, 2), F(-9, 4), F(5, 3)]
    for n in range(0, 41, 2):
        for ell in shifts:
            if _gbinom_by_fractions(n // 2 + F(ell), n // 2) == 0:
                with pytest.raises(ZeroDivisionError):
                    catalog.prop2_rhs(n, ell)
            else:
                assert F(*catalog.prop2_rhs(n, ell)) == _prop2_rhs_by_fractions(n, ell)
    # the zeros are the integers -n/2 <= l <= -1 and no others
    raising = [ell for ell in shifts if _rhs_outcome(catalog.prop2_rhs, 40, ell) == ("zero-division",)]
    assert raising == list(range(-20, 0))


def test_triple_examples_reach_every_gamma_value_kind():
    kinds = {type(gauss_second_rhs(a, b)) for a, b in GAUSS_EXAMPLES}
    kinds |= {type(legendre.moment(p, n)) for p, n in MOMENT_EXAMPLES}
    assert kinds == {Finite, Zero, Pole, Irreducible}
