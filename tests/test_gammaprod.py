"""Gamma-product reduction: half-integer closed forms, pole bookkeeping,
and the balanced 2F1(1/2) right-hand side."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knuthsums import hyper
from knuthsums.gammaprod import (
    Finite,
    GammaExpr,
    Irreducible,
    Pole,
    Zero,
    gamma_half,
    gauss_second_rhs,
    reduce,
)

HALF = F(1, 2)


def test_half_integer_values():
    assert reduce(GammaExpr([(F(5, 2), 1)])) == Finite(F(3, 4), 1)
    assert reduce(GammaExpr([(F(-1, 2), 1)])) == Finite(F(-2), 1)
    assert gamma_half(HALF) == 1
    assert gamma_half(F(7, 2)) == F(15, 8)
    with pytest.raises(ValueError):
        gamma_half(F(1, 3))


def test_integer_ratio_pairs_to_pochhammer():
    x = F(1, 3)
    assert reduce(GammaExpr([(x + 3, 1), (x, -1)])) == Finite(F(28, 27), 0)


def test_positive_integers_are_factorials():
    assert reduce(GammaExpr([(5, 1)])) == Finite(F(24), 0)
    assert reduce(GammaExpr([(5, 1), (3, -1)])) == Finite(F(12), 0)
    assert reduce(GammaExpr([(1, 1)], scalar=F(7, 2))) == Finite(F(7, 2), 0)


def test_pole_semantics():
    assert reduce(GammaExpr([(0, 1)])) == Pole()
    assert reduce(GammaExpr([(0, -1)])) == Zero()
    assert reduce(GammaExpr([(-3, 1), (2, 1)])) == Pole()
    assert reduce(GammaExpr([(-3, -1), (F(1, 2), 1)])) == Zero()
    # numerator pole against denominator pole at a different argument is a
    # 0*inf the engine refuses to resolve
    assert isinstance(reduce(GammaExpr([(0, 1), (-2, -1)])), Irreducible)
    # ... but identical arguments cancel outright at merge time
    assert reduce(GammaExpr([(0, 1), (0, -1), (2, 1)])) == Finite(F(1), 0)


def test_irreducible_keeps_residual():
    val = reduce(GammaExpr([(F(1, 3), 1)], scalar=F(2)))
    assert isinstance(val, Irreducible)
    assert val.residual.factors == ((F(1, 3), 1),)
    assert val.residual.scalar == 2


def test_scalar_must_be_nonzero():
    with pytest.raises(ValueError):
        GammaExpr([(1, 1)], scalar=0)


def test_exponent_must_be_an_integer():
    # a Fraction exponent was truncated, so Gamma(5/2)^(3/2) read as
    # Gamma(5/2) and reduced to a wrong Finite
    with pytest.raises(ValueError, match="exponent must be an integer, got 3/2"):
        GammaExpr([(F(5, 2), F(3, 2))])
    for bad in (1.0, 0.5, "2"):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            GammaExpr([(2, bad)])
    assert GammaExpr([(F(5, 2), F(2))]) == GammaExpr({F(5, 2): 2})
    assert reduce(GammaExpr([(F(5, 2), F(-4, 2))])) == Finite(F(16, 9), -2)


def test_gamma_values_are_immutable_value_types():
    residual = GammaExpr([(F(1, 3), 1), (F(1, 2), 2)], scalar=F(2))
    values = [Finite(F(2, 3), 0), Finite(F(-3, 4), 1), Zero(), Pole(), Irreducible(residual)]
    # the reprs a frozen dataclass printed for the same values
    assert [repr(v) for v in values] == [
        "Finite(q=Fraction(2, 3), s=0)",
        "Finite(q=Fraction(-3, 4), s=1)",
        "Zero()",
        "Pole()",
        "Irreducible(residual=GammaExpr(2 * G(1/3)^1 * G(1/2)^2))",
    ]
    twins = [Finite(q=F(4, 6), s=0), Finite(F(-3, 4), 1), Zero(), Pole(), Irreducible(residual)]
    for i, v in enumerate(values):
        assert v == twins[i] and hash(v) == hash(twins[i])
        assert pickle.loads(pickle.dumps(v)) == v and copy.copy(v) == v
        for j, w in enumerate(values):
            assert (v == w) == (i == j) and (v != w) == (i != j)
    assert Zero() != Pole() and Pole() != Zero()
    assert Finite(F(2, 3), 0) != (F(2, 3), 0) and (F(2, 3), 0) != Finite(F(2, 3), 0)
    assert Irreducible(residual) != residual
    for value, field in [(values[0], "q"), (values[0], "s"), (values[4], "residual")]:
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        Zero().extra = 1
    assert values[0].q == F(2, 3) and values[4].residual is residual


def test_reduce_invariant_under_reordering_and_splitting():
    factors = [(F(5, 2), 1), (F(1, 3), 2), (F(7, 3), -1), (4, 1), (F(-1, 2), -1)]
    base = reduce(GammaExpr(factors, scalar=F(3, 7)))
    random.Random(7).shuffle(factors)
    assert reduce(GammaExpr(factors, scalar=F(3, 7))) == base
    # split the squared factor into two unit factors
    split = [(F(5, 2), 1), (F(1, 3), 1), (F(1, 3), 1), (F(7, 3), -1), (4, 1), (F(-1, 2), -1)]
    assert reduce(GammaExpr(split, scalar=F(3, 7))) == base


def test_reflection_products():
    # Gamma(m+1/2) Gamma(1/2-m) = (-1)^m pi
    for m in range(21):
        val = reduce(GammaExpr([(m + HALF, 1), (HALF - m, 1)]))
        assert val == Finite(F((-1) ** m), 2)


def test_gauss_second_rhs_examples():
    assert gauss_second_rhs(-2, 2) == Finite(F(-1), 0)
    assert gauss_second_rhs(0, 0) == Finite(F(1), 0)
    for b in (F(1, 3), F(7, 5), F(-9, 4)):
        assert gauss_second_rhs(-3, b) == Zero()


def _random_b_values(count, seed):
    rng = random.Random(seed)
    values = []
    while len(values) < count:
        b = F(rng.randint(-40, 40), rng.choice([2, 3, 4, 5, 7, 9]))
        if b.denominator > 1:  # non-integers dodge every Gamma pole here
            values.append(b)
    return values


def test_gauss_second_matches_brute_force():
    for m in range(16):
        a = F(-2 * m)
        for b in _random_b_values(50, seed=100 + m):
            series = hyper.HyperSeries((a, b), ((a + b + 1) / 2,), HALF)
            value = hyper.eval_terminating(series)
            rhs = gauss_second_rhs(a, b)
            assert isinstance(rhs, Finite) and rhs.s == 0
            assert rhs.q == value


def test_gauss_second_odd_cases_reduce_to_zero():
    for m in range(12):
        a = F(-(2 * m + 1))
        for b in _random_b_values(8, seed=300 + m):
            series = hyper.HyperSeries((a, b), ((a + b + 1) / 2,), HALF)
            assert hyper.eval_terminating(series) == 0
            assert gauss_second_rhs(a, b) == Zero()


def _reduce_by_fractions(expr):
    """The per-factor Fraction reduction that `reduce` replaced, kept as
    an oracle: a running Fraction multiplied by each Pochhammer ratio,
    factorial power and half-integer value in turn."""

    def rising(x, k):
        out = F(1)
        for j in range(k):
            out *= x + j
        return out

    def half(a):
        m = int(a - HALF)
        if m >= 0:
            return F(math.factorial(2 * m), 4**m * math.factorial(m))
        m = -m
        return F((-4) ** m * math.factorial(m), math.factorial(2 * m))

    rational = F(expr.scalar)
    pi_halves = 0
    num_pole = den_pole = False
    leftover = []
    groups = {}
    for arg, exp in expr.factors:
        groups.setdefault(arg - math.floor(arg), []).append((F(arg), exp))
    for frac_part, members in groups.items():
        if frac_part == 0:
            for arg, exp in members:
                if arg >= 1:
                    rational *= F(math.factorial(int(arg) - 1)) ** exp
                elif exp > 0:
                    num_pole = True
                else:
                    den_pole = True
            continue
        base = min(arg for arg, _ in members)
        net = 0
        for arg, exp in members:
            rational *= rising(base, int(arg - base)) ** exp
            net += exp
        if net == 0:
            continue
        if frac_part == HALF:
            rational *= half(base) ** net
            pi_halves += net
        else:
            leftover.append((base, net))
    if num_pole and den_pole:
        if pi_halves:
            leftover.append((HALF, pi_halves))
        for arg, exp in expr.factors:
            if arg.denominator == 1 and arg <= 0:
                leftover.append((arg, exp))
        return Irreducible(GammaExpr(leftover, rational))
    if num_pole:
        return Pole()
    if den_pole:
        return Zero()
    if leftover:
        if pi_halves:
            leftover.append((HALF, pi_halves))
        return Irreducible(GammaExpr(leftover, rational))
    return Finite(rational, pi_halves)


_EXPONENTS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def _gamma_products(draw):
    """Gamma products over arguments p/q, |p| <= 30, q in {1,2,3,4,5,7}:
    each argument drawn may appear up to three times with exponents of its
    own, integers come as int or as Fraction, and nonpositive-integer
    poles may be added on both sides (the 0 * inf case)."""
    args = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 5, 7]))
    factors = []
    for arg in draw(st.lists(args, max_size=6)):
        if arg.denominator == 1 and draw(st.booleans()):
            arg = int(arg)
        factors += [(arg, draw(_EXPONENTS)) for _ in range(draw(st.integers(1, 3)))]
    for sign in draw(st.lists(st.sampled_from([1, -1]), max_size=2)):
        factors.append((draw(st.integers(-30, 0)), sign * draw(st.integers(1, 3))))
    scalar = F(draw(st.integers(1, 60)), draw(st.integers(1, 60))) * draw(st.sampled_from([1, -1]))
    return GammaExpr(draw(st.permutations(factors)), scalar=scalar)


@settings(max_examples=400, deadline=None)
@given(_gamma_products())
@example(GammaExpr([(0, 1), (-2, -1), (F(5, 2), 2), (F(1, 3), 1)], scalar=F(-3, 4)))
@example(GammaExpr([(F(7, 3), 2), (F(1, 3), -1), (F(-2, 3), -1), (F(-5, 2), -3)], scalar=5))
def test_reduce_matches_per_factor_fractions(expr):
    # GammaValue equality covers an Irreducible's residual factors and scalar
    assert reduce(expr) == _reduce_by_fractions(expr)
