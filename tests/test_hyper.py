"""Terminating hypergeometric evaluation and the classical 2F1(2) closed forms."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest

from knuthsums import catalog
from knuthsums.hyper import (
    HyperSeries,
    eval_terminating,
    kummer_even,
    kummer_odd_zero,
    prop2_as_2f1,
)

# rational grid avoiding every Pochhammer pole of the two closed forms
A_GRID = [
    F(1), F(2), F(3), F(4), F(1, 2), F(3, 2), F(5, 2), F(1, 3), F(-1, 3), F(2, 5),
    F(7, 5), F(-5, 4), F(9, 7), F(11, 4), F(13, 5), F(-7, 5), F(17, 3), F(5, 7),
    F(-8, 3), F(23, 6),
]


def test_eval_terminating_examples():
    assert eval_terminating(HyperSeries((-2, 1), (2,), 2)) == F(1, 3)
    assert eval_terminating(HyperSeries((-2, 2), (F(1, 2),), F(1, 2))) == -1
    # termination index 0: single term, value 1
    assert eval_terminating(HyperSeries((0, F(7, 3)), (F(1, 5),), 9)) == 1


def test_series_invariants_enforced():
    with pytest.raises(ValueError):
        HyperSeries((F(1, 2), 3), (2,), 1)  # never terminates
    with pytest.raises(ValueError):
        HyperSeries((-4, 1), (-2,), 1)  # denominator Pochhammer dies in range
    s = HyperSeries((-4, -7), (F(1, 3),), 2)
    assert s.termination_index == 4


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_lower_parameter_that_vanishes_in_range_is_rejected(n):
    # eval_terminating divides by l+k-1 for k <= N and relies on this:
    # every integer lower parameter b in [-N, 0] is refused up front
    for b in range(-n, 1):
        with pytest.raises(ValueError, match="vanish within range"):
            HyperSeries((-n, F(1, 3)), (F(5, 2), b), 2)
    # b = -N-1 first vanishes at term N+2, past the last term
    series = HyperSeries((-n, F(1, 3)), (F(5, 2), -n - 1), 2)
    assert eval_terminating(series) == _eval_from_scratch(series)


def test_kummer_even_examples():
    assert kummer_even(1, 1) == F(1, 3)
    assert kummer_even(0, F(7, 5)) == 1
    assert kummer_even(2, F(1, 2)) == F(3, 8)
    assert kummer_even(2, F(1, 2)) == eval_terminating(HyperSeries((-4, F(1, 2)), (1,), 2))


def test_kummer_even_preconditions():
    with pytest.raises(ValueError):
        kummer_even(2, F(-3, 2))  # (a+1/2)_n vanishes
    with pytest.raises(ValueError):
        kummer_even(3, -1)  # lower parameter 2a = -2 dies in range
    with pytest.raises(ValueError):
        kummer_even(-1, F(1, 2))


def test_kummer_odd_zero_examples():
    # 2F1[-3, 1; 2 | 2] = 1 - 3 + 4 - 2 = 0
    assert eval_terminating(HyperSeries((-3, 1), (2,), 2)) == 0
    assert kummer_odd_zero(1, 1) == 0
    assert kummer_odd_zero(0, F(7, 5)) == 0
    assert kummer_odd_zero(2, 2) == eval_terminating(HyperSeries((-5, 2), (4,), 2)) == 0
    with pytest.raises(ValueError):
        kummer_odd_zero(2, F(-3, 2))  # 2a = -3 >= -(2n+1)
    with pytest.raises(ValueError):
        kummer_odd_zero(-1, 1)


def test_kummer_sweep_against_brute_force():
    for n in range(21):
        for a in A_GRID:
            even = HyperSeries((-2 * n, a), (2 * a,), 2)
            assert eval_terminating(even) == kummer_even(n, a), (n, a)
            odd = HyperSeries((-(2 * n + 1), a), (2 * a,), 2)
            assert eval_terminating(odd) == kummer_odd_zero(n, a) == 0, (n, a)


def test_prop2_series_examples():
    assert eval_terminating(prop2_as_2f1(2, F(1))) == F(1, 4)
    assert eval_terminating(prop2_as_2f1(1, F(0))) == 0
    for ell in (F(0), F(1, 3), F(-1, 4)):
        assert eval_terminating(prop2_as_2f1(0, ell)) == 1


def test_prop2_series_equals_brute_force_lhs():
    for n in range(26):
        for ell in catalog.DEFAULT_ELL_GRID:
            if not catalog.prop2_valid(n, ell):
                continue
            assert eval_terminating(prop2_as_2f1(n, ell)) == F(*catalog.prop2_lhs(n, ell))


def test_prop2_closed_form_at_even_index_is_kummers_evaluation():
    # the abstract's 2F1(2) generalisation with a free parameter: prop2's RHS
    # at index 2n is (1/2)_n / (l+1)_n, which kummer_even(n, l + 1/2) builds
    # from its own products, so it checks core.prop2_closed independently
    checked = 0
    for n in range(31):
        for d in (1, 2, 3, 4, 7):
            for a in range(-(n + 1) * d, 2 * d + 1):
                if math.gcd(a, d) != 1:
                    continue
                ell = F(a, d)
                if d == 1 and -n <= a <= -1:  # (l+1)_n = 0: both raise
                    with pytest.raises(ZeroDivisionError):
                        catalog.prop2_rhs(2 * n, ell)
                    with pytest.raises(ValueError, match="vanishes"):
                        kummer_even(n, ell + F(1, 2))
                elif d == 2 and -2 * n <= a + 1 <= 0:
                    # the series' lower parameter 2l+1 dies in range, so only
                    # kummer_even raises; the literal sum checks the RHS there
                    with pytest.raises(ValueError, match="lower parameter"):
                        kummer_even(n, ell + F(1, 2))
                    assert F(*catalog.prop2_rhs(2 * n, ell)) == F(*catalog.prop2_lhs(2 * n, ell)), (n, ell)
                else:
                    assert F(*catalog.prop2_rhs(2 * n, ell)) == kummer_even(n, ell + F(1, 2)), (n, ell)
                    checked += 1
    assert checked == 5766


def _eval_from_scratch(series):
    """sum_k prod(upper)_k / prod(lower)_k z^k / k!, every Pochhammer
    multiplied out factor by factor."""

    def rising(x, k):
        out = F(1)
        for j in range(k):
            out *= x + j
        return out

    n = series.termination_index
    total = F(0)
    for k in range(n + 1):
        num = F(1)
        for u in series.upper:
            num *= rising(u, k)
        den = F(math.factorial(k))
        for l in series.lower:
            den *= rising(l, k)
        total += num * series.argument**k / den
    return total


# (upper, lower, z, termination index)
EDGE_SERIES = [
    ((-5, F(2, 3)), (F(7, 2),), 0, 5),  # z = 0: only the k = 0 term
    ((-6, F(-5, 3), 4), (F(1, 2), F(-7, 4)), F(-9, 2), 6),  # negative z
    ((-7, F(3, 5)), (F(-1, 3),), -1, 7),
    ((0, F(7, 3)), (F(1, 5), -3), F(-6, 7), 0),  # a single term
    # two witnesses: the smaller, 4, wins; summing on to 9 would hit the
    # lower parameter -6, which vanishes at term 7
    ((-9, -4, F(1, 2)), (F(3, 2), -6), 2, 4),
    ((-3, -8), (F(5, 3), F(-2, 7)), F(-1, 4), 3),
]


def test_term_recurrence_matches_pochhammer_evaluation():
    for upper, lower, z, n in EDGE_SERIES:
        series = HyperSeries(upper, lower, z)
        assert series.termination_index == n
        assert eval_terminating(series) == _eval_from_scratch(series), (upper, lower, z)
    rng = random.Random(20260809)
    checked = 0
    while checked < 100:
        n = rng.randint(0, 12)
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        upper = [F(-n)] + [
            F(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 7])) for _ in range(p - 1)
        ]
        lower = [F(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 7])) for _ in range(q)]
        z = F(rng.randint(-6, 6), rng.randint(1, 4))
        try:
            series = HyperSeries(upper, lower, z)
        except ValueError:
            continue
        assert eval_terminating(series) == _eval_from_scratch(series)
        checked += 1


def test_int_and_fraction_parameters_build_the_same_series():
    # ints are stored as given, not re-wrapped; the termination index is
    # computed once and stays out of equality, hashing and repr
    for upper, lower, z, n in EDGE_SERIES:
        ints = HyperSeries(upper, lower, z)
        fractions = HyperSeries([F(u) for u in upper], [F(l) for l in lower], F(z))
        assert ints == fractions and hash(ints) == hash(fractions)
        assert ints.termination_index == fractions.termination_index == n
        assert "termination_index" not in repr(ints)
        assert eval_terminating(ints) == eval_terminating(fractions)
    assert HyperSeries((-4, -7), (F(1, 3),), 2) == HyperSeries((-4, -7), (F(1, 3),), 2)
    assert HyperSeries((-4, 1), (2,), 2) != HyperSeries((-5, 1), (2,), 2)


def test_series_is_an_immutable_value_type():
    series = HyperSeries((-2, F(1, 2)), (1,), 2)
    # the repr a frozen dataclass printed, termination_index left out
    assert repr(series) == "HyperSeries(upper=(-2, Fraction(1, 2)), lower=(1,), argument=2)"
    assert (
        repr(HyperSeries((-4, -7), (F(1, 3),), F(-1, 2)))
        == "HyperSeries(upper=(-4, -7), lower=(Fraction(1, 3),), argument=Fraction(-1, 2))"
    )
    twin = HyperSeries([F(-2), F(2, 4)], [F(1)], F(2))
    assert series == twin and hash(series) == hash(twin)
    for other in (
        HyperSeries((-3, F(1, 2)), (1,), 2),
        HyperSeries((-2, F(1, 2)), (2,), 2),
        HyperSeries((-2, F(1, 2)), (1,), 3),
        ((-2, F(1, 2)), (1,), 2),
    ):
        assert series != other and other != series
    copied = copy.copy(series)
    assert copied == series and copied.termination_index == 2
    assert pickle.loads(pickle.dumps(series)).termination_index == 2
    for field in ("upper", "lower", "argument", "termination_index"):
        with pytest.raises(AttributeError):
            setattr(series, field, (0,))
    assert series.upper == (-2, F(1, 2)) and series.termination_index == 2
