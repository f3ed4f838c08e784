"""Primitive arithmetic: Pochhammer, generalized binomials and their rows,
harmonic caches."""

import math
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knuthsums import core

rationals = st.builds(
    F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)
)


def test_pochhammer_values():
    assert core.pochhammer(F(1, 2), 0) == 1
    assert core.pochhammer(-2, 2) == 2
    assert core.pochhammer(-2, 3) == 0
    assert core.pochhammer(F(1, 3), 3) == F(1, 3) * F(4, 3) * F(7, 3)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        core.pochhammer(F(1, 2), -1)


@given(rationals, st.integers(min_value=1, max_value=12))
def test_pochhammer_recurrence(x, k):
    assert core.pochhammer(x, k) == core.pochhammer(x, k - 1) * (x + k - 1)


def test_gbinom_values():
    assert core.gbinom(F(5, 2), 2) == F(15, 8)
    assert core.gbinom(7, 3) == 35
    assert core.gbinom(F(5, 2), 0) == 1
    with pytest.raises(ValueError):
        core.gbinom(F(5, 2), -1)


def test_gbinom_matches_ordinary_binomial():
    for a in range(41):
        for m in range(a + 1):
            assert core.gbinom(a, m) == math.comb(a, m)


@given(rationals, st.integers(min_value=1, max_value=10))
def test_gbinom_pascal_rule(a, m):
    assert core.gbinom(a, m) == core.gbinom(a - 1, m) + core.gbinom(a - 1, m - 1)


def test_binom2k_row_values():
    assert core.binom2k_row(F(1, 2), 1)[1] == core.gbinom(3, 1) == 3
    assert core.binom2k_row(1, 2)[2] == math.comb(6, 2) == 15
    for ell in (F(0), F(1, 3), F(-7, 5)):
        assert core.binom2k_row(ell, 0) == [1]


def test_binom2k_row_equals_pochhammer_form():
    for ell in (F(0), F(1, 2), F(-1, 3), F(7, 5)):
        row = core.binom2k_row(ell, 11)
        for k in range(12):
            expected = core.pochhammer(k + 2 * ell + 1, k) / math.factorial(k)
            assert row[k] == expected


@given(rationals, st.integers(min_value=0, max_value=30))
def test_gbinom_row_matches_gbinom(a, m):
    assert core.gbinom_row(a, m) == [core.gbinom(a, j) for j in range(m + 1)]


half_integers = st.builds(lambda p: F(2 * p + 1, 2), st.integers(min_value=-30, max_value=30))


@given(st.one_of(rationals, half_integers), st.integers(min_value=0, max_value=30))
def test_binom2k_row_matches_gbinom(ell, m):
    # at negative half-integers l the one-step ratio hits 0/0 steps and
    # the row falls back to the direct product
    assert core.binom2k_row(ell, m) == [core.gbinom(2 * k + 2 * ell, k) for k in range(m + 1)]


def test_harmonic_values():
    assert core.harmonic(0) == 0
    assert core.harmonic(2) == F(3, 2)
    assert core.harmonic(4) == F(25, 12)
    assert core.odd_harmonic(0) == 0
    assert core.odd_harmonic(2) == F(4, 3)


def test_odd_harmonic_halving_identity():
    # O_k = H_{2k} - H_k / 2
    for k in range(61):
        assert core.odd_harmonic(k) == core.harmonic(2 * k) - core.harmonic(k) / 2


def test_harmonic_cache_concurrent_growth():
    cache = core.HarmonicCache()
    results = {}

    def worker(tag, n):
        results[tag] = (cache.harmonic(n), cache.odd_harmonic(n))

    threads = [
        threading.Thread(target=worker, args=(i, 400 + (i % 7))) for i in range(16)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for tag, (h, o) in results.items():
        n = 400 + (tag % 7)
        assert h == core.harmonic(n)
        assert o == core.odd_harmonic(n)


def test_parse_rational():
    assert core.parse_rational("1/3") == F(1, 3)
    assert core.parse_rational("-7/5") == F(-7, 5)
    assert core.parse_rational(" 4 ") == 4
    for bad in ("0.5", "1e3", "", "one", "1/0", "1 / 3", "--2"):
        with pytest.raises(ValueError):
            core.parse_rational(bad)


@settings(max_examples=60)
@given(rationals)
def test_format_parse_round_trip(q):
    assert core.parse_rational(core.format_rational(q)) == q
