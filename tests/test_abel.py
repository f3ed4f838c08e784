"""Summation by parts: the finite transform is identically zero, the
compactly supported pair matches its infinite form, and both derived
identities hold."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knuthsums import abel
from knuthsums.catalog import DEFAULT_ELL_GRID
from knuthsums.core import gbinom

rational = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=9)
)


def _pair_from_lists(a_vals, b_vals):
    return abel.SequencePair(
        A=lambda i: a_vals[i], B=lambda i: b_vals[i], cutoff=len(a_vals) - 1
    )


def test_transform_residual_trivial_cases():
    assert abel.transform_residual(_pair_from_lists([F(3)], [F(5), F(7)])) == 0
    pair = abel.SequencePair(A=lambda i: F(i), B=lambda i: F(1), cutoff=5)
    assert abel.transform_residual(pair) == 0


def test_transform_residual_on_compact_pair():
    assert abel.transform_residual(abel.first_pair(4, F(1, 3))) == 0
    assert abel.transform_residual(abel.first_pair(4, F(1, 3), cutoff=9)) == 0


@settings(max_examples=80)
@given(st.data(), st.integers(min_value=0, max_value=20))
def test_transform_residual_random_sequences(data, m):
    a_vals = data.draw(st.lists(rational, min_size=m + 1, max_size=m + 1))
    b_vals = data.draw(st.lists(rational, min_size=m + 2, max_size=m + 2))
    assert abel.transform_residual(_pair_from_lists(a_vals, b_vals)) == 0


def test_first_pair_compact_support():
    for n in (1, 3, 6):
        pair = abel.first_pair(n, F(1, 3))
        assert all(pair.A(i) == 0 for i in range(n, n + 4))
        assert pair.A(0) == 1  # -(0-n)(1)/(n*1)

    def lhs_sum(n, ell, m):
        pair = abel.first_pair(n, ell, cutoff=m)
        return sum(pair.B(i) * (pair.A(i) - pair.A(i - 1)) for i in range(1, m + 1))

    for n in (2, 5):
        for ell in (F(0), F(1, 2), F(7, 5)):
            base = lhs_sum(n, ell, n)
            for m in (n + 1, n + 3, n + 6):
                assert lhs_sum(n, ell, m) == base
                pair = abel.first_pair(n, ell, cutoff=m)
                assert pair.A(m) * pair.B(m + 1) == 0  # boundary term is the (zero) limit

    with pytest.raises(ValueError):
        abel.first_pair(0, F(1, 2))


def test_abel1_values():
    assert abel.abel1_lhs(2, F(0)) == abel.abel1_rhs(2, F(0)) == -1
    assert abel.abel1_lhs(1, F(1, 4)) == abel.abel1_rhs(1, F(1, 4)) == 0
    assert abel.abel1_lhs(4, F(1, 3)) == abel.abel1_rhs(4, F(1, 3))


def test_abel1_validity():
    assert not abel.abel1_valid(3, F(-1, 2))  # k+2l+1 = 0 at k = 0
    assert not abel.abel1_valid(3, F(-3, 2))  # ... at k = 2
    assert not abel.abel1_valid(3, F(-1))
    assert abel.abel1_valid(3, F(-7, 2)) and abel.abel1_valid(3, F(1, 3))


def _abel1_valid_by_loop(n, ell):
    """The predicate as a scan of every denominator k+2l+1, k = 0..n."""
    if ell.denominator == 1 and -n <= ell < 0:
        return False
    return all(k + 2 * ell + 1 != 0 for k in range(n + 1))


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=40),
    st.builds(F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=4)),
)
def test_abel1_validity_matches_denominator_scan(n, ell):
    assert abel.abel1_valid(n, ell) == _abel1_valid_by_loop(n, ell)


def test_abel1_zero_shift_against_independent_brute_force():
    for n in range(81):
        direct = sum(
            F((-1) ** k * math.comb(n, k) * math.comb(2 * k, k) * k * (n - k), 2**k)
            / (k + 1)
            for k in range(n + 1)
        )
        assert abel.abel1_lhs(n, F(0)) == direct
        assert direct == abel.abel1_rhs(n, F(0))


def test_abel1_grid_sweep():
    for n in range(26):
        for ell in DEFAULT_ELL_GRID:
            if abel.abel1_valid(n, ell):
                assert abel.abel1_lhs(n, ell) == abel.abel1_rhs(n, ell)


def test_abel1_lhs_equals_per_term_fraction_sum():
    for n in range(41):
        for ell in DEFAULT_ELL_GRID:
            if abel.abel1_valid(n, ell):
                literal = sum(
                    F(-1, 2) ** k
                    * gbinom(n + ell, n - k)  # choose(n+l, k+l)
                    * gbinom(2 * k + 2 * ell, k)
                    * k
                    * (n - k)
                    / (k + 2 * ell + 1)
                    for k in range(n + 1)
                )
                assert abel.abel1_lhs(n, ell) == literal, (n, ell)


def test_abel2_lhs_equals_per_term_fraction_sum():
    for n in range(41):
        literal = sum(
            F((-1) ** k * math.comb(2 * k, k) * math.comb(n, k), 2**k)
            * (2 * k + 1)
            * (k * k + 3 * k + 3)
            * (n - k)
            / ((k + 1) ** 2 * (k + 2) * (k + 3))
            for k in range(n + 1)
        )
        assert abel.abel2_lhs(n) == literal


def test_abel2_values():
    assert abel.abel2_lhs(0) == abel.abel2_rhs(0) == 0
    assert abel.abel2_lhs(1) == abel.abel2_rhs(1) == F(1, 2)
    assert abel.abel2_lhs(2) == abel.abel2_rhs(2) == F(1, 8)


def test_abel2_sweep():
    for n in range(41):
        assert abel.abel2_lhs(n) == abel.abel2_rhs(n)
