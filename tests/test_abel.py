"""Summation by parts: the finite transform is identically zero, the
compactly supported pair matches its infinite form, and both derived
identities hold.

The lemma is checked here on lists, as the oracle behind both identities:
the package keeps only the identities the registry checks."""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from knuthsums import abel
from knuthsums.catalog import DEFAULT_ELL_GRID
from knuthsums.core import gbinom, pochhammer

rational = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=9)
)


def transform_residual(a, b):
    """Left side minus right side of the finite summation-by-parts identity

        sum_{i=1}^{m} B_i (A_i - A_{i-1})
          = A_m B_{m+1} - A_0 B_1 + sum_{i=1}^{m} A_i (B_i - B_{i+1})

    for A = a[0..m] and B = b[0..m+1]: always exactly 0."""
    m = len(a) - 1
    lhs = sum(b[i] * (a[i] - a[i - 1]) for i in range(1, m + 1))
    rhs = a[m] * b[m + 1] - a[0] * b[1] + sum(a[i] * (b[i] - b[i + 1]) for i in range(1, m + 1))
    return lhs - rhs


def first_pair(n, ell, cutoff):
    """A = a[0..cutoff] and B = b[0..cutoff+1] of the compactly supported
    pair behind the weighted shifted sum:

        A_i = -(i-n)(-n)_i / (n i!)      (zero for i >= n)
        B_i = 2^i (l+1/2)_i / (2l+1)_i
    """
    a = [-(i - n) * pochhammer(-n, i) / (n * math.factorial(i)) for i in range(cutoff + 1)]
    b = [2**i * pochhammer(ell + F(1, 2), i) / pochhammer(2 * ell + 1, i) for i in range(cutoff + 2)]
    return a, b


def test_transform_residual_trivial_cases():
    assert transform_residual([F(3)], [F(5), F(7)]) == 0
    assert transform_residual([F(i) for i in range(6)], [F(1)] * 7) == 0


def test_transform_residual_on_compact_pair():
    assert transform_residual(*first_pair(4, F(1, 3), 4)) == 0
    assert transform_residual(*first_pair(4, F(1, 3), 9)) == 0


@settings(max_examples=80)
@given(st.data(), st.integers(min_value=0, max_value=20))
def test_transform_residual_random_sequences(data, m):
    a_vals = data.draw(st.lists(rational, min_size=m + 1, max_size=m + 1))
    b_vals = data.draw(st.lists(rational, min_size=m + 2, max_size=m + 2))
    assert transform_residual(a_vals, b_vals) == 0


def test_first_pair_compact_support():
    for n in (1, 3, 6):
        a, _ = first_pair(n, F(1, 3), n + 3)
        assert a[n:] == [0] * 4
        assert a[0] == 1  # -(0-n)(1)/(n*1)

    def lhs_sum(a, b):
        return sum(b[i] * (a[i] - a[i - 1]) for i in range(1, len(a)))

    for n in (2, 5):
        for ell in (F(0), F(1, 2), F(7, 5)):
            base = lhs_sum(*first_pair(n, ell, n))
            for m in (n + 1, n + 3, n + 6):
                a, b = first_pair(n, ell, m)
                assert lhs_sum(a, b) == base
                assert a[m] * b[m + 1] == 0  # boundary term is the (zero) limit


def test_abel1_values():
    assert F(*abel.abel1_lhs(2, F(0))) == F(*abel.abel1_rhs(2, F(0))) == -1
    assert F(*abel.abel1_lhs(1, F(1, 4))) == F(*abel.abel1_rhs(1, F(1, 4))) == 0
    assert F(*abel.abel1_lhs(4, F(1, 3))) == F(*abel.abel1_rhs(4, F(1, 3)))


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


def _abel1_valid_by_fractions(n, ell):
    """The predicate with l and 2l+1 formed as Fractions."""
    ell = F(ell)
    if ell.denominator == 1 and -n <= ell < 0:
        return False
    pole = 2 * ell + 1
    return not (pole.denominator == 1 and -n <= pole <= 0)


def test_abel1_validity_matches_fraction_predicate_exhaustively():
    shifts = [*{F(a, b) for a in range(-60, 61) for b in range(1, 13)}, *range(-60, 61)]
    for n in range(41):
        for ell in shifts:
            assert abel.abel1_valid(n, ell) == _abel1_valid_by_fractions(n, ell), (n, ell)


def test_abel1_zero_shift_against_independent_brute_force():
    for n in range(81):
        direct = sum(
            F((-1) ** k * math.comb(n, k) * math.comb(2 * k, k) * k * (n - k), 2**k)
            / (k + 1)
            for k in range(n + 1)
        )
        assert F(*abel.abel1_lhs(n, F(0))) == direct
        assert direct == F(*abel.abel1_rhs(n, F(0)))


def test_abel1_grid_sweep():
    for n in range(26):
        for ell in DEFAULT_ELL_GRID:
            if abel.abel1_valid(n, ell):
                assert F(*abel.abel1_lhs(n, ell)) == F(*abel.abel1_rhs(n, ell))


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
                assert F(*abel.abel1_lhs(n, ell)) == literal, (n, ell)


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
        assert F(*abel.abel2_lhs(n)) == literal


def test_abel2_values():
    assert F(*abel.abel2_lhs(0)) == F(*abel.abel2_rhs(0)) == 0
    assert F(*abel.abel2_lhs(1)) == F(*abel.abel2_rhs(1)) == F(1, 2)
    assert F(*abel.abel2_lhs(2)) == F(*abel.abel2_rhs(2)) == F(1, 8)


def test_abel2_sweep():
    for n in range(41):
        assert F(*abel.abel2_lhs(n)) == F(*abel.abel2_rhs(n))
