"""Primitive arithmetic: the exact-sum kernel, Pochhammer, generalized
binomials, the integer numerators of their rows and the summand kernels
built from them, harmonic numbers."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knuthsums import core, gammaprod, hyper, legendre

rationals = st.builds(
    F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)
)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-10**6, max_value=10**6),
            st.one_of(
                st.sampled_from([1, 2, 3, 4, 6, 12]),  # repeated, shared factors
                st.sampled_from([5, 7, 11, 13]),  # pairwise coprime
                st.integers(min_value=-10**4, max_value=10**4).filter(bool),
            ),
        ),
        max_size=25,
    )
)
@example([])
@example([(0, 3), (0, 7)])
@example([(1, 2), (1, 2), (-1, 2), (-1, 2)])
@example([(1, 2), (1, 3), (1, 5), (-1, 7)])
@example([(5, -3), (0, 4), (-2, 9)])
def test_exact_sum_equals_per_term_fraction_sum(terms):
    total = F(*core.exact_sum(terms))
    assert type(total) is F
    assert total == sum((F(num, den) for num, den in terms), F(0))


def test_exact_sum_takes_a_generator_and_rejects_a_zero_denominator():
    assert F(*core.exact_sum((k, k + 1) for k in range(4))) == F(1, 2) + F(2, 3) + F(3, 4)
    with pytest.raises(ZeroDivisionError):
        core.exact_sum([(1, 2), (1, 0)])


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


def _factor_loop(x, k, step):
    """x (x+step) ... (x+(k-1)step), multiplied out one Fraction at a time."""
    out = F(1)
    for j in range(k):
        out *= x + j * step
    return out


@given(
    st.one_of(rationals, st.integers(min_value=-25, max_value=25)),
    st.integers(min_value=0, max_value=20),
)
@example(-3, 6)  # rising product crosses zero
@example(3, 6)  # falling product crosses zero
@example(-4, 3)  # negative integer, zero not reached
@example(F(-7, 2), 0)
def test_pochhammer_and_falling_match_factor_loop(x, k):
    assert core.pochhammer(x, k) == _factor_loop(F(x), k, 1)
    assert core.falling(x, k) == _factor_loop(F(x), k, -1)
    assert type(core.pochhammer(x, k)) is type(core.falling(x, k)) is F


def test_falling_rejects_negative_order():
    with pytest.raises(ValueError):
        core.falling(F(1, 2), -1)


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


def _over(numerators, b):
    """numerators[j] / (b^j j!), the row a kernel's numerators stand for."""
    return [F(u, b**j * math.factorial(j)) for j, u in enumerate(numerators)]


def _b2k(ell, m):
    """The cached M_k of choose(2k+2l, k), k = 0..m, for l = ell."""
    return core._grown_rows(ell.numerator, ell.denominator, m)[0][: m + 1]


def test_binom2k_row_values():
    # the integer numerators of choose(2k+2l, k) over b^k k!
    assert _over(_b2k(F(1, 2), 1), 2)[1] == core.gbinom(3, 1) == 3
    assert _b2k(F(1, 2), 1) == [1, 6]
    assert _b2k(1, 2)[2] == math.comb(6, 2) * 2 == 30
    for ell in (F(0), F(1, 3), F(-7, 5)):
        assert _b2k(ell, 0) == [1]
    # l = -3/2: an entry vanishes and the next one is nonzero again
    assert _over(_b2k(F(-3, 2), 4), 2) == [1, -1, 0, 1, 5]


def test_binom2k_row_equals_pochhammer_form():
    for ell in (F(0), F(1, 2), F(-1, 3), F(7, 5)):
        row = _over(_b2k(ell, 11), ell.denominator)
        for k in range(12):
            expected = core.pochhammer(k + 2 * ell + 1, k) / math.factorial(k)
            assert row[k] == expected


@given(rationals, st.integers(min_value=0, max_value=30))
def test_gbinom_row_matches_gbinom(a, m):
    nums = core._falling_numerators(a.numerator, a.denominator, m)
    assert all(isinstance(u, int) for u in nums)
    assert _over(nums, a.denominator) == [core.gbinom(a, j) for j in range(m + 1)]


half_integers = st.builds(lambda p: F(2 * p + 1, 2), st.integers(min_value=-30, max_value=30))
negative_integers = st.builds(F, st.integers(min_value=-30, max_value=-1))


@given(
    st.one_of(rationals, half_integers, negative_integers), st.integers(min_value=0, max_value=30)
)
def test_binom2k_row_matches_gbinom(ell, m):
    # negative half-integers and negative integers l make entries vanish
    # and reappear along the row
    nums = _b2k(ell, m)
    assert all(isinstance(u, int) for u in nums)
    expected = [core.gbinom(2 * k + 2 * ell, k) for k in range(m + 1)]
    assert _over(nums, ell.denominator) == expected


def _rest_term(name, k, ell):
    """The factor free of n in the k-th term of either shifted sum."""
    term = F(-1, 2) ** k * core.gbinom(2 * k + 2 * ell, k)
    return term if name == "prop1" else term / core.gbinom(k + ell, k)


def _literal_term(name, n, k, ell):
    if name == "prop1":
        return _rest_term(name, k, ell) * core.gbinom(n + ell, n - k)
    return _rest_term(name, k, ell) * math.comb(n, k)


@settings(max_examples=150)
@given(
    st.sampled_from(("prop1", "prop2")),
    st.integers(min_value=0, max_value=16),
    st.builds(F, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=6)),
)
@example("prop1", 2, F(-3))  # pole at k = n+1 and n+2
@example("prop1", 2, F(-4))  # pole at k = n+2 only
@example("prop2", 2, F(-3))  # choose(k+l, k) vanishes from k = 3
@example("prop2", 2, F(-4))  # choose(k+l, k) vanishes from k = 4
def test_summand_kernels_match_gbinom_term_by_term(name, n, ell):
    # abel-first and the WZ pairs read single terms, not only their sum,
    # and the WZ boundary limits read terms k = n+1, n+2 continued past
    # the support without their 1/(n-k)!, that is through the Gamma ratio
    # Gamma(n+s+1) / Gamma(k+s+1) = 1 / (choose(k+s, k-n) (k-n)!)
    kernel, continued = {
        "prop1": (core.prop1_row, core.prop1_continued),
        "prop2": (core.prop2_row, core.prop2_continued),
    }[name]
    a, b = ell.numerator, ell.denominator
    s = ell if name == "prop1" else F(0)
    for k in (n + 1, n + 2):
        num, den = continued(n, k, a, b)
        assert isinstance(num, int) and isinstance(den, int)
        ratio = core.gbinom(k + s, k - n) * math.factorial(k - n)
        if ratio == 0 or name == "prop2" and core.gbinom(k + ell, k) == 0:
            assert den == 0, (k, num)
        else:
            assert den != 0 and F(num, den) == _rest_term(name, k, ell) / ratio, k
    if name == "prop2" and b == 1 and -n <= ell <= -1:
        message = f"choose(k+l,k) vanishes at k={-ell} for l={ell}"
        with pytest.raises(ValueError, match=re.escape(message)):
            kernel(n, a, b)
        return
    terms, den = kernel(n, a, b)
    assert all(isinstance(t, int) for t in terms)
    assert [F(t, den) for t in terms] == [_literal_term(name, n, k, ell) for k in range(n + 1)]


@given(
    st.integers(min_value=1, max_value=30),
    st.builds(F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=9)),
)
@example(4, F(-3, 2))  # the factor vanishes at k = 2
def test_prop1_terms_carry_the_last_factor_of_their_central_binomial(n, ell):
    # abel.abel1_lhs floor-divides term k of prop1_row by kb+2a+b, the last
    # factor of M_k; a reordered M_k would break it only there
    a, b = ell.numerator, ell.denominator
    terms, _ = core.prop1_row(n, a, b)
    for k in range(1, n):
        factor = k * b + 2 * a + b
        if factor:
            assert terms[k] % factor == 0, (k, terms[k], factor)


# negative integers, half-integers and generic shifts, the first few of
# them integers given as int
CACHED_SHIFTS = (-3, -1, 0, 2, F(-4), F(-5, 2), F(1, 2), F(7, 2), F(-7, 5), F(1, 3), F(11, 9))


def _check_shift_rows(ell, m):
    """Both cached rows of ell through k = m against the per-entry products
    and against gbinom: M_k of choose(2k+2l, k), Q_k of choose(-l-1, k)."""
    a, b = ell.numerator, ell.denominator
    b2k, reflected = (row[: m + 1] for row in core._grown_rows(a, b, m))
    assert b2k == [math.prod(range(2 * a + 2 * k * b, 2 * a + k * b, -b)) for k in range(m + 1)]
    assert reflected == [math.prod(range(-a - b, -a - b - k * b, -b)) for k in range(m + 1)]
    assert _over(b2k, b) == [core.gbinom(2 * k + 2 * ell, k) for k in range(m + 1)]
    assert _over(reflected, b) == [core.gbinom(-F(ell) - 1, k) for k in range(m + 1)]


def test_shift_row_cache_matches_fresh_rows_along_any_n_order():
    core._shift_rows.cache_clear()
    for ell in CACHED_SHIFTS:
        # grow, read a prefix, grow past the cached length, read back
        for m in (3, 0, 17, 5, 30, 1, 12, 30, 31):
            _check_shift_rows(ell, m)
    # the shifts interleaved, one n at a time, as a sweep visits them
    for m in (40, 2, 33):
        for ell in CACHED_SHIFTS:
            _check_shift_rows(ell, m)


def test_shift_row_cache_is_bounded():
    from knuthsums.catalog import DEFAULT_ELL_GRID

    maxsize = core._shift_rows.cache_info().maxsize
    assert maxsize is not None and maxsize >= len(DEFAULT_ELL_GRID)
    core._shift_rows.cache_clear()
    shifts = [F(j, 7) for j in range(-2 * maxsize, 2 * maxsize)]
    for ell in shifts:
        core.prop1_row(9, ell.numerator, ell.denominator)
        assert core._shift_rows.cache_info().currsize <= maxsize
    # an evicted shift is rebuilt with the same values
    assert core._shift_rows.cache_info().currsize == maxsize
    for ell in shifts[:3]:
        _check_shift_rows(ell, 12)


def test_shift_row_cache_holds_a_sweep_of_41_shifts():
    # a sweep visits every shift once per n: a cache smaller than the grid
    # would evict each shift's rows before the next n reads them
    from knuthsums.catalog import run_sweep

    grid = [F(j, 7) for j in range(41)]
    core._shift_rows.cache_clear()
    reports = list(run_sweep(["prop1-general-ell"], 6, grid))
    assert len(reports) == 41 * 7 and all(r.status == "pass" for r in reports)
    assert core._shift_rows.cache_info().misses == 41


def test_returned_rows_are_fresh_lists():
    for ell in (F(1, 3), F(-5, 2), -2):
        a, b = ell.numerator, ell.denominator
        for kernel in (core.prop1_row, core.prop2_row):
            if kernel is core.prop2_row and ell == -2:
                continue  # choose(k+l, k) vanishes
            terms, den = kernel(8, a, b)
            expected_terms = list(terms)
            terms[:] = [0] * len(terms)
            assert kernel(8, a, b) == (expected_terms, den)
        _check_shift_rows(ell, 8)


@example(0, False)
@example(0, True)
@example(120, False)
@example(120, True)
@given(st.integers(min_value=0, max_value=120), st.booleans())
def test_harmonic_row_is_the_literal_prefix_sum_over_the_lcm(m, odd):
    row, den = core.harmonic_row(m, odd=odd)
    dens = [2 * j - 1 if odd else j for j in range(1, m + 1)]
    assert len(row) == m + 1 and row[0] == 0
    assert den == math.lcm(*dens)
    total = F(0)
    for j, d in enumerate(dens, start=1):
        total += F(1, d)
        assert F(row[j], den) == total


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


def test_harmonic_rejects_negative_index():
    with pytest.raises(ValueError):
        core.harmonic(-1)
    with pytest.raises(ValueError):
        core.odd_harmonic(-1)


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


def test_format_rational_beyond_the_int_string_limit():
    # a fresh interpreter keeps Python's default limit of 4300 digits,
    # which str(int) enforces and Decimal does not
    code = (
        "from fractions import Fraction\n"
        "from knuthsums.catalog import VerificationReport\n"
        "from knuthsums.core import format_rational\n"
        "side = Fraction(-(10**5000 + 1), 7)\n"
        "assert format_rational(side) == '-1' + '0' * 4999 + '1/7'\n"
        "assert format_rational(side.numerator) == '-1' + '0' * 4999 + '1'\n"
        "assert format_rational(1 / side) == '-7/1' + '0' * 4999 + '1'\n"
        "rep = VerificationReport('knuth-old-sum', (('n', 1),), side, side, 'pass')\n"
        "assert rep.to_record()['lhs'] == format_rational(side)\n"
    )
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")


@pytest.mark.parametrize("primitive", [core.pochhammer, core.falling, core.gbinom])
def test_primitives_take_exact_values_only(primitive):
    assert primitive("1/3", 4) == primitive(F(1, 3), 4)
    assert primitive("-5", 3) == primitive(-5, 3)
    with pytest.raises(TypeError, match="Fraction or a 'p/q' string"):
        primitive(0.1, 2)


FLOAT_CALLS = {
    "as_rational": lambda: core.as_rational(0.1),
    "kummer_even": lambda: hyper.kummer_even(1, 0.1),
    "kummer_odd_zero": lambda: hyper.kummer_odd_zero(1, 0.1),
    "HyperSeries upper": lambda: hyper.HyperSeries((-2, 0.1), (1,), 2),
    "HyperSeries lower": lambda: hyper.HyperSeries((-2, 1), (0.5,), 2),
    "HyperSeries argument": lambda: hyper.HyperSeries((-2, 1), (1,), 0.5),
    "prop2_as_2f1": lambda: hyper.prop2_as_2f1(2, 0.5),
    "gauss_second_rhs a": lambda: gammaprod.gauss_second_rhs(0.1, 1),
    "gauss_second_rhs b": lambda: gammaprod.gauss_second_rhs(-2, 0.5),
    "moment": lambda: legendre.moment(0.1, 2),
    "moment_by_expansion": lambda: legendre.moment_by_expansion(0.1, 2),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_binary_floats_are_refused(name):
    # 0.1 is 3602879701896397/36028797018963968, not 1/10: evaluating there
    # silently would answer a question nobody asked
    with pytest.raises(TypeError, match="Fraction or a 'p/q' string"):
        FLOAT_CALLS[name]()


def test_exact_values_are_still_accepted():
    assert core.as_rational("1/10") == F(1, 10)
    assert core.as_rational(3) == 3 and core.as_rational(F(1, 10)) == F(1, 10)
    assert hyper.kummer_even(1, "1/10") == hyper.kummer_even(1, F(1, 10)) == F(5, 6)
    assert legendre.moment("1/2", 1) == legendre.moment(F(1, 2), 1)
