"""Identity registry: frozen example values, validity routing, and the
cross-identity structural properties (reindexing, specialization, parity)."""

import concurrent.futures
import dataclasses
import inspect
import json
import math
import multiprocessing
import os
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knuthsums import abel, catalog, cli, legendre, wz
from knuthsums.catalog import (
    DEFAULT_ELL_GRID,
    REGISTRY,
    Identity,
    iter_cases,
    run_sweep,
    verify,
)
from knuthsums.core import gbinom, harmonic, odd_harmonic
from knuthsums.wz import CertificateDenominatorZero

EXPECTED_KEYS = {
    "knuth-old-sum",
    "prop1-general-ell",
    "prop2-general-ell",
    "example-3hk-2h2k",
    "corollary-odd-harmonic",
    "corollary-intermediate",
    "gf-polynomial",
    "tauraso-h2n",
    "odd-knuth-sum",
    "legendre-log-moment",
    "abel-first",
    "abel-second",
}


def test_registry_keys():
    assert set(REGISTRY) == EXPECTED_KEYS


def test_knuth_old_sum_values():
    assert F(*catalog.knuth_lhs(0)) == F(*catalog.knuth_rhs(0)) == 1
    assert F(*catalog.knuth_lhs(1)) == F(*catalog.knuth_rhs(1)) == 0
    assert F(*catalog.knuth_lhs(2)) == F(*catalog.knuth_rhs(2)) == F(1, 2)
    assert F(*catalog.knuth_lhs(4)) == F(*catalog.knuth_rhs(4)) == F(3, 8)


def test_prop1_values():
    assert F(*catalog.prop1_lhs(2, F(0))) == F(*catalog.prop1_rhs(2, F(0))) == F(1, 2)
    assert F(*catalog.prop1_lhs(2, F(1, 2))) == F(*catalog.prop1_rhs(2, F(1, 2))) == F(5, 8)
    for ell in DEFAULT_ELL_GRID:
        assert F(*catalog.prop1_lhs(3, ell)) == 0
        assert F(*catalog.prop1_rhs(3, ell)) == 0


def test_prop1_handles_negative_half_integer_shifts():
    # not on the default grid, but valid: at a negative half-integer shift
    # entries of choose(2k+2l, k) vanish partway along the row
    for ell in (F(-1, 2), F(-3, 2), F(-5, 2)):
        for n in range(12):
            direct = sum(
                F(-1, 2) ** k * gbinom(n + ell, n - k) * gbinom(2 * k + 2 * ell, k)
                for k in range(n + 1)
            )
            assert F(*catalog.prop1_lhs(n, ell)) == direct
            assert direct == F(*catalog.prop1_rhs(n, ell))


def _literal_prop1(n, ell):
    return sum(
        (F(-1, 2) ** k * gbinom(n + ell, n - k) * gbinom(2 * k + 2 * ell, k) for k in range(n + 1)),
        F(0),
    )


def _literal_prop2(n, ell):
    return sum(
        (
            F(-1, 2) ** k * math.comb(n, k) * gbinom(2 * k + 2 * ell, k) / gbinom(k + ell, k)
            for k in range(n + 1)
        ),
        F(0),
    )


def _literal_abel1(n, ell):
    return sum(
        (
            F(-1, 2) ** k * gbinom(n + ell, n - k) * gbinom(2 * k + 2 * ell, k)
            * F(k * (n - k)) / (k + 2 * ell + 1)
            for k in range(n + 1)
        ),
        F(0),
    )


LITERAL_SUMS = {
    "prop1-general-ell": _literal_prop1,
    "prop2-general-ell": _literal_prop2,
    "abel-first": _literal_abel1,
}


@settings(max_examples=150)
@given(
    st.sampled_from(sorted(LITERAL_SUMS)),
    st.integers(min_value=0, max_value=16),
    st.builds(F, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=6)),
)
def test_shifted_lhs_equals_literal_gbinom_sum(name, n, ell):
    # the row-kernel LHS against one gbinom call per binomial entry
    ident = REGISTRY[name]
    assume(ident.validity(n=n, ell=ell))
    assert F(*ident.lhs(n=n, ell=ell)) == LITERAL_SUMS[name](n, ell)


def test_abel1_lhs_equals_literal_sum_at_integer_and_half_integer_shifts():
    # the exact division by the last factor of M_k, at every shift where
    # that factor k+2l+1 comes near zero and the validity predicate decides
    ident = REGISTRY["abel-first"]
    for n in range(13):
        for twice in range(-2 * n - 4, 5):
            ell = F(twice, 2)
            if ident.validity(n=n, ell=ell):
                assert F(*ident.lhs(n=n, ell=ell)) == _literal_abel1(n, ell), (n, ell)


def test_prop2_values():
    assert F(*catalog.prop2_lhs(2, F(1))) == F(*catalog.prop2_rhs(2, F(1))) == F(1, 4)
    assert F(*catalog.prop2_lhs(2, F(0))) == F(*catalog.prop2_rhs(2, F(0))) == F(1, 2)
    assert F(*catalog.prop2_lhs(1, F(1, 3))) == F(*catalog.prop2_rhs(1, F(1, 3))) == 0


def test_hkmix_values():
    assert F(*catalog.hkmix_lhs(0)) == F(*catalog.hkmix_rhs(0)) == 0
    assert F(*catalog.hkmix_lhs(1)) == F(*catalog.hkmix_rhs(1)) == F(1, 2)
    assert F(*catalog.hkmix_lhs(2)) == F(*catalog.hkmix_rhs(2))


def test_corollary_values():
    assert F(*catalog.oddh_corollary_lhs(1)) == F(*catalog.oddh_corollary_rhs(1)) == -1
    assert F(*catalog.oddh_corollary_lhs(3)) == F(*catalog.oddh_corollary_rhs(3)) == F(-2, 3)
    assert F(*catalog.oddh_corollary_lhs(2)) == F(*catalog.oddh_corollary_rhs(2)) == 0
    assert F(*catalog.oddh_corollary_lhs(5)) == F(*catalog.oddh_corollary_rhs(5))


def test_intermediate_values():
    assert F(*catalog.intermediate_lhs(0)) == F(*catalog.intermediate_rhs(0)) == 0
    assert F(*catalog.intermediate_lhs(1)) == F(*catalog.intermediate_rhs(1)) == 3
    assert F(*catalog.intermediate_lhs(2)) == F(*catalog.intermediate_rhs(2))


def test_final_form_equivalence_chain():
    # the odd-harmonic closed form at m = 2n+1 is the intermediate identity
    # plus the k = 2n+1 term of the same sum
    for n in range(40):
        m = 2 * n + 1
        tail = F((-2) ** m, m + 1) * harmonic(m)
        assert F(*catalog.oddh_corollary_lhs(m)) == F(*catalog.intermediate_lhs(n)) + tail
        assert F(*catalog.oddh_corollary_rhs(m)) == -odd_harmonic(n + 1) / (n + 1)
        assert F(*catalog.intermediate_lhs(n)) == F(*catalog.intermediate_rhs(n))
        assert F(*catalog.oddh_corollary_lhs(m)) == F(*catalog.oddh_corollary_rhs(m))


def test_gf_polynomial_values():
    assert F(*catalog.gfpoly_lhs(1, F(1))) == F(*catalog.gfpoly_rhs(1, F(1))) == F(1, 3)
    for n in (0, 2, 5):
        assert F(*catalog.gfpoly_lhs(n, F(0))) == F(*catalog.gfpoly_rhs(n, F(0))) == 1
    assert F(*catalog.gfpoly_lhs(2, F(1, 3))) == F(*catalog.gfpoly_rhs(2, F(1, 3)))
    # a point given as text is read exactly, also through verify
    assert verify(REGISTRY["gf-polynomial"], {"n": 2, "x": "1/3"}).status == "pass"


@settings(max_examples=150)
@given(
    st.integers(min_value=0, max_value=30),
    st.builds(F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=15)),
)
def test_gf_polynomial_lhs_equals_per_term_fraction_sum(n, x):
    # the one-integer-numerator LHS against one Fraction per term, at any
    # rational x: negative, zero and non-unit denominators included
    literal = sum(
        (F(math.comb(2 * n, k), k + 1) * (-2 * x) ** k for k in range(2 * n + 1)), F(0)
    )
    assert F(*catalog.gfpoly_lhs(n, x)) == literal


def test_gf_row_cache_equals_fresh_rows_and_is_bounded():
    assert catalog._gf_row.cache_parameters()["maxsize"] is not None
    for n in range(41):
        fresh = catalog._gf_row.__wrapped__(n, 2 * n + 1)
        assert catalog._gf_row(n, 2 * n + 1) == fresh
        assert catalog._gf_row(n, 2 * n + 1) == fresh  # read back from the cache


def test_gf_points_of_one_n_share_one_row():
    # j/(2n+1) reduces to any divisor of 2n+1 as its denominator, yet every
    # point of one n reads the row over 2n+1
    for n in range(41):
        catalog._gf_row.cache_clear()
        for j in range(1, 2 * n + 2):
            catalog.gfpoly_lhs(n, F(j, 2 * n + 1))
        assert catalog._gf_row.cache_info().misses == 1


# the shifted sides, and gf-polynomial's sides, whose point x is taken the same way
SHIFTED_EVALUATORS = [
    catalog.prop1_valid, catalog.prop1_lhs, catalog.prop1_rhs, catalog.prop2_lhs, catalog.prop2_rhs,
    abel.abel1_valid, abel.abel1_lhs, abel.abel1_rhs, catalog.gfpoly_lhs, catalog.gfpoly_rhs,
]


def _outcome(fn, n, ell):
    """fn(n, ell), or the type of the exception it raises."""
    try:
        return fn(n, ell)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("fn", SHIFTED_EVALUATORS, ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
def test_shifted_evaluators_take_a_shift_as_text_fraction_or_int(fn):
    # the same shift gives the same result whichever exact type carries it
    for n in range(9):
        for a, b in ((1, 2), (-1, 3), (7, 5), (-5, 2), (2, 1), (-2, 1), (-11, 1), (0, 1)):
            expected = _outcome(fn, n, F(a, b))
            assert _outcome(fn, n, f"{a}/{b}") == expected, (n, a, b)
            if b == 1:
                assert _outcome(fn, n, a) == expected, (n, a)
        with pytest.raises(TypeError):
            fn(n, 0.5)


def _gfpoly_rhs_by_fractions(n, x):
    """The closed form in Fraction arithmetic, the oracle for the integer pair."""
    if x == 0:
        return F(1)
    return (1 - (1 - 2 * x) ** (2 * n + 1)) / (2 * (2 * n + 1) * x)


@settings(max_examples=300)
@example(0, F(1, 2))
@example(7, F(1, 2))  # 1 - 2x = 0
@example(5, F(0))
@example(30, F(-7, 15))
@example(3, F(-1))
@given(
    st.integers(min_value=0, max_value=30),
    st.builds(F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=15)),
)
def test_gf_polynomial_rhs_equals_fraction_closed_form(n, x):
    assert F(*catalog.gfpoly_rhs(n, x)) == _gfpoly_rhs_by_fractions(n, x)


def test_harmonic_sum_lhs_equal_per_term_fraction_sums():
    # each harmonic LHS against its literal summand, one Fraction per term,
    # and each RHS against its closed form, with H_k and O_k summed here
    # from Fraction(1, j) so that no side shares the row kernel's scale
    H, O = [F(0)], [F(0)]
    for j in range(1, 161):
        H.append(H[-1] + F(1, j))
        O.append(O[-1] + F(1, 2 * j - 1))
    for n in range(41):
        assert F(*catalog.hkmix_lhs(n)) == sum(
            F((-1) ** k * math.comb(2 * k, k) * math.comb(2 * n, k), 2**k) * (3 * H[k] - 2 * H[2 * k])
            for k in range(2 * n + 1)
        )
        assert F(*catalog.hkmix_rhs(n)) == F(math.comb(2 * n, n), 4**n) * H[n]
        assert F(*catalog.oddh_corollary_lhs(n)) == sum(
            F((-2) ** k * math.comb(n, k), k + 1) * H[k] for k in range(n + 1)
        )
        assert F(*catalog.oddh_corollary_rhs(n)) == (F(-2, n + 1) * O[(n + 1) // 2] if n % 2 else 0)
        assert F(*catalog.intermediate_lhs(n)) == sum(
            F((-2) ** k * math.comb(2 * n + 1, k), k + 1) * H[k]
            for k in range(2 * n + 1)
        )
        p = 4**n - 1
        assert F(*catalog.intermediate_rhs(n)) == (
            p * H[2 * n] / (n + 1) + H[n] / (2 * (n + 1)) + F(p, (n + 1) * (2 * n + 1))
        )
        assert F(*catalog.tauraso_lhs(n)) == sum(
            (-1) ** k
            * math.comb(2 * n, k)
            * math.comb(2 * n + k, k)
            * math.comb(2 * k, k)
            * 4 ** (2 * n - k)
            * H[k]
            for k in range(2 * n + 1)
        )
        assert F(*catalog.tauraso_rhs(n)) == math.comb(2 * n, n) ** 2 * H[2 * n]
        assert F(*legendre.odd_knuth_lhs(n)) == sum(
            F((-1) ** k * math.comb(n, k) * math.comb(2 * k, k), 4**k) * O[k] for k in range(n + 1)
        )
        assert F(*legendre.odd_knuth_rhs(n)) == -F(math.comb(2 * n, n), 4**n) * O[n]
        sign = (-1) ** n
        assert F(*legendre.log_moment_sqrt_rhs(n)) == (
            4 * sign * H[n] / (2 * n + 1) - 8 * sign * H[2 * n] / (2 * n + 1) - F(4 * sign, (2 * n + 1) ** 2)
        )


def test_prop2_lhs_raises_where_the_reflected_binomial_vanishes():
    # validity excludes this case, so no verify() run reaches the raise
    assert not REGISTRY["prop2-general-ell"].validity(n=3, ell=F(-2))
    with pytest.raises(ValueError, match=r"^choose\(k\+l,k\) vanishes at k=2 for l=-2$"):
        catalog.prop2_lhs(3, F(-2))


def test_prop2_skips_are_sound():
    # every admitted shift evaluates both sides (and they agree); every
    # rejected one is a negative integer -n <= l <= -1, where the literal
    # sum itself divides by a vanishing choose(k+l, k)
    ident = REGISTRY["prop2-general-ell"]
    shifts = (
        [F(-j) for j in range(1, 41)]
        + [F(-(2 * j + 1), 2) for j in range(40)]
        + [F(1, 3), F(-1, 3), F(-7, 3), F(2, 5), F(-13, 5), F(22, 7), F(-31, 4)]
    )
    rejected = 0
    for n in range(31):
        for ell in shifts:
            if ident.validity(n=n, ell=ell):
                assert F(*ident.lhs(n=n, ell=ell)) == F(*ident.rhs(n=n, ell=ell)), (n, ell)
            else:
                assert ell.denominator == 1 and -n <= ell <= -1, (n, ell)
                with pytest.raises(ValueError):
                    ident.lhs(n=n, ell=ell)
                rejected += 1
    assert rejected == sum(range(31))


def test_tauraso_values():
    assert F(*catalog.tauraso_lhs(0)) == F(*catalog.tauraso_rhs(0)) == 0
    assert F(*catalog.tauraso_lhs(1)) == F(*catalog.tauraso_rhs(1)) == 6
    assert F(*catalog.tauraso_lhs(2)) == F(*catalog.tauraso_rhs(2))


def test_reindexing_symmetry():
    # replacing k by n-k in the summand leaves the shifted sum unchanged
    for n in range(41):
        for ell in (F(0), F(1, 2), F(1, 3), F(-1, 4), F(2)):
            reversed_sum = sum(
                F(-1, 2) ** (n - k) * gbinom(n + ell, k) * gbinom(2 * (n - k) + 2 * ell, n - k)
                for k in range(n + 1)
            )
            assert reversed_sum == F(*catalog.prop1_lhs(n, ell))


def test_specialization_at_zero_shift():
    for n in range(101):
        zero = F(0)
        assert F(*catalog.prop1_lhs(n, zero)) == F(*catalog.knuth_lhs(n))
        assert F(*catalog.prop2_lhs(n, zero)) == F(*catalog.knuth_lhs(n))
        assert F(*catalog.prop1_rhs(n, zero)) == F(*catalog.knuth_rhs(n))
        assert F(*catalog.prop2_rhs(n, zero)) == F(*catalog.knuth_rhs(n))


def test_parity_vanishing():
    for n in range(1, 100, 2):
        for ell in (F(1, 4), F(7, 5), F(-1, 3)):
            assert F(*catalog.prop1_lhs(n, ell)) == 0
            assert F(*catalog.prop2_lhs(n, ell)) == 0


def test_verify_pass_and_skip():
    rep = verify(REGISTRY["knuth-old-sum"], {"n": 4})
    assert rep.status == "pass" and rep.lhs == rep.rhs == F(3, 8)
    rep = verify(REGISTRY["prop1-general-ell"], {"n": 2, "ell": F(-1)})
    assert rep.status == "skip" and rep.lhs is None
    rep = verify(REGISTRY["corollary-odd-harmonic"], {"m": 5})
    assert rep.status == "pass"


def test_verify_captures_evaluator_errors_as_failures():
    def boom(n):
        raise ArithmeticError("synthetic failure")

    broken = Identity("broken", "always raises", ("n",), boom, catalog.knuth_rhs)
    rep = verify(broken, {"n": 1})
    assert rep.status == "fail"
    assert "synthetic failure" in rep.reason


def test_verify_skips_vanishing_certificate_denominators():
    def pole(n):
        raise CertificateDenominatorZero("certificate denominator vanishes at n=1")

    cert = Identity("cert", "pole at n=1", ("n",), pole, catalog.knuth_rhs)
    rep = verify(cert, {"n": 1})
    assert rep.status == "skip" and rep.lhs is None
    assert rep.reason == "certificate denominator zero: certificate denominator vanishes at n=1"


def _plus(pair, by):
    """The integer pair of num/den + by."""
    num, den = pair
    return num + by * den, den


def test_verify_flags_inequality():
    skewed = Identity(
        "skewed", "off by one", ("n",),
        catalog.knuth_lhs, lambda n: _plus(catalog.knuth_rhs(n), 1),
    )
    rep = verify(skewed, {"n": 2})
    assert rep.status == "fail" and rep.reason == "lhs != rhs"


# unreduced sides: either sign of denominator, zero numerators, zero
# denominators, and (0, 0), whose cross products match anything
PAIR_INTS = st.integers(min_value=-30, max_value=30)


@st.composite
def _sides(draw):
    lhs = (draw(PAIR_INTS), draw(PAIR_INTS))
    scale = draw(st.integers(min_value=-4, max_value=4))
    rhs = draw(st.one_of(st.tuples(PAIR_INTS, PAIR_INTS), st.just((lhs[0] * scale, lhs[1] * scale))))
    return lhs, rhs


@settings(max_examples=400)
@given(_sides())
@example(((0, 0), (0, 0)))
@example(((0, 5), (0, 0)))
@example(((0, 0), (0, -5)))
@example(((3, 0), (6, 0)))
@example(((0, -3), (0, 7)))
@example(((6, -4), (-3, 2)))
@example(((6, -4), (3, 2)))
def test_verify_on_integer_pairs_matches_a_fraction_oracle(sides):
    lhs, rhs = sides
    rep = verify(Identity("pairs", "synthetic", ("n",), lambda n: lhs, lambda n: rhs), {"n": 0})
    if lhs[1] == 0 or rhs[1] == 0:
        # a zero denominator never passes, whatever the cross products say
        assert rep.status == "fail" and rep.reason.startswith("evaluator error: ")
        assert rep.lhs is None and rep.rhs is None
        return
    want_lhs, want_rhs = F(*lhs), F(*rhs)
    status = "pass" if want_lhs == want_rhs else "fail"
    assert (rep.status, rep.lhs, rep.rhs) == (status, want_lhs, want_rhs)
    assert type(rep.lhs) is type(rep.rhs) is F
    assert rep.reason == ("" if status == "pass" else "lhs != rhs")
    if status == "pass":
        assert rep.rhs is rep.lhs  # reduced once, and formatted once


def test_evaluator_parameters_are_named_as_param_names_in_order():
    # verify passes a case's values positionally, in param_names order, so a
    # side whose parameters came in another order would swap n and ell
    default = {f.name: f.default for f in dataclasses.fields(Identity)}["validity"]
    checks = [check for pair in wz.certificates().values() for check in cli._wz_checks(pair)]
    for ident in [*REGISTRY.values(), *checks]:
        sides = [ident.lhs, ident.rhs] + ([] if ident.validity is default else [ident.validity])
        for fn in sides:
            assert tuple(inspect.signature(fn).parameters) == ident.param_names, (ident.name, fn)


def test_iter_cases_shapes():
    ident = REGISTRY["knuth-old-sum"]
    assert [c["n"] for c in iter_cases(ident, 5)] == list(range(6))
    ident = REGISTRY["prop1-general-ell"]
    cases = list(iter_cases(ident, 3))
    assert len(cases) == 4 * len(DEFAULT_ELL_GRID)
    ident = REGISTRY["gf-polynomial"]
    cases = list(iter_cases(ident, 4))
    assert len(cases) == sum(2 * n + 1 for n in range(5))
    xs = [c["x"] for c in cases if c["n"] == 4]
    assert len(set(xs)) == 9  # distinct points pin down the degree-8 polynomial
    for params in (("n", "y"), ("n", "ell", "x")):
        odd = Identity("odd", "unknown space", params, catalog.knuth_lhs, catalog.knuth_rhs)
        with pytest.raises(ValueError):
            next(iter_cases(odd, 2))


def test_run_sweep_sorting_and_parallel_agreement():
    def strip(reports):  # drop timing, which legitimately varies
        return [(r.identity, r.params, r.lhs, r.rhs, r.status, r.reason) for r in reports]

    serial = list(run_sweep(["knuth-old-sum", "abel-second"], 12))
    parallel = list(run_sweep(["knuth-old-sum", "abel-second"], 12, jobs=2))
    assert strip(serial) == strip(parallel)
    names = [r.identity for r in serial]
    assert names == sorted(names)
    assert all(r.status == "pass" for r in serial)


def _knuth_rhs_wrong_at_5(n):
    return _plus(catalog.knuth_rhs(n), n == 5)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched registry",
)
def test_run_sweep_fail_fast_prefix_independent_of_jobs(monkeypatch):
    def strip(reports):
        return [(r.identity, r.params, r.lhs, r.rhs, r.status, r.reason) for r in reports]

    broken = dataclasses.replace(REGISTRY["knuth-old-sum"], rhs=_knuth_rhs_wrong_at_5)
    monkeypatch.setitem(REGISTRY, "knuth-old-sum", broken)
    names = ["abel-second", "knuth-old-sum"]
    serial = list(run_sweep(names, 30, jobs=1, fail_fast=True))
    # every abel-second case, then knuth-old-sum up to its failure at n = 5
    assert len(serial) == 31 + 6
    assert [r.status for r in serial].count("fail") == 1
    for _ in range(3):
        assert strip(run_sweep(names, 30, jobs=2, fail_fast=True)) == strip(serial)


class RecordingExecutor:
    """A stand-in ProcessPoolExecutor that records the size it is asked
    for and runs the cases in this process, so no worker is started."""

    sizes: list[int] = []
    shutdowns: list[bool] = []  # the cancel_futures of each shutdown call

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


def test_run_sweep_asks_for_no_more_workers_than_cases(monkeypatch):
    sizes = []
    monkeypatch.setattr(RecordingExecutor, "sizes", sizes)

    def lhs_values(n_max, jobs):
        return [r.lhs for r in run_sweep(["knuth-old-sum"], n_max, jobs=jobs)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    # enough CPUs that the number of cases is what bounds the pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert lhs_values(3, jobs=64) == lhs_values(3, jobs=1)
    assert sizes == [4]  # four cases, n = 0..3
    assert lhs_values(0, jobs=64) == [1]
    assert sizes == [4]  # one case runs serially: no executor at all


@pytest.mark.parametrize("cpus, expected", [(3, [3]), (1, [])])
def test_run_sweep_asks_for_no_more_workers_than_cpus(monkeypatch, cpus, expected):
    # --jobs 5000 must not ask for 5000 workers: the pool is capped at the
    # CPUs this process may run on, and one CPU runs the sweep serially
    def strip(reports):
        return [(r.identity, r.params, r.lhs, r.rhs, r.status, r.reason) for r in reports]

    names = ["knuth-old-sum", "prop1-general-ell"]
    serial = list(run_sweep(names, 12, jobs=1))
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert strip(run_sweep(names, 12, jobs=5000)) == strip(serial)
    assert RecordingExecutor.sizes == expected


def test_run_sweep_rejects_unknown_names():
    # at the call, not when the first report is read
    with pytest.raises(KeyError):
        run_sweep(["no-such-identity"], 3)


def _recording(monkeypatch, name, calls):
    ident = REGISTRY[name]

    def lhs(*values):
        calls.append(dict(zip(ident.param_names, values)))
        return ident.lhs(*values)

    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(ident, lhs=lhs))


def test_run_sweep_evaluates_cases_as_it_is_read(monkeypatch):
    first, later = [], []
    _recording(monkeypatch, "abel-second", first)
    _recording(monkeypatch, "knuth-old-sum", later)
    reports = run_sweep(["knuth-old-sum", "abel-second"], 30)
    assert first == later == []
    for n in range(31):
        assert next(reports).params == (("n", n),)
        # the case just read and the cases before it, none ahead of them
        assert first == [{"n": m} for m in range(n + 1)]
    assert later == []
    assert [r.identity for r in reports] == ["knuth-old-sum"] * 31


def test_run_sweep_yields_whole_sorted_blocks(monkeypatch):
    grid = (F(7, 5), F(-1, 3), F(2), F(1, 2))
    calls = []
    _recording(monkeypatch, "prop1-general-ell", calls)
    reports = run_sweep(["prop1-general-ell"], 3, grid)
    block = [next(reports) for _ in grid]
    assert [r.params for r in block] == [(("n", 0), ("ell", ell)) for ell in sorted(grid)]
    # exactly the cases read: every shift of n = 0, in ascending order
    assert calls == [{"n": 0, "ell": ell} for ell in sorted(grid)]


def test_run_sweep_takes_a_shift_as_text_fraction_or_int(monkeypatch):
    def strip(reports):
        return [(r.identity, r.params, r.lhs, r.rhs, r.status, r.reason) for r in reports]

    names = ["prop1-general-ell", "prop2-general-ell", "abel-first"]
    fractions = strip(run_sweep(names, 4, (F(1, 3), F(1, 2))))
    assert strip(run_sweep(names, 4, ("1/2", "1/3"))) == fractions
    assert strip(run_sweep(names, 4, ("1/3", F(1, 2)))) == fractions
    fractions = strip(run_sweep(names, 4, (F(-2), F(1), F(0))))
    assert strip(run_sweep(names, 4, (1, -2, 0))) == fractions
    assert strip(run_sweep(names, 4, ("1", "-2", "0"))) == fractions
    # a float is refused at the call, before any case is evaluated
    calls = []
    _recording(monkeypatch, "prop1-general-ell", calls)
    for grid in ((0.5, F(1, 3)), (F(1, 3), 0.5)):
        with pytest.raises(TypeError):
            run_sweep(["prop1-general-ell"], 4, grid)
    assert calls == []


def test_run_sweep_rejects_a_repeated_name_or_shift(monkeypatch):
    # each would check every one of its cases twice; the CLI exits 2 for both
    calls = []
    _recording(monkeypatch, "prop1-general-ell", calls)
    for grid, shift in ((("1/2", F(1, 2)), "1/2"), ((F(1, 3), 0, "0"), "0")):
        with pytest.raises(ValueError, match=f"shift {shift} is given twice"):
            run_sweep(["prop1-general-ell"], 1, grid)
    with pytest.raises(ValueError, match="identity knuth-old-sum is given twice"):
        run_sweep(["knuth-old-sum", "knuth-old-sum"], 1)
    assert calls == []


def test_run_sweep_rejects_a_bad_n_max_or_jobs(monkeypatch):
    # at the call, as names and shifts are: a negative n_max would sweep
    # nothing, a jobs below 1 would run serially, and a float n_max would
    # raise only when the first case is read; the CLI exits 2 before this
    calls = []
    _recording(monkeypatch, "knuth-old-sum", calls)
    for n_max, jobs in ((-3, 1), (2, 0), (2, -5)):
        with pytest.raises(ValueError, match="n_max must be nonnegative and jobs positive"):
            run_sweep(["knuth-old-sum"], n_max, jobs=jobs)
    for n_max, jobs in ((2.5, 1), ("3", 1), (2, 2.0), (2, None)):
        with pytest.raises(TypeError, match="n_max and jobs must be ints"):
            run_sweep(["knuth-old-sum"], n_max, jobs=jobs)
    assert calls == []


def test_an_int_shift_is_reported_as_a_fraction(capsys):
    rep = next(run_sweep(["prop1-general-ell"], 0, (2,)))
    assert rep.params == (("n", 0), ("ell", F(2))) and isinstance(rep.params[1][1], F)
    assert rep.to_record()["params"] == {"n": 0, "ell": "2"}
    line = next(cli._json_lines(cli._rows([rep])))
    assert json.loads(line)["params"] == {"n": 0, "ell": "2"}
    argv = ["verify", "--identity", "prop1-general-ell", "--n-max", "0", "--ell", "2", "--format", "json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"n": 0, "ell": "2"}


@pytest.mark.parametrize("fail_fast", [False, True])
def test_closing_a_pool_sweep_early_cancels_its_queued_cases(monkeypatch, fail_fast):
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(RecordingExecutor, "shutdowns", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    if fail_fast:
        broken = dataclasses.replace(REGISTRY["knuth-old-sum"], rhs=_knuth_rhs_wrong_at_5)
        monkeypatch.setitem(REGISTRY, "knuth-old-sum", broken)
    reports = run_sweep(["knuth-old-sum"], 12, jobs=2, fail_fast=fail_fast)
    assert RecordingExecutor.sizes == []  # no pool before the first read
    if fail_fast:
        # the failure at n = 5 ends the sweep before the cases n = 6..12
        assert [r.params[0][1] for r in reports] == [0, 1, 2, 3, 4, 5]
    else:
        next(reports)
        assert RecordingExecutor.shutdowns == []
        reports.close()
    assert RecordingExecutor.sizes == [2]
    assert RecordingExecutor.shutdowns == [True]


def test_report_record_serialization():
    rep = verify(REGISTRY["prop1-general-ell"], {"n": 2, "ell": F(1, 2)})
    rec = rep.to_record()
    assert rec["identity"] == "prop1-general-ell"
    assert rec["params"] == {"n": 2, "ell": "1/2"}
    assert rec["lhs"] == rec["rhs"] == "5/8"
    assert rec["status"] == "pass"


def test_summaries_mention_every_formula_piece():
    for ident in REGISTRY.values():
        assert ident.summary.strip()
        assert "=" in ident.summary
