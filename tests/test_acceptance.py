"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is a hard exact equality over arbitrary-precision rationals --
there are no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from knuthsums import abel, catalog, legendre, wz
from knuthsums.catalog import DEFAULT_ELL_GRID
from knuthsums.core import gbinom, harmonic, odd_harmonic
from knuthsums.gammaprod import Finite, GammaExpr, Zero, gauss_second_rhs, reduce
from knuthsums.hyper import HyperSeries, eval_terminating, kummer_even, kummer_odd_zero

A_GRID_20 = [
    F(1), F(2), F(3), F(4), F(1, 2), F(3, 2), F(5, 2), F(1, 3), F(-1, 3), F(2, 5),
    F(7, 5), F(-5, 4), F(9, 7), F(11, 4), F(13, 5), F(-7, 5), F(17, 3), F(5, 7),
    F(-8, 3), F(23, 6),
]

HALF = F(1, 2)


@contextmanager
def criterion(num, label, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {num:2d} PASS {label} ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s"


def test_criterion_01_knuth_old_sum():
    with criterion(1, "Knuth's old sum exact for n in 0..200", budget_seconds=5):
        for n in range(201):
            assert catalog.knuth_lhs(n) == catalog.knuth_rhs(n)


def test_criterion_02_shifted_sums():
    label = "shifted sums exact for n in 0..100 over the 10-point grid, odd rows 0"
    with criterion(2, label, budget_seconds=60):
        for n in range(101):
            for ell in DEFAULT_ELL_GRID:
                if catalog.prop1_valid(n, ell):
                    lhs = catalog.prop1_lhs(n, ell)
                    assert lhs == catalog.prop1_rhs(n, ell)
                    if n % 2:
                        assert lhs == 0
                if catalog.prop2_valid(n, ell):
                    lhs = catalog.prop2_lhs(n, ell)
                    assert lhs == catalog.prop2_rhs(n, ell)
                    if n % 2:
                        assert lhs == 0


def test_criterion_03_kummer_evaluations():
    label = "2F1(2) closed forms vs brute force, n <= 60, 20 rational a"
    with criterion(3, label, budget_seconds=10):
        for n in range(61):
            for a in A_GRID_20:
                even = HyperSeries((-2 * n, a), (2 * a,), 2)
                assert eval_terminating(even) == kummer_even(n, a)
                odd = HyperSeries((-(2 * n + 1), a), (2 * a,), 2)
                assert eval_terminating(odd) == kummer_odd_zero(n, a) == 0


def test_criterion_04_gauss_second():
    label = "terminating Gauss second theorem, a = -n for n <= 40, 50 rational b"
    with criterion(4, label):
        rng = random.Random(20260809)
        b_values = []
        while len(b_values) < 50:
            b = F(rng.randint(-40, 40), rng.choice([2, 3, 4, 5, 7, 9]))
            if b.denominator > 1:
                b_values.append(b)
        for n in range(41):
            a = F(-n)
            for b in b_values:
                series = HyperSeries((a, b), ((a + b + 1) / 2,), HALF)
                value = eval_terminating(series)
                rhs = gauss_second_rhs(a, b)
                if n % 2:
                    assert rhs == Zero() and value == 0
                else:
                    assert isinstance(rhs, Finite) and rhs.s == 0
                    assert rhs.q == value


def test_criterion_05_wz_certificates():
    label = "WZ residuals and row sums, both certificates, n <= 30, 10 shifts"
    with criterion(5, label):
        pairs = wz.certificates()
        for name in ("prop1", "prop2"):
            pair = pairs[name]
            for ell in DEFAULT_ELL_GRID:
                for n in range(31):
                    for k in range(-1, 2 * n + 4):
                        assert wz.wz_residual(pair, n, k, ell) == 0
                assert wz.wz_sum_constant(pair, 30, ell) == [F(1)] * 31
        neg = pairs["negative-control"]
        bad_residual = any(
            wz.wz_residual(neg, n, k, HALF) != 0
            for n in range(5)
            for k in range(-1, 2 * n + 4)
        )
        bad_row = any(s != 1 for s in wz.wz_sum_constant(neg, 5, HALF))
        assert bad_residual and bad_row


def test_criterion_06_harmonic_mix():
    with criterion(6, "mixed-harmonic sum exact for n <= 150"):
        for n in range(151):
            assert catalog.hkmix_lhs(n) == catalog.hkmix_rhs(n)


def test_criterion_07_odd_harmonic_corollary_chain():
    label = "odd-harmonic sum for m <= 300 and its intermediate form for n <= 150"
    with criterion(7, label):
        for m in range(301):
            assert catalog.oddh_corollary_lhs(m) == catalog.oddh_corollary_rhs(m)
        for n in range(151):
            assert catalog.intermediate_lhs(n) == catalog.intermediate_rhs(n)


def test_criterion_08_generating_function_polynomial():
    label = "generating-function identity at 2n+1 points for n <= 60"
    with criterion(8, label):
        for n in range(61):
            points = [F(j, 2 * n + 1) for j in range(1, 2 * n + 2)]
            assert len(set(points)) == 2 * n + 1
            for x in points:
                assert catalog.gfpoly_lhs(n, x) == catalog.gfpoly_rhs(n, x)


def test_criterion_09_legendre_suite():
    label = "moments vs expansion (p in (-1,10], n <= 30), log moment n <= 150, odd sum n <= 200"
    with criterion(9, label):
        ps = [F(k, 2) for k in range(-1, 21)]
        for n in range(31):
            for p in ps:
                gamma_route = legendre.moment(p, n)
                expansion = legendre.moment_by_expansion(p, n)
                if isinstance(gamma_route, Zero):
                    assert expansion == 0
                else:
                    assert isinstance(gamma_route, Finite) and gamma_route.s == 0
                    assert gamma_route.q == expansion
        for n in range(151):
            assert legendre.log_moment_sqrt_lhs(n) == legendre.log_moment_sqrt_rhs(n)
        for n in range(201):
            assert legendre.odd_knuth_lhs(n) == legendre.odd_knuth_rhs(n)


def test_criterion_10_abel_suite():
    label = "summation-by-parts residual on 200 random pairs; both identities n <= 80"
    with criterion(10, label):
        rng = random.Random(97)
        for _ in range(200):
            m = rng.randint(0, 20)
            a_vals = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(m + 1)]
            b_vals = [F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(m + 2)]
            pair = abel.SequencePair(
                A=lambda i, vals=a_vals: vals[i],
                B=lambda i, vals=b_vals: vals[i],
                cutoff=m,
            )
            assert abel.transform_residual(pair) == 0
        for n in range(81):
            for ell in DEFAULT_ELL_GRID:
                if abel.abel1_valid(n, ell):
                    assert abel.abel1_lhs(n, ell) == abel.abel1_rhs(n, ell)
            assert abel.abel2_lhs(n) == abel.abel2_rhs(n)


def test_criterion_11_tauraso():
    with criterion(11, "central-binomial harmonic identity exact for n <= 100"):
        for n in range(101):
            assert catalog.tauraso_lhs(n) == catalog.tauraso_rhs(n)


def test_criterion_12_property_bundle():
    label = "module property suites (reindexing, specialization, Pascal, reflection, Legendre)"
    with criterion(12, label):
        # reindexing symmetry of the shifted sum
        for n in range(41):
            for ell in DEFAULT_ELL_GRID:
                reversed_sum = sum(
                    HALF**0 * F(-1, 2) ** (n - k) * gbinom(n + ell, k)
                    * gbinom(2 * (n - k) + 2 * ell, n - k)
                    for k in range(n + 1)
                )
                assert reversed_sum == catalog.prop1_lhs(n, ell)
        # specialization coherence at zero shift
        for n in range(101):
            assert catalog.prop1_lhs(n, F(0)) == catalog.knuth_lhs(n)
            assert catalog.prop2_lhs(n, F(0)) == catalog.knuth_lhs(n)
        # Pascal rule for the generalized binomial
        rng = random.Random(12)
        for _ in range(300):
            a = F(rng.randint(-60, 60), rng.randint(1, 12))
            m = rng.randint(1, 10)
            assert gbinom(a, m) == gbinom(a - 1, m) + gbinom(a - 1, m - 1)
        # reflection products at half-integers
        for m in range(21):
            val = reduce(GammaExpr([(m + HALF, 1), (HALF - m, 1)]))
            assert val == Finite(F((-1) ** m), 2)
        # harmonic halving
        for k in range(101):
            assert odd_harmonic(k) == harmonic(2 * k) - harmonic(k) / 2
        # Legendre endpoints and orthogonality
        for n in range(51):
            row = legendre.shifted_legendre(n)
            assert sum(row) == 1
            assert row[0] == (-1) ** n
        for n in range(31):
            for p in range(n):
                assert legendre.moment_by_expansion(p, n) == 0
