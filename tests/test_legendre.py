"""Shifted Legendre expansion, exact moments against the Gamma route, and
the odd-harmonic sum."""

import math
from fractions import Fraction as F

import pytest

from knuthsums import legendre
from knuthsums.core import odd_harmonic
from knuthsums.gammaprod import Finite, Zero


def test_expansion_small_cases():
    assert legendre.shifted_legendre(0) == (1,)
    assert legendre.shifted_legendre(1) == (-1, 2)
    assert legendre.shifted_legendre(2) == (1, -6, 6)
    with pytest.raises(ValueError):
        legendre.shifted_legendre(-1)


def _product_form(n):
    """P_n(2x-1) = sum_k C(n,k)^2 (x-1)^(n-k) x^k, expanded by polynomial
    multiplication: an oracle independent of the closed-form row."""
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        w = math.comb(n, k) ** 2
        p = n - k
        # (x-1)^p contributes C(p,i) (-1)^(p-i) x^i
        for i in range(p + 1):
            coeffs[k + i] += w * math.comb(p, i) * (-1) ** (p - i)
    return tuple(coeffs)


def test_row_equals_product_form_expansion():
    for n in range(61):
        assert legendre.shifted_legendre(n) == _product_form(n), n


def test_endpoint_values():
    for n in range(51):
        row = legendre.shifted_legendre(n)
        assert sum(row) == 1
        assert row[0] == (-1) ** n


def test_moment_examples():
    assert legendre.moment(1, 1) == Finite(F(1, 6), 0)
    assert legendre.moment(F(-1, 2), 0) == Finite(F(2), 0)
    assert legendre.moment(F(-1, 2), 1) == Finite(F(-2, 3), 0)
    assert legendre.moment_by_expansion(F(-1, 2), 1) == F(-2, 3)
    assert legendre.moment(2, 5) == Zero()
    with pytest.raises(ValueError):
        legendre.moment(F(-3, 2), 1)


def test_moment_rejects_negative_degree_like_its_oracle():
    for p in (F(1, 2), 0, 3, F(-1, 3)):
        for n in (-1, -2, -7):
            with pytest.raises(ValueError) as oracle:
                legendre.moment_by_expansion(p, n)
            with pytest.raises(ValueError) as gamma_route:
                legendre.moment(p, n)
            assert str(gamma_route.value) == str(oracle.value) == f"degree must be nonnegative, got {n}"
    # p <= -1 is reported first, by both
    with pytest.raises(ValueError, match=r"^moment requires p > -1, got -3/2$"):
        legendre.moment(F(-3, 2), -1)
    with pytest.raises(ValueError, match=r"^moment requires p > -1, got -3/2$"):
        legendre.moment_by_expansion(F(-3, 2), -1)


def test_moment_generic_rational_reduces_fully():
    # all three Gamma arguments differ by integers, so even generic rational
    # exponents cancel completely into Pochhammer ratios
    for p in (F(1, 3), F(2, 7), F(-4, 5)):
        for n in range(8):
            value = legendre.moment(p, n)
            assert isinstance(value, Finite) and value.s == 0
            assert value.q == legendre.moment_by_expansion(p, n)


def test_orthogonality_to_lower_monomials():
    for n in range(31):
        for p in range(n):
            assert legendre.moment_by_expansion(p, n) == 0
            assert legendre.moment(p, n) == Zero()


def test_moment_oracle_agreement():
    ps = [F(k, 2) for k in range(-1, 21) if F(k, 2) > -1]
    for n in range(31):
        for p in ps:
            gamma_route = legendre.moment(p, n)
            expansion = legendre.moment_by_expansion(p, n)
            if isinstance(gamma_route, Zero):
                assert expansion == 0
            else:
                assert isinstance(gamma_route, Finite)
                assert gamma_route.s == 0
                assert gamma_route.q == expansion


def _pochhammer_ratio(p, n):
    """M(p, n) = (p-n+1)_n / (p+1)_{n+1}, each rising factorial its own
    product of Fractions: an oracle for both moment routes."""
    num = den = F(1)
    for i in range(n):
        num *= p - n + 1 + i
    for i in range(n + 1):
        den *= p + 1 + i
    return num / den


def test_both_moment_routes_equal_the_pochhammer_ratio():
    # every p = a/d in (-1, 4]: integers p < n give Zero, the rest Finite
    ps = sorted({F(a, d) for d in (1, 2, 3, 4, 7) for a in range(-d + 1, 4 * d + 1)})
    for n in range(31):
        for p in ps:
            expected = _pochhammer_ratio(p, n)
            assert legendre.moment_by_expansion(p, n) == expected, (p, n)
            gamma_route = legendre.moment(p, n)
            assert gamma_route == (Zero() if expected == 0 else Finite(expected, 0)), (p, n)


def test_moment_by_expansion_equals_per_term_fraction_sum():
    ps = sorted({F(k, d) for d in (2, 3) for k in range(-2, 13) if F(k, d) > -1})
    for n in range(41):
        coeffs = legendre.shifted_legendre(n)
        for p in ps:
            literal = sum(F(c) / (p + j + 1) for j, c in enumerate(coeffs))
            assert legendre.moment_by_expansion(p, n) == literal, (p, n)


def test_log_moment_lhs_equals_per_term_fraction_sum():
    for n in range(41):
        coeffs = legendre.shifted_legendre(n)
        literal = sum(F(-4 * c, (2 * j + 1) ** 2) for j, c in enumerate(coeffs))
        assert legendre.log_moment_sqrt_lhs(n) == literal


def test_odd_knuth_lhs_equals_per_term_fraction_sum():
    for n in range(41):
        literal = sum(
            F((-1) ** k * math.comb(n, k) * math.comb(2 * k, k), 4**k) * odd_harmonic(k)
            for k in range(n + 1)
        )
        assert legendre.odd_knuth_lhs(n) == literal


def test_log_moment_values():
    assert legendre.log_moment_sqrt_lhs(0) == legendre.log_moment_sqrt_rhs(0) == -4
    assert legendre.log_moment_sqrt_lhs(1) == legendre.log_moment_sqrt_rhs(1) == F(28, 9)
    assert legendre.log_moment_sqrt_lhs(2) == legendre.log_moment_sqrt_rhs(2)


def test_log_moment_sweep():
    for n in range(40):
        assert legendre.log_moment_sqrt_lhs(n) == legendre.log_moment_sqrt_rhs(n)


def test_odd_knuth_values():
    assert legendre.odd_knuth_lhs(0) == legendre.odd_knuth_rhs(0) == 0
    assert legendre.odd_knuth_lhs(1) == legendre.odd_knuth_rhs(1) == F(-1, 2)
    assert legendre.odd_knuth_lhs(3) == legendre.odd_knuth_rhs(3)
