"""Shifted Legendre expansion, exact moments against the Gamma route, and
the odd-harmonic sum."""

import math
from fractions import Fraction as F

import pytest

from knuthsums import legendre
from knuthsums.core import odd_harmonic
from knuthsums.gammaprod import Finite, Zero


def test_expansion_small_cases():
    assert legendre.shifted_legendre(0).coeffs == (1,)
    assert legendre.shifted_legendre(1).coeffs == (-1, 2)
    assert legendre.shifted_legendre(2).coeffs == (1, -6, 6)
    with pytest.raises(ValueError):
        legendre.shifted_legendre(-1)


def test_coefficient_closed_form():
    for n in range(51):
        poly = legendre.shifted_legendre(n)
        for j, c in enumerate(poly.coeffs):
            assert c == (-1) ** (n - j) * math.comb(n, j) * math.comb(n + j, j)


def test_cached_expansion_equals_fresh_expansion():
    expand = legendre.shifted_legendre.__wrapped__
    for n in range(41):
        assert legendre.shifted_legendre(n) == expand(n)
        assert legendre.shifted_legendre(n) is legendre.shifted_legendre(n)
    assert legendre.shifted_legendre.cache_info().maxsize is not None


def test_expansion_is_an_immutable_value_type():
    poly = legendre.shifted_legendre(2)
    # the repr a frozen dataclass printed for the same value
    assert repr(poly) == "ShiftedLegendre(n=2, coeffs=(1, -6, 6))"
    twin = legendre.ShiftedLegendre(2, (1, -6, 6))
    assert poly == twin and hash(poly) == hash(twin)
    assert poly != legendre.shifted_legendre(3) and poly != legendre.ShiftedLegendre(2, (1, -6, 7))
    for field in ("n", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(poly, field, 0)
    assert poly.n == 2 and poly.coeffs == (1, -6, 6)


def test_endpoint_values():
    for n in range(51):
        poly = legendre.shifted_legendre(n)
        assert poly.value_at_one() == 1
        assert poly.value_at_zero() == (-1) ** n


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


def test_moment_by_expansion_equals_per_term_fraction_sum():
    ps = sorted({F(k, d) for d in (2, 3) for k in range(-2, 13) if F(k, d) > -1})
    for n in range(41):
        coeffs = legendre.shifted_legendre(n).coeffs
        for p in ps:
            literal = sum(F(c) / (p + j + 1) for j, c in enumerate(coeffs))
            assert legendre.moment_by_expansion(p, n) == literal, (p, n)


def test_log_moment_lhs_equals_per_term_fraction_sum():
    for n in range(41):
        coeffs = legendre.shifted_legendre(n).coeffs
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
