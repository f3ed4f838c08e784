"""WZ certificate checks: pair equation on the widened grid, telescoped row
sums, boundary conventions, and the negative controls."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knuthsums import cli, core, wz
from knuthsums.catalog import DEFAULT_ELL_GRID
from knuthsums.core import gbinom

PAIRS = wz.certificates()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BOUNDARY_SHIFTS = (F(0), F(1, 2), F(-1, 3), F(7, 5), F(-5, 2))


def naive_companion(summand, certificate):
    """The oracle G = R * F for F = summand and R = certificate, taken
    literally: zero wherever F is zero, and CertificateDenominatorZero when
    F is nonzero where R blows up.  Every registered pair's companion is
    this rule away from the two boundary points where R's pole cancels
    against F's zero."""

    def g(n, k, ell):
        fv = summand(n, k, ell)
        if fv == 0:
            return F(0)
        return certificate(n, k, ell) * fv

    return g


def test_registered_names():
    assert set(PAIRS) == {"prop1", "prop2", "negative-control"}


def test_companion_is_certificate_times_summand():
    # on the support G is R * F by construction; at k = 2n+1, 2n+2 it is the
    # limit of R * F, where (k-2n-1)(k-2n-2) Gamma(2n-k+1) = Gamma(2n-k+3)
    # = 1 leaves the Gamma ratio Gamma(2n+s+1) / Gamma(k+s+1) of F's row,
    # here taken from gbinom instead of G's product of factors
    specs = {  # name: (row shift s, numerator offset, normalisation)
        "prop1": (lambda ell: ell, 0, lambda n, k, ell: 1 / gbinom(2 * n + ell, n)),
        "prop2": (
            lambda ell: F(0),
            0,
            lambda n, k, ell: gbinom(n + ell, n) / (gbinom(k + ell, k) * math.comb(2 * n, n)),
        ),
        "negative-control": (lambda ell: ell, 1, lambda n, k, ell: F(1)),
    }
    points = 0
    for name, (shift, offset, norm) in specs.items():
        pair = PAIRS[name]
        for ell in BOUNDARY_SHIFTS:
            s = shift(ell)
            for n in range(6):
                if not pair.defined(n, ell):
                    continue
                for k in (2 * n + 1, 2 * n + 2):
                    gamma_ratio = (
                        gbinom(2 * n + s, 2 * n) * math.factorial(2 * n)
                        / (gbinom(k + s, k) * math.factorial(k))
                    )
                    limit = (
                        -k * (k + offset + 2 * ell) * F(-1, 2) ** k * gbinom(2 * k + 2 * ell, k)
                        * 4**n * gamma_ratio * norm(n, k, ell)
                    )
                    assert pair.G(n, k, ell) == limit, (name, n, k, ell)
                    points += 1
    assert points == 180


# each pair's term at k as gbinoms, without the row entry choose(2n+s, 2n-k):
# (row shift is l, numerator offset, the factors free of n, normalisation)
BOUNDARY_SPECS = {
    "prop1": (True, 0, lambda k, ell: F(1), lambda n, ell: 1 / gbinom(2 * n + ell, n)),
    "prop2": (
        False,
        0,
        lambda k, ell: 1 / gbinom(k + ell, k),
        lambda n, ell: gbinom(n + ell, n) / math.comb(2 * n, n),
    ),
    "negative-control": (True, 1, lambda k, ell: F(1), lambda n, ell: F(1)),
}


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=8),
    st.builds(F, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=9)),
)
@example(0, F(-1))
@example(2, F(-5))
@example(2, F(-6))
@example(8, F(-17))
@example(8, F(-18))
@example(3, F(-9, 2))
def test_boundary_limits_match_gbinom_form_at_any_shift(n, ell):
    # the limit at k = 2n+1, 2n+2 with the Gamma ratio
    # Gamma(2n+s+1) / Gamma(k+s+1) = 1 / ((k-2n)! choose(k+s, k-2n)), which
    # holds at negative integer shifts too; where that binomial vanishes,
    # at s = -t for a t in 2n+1..k, G has a pole and names it
    for name, (shifted, offset, rest, norm) in BOUNDARY_SPECS.items():
        pair = PAIRS[name]
        if not pair.defined(n, ell):
            continue
        s = ell if shifted else F(0)
        for k in (2 * n + 1, 2 * n + 2):
            ratio = gbinom(k + s, k - 2 * n) * math.factorial(k - 2 * n)
            if ratio == 0:
                message = f"Gamma ratio factor {-s}+l vanishes at k={k}, l={s}"
                with pytest.raises(wz.CertificateDenominatorZero) as err:
                    pair.G(n, k, ell)
                assert str(err.value) == message, (name, n, k, ell)
                continue
            limit = (
                -k * (k + offset + 2 * ell) * F(-1, 2) ** k * gbinom(2 * k + 2 * ell, k)
                * rest(k, ell) * 4**n * norm(n, ell) / ratio
            )
            assert pair.G(n, k, ell) == limit, (name, n, k, ell)


def test_wz_run_needs_no_gbinom():
    # the row bundles are built from integer pairs: a wz run in a fresh
    # interpreter whose core.gbinom raises before wz is imported prints
    # what the run here prints
    argv = ["wz", "--n-max", "8", "--format", "json"]
    code = (
        "import sys\n"
        "from knuthsums import core\n"
        "def refuse(*args):\n"
        "    raise AssertionError('core.gbinom called')\n"
        "core.gbinom = refuse\n"
        "from knuthsums import cli\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        expected_code = cli.main(argv)
    assert (run.returncode, run.stderr) == (expected_code, "") == (1, "")
    micros = re.compile(r', "micros": \d+')
    # compared as lists of lines, which pytest reports by their first difference
    got, expected = (micros.sub("", text).splitlines() for text in (run.stdout, out.getvalue()))
    assert got == expected


def test_companion_vanishes_at_k_zero():
    for name in ("prop1", "prop2"):
        pair = PAIRS[name]
        for n in range(5):
            for ell in (F(0), F(1, 2), F(-1, 3)):
                assert pair.G(n, 0, ell) == 0  # certificate carries a factor k


def test_f_vanishes_outside_support():
    for name in ("prop1", "prop2"):
        pair = PAIRS[name]
        for n in range(4):
            for ell in (F(0), F(1, 2), F(7, 5)):
                for k in (-3, -1, 2 * n + 1, 2 * n + 2, 2 * n + 7):
                    assert pair.F(n, k, ell) == 0


def test_residual_vanishes_on_grid():
    for name in ("prop1", "prop2"):
        pair = PAIRS[name]
        for ell in DEFAULT_ELL_GRID:
            for n in range(9):
                for k in range(-1, 2 * n + 4):
                    assert wz.wz_residual(pair, n, k, ell) == 0, (name, n, k, ell)


def test_residual_boundary_points_need_cancellation():
    # at k = 2n+1 the naive product R*F is 0/0 * 0; the registered companion
    # resolves it, and the pair equation still holds exactly there
    pair = PAIRS["prop1"]
    assert pair.G(0, 1, F(0)) != 0
    assert wz.wz_residual(pair, 0, 1, F(0)) == 0
    with pytest.raises(wz.CertificateDenominatorZero):
        pair.R(0, 1, F(0))


def test_row_sums_are_all_one():
    for name in ("prop1", "prop2"):
        pair = PAIRS[name]
        for ell in (F(0), F(1, 2), F(1, 3), F(7, 5), F(2)):
            assert [F(*wz.row_sum(pair, n, ell)) for n in range(21)] == [F(1)] * 21


def test_row_sums_ignore_out_of_support_tails():
    pair = PAIRS["prop1"]
    for n in range(6):
        for ell in (F(0), F(1, 4)):
            widened = sum(pair.F(n, k, ell) for k in range(-3, 2 * n + 6))
            assert widened == 1


def test_residual_grid_and_row_sum():
    for name in ("prop1", "prop2"):
        pair = PAIRS[name]
        for n in range(5):
            assert F(*wz.residual_grid(pair, n, F(1, 3))) == 0
            assert F(*wz.row_sum(pair, n, F(1, 3))) == 1
    neg = PAIRS["negative-control"]
    n, ell = 1, F(1, 2)
    residuals = [wz.wz_residual(neg, n, k, ell) for k in range(-1, 2 * n + 4)]
    assert F(*wz.residual_grid(neg, n, ell)) == next(r for r in residuals if r != 0)
    assert F(*wz.row_sum(neg, 3, F(1, 2))) == sum(neg.F(3, k, F(1, 2)) for k in range(7)) != 1


def test_prop1_defined_is_where_its_normalisation_is_nonzero():
    # the interval test replaces evaluating choose(2n+l, n) itself, which
    # stays here as the reference
    pair = PAIRS["prop1"]
    shifts = [F(i) for i in range(-30, 6)] + [F(-1, 2), F(-7, 2), F(-1, 3), F(-25, 4), F(7, 5)]
    for n in range(13):
        for ell in shifts:
            assert pair.defined(n, ell) == (gbinom(2 * n + ell, n) != 0), (n, ell)


def test_undefined_shift_reported_distinctly():
    pair = PAIRS["prop1"]
    # l = -3 zeroes choose(2n+l, n) at n = 2, so row 2 is undefined
    assert not pair.defined(2, F(-3))
    with pytest.raises(wz.CertificateDenominatorZero):
        wz.wz_residual(pair, 2, 1, F(-3))
    with pytest.raises(wz.CertificateDenominatorZero):
        [wz.row_sum(pair, n, F(-3)) for n in range(5)]
    with pytest.raises(wz.CertificateDenominatorZero, match="pair prop1 undefined"):
        wz.row_sum(pair, 2, F(-3))


def test_negative_control_breaks_residual_and_row_sums():
    neg = PAIRS["negative-control"]
    grid_hits = [
        (n, k)
        for n in range(4)
        for k in range(-1, 2 * n + 4)
        if wz.wz_residual(neg, n, k, F(1, 2)) != 0
    ]
    assert grid_hits, "corrupted certificate must fail somewhere on the grid"
    sums = [F(*wz.row_sum(neg, n, F(1, 2))) for n in range(5)]
    assert any(s != 1 for s in sums)


def test_corrupted_denominator_control():
    # prop2's summand with a certificate whose denominator is wrong: the
    # naive companion suffices since nothing needs boundary cancellation
    good = PAIRS["prop2"]

    def bad_r(n, k, ell):
        den = (k - 2 * n - 3) * (k - 2 * n - 1)
        if den == 0:
            raise wz.CertificateDenominatorZero(f"denominator zero at n={n}, k={k}")
        return F(-k) * (k + 2 * ell) / den

    bad = wz.WZPair(
        "prop2-bad-denominator",
        good.F,
        bad_r,
        naive_companion(good.F, bad_r),
        good.defined,
        good.rows,  # only wz_residual is called, which reads F and G
    )
    hits = [
        (n, k)
        for n in range(1, 4)
        for k in range(0, 2 * n + 1)
        if wz.wz_residual(bad, n, k, F(1, 3)) != 0
    ]
    assert hits


def test_naive_companion_raises_where_denominator_hits_support():
    pair = PAIRS["prop1"]

    def r_with_interior_pole(n, k, ell):
        if k == 1:
            raise wz.CertificateDenominatorZero("denominator zero at k=1")
        return F(1)

    g = naive_companion(pair.F, r_with_interior_pole)
    assert g(2, 0, F(0)) == pair.F(2, 0, F(0))  # R = 1 there
    with pytest.raises(wz.CertificateDenominatorZero):
        g(2, 1, F(0))
    assert g(0, 1, F(0)) == 0  # outside support F = 0, R never consulted


def test_row_bundle_matches_per_term_formula():
    # F straight from its gbinom product, with choose(2n+l, k+l) = C(2n+l, 2n-k);
    # G against R * F on the support; the row sum against the literal sum
    summands = {
        "prop1": lambda n, k, ell: (
            F(-1, 2) ** k * gbinom(2 * n + ell, 2 * n - k) * gbinom(2 * k + 2 * ell, k)
            * 4**n / gbinom(2 * n + ell, n)
        ),
        "prop2": lambda n, k, ell: (
            F(-1, 2) ** k * math.comb(2 * n, k) * gbinom(2 * k + 2 * ell, k) * 4**n
            * gbinom(n + ell, n) / (gbinom(k + ell, k) * math.comb(2 * n, n))
        ),
        "negative-control": lambda n, k, ell: (
            F(-1, 2) ** k * gbinom(2 * n + ell, 2 * n - k) * gbinom(2 * k + 2 * ell, k) * 4**n
        ),
    }
    points = 0
    for name, summand in summands.items():
        pair = PAIRS[name]
        companion = naive_companion(pair.F, pair.R)
        for ell in BOUNDARY_SHIFTS:
            for n in range(9):
                assert pair.defined(n, ell)
                terms = [summand(n, k, ell) for k in range(2 * n + 1)]
                for k, term in enumerate(terms):
                    assert pair.F(n, k, ell) == term, (name, n, k, ell)
                    assert pair.G(n, k, ell) == companion(n, k, ell), (name, n, k, ell)
                    points += 1
                assert F(*wz.row_sum(pair, n, ell)) == sum(terms, F(0)), (name, n, ell)
    assert points == 3 * 5 * 81


def _pointwise_grid(pair, n, ell):
    """The first nonzero residual over k = -1..2n+3 and its k, or (0, None)."""
    for k in range(-1, 2 * n + 4):
        r = wz.wz_residual(pair, n, k, ell)
        if r != 0:
            return r, k
    return F(0), None


SHIFTS = st.one_of(
    st.integers(min_value=-12, max_value=3).map(F),
    st.integers(min_value=-25, max_value=7).map(lambda i: F(2 * i + 1, 2)),
    st.fractions(min_value=-12, max_value=4, max_denominator=9),
)


def _assert_grid_is_pointwise(pair, n, ell, calls=None):
    """residual_grid agrees with the pointwise loop; with `calls` (the k of
    each wz_residual call) it also evaluated at most the reported point."""
    try:
        expected, first = _pointwise_grid(pair, n, ell)
    except wz.CertificateDenominatorZero as err:
        with pytest.raises(wz.CertificateDenominatorZero) as got:
            wz.residual_grid(pair, n, ell)
        assert str(got.value) == str(err), (pair.name, n, ell)
        return
    if calls is not None:
        calls.clear()
    assert F(*wz.residual_grid(pair, n, ell)) == expected, (pair.name, n, ell)
    if calls is not None:
        # the rows alone settle every zero point
        assert calls == ([] if first is None else [first]), (pair.name, n, ell)


@settings(max_examples=300)
@given(st.sampled_from(list(PAIRS.values())), st.integers(min_value=0, max_value=8), SHIFTS)
def test_residual_grid_equals_pointwise_loop(pair, n, ell):
    _assert_grid_is_pointwise(pair, n, ell)


def test_residual_grid_reports_the_first_boundary_pole_it_reads():
    # a pair whose rows vanish, so every integer residual is 0 and only the
    # row shift's boundary poles decide.  At l = -(2n+1), G has poles at
    # k = 2n+1 and 2n+2, and the pointwise loop first reads G(n, 2n+1), at
    # k = 2n; a grid that tested only `k in poles` would read on to
    # k = 2n+1, where wz_residual reads G(n, 2n+2) first, and report that pole
    zero = wz._pair(
        "zero-rows", lambda n, a, b: ([0] * (n + 1), 1),
        lambda n, k, a, b: (0, core.prop1_continued(n, k, a, b)[1]),
        lambda n, a, b: (1, 1), defined=lambda n, ell: True,
    )
    for n in range(6):
        for ell in (-(2 * n + 1), -(2 * n + 2), F(1, 2)):
            _assert_grid_is_pointwise(zero, n, F(ell))
    message = r"^Gamma ratio factor 1\+l vanishes at k=1, l=-1$"
    with pytest.raises(wz.CertificateDenominatorZero, match=message):
        wz.residual_grid(zero, 0, F(-1))


def test_residual_grid_equals_pointwise_loop_at_every_integer_shift(monkeypatch):
    # integer shifts are where rows go undefined and G has boundary poles
    calls = []
    pointwise = wz.wz_residual

    def counted(pair, n, k, ell):
        calls.append(k)
        return pointwise(pair, n, k, ell)

    monkeypatch.setattr(wz, "wz_residual", counted)
    for pair in PAIRS.values():
        for n in range(9):
            for ell in range(-12, 4):
                _assert_grid_is_pointwise(pair, n, F(ell), calls)
