"""Closed-form resistance: decay table, span-frame ratios and pinned values."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hammocknet import (
    HammockSpec,
    LatticeError,
    Terminal,
    UnsupportedNodeError,
    eigen_system,
    resistance_general,
    resistance_rt,
    resistance_same_column,
    resistance_same_row,
    resistance_spectral,
    span_coords,
)
from hammocknet.closed_form import _BLOCK, _decay_table, _span_ratios

from _util import interior_pairs, rel_dev


class TestModeParams:
    """Per-mode parameters, read from the one decay table.

    Entry i - 2 of ``_decay_table`` is mode i's rate h; its root is
    e^{2h} and its recurrence coefficient 2*cosh(2h).
    """

    def test_uniform_mode(self):
        # the table starts at mode 2: the uniform mode's rate is exactly 0
        # and lives in the separate quadratic term
        for spec in (HammockSpec(1, 1), HammockSpec(5, 3, r=2.0), HammockSpec(2, 7, s=3.0)):
            table = _decay_table(spec.rows, spec.ratio)
            assert table.shape == (spec.rows,)
            assert np.all(table > 0.0)

    def test_first_nonuniform(self):
        (half,) = _decay_table(1, 1.0)
        assert 2.0 * math.cosh(2.0 * half) == pytest.approx(4.0, abs=1e-14)
        assert math.exp(2.0 * half) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-14)
        assert half == pytest.approx(0.5 * math.log(2.0 + math.sqrt(3.0)), rel=1e-14)

    def test_third_mode(self):
        half = _decay_table(2, 1.0)[1]
        assert 2.0 * math.cosh(2.0 * half) == pytest.approx(5.0, abs=1e-14)
        assert math.exp(2.0 * half) == pytest.approx((5.0 + math.sqrt(21.0)) / 2.0, rel=1e-14)

    def test_root_identities(self):
        # 2*cosh(2h) is the defining coefficient 2 + 2(r/s)(1 - cos theta)
        for spec in (HammockSpec(6, 4, r=2.0, s=0.5), HammockSpec(9, 2)):
            table = _decay_table(spec.rows, spec.ratio)
            for mode in range(2, spec.rows + 2):
                half = table[mode - 2]
                coeff = 2.0 + 2.0 * spec.ratio * (
                    1.0 - math.cos((mode - 1) * math.pi / (spec.rows + 1)))
                assert math.exp(2.0 * half) > 1.0
                assert 2.0 * math.cosh(2.0 * half) == pytest.approx(coeff, rel=1e-13)


def _plain_ratios(spec, coords, half):
    """alpha, beta, gamma over sinh(2h) * sinh(2Nh) from plain cosh/sinh."""
    x1, x2, cols = coords.x_in, coords.x_out, spec.cols
    den = math.sinh(2.0 * half) * math.sinh(2.0 * cols * half)
    near_in, near_out = (math.cosh((2 * x - 1) * half) for x in (x1, x2))
    far_in, far_out = (math.cosh((2 * cols - 2 * x + 1) * half) for x in (x1, x2))
    return near_in * far_in / den, near_in * far_out / den, near_out * far_out / den


class TestCoefficientTriple:
    """The span-frame ratios alpha, beta, gamma of ``_span_ratios``."""

    def test_same_column_collapses(self):
        spec = HammockSpec(3, 5, r=2.0)
        coords = span_coords(spec, (2, 1), (2, 3))
        alpha, beta, gamma = _span_ratios(coords, _decay_table(spec.rows, spec.ratio))
        assert np.array_equal(alpha, beta) and np.array_equal(beta, gamma)

    def test_direct_cosh_cross_check(self):
        # small instance where plain cosh evaluation cannot overflow
        spec = HammockSpec(2, 3)
        coords = span_coords(spec, (1, 1), (3, 2))
        table = _decay_table(spec.rows, spec.ratio)
        ratios = _span_ratios(coords, table)
        for got, want in zip(ratios, _plain_ratios(spec, coords, table[0])):
            assert got[0] == pytest.approx(want, rel=1e-12)

    def test_column_frame_matches_plain_coordinates(self):
        # span-frame and plain-coordinate spellings of the products agree
        for spec in (HammockSpec(4, 6, r=3.0, s=2.0), HammockSpec(2, 9)):
            table = _decay_table(spec.rows, spec.ratio)
            for a, b in [((1, 1), (5, 2)), ((2, 2), (4, 1)), ((3, 1), (3, 2))]:
                b = (min(b[0], spec.cols), min(b[1], spec.rows))
                coords = span_coords(spec, a, b)
                ratios = _span_ratios(coords, table)
                for mode in (2, spec.rows + 1):
                    plain = _plain_ratios(spec, coords, table[mode - 2])
                    for got, want in zip(ratios, plain):
                        assert got[mode - 2] == pytest.approx(want, rel=1e-12)

    def test_uniform_limit(self):
        # as h -> 0 every ratio tends to 1 / (sinh(2h) * sinh(2Nh)) ~ 1 / (4N h^2)
        spec = HammockSpec(3, 4)
        coords = span_coords(spec, (1, 1), (4, 2))
        half = np.array([1e-9])
        for ratio in _span_ratios(coords, half):
            assert ratio[0] * 4.0 * spec.cols * half[0] ** 2 == pytest.approx(1.0, rel=1e-12)


class TestResistanceGeneral:
    def test_identical_nodes_exact_zero(self):
        spec = HammockSpec(5, 7, r=2.0, s=3.0)
        assert resistance_general(spec, (3, 2), (3, 2)).ohms == 0.0

    def test_three_parallel_paths(self):
        spec = HammockSpec(1, 2)
        assert resistance_general(spec, (1, 1), (2, 1)).ohms == pytest.approx(0.5, abs=1e-12)

    def test_single_column_chain(self):
        spec = HammockSpec(3, 1, r=1.0, s=1.0)
        assert resistance_general(spec, (1, 1), (1, 3)).ohms == pytest.approx(2.0, abs=1e-12)
        # no horizontal links exist, so r must not matter
        heavy = HammockSpec(3, 1, r=123.0, s=1.0)
        assert resistance_general(heavy, (1, 1), (1, 3)).ohms == pytest.approx(2.0, abs=1e-12)

    def test_frozen_oracle_value(self):
        # exact rational solve of the full 3x4 graph
        expected = Fraction(9, 8)
        spec = HammockSpec(3, 4)
        assert resistance_general(spec, (1, 1), (4, 3)).ohms == pytest.approx(
            float(expected), rel=1e-12)

    def test_terminal_rejected_with_redirect(self):
        spec = HammockSpec(2, 2)
        with pytest.raises(UnsupportedNodeError, match="oracle"):
            resistance_general(spec, Terminal.BOTTOM, (1, 1))

    def test_method_tag(self):
        result = resistance_general(HammockSpec(2, 2), (1, 1), (2, 2))
        assert result.method == "closed"


class TestSameColumn:
    def test_equal_heights(self):
        assert resistance_same_column(HammockSpec(4, 3), 2, 3, 3).ohms == 0.0

    def test_single_column_chain(self):
        for rows, s in [(3, 1.0), (5, 2.0)]:
            spec = HammockSpec(rows, 1, s=s)
            for y1 in range(1, rows + 1):
                for y2 in range(y1, rows + 1):
                    assert resistance_same_column(spec, 1, y1, y2).ohms == pytest.approx(
                        s * abs(y2 - y1), abs=1e-12 * max(1.0, s * rows))

    def test_frozen_oracle_value(self):
        # exact rational solve of the full 4x3 graph with r=2, s=1
        expected = Fraction(83, 59)
        spec = HammockSpec(4, 3, r=2.0, s=1.0)
        assert resistance_same_column(spec, 2, 1, 4).ohms == pytest.approx(
            float(expected), rel=1e-12)

    def test_matches_general(self):
        for spec in (HammockSpec(4, 4), HammockSpec(3, 5, r=2.0, s=3.0)):
            for x in range(1, spec.cols + 1):
                for y1 in range(1, spec.rows + 1):
                    for y2 in range(y1 + 1, spec.rows + 1):
                        special = resistance_same_column(spec, x, y1, y2).ohms
                        general = resistance_general(spec, (x, y1), (x, y2)).ohms
                        assert rel_dev([special, general]) < 1e-12


class TestSameRow:
    def test_zero_distance(self):
        assert resistance_same_row(HammockSpec(2, 3), 1, 2, 2).ohms == 0.0

    def test_three_parallel_paths(self):
        assert resistance_same_row(HammockSpec(1, 2), 1, 1, 2).ohms == pytest.approx(
            0.5, abs=1e-12)

    def test_frozen_oracle_value(self):
        # exact rational solve of the full 3x5 graph
        expected = Fraction(50, 71)
        spec = HammockSpec(3, 5)
        assert resistance_same_row(spec, 2, 2, 4).ohms == pytest.approx(
            float(expected), rel=1e-12)

    def test_off_centre_rejected(self):
        spec = HammockSpec(2, 4)
        with pytest.raises(LatticeError, match="resistance_general"):
            resistance_same_row(spec, 1, 1, 2)

    def test_matches_general_on_centred_pairs(self):
        for spec in (HammockSpec(3, 5), HammockSpec(2, 4, r=2.0), HammockSpec(4, 7, s=3.0)):
            for y in range(1, spec.rows + 1):
                for x1 in range(1, spec.cols // 2 + 1):
                    x2 = spec.cols + 1 - x1
                    special = resistance_same_row(spec, y, x1, x2).ohms
                    general = resistance_general(spec, (x1, y), (x2, y)).ohms
                    assert rel_dev([special, general]) < 1e-12


def test_exchange_is_bitwise():
    for spec in (HammockSpec(3, 4, r=2.0, s=0.5), HammockSpec(2, 2)):
        for a, b in interior_pairs(spec):
            assert resistance_general(spec, a, b).ohms == resistance_general(spec, b, a).ohms


def _mp_rate(ratio, theta):
    """Decay rate of the mode at angle theta from its defining quadratic.

    Half the log of the larger root of g*g - c*g + 1 with
    c = 2 + 2*ratio*(1 - cos(theta)), in the current mpmath precision.
    """
    half_coeff = 1 + ratio * (1 - mpmath.cos(theta))
    return mpmath.log(half_coeff + mpmath.sqrt(half_coeff ** 2 - 1)) / 2


def _mp_mode_sum(spec, a, b):
    """The closed form's mode sum for one pair, evaluated by mpmath at 40 digits.

    Each decay rate comes from its defining quadratic and each hyperbolic
    ratio from plain cosh/sinh: mpmath's exponent range needs no scaling,
    so nothing here is shared with the double-precision kernel.
    """
    (x_in, y_in), (x_out, y_out) = sorted([tuple(a), tuple(b)])
    rows, cols = spec.rows, spec.cols
    with mpmath.workdps(40):
        ratio = mpmath.mpf(spec.r) / mpmath.mpf(spec.s)
        total = mpmath.mpf(0)
        for mode in range(1, rows + 1):
            theta = mode * mpmath.pi / (rows + 1)
            h = _mp_rate(ratio, theta)
            near_in, near_out = (mpmath.cosh((2 * x - 1) * h) for x in (x_in, x_out))
            far_in, far_out = (mpmath.cosh((2 * cols - 2 * x + 1) * h)
                               for x in (x_in, x_out))
            sin_in, sin_out = (mpmath.sin(theta * y) for y in (y_in, y_out))
            total += (sin_in ** 2 * near_in * far_in
                      - 2 * sin_in * sin_out * near_in * far_out
                      + sin_out ** 2 * near_out * far_out) \
                / (mpmath.sinh(2 * h) * mpmath.sinh(2 * cols * h))
        uniform = mpmath.mpf(spec.s) * (y_out - y_in) ** 2 / (cols * (rows + 1))
        return float(2 * mpmath.mpf(spec.r) / (rows + 1) * total + uniform)


class TestAccuracyAtScale:
    """Every closed-form spelling against mpmath on a million columns.

    The hyperbolic arguments reach 2N*h ~ 10^5 here, where a difference
    of two logarithms of that size would cost ~1e-11 relative.
    """

    COLS = 10 ** 6

    @pytest.mark.parametrize("rows", [20, 50])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0])
    def test_within_1e13_of_mpmath(self, rows, ratio):
        cols = self.COLS
        spec = HammockSpec(rows, cols, r=ratio, s=1.0)
        for a, b in [((1, 1), (cols, rows)), ((3, 2), (7, rows - 1)),
                     ((cols // 2, 5), (cols // 2 + 1000, 9)), ((cols - 2, 3), (17, 11))]:
            exact = _mp_mode_sum(spec, a, b)
            assert resistance_general(spec, a, b).ohms == pytest.approx(exact, rel=1e-13)
            assert resistance_rt(spec, a, b).ohms == pytest.approx(exact, rel=1e-13)
        for x in (1, 40, cols):
            exact = _mp_mode_sum(spec, (x, 2), (x, rows - 3))
            assert resistance_same_column(spec, x, 2, rows - 3).ohms == pytest.approx(
                exact, rel=1e-13)
        for x1 in (1, cols // 2 - 300, cols // 2):
            x2 = cols + 1 - x1
            exact = _mp_mode_sum(spec, (x1, 4), (x2, 4))
            assert resistance_same_row(spec, 4, x1, x2).ohms == pytest.approx(
                exact, rel=1e-13)


class TestWellConditionedRates:
    """Decay rates and resistances where 1 - cos(theta) would lose digits.

    Forming the rate from 1 - cos(theta) and then the larger root (or an
    arccosh near 1) loses digits like eps/theta^2 in the slow modes: up to
    7.6e-6 relative at 10^6 rows, and every digit once (r/s)*theta^2 drops
    below eps.
    """

    @pytest.mark.parametrize("rows", [2000, 10 ** 5, 10 ** 6])
    @pytest.mark.parametrize("ratio", [1e-12, 0.5, 1.0, 3.0])
    def test_rates_within_1e15_of_mpmath(self, rows, ratio):
        # uncached builds, so the large tables are not retained
        closed = _decay_table.__wrapped__(rows, ratio)
        spectral = eigen_system.__wrapped__(HammockSpec(rows, 2, r=ratio)).omegas
        with mpmath.workdps(60):
            for mode in [*range(1, 21), *range(rows - 4, rows + 1)]:
                exact = _mp_rate(mpmath.mpf(ratio), mode * mpmath.pi / (rows + 1))
                for table in (closed, spectral):
                    assert abs(float((table[mode - 1] - exact) / exact)) <= 1e-15

    @pytest.mark.parametrize("r", [1e-16, 1e-12, 1e-9])
    def test_small_ratio_pair_against_mpmath(self, r):
        spec = HammockSpec(40, 6, r=r)
        a, b = (1, 3), (6, 30)
        exact = _mp_mode_sum(spec, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [route(spec, a, b).ohms for route in
                      (resistance_general, resistance_rt, resistance_spectral)]
        for value in values:
            assert math.isfinite(value)
            assert value == pytest.approx(exact, rel=1e-13)


class TestModeBlocks:
    """Mode sums split into blocks of _BLOCK modes at the block edges."""

    @pytest.mark.parametrize("rows", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_routes_agree_across_block_edges(self, rows):
        spec = HammockSpec(rows, 5, r=3.0, s=2.0)
        for a, b in [((1, 1), (5, rows)), ((2, rows // 2), (4, rows // 2 + 7)),
                     ((3, 1), (3, rows)), ((5, rows - 1), (1, 2))]:
            closed = resistance_general(spec, a, b).ohms
            assert rel_dev([closed, resistance_rt(spec, a, b).ohms]) < 1e-13
            assert rel_dev([closed, resistance_spectral(spec, a, b).ohms]) < 1e-10
        for node in [(1, 1), (3, rows // 2), (5, rows)]:
            assert resistance_general(spec, node, node).ohms == 0.0

    def test_decay_rates_ascend(self):
        # underflowing exponentials are skipped as a suffix of each block
        for rows in (1, 7, 1000, 2 * _BLOCK + 1):
            for ratio in (0.5, 1.0, 3.0):
                assert np.all(np.diff(_decay_table(rows, ratio)) > 0.0)
