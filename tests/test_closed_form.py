"""Closed-form resistance: decay table, span-frame ratios and pinned values."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hammocknet import (
    HammockSpec,
    LatticeError,
    Terminal,
    UnsupportedNodeError,
    eigen_system,
    resistance_dense,
    resistance_general,
    resistance_rt,
    resistance_same_column,
    resistance_same_row,
    resistance_spectral,
    span_coords,
)
from hammocknet import closed_form, recurrence
from hammocknet.closed_form import (
    _BLOCK,
    _CLAMP,
    _DEGREE,
    _SPLIT,
    _UNDERFLOW,
    _WIDTH,
    _decay_table,
    _direct_modes,
    _far_sum,
    _folded,
    _free,
    _live_modes,
    _rates,
    _sines,
    _span_ratios,
)

from _util import (
    interior_pairs,
    live_ratio,
    long_double_closed,
    long_double_folded,
    rel_dev,
    span_ratios_reference,
    unfolded_inverse,
)


class TestModeParams:
    """Per-mode parameters, read from the decay rates.

    Entry i - 2 of ``_rates`` is mode i's rate h; its root is
    e^{2h} and its recurrence coefficient 2*cosh(2h).
    """

    def test_uniform_mode(self):
        # the table starts at mode 2: the uniform mode's rate is exactly 0
        # and lives in the separate quadratic term
        for spec in (HammockSpec(1, 1), HammockSpec(5, 3, r=2.0), HammockSpec(2, 7, s=3.0)):
            table = _rates(spec.rows, spec.ratio, 0, spec.rows)
            assert table.shape == (spec.rows,)
            assert np.all(table > 0.0)

    def test_first_nonuniform(self):
        (half,) = _rates(1, 1.0, 0, 1)
        assert 2.0 * math.cosh(2.0 * half) == pytest.approx(4.0, abs=1e-14)
        assert math.exp(2.0 * half) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-14)
        assert half == pytest.approx(0.5 * math.log(2.0 + math.sqrt(3.0)), rel=1e-14)

    def test_third_mode(self):
        half = _rates(2, 1.0, 0, 2)[1]
        assert 2.0 * math.cosh(2.0 * half) == pytest.approx(5.0, abs=1e-14)
        assert math.exp(2.0 * half) == pytest.approx((5.0 + math.sqrt(21.0)) / 2.0, rel=1e-14)

    def test_root_identities(self):
        # 2*cosh(2h) is the defining coefficient 2 + 2(r/s)(1 - cos theta)
        for spec in (HammockSpec(6, 4, r=2.0, s=0.5), HammockSpec(9, 2)):
            table = _rates(spec.rows, spec.ratio, 0, spec.rows)
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
        alpha, beta, gamma = _span_ratios(coords, _rates(spec.rows, spec.ratio, 0, spec.rows))
        assert np.array_equal(alpha, beta) and np.array_equal(beta, gamma)

    def test_direct_cosh_cross_check(self):
        # small instance where plain cosh evaluation cannot overflow
        spec = HammockSpec(2, 3)
        coords = span_coords(spec, (1, 1), (3, 2))
        table = _rates(spec.rows, spec.ratio, 0, spec.rows)
        ratios = _span_ratios(coords, table)
        for got, want in zip(ratios, _plain_ratios(spec, coords, table[0])):
            assert got[0] == pytest.approx(want, rel=1e-12)

    def test_column_frame_matches_plain_coordinates(self):
        # span-frame and plain-coordinate spellings of the products agree
        for spec in (HammockSpec(4, 6, r=3.0, s=2.0), HammockSpec(2, 9)):
            table = _rates(spec.rows, spec.ratio, 0, spec.rows)
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


_PAIR_ROUTES = {"closed": resistance_general, "rt": resistance_rt,
                "spectral": resistance_spectral}


@pytest.mark.parametrize("route", sorted(_PAIR_ROUTES))
class TestPairRouteRejections:
    """Every pair route refuses hubs and off-grid nodes in either slot."""

    spec = HammockSpec(3, 4)

    def _both_ways(self, route, node, error, match):
        """The errors raised with ``node`` first, then second."""
        caught = []
        for a, b in ((node, (2, 2)), ((2, 2), node)):
            with pytest.raises(error, match=match) as info:
                _PAIR_ROUTES[route](self.spec, a, b)
            caught.append(info.value)
        return caught

    def test_hub(self, route):
        for hub in (Terminal.BOTTOM, Terminal.TOP):
            self._both_ways(route, hub, UnsupportedNodeError, "oracle")

    @pytest.mark.parametrize("node, match", [
        ((0, 1), "column x=0"),
        ((1, 4), "row y=4"),
        ((1.5, 2), "integers"),
    ])
    def test_off_grid(self, route, node, match):
        for error in self._both_ways(route, node, LatticeError, match):
            assert not isinstance(error, UnsupportedNodeError)


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


@pytest.mark.parametrize("rows, r, s", [(3, 1e308, 10.0), (3, 1e307, 1e308), (1, 1.7e308, 8.0)])
def test_large_r_and_s_stay_finite(rows, r, s):
    # closed once formed 2*r and s*(y2 - y1)^2 before dividing, and gave inf
    # at these r and s, which r/s <= 2**1021 admits
    spec = HammockSpec(rows, 4, r=r, s=s)
    cases = [(resistance_general, (1, 1), (4, rows)), (resistance_general, (2, 1), (2, rows)),
             (lambda spec, a, b: resistance_same_row(spec, 1, 1, 4), (1, 1), (4, 1)),
             (lambda spec, a, b: resistance_same_column(spec, 2, 1, rows), (2, 1), (2, rows))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route, a, b in cases:
            value = route(spec, a, b).ohms
            assert math.isfinite(value)
            references = [resistance_rt(spec, a, b).ohms, resistance_dense(spec, a, b).ohms]
            assert rel_dev([value, *references]) < 1e-10


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


class TestProductSinesAtScale:
    """closed and rt on rows whose sine tables take the anchor x offset product.

    A block of more than ``_SPLIT`` modes is built as a matrix product;
    the references above stop at 50 rows, on the direct path. Block edges
    sit at 2*_SPLIT modes here, so that mpmath sums a few thousand modes,
    not ``_BLOCK``.
    """

    @pytest.mark.parametrize("rows,block,a,b", [
        (_SPLIT + 88, _BLOCK, (2, 17), (8, _SPLIT + 40)),
        (_SPLIT + 88, _BLOCK, (9, 300), (1, 301)),
        (3 * _SPLIT + 100, 2 * _SPLIT, (3, 1000), (7, 3 * _SPLIT + 50)),  # product | product
        (2 * _SPLIT + 100, 2 * _SPLIT, (1, 5), (9, 2 * _SPLIT + 60)),  # product | direct
    ])
    def test_within_1e13_of_mpmath(self, monkeypatch, rows, block, a, b):
        monkeypatch.setattr(closed_form, "_BLOCK", block)
        spec = HammockSpec(rows, 9, r=3.0)
        exact = _mp_mode_sum(spec, a, b)
        assert resistance_general(spec, a, b).ohms == pytest.approx(exact, rel=1e-13)
        assert resistance_rt(spec, a, b).ohms == pytest.approx(exact, rel=1e-13)

    def test_specialised_forms_within_1e13_of_mpmath(self):
        spec = HammockSpec(_SPLIT + 88, 9, r=3.0)
        exact = _mp_mode_sum(spec, (4, 3), (4, _SPLIT + 1))
        assert resistance_same_column(spec, 4, 3, _SPLIT + 1).ohms == pytest.approx(
            exact, rel=1e-13)
        exact = _mp_mode_sum(spec, (2, 250), (8, 250))
        assert resistance_same_row(spec, 250, 2, 8).ohms == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("count", [_SPLIT, _SPLIT + 1, 3 * _SPLIT + 5])
    @pytest.mark.parametrize("heights", [(5,), (5, 700), (1, 10, 1400)])
    def test_one_row_per_height(self, count, heights):
        tables = _sines(slice(40, 40 + count), 1000, *heights)
        assert tables.shape == (len(heights), count)


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PROBE = """
from hammocknet import HammockSpec, resistance_general, resistance_rt
rows = 10 ** 5
for cols, a, b in ((rows, (20001, 33334), (80000, 66667)), (7, (1, 12345), (7, 98765)),
                   (rows, (4, 1), (rows - 3, rows))):
    spec = HammockSpec(rows, cols, r=3.0)
    for route in (resistance_general, resistance_rt):
        print(route(spec, a, b).ohms.hex())
"""


def test_pairs_bitwise_equal_across_blas_threads():
    # the product sine tables call BLAS; a thread split must not move a bit
    source_root = str(Path(closed_form.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", None):
        env = {name: value for name, value in os.environ.items() if name not in _BLAS_THREADS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
        if threads:
            env.update(dict.fromkeys(_BLAS_THREADS, threads))
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


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
        closed = _rates(rows, ratio, 0, rows)
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
                assert np.all(np.diff(_rates(rows, ratio, 0, rows)) > 0.0)


_EPS = np.finfo(float).eps


def _sine_ranges(rows):
    """Mode ranges (table slices) around the table split and the block edges."""
    if rows <= 2 * _SPLIT + 2:
        return [slice(0, rows)]
    ranges = [slice(0, _SPLIT), slice(0, _SPLIT + 1), slice(rows - _SPLIT - 1, rows)]
    if rows > _BLOCK + 100:
        ranges += [slice(_BLOCK - 64, _BLOCK + 65), slice(_BLOCK, min(2 * _BLOCK, rows)),
                   slice(_BLOCK - 3, _BLOCK + 3)]
    return ranges


class TestExactSines:
    """Sine tables from exact residues, within 4 eps of mpmath.

    A rounded product near pi*(i-1)*h/(M+1) is off by up to 8e-10 at
    10^6 rows; the residue (i-1)*h mod 2*denom is exact, so only the
    last product and the sine round.
    """

    # 1023-1025 rows: one product block of about a thousand modes, the
    # mid-size queries that took the direct path while it reached 1024
    @pytest.mark.parametrize("rows", [1, 127, 128, 129, _SPLIT - 1, _SPLIT, _SPLIT + 1,
                                      1023, 1024, 1025, 2 * _BLOCK + 1, 10 ** 6])
    @pytest.mark.parametrize("double", [False, True])
    def test_within_4_eps_of_mpmath(self, rows, double):
        denom = (rows + 1) * (2 if double else 1)
        heights = (1, rows // 3, rows)
        with mpmath.workdps(30):
            for block in _sine_ranges(rows):
                tables = _sines(block, denom, *heights)
                assert [len(table) for table in tables] == [block.stop - block.start] * 3
                # every entry of a short range, a spread of the long ones
                step = max(1, (block.stop - block.start) // 400)
                for height, table in zip(heights, tables):
                    for j in range(0, len(table), step):
                        mode = block.start + j + 1  # i - 1
                        exact = mpmath.sinpi(mpmath.mpf(mode * height % (2 * denom)) / denom)
                        assert abs(table[j] - exact) <= 4 * _EPS, (block, height, mode)

    @pytest.mark.parametrize("height", [1, 10 ** 5 // 3, 10 ** 5])
    def test_recurrence_profiles_within_4_eps_of_mpmath(self, height):
        # per mode, within 4 eps of the scale 1/(n*sin(chi)) of rt's path
        # weight and 2*sin(chi) of the field's injection profile
        rows = 10 ** 5
        n = rows + 1
        weights = recurrence.mode_weights(rows, height)[1:]
        zeta = recurrence._injection_profiles(rows, height, height)[0]
        modes = [*range(1, 50), *range(50, rows - 50, 251), *range(rows - 50, rows + 1)]
        with mpmath.workdps(40):
            for mode in modes:  # i - 1
                lift = mpmath.sinpi(mpmath.mpf(2 * height * mode % (4 * n)) / (2 * n))
                sin_chi = mpmath.sinpi(mpmath.mpf(mode) / (2 * n))
                assert abs(weights[mode - 1] + lift / (n * sin_chi)) * n * sin_chi \
                    <= 4 * _EPS, mode
                assert abs(zeta[mode - 1] + 2 * lift * sin_chi) / (2 * sin_chi) \
                    <= 4 * _EPS, mode

    def test_inverse_transform_within_4_eps_of_mpmath(self):
        # entries (2/n)*cos(pi*(2j+1)*i/(2n)), against their scale 2/n
        rows = 2000
        n = rows + 1
        inverse = unfolded_inverse(rows)
        rng = np.random.default_rng(3)
        samples = zip(rng.integers(0, n, 2000).tolist(), rng.integers(1, n, 2000).tolist())
        with mpmath.workdps(40):
            for j, i in samples:
                exact = mpmath.cospi(mpmath.mpf((2 * j + 1) * i % (4 * n)) / (2 * n))
                assert abs(inverse[j, i] * n / 2 - exact) <= 4 * _EPS, (j, i)

    def test_long_and_short_ranges_agree(self):
        # the anchor x offset product against one sine per mode
        rows = 3 * _SPLIT + 5
        long = _sines(slice(0, rows), rows + 1, 7, 333)
        short = np.hstack([_sines(slice(j, min(j + _SPLIT, rows)), rows + 1, 7, 333)
                           for j in range(0, rows, _SPLIT)])
        assert np.max(np.abs(long - short)) <= 4 * _EPS


def _all_modes_value(spec, coords):
    """The general form summed over every mode with the span-frame kernel."""
    alpha, beta, gamma = _span_ratios(coords, _rates(spec.rows, spec.ratio, 0, spec.rows))
    sin_in, sin_out = _sines(slice(0, spec.rows), spec.rows + 1, coords.y_in, coords.y_out)
    total = float((sin_in * sin_in * alpha - 2.0 * sin_in * sin_out * beta
                   + sin_out * sin_out * gamma).sum())
    return (2.0 * float(spec.r) / (spec.rows + 1)) * total \
        + float(spec.s) * (coords.y_out - coords.y_in) ** 2 / (spec.cols * (spec.rows + 1))


class TestDecayFreeTail:
    """Past the live cut-off closed and rt skip the span-frame kernel.

    alpha = gamma = 1/(2*sinh(2h)) and beta = 0 there exactly, so both
    routes stay within 1e-15 of the kernel summed over every mode.
    """

    ROWS = 2 * _BLOCK + 1

    @pytest.mark.parametrize("live", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
    @pytest.mark.parametrize("shortest", ["near_in", "separation", "far_out"])
    def test_routes_match_all_modes(self, live, shortest):
        rows, length = self.ROWS, 401
        x_in, x_out, cols = {
            "near_in": ((length + 1) // 2, length + 300, 2 * length + 400),
            "separation": (length, 2 * length, 3 * length),
            "far_out": (300, 900, 900 + (length - 1) // 2),
        }[shortest]
        spec = HammockSpec(rows, cols, r=live_ratio(rows, length, live), s=1.0)
        for y_in, y_out in [(1, rows), (rows // 3, rows // 3 + 1), (rows, 7)]:
            a, b = (x_in, y_in), (x_out, y_out)
            coords = span_coords(spec, a, b)
            assert _live_modes(coords, _decay_table(rows, spec.ratio)) == live
            self._check(spec, a, b)

    @pytest.mark.parametrize("ratio", [0.5, 3.0])
    def test_zero_and_unit_lengths_keep_every_mode(self, ratio):
        # one column (separation 0), and columns 1 and N (near_in = far_out = 1)
        rows, cols = self.ROWS, 5000
        spec = HammockSpec(rows, cols, r=ratio, s=1.0)
        table = _decay_table(rows, ratio)
        for a, b in [((2500, 3), (2500, rows - 5)), ((cols, 9), (cols, 10)),
                     ((1, 1), (cols, rows)), ((1, rows // 2), (cols, rows // 2 + 1))]:
            assert _live_modes(span_coords(spec, a, b), table) == rows
            self._check(spec, a, b)

    @staticmethod
    def _check(spec, a, b):
        reference = _all_modes_value(spec, span_coords(spec, a, b))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [route(spec, a, b).ohms for route in (resistance_general, resistance_rt)]
        for value in values:
            assert abs(value - reference) <= 1e-15 * reference, (a, b)


class TestFold:
    """Modes j and M-1-j share sin^2 at every height: past the cut-off closed
    and rt sum the folded weights g = f_j + f_{M-1-j} over ceil(M/2) entries,
    and a live mode whose mirror is past the cut-off adds the mirror's f."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_few_rows_against_rational(self, rows):
        # columns 3 and 8 of 10: every length is 5, and r/s sets the cut-off
        for live in range(rows + 1):
            spec = HammockSpec(rows, 10, r=live_ratio(rows, 5, live), s=1)
            self._against_rational(spec, [((3, y), (8, y)) for y in range(1, rows + 1)]
                                   + [((3, 1), (8, rows)), ((3, rows), (8, 1))], live)
        for ratio in (0.5, 3):
            spec = HammockSpec(rows, 4, r=ratio, s=1)
            self._against_rational(spec, interior_pairs(spec), None)

    @staticmethod
    def _against_rational(spec, pairs, live):
        table = _decay_table(spec.rows, spec.ratio)
        for a, b in pairs:
            if live is not None:
                assert _live_modes(span_coords(spec, a, b), table) == live, (a, b)
            exact = float(resistance_dense(spec, a, b, "rational").meta["exact"])
            for route in (resistance_general, resistance_rt):
                assert route(spec, a, b).ohms == pytest.approx(exact, rel=1e-13, abs=0.0), \
                    (spec, a, b, route.__name__)

    @pytest.mark.parametrize("rows", [2 * _BLOCK + 1, 2 * _BLOCK + 2, 4 * _BLOCK + 2])
    def test_live_cut_around_the_middle(self, rows):
        # the separation of 401 is the shortest length; at 4*_BLOCK + 2 rows and a
        # cut-off just past the middle, the mirror terms reach the second block
        half, length = (rows + 1) // 2, 401
        for live in (half - 1, half, half + 1, rows - 1):
            spec = HammockSpec(rows, 3 * length, r=live_ratio(rows, length, live), s=1.0)
            for y_in, y_out in [(1, rows), (half, 1), (rows, 7)]:
                a, b = (length, y_in), (2 * length, y_out)
                assert _live_modes(span_coords(spec, a, b), _decay_table(rows, spec.ratio)) == live
                TestDecayFreeTail._check(spec, a, b)
        # one column, and a node in column 1 or N, keep every mode live
        for a, b in [((600, 3), (600, rows - 5)), ((1, 2), (700, half)), ((500, rows), (1203, 1))]:
            assert _live_modes(span_coords(spec, a, b), _decay_table(rows, spec.ratio)) == rows
            TestDecayFreeTail._check(spec, a, b)

    @pytest.mark.parametrize("rows", [1, 2, 3, _BLOCK + 1, 4 * _BLOCK + 2, 10 ** 6])
    @pytest.mark.parametrize("ratio", [sys.float_info.min, 1e-12, 3.0, 2.0 ** 1021])
    def test_live_cut_counts_every_f_above_the_floor(self, rows, ratio):
        # the closed-form cut-off against a count over every f. Around the
        # length 708/(2h_j) of each target entry j (both ends of the table and
        # of the first and last blocks, the middle) the cut-off steps past j:
        # at the length rounded up mode j underflows, rounded down it is live.
        table = _decay_table(rows, ratio)
        rates = _rates(rows, ratio, 0, rows)
        free = 0.5 / np.sinh(2.0 * rates)
        targets = sorted({j for j in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, rows // 2,
                                      rows - _BLOCK, rows - 2, rows - 1) if 0 <= j < rows})
        reaches = [_UNDERFLOW / (2.0 * float(rates[j])) for j in targets]
        lengths = {int(length) for length in np.geomspace(1.0, max(reaches[0], 1.0), 60)}
        lengths |= {bound(reach) for reach in reaches for bound in (math.floor, math.ceil)}
        # from 2**52 on such a length is the float 708/(2h_j) itself: a rounding
        # tie, where the floor is within 4 eps of f_j (r/s 2**-1022 only)
        ties = {reach for reach in reaches if reach >= 2.0 ** 52}
        assert not ties or ratio == sys.float_info.min

        def cut(length, a=None, b=None):
            spec = HammockSpec(rows, 3 * length if a is None else 10 ** 6, r=ratio)
            a, b = (a, b) if a else ((length, 1), (2 * length, rows))
            got = _live_modes(span_coords(spec, a, b), table)
            floor = 0.5 / math.sinh(_UNDERFLOW / length)
            count = np.count_nonzero(free > floor)
            if length not in ties:
                assert got == count, length
            else:
                # the mode at the cut-off decays by about e^{-708}: closed reads
                # within an ulp with either count
                assert np.count_nonzero(free > (1 + 4 * _EPS) * floor) <= got \
                    <= np.count_nonzero(free > (1 - 4 * _EPS) * floor), length
                value = resistance_general(spec, a, b).ohms
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(closed_form, "_live_modes", lambda *_: count)
                    assert resistance_general(spec, a, b).ohms == \
                        pytest.approx(value, rel=2 * _EPS, abs=0.0), length
            return got

        cuts = {length: cut(length) for length in sorted(lengths - {0})}
        for j, reach in zip(targets, reaches):
            if reach < 2.0 ** 52:
                assert cuts[math.ceil(reach)] <= j, (j, reach)
            if 1.0 <= reach < 2.0 ** 52:
                assert cuts[math.floor(reach)] > j, (j, reach)
        if (rows, ratio) == (4 * _BLOCK + 2, 3.0):
            # one pair far from the sides: the raw ends of the table and between
            # them, and densely near the top, where the rates level off and the
            # cut-off moves fastest
            far = np.geomspace(1, 10 ** 5, 60).astype(int).tolist() + list(range(236, 290, 2))
            far = [cut(length, (400000, 5), (400000 + length, rows - 9))
                   for length in sorted(set(far))]
            assert rows in far
            assert any(c < _BLOCK for c in far) and any(rows - _BLOCK < c < rows for c in far)
            assert sum(_BLOCK <= c <= rows - _BLOCK for c in far) >= 5

    @pytest.mark.parametrize("live", [0, 1, _BLOCK // 2, 2 * _BLOCK, 4 * _BLOCK - 5,
                                      4 * _BLOCK + 2])
    def test_live_cut_forms_no_rate(self, monkeypatch, live):
        # none live, in the first block, the middle, the last block and all
        # live: the cut-off is read off the rate formula, with no table search
        rows, length = 4 * _BLOCK + 2, 401
        spec = HammockSpec(rows, 3 * length, r=live_ratio(rows, length, live), s=1.0)
        table = _decay_table(rows, spec.ratio)

        def refused(*args):
            raise AssertionError("a rate was formed")

        monkeypatch.setattr(closed_form, "_rates", refused)
        monkeypatch.setattr(closed_form, "_free", refused)
        for y_in, y_out in [(1, rows), (rows // 2, 1)]:
            coords = span_coords(spec, (length, y_in), (2 * length, y_out))
            assert _live_modes(coords, table) == live

    @pytest.mark.parametrize("rows", [4 * _BLOCK + 1, 10 ** 6])
    def test_far_sum_reads_the_folded_half(self, monkeypatch, rows):
        # past the first block the folded half is kept as lines of coefficients,
        # and the far sum reads them all from the first block on: once per pair
        # and cut-off, as closed and rt share the tail of (a, b)
        spec = HammockSpec(rows, rows, r=3.0)
        read = []

        def counted(table, start, *args):
            read.append(len(table.lines[(start - _BLOCK) // _WIDTH:]))
            return _far_sum(table, start, *args)

        # every pair route reaches the tail through closed_form._mode_sum
        monkeypatch.setattr(closed_form, "_far_sum", counted)
        closed_form._tail.cache_clear()
        a, b = (rows // 10 + 1, rows // 3 + 1), (9 * rows // 10, 2 * rows // 3)
        y, x1 = rows // 3 + 1, rows // 10 + 1  # a centred same-row pair
        table = _decay_table(rows, spec.ratio)
        for pair in [(a, b), ((x1, y), (rows + 1 - x1, y))]:
            assert _direct_modes(_live_modes(span_coords(spec, *pair), table), rows) == _BLOCK
        resistance_general(spec, a, b)
        resistance_rt(spec, a, b)
        resistance_same_row(spec, y, x1, rows + 1 - x1)
        assert read == [(rows // 2 - _BLOCK) // _WIDTH] * 2


def _reference_cases():
    """(label, spec, a, b) for the reference one-exponential-per-length kernel."""
    rows = 2 * _BLOCK + 1
    tail = HammockSpec(rows, 1200, r=live_ratio(rows, 401, _BLOCK + 100), s=1.0)
    square, tall = HammockSpec(100, 100), HammockSpec(28, 600, r=3.0)
    return [
        ("every decay live", square, (3, 7), (95, 50)),
        # far lengths near 4000 pass 708 in every mode; near and separation stay live
        ("every far length underflowing", HammockSpec(4, 2000, r=3.0), (3, 2), (10, 4)),
        ("live cut-off in the second block", tail, (201, 5), (600, rows - 3)),
        ("same row", square, (12, 40), (77, 40)),
        ("same column", tall, (300, 3), (300, 25)),
        ("swapped", tall, (590, 20), (4, 2)),
        ("28x600 at r/s 3", tall, (17, 9), (402, 27)),
        # every mode live, the far lengths past 708 in most of them
        ("long block, a node in column 1", HammockSpec(3000, 2500, r=3.0), (1, 100), (1800, 2900)),
    ]


class TestSpanRatiosReference:
    """The clamped span-frame kernel against the one-exponential-per-length form."""

    @pytest.mark.parametrize("label, spec, a, b", _reference_cases(),
                             ids=[case[0] for case in _reference_cases()])
    def test_kernel(self, label, spec, a, b):
        coords = span_coords(spec, a, b)
        half = _rates(spec.rows, spec.ratio, 0, spec.rows)
        if label == "every decay live":
            assert 2 * (2 * spec.cols - 1) * half[-1] < _CLAMP
        if label == "every far length underflowing":
            assert 2 * (2 * (spec.cols - coords.x_out) + 1) * half[0] > 708.0
        if label == "live cut-off in the second block":
            assert _BLOCK < _live_modes(coords, _decay_table(spec.rows, spec.ratio)) < 2 * _BLOCK
        alpha, beta, gamma = _span_ratios(coords, half)
        want_alpha, want_beta, want_gamma = span_ratios_reference(coords, half)
        assert np.array_equal(alpha, want_alpha) and np.array_equal(gamma, want_gamma)
        live = 2 * coords.separation * half <= _CLAMP
        assert np.array_equal(beta[live], want_beta[live])
        # past the clamp both betas are below 2*e^{-700} of alpha
        for value in (beta[~live], want_beta[~live]):
            assert np.all(value <= 1e-303 * alpha[~live])

    @pytest.mark.parametrize("label, spec, a, b", _reference_cases(),
                             ids=[case[0] for case in _reference_cases()])
    def test_routes(self, label, spec, a, b, monkeypatch):
        routes = [resistance_general, resistance_rt, resistance_general]
        args = [(spec, a, b), (spec, a, b), (spec, b, a)]
        if a[0] == b[0]:
            routes.append(resistance_same_column)
            args.append((spec, a[0], a[1], b[1]))
        got = [route(*arg).ohms for route, arg in zip(routes, args)]
        monkeypatch.setattr(closed_form, "_span_ratios", span_ratios_reference)
        monkeypatch.setattr(recurrence, "_span_ratios", span_ratios_reference)
        want = [route(*arg).ohms for route, arg in zip(routes, args)]
        assert got == want


class TestFreeTable:
    """The one cached table: folded f = 1/(2*sinh(2h)), the head rates, and raw
    f at both ends."""

    @pytest.mark.parametrize("rows", [1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    @pytest.mark.parametrize("ratio", [1e-12, 3.0, 2.0 ** 1021])
    def test_bitwise_the_decay_table(self, rows, ratio):
        # the raw entries: the first block of g and the rest past the last line
        table = _decay_table(rows, ratio)
        half = _rates(rows, ratio, 0, rows)
        free = 0.5 / np.sinh(2.0 * half)
        pairs = rows // 2  # entries j < M-1-j; an odd M leaves one middle entry
        folded = np.append(free[:pairs] + free[::-1][:pairs], free[pairs:-pairs or None])
        lines = max(pairs - _BLOCK, 0) // _WIDTH
        assert table.folded.size == min(_BLOCK, (rows + 1) // 2)
        assert table.lines.shape == (lines, _DEGREE + 1)
        assert np.array_equal(table.folded, folded[:_BLOCK])
        assert np.array_equal(table.rest, folded[_BLOCK + lines * _WIDTH:])
        assert np.array_equal(table.head, half[:_BLOCK])
        assert np.array_equal(table.top, free[::-1][:_BLOCK])
        assert not any(array.flags.writeable for array in table[2:])

    @pytest.mark.parametrize("rows", [4 * _BLOCK + 1, 4 * _BLOCK + 2, 10 ** 6])
    @pytest.mark.parametrize("ratio", [1e-12, 3.0, 2.0 ** 1021])
    def test_fitted_lines_against_long_double(self, rows, ratio):
        # each fitted entry within the rounding of f from its rate, 4*eps*(1 + 2h)
        # of g, and each line's sum within eps of it: a plain projection of the
        # uncentred lines reads 5.5 eps off at 10^6 rows. Below the normal
        # numbers (g near 2**-1022 at r/s 2**1021) the fit's products round to
        # multiples of 2**-1074: an entry may be off by _WIDTH of them, and a
        # line's sum by _WIDTH**2.
        table = _decay_table(rows, ratio)
        half = (rows + 1) // 2
        got = _folded(table, _BLOCK, half)
        want = long_double_folded(rows, ratio, _BLOCK, half)
        fitted = table.lines.shape[0] * _WIDTH
        assert got.size == want.size and 0 < half - _BLOCK - fitted <= _WIDTH
        # the raw rest, with the middle entry of an odd M, has the bits of _free
        free, pairs = _free(rows, ratio, 0, rows), rows // 2
        folded = np.append(free[:pairs] + free[::-1][:pairs], free[pairs:-pairs])
        assert np.array_equal(got[fitted:], folded[_BLOCK + fitted:])
        unit = 2.0 ** -1074
        error = got[:fitted] - want[:fitted]
        top = float(_rates(rows, ratio, rows - 1, rows)[0])
        assert np.all(np.abs(error) <= 4 * _EPS * (1 + 2 * top) * want[:fitted] + _WIDTH * unit)
        lines = error.reshape(-1, _WIDTH).sum(axis=1)
        sums = want[:fitted].reshape(-1, _WIDTH).sum(axis=1)
        assert np.all(np.abs(lines) <= _EPS * sums + _WIDTH ** 2 * unit)
        # unbiased over every line
        assert abs(lines.sum()) <= 0.5 * _EPS * sums.sum()

    @pytest.mark.parametrize("rows", [4 * _BLOCK + 1, 4 * _BLOCK + 2, 10 ** 6])
    def test_retains_half_a_table(self, rows):
        # three raw blocks, _DEGREE + 1 coefficients per line and a raw rest
        table = _decay_table(rows, 3.0)
        held = sum(array.nbytes for array in table[2:])
        lines = -(-((rows + 1) // 2 - _BLOCK) // _WIDTH)
        assert held <= 8 * (3 * _BLOCK + lines * (_DEGREE + 1) + _WIDTH + 1)

    def test_pair_routes_form_rates_one_block_at_a_time(self, monkeypatch):
        spec = HammockSpec(4 * _BLOCK + 3, 900, r=1.2345)  # a shape no other test asks
        formed = []

        def counted(*args):
            rates = _rates(*args)
            formed.append(rates.size)
            return rates

        monkeypatch.setattr(closed_form, "_rates", counted)
        monkeypatch.setattr(recurrence, "_rates", counted)
        for a, b in [((1, 9), (900, 4 * _BLOCK)), ((300, 5), (600, 3 * _BLOCK)),
                     ((450, 7), (450, 8))]:
            resistance_general(spec, a, b)
            resistance_rt(spec, a, b)
        resistance_same_column(spec, 450, 7, 4 * _BLOCK)
        resistance_same_row(spec, 3 * _BLOCK, 300, 601)
        # every mode is live in all eight queries: each forms four blocks past the head
        assert len(formed) >= 8 * 4 and max(formed) <= _BLOCK


def _contracted_cases():
    """(rows, cols, x_in, x_out, heights): far-apart columns keep every live
    mode in the first block. Heights 1, M and (M+1)//2, and one y with
    k*y = 0 mod M+1 for the least factor k of M + 1. 4*_BLOCK + 1 rows
    has a middle mode that is its own mirror, 4*_BLOCK + 2 none."""
    cases = []
    for rows, cols in [(4 * _BLOCK + 1, 10000), (4 * _BLOCK + 2, 10000), (10 ** 6, 10 ** 5)]:
        factor = next(k for k in range(2, rows + 2) if (rows + 1) % k == 0)
        zero, mid = (rows + 1) // factor, (rows + 1) // 2
        cases.append((rows, cols, cols // 4, 3 * cols // 4,
                      [(1, rows), (1, mid), (rows, zero), (1, 1), (mid, zero)]))
    return cases


class TestContractedTail:
    """closed's and rt's folded and contracted terms against a long-double
    sine-product sum.

    The bound in ``closed_form``'s docstring: within eps*(4*R + 8*F), F being
    2r/(M+1) times the sum of the folded weights g over the contracted
    entries, summed here from f. The fit of the table's lines adds a term of
    its own to that bound, which these cases leave inside it. Nodes next to
    a hub and heights whose angles return to 0 are where it is tightest.
    Past their cut-off the two routes share the fold and the contraction,
    so each is checked against the reference here, not only against the
    other. A pair one column apart keeps every mode live, and its large
    live terms cancel; at y = 1, M and, for odd M, the middle height
    (M+1)/2 it stays within the same bound.
    """

    @pytest.mark.parametrize("ratio", [0.5, 3.0, 1e12, 2.0 ** 1021])
    @pytest.mark.parametrize("rows, cols, x_in, x_out, heights", _contracted_cases(),
                             ids=["4 blocks + 1", "4 blocks + 2", "1e6"])
    def test_within_bound_of_long_double(self, rows, cols, x_in, x_out, heights, ratio):
        spec = HammockSpec(rows, cols, r=ratio, s=1.0)
        table = _decay_table(rows, ratio)
        pairs = [((x_in, y_in), (x_out, y_out)) for y_in, y_out in heights]
        apart = [((x_in, y), (x_in + 1, y)) for y in (1, rows, (rows + 1) // 2)[:2 + rows % 2]]
        references = long_double_closed(spec, pairs + apart)
        for (a, b), reference in zip(pairs + apart, references):
            live = _live_modes(span_coords(spec, a, b), table)
            if (a, b) in pairs:  # every folded entry after the first block is contracted
                assert live <= _BLOCK
            # the folded entries from direct to ceil(M/2) are f from direct to M - direct
            direct = _direct_modes(live, rows)
            contracted = _free(rows, ratio, direct, rows - direct)
            bound = 4.0 * reference + 8.0 * (2.0 * ratio / (rows + 1) * float(contracted.sum()))
            for route in (resistance_general, resistance_rt):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    value = route(spec, a, b).ohms
                error = abs(np.longdouble(value) - reference)
                assert error <= _EPS * bound, (route.__name__, a, b)


    @pytest.mark.parametrize("live", [600, _BLOCK + 100], ids=["first block", "second block"])
    def test_same_row_within_bound_of_long_double(self, live):
        # the same-row form sums its own coefficient over the live modes and
        # reaches the folded and contracted terms through the same mode sum
        rows, cols, x1 = 4 * _BLOCK + 1, 1200, 401
        x2 = cols + 1 - x1
        ratio = live_ratio(rows, x2 - x1, live)
        spec = HammockSpec(rows, cols, r=ratio, s=1.0)
        heights = (1, (rows + 1) // 2, rows)
        pairs = [((x1, y), (x2, y)) for y in heights]
        table = _decay_table(rows, ratio)
        for y, (a, b), reference in zip(heights, pairs, long_double_closed(spec, pairs)):
            assert _live_modes(span_coords(spec, a, b), table) == live
            direct = _direct_modes(live, rows)
            contracted = _free(rows, ratio, direct, rows - direct)
            bound = 4.0 * reference + 8.0 * (2.0 * ratio / (rows + 1) * float(contracted.sum()))
            error = abs(np.longdouble(resistance_same_row(spec, y, x1, x2).ohms) - reference)
            assert error <= _EPS * bound, y


def test_far_blocks_take_no_sine_table(monkeypatch):
    # blocks each route passes to _sines, its tail's included (the cache is
    # cleared first): a pair whose cut-off falls in the first block forms no
    # sine past that block, a node in column 1 every mode once
    rows = 10 ** 6
    spec = HammockSpec(rows, rows, r=3.0)
    covered = []

    def counted(block, *args):
        covered.append(block)
        return _sines(block, *args)

    monkeypatch.setattr(closed_form, "_sines", counted)
    monkeypatch.setattr(recurrence, "_sines", counted)
    table = _decay_table(rows, spec.ratio)
    for (a, b), reach in [
            (((rows // 10 + 1, rows // 3 + 1), (9 * rows // 10, 2 * rows // 3)), _BLOCK),
            (((1, rows // 2), (rows // 2, rows // 3)), rows)]:
        live = _live_modes(span_coords(spec, a, b), table)
        assert (live <= _BLOCK) == (reach == _BLOCK)
        for route in (resistance_general, resistance_rt):
            closed_form._tail.cache_clear()
            covered.clear()
            route(spec, a, b)
            assert max(block.stop for block in covered) == reach, (route.__name__, a, b)
            if live == rows:
                assert sum(block.stop - block.start for block in covered) == rows


class TestTailCache:
    """Past the cut-off every route reads one cached tail per instance,
    cut-off and node heights, and forms sines over its live modes only."""

    ROUTES = ("closed", "rt", "same column", "same row")

    @staticmethod
    def _queries(spec):
        # columns 401 and 800 of 1200: the separation of 399 is the shortest
        # length, and the same-row pair is centred
        rows = spec.rows
        return {
            "closed": lambda: resistance_general(spec, (401, 7), (800, rows - 2)),
            "rt": lambda: resistance_rt(spec, (401, 7), (800, rows - 2)),
            "same column": lambda: resistance_same_column(spec, 401, rows - 2, 7),
            "same row": lambda: resistance_same_row(spec, rows // 3, 401, 800),
        }

    @pytest.mark.parametrize("live", [600, _BLOCK + 100], ids=["first block", "second block"])
    @pytest.mark.parametrize("rows", [4 * _BLOCK + 1, 10 ** 6])
    def test_cold_and_warm_agree_bitwise(self, rows, live):
        spec = HammockSpec(rows, 1200, r=live_ratio(rows, 399, live), s=1.0)
        assert _live_modes(span_coords(spec, (401, 7), (800, rows - 2)),
                           _decay_table(rows, spec.ratio)) == live
        queries = self._queries(spec)
        cold = {}
        for name in self.ROUTES:
            closed_form._tail.cache_clear()
            cold[name] = queries[name]().ohms
        # warm from its own call, then each route right after every other
        for name in self.ROUTES:
            assert queries[name]().ohms == cold[name], name
        for first in self.ROUTES:
            for name in self.ROUTES:
                closed_form._tail.cache_clear()
                queries[first]()
                assert queries[name]().ohms == cold[name], (first, name)
        info = closed_form._tail.cache_info()
        assert info.maxsize == 64 and 0 < info.currsize <= 2

    def test_rt_after_closed_forms_no_tail(self, monkeypatch):
        rows = 10 ** 6
        spec = HammockSpec(rows, rows, r=3.0)
        a, b = (rows // 10 + 1, rows // 3 + 1), (9 * rows // 10, 2 * rows // 3)
        live = _live_modes(span_coords(spec, a, b), _decay_table(rows, spec.ratio))
        assert 0 < live < _BLOCK
        closed_form._tail.cache_clear()
        resistance_general(spec, a, b)
        calls, covered = [], []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        def sines(block, *args):
            covered.append(block)
            return _sines(block, *args)

        monkeypatch.setattr(closed_form, "_far_sum", counted("far", closed_form._far_sum))
        monkeypatch.setattr(closed_form, "_free_terms",
                            counted("free", closed_form._free_terms))
        monkeypatch.setattr(closed_form, "_sines", sines)
        monkeypatch.setattr(recurrence, "_sines", sines)
        resistance_rt(spec, a, b)
        assert calls == []
        assert [(block.start, block.stop) for block in covered] == [(0, live)]

    @pytest.mark.parametrize("live", [0, 600, 3 * _BLOCK + 7])
    def test_symmetric_in_the_heights(self, live):
        rows = 4 * _BLOCK + 1
        ratio = live_ratio(rows, 399, live)
        for low, high in [(1, rows), (7, rows // 3), ((rows + 1) // 2, rows - 2)]:
            closed_form._tail.cache_clear()
            tail = closed_form._tail(rows, ratio, live, low, high)
            assert isinstance(tail, float)
            assert closed_form._tail(rows, ratio, live, high, low) == tail
            assert closed_form._tail.cache_info().currsize == 2

    def test_all_live_pair_adds_no_entry(self):
        spec = HammockSpec(10 ** 5, 10 ** 5, r=2.0)
        closed_form._tail.cache_clear()
        for a, b in [((1, 5), (50_000, 70_000)), ((400, 3), (401, 99_000))]:
            assert _live_modes(span_coords(spec, a, b), _decay_table(spec.rows, spec.ratio)) \
                == spec.rows
            resistance_general(spec, a, b)
            resistance_rt(spec, a, b)
        resistance_same_column(spec, 300, 2, 90_000)
        info = closed_form._tail.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


# Peak traced bytes of one warm pair query: 32 block-length float arrays.
_QUERY_BUDGET = 32 * _BLOCK * 8


@pytest.mark.parametrize("route", [resistance_general, resistance_rt])
def test_warm_query_memory_stays_within_blocks(route):
    rows = 10 ** 6
    spec = HammockSpec(rows, rows, r=3.0)
    _decay_table(rows, spec.ratio)
    pairs = [
        # live cut-off near mode 650: the contracted tail carries the sum
        ((rows // 10 + 1, rows // 3 + 1), (9 * rows // 10, 2 * rows // 3)),
        # a node in column 1: every mode live, rates formed block by block
        ((1, rows // 2), (rows // 2, rows // 3)),
        # near length 3999: the cut-off falls in the second block
        ((2000, 5), (rows // 2, rows - 3)),
    ]
    assert [_live_modes(span_coords(spec, a, b), _decay_table(rows, spec.ratio)) > _BLOCK
            for a, b in pairs] == [False, True, True]
    for a, b in pairs:
        tracemalloc.start()
        try:
            route(spec, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _QUERY_BUDGET, (a, b, peak)


@pytest.mark.parametrize("spec", [HammockSpec(100, 100), HammockSpec(28, 600, r=3.0),
                                  HammockSpec(10 ** 5, 10 ** 5, r=2.0)],
                         ids=["100x100", "28x600", "1e5x1e5"])
def test_identical_nodes_every_route_exact_zero(spec):
    for node in [(1, 1), (spec.cols, spec.rows), (spec.cols // 3, spec.rows // 2 + 1)]:
        for route in (resistance_general, resistance_rt, resistance_spectral):
            assert route(spec, node, node).ohms == 0.0, (route.__name__, node)


@pytest.mark.parametrize("r", [1e300, 1e305, 2.2e307, 2.0 ** 1021])
def test_identical_nodes_exact_zero_at_large_ratio(r):
    # past r/s ~ 1e305 the subnormal products of closed's mode sum stopped
    # cancelling: 40x6 (2,4)-(2,4) at r 2.2e307 gave -2.12e-17
    for spec in (HammockSpec(40, 6, r=r), HammockSpec(3, 4, r=r), HammockSpec(7, 9, r=r),
                 HammockSpec(100, 100, r=r)):
        nodes = list(spec.interior_nodes())[::max(1, spec.interior_count // 300)]
        for node in nodes:
            for route in (resistance_general, resistance_rt):
                assert route(spec, node, node).ohms == 0.0, (spec, route.__name__, node)
