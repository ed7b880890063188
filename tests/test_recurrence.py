"""Recurrence-transform route: transform, mode solve, fields and audits."""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hammocknet import (
    HammockSpec,
    LatticeError,
    kirchhoff_residual,
    mode_transform,
    mode_weights,
    potential_path_check,
    reconstruct_currents,
    resistance_general,
    resistance_rt,
    solve_modes,
    span_coords,
    transformed_columns,
)
from hammocknet import recurrence
from hammocknet.closed_form import (
    _BLOCK,
    _decay_table,
    _direct_modes,
    _free,
    _live_modes,
    _mode_blocks,
    _rates,
    _sines,
)

from _util import (
    coupling_matrix,
    cumsum_kirchhoff_residual,
    full_inverse,
    full_kirchhoff_residual,
    interior_pairs,
    live_ratio,
    long_double_kirchhoff_residual,
    recurrence_residual,
    region_amplitudes,
    rel_dev,
    specs_upto,
    unfolded_inverse,
    whole_array_currents,
)

_EPS = np.finfo(float).eps


def _mode_coeffs(spec):
    """Recurrence coefficients 2*cosh(2h) of modes 1..M+1 from the decay rates."""
    half = _rates(spec.rows, spec.ratio, 0, spec.rows)
    return np.concatenate(([2.0], 2.0 * np.cosh(2.0 * half)))


class TestCouplingMatrix:
    def test_small_patterns(self):
        assert np.array_equal(coupling_matrix(1), np.array([[1., 1.], [1., 1.]]))
        assert np.array_equal(coupling_matrix(2),
                              np.array([[1., 1., 0.], [1., 0., 1.], [0., 1., 1.]]))

    def test_eigenvalues(self):
        for rows in range(1, 7):
            chis = np.arange(rows + 1) * math.pi / (2 * rows + 2)
            expected = np.sort(2.0 * np.cos(2.0 * chis))
            computed = np.sort(np.linalg.eigvalsh(coupling_matrix(rows)))
            assert np.allclose(computed, expected, atol=1e-12)


def _forward(rows):
    """Eigenvector rows of the coupling pattern: [i, j] = cos((2j+1) chi_i)."""
    chis = np.arange(rows + 1) * math.pi / (2 * rows + 2)
    j = np.arange(rows + 1)
    return np.cos((2 * j[None, :] + 1) * chis[:, None])


class TestModeTransform:
    def test_two_row_entries(self):
        half = mode_transform(1)
        assert not half.flags.writeable
        assert half.shape == (2, 1)
        inverse = unfolded_inverse(1)
        assert np.allclose(inverse, [[0.5, math.cos(math.pi / 4)],
                                     [0.5, math.cos(3 * math.pi / 4)]])

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 299, 300, 2000])
    def test_unfolds_to_the_full_table_bitwise(self, rows):
        # odd and even M + 1: mirrored residues reduce to +- the same angle
        half = mode_transform(rows)
        assert half.shape == (rows + 1, (rows + 2) // 2)
        unfolded, full = unfolded_inverse(rows), full_inverse(rows)
        assert unfolded.shape == full.shape == (rows + 1, rows + 1)
        assert unfolded.tobytes() == full.tobytes()

    def test_cached_table_holds_half_the_rows(self):
        assert mode_transform(2000).nbytes == 2001 * 1001 * 8

    def test_builds_in_row_blocks(self):
        # the table and one row block of turns, no second table-sized array
        tracemalloc.start()
        try:
            half = mode_transform.__wrapped__(4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * half.nbytes

    def test_refuses_zero_rows(self):
        with pytest.raises(LatticeError, match="at least one row"):
            mode_transform(0)

    @pytest.mark.parametrize("rows", [2.5, 2.0, True, "3"])
    def test_refuses_non_integer_rows(self, rows):
        # cached first: True and 2.0 must not hit the entries of 1 and 2
        mode_transform(1)
        mode_transform(2)
        with pytest.raises(LatticeError, match="as an integer"):
            mode_transform(rows)

    def test_inverse(self):
        for rows in range(1, 9):
            assert np.allclose(_forward(rows) @ unfolded_inverse(rows),
                               np.eye(rows + 1), atol=1e-12)

    def test_diagonalises_coupling(self):
        for rows in range(1, 9):
            chis = np.arange(rows + 1) * math.pi / (2 * rows + 2)
            product = _forward(rows) @ coupling_matrix(rows) @ unfolded_inverse(rows)
            assert np.allclose(product, np.diag(2.0 * np.cos(2.0 * chis)), atol=1e-12)

    def test_recurrence_coeff_consistency(self):
        # 2h + 2 - h*w_i equals the closed-form mode coefficient
        for rows in range(1, 65):
            for ratio in (0.5, 1.0, 3.0):
                spec = HammockSpec(rows, 2, r=ratio, s=1.0)
                chis = np.arange(rows + 1) * math.pi / (2 * rows + 2)
                w = 2.0 * np.cos(2.0 * chis)
                expected = _mode_coeffs(spec)
                for i in range(1, rows + 2):
                    assert 2 * ratio + 2 - ratio * w[i - 1] == pytest.approx(
                        expected[i - 1], rel=1e-13, abs=1e-13)


class TestModeWeights:
    def test_uniform_mode(self):
        for rows in (1, 4):
            for y in range(0, rows + 2):
                assert mode_weights(rows, y)[0] == pytest.approx(
                    (rows + 1 - y) / (rows + 1))

    def test_extremes_vanish(self):
        weights_top = mode_weights(4, 5)
        weights_bottom = mode_weights(4, 0)
        assert np.allclose(weights_top[1:], 0.0, atol=1e-14)
        assert np.allclose(weights_bottom[1:], 0.0, atol=1e-14)

    def test_matches_inverse_transform_sum(self):
        for rows in (1, 3, 6):
            inverse = unfolded_inverse(rows)
            for y in range(0, rows + 2):
                direct = inverse[y:, :].sum(axis=0)
                assert np.allclose(mode_weights(rows, y), direct, atol=1e-12)

    def test_range(self):
        with pytest.raises(LatticeError):
            mode_weights(3, 5)

    @pytest.mark.parametrize("rows, height", [(5, 1.5), (5, 2.0), (5, True), (5, -1),
                                              (2.5, 1), (True, 1), (0, 0), (-3, 0)])
    def test_refuses_non_integers_and_zero_rows(self, rows, height):
        with pytest.raises(LatticeError):
            mode_weights(rows, height)

    def test_accepts_numpy_integers(self):
        assert np.array_equal(mode_weights(np.int64(5), np.int32(2)), mode_weights(5, 2))
        assert np.array_equal(mode_transform(np.int64(3)), mode_transform(3))

    @pytest.mark.parametrize("rows, y_in, y_out", [(5, 2, 4), (_BLOCK + 7, 3, 9001),
                                                    (2 * _BLOCK + 5, 32000, 1)])
    def test_tables_match_the_block_profiles_bitwise(self, rows, y_in, y_out):
        # the weights and injection profiles are _profiles' rows, block by block
        n = rows + 1
        blocks = [recurrence._profiles(n, *_sines(block, 2 * n, 1, 2 * y_in, 2 * y_out))
                  for block, _ in _mode_blocks(rows, rows)]
        zeta_in, zeta_out, w_in, w_out = (np.concatenate(tables) for tables in zip(*blocks))
        assert mode_weights(rows, y_in)[1:].tobytes() == w_in.tobytes()
        assert mode_weights(rows, y_out)[1:].tobytes() == w_out.tobytes()
        zeta = recurrence._injection_profiles(rows, y_in, y_out)
        assert zeta[0].tobytes() == zeta_in.tobytes()
        assert zeta[1].tobytes() == zeta_out.tobytes()

    def test_forms_one_table(self):
        # the weights, a block of sines at a time, and no other M-length table
        rows = 10 ** 6
        tracemalloc.start()
        try:
            weights = mode_weights(rows, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * weights.nbytes


class TestSolveModes:
    def test_uniform_mode_value(self):
        spec = HammockSpec(4, 5)
        coords = span_coords(spec, (2, 1), (4, 3))
        x_out, x_in = solve_modes(spec, coords, 2.0)
        assert x_out[0] == pytest.approx(-2.0 * (3 - 1) / 5)
        assert x_in[0] == x_out[0]

    def test_refuses_another_instances_frame(self):
        coords = span_coords(HammockSpec(4, 6), (2, 1), (4, 3))
        with pytest.raises(LatticeError, match="covers 6 columns, spec has 5"):
            solve_modes(HammockSpec(4, 5), coords, 1.0)

    @pytest.mark.parametrize("route", [solve_modes, transformed_columns])
    @pytest.mark.parametrize("frame_spec, a, b, match", [
        (HammockSpec(9, 9), (8, 8), (9, 9), "covers 9 columns, spec has 6"),
        (HammockSpec(9, 6), (2, 8), (5, 9), "row y=9, outside 1..4 for a 4x6"),
    ], ids=["wider", "taller"])
    def test_refuses_frames_of_other_shapes(self, route, frame_spec, a, b, match):
        # a wider frame once failed in numpy broadcasting, a taller one of
        # the same width gave values for rows the instance does not have
        with pytest.raises(LatticeError, match=match):
            route(HammockSpec(4, 6), span_coords(frame_spec, a, b), 1.0)

    @pytest.mark.parametrize("route", [solve_modes, transformed_columns])
    @pytest.mark.parametrize("frame", [None, ((2, 1), (4, 3))], ids=["none", "node pair"])
    def test_refuses_what_is_no_frame(self, route, frame):
        # these once failed reading the frame's columns, with AttributeError
        with pytest.raises(LatticeError, match="need a span frame"):
            route(HammockSpec(4, 6), frame, 1.0)

    def test_mirror_antisymmetry(self):
        # p == q, equal heights, equal spans: output modes negate input modes
        spec = HammockSpec(3, 5)
        coords = span_coords(spec, (2, 2), (4, 2))
        assert coords.p_offset == coords.q_offset
        assert coords.span_left == coords.span_right
        x_out, x_in = solve_modes(spec, coords, 1.0)
        assert np.allclose(x_out[1:], -x_in[1:], rtol=1e-12, atol=1e-15)

    def test_boundary_relations_by_construction(self):
        spec = HammockSpec(3, 6, r=2.0)
        coords = span_coords(spec, (2, 1), (5, 3))
        roots, regions = region_amplitudes(spec, coords)
        lam = roots[1:]
        right_growth, right_decay = regions["right"]
        left_growth, left_decay = regions["left"]
        assert np.allclose(right_decay[1:],
                           right_growth[1:] * lam ** (2 * coords.span_right + 1),
                           rtol=1e-12)
        assert np.allclose(left_growth[1:],
                           left_decay[1:] * lam ** (2 * coords.span_left + 1),
                           rtol=1e-12)

    def test_matching_at_junctions(self):
        spec = HammockSpec(2, 7, s=2.0)
        coords = span_coords(spec, (2, 1), (5, 2))
        roots, regions = region_amplitudes(spec, coords)
        for k, outer in [(coords.q_offset, "right"), (-coords.p_offset, "left")]:
            inner_val = regions["middle"][0] * roots ** k + regions["middle"][1] * roots ** (-k)
            outer_val = regions[outer][0] * roots ** k + regions[outer][1] * roots ** (-k)
            assert np.allclose(inner_val, outer_val, rtol=1e-12, atol=1e-15)

    def test_amplitudes_reproduce_transformed_columns(self):
        # every region is non-empty: left k = -2; middle -1..2; right 3, 4
        spec = HammockSpec(3, 7)
        coords = span_coords(spec, (2, 1), (5, 2))
        values, _ = transformed_columns(spec, coords, 1.5)
        roots, regions = region_amplitudes(spec, coords, 1.5)
        seen = set()
        for k in range(-coords.span_left, coords.span_right + 1):
            if k > coords.q_offset:
                name = "right"
            elif k >= -coords.p_offset:
                name = "middle"
            else:
                name = "left"
            seen.add(name)
            growth, decay = regions[name]
            expected = growth * roots ** k + decay * roots ** (-k)
            # the raw amplitudes lose digits like root**(2N), worst on the left
            assert np.allclose(values[:, k + coords.span_left], expected,
                               rtol=1e-9, atol=1e-15)
        assert seen == {"left", "middle", "right"}

    def test_homogeneous_recurrence_between_sources(self):
        spec = HammockSpec(3, 7)
        coords = span_coords(spec, (3, 1), (5, 2))
        values, _ = transformed_columns(spec, coords, 1.0)
        coeffs = _mode_coeffs(spec)
        offset = coords.span_left
        for k in range(-coords.span_left + 1, coords.span_right):
            if k in (-coords.p_offset, coords.q_offset):
                continue
            residual = values[:, k + 1 + offset] - coeffs * values[:, k + offset] \
                + values[:, k - 1 + offset]
            assert np.max(np.abs(residual)) < 1e-12

    def test_source_jumps_in_transformed_frame(self):
        # residual of the inhomogeneous recurrence at the two source columns
        spec = HammockSpec(2, 3)
        coords = span_coords(spec, (1, 1), (3, 2))
        x_out, x_in = solve_modes(spec, coords, 1.0)
        values, _ = transformed_columns(spec, coords, 1.0)
        chis = np.arange(spec.rows + 1) * math.pi / (2 * spec.rows + 2)
        coeffs = _mode_coeffs(spec)
        offset = coords.span_left

        def zeta(height):
            return -2.0 * np.sin(2.0 * height * chis) * np.sin(chis)

        # interior recurrence with the solve-frame sources: +J on the output
        # column, -J on the input column
        ratio = spec.ratio
        for k in range(-coords.span_left + 1, coords.span_right):
            source = np.zeros(spec.rows + 1)
            if k == coords.q_offset:
                source = ratio * 1.0 * zeta(coords.y_out)
            elif k == -coords.p_offset:
                source = -ratio * 1.0 * zeta(coords.y_in)
            residual = values[:, k + 1 + offset] - coeffs * values[:, k + offset] \
                + values[:, k - 1 + offset] + source
            assert np.max(np.abs(residual)) < 1e-12
        assert np.allclose(values[:, coords.q_offset + offset], x_out, rtol=1e-12)
        assert np.allclose(values[:, -coords.p_offset + offset], x_in, rtol=1e-12)


class TestResistanceRT:
    def test_identical_nodes_exact_zero(self):
        assert resistance_rt(HammockSpec(4, 6, r=2.0), (3, 2), (3, 2)).ohms == 0.0

    def test_three_parallel_paths(self):
        assert resistance_rt(HammockSpec(1, 2), (1, 1), (2, 1)).ohms == pytest.approx(
            0.5, abs=1e-12)

    def test_frozen_oracle_value(self):
        # exact rational solve of the full 5x7 graph with r=1, s=2
        expected = Fraction(176750820, 112946561)
        spec = HammockSpec(5, 7, r=1.0, s=2.0)
        assert resistance_rt(spec, (2, 2), (6, 4)).ohms == pytest.approx(
            float(expected), rel=1e-10)

    def test_matches_closed_form(self):
        rs = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]
        for spec in specs_upto(6, 6, rs=rs):
            for a, b in interior_pairs(spec):
                values = [resistance_rt(spec, a, b).ohms,
                          resistance_general(spec, a, b).ohms]
                assert rel_dev(values) < 1e-10

    @pytest.mark.parametrize("spec, a, b, live", [
        # two blocks and one mode, every mode live: a close pair in one
        # column, whose small R shows any table that is not rt's own
        (HammockSpec(2 * _BLOCK + 1, 3, r=0.1), (2, 12345), (2, 12346), 2 * _BLOCK + 1),
        # the live cut-off, set by the separation of 401, falls inside
        # the second block
        (HammockSpec(2 * _BLOCK + 1, 1203,
                     r=2.0 * live_ratio(2 * _BLOCK + 1, 401, _BLOCK + 5000), s=2.0),
         (401, 7), (802, 2 * _BLOCK - 2), _BLOCK + 5000),
        (HammockSpec(28, 600, r=3.0, s=2.0), (17, 3), (420, 25), 28),
        (HammockSpec(28, 600, r=0.5), (590, 27), (4, 1), 28),
        # the cut-off falls in the first block, so the three blocks and one
        # mode after it are contracted; nodes next to both hubs
        (HammockSpec(4 * _BLOCK + 1, 3000, r=3.0, s=2.0), (750, 1), (2250, 4 * _BLOCK + 1),
         8172),
    ])
    def test_sums_solve_modes_and_mode_weights(self, spec, a, b, live):
        # rt reads the very tables that solve_modes and mode_weights return
        # in its direct blocks, and contracts f*(zeta*w) past them: the
        # fsum twin is the direct per-mode sum of every mode
        coords = span_coords(spec, a, b)
        table = _decay_table(spec.rows, spec.ratio)
        assert _live_modes(coords, table) == live
        x_out, x_in = solve_modes(spec, coords, 1.0)
        twin = float(spec.s) * (math.fsum(x_out * mode_weights(spec.rows, coords.y_out))
                                - math.fsum(x_in * mode_weights(spec.rows, coords.y_in)))
        value = resistance_rt(spec, a, b).ohms
        assert abs(value - twin) <= 1e-15 * value
        # the contraction's bound in closed_form, F over the contracted folded
        # entries: f from direct to M - direct
        direct = _direct_modes(live, spec.rows)
        far = 2.0 * float(spec.r) / (spec.rows + 1) \
            * float(_free(spec.rows, spec.ratio, direct, spec.rows - direct).sum())
        assert abs(value - twin) <= _EPS * (4.0 * value + 8.0 * far)

    def test_exchange_is_bitwise(self):
        spec = HammockSpec(3, 4, r=2.0, s=0.5)
        for a, b in interior_pairs(spec):
            assert resistance_rt(spec, a, b).ohms == resistance_rt(spec, b, a).ohms


class TestReconstructCurrents:
    def test_parallel_path_decomposition(self):
        field = reconstruct_currents(HammockSpec(1, 2), (1, 1), (2, 1), 1.0)
        assert np.allclose(field.currents,
                           np.array([[-0.25, 0.25], [0.25, -0.25]]), atol=1e-12)
        rail, lattice = potential_path_check(field)
        assert rail == pytest.approx(0.5, abs=1e-12)
        assert lattice == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("injected", [math.nan, math.inf, -math.inf, "2", True,
                                          np.bool_(True), pytest.param(10 ** 400, id="10**400"),
                                          1j])
    def test_refuses_non_finite_injection(self, injected):
        # a bool, a string or a complex J is no current, and 10**400 passes the
        # float range; each route checks J before it is used
        spec = HammockSpec(3, 4)
        coords = span_coords(spec, (1, 1), (4, 3))
        for solve in (solve_modes, transformed_columns):
            with pytest.raises(LatticeError, match="finite real number"):
                solve(spec, coords, injected)
        with pytest.raises(LatticeError, match="finite real number"):
            reconstruct_currents(spec, (1, 1), (4, 3), injected)

    @pytest.mark.parametrize("shape, a, b, injected", [
        ((3, 4), (1, 1), (4, 3), 1e308),
        ((30, 40), (1, 1), (40, 30), 1e307),
        # the currents are about 3.2e307, but ratio*J*zeta overflows
        ((4, 6), (2, 1), (5, 3), 1e308),
        ((4, 6), (5, 3), (2, 1), 1e308),
    ])
    def test_refuses_currents_past_the_float_range(self, shape, a, b, injected):
        # the inverse product overflows inside BLAS, which sets no numpy flag,
        # or the mode values overflow before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LatticeError, match=re.escape(f"J={injected!r} ")):
                reconstruct_currents(HammockSpec(*shape), a, b, injected)

    def test_largest_finite_field_still_returned(self):
        field = reconstruct_currents(HammockSpec(3, 4), (1, 1), (4, 3), 4e307)
        assert np.isfinite(field.currents).all()

    def test_value_bound_spares_the_full_field_check(self, monkeypatch):
        calls = []
        check = recurrence._require_finite

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(recurrence, "_require_finite", counted)
        # the five shapes of the fields benchmark, at J = 1: the bound from
        # each chunk's values rules overflow out
        for rows, cols, ratio in ((300, 300, 0.5), (500, 1500, 3.0), (1000, 1000, 1.0),
                                  (2000, 500, 0.5), (2000, 2000, 1.0)):
            reconstruct_currents(HammockSpec(rows, cols, r=ratio), (cols // 3, rows // 4),
                                 (cols - 2, 3 * rows // 4), 1.0)
        assert not calls
        # the bound (about 4.24*J here) cannot rule overflow out, but every
        # current fits
        field = reconstruct_currents(HammockSpec(3, 4), (1, 1), (4, 3), 4.3e307)
        assert calls
        assert np.isfinite(field.currents).all()

    def test_zero_injection(self):
        field = reconstruct_currents(HammockSpec(2, 3), (1, 1), (3, 2), 0.0)
        assert np.allclose(field.currents, 0.0, atol=0.0)
        # no current, so no drop along either path
        assert potential_path_check(field) == (0.0, 0.0)

    def test_kirchhoff_balance(self):
        field = reconstruct_currents(HammockSpec(3, 4), (1, 1), (4, 3), 1.0)
        assert kirchhoff_residual(field) < 1e-10
        assert recurrence_residual(field) < 1e-10

    def test_source_sink_swap_negates(self):
        spec = HammockSpec(4, 5, r=2.0)
        forward = reconstruct_currents(spec, (2, 1), (4, 4), 1.0)
        backward = reconstruct_currents(spec, (4, 4), (2, 1), 1.0)
        assert np.array_equal(forward.currents, -backward.currents)

    def test_linearity(self):
        spec = HammockSpec(3, 3)
        unit = reconstruct_currents(spec, (1, 1), (3, 3), 1.0)
        scaled = reconstruct_currents(spec, (1, 1), (3, 3), 2.5)
        assert np.allclose(scaled.currents, 2.5 * unit.currents, rtol=1e-12)

    def test_single_column_chain_field(self):
        field = reconstruct_currents(HammockSpec(3, 1), (1, 1), (1, 3), 1.0)
        assert np.allclose(field.currents[:, 0], [0.0, 1.0, 1.0, 0.0], atol=1e-10)
        assert kirchhoff_residual(field) < 1e-12
        assert recurrence_residual(field) == 0.0

    def test_edge_column_sources(self):
        # sources on the outermost columns exercise the boundary relations
        spec = HammockSpec(2, 4, r=0.5, s=2.0)
        field = reconstruct_currents(spec, (1, 2), (4, 1), 1.5)
        assert kirchhoff_residual(field) < 1e-10 * 1.5
        assert recurrence_residual(field) < 1e-10 * 1.5

    def test_path_independence(self):
        spec = HammockSpec(4, 5, r=3.0, s=2.0)
        field = reconstruct_currents(spec, (2, 3), (5, 1), 1.0)
        rail, lattice = potential_path_check(field)
        reference = resistance_general(spec, (2, 3), (5, 1)).ohms
        assert rel_dev([rail, lattice]) < 1e-10
        assert rail == pytest.approx(reference, rel=1e-10)

    def test_path_independence_reversed(self):
        # source right of / above the sink: both path directions sign out
        spec = HammockSpec(4, 5, r=3.0, s=2.0)
        field = reconstruct_currents(spec, (5, 1), (2, 3), 1.0)
        rail, lattice = potential_path_check(field)
        reference = resistance_general(spec, (5, 1), (2, 3)).ohms
        assert rel_dev([rail, lattice]) < 1e-10
        assert rail == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("a, b", [((458, 323), (1285, 299)), ((102, 500), (453, 24))])
    def test_exact_tables_keep_audits_near_rounding(self, a, b):
        # the bounds sit 5x below what tables from rounded mode angles give
        # here (path drop off closed's R by 9.0e-12 and 8.7e-12, residual
        # 2.2e-14 and 2.5e-14) and 3x above the exact tables (5.5e-15 and
        # 6.1e-14, residual 1.1e-15 and 1.0e-15), for other BLAS builds
        spec = HammockSpec(500, 1500, r=3.0)
        field = reconstruct_currents(spec, a, b, 1.0)
        reference = resistance_general(spec, a, b).ohms
        for drop in potential_path_check(field):
            assert abs(drop - reference) <= 2e-13 * reference
        assert kirchhoff_residual(field) <= 4e-15

    @staticmethod
    def _traced_peak(spec, a, b):
        reconstruct_currents(spec, a, b, 1.0)  # warm caches
        tracemalloc.start()
        try:
            reconstruct_currents(spec, a, b, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_allocation(self):
        # the currents and chunk-sized buffers, nothing else field-sized
        spec = HammockSpec(1000, 1000)
        peak = self._traced_peak(spec, (200, 300), (800, 700))
        assert peak < 1.75 * (spec.rows + 1) * spec.cols * np.dtype(float).itemsize

    def test_wide_field_peak_allocation(self):
        # 23 chunks wide: a second field-sized array would double the peak.
        # The buffers hold a chunk's values and two half-products; the
        # widest chunk takes the folded tail, 368 columns here
        spec = HammockSpec(300, 6000)
        widest = max(stop - start for start, stop in recurrence._spans(0, spec.cols,
                                                                       recurrence._CHUNK))
        peak = self._traced_peak(spec, (1000, 100), (4000, 250))
        field = (spec.rows + 1) * spec.cols * np.dtype(float).itemsize
        assert peak < field + 3 * (spec.rows + 1) * widest * np.dtype(float).itemsize

    @pytest.mark.parametrize("spec, a, b, injected", [
        # fewer columns than a chunk
        (HammockSpec(40, 200), (20, 5), (150, 30), 1.0),
        # no multiple of the chunk: the last one takes the narrow tail
        (HammockSpec(300, 1000, r=3.0), (990, 10), (960, 280), 2.0),
        (HammockSpec(60, 777, r=0.5), (5, 7), (700, 50), 1.0),
        # the chunks holding the nodes run in narrow calls (as
        # test_node_chunks_run_in_narrow_calls checks)
        (HammockSpec(700, 900), (300, 350), (330, 600), 1.0),
        (HammockSpec(1, 600), (5, 1), (590, 1), 1.0),
        (HammockSpec(40, 1), (1, 3), (1, 30), 1.0),
        (HammockSpec(40, 600), (3, 5), (300, 30), 0.0),
        (HammockSpec(50, 300), (100, 20), (100, 20), 1.0),
        # swapped: solved for -J
        (HammockSpec(200, 700, r=1e-6), (650, 150), (40, 20), -1.7),
    ])
    def test_streamed_currents_match_the_whole_array_product(self, spec, a, b, injected):
        field = reconstruct_currents(spec, a, b, injected)
        assert field.currents.tobytes() == whole_array_currents(spec, a, b, injected).tobytes()

    def test_refuses_a_field_past_memory(self):
        # 8e14 bytes of currents pass the 47-bit address space, so the
        # allocation fails at once under any overcommit policy
        spec = HammockSpec(10 ** 7, 10 ** 7)
        with pytest.raises(LatticeError, match=r"needs 800,000,080,000,000 bytes for its "
                                               r"currents and 400,000,120,000,008 for the half"):
            reconstruct_currents(spec, (3, 3), (10 ** 7 - 2, 10 ** 7 - 5))

    @pytest.mark.parametrize("spec, a, b, injected", [
        (HammockSpec(300, 300, r=0.5), (80, 120), (210, 40), 1.0),
        (HammockSpec(2000, 500, r=0.5), (303, 88), (155, 1598), -1.7),
    ])
    def test_within_the_stated_rounding_bound(self, spec, a, b, injected):
        # each current within gamma_k * sum(|half| * |values|) over both
        # half-products, k = ceil(depth/2) + 1, of the same product in long
        # double; plus that sum's own long-double rounding
        coords = span_coords(spec, a, b)
        values, kept = transformed_columns(spec, coords, injected if coords.swapped else -injected)
        field = reconstruct_currents(spec, a, b, injected)
        inverse = unfolded_inverse(spec.rows).astype(np.longdouble)
        x_in, x_out = coords.node_in.x, coords.node_out.x
        # the node columns, where every mode is kept, and shallower ones
        # between the nodes and at both sides
        for column in (x_in - 1, x_out - 1, (x_in + x_out) // 2, 0, spec.cols - 1):
            depth = int(kept[column]) + 1
            column_values = values[:, column].astype(np.longdouble)
            exact = inverse @ column_values
            scale = np.abs(inverse) @ np.abs(column_values)
            k = -(-depth // 2) + 1
            gamma = k * (_EPS / 2) / (1 - k * (_EPS / 2))
            slack = spec.rows * float(np.finfo(np.longdouble).eps)
            error = np.abs(field.currents[:, column] - exact)
            assert np.all(error <= (gamma + slack) * scale), (column, depth)

    def test_no_kept_entry_is_subnormal(self):
        # a kept entry is at least (|w_i|/env_i)*eps*|J|/4 and a dropped one
        # exactly zero, so nothing lands between zero and the smallest normal
        rng = np.random.default_rng(12)
        tiny = np.finfo(float).tiny
        shapes = [(1, 40), (2, 3000), (8, 400), (40, 1000), (300, 300), (600, 90)]
        for (rows, cols), ratio in itertools.product(shapes, (1e-12, 1e-4, 0.3, 1.0, 7.0, 1e4)):
            spec = HammockSpec(rows, cols, r=ratio)
            for injected in (1e-250, -1e-120, 1.0, 1e120, -1e250):
                a, b = [(int(rng.integers(1, cols + 1)), int(rng.integers(1, rows + 1)))
                        for _ in range(2)]
                values, _ = transformed_columns(spec, span_coords(spec, a, b), injected)
                kept = np.abs(values[values != 0.0])
                assert not np.any(kept < tiny), (spec, a, b, injected)


class TestModeTruncation:
    """Each column keeps a prefix of the modes; the dropped ones move no
    link current by more than the field's stated bound."""

    @pytest.mark.parametrize("spec, a, b, injected", [
        (HammockSpec(400, 1200), (3, 50), (40, 300), 1.3),
        (HammockSpec(400, 1200, r=0.5, s=2.0), (1195, 390), (1150, 12), -0.6),
        # 300 rows x 1000 columns; 1000 rows x 300 columns is one chunk wide
        (HammockSpec(300, 1000, r=3.0), (990, 10), (960, 280), 2.0),
        # the product chunk of columns 256..511 covers the full-depth region
        # chunk next to the sink column (99) and a shallow one after it
        (HammockSpec(300, 2000), (20, 40), (100, 250), 1.0),
        # 700 rows: the chunks holding the nodes run in narrow calls
        (HammockSpec(700, 900), (300, 350), (330, 600), 1.0),
    ])
    def test_within_bound_of_every_mode(self, monkeypatch, spec, a, b, injected):
        coords = span_coords(spec, a, b)
        # the sign the field is solved with
        signed = injected if coords.swapped else -injected
        _, kept = transformed_columns(spec, coords, signed)
        assert kept.sum() < 0.6 * spec.rows * spec.cols
        field = reconstruct_currents(spec, a, b, injected)
        assert field.truncation_bound == np.finfo(float).eps * abs(injected)

        monkeypatch.setattr(recurrence, "_DROP_TOLERANCE", 0.0)
        every_values, every = transformed_columns(spec, coords, signed)
        assert np.all(every == spec.rows)
        # the folded product over every mode in the same column calls, so
        # that only the dropped modes, and not the order of the BLAS sums,
        # tell the two apart
        half = recurrence.mode_transform(spec.rows)
        full = np.empty_like(field.currents)
        for first, stop in (call for *_, calls in recurrence._product_calls(kept)
                            for call in calls):
            even = half[0::2].T @ every_values[0::2, first:stop]
            odd = half[1::2].T @ every_values[1::2, first:stop]
            full[:half.shape[1], first:stop] = even + odd
            full[half.shape[1]:, first:stop][::-1] = (even - odd)[:spec.rows + 1 - half.shape[1]]
        assert np.abs(field.currents - full).max() <= field.truncation_bound

    @pytest.mark.parametrize("spec, a, b, injected", [
        # under 512 columns, where whole-chunk truncation kept every mode
        (HammockSpec(300, 300, r=0.5), (100, 50), (200, 250), 1.0),
        (HammockSpec(60, 400, r=2.0), (399, 5), (12, 59), -0.4),
        (HammockSpec(400, 1200), (3, 50), (40, 300), 1.3),
    ])
    def test_kept_is_each_columns_depth(self, spec, a, b, injected):
        coords = span_coords(spec, a, b)
        _, kept = transformed_columns(spec, coords, injected)
        two_log = 2.0 * _rates(spec.rows, spec.ratio, 0, spec.rows)
        tolerance = recurrence._DROP_TOLERANCE * abs(injected)
        expected = np.zeros(spec.cols, dtype=int)
        for first, weight, exponent_arrays in recurrence._region_terms(spec, coords, injected, two_log):
            envelope = np.maximum.accumulate(np.abs(weight)[::-1])[::-1]
            for exponents in exponent_arrays:
                # a column keeps each mode while that mode's bound and the
                # bounds of every mode before it reach the tolerance
                depth = np.zeros(len(exponents), dtype=int)
                alive = np.ones(len(exponents), dtype=bool)
                for i in range(spec.rows):
                    alive &= envelope[i] * np.exp(two_log[i] * exponents) >= tolerance
                    depth += alive
                start = first + coords.span_left
                columns = slice(start, start + len(exponents))
                expected[columns] = np.maximum(expected[columns], depth)
        assert np.array_equal(kept, expected)
        assert kept.sum() < spec.rows * spec.cols

    def test_node_chunks_run_in_narrow_calls(self):
        spec = HammockSpec(700, 900)
        _, kept = transformed_columns(spec, span_coords(spec, (300, 350), (330, 600)), 1.0)
        chunks = list(recurrence._product_calls(kept))
        # each chunk's calls tile the chunk, and the calls the columns, in order
        for start, stop, chunk_calls in chunks:
            assert (chunk_calls[0][0], chunk_calls[-1][1]) == (start, stop)
        calls = [call for *_, chunk_calls in chunks for call in chunk_calls]
        assert [first for first, _ in calls] == [0] + [stop for _, stop in calls[:-1]]
        assert calls[-1][1] == spec.cols
        narrow = [(first, stop) for first, stop in calls
                  if stop - first < recurrence._CHUNK]
        for column in (299, 329):
            assert any(first <= column < stop for first, stop in narrow)

    def test_zero_injection_keeps_no_mode(self):
        spec = HammockSpec(40, 600)
        values, kept = transformed_columns(spec, span_coords(spec, (3, 5), (300, 30)), 0.0)
        assert not kept.any()
        assert not values.any()
        field = reconstruct_currents(spec, (3, 5), (300, 30), 0.0)
        assert field.truncation_bound == 0.0
        assert not field.currents.any()


class TestRowBlockedAudits:
    @pytest.mark.parametrize("spec, a, b, injected", [
        # 40-row blocks: the source sits in the last row of the first
        # block, the sink in the first row of the second
        (HammockSpec(300, 400, r=2.0), (7, 40), (390, 41), 1.3),
        # source and sink on one row
        (HammockSpec(200, 500), (10, 77), (480, 77), -0.7),
        # more columns than a block holds: one row per block
        (HammockSpec(3, 70000, r=0.5), (5, 1), (69000, 3), 1.0),
        (HammockSpec(1, 5), (1, 1), (5, 1), 2.0),
        (HammockSpec(5, 1), (1, 5), (1, 2), 1.0),
    ])
    def test_kirchhoff_matches_full_array_formula(self, spec, a, b, injected):
        field = reconstruct_currents(spec, a, b, injected)
        rows, cols = spec.rows, spec.cols
        # a consistent field, then one bad link near each end of the audit
        for link in (None, (0, 0), (rows - 1, cols - 1), (rows, cols // 2)):
            currents = field.currents.copy()
            if link is not None:
                currents[link] += 1e-6 * injected
            audited = dataclasses.replace(field, currents=currents)
            expected = full_kirchhoff_residual(audited)
            assert kirchhoff_residual(audited) == pytest.approx(
                expected, rel=0.0, abs=1e-15 * abs(injected))
            if link is not None:
                assert expected >= 1e-7 * abs(injected)

    @pytest.mark.parametrize("spec, a, b, injected", [
        (HammockSpec(150, 900, r=0.5, s=2.0), (20, 30), (870, 140), 1.1),
        # narrow: a block holds hundreds of rows
        (HammockSpec(1500, 20, r=2.0), (3, 700), (18, 1), -0.8),
    ])
    def test_kirchhoff_bitwise_matches_cumulative_sum_blocks(self, spec, a, b, injected):
        field = reconstruct_currents(spec, a, b, injected)
        noise = np.random.default_rng(3).standard_normal(field.currents.shape)
        noisy = dataclasses.replace(field, currents=field.currents + 1e-9 * noise)
        for audited in (field, noisy):
            assert kirchhoff_residual(audited) == cumsum_kirchhoff_residual(audited)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS,
                        reason="a binary64 long double cannot resolve the field's error")
    @pytest.mark.parametrize("spec, a, b", [
        # tall: differencing two potentials would read 20x the field's error
        (HammockSpec(2000, 500, r=0.5), (303, 88), (155, 1598)),
        (HammockSpec(300, 300, r=0.5), (80, 120), (210, 40)),
        (HammockSpec(1000, 1000), (200, 300), (800, 700)),
        (HammockSpec(2000, 2000), (1500, 100), (300, 1900)),
        # tall and narrow: hundreds of rows per block
        (HammockSpec(4000, 20, r=2.0), (3, 1400), (18, 2800)),
    ])
    def test_kirchhoff_reads_the_fields_error(self, spec, a, b):
        # the audit's own rounding stays below the field's imbalance
        field = reconstruct_currents(spec, a, b, 1.0)
        reference = long_double_kirchhoff_residual(field)
        assert kirchhoff_residual(field) == pytest.approx(reference, rel=0.1, abs=0.0)

    @pytest.mark.parametrize("spec, a, b, injected", [
        (HammockSpec(6, 1), (1, 2), (1, 5), 1.0),
        (HammockSpec(7, 2, r=2.0), (1, 3), (2, 6), -1.3),
        # hundreds of rows per block
        (HammockSpec(1500, 20, r=2.0), (1, 700), (20, 1), 0.8),
        # one row per block
        (HammockSpec(3, 70000, r=0.5), (70000, 2), (1, 3), 1.0),
    ])
    def test_kirchhoff_flags_seam_and_edge_defects(self, spec, a, b, injected):
        # the differences that step from a row's last column into the next
        # row's first are zeroed; a bad link on either side of that seam, at
        # the first columns of link row 0 or on the top rail still shows
        field = reconstruct_currents(spec, a, b, injected)
        rows, cols, middle = spec.rows, spec.cols, spec.rows // 2
        for link in {(middle, cols - 1), (middle + 1, 0), (0, 0), (0, min(1, cols - 1)),
                     (rows, cols // 2)}:
            currents = field.currents.copy()
            currents[link] += 1e-6 * injected
            audited = dataclasses.replace(field, currents=currents)
            assert kirchhoff_residual(audited) >= 1e-7 * abs(injected), link

    def test_audits_allocate_no_full_array(self):
        spec = HammockSpec(1000, 1000)
        field = reconstruct_currents(spec, (200, 300), (800, 700), 1.0)
        tracemalloc.start()
        try:
            kirchhoff_residual(field)
            potential_path_check(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < spec.rows * spec.cols * np.dtype(float).itemsize


class TestFieldsWithoutWarnings:
    """Fields well past the size where raw amplitudes overflow, built with
    RuntimeWarnings raised as errors."""

    @pytest.mark.parametrize("spec, a, b, injected", [
        (HammockSpec(300, 300, r=0.5), (80, 120), (210, 40), 1.0),
        (HammockSpec(40, 2000, r=3.0), (150, 7), (1800, 33), 1.7),
        # source in the first column: no left region
        (HammockSpec(60, 400), (1, 20), (250, 45), 0.8),
        # sink in the last column: no right region
        (HammockSpec(60, 400, r=2.0), (130, 5), (400, 59), 1.0),
        # source in the last column, sink in the first: neither
        (HammockSpec(60, 400, s=2.0), (400, 30), (1, 2), 2.5),
    ])
    def test_audits(self, spec, a, b, injected):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            field = reconstruct_currents(spec, a, b, injected)
            residual = kirchhoff_residual(field)
            drops = potential_path_check(field)
            reference = resistance_general(spec, a, b).ohms
        assert residual <= 1e-9 * injected
        for drop in drops:
            assert drop == pytest.approx(reference, rel=1e-9)


class TestCurrentFieldExport:
    def test_csv(self):
        field = reconstruct_currents(HammockSpec(1, 2), (1, 1), (2, 1), 1.0)
        lines = field.to_csv().strip().splitlines()
        assert lines[0] == "k,i,current"
        assert len(lines) == 1 + 2 * 2
        ks = {int(line.split(",")[0]) for line in lines[1:]}
        assert ks == {0, 1}  # span frame puts the input column at k = 0 here

    def test_json_round_trip(self):
        field = reconstruct_currents(HammockSpec(2, 3), (1, 1), (3, 2), 2.0)
        payload = json.loads(field.to_json())
        assert payload["J"] == 2.0
        assert payload["truncation_bound"] == field.truncation_bound
        assert payload["source"] == "1,1"
        assert payload["sink"] == "3,2"
        columns = {entry["k"]: entry["currents"] for entry in payload["columns"]}
        assert len(columns) == 3
        x = 2
        k = field.column_label(x)
        assert np.allclose(columns[k], field.currents[:, x - 1])

    def test_same_node_zero_field(self):
        for spec, node in [(HammockSpec(1, 1), (1, 1)), (HammockSpec(2, 2), (1, 1)),
                           (HammockSpec(5, 7, r=3.0, s=2.0), (4, 3))]:
            field = reconstruct_currents(spec, node, node, 1.0)
            assert not field.currents.any()
            assert kirchhoff_residual(field) == 0.0
            assert potential_path_check(field) == (0.0, 0.0)
