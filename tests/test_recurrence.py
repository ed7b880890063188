"""Recurrence-transform route: transform, mode solve, fields and audits."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hammocknet import (
    HammockSpec,
    LatticeError,
    coupling_matrix,
    kirchhoff_residual,
    mode_transform,
    mode_weights,
    potential_path_check,
    reconstruct_currents,
    recurrence_residual,
    resistance_general,
    resistance_rt,
    solve_modes,
    span_coords,
    transformed_columns,
)
from hammocknet import recurrence
from hammocknet.closed_form import _decay_table

from _util import interior_pairs, region_amplitudes, rel_dev, specs_upto


def _mode_coeffs(spec):
    """Recurrence coefficients 2*cosh(2h) of modes 1..M+1 from the decay table."""
    return np.concatenate(([2.0], 2.0 * np.cosh(2.0 * _decay_table(spec.rows, spec.ratio))))


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


class TestModeTransform:
    def test_two_row_entries(self):
        pair = mode_transform(1)
        assert np.allclose(pair.forward[0], [1.0, 1.0])
        assert np.allclose(pair.forward[1],
                           [math.cos(math.pi / 4), math.cos(3 * math.pi / 4)])

    def test_inverse(self):
        for rows in range(1, 9):
            pair = mode_transform(rows)
            assert np.allclose(pair.forward @ pair.inverse,
                               np.eye(rows + 1), atol=1e-12)

    def test_diagonalises_coupling(self):
        for rows in range(1, 9):
            pair = mode_transform(rows)
            chis = np.arange(rows + 1) * math.pi / (2 * rows + 2)
            product = pair.forward @ coupling_matrix(rows) @ pair.inverse
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
            pair = mode_transform(rows)
            for y in range(0, rows + 2):
                direct = pair.inverse[y:, :].sum(axis=0)
                assert np.allclose(mode_weights(rows, y), direct, atol=1e-12)

    def test_range(self):
        with pytest.raises(LatticeError):
            mode_weights(3, 5)


class TestSolveModes:
    def test_uniform_mode_value(self):
        spec = HammockSpec(4, 5)
        coords = span_coords(spec, (2, 1), (4, 3))
        _, x_out, x_in = solve_modes(spec, coords, 2.0)
        assert x_out[0] == pytest.approx(-2.0 * (3 - 1) / 5)
        assert x_in[0] == x_out[0]

    def test_mirror_antisymmetry(self):
        # p == q, equal heights, equal spans: output modes negate input modes
        spec = HammockSpec(3, 5)
        coords = span_coords(spec, (2, 2), (4, 2))
        assert coords.p_offset == coords.q_offset
        assert coords.span_left == coords.span_right
        _, x_out, x_in = solve_modes(spec, coords, 1.0)
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
        sol, _, _ = solve_modes(spec, coords, 1.5)
        values = transformed_columns(sol)
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
        sol, _, _ = solve_modes(spec, coords, 1.0)
        values = transformed_columns(sol)
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
        sol, x_out, x_in = solve_modes(spec, coords, 1.0)
        values = transformed_columns(sol)
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

    def test_zero_injection(self):
        field = reconstruct_currents(HammockSpec(2, 3), (1, 1), (3, 2), 0.0)
        assert np.allclose(field.currents, 0.0, atol=0.0)

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

    def test_subnormals_flushed(self, monkeypatch):
        # near the left end, columns ~250 from the nodes decay below the
        # smallest normal double
        spec = HammockSpec(8, 400, r=4.0)
        coords = span_coords(spec, (1, 2), (3, 7))
        sol, _, _ = solve_modes(spec, coords, 1.0)
        flushed = transformed_columns(sol)
        monkeypatch.setattr(recurrence, "_flush_subnormals", lambda values: None)
        raw = transformed_columns(sol)
        tiny = np.finfo(float).tiny
        assert np.count_nonzero((raw != 0.0) & (np.abs(raw) < tiny)) > 0
        assert np.count_nonzero((flushed != 0.0) & (np.abs(flushed) < tiny)) == 0
        inverse = mode_transform(spec.rows).inverse
        # the flushed entries sit far below every product's last digit
        np.testing.assert_allclose(inverse @ flushed, inverse @ raw, rtol=1e-15, atol=1e-300)


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
        assert payload["source"] == "1,1"
        assert payload["sink"] == "3,2"
        columns = {entry["k"]: entry["currents"] for entry in payload["columns"]}
        assert len(columns) == 3
        x = 2
        k = field.column_label(x)
        assert np.allclose(columns[k], field.currents[:, x - 1])

    def test_same_node_zero_field(self):
        field = reconstruct_currents(HammockSpec(2, 2), (1, 1), (1, 1), 1.0)
        assert np.allclose(field.currents, 0.0, atol=1e-15)
        assert potential_path_check(field) == (0.0, 0.0)
