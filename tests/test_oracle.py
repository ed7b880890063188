"""Dense float/rational/eigen oracles on the full graph."""

import ast
import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest

from hammocknet import (
    GridNode,
    HammockSpec,
    SizeCapError,
    Terminal,
    build_full_laplacian,
    build_second_minor,
    kirchhoff_index,
    resistance_dense,
    resistance_eigen_full,
    resistance_matrix,
)
from hammocknet import oracle

from _util import all_nodes, rel_dev, specs_upto


class TestFullLaplacian:
    def test_two_spoke_path(self):
        full = build_full_laplacian(HammockSpec(1, 1))
        expected = np.array([[1., -1., 0.], [-1., 2., -1.], [0., -1., 1.]])
        assert np.array_equal(full.matrix, expected)

    def test_structure(self):
        for spec in specs_upto(4, 4, rs=[(1.0, 1.0), (2.0, 0.5)]):
            matrix = build_full_laplacian(spec).matrix
            assert np.array_equal(matrix, matrix.T)
            off = matrix - np.diag(np.diag(matrix))
            assert np.all(off <= 0.0)
            assert np.allclose(matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_rank_deficiency_is_one(self):
        spec = HammockSpec(3, 3, r=2.0)
        eigenvalues = np.linalg.eigvalsh(build_full_laplacian(spec).matrix)
        assert abs(eigenvalues[0]) < 1e-12
        assert eigenvalues[1] > 1e-8

    def test_hub_row_values(self):
        spec = HammockSpec(3, 4, s=2.0)
        full = build_full_laplacian(spec)
        assert full.matrix[0, 0] == spec.cols * (1.0 / 2.0)
        bottom = [full.index(GridNode(x, 1)) for x in range(1, 5)]
        assert all(full.matrix[0, i] == -0.5 for i in bottom)
        assert all(full.matrix[0, i] == 0.0
                   for i in range(1, 13) if i not in bottom)

    def test_minor_deletion_matches_exactly(self):
        for spec in (HammockSpec(3, 4), HammockSpec(2, 2, r=2.0, s=1.0)):
            full = build_full_laplacian(spec).matrix
            assert np.array_equal(full[1:-1, 1:-1], build_second_minor(spec))

    def test_float_matches_exact_stamping(self):
        spec = HammockSpec(3, 4, r=0.3, s=1.7)
        exact = np.array(oracle._rational_laplacian(spec), dtype=float)
        assert np.allclose(build_full_laplacian(spec).matrix, exact, rtol=1e-15, atol=0.0)

    def test_independent_of_spectral(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert "spectral" not in imported
        assert "build_second_minor" not in inspect.getsource(oracle)

    def test_node_indexing(self):
        spec = HammockSpec(2, 3)
        full = build_full_laplacian(spec)
        assert full.index(Terminal.BOTTOM) == 0
        assert full.index(Terminal.TOP) == 7
        assert full.index(GridNode(3, 2)) == 6


class TestResistanceDense:
    def test_single_edge_and_series(self):
        spec = HammockSpec(1, 1)
        assert resistance_dense(spec, (1, 1), "O").ohms == pytest.approx(1.0, abs=1e-14)
        assert resistance_dense(spec, "O", "OP").ohms == pytest.approx(2.0, abs=1e-14)
        scaled = HammockSpec(1, 1, s=2.5)
        assert resistance_dense(scaled, "O", "OP").ohms == pytest.approx(5.0, abs=1e-13)

    def test_frozen_exact_value(self):
        result = resistance_dense(HammockSpec(2, 2), (1, 1), (2, 2), "rational")
        assert result.meta["exact"] == Fraction(5, 6)
        assert result.ohms == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_float_vs_rational(self):
        for spec in specs_upto(4, 4):
            nodes = all_nodes(spec)
            for a, b in itertools.combinations(nodes, 2):
                fl = resistance_dense(spec, a, b, "float").ohms
                ra = resistance_dense(spec, a, b, "rational").ohms
                assert rel_dev([fl, ra]) < 1e-12

    def test_exact_rational_inputs(self):
        spec = HammockSpec(2, 2, r=Fraction(1, 3), s=Fraction(2, 7))
        result = resistance_dense(spec, (1, 1), (2, 2), "rational")
        assert result.meta["exact"].denominator > 1
        fl = resistance_dense(HammockSpec(2, 2, r=1 / 3, s=2 / 7), (1, 1), (2, 2)).ohms
        assert result.ohms == pytest.approx(fl, rel=1e-12)

    def test_symmetry_and_zero(self):
        spec = HammockSpec(3, 2, r=2.0)
        assert resistance_dense(spec, (1, 2), (1, 2)).ohms == 0.0
        assert resistance_dense(spec, (1, 2), (1, 2), "rational").meta["exact"] == 0
        for a, b in [((1, 1), (2, 3)), ("O", (2, 2)), ((1, 3), "OP")]:
            assert resistance_dense(spec, a, b).ohms == pytest.approx(
                resistance_dense(spec, b, a).ohms, rel=1e-12)

    def test_grounding_choice_independence(self):
        # grounding a with unit current at b must give the same value
        spec = HammockSpec(3, 3, r=0.5, s=2.0)
        for a, b in [((1, 1), (3, 3)), ((2, 2), "O")]:
            forward = resistance_dense(spec, a, b).ohms
            backward = resistance_dense(spec, b, a).ohms
            assert rel_dev([forward, backward]) < 1e-12

    def test_cap(self):
        spec = HammockSpec(3, 3)
        with pytest.raises(SizeCapError):
            resistance_dense(spec, (1, 1), (3, 3), "rational", cap=5)
        with pytest.raises(SizeCapError):
            resistance_dense(spec, (1, 1), (3, 3), "float", cap=5)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(oracle.RATIONAL_CAP_ENV, "5")
        with pytest.raises(SizeCapError):
            resistance_dense(HammockSpec(3, 3), (1, 1), (3, 3), "rational")
        monkeypatch.setenv(oracle.RATIONAL_CAP_ENV, "500")
        assert resistance_dense(HammockSpec(3, 3), (1, 1), (3, 3), "rational").ohms > 0

    def test_unknown_arithmetic(self):
        with pytest.raises(ValueError):
            resistance_dense(HammockSpec(1, 1), (1, 1), "O", "decimal")


class TestResistanceEigenFull:
    def test_identical_nodes(self):
        assert resistance_eigen_full(HammockSpec(2, 2), (1, 1), (1, 1)).ohms == 0.0

    def test_three_parallel_paths(self):
        assert resistance_eigen_full(HammockSpec(1, 2), (1, 1), (2, 1)).ohms == \
            pytest.approx(0.5, rel=1e-10)

    def test_matches_dense_incl_terminals(self):
        spec = HammockSpec(3, 3)
        for a, b in [("O", (2, 2)), ((1, 1), (3, 2)), ("O", "OP")]:
            eig = resistance_eigen_full(spec, a, b).ohms
            dense = resistance_dense(spec, a, b).ohms
            assert rel_dev([eig, dense]) < 1e-8


class TestResistanceMatrix:
    def test_matches_pairwise_solves(self):
        spec = HammockSpec(2, 3, r=2.0, s=3.0)
        full = build_full_laplacian(spec)
        table = resistance_matrix(spec)
        exact = resistance_matrix(spec, "rational")
        for a, b in itertools.combinations(all_nodes(spec), 2):
            i, j = full.index(a), full.index(b)
            direct = resistance_dense(spec, a, b, "rational").meta["exact"]
            assert exact[i][j] == direct
            assert table[i, j] == pytest.approx(float(direct), rel=1e-12)


class TestKirchhoffIndex:
    def test_two_spoke_path(self):
        assert kirchhoff_index(HammockSpec(1, 1), "rational") == Fraction(4)
        assert kirchhoff_index(HammockSpec(1, 1)) == pytest.approx(4.0, rel=1e-12)

    def test_frozen_exact_total(self):
        assert kirchhoff_index(HammockSpec(2, 2), "rational") == Fraction(127, 10)

    def test_positive(self):
        for spec in (HammockSpec(1, 1), HammockSpec(2, 4, r=0.5)):
            assert kirchhoff_index(spec) > 0.0

    def test_scales_with_resistance(self):
        base = kirchhoff_index(HammockSpec(2, 3), "rational")
        scaled = kirchhoff_index(HammockSpec(2, 3, r=3, s=3), "rational")
        assert scaled == 3 * base
