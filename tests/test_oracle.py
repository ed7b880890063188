"""Dense float/rational/eigen oracles on the full graph."""

import ast
import inspect
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hammocknet import (
    GridNode,
    HammockSpec,
    LatticeError,
    SizeCapError,
    Terminal,
    build_full_laplacian,
    build_second_minor,
    node_index,
    resistance_dense,
    resistance_eigen_full,
    resistance_matrix,
)
from hammocknet import oracle

from _util import all_nodes, rel_dev, specs_upto


def _gauss_jordan_inverse(matrix):
    """Reference inverse in Fractions, by Gauss-Jordan with row swaps."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            return None
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        aug[k] = [v / pivot for v in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                factor = aug[i][k]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def _determinant(matrix):
    """Reference determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * v * _determinant([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j, v in enumerate(matrix[0]) if v)


def _random_rational(rng, low=-5, high=5):
    return Fraction(rng.randint(low, high), rng.randint(1, 4))


class TestFullLaplacian:
    def test_two_spoke_path(self):
        full = build_full_laplacian(HammockSpec(1, 1))
        expected = np.array([[1., -1., 0.], [-1., 2., -1.], [0., -1., 1.]])
        assert np.array_equal(full, expected)
        assert not full.flags.writeable

    def test_structure(self):
        for spec in specs_upto(4, 4, rs=[(1.0, 1.0), (2.0, 0.5)]):
            matrix = build_full_laplacian(spec)
            assert np.array_equal(matrix, matrix.T)
            off = matrix - np.diag(np.diag(matrix))
            assert np.all(off <= 0.0)
            assert np.allclose(matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_rank_deficiency_is_one(self):
        spec = HammockSpec(3, 3, r=2.0)
        eigenvalues = np.linalg.eigvalsh(build_full_laplacian(spec))
        assert abs(eigenvalues[0]) < 1e-12
        assert eigenvalues[1] > 1e-8

    def test_hub_row_values(self):
        spec = HammockSpec(3, 4, s=2.0)
        full = build_full_laplacian(spec)
        assert full[0, 0] == spec.cols * (1.0 / 2.0)
        bottom = [node_index(spec, GridNode(x, 1)) for x in range(1, 5)]
        assert all(full[0, i] == -0.5 for i in bottom)
        assert all(full[0, i] == 0.0
                   for i in range(1, 13) if i not in bottom)

    def test_minor_deletion_matches_exactly(self):
        for spec in (HammockSpec(3, 4), HammockSpec(2, 2, r=2.0, s=1.0)):
            full = build_full_laplacian(spec)
            assert np.array_equal(full[1:-1, 1:-1], build_second_minor(spec))

    def test_float_matches_exact_stamping(self):
        spec = HammockSpec(3, 4, r=0.3, s=1.7)
        exact = np.array(oracle._rational_laplacian(spec), dtype=float)
        assert np.allclose(build_full_laplacian(spec), exact, rtol=1e-15, atol=0.0)

    def test_independent_of_spectral(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        assert "spectral" not in imported
        assert "build_second_minor" not in inspect.getsource(oracle)

    def test_node_indexing(self):
        # rows follow node_index: hubs first and last, each of degree N/s
        spec = HammockSpec(2, 3, s=2.0)
        full = build_full_laplacian(spec)
        assert full.shape == (spec.node_count, spec.node_count)
        assert node_index(spec, Terminal.BOTTOM) == 0
        assert node_index(spec, Terminal.TOP) == 7
        assert node_index(spec, GridNode(3, 2)) == 6
        assert full[0, 0] == full[7, 7] == 1.5
        assert full[7, 6] == -0.5 and full[0, 6] == 0.0


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
        for arithmetic in ("rational", "float"):
            with pytest.raises(SizeCapError) as refused:
                resistance_dense(spec, (1, 1), (3, 3), arithmetic, cap=5)
            # what the CLI's skip notes are written from
            assert (refused.value.nodes, refused.value.label, refused.value.cap) == (
                11, arithmetic, 5)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(oracle.RATIONAL_CAP_ENV, "5")
        with pytest.raises(SizeCapError):
            resistance_dense(HammockSpec(3, 3), (1, 1), (3, 3), "rational")
        monkeypatch.setenv(oracle.RATIONAL_CAP_ENV, "500")
        assert resistance_dense(HammockSpec(3, 3), (1, 1), (3, 3), "rational").ohms > 0

    def test_unknown_arithmetic(self):
        with pytest.raises(ValueError):
            resistance_dense(HammockSpec(1, 1), (1, 1), "O", "decimal")
        with pytest.raises(LatticeError, match="decimal"):
            resistance_dense(HammockSpec(1, 1), (1, 1), "O", "decimal")
        with pytest.raises(LatticeError, match="decimal"):
            resistance_matrix(HammockSpec(1, 1), "decimal")


class TestBareissSolve:
    @staticmethod
    def _check(matrix, rhs_columns):
        solutions = oracle._bareiss_solve(matrix, rhs_columns)
        assert len(solutions) == len(rhs_columns)
        for x, b in zip(solutions, rhs_columns):
            assert all(isinstance(v, Fraction) for v in x)
            assert [sum(a * v for a, v in zip(row, x)) for row in matrix] == list(b)
        return solutions

    def test_random_systems_solve_exactly(self):
        rng = random.Random(8)
        solved = 0
        for trial in range(120):
            n = rng.randint(1, 5)
            density = 1.0 if trial % 2 else 0.4  # sparse systems need row swaps
            matrix = [[_random_rational(rng) if rng.random() < density else Fraction(0)
                       for _ in range(n)] for _ in range(n)]
            inverse = _gauss_jordan_inverse(matrix)
            if inverse is None:
                with pytest.raises(ArithmeticError):
                    oracle._bareiss_solve(matrix, [[Fraction(1)] * n])
                continue
            rhs = [[_random_rational(rng) for _ in range(n)] for _ in range(3)]
            solutions = self._check(matrix, rhs)
            for x, b in zip(solutions, rhs):
                assert x == [sum(g * v for g, v in zip(row, b)) for row in inverse]
            solved += 1
        assert solved > 60

    def test_last_pivot_is_the_determinant(self):
        # D must be +-det of the row-scaled matrix for y = D*x to be integral
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 5)
            matrix = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(n)]
                      for _ in range(n)]
            determinant = _determinant(matrix)
            if determinant == 0:
                continue
            _, det = oracle._bareiss_numerators(matrix, [[1] * n])
            assert abs(det) == abs(determinant)

    def test_zero_leading_pivot_swaps_rows(self):
        matrix = [[0, Fraction(1, 2), 2], [3, 1, 0], [1, 0, Fraction(5, 3)]]
        self._check(matrix, [[1, 0, 0], [Fraction(2, 7), -1, 3], [0, 0, 0]])

    def test_zero_pivot_after_elimination_swaps_rows(self):
        # step 0 leaves row 1 as [0, 0, 2], so step 1 must swap in row 2,
        # which step 0 left alone and which still needs the first pivot's scale
        matrix = [[2, 2, 0], [2, 2, 1], [0, 1, 1]]
        self._check(matrix, [[1, 2, 3], [0, Fraction(1, 3), 0]])

    def test_singular_system_raises(self):
        with pytest.raises(ArithmeticError):
            oracle._bareiss_solve([[1, 2], [2, 4]], [[1, 1]])

    def test_numerators_share_one_denominator(self):
        matrix = oracle._grounded_system_rational(HammockSpec(2, 2, r=Fraction(1, 3)), 5)
        identity = [[int(i == j) for i in range(5)] for j in range(5)]
        numerators, det = oracle._bareiss_numerators(matrix, identity)
        assert all(isinstance(y, int) for row in numerators for y in row)
        inverse = _gauss_jordan_inverse(matrix)
        assert [[Fraction(y, det) for y in row] for row in numerators] == inverse


class TestResistanceEigenFull:
    def test_identical_nodes(self):
        assert resistance_eigen_full(HammockSpec(2, 2), (1, 1), (1, 1)).ohms == 0.0

    def test_identical_nodes_skip_the_laplacian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Laplacian built for identical nodes")
        monkeypatch.setattr(oracle, "_laplacian", refuse)
        oracle._eigenpairs.cache_clear()
        assert resistance_eigen_full(HammockSpec(2, 3), "O", "O").ohms == 0.0
        assert resistance_eigen_full(HammockSpec(2, 3), (2, 1), (2, 1)).ohms == 0.0

    def test_rejects_nodes_outside_the_grid(self):
        for a, b in [((9, 9), (9, 9)), ((1, 1), (4, 1)), ("O", (1, 0))]:
            with pytest.raises(LatticeError):
                resistance_eigen_full(HammockSpec(3, 3), a, b)
            with pytest.raises(LatticeError):
                resistance_dense(HammockSpec(3, 3), a, b)

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
        table = resistance_matrix(spec)
        exact = resistance_matrix(spec, "rational")
        for a, b in itertools.combinations(all_nodes(spec), 2):
            i, j = node_index(spec, a), node_index(spec, b)
            direct = resistance_dense(spec, a, b, "rational").meta["exact"]
            assert exact[i][j] == direct
            assert table[i, j] == pytest.approx(float(direct), rel=1e-12)


    def test_rational_table_matches_gauss_jordan(self):
        rng = random.Random(3)
        for rows, cols in itertools.product(range(1, 5), repeat=2):
            spec = HammockSpec(rows, cols, Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                               Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            dim = spec.node_count
            n = dim - 1
            green = _gauss_jordan_inverse(oracle._grounded_system_rational(spec, n))
            expected = [[Fraction(0)] * dim for _ in range(dim)]
            for i, j in itertools.product(range(n), repeat=2):
                expected[i][j] = green[i][i] + green[j][j] - 2 * green[i][j]
            for i in range(n):
                expected[i][n] = expected[n][i] = green[i][i]
            assert resistance_matrix(spec, "rational") == expected


class TestEigenpairCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        oracle._eigenpairs.cache_clear()
        yield
        oracle._eigenpairs.cache_clear()

    @staticmethod
    def _count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_hub_queries_decompose_once(self, monkeypatch):
        calls = self._count_eigh(monkeypatch)
        spec = HammockSpec(4, 5, r=1.5, s=0.5)
        for a, b in [("O", (2, 3)), ((2, 3), "OP"), ("O", "OP")]:
            eig = resistance_eigen_full(spec, a, b).ohms
            assert rel_dev([eig, resistance_dense(spec, a, b).ohms]) < 1e-8
        assert calls == [(22, 22)]
        info = oracle._eigenpairs.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    def test_arrays_are_read_only(self):
        eigenvalues, vectors = oracle._eigenpairs(HammockSpec(2, 3))
        for array in (eigenvalues, vectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_one_entry_serves_the_instance_in_hand(self, monkeypatch):
        calls = self._count_eigh(monkeypatch)
        first, second = HammockSpec(2, 3), HammockSpec(3, 2)
        for spec in (first, first, second, second, first):
            resistance_eigen_full(spec, "O", "OP")
        assert len(calls) == 3

    def test_cache_clear_resets_counts(self):
        spec = HammockSpec(2, 2)
        resistance_eigen_full(spec, "O", (1, 1))
        resistance_eigen_full(spec, "O", (2, 2))
        info = oracle._eigenpairs.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        oracle._eigenpairs.cache_clear()
        assert oracle._eigenpairs.cache_info() == (0, 0, 1, 0)


class TestLaplacianCache:
    @pytest.fixture(autouse=True)
    def empty_caches(self):
        oracle._laplacian.cache_clear()
        oracle._eigenpairs.cache_clear()
        yield
        oracle._laplacian.cache_clear()
        oracle._eigenpairs.cache_clear()

    def test_hub_queries_stamp_once(self):
        spec = HammockSpec(4, 5, r=1.5, s=0.5)
        for a, b in [("O", (2, 3)), ((2, 3), "OP"), ("O", "OP")]:
            resistance_dense(spec, a, b)
            resistance_eigen_full(spec, a, b)
        resistance_matrix(spec)
        assert oracle._laplacian.cache_info().misses == 1

    def test_build_returns_the_held_matrix(self):
        spec = HammockSpec(2, 3)
        assert build_full_laplacian(spec) is build_full_laplacian(spec)
        build_full_laplacian(HammockSpec(3, 2))
        assert oracle._laplacian.cache_info().currsize == 1

    def test_cap_checked_on_a_held_matrix(self, monkeypatch):
        spec = HammockSpec(2, 3)
        build_full_laplacian(spec)
        monkeypatch.setenv(oracle.FLOAT_CAP_ENV, "5")
        for query in (lambda: build_full_laplacian(spec),
                      lambda: resistance_dense(spec, "O", "OP"),
                      lambda: resistance_matrix(spec)):
            with pytest.raises(SizeCapError):
                query()


def kirchhoff_index(spec, arithmetic="float"):
    """Sum of ``resistance_matrix`` over all unordered node pairs, hubs included."""
    table = resistance_matrix(spec, arithmetic)
    return sum(table[i][j] for i, j in itertools.combinations(range(spec.node_count), 2))


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
