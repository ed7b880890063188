"""Minor-based spectral route: matrices, eigensystem, identity, elements."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hammocknet import (
    HammockSpec,
    LatticeError,
    SizeCapError,
    boundary_sums,
    build_second_minor,
    edge_indices,
    eigen_system,
    flat_index,
    inverse_minor_element,
    resistance_general,
    resistance_spectral,
)
from hammocknet import spectral
from hammocknet.closed_form import _rates
from hammocknet.oracle import build_full_laplacian

from _util import (
    cosine_sum_identity,
    interior_pairs,
    inverse_minor_reference,
    long_double_spectral,
    rel_dev,
    specs_upto,
    spectral_reference,
)


class TestSecondMinor:
    def test_single_node(self):
        minor = build_second_minor(HammockSpec(1, 1, s=2.0))
        assert minor.shape == (1, 1)
        assert minor[0, 0] == pytest.approx(1.0)  # two spokes of 1/s each

    def test_explicit_3x4_kronecker(self):
        fixed = np.array([[2., -1., 0.], [-1., 2., -1.], [0., -1., 2.]])
        free = np.array([[1., -1., 0., 0.], [-1., 2., -1., 0.],
                         [0., -1., 2., -1.], [0., 0., -1., 1.]])
        expected = np.kron(fixed, np.eye(4)) + np.kron(np.eye(3), free)
        assert np.array_equal(build_second_minor(HammockSpec(3, 4)), expected)

    def test_full_matrix_without_hubs(self):
        # the oracle's stamped matrix minus the hub rows and columns, as a
        # copy that the caller may change without touching the oracle's
        spec = HammockSpec(4, 3, r=2.5, s=0.7)
        full = build_full_laplacian(spec)
        minor = build_second_minor(spec)
        assert np.array_equal(minor, full[1:-1, 1:-1])
        minor[0, 0] = 99.0
        assert full[1, 1] != 99.0

    def test_matches_edge_assembly(self):
        # assemble the full graph from edges, then delete the hub rows/cols
        spec = HammockSpec(2, 2, r=2.0, s=1.0)
        dense = np.zeros((spec.node_count, spec.node_count))
        for i, j, ohms in edge_indices(spec):
            cond = 1.0 / ohms
            dense[i, j] -= cond
            dense[j, i] -= cond
            dense[i, i] += cond
            dense[j, j] += cond
        assert np.allclose(build_second_minor(spec), dense[1:-1, 1:-1], atol=1e-15)

    def test_row_sums(self):
        for spec in specs_upto(4, 4):
            minor = build_second_minor(spec)
            sums = minor.sum(axis=1)
            for node in spec.interior_nodes():
                spokes = (node.y == 1) + (node.y == spec.rows)
                expected = spokes / float(spec.s)
                assert sums[flat_index(spec, node) - 1] == pytest.approx(
                    expected, abs=1e-12)

    def test_cap(self, monkeypatch):
        with pytest.raises(SizeCapError):
            build_second_minor(HammockSpec(100, 100))
        monkeypatch.setenv("HAMMOCKNET_DENSE_VERIFY_CAP", "9")
        assert build_second_minor(HammockSpec(3, 3)).shape == (9, 9)
        with pytest.raises(SizeCapError):
            build_second_minor(HammockSpec(3, 4))


class TestEigenSystem:
    def test_single_row_mode(self):
        system = eigen_system(HammockSpec(1, 3))
        assert system.phis[0] == pytest.approx(math.pi / 4.0)
        assert system.row_modes[0, 0] == pytest.approx(1.0)

    def test_single_column_mode(self):
        system = eigen_system(HammockSpec(3, 1))
        assert system.thetas[0] == 0.0
        assert system.col_modes[0, 0] == pytest.approx(1.0)

    def test_smallest_eigenvalue_3x4(self):
        system = eigen_system(HammockSpec(3, 4))
        assert system.eigenvalues[0, 0] == pytest.approx(
            2.0 * (1.0 - math.cos(math.pi / 4.0)), rel=1e-12)

    def test_orthonormality(self):
        for spec in (HammockSpec(4, 5, r=2.0), HammockSpec(1, 6), HammockSpec(6, 1)):
            system = eigen_system(spec)
            assert np.allclose(system.col_modes @ system.col_modes.T,
                               np.eye(spec.cols), atol=1e-12)
            assert np.allclose(system.row_modes @ system.row_modes.T,
                               np.eye(spec.rows), atol=1e-12)

    def test_eigen_application(self):
        for spec in specs_upto(8, 8, rs=[(1.0, 1.0), (2.0, 1.0)]):
            if spec.interior_count > 64:
                continue
            minor = build_second_minor(spec)
            system = eigen_system(spec)
            for m in range(spec.rows):
                for n in range(spec.cols):
                    vector = np.kron(system.row_modes[m], system.col_modes[n])
                    value = system.eigenvalues[m, n]
                    assert np.allclose(minor @ vector, value * vector,
                                       rtol=1e-10, atol=1e-12)

    def test_reconstruction(self):
        for spec in specs_upto(6, 6, rs=[(1.0, 1.0), (3.0, 2.0)]):
            if spec.interior_count > 36:
                continue
            minor = build_second_minor(spec)
            system = eigen_system(spec)
            total = np.zeros_like(minor)
            for m in range(spec.rows):
                for n in range(spec.cols):
                    vector = np.kron(system.row_modes[m], system.col_modes[n])
                    total += system.eigenvalues[m, n] * np.outer(vector, vector)
            assert np.allclose(total, minor, atol=1e-9)

    def test_decay_rate_identities(self):
        for spec in (HammockSpec(5, 3, r=2.0, s=0.5), HammockSpec(3, 3)):
            system = eigen_system(spec)
            ratio = spec.ratio
            assert np.allclose(np.sinh(system.omegas),
                               math.sqrt(ratio) * np.sin(system.phis), atol=1e-12)
            # row-mode decay rates coincide with the closed form's rates, an
            # independent formula for the same rates
            table = _rates(spec.rows, spec.ratio, 0, spec.rows)
            for m in range(spec.rows):
                assert system.omegas[m] == pytest.approx(table[m], rel=1e-12)

    def test_row_mode_matches_dense(self):
        for spec in (HammockSpec(4, 5, r=2.0), HammockSpec(1, 6), HammockSpec(7, 3)):
            system = eigen_system(spec)
            for y in range(1, spec.rows + 1):
                assert np.array_equal(system.row_mode(y), system.row_modes[:, y - 1])

    def test_scale(self):
        spec = HammockSpec(9, 13, r=0.5, s=2.0)
        system = eigen_system(spec)
        # small enough for plain sinh: e^{2*N*omega} and sinh(2*N*omega) stay finite
        expected = np.exp(2.0 * spec.cols * system.omegas) \
            / (4.0 * np.sinh(2.0 * system.omegas) * np.sinh(2.0 * spec.cols * system.omegas))
        assert np.allclose(system.scale, expected, rtol=1e-13, atol=0.0)

    def test_dense_matrices_capped(self, monkeypatch):
        monkeypatch.setenv("HAMMOCKNET_DENSE_VERIFY_CAP", "50")
        spec = HammockSpec(6, 9, r=1.5)
        system = eigen_system(spec)
        for name in ("col_modes", "row_modes", "eigenvalues"):
            with pytest.raises(SizeCapError):
                getattr(system, name)
        # the reduced form never needs them
        assert resistance_spectral(spec, (1, 1), (9, 6)).ohms == pytest.approx(
            resistance_general(spec, (1, 1), (9, 6)).ohms, rel=1e-12)

    def test_lean_at_1e5(self):
        spec = HammockSpec(10 ** 5, 10 ** 5)
        a, b = (33_333, 25_000), (66_666, 60_000)
        spectral = resistance_spectral(spec, a, b).ohms
        closed = resistance_general(spec, a, b).ohms
        assert rel_dev([spectral, closed]) < 1e-9
        held = sum(value.nbytes for value in vars(eigen_system(spec)).values()
                   if isinstance(value, np.ndarray))
        assert held < 8 * 2 ** 20


class TestCosineSumIdentity:
    def test_two_term_collapse(self):
        for omega in (0.2, 1.3):
            lhs, rhs = cosine_sum_identity(1, 0, omega)
            c = math.cosh(2.0 * omega)
            assert lhs == pytest.approx(c / (c * c - 1.0), rel=1e-13)
            assert rhs == pytest.approx(c / (c * c - 1.0), rel=1e-13)

    def test_endpoint_symmetry(self):
        cols = 3
        for ell in range(0, 2 * cols + 1):
            lhs, rhs = cosine_sum_identity(cols, ell, 0.7)
            lhs2, rhs2 = cosine_sum_identity(cols, 2 * cols - ell, 0.7)
            assert lhs == pytest.approx(lhs2, rel=1e-12)
            assert rhs == pytest.approx(rhs2, rel=1e-12)

    def test_pointwise(self):
        lhs, rhs = cosine_sum_identity(4, 3, 0.3)
        assert rel_dev([lhs, rhs]) < 1e-12

    def test_singular_parameter(self):
        with pytest.raises(LatticeError):
            cosine_sum_identity(4, 1, 0.0)
        with pytest.raises(LatticeError):
            cosine_sum_identity(4, 9, 0.5)


class TestInverseMinorElement:
    def test_symmetry(self):
        for spec in specs_upto(4, 4):
            for a, b in itertools.islice(interior_pairs(spec), 12):
                for form in ("reduced", "double_sum"):
                    assert inverse_minor_element(spec, a, b, form) == pytest.approx(
                        inverse_minor_element(spec, b, a, form), rel=1e-13)

    def test_against_dense_inverse(self):
        for spec in (HammockSpec(2, 2), HammockSpec(3, 4, r=2.0, s=3.0)):
            dense = np.linalg.inv(build_second_minor(spec))
            for a, b in interior_pairs(spec, distinct=False):
                i, j = flat_index(spec, a) - 1, flat_index(spec, b) - 1
                for form in ("reduced", "double_sum"):
                    assert inverse_minor_element(spec, a, b, form) == pytest.approx(
                        dense[i, j], rel=1e-10, abs=1e-13)

    def test_forms_agree(self):
        for spec in specs_upto(5, 5, rs=[(1.0, 1.0), (2.0, 1.0)]):
            for a, b in interior_pairs(spec, distinct=False):
                reduced = inverse_minor_element(spec, a, b, "reduced")
                double = inverse_minor_element(spec, a, b, "double_sum")
                assert rel_dev([reduced, double]) < 1e-11

    def test_forms_agree_at_30(self, monkeypatch):
        monkeypatch.setenv("HAMMOCKNET_DENSE_VERIFY_CAP", "900")
        spec = HammockSpec(30, 30)
        for a, b in [((1, 1), (30, 30)), ((7, 12), (23, 4)), ((15, 15), (15, 16))]:
            values = [resistance_spectral(spec, a, b, "reduced").ohms,
                      resistance_spectral(spec, a, b, "double_sum").ohms]
            assert rel_dev(values) < 1e-11

    def test_double_sum_capped(self, monkeypatch):
        # each double-sum element builds two M x 2N grids, so it is capped
        # like the dense matrices
        monkeypatch.delenv("HAMMOCKNET_DENSE_VERIFY_CAP", raising=False)
        spec = HammockSpec(21, 21)
        with pytest.raises(SizeCapError) as refused:
            inverse_minor_element(spec, (1, 1), (21, 21), "double_sum")
        assert (refused.value.nodes, refused.value.label, refused.value.cap) == (
            441, "double-sum", 400)
        with pytest.raises(SizeCapError):
            resistance_spectral(spec, (1, 1), (21, 21), "double_sum")
        monkeypatch.setenv("HAMMOCKNET_DENSE_VERIFY_CAP", "441")
        assert resistance_spectral(spec, (1, 1), (21, 21), "double_sum").ohms == \
            pytest.approx(resistance_general(spec, (1, 1), (21, 21)).ohms, rel=1e-11)

    def test_unknown_form(self):
        with pytest.raises(LatticeError):
            inverse_minor_element(HammockSpec(2, 2), (1, 1), (1, 1), "fast")

    def test_unknown_form_in_resistance(self):
        with pytest.raises(LatticeError, match="unknown form 'fast'"):
            resistance_spectral(HammockSpec(2, 2), (1, 1), (2, 2), "fast")


class TestBoundarySums:
    def test_closed_forms(self):
        spec = HammockSpec(3, 4)
        sigma1, sigma2 = boundary_sums(spec, (1, 1), (2, 1))
        assert sigma1 == pytest.approx(3.0)
        assert sigma2 == 0.0
        _, sigma2 = boundary_sums(HammockSpec(3, 2), (1, 1), (2, 3))
        assert sigma2 == pytest.approx(0.5)

    def test_numeric_agreement(self):
        for spec in (HammockSpec(2, 3), HammockSpec(3, 2, r=2.0, s=3.0)):
            bottom = [(x, 1) for x in range(1, spec.cols + 1)]
            numeric1 = sum(inverse_minor_element(spec, u, v, "reduced")
                           for u in bottom for v in bottom)
            sigma1, _ = boundary_sums(spec, (1, 1), (1, 1))
            assert rel_dev([numeric1, sigma1]) < 1e-10
            for a, b in interior_pairs(spec):
                numeric2 = sum(inverse_minor_element(spec, u, a, "reduced")
                               - inverse_minor_element(spec, u, b, "reduced")
                               for u in bottom)
                _, sigma2 = boundary_sums(spec, a, b)
                assert numeric2 == pytest.approx(sigma2, abs=1e-10 * float(spec.s))

    def test_bottom_row_response(self):
        # summed bottom-row column depends only on the probe height
        for spec in (HammockSpec(3, 3), HammockSpec(4, 2, r=0.5, s=2.0)):
            bottom = [(x, 1) for x in range(1, spec.cols + 1)]
            for probe in spec.interior_nodes():
                numeric = sum(inverse_minor_element(spec, u, probe, "reduced")
                              for u in bottom)
                expected = (spec.rows + 1 - probe.y) * float(spec.s) / (spec.rows + 1)
                assert numeric == pytest.approx(expected, rel=1e-10)


class TestResistanceSpectral:
    def test_identical_nodes(self):
        assert resistance_spectral(HammockSpec(3, 3), (2, 2), (2, 2)).ohms == 0.0

    def test_three_parallel_paths(self):
        assert resistance_spectral(HammockSpec(1, 2), (1, 1), (2, 1)).ohms == pytest.approx(
            0.5, abs=1e-12)

    def test_frozen_oracle_value(self):
        # exact rational solve of the full 4x5 graph with r=3, s=2
        expected = Fraction(98562, 42625)
        spec = HammockSpec(4, 5, r=3.0, s=2.0)
        for form in ("reduced", "double_sum"):
            assert resistance_spectral(spec, (2, 1), (4, 4), form).ohms == pytest.approx(
                float(expected), rel=1e-10)

    def test_matches_closed_form(self):
        rs = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]
        for spec in specs_upto(6, 6, rs=rs):
            for a, b in interior_pairs(spec):
                values = [resistance_spectral(spec, a, b).ohms,
                          resistance_general(spec, a, b).ohms]
                assert rel_dev(values) < 1e-10

    @pytest.mark.parametrize("rows, cols, s, rise", [
        (3, 4, 1.0, 2), (7, 1, 0.3, 6), (10 ** 4, 997, 3.0, 9_999),
        (10 ** 5, 10 ** 5, 1.0, 77_777), (999_999, 12, 0.1, 999_998),
        (10 ** 6, 10 ** 6, 1.0, 999_999), (10 ** 6, 3, 5e154, 654_321),
        (10 ** 6, 10 ** 6, 2.0 ** -40, 333_333)])
    def test_hub_term_exact(self, monkeypatch, rows, cols, s, rise):
        # with every element zeroed the resistance is the hub term alone,
        # exactly s*rise^2/(N*(M+1)) in rationals
        monkeypatch.setitem(spectral._FORMS, "reduced",
                            lambda spec, nodes, pairs: [0.0] * len(pairs))
        spec = HammockSpec(rows, cols, r=1.0, s=s)
        exact = Fraction(s) * rise * rise / (cols * (rows + 1))
        for a, b in (((1, 1), (cols, 1 + rise)), ((cols, rows), (1, rows - rise))):
            hub = resistance_spectral(spec, a, b).ohms
            assert abs(Fraction(hub) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    def test_hub_term_keeps_three_blocks_close(self):
        # a hub term off by eps*M relative puts about 2e-13 between the routes here
        spec, a, b = TestOnePass.CASES[-1][1:]
        values = [resistance_spectral(spec, a, b).ohms, resistance_general(spec, a, b).ohms]
        assert rel_dev(values) <= 1e-14

    @pytest.mark.parametrize("r, s", [(8e153, 1.0), (1e300, 1.0), (1.0, 5e154), (1.0, 1e300)])
    def test_finite_past_square_overflow(self, r, s):
        # u*(u + 2) in the decay rates overflows past r/s ~ 6.7e153 and a
        # squared boundary sum past s ~ 1.3e154; neither is formed there
        spec = HammockSpec(3, 4, r=r, s=s)
        spectral.eigen_system.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ohms = resistance_spectral(spec, (1, 1), (4, 3)).ohms
        assert math.isfinite(ohms)
        assert rel_dev([ohms, resistance_general(spec, (1, 1), (4, 3)).ohms]) < 1e-10


class TestLongDouble:
    """The reduced route against its own sum in long double, and closed."""

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("rows", [10 ** 5, 10 ** 6])
    def test_within_4_eps(self, rows, ratio):
        # the middle-column pair from the bottom row to the top row lost up
        # to 5.5e4 eps in the log domain's cancelling exponents
        spec = HammockSpec(rows, rows, r=ratio)
        pairs = [((rows // 2, 1), (rows // 2 + 1, rows)),
                 ((rows // 10 + 1, rows // 3 + 1), (9 * rows // 10, 2 * rows // 3))]
        for (a, b), exact in zip(pairs, long_double_spectral(spec, pairs)):
            ohms = resistance_spectral(spec, a, b).ohms
            assert abs(ohms - exact) <= 4 * np.finfo(float).eps * exact, (a, b)
        eigen_system.cache_clear()

    def test_closed_at_1e6(self):
        # 1.05e-11 in the log domain; what is left comes from each route's
        # own rates and sine angles
        spec = HammockSpec(10 ** 6, 10 ** 6, r=3.0)
        a, b = (500_000, 1), (500_001, 10 ** 6)
        values = [resistance_spectral(spec, a, b).ohms, resistance_general(spec, a, b).ohms]
        assert rel_dev(values) <= 2e-12
        eigen_system.cache_clear()


class TestOnePass:
    """The one-pass reduced route against three separate element evaluations."""

    CASES = [
        ("100x100", HammockSpec(100, 100), (3, 7), (95, 50)),
        ("identical", HammockSpec(100, 100), (40, 40), (40, 40)),
        ("same row", HammockSpec(100, 100), (12, 40), (77, 40)),
        ("same column", HammockSpec(28, 600, r=3.0), (300, 3), (300, 25)),
        ("swapped", HammockSpec(28, 600, r=3.0), (590, 20), (4, 2)),
        ("28x600 at r/s 3", HammockSpec(28, 600, r=3.0), (17, 9), (402, 27)),
        ("r/s 0.3", HammockSpec(57, 83, r=0.3), (80, 1), (2, 57)),
        ("three blocks", HammockSpec(2 * spectral._BLOCK + 1, 1200, r=2.0), (201, 5),
         (600, 32766)),
    ]

    @pytest.mark.parametrize("label, spec, a, b", CASES, ids=[case[0] for case in CASES])
    def test_bitwise_equal_to_three_passes(self, label, spec, a, b):
        assert resistance_spectral(spec, a, b).ohms == spectral_reference(spec, a, b)
        assert resistance_spectral(spec, b, a).ohms == spectral_reference(spec, b, a)
        assert inverse_minor_element(spec, a, b) == inverse_minor_reference(spec, a, b)
        assert inverse_minor_element(spec, b, a) == inverse_minor_reference(spec, a, b)

    def test_peak_allocation(self):
        # the reduced pass holds one block's temporaries, however many rows
        spec = HammockSpec(10 ** 6, 1000, r=3.0)
        a, b = (201, 333334), (800, 666666)
        resistance_spectral(spec, a, b)  # warm the eigensystem
        budget = 32 * spectral._BLOCK * np.dtype(float).itemsize
        for query in (resistance_spectral, inverse_minor_element):
            tracemalloc.start()
            try:
                query(spec, a, b)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < budget, (query.__name__, peak / budget)
