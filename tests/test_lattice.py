"""Node addressing, span coordinates and graph construction."""

import itertools
import json
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hammocknet import (
    GridNode,
    HammockSpec,
    LatticeError,
    Terminal,
    UnsupportedNodeError,
    as_node,
    edge_indices,
    flat_index,
    inverse_minor_element,
    node_code,
    node_index,
    parse_node,
    reconstruct_currents,
    resistance_dense,
    resistance_eigen_full,
    resistance_general,
    resistance_rt,
    resistance_same_column,
    resistance_same_row,
    resistance_spectral,
    span_coords,
    spectral,
)

from hammocknet import lattice
from hammocknet.lattice import env_cap

from _util import interior_pairs, rel_dev


class TestHammockSpec:
    def test_validation(self):
        with pytest.raises(LatticeError):
            HammockSpec(0, 3)
        with pytest.raises(LatticeError):
            HammockSpec(3, 0)
        with pytest.raises(LatticeError):
            HammockSpec(2, 2, r=-1.0)
        with pytest.raises(LatticeError):
            HammockSpec(2, 2, s=0.0)
        with pytest.raises(LatticeError):
            HammockSpec(2, 2, r=float("inf"))

    def test_rejects_bool_dimensions(self):
        for rows, cols in ((True, True), (True, 3), (3, True)):
            with pytest.raises(LatticeError):
                HammockSpec(rows, cols)

    def test_integral_dimensions_become_int(self):
        spec = HammockSpec(np.int64(3), np.int32(4))
        assert type(spec.rows) is int and type(spec.cols) is int
        assert spec == HammockSpec(3, 4)
        assert hash(spec) == hash(HammockSpec(3, 4))
        assert spec.as_dict() == HammockSpec(3, 4).as_dict()

    def test_ratio_and_counts(self):
        spec = HammockSpec(3, 4, r=2.0, s=0.5)
        assert spec.ratio == 4.0
        assert spec.interior_count == 12
        assert spec.node_count == 14

    def test_json_round_trip(self):
        # the spec block of a current field's JSON names the same instance
        spec = HammockSpec(9, 17, r=2.5, s=0.75)
        data = json.loads(json.dumps(spec.as_dict()))
        assert HammockSpec(data["M"], data["N"], data["r"], data["s"]) == spec
        assert spec.as_dict() == {"M": 9, "N": 17, "r": 2.5, "s": 0.75}

    def test_keeps_exact_resistances(self):
        spec = HammockSpec(3, 4, r=Fraction(1, 3), s=Fraction(2))
        assert type(spec.r) is Fraction and spec.r == Fraction(1, 3)
        assert type(spec.s) is Fraction and spec.s == 2
        spec = HammockSpec(3, 4, r=2, s="0.5")
        assert type(spec.r) is int and spec.r == 2
        assert spec.s == 0.5

    def test_resistances_stored_normalised(self):
        spec = HammockSpec(3, 4, r=np.float64(0.5), s="2")
        assert type(spec.r) is float and type(spec.s) is float
        assert spec == HammockSpec(3, 4, r=0.5, s=2.0)
        assert hash(spec) == hash(HammockSpec(3, 4, r=0.5, s=2.0))
        for r in (True, False, "x", None, 10 ** 400):
            with pytest.raises(LatticeError):
                HammockSpec(3, 4, r=r)
        with pytest.raises(LatticeError):
            HammockSpec(3, 4, s=True)

    @pytest.mark.parametrize("rows,cols", [(3.7, 2), (3, 2.0), (True, 2), (3, "2")],
                             ids=["float-rows", "float-cols", "bool-rows", "str-cols"])
    def test_rejects_inexact_sizes(self, rows, cols):
        with pytest.raises(LatticeError):
            HammockSpec(rows, cols)

    @pytest.mark.parametrize("r,s", [(1e160, 1e-160), (1e-160, 1e160), (1.7e308, 1.0),
                                     (1e308, 1.0), (math.nextafter(2.0 ** 1021, math.inf), 1.0),
                                     (1.0, 2.0 ** -1022)])
    def test_rejects_ratio_outside_normal_floats(self, r, s):
        # r/s overflows to inf, underflows to a subnormal or passes 2**1021:
        # the routes would return NaN or a wrong value for pair (1,1)-(4,3)
        # on 3x4 (at 1.7e308 closed inf, spectral NaN and rt 1.6036 for 1.75)
        with pytest.raises(LatticeError, match=r"r/s must be .* at most 2\*\*1021"):
            HammockSpec(3, 4, r, s)

    def test_accepts_ratio_at_normal_float_limits(self):
        tiny = sys.float_info.min
        assert HammockSpec(3, 4, tiny, 1.0).ratio == tiny
        assert HammockSpec(3, 4, 1e300, 1e-7).ratio == pytest.approx(1e307)

    @pytest.mark.parametrize("rows,cols,a,b", [(3, 4, (1, 1), (4, 3)),
                                               (1000, 3, (1, 1), (3, 1000)),
                                               (1000, 3, (2, 500), (3, 501)),
                                               (40, 40, (3, 7), (31, 22))])
    @pytest.mark.parametrize("r,s", [(2.0 ** 1021, 1.0), (1.0, 2.0 ** -1021)])
    def test_routes_agree_at_ratio_bound(self, rows, cols, a, b, r, s):
        spec = HammockSpec(rows, cols, r, s)
        assert spec.ratio == 2.0 ** 1021
        spectral.eigen_system.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = [route(spec, a, b).ohms for route in
                      (resistance_general, resistance_rt, resistance_spectral)]
        assert all(map(math.isfinite, values))
        assert rel_dev(values) <= 1e-10


class TestNodes:
    def test_parse(self):
        assert parse_node("3,2") == GridNode(3, 2)
        assert parse_node(" O ") is Terminal.BOTTOM
        assert parse_node("op") is Terminal.TOP
        with pytest.raises(LatticeError):
            parse_node("3;2")
        with pytest.raises(LatticeError):
            parse_node("a,b")

    def test_as_node_and_code(self):
        assert as_node((4, 1)) == GridNode(4, 1)
        assert node_code((4, 1)) == "4,1"
        assert node_code(Terminal.BOTTOM) == "O"
        assert node_code("OP") == "OP"

    def test_as_node_refuses_non_integers(self):
        assert as_node((np.int64(2), 3)) == GridNode(2, 3)
        for value in [(1.9, 2), (2.0, 2), (True, 1), (1, False), ("a", 2), ("1", 2)]:
            with pytest.raises(LatticeError):
                as_node(value)
        # a route refuses the node rather than answering for (1, 2)
        with pytest.raises(LatticeError):
            resistance_general(HammockSpec(3, 4), (1.9, 2), (4, 3))

    def test_require_interior_builds_grid_nodes_from_int_pairs(self):
        spec = HammockSpec(3, 4)
        node = lattice.require_interior(spec, (4, 3))
        assert type(node) is GridNode and node == GridNode(4, 3)
        assert hash(node) == hash(GridNode(4, 3)) and node < GridNode(4, 4)
        assert lattice.require_interior(spec, (np.int64(2), 1)) == GridNode(2, 1)
        given = GridNode(1, 2)
        assert lattice.require_interior(spec, given) is given
        for value, message in [((5, 1), "column x=5 outside 1..4 for a 3x4 hammock"),
                               ((0, 1), "column x=0 outside 1..4"),
                               ((1, 4), "row y=4 outside 1..3 for a 3x4 hammock"),
                               ((True, 1), "must be integers"), ((1.0, 1), "must be integers"),
                               ((1, 2, 3), "cannot interpret")]:
            with pytest.raises(LatticeError, match=re.escape(message)):
                lattice.require_interior(spec, value)

    def test_as_node_refuses_other_values(self):
        for value in [3.5, None, [1, 2], (1, 2, 3), GridNode]:
            with pytest.raises(LatticeError, match="cannot interpret"):
                as_node(value)

    def test_grid_node_refuses_non_integers(self):
        node = GridNode(np.int64(2), np.int32(3))
        assert type(node.x) is int and type(node.y) is int
        assert node == GridNode(2, 3) and hash(node) == hash(GridNode(2, 3))
        for x, y in [(1.9, 2), (2.0, 2), (True, 2), (1, False), ("1", 2)]:
            with pytest.raises(LatticeError):
                GridNode(x, y)
        # no route answers for a column that does not exist
        with pytest.raises(LatticeError):
            resistance_general(HammockSpec(3, 4), GridNode(1.9, 2), (4, 3))


class TestSpanCoords:
    def test_reference_frame(self):
        # 9x17 with nodes (3,3) and (11,6): spans 6/10, offsets 4/4
        spec = HammockSpec(9, 17)
        coords = span_coords(spec, (3, 3), (11, 6))
        assert (coords.span_left, coords.span_right) == (6, 10)
        assert (coords.p_offset, coords.q_offset) == (4, 4)
        assert (coords.y_in, coords.y_out) == (3, 6)
        assert not coords.swapped
        assert (coords.x_in, coords.x_out) == (3, 11)

    def test_same_node(self):
        spec = HammockSpec(2, 3)
        coords = span_coords(spec, (1, 1), (1, 1))
        assert coords.p_offset == coords.q_offset == 0
        assert coords.x_in == coords.x_out == 1
        assert coords.y_in == coords.y_out == 1

    def test_swap_convention(self):
        spec = HammockSpec(3, 4)
        coords = span_coords(spec, (4, 2), (1, 1))
        assert coords.swapped
        assert (coords.x_in, coords.y_in) == (1, 1)
        assert (coords.x_out, coords.y_out) == (4, 2)
        # same column, later row first: still normalised
        coords = span_coords(spec, (2, 3), (2, 1))
        assert coords.swapped and coords.y_in == 1

    def test_round_trip_exhaustive(self):
        for rows, cols in itertools.product(range(1, 9), range(1, 9)):
            spec = HammockSpec(rows, cols)
            for a, b in interior_pairs(spec, distinct=False):
                coords = span_coords(spec, a, b)
                assert coords.cols == cols
                assert -coords.span_left <= -coords.p_offset
                assert -coords.p_offset <= coords.q_offset <= coords.span_right
                lo, hi = (b, a) if coords.swapped else (a, b)
                assert (coords.x_in, coords.y_in) == (lo.x, lo.y)
                assert (coords.x_out, coords.y_out) == (hi.x, hi.y)

    def test_out_of_bounds_names_coordinate(self):
        spec = HammockSpec(3, 4)
        with pytest.raises(LatticeError, match="x=5"):
            span_coords(spec, (5, 1), (1, 1))
        with pytest.raises(LatticeError, match="y=9"):
            span_coords(spec, (1, 9), (1, 1))


@pytest.fixture
def interior_checks(monkeypatch):
    """The nodes passed to ``lattice.require_interior``, under any module's name for it."""
    checked = []
    original = lattice.require_interior

    def counted(spec, node):
        checked.append(as_node(node))
        return original(spec, node)

    for name, module in list(sys.modules.items()):
        if name == "hammocknet" or name.startswith("hammocknet."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return checked


_A, _B = (5, 4), (2, 1)


@pytest.mark.parametrize("query, grid_nodes", [
    (lambda spec: resistance_general(spec, _A, _B), [_A, _B]),
    (lambda spec: resistance_same_column(spec, 2, 4, 1), [(2, 4), (2, 1)]),
    (lambda spec: resistance_same_row(spec, 2, 5, 1), [(5, 2), (1, 2)]),
    (lambda spec: resistance_rt(spec, _A, _B), [_A, _B]),
    (lambda spec: resistance_spectral(spec, _A, _B, "reduced"), [_A, _B]),
    (lambda spec: resistance_spectral(spec, _A, _B, "double_sum"), [_A, _B]),
    (lambda spec: inverse_minor_element(spec, _A, _B, "reduced"), [_A, _B]),
    (lambda spec: inverse_minor_element(spec, _A, _B, "double_sum"), [_A, _B]),
    (lambda spec: reconstruct_currents(spec, _A, _B), [_A, _B]),
    (lambda spec: resistance_dense(spec, _A, _B), [_A, _B]),
    (lambda spec: resistance_dense(spec, _A, _B, "rational"), [_A, _B]),
    (lambda spec: resistance_dense(spec, "O", _B), [_B]),
    (lambda spec: resistance_dense(spec, _A, "OP", "rational"), [_A]),
    (lambda spec: resistance_eigen_full(spec, _A, _B), [_A, _B]),
], ids=["closed", "same_column", "same_row", "rt", "spectral-reduced",
        "spectral-double_sum", "inverse-reduced", "inverse-double_sum", "currents",
        "dense-float", "dense-rational", "dense-float-hub", "dense-rational-hub", "eigen"])
def test_checks_each_node_once(interior_checks, query, grid_nodes):
    # every route admits its pair through span_coords or node_index, which
    # check each grid node once, in the order given
    query(HammockSpec(4, 5, r=3.0))
    assert interior_checks == [GridNode(*node) for node in grid_nodes]


class TestFlatIndex:
    def test_examples(self):
        spec = HammockSpec(3, 4)
        assert flat_index(spec, (1, 1)) == 1
        assert flat_index(spec, (4, 3)) == 12
        assert flat_index(spec, (2, 2)) == 6

    def test_bijection(self):
        for rows, cols in itertools.product(range(1, 9), range(1, 9)):
            spec = HammockSpec(rows, cols)
            seen = {flat_index(spec, node) for node in spec.interior_nodes()}
            assert seen == set(range(1, rows * cols + 1))

    def test_terminal_rejected(self):
        spec = HammockSpec(2, 2)
        with pytest.raises(UnsupportedNodeError):
            flat_index(spec, Terminal.BOTTOM)


def _links(spec):
    """``edge_indices`` with node objects in place of indices."""
    nodes = [Terminal.BOTTOM, *spec.interior_nodes(), Terminal.TOP]
    return [(nodes[i], nodes[j], ohms) for i, j, ohms in edge_indices(spec)]


def _degree(spec, node):
    return sum(1 for a, b, _ in _links(spec) if node in (a, b))


class TestEdgeList:
    def test_smallest(self):
        spec = HammockSpec(1, 1, s=2.0)
        links = _links(spec)
        assert len(links) == 2
        assert all(ohms == 2.0 for *_, ohms in links)
        assert {a for a, *_ in links} | {b for _, b, _ in links} == {
            GridNode(1, 1), Terminal.BOTTOM, Terminal.TOP}

    @pytest.mark.parametrize("rows,cols,count", [(3, 4, 25), (9, 8, 143)])
    def test_counting(self, rows, cols, count):
        spec = HammockSpec(rows, cols)
        links = list(edge_indices(spec))
        assert len(links) == count
        assert len(links) == rows * (cols - 1) + cols * (rows - 1) + 2 * cols
        assert len({frozenset((i, j)) for i, j, _ in links}) == len(links)

    def test_degrees_and_connectivity(self):
        for rows, cols in [(1, 1), (1, 5), (4, 1), (3, 4), (5, 5)]:
            spec = HammockSpec(rows, cols)
            assert _degree(spec, Terminal.BOTTOM) == cols
            assert _degree(spec, Terminal.TOP) == cols
            for node in spec.interior_nodes():
                expected = ((node.x > 1) + (node.x < cols) + (node.y > 1)
                            + (node.y < rows) + (node.y == 1) + (node.y == rows))
                assert _degree(spec, node) == expected
            # BFS connectivity
            adjacency = {}
            for i, j, _ in edge_indices(spec):
                adjacency.setdefault(i, set()).add(j)
                adjacency.setdefault(j, set()).add(i)
            seen = {0}
            frontier = [0]
            while frontier:
                seen.update(nxt := set().union(*(adjacency[n] for n in frontier)) - seen)
                frontier = list(nxt)
            assert len(seen) == spec.node_count

    def test_resistances(self):
        spec = HammockSpec(2, 3, r=7.0, s=0.25)
        for a, b, ohms in _links(spec):
            if isinstance(a, Terminal) or isinstance(b, Terminal):
                assert ohms == 0.25
            elif a.y == b.y:
                assert ohms == 7.0
            else:
                assert ohms == 0.25

    def test_indices_follow_node_index(self):
        for rows, cols in [(1, 1), (1, 5), (4, 1), (3, 4), (5, 5)]:
            spec = HammockSpec(rows, cols, r=2.0, s=0.5)
            for (i, j, _), (a, b, _) in zip(edge_indices(spec), _links(spec)):
                assert (i, j) == (node_index(spec, a), node_index(spec, b))
                if a is Terminal.BOTTOM:
                    assert b.y == 1
                elif b is Terminal.TOP:
                    assert a.y == rows
                else:
                    assert abs(a.x - b.x) + abs(a.y - b.y) == 1

    def test_indices_keep_exact_resistances(self):
        spec = HammockSpec(2, 3, r=Fraction(1, 3), s=Fraction(2, 7))
        assert {ohms for *_, ohms in edge_indices(spec)} == {Fraction(1, 3), Fraction(2, 7)}
        assert all(type(ohms) is Fraction for *_, ohms in edge_indices(spec))


class TestEnvCap:
    NAME = "HAMMOCKNET_TEST_CAP"

    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv(self.NAME, raising=False)
        assert env_cap(self.NAME, 7) == 7
        monkeypatch.setenv(self.NAME, "12")
        assert env_cap(self.NAME, 7) == 12

    @pytest.mark.parametrize("raw, message", [("twelve", "is not an integer"),
                                              ("1.5", "is not an integer"),
                                              ("0", "must be positive"),
                                              ("-3", "must be positive")])
    def test_refuses_bad_values(self, monkeypatch, raw, message):
        monkeypatch.setenv(self.NAME, raw)
        with pytest.raises(LatticeError, match=message):
            env_cap(self.NAME, 7)
