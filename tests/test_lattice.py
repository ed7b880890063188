"""Node addressing, span coordinates and graph construction."""

import itertools
import json
import sys
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
    node_code,
    node_index,
    parse_node,
    resistance_general,
    span_coords,
)

from _util import interior_pairs


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

    @pytest.mark.parametrize("r,s", [(1e160, 1e-160), (1e-160, 1e160)])
    def test_rejects_ratio_outside_normal_floats(self, r, s):
        # r/s overflows to inf or underflows to a subnormal: the routes
        # would return NaN or a wrong value for pair (1,1)-(4,3) on 3x4
        with pytest.raises(LatticeError, match="r/s"):
            HammockSpec(3, 4, r, s)

    def test_accepts_ratio_at_normal_float_limits(self):
        tiny = sys.float_info.min
        assert HammockSpec(3, 4, tiny, 1.0).ratio == tiny
        assert HammockSpec(3, 4, 1e300, 1e-7).ratio == pytest.approx(1e307)


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
