"""Problem instances, node addressing and graph construction for hammock
resistor networks.

A hammock is an M x N rectangular resistor grid with two extra hub nodes.
Interior nodes sit at integer coordinates (x, y) with column x = 1..N and
row y = 1..M; (1, 1) is the lower-left corner. Links along a row have
resistance r, links along a column have resistance s. Hub O hangs below
the grid, wired to every bottom-row node (y = 1) through one extra s-link,
and hub OP sits above it, wired to every top-row node (y = M) the same
way. The left and right columns are open boundaries.

All types here are frozen dataclasses: immutable after construction and
safe to share between threads. Public coordinates are 1-based throughout.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Tuple, Union


class LatticeError(ValueError):
    """Invalid node, coordinate or problem-instance parameter."""


class UnsupportedNodeError(LatticeError):
    """A hub terminal was passed to a routine that needs interior nodes."""


class SizeCapError(LatticeError):
    """A dense computation was requested above its configured size cap.

    ``nodes`` is the count that the cap limits, ``label`` names the cap
    and ``cap`` is its value.
    """

    def __init__(self, message: str, nodes: int, label: str, cap: int) -> None:
        super().__init__(message)
        self.nodes, self.label, self.cap = nodes, label, cap


class Terminal(enum.Enum):
    """The two hub nodes. Wire encoding is "O" (bottom) and "OP" (top)."""

    BOTTOM = "O"
    TOP = "OP"

    @property
    def code(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class GridNode:
    """Interior node at column ``x`` (1..N) and row ``y`` (1..M).

    Both coordinates must be integers, not bools; they are stored as int.
    """

    x: int
    y: int

    def __post_init__(self) -> None:
        if type(self.x) is int and type(self.y) is int:
            return
        if not (_is_integer(self.x) and _is_integer(self.y)):
            raise LatticeError(
                f"node coordinates must be integers, got ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "x", int(self.x))
        object.__setattr__(self, "y", int(self.y))


Node = Union[GridNode, Terminal]
NodeLike = Union[GridNode, Terminal, Tuple[int, int], str]


def _is_integer(value) -> bool:
    """True for integral numbers; bools are refused though ``bool`` is an int."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def as_node(value: NodeLike) -> Node:
    """Coerce ``(x, y)`` integer tuples and ``"O"``/``"OP"`` strings to nodes."""
    if isinstance(value, (GridNode, Terminal)):
        return value
    if isinstance(value, str):
        return parse_node(value)
    if isinstance(value, tuple) and len(value) == 2:
        return GridNode(*value)
    raise LatticeError(f"cannot interpret {value!r} as a lattice node")


def parse_node(text: str) -> Node:
    """Parse CLI node syntax: ``x,y`` for interior nodes, ``O`` / ``OP``."""
    token = text.strip()
    upper = token.upper()
    if upper == Terminal.BOTTOM.code:
        return Terminal.BOTTOM
    if upper == Terminal.TOP.code:
        return Terminal.TOP
    parts = token.split(",")
    if len(parts) != 2:
        raise LatticeError(
            f"node {text!r} is neither 'x,y' nor a terminal ('O'/'OP')"
        )
    try:
        return GridNode(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise LatticeError(f"non-integer coordinate in node {text!r}") from exc


def node_code(node: NodeLike) -> str:
    """Wire encoding of a node: ``"x,y"``, ``"O"`` or ``"OP"``."""
    node = as_node(node)
    if isinstance(node, Terminal):
        return node.code
    return f"{node.x},{node.y}"


def _positive_resistance(name: str, value):
    """``value`` as an exact rational or a float, checked finite and positive."""
    if isinstance(value, bool):
        raise LatticeError(f"{name} must be a number, got {value!r}")
    try:
        value = _exact_or_float(value)
        as_float = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise LatticeError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(as_float) or as_float <= 0.0:
        raise LatticeError(f"{name} must be finite and positive, got {value!r}")
    return value


def _exact_or_float(value):
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return value
    return float(value)


_MAX_RATIO = 2.0 ** 1021


@dataclass(frozen=True)
class HammockSpec:
    """Dimensions and link resistances of one hammock instance.

    ``rows`` (M) counts interior rows, ``cols`` (N) counts columns. ``r``
    is the resistance of every horizontal link, ``s`` the resistance of
    every vertical link and of the hub spokes. ``r`` and ``s`` may be any
    positive numbers but bools whose float ratio r/s is a normal float of
    at most 2**1021. Rationals (int, ``fractions.Fraction``) are kept exact
    for the rational oracle; anything else is stored as the float it
    converts to, so ``s="2"`` and ``s=2.0`` give equal specs.
    """

    rows: int
    cols: int
    r: float = 1.0
    s: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rows", "cols"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise LatticeError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "r", _positive_resistance("r", self.r))
        object.__setattr__(self, "s", _positive_resistance("s", self.s))
        # every route reads r/s as a float; a subnormal ratio gives wrong
        # values, and from about 2**1022 spectral's u + sqrt(u*(u + 2)), up
        # to 4*r/s, overflows to NaN while closed and rt go wrong too; the
        # bound keeps a factor of two below that
        if not sys.float_info.min <= self.ratio <= _MAX_RATIO:
            raise LatticeError(
                f"r/s must be a normal float at most 2**1021 (~2.2e307), got "
                f"r={self.r!r}, s={self.s!r}, r/s={self.ratio!r}")

    @property
    def ratio(self) -> float:
        """Horizontal-to-vertical resistance ratio r/s."""
        return float(self.r) / float(self.s)

    @property
    def interior_count(self) -> int:
        return self.rows * self.cols

    @property
    def node_count(self) -> int:
        """Interior nodes plus the two hubs."""
        return self.rows * self.cols + 2

    def interior_nodes(self) -> Iterator[GridNode]:
        """All interior nodes in flat-index order."""
        for y in range(1, self.rows + 1):
            for x in range(1, self.cols + 1):
                yield GridNode(x, y)

    def as_dict(self) -> dict:
        return {"M": self.rows, "N": self.cols, "r": float(self.r), "s": float(self.s)}


def require_interior(spec: HammockSpec, node: NodeLike) -> GridNode:
    """Coerce and bounds-check an interior node.

    Hub terminals raise :class:`UnsupportedNodeError`; only the dense
    oracle accepts them. A tuple of two ints, the common case, becomes a
    :class:`GridNode` directly, without the coercions of :func:`as_node`.
    """
    if type(node) is tuple and len(node) == 2 and type(node[0]) is int \
            and type(node[1]) is int:
        x, y = node
    else:
        node = as_node(node)
        if isinstance(node, Terminal):
            raise UnsupportedNodeError(
                f"hub terminal {node.code!r} is not an interior node; "
                "use hammocknet.oracle.resistance_dense for terminal queries"
            )
        x, y = node.x, node.y
    if not 1 <= x <= spec.cols:
        raise LatticeError(
            f"column x={x} outside 1..{spec.cols} for a "
            f"{spec.rows}x{spec.cols} hammock"
        )
    if not 1 <= y <= spec.rows:
        raise LatticeError(
            f"row y={y} outside 1..{spec.rows} for a "
            f"{spec.rows}x{spec.cols} hammock"
        )
    if isinstance(node, GridNode):
        return node
    grid = object.__new__(GridNode)  # two ints need none of GridNode's checks
    object.__setattr__(grid, "x", x)
    object.__setattr__(grid, "y", y)
    return grid


@dataclass(frozen=True)
class SpanCoords:
    """Column-span frame of a node pair, as :func:`span_coords` checked it.

    It stores the two nodes in frame order, ``node_in`` never right of
    ``node_out`` (ties broken on y), the column count ``cols`` and whether
    the caller's order was ``swapped``; the rest derives from them.
    Columns are relabelled k = -span_left .. span_right with
    ``cols = span_left + span_right + 1``. The input node sits on column
    ``k = -p_offset`` at height ``y_in``, the output node on ``k = q_offset``
    at height ``y_out``. The origin is centred between the two columns, so
    ``p_offset`` and ``q_offset`` differ by at most one and are equal when
    the column separation x_out - x_in (never negative) is even.
    """

    node_in: GridNode
    node_out: GridNode
    cols: int
    swapped: bool

    x_in = property(lambda self: self.node_in.x)
    y_in = property(lambda self: self.node_in.y)
    x_out = property(lambda self: self.node_out.x)
    y_out = property(lambda self: self.node_out.y)
    separation = property(lambda self: self.node_out.x - self.node_in.x)
    span_left = property(lambda self: (self.node_in.x + self.node_out.x) // 2 - 1)
    span_right = property(lambda self: self.cols - 1 - self.span_left)
    p_offset = property(lambda self: self.span_left - self.node_in.x + 1)
    q_offset = property(lambda self: self.node_out.x - self.span_left - 1)


def span_coords(spec: HammockSpec, a: NodeLike, b: NodeLike) -> SpanCoords:
    """Check an interior node pair and map it to its column-span frame.

    The one place a pair is admitted: each node is coerced and
    bounds-checked once (:func:`require_interior`), and the pair is
    ordered so the input column is never right of the output column. If
    ``a`` lies right of ``b`` (ties broken on y) the pair is swapped and
    the ``swapped`` flag records it. closed, rt, spectral and the current
    fields read their nodes from the frame.
    """
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    swapped = (a.x, a.y) > (b.x, b.y)
    if swapped:
        a, b = b, a
    return SpanCoords(a, b, spec.cols, swapped)


def require_frame(spec: HammockSpec, coords: SpanCoords) -> None:
    """Refuse anything but a span frame, and one made for another instance's columns or rows."""
    if not isinstance(coords, SpanCoords):
        raise LatticeError(f"need a span frame from span_coords, got {coords!r}")
    if coords.cols != spec.cols:
        raise LatticeError(f"span frame covers {coords.cols} columns, spec has {spec.cols}")
    top = max(coords.y_in, coords.y_out)
    if top > spec.rows:
        raise LatticeError(
            f"span frame has a node at row y={top}, outside 1..{spec.rows} for a "
            f"{spec.rows}x{spec.cols} hammock")


def flat_index(spec: HammockSpec, node: NodeLike) -> int:
    """Flat position of an interior node: x + (y - 1) * cols, in 1..M*N."""
    node = require_interior(spec, node)
    return node.x + (node.y - 1) * spec.cols


def node_index(spec: HammockSpec, node: NodeLike) -> int:
    """Full-graph position: hub O 0, interior by flat index, hub OP M*N + 1."""
    node = as_node(node)
    if node is Terminal.BOTTOM:
        return 0
    if node is Terminal.TOP:
        return spec.node_count - 1
    return flat_index(spec, node)


def edge_indices(spec: HammockSpec) -> Iterator[Tuple[int, int, Any]]:
    """Every link of the hammock as ``(i, j, ohms)`` in :func:`node_index` order.

    This is the one definition of the graph's wiring. Horizontal links
    (x,y)-(x+1,y) carry r, vertical links (x,y)-(x,y+1) carry s, and each
    column is closed off by hub spokes O-(x,1) and (x,M)-OP of resistance
    s. ``spec.r`` and ``spec.s`` pass through unconverted, so exact values
    stay exact. Total edge count is M*(N-1) + N*(M-1) + 2*N.
    """
    rows, cols = spec.rows, spec.cols
    for y in range(rows):
        for x in range(1, cols):
            yield x + y * cols, x + 1 + y * cols, spec.r
    for x in range(1, cols + 1):
        for y in range(rows - 1):
            yield x + y * cols, x + (y + 1) * cols, spec.s
    for x in range(1, cols + 1):
        yield 0, x, spec.s
    for x in range(1, cols + 1):
        yield x + (rows - 1) * cols, spec.node_count - 1, spec.s


@dataclass(frozen=True)
class ResistanceResult:
    """Two-point resistance in ohms with its method tag and diagnostics."""

    ohms: float
    method: str
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __float__(self) -> float:
        return self.ohms


def env_cap(name: str, default: int) -> int:
    """Read a size cap from the environment, falling back to ``default``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise LatticeError(f"environment variable {name}={raw!r} is not an integer") from exc
    if value < 1:
        raise LatticeError(f"environment variable {name} must be positive")
    return value
