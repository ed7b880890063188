"""Column-current recurrence solution and current-field reconstruction.

The hammock is treated as a full rectangle of N columns and M + 2 rows
whose top and bottom rows are perfect conductors (the two hubs). With
I_k the vector of M + 1 upward link currents in column k, Kirchhoff and
Ohm reduce to a three-term matrix recurrence in k, closed at the side
boundaries by one-sided relations. Transforming by the eigenvector matrix
of the link-coupling pattern decouples the rows into M + 1 scalar
recurrences, each solved in closed form region by region (left of the
input column, between the two nodes, right of the output column).

Sign conventions: upward currents are positive, and the transformed
values returned by :func:`solve_modes` correspond to a unit current
entering the network at the *output* column node and leaving at the input
column node;
the uniform mode is the limit value -J*(y_out - y_in)/N. The resistance
difference formula in :func:`resistance_rt` is stated for that
orientation, and :func:`reconstruct_currents` negates the reconstruction
where needed so that in its field the injected current always enters the
network at the requested source node and leaves at the sink.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import _decay_table, _mode_blocks, _span_ratios
from .lattice import (
    GridNode,
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SpanCoords,
    node_code,
    require_interior,
    span_coords,
)


def coupling_matrix(rows: int) -> np.ndarray:
    """Link-coupling pattern of the M + 1 vertical links in a column.

    Ones on the super/sub-diagonals plus unit corner entries; the free
    chain matrix is 2*I minus this.
    """
    if rows < 1:
        raise LatticeError(f"need at least one row, got {rows}")
    n = rows + 1
    matrix = np.zeros((n, n))
    idx = np.arange(n - 1)
    matrix[idx, idx + 1] = 1.0
    matrix[idx + 1, idx] = 1.0
    matrix[0, 0] = 1.0
    matrix[-1, -1] = 1.0
    return matrix


@dataclass(frozen=True)
class TransformPair:
    """Row-eigenvector matrix of the coupling pattern and its inverse.

    ``inverse`` is the explicit inverse whose first column is 1/(M+1) and
    whose other entries are (2/(M+1)) * cos((2j+1) * chi_i), with
    chi_i = i*pi/(2M+2), 0-based. ``forward`` has the eigenvectors as rows
    (entry [i, j] = cos((2j+1) * chi_i)); it is derived from ``inverse`` on
    each access, so a cached pair holds one dense matrix.
    """

    inverse: np.ndarray

    @property
    def forward(self) -> np.ndarray:
        forward = (self.inverse.shape[0] / 2.0) * self.inverse.T
        forward[0, :] = 1.0
        return forward


def _mode_angles(rows: int) -> np.ndarray:
    return np.arange(rows + 1) * np.pi / (2.0 * (rows + 1))


@lru_cache(maxsize=64)
def mode_transform(rows: int) -> TransformPair:
    """Build (and cache) the transform pair for M + 1 link rows."""
    if rows < 1:
        raise LatticeError(f"need at least one row, got {rows}")
    n = rows + 1
    chis = _mode_angles(rows)
    j = np.arange(n)
    inverse = (2.0 / n) * np.cos((2 * j[:, None] + 1) * chis[None, :])
    inverse[:, 0] = 1.0 / n
    inverse.flags.writeable = False
    return TransformPair(inverse=inverse)


def mode_weights(rows: int, height: int) -> np.ndarray:
    """Per-mode weights of the link-current sum above ``height``.

    Summing the inverse transform over link rows height+1 .. M+1 gives
    (M+1-height)/(M+1) for the uniform mode and
    -sin(2*height*chi_i) / ((M+1)*sin(chi_i)) for the rest.
    """
    if not 0 <= height <= rows + 1:
        raise LatticeError(f"height {height} outside 0..{rows + 1}")
    n = rows + 1
    chis = _mode_angles(rows)
    weights = np.empty(n)
    weights[0] = (n - height) / n
    if n > 1:
        weights[1:] = -np.sin(2.0 * height * chis[1:]) / (n * np.sin(chis[1:]))
    return weights


def _zeta(rows: int, height: int) -> np.ndarray:
    """Transformed unit-injection profile at ``height``, per mode."""
    chis = _mode_angles(rows)
    return -2.0 * np.sin(2.0 * height * chis) * np.sin(chis)


@dataclass(frozen=True)
class RegionSolution:
    """The injection problem that the three-region recurrence solves.

    Holds what :func:`transformed_columns` needs: the instance, its span
    frame and the injected current. The region amplitudes themselves grow
    like root**N and are never formed; each region is evaluated from
    grouped exponential terms instead.
    """

    spec: HammockSpec
    coords: SpanCoords
    injected: float


def _column_values(scale: float, ratios, zeta_in: np.ndarray,
                   zeta_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-uniform transformed values at the output and input columns.

    ``ratios`` are the span-frame ratios of the same modes as the
    injection profiles; ``scale`` is (r/s) times the injected current.
    """
    ratio_in, ratio_cross, ratio_out = ratios
    return (scale * (ratio_out * zeta_out - ratio_cross * zeta_in),
            -scale * (ratio_in * zeta_in - ratio_cross * zeta_out))


def solve_modes(spec: HammockSpec, coords: SpanCoords,
                injected: float) -> tuple[RegionSolution, np.ndarray, np.ndarray]:
    """Set up the decoupled recurrences; return them and boundary values.

    The returned arrays are the transformed column values at the output
    column (k = q_offset) and input column (k = -p_offset); the uniform
    mode is the analytic limit -J*(y_out - y_in)/N. They are assembled
    from the closed form's scaled span-frame ratios, so they scale to
    10^4+ rows and columns.
    """
    if coords.cols != spec.cols:
        raise LatticeError(
            f"span frame covers {coords.cols} columns, spec has {spec.cols}"
        )
    rows = spec.rows
    x_out = np.empty(rows + 1)
    x_in = np.empty(rows + 1)
    x_out[0] = x_in[0] = -injected * (coords.y_out - coords.y_in) / spec.cols
    x_out[1:], x_in[1:] = _column_values(
        spec.ratio * injected, _span_ratios(coords, _decay_table(rows, spec.ratio)),
        _zeta(rows, coords.y_in)[1:], _zeta(rows, coords.y_out)[1:])
    return RegionSolution(spec=spec, coords=coords, injected=injected), x_out, x_in


def transformed_columns(solution: RegionSolution) -> np.ndarray:
    """Transformed column values for every column.

    Column k follows the right-region solution for k > q_offset, the
    middle one for -p_offset <= k <= q_offset and the left one below, and
    each region is evaluated on its own columns only. A region is a sum of
    column terms coeff_j * root**(base_j + e(k) - 2N) over the grouped
    numerators j and one or two column exponents e(k). With top the
    largest base_j, each column term factors into root**(e(k) + top - 2N)
    times the per-mode sum of coeff_j * root**(base_j - top). Both
    exponents are <= 0 inside the region, so nothing overflows, and each
    column exponent costs one exponential per mode and column. Subnormal
    results, far below rounding, are flushed to zero (see
    :func:`_flush_subnormals`).
    """
    spec, coords = solution.spec, solution.coords
    rows, cols = spec.rows, spec.cols
    left_s, right_s = coords.span_left, coords.span_right
    p, q = coords.p_offset, coords.q_offset

    two_log = 2.0 * _decay_table(rows, spec.ratio)
    gap = 2.0 * np.sinh(two_log)
    c_in = spec.ratio * solution.injected * _zeta(rows, coords.y_in)[1:] / gap
    c_out = spec.ratio * solution.injected * _zeta(rows, coords.y_out)[1:] / gap
    shrink = -np.expm1(-2.0 * cols * two_log)  # 1 - root**(-2N)

    values = np.zeros((rows + 1, cols))
    values[0, :] = -solution.injected * (coords.y_out - coords.y_in) / cols

    def region(first: int, last: int, terms) -> None:
        """Fill columns first <= k <= last from (numerators, exponent) terms."""
        ks = np.arange(first, last + 1)
        block = values[1:, first + left_s:last + left_s + 1]
        for numerators, exponent in terms:
            top = max(base for _, base in numerators)
            weight = sum(coeff * np.exp((base - top) * two_log)
                         for coeff, base in numerators) / shrink
            column = np.multiply.outer(two_log, exponent(ks) + (top - 2 * cols))
            np.exp(column, out=column)
            column *= weight[:, None]
            block -= column

    right_numerators = [(c_in, p), (c_in, 2 * left_s - p + 1),
                        (-c_out, -q), (-c_out, q + 2 * left_s + 1)]
    region(q + 1, right_s, [
        (right_numerators, lambda ks: ks),
        (right_numerators, lambda ks: 2 * right_s + 1 - ks),
    ])
    region(-p, q, [
        ([(c_in, p), (c_in, 2 * left_s - p + 1),
          (-c_out, q + 2 * left_s + 1), (-c_out, 2 * cols - q)],
         lambda ks: ks),
        ([(c_in, 2 * right_s + 1 + p), (c_in, 2 * cols - p),
          (-c_out, 2 * right_s + 1 - q), (-c_out, q)],
         lambda ks: -ks),
    ])
    left_numerators = [(c_in, 2 * right_s + p + 1), (c_in, -p),
                       (-c_out, 2 * right_s - q + 1), (-c_out, q)]
    region(-left_s, -p - 1, [
        (left_numerators, lambda ks: 2 * left_s + 1 + ks),
        (left_numerators, lambda ks: -ks),
    ])
    _flush_subnormals(values)
    return values


def _flush_subnormals(values: np.ndarray) -> None:
    """Set entries of magnitude below the smallest normal double to zero.

    Exponentials of exponents between about -745 and -708 land in the
    subnormal range, and subnormal operands slow the BLAS inverse product
    several-fold while contributing nothing above rounding. Works on row
    blocks of about 2**16 entries, so no full-size temporary is made.
    """
    tiny = np.finfo(values.dtype).tiny
    step = max(1, (1 << 16) // values.shape[1])
    for start in range(0, values.shape[0], step):
        block = values[start:start + step]
        block[np.abs(block) < tiny] = 0.0


def resistance_rt(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Resistance from the recurrence-transform mode solution.

    Potential differences are summed along the path through the common
    top hub: R = (s/J) * (sum_i X_out(i) * w_i(y_out) -
    sum_i X_in(i) * w_i(y_in)) with the weights of
    :func:`mode_weights`. Scales to very large lattices: the boundary
    values that :func:`solve_modes` returns and the weights are formed
    here one block of modes at a time, from one sine table per
    height and one of sin(chi_i), and only the block sums are kept.
    """
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    coords = span_coords(spec, a, b)
    n = spec.rows + 1
    y_in, y_out = coords.y_in, coords.y_out
    # uniform mode: value -(y_out - y_in)/N, weight (n - height)/n
    uniform = -(y_out - y_in) / spec.cols
    total = uniform * ((n - y_out) - (n - y_in)) / n
    table = _decay_table(spec.rows, spec.ratio)
    for block, idx in _mode_blocks(spec.rows):
        chis = idx * np.pi / (2.0 * n)
        sin_chi = np.sin(chis)
        lift_in = np.sin(2.0 * y_in * chis)
        lift_out = np.sin(2.0 * y_out * chis)
        x_out, x_in = _column_values(
            spec.ratio, _span_ratios(coords, table[block]),
            -2.0 * lift_in * sin_chi, -2.0 * lift_out * sin_chi)
        w_out = -lift_out / (n * sin_chi)
        w_in = -lift_in / (n * sin_chi)
        total += float((x_out * w_out).sum()) - float((x_in * w_in).sum())
    value = float(spec.s) * total
    return ResistanceResult(value, "rt", {"swapped": coords.swapped})


@dataclass(frozen=True)
class CurrentField:
    """All vertical link currents for one injection problem.

    ``currents[i-1, x-1]`` is the upward current through the i-th link
    (i = 1..M+1, counted from the bottom hub) of column x. A current of
    ``injected`` amperes enters at ``source`` and leaves at ``sink``; rail
    currents inside the hubs are implied, not stored. Immutable.
    """

    spec: HammockSpec
    source: GridNode
    sink: GridNode
    injected: float
    coords: SpanCoords
    currents: np.ndarray

    def column_label(self, x: int) -> int:
        """Span-frame label k of grid column x."""
        return x - 1 - self.coords.span_left

    def to_csv(self) -> str:
        """Rows of ``k,i,current`` over all columns and links."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "i", "current"])
        for x in range(1, self.spec.cols + 1):
            for i in range(1, self.spec.rows + 2):
                writer.writerow([self.column_label(x), i,
                                 repr(float(self.currents[i - 1, x - 1]))])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "spec": self.spec.as_dict(),
            "source": node_code(self.source),
            "sink": node_code(self.sink),
            "J": self.injected,
            "span_left": self.coords.span_left,
            "columns": [
                {"k": self.column_label(x),
                 "currents": [float(c) for c in self.currents[:, x - 1]]}
                for x in range(1, self.spec.cols + 1)
            ],
        }
        return json.dumps(payload)


def reconstruct_currents(spec: HammockSpec, a: NodeLike, b: NodeLike,
                         injected: float = 1.0) -> CurrentField:
    """Reconstruct every vertical link current for injection a -> b.

    Inverse-transforms the region solution column by column with one
    dense (M+1) x (M+1) product and orients the result so ``injected``
    amperes enter at ``a`` and leave at ``b``. ``injected`` may be zero
    (zero field). Every intermediate is bounded, so any size that fits in
    memory reconstructs without overflow.
    """
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    coords = span_coords(spec, a, b)
    solution, _, _ = solve_modes(spec, coords, injected)
    transformed = transformed_columns(solution)
    raw = mode_transform(spec.rows).inverse @ transformed
    currents = raw if coords.swapped else -raw
    currents.flags.writeable = False
    return CurrentField(spec=spec, source=a, sink=b, injected=injected,
                        coords=coords, currents=currents)


def _external_injection(field: CurrentField) -> np.ndarray:
    """(M, N) array of external current into each interior node."""
    spec = field.spec
    ext = np.zeros((spec.rows, spec.cols))
    ext[field.source.y - 1, field.source.x - 1] += field.injected
    ext[field.sink.y - 1, field.sink.x - 1] -= field.injected
    return ext


def _potentials(field: CurrentField) -> np.ndarray:
    """(M+2, N) node potentials, bottom hub pinned to zero per column."""
    drops = float(field.spec.s) * field.currents
    potentials = np.zeros((field.spec.rows + 2, field.spec.cols))
    potentials[1:, :] = -np.cumsum(drops, axis=0)
    return potentials


def kirchhoff_residual(field: CurrentField) -> float:
    """Worst current imbalance over every node, in amperes.

    Horizontal link currents are recovered from Ohm's law on the column
    potentials; the residual covers every interior node, both hubs, and
    the spread of the top-rail potential (scaled to amperes).
    """
    spec = field.spec
    currents = field.currents
    potentials = _potentials(field)
    horizontal = (potentials[1:-1, :-1] - potentials[1:-1, 1:]) / float(spec.r)

    imbalance = currents[:-1, :] - currents[1:, :] + _external_injection(field)
    imbalance[:, 1:] += horizontal
    imbalance[:, :-1] -= horizontal

    residuals = [float(np.abs(imbalance).max()) if imbalance.size else 0.0,
                 abs(float(currents[0, :].sum())),
                 abs(float(currents[-1, :].sum()))]
    top = potentials[-1, :]
    residuals.append(float(np.abs(top - top[0]).max()) / float(spec.s))
    return max(residuals)


def recurrence_residual(field: CurrentField) -> float:
    """Worst violation of the three-column relation, in amperes.

    Interior columns check the full three-term matrix recurrence with the
    source profile of whichever node lives in the column; the two side
    columns check the one-sided boundary relations, again source-aware.
    Single-column instances have no relation to check and return zero.
    """
    spec = field.spec
    rows, cols = spec.rows, spec.cols
    if cols == 1:
        return 0.0
    h = spec.ratio
    coupling = coupling_matrix(rows)
    interior_op = (2.0 * h + 2.0) * np.eye(rows + 1) - h * coupling
    boundary_op = (2.0 * h + 1.0) * np.eye(rows + 1) - h * coupling

    source_profile = np.zeros((rows + 1, cols))

    def add(node: GridNode, amount: float) -> None:
        profile = np.zeros(rows + 1)
        profile[node.y] += 1.0
        profile[node.y - 1] -= 1.0
        source_profile[:, node.x - 1] += amount * profile

    add(field.source, field.injected)
    add(field.sink, -field.injected)

    currents = field.currents
    worst = 0.0
    for c in range(1, cols - 1):
        res = currents[:, c + 1] - interior_op @ currents[:, c] \
            + currents[:, c - 1] + h * source_profile[:, c]
        worst = max(worst, float(np.abs(res).max()))
    res_left = currents[:, 1] - boundary_op @ currents[:, 0] \
        + h * source_profile[:, 0]
    res_right = currents[:, cols - 2] - boundary_op @ currents[:, cols - 1] \
        + h * source_profile[:, cols - 1]
    worst = max(worst, float(np.abs(res_left).max()), float(np.abs(res_right).max()))
    return worst


def potential_path_check(field: CurrentField) -> tuple[float, float]:
    """Potential drop source -> sink along two independent paths, in ohms.

    The first path climbs the source column to the top hub, crosses it,
    and descends the sink column; the second walks horizontally at the
    source height (horizontal currents recovered by charge conservation,
    not potentials) and then vertically up the sink column. Both equal the
    resistance for a consistent field.
    """
    spec = field.spec
    if field.injected == 0.0:
        return 0.0, 0.0
    currents = field.currents
    s, r = float(spec.s), float(spec.r)
    c1, y1 = field.source.x - 1, field.source.y
    c2, y2 = field.sink.x - 1, field.sink.y

    via_rail = s * (currents[y1:, c1].sum() - currents[y2:, c2].sum())

    # horizontal currents along the source row, by charge conservation
    # over the columns left of each link
    row = y1 - 1
    conserved = np.cumsum(currents[row, :-1] - currents[row + 1, :-1]
                          + _external_injection(field)[row, :-1])

    drop = 0.0
    if c1 < c2:
        drop += r * conserved[c1:c2].sum()
    elif c1 > c2:
        drop -= r * conserved[c2:c1].sum()
    if y2 > y1:
        drop += s * currents[y1:y2, c2].sum()
    elif y2 < y1:
        drop -= s * currents[y2:y1, c2].sum()

    j = field.injected
    return float(via_rail / j), float(drop / j)
