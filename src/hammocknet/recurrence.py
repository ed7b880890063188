"""Column-current recurrence solution and current-field reconstruction.

The hammock is treated as a full rectangle of N columns and M + 2 rows
whose top and bottom rows are perfect conductors (the two hubs). With
I_k the vector of M + 1 upward link currents in column k, Kirchhoff and
Ohm reduce to a three-term matrix recurrence in k, closed at the side
boundaries by one-sided relations. Transforming by the eigenvector matrix
of the link-coupling pattern decouples the rows into M + 1 scalar
recurrences, each solved in closed form region by region (left of the
input column, between the two nodes, right of the output column).

Every mode table (injection profiles, path weights, boundary values and
the inverse transform) is built from the closed form's exact-residue
sines, the first three through :func:`_profiles`, so rt and the fields
read one table per quantity and every entry is within a few eps. Past
its live cut-off rt has no pair algebra left: it sums f*sin^2 over the
folded table through closed's plumbing, as closed does.

Sign conventions: upward currents are positive, and the transformed
values returned by :func:`solve_modes` correspond to a unit current
entering the network at the *output* column node and leaving at the input
column node; the uniform mode is the limit value -J*(y_out - y_in)/N. The
resistance difference formula in :func:`resistance_rt` is stated for that
orientation, and :func:`reconstruct_currents` solves for the negated
current where needed so that in its field the injected current always
enters the network at the requested source node and leaves at the sink.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import (
    _decay_table,
    _direct_modes,
    _far_sum,
    _free,
    _free_terms,
    _live_modes,
    _live_rates,
    _mode_blocks,
    _rates,
    _sin_turns,
    _sines,
    _span_ratios,
)
from .lattice import (
    GridNode,
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SpanCoords,
    _is_integer,
    node_code,
    require_frame,
    span_coords,
)


@lru_cache(maxsize=64, typed=True)  # typed: True or 2.0 must not hit 1 or 2
def mode_transform(rows: int) -> np.ndarray:
    """Read-only inverse mode transform for M + 1 link rows, cached.

    The forward transform has the coupling pattern's eigenvectors as rows,
    entry [i, j] = cos((2j+1) * chi_i) with chi_i = i*pi/(2M+2), 0-based.
    Its inverse, returned here, has entry [j, i] = 1/(M+1) for i = 0 and
    (2/(M+1)) * cos((2j+1) * chi_i) otherwise, gathered from one period of
    an exact-residue table of cos(pi*t/(2M+2)): within a few eps of 2/(M+1).
    """
    if not _is_integer(rows) or rows < 1:
        raise LatticeError(f"need at least one row, as an integer, got {rows!r}")
    n = rows + 1
    # cos(pi*t/(2n)) = sin(2*pi*(t + n)/(4n)) for t = 0..4n-1
    wave = (2.0 / n) * _sin_turns(np.arange(n, 5 * n), 4 * n)
    turns = np.multiply.outer(2 * np.arange(n) + 1, np.arange(n))
    turns %= 4 * n
    inverse = wave[turns]
    inverse[:, 0] = 1.0 / n
    inverse.flags.writeable = False
    return inverse


def _profiles(n: int, sin_chi: np.ndarray, lift_in: np.ndarray,
              lift_out: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(zeta_in, zeta_out, w_in, w_out)`` from the sine rows of :func:`_sines`.

    The unit-injection profile zeta_i = -2*sin(2*y*chi_i)*sin(chi_i) and
    the path weight w_i = -sin(2*y*chi_i)/(n*sin(chi_i)), chi_i =
    (i-1)*pi/(2n), from the rows sin(chi) and sin(2*y*chi) of the two
    heights, which one exact-residue table call forms for a block of modes.
    """
    # scaling by -2 and negating are exact, so each factor is shared
    zeta_scale = -2.0 * sin_chi
    weight_scale = -n * sin_chi
    return (lift_in * zeta_scale, lift_out * zeta_scale,
            lift_in / weight_scale, lift_out / weight_scale)


def _all_profiles(rows: int, y_in: int, y_out: int) -> list[np.ndarray]:
    """:func:`_profiles` over every non-uniform mode, in the blocks rt reads."""
    n = rows + 1
    return [np.concatenate(tables) for tables in zip(*(
        _profiles(n, *_sines(block, 2 * n, 1, 2 * y_in, 2 * y_out))
        for block, _ in _mode_blocks(rows, rows)))]


def _live_values(spec: HammockSpec, coords: SpanCoords, head: np.ndarray, block: slice,
                 cut: int, zeta_in: np.ndarray, zeta_out: np.ndarray, scale: float):
    """``(x_out, x_in)`` of :func:`solve_modes` over the first ``cut`` modes of
    ``block``, all before the live cut-off, with ``scale`` = (r/s)*J for the current J."""
    ratio_in, ratio_cross, ratio_out = _span_ratios(coords, _live_rates(spec, head, block, cut))
    return (scale * (ratio_out * zeta_out - ratio_cross * zeta_in),
            -scale * (ratio_in * zeta_in - ratio_cross * zeta_out))


def _require_current(injected) -> None:
    """Refuse a current J that is a bool, not a real number, or not finite."""
    if isinstance(injected, bool) or not isinstance(injected, numbers.Real) \
            or not abs(injected) <= sys.float_info.max:  # NaN too
        raise LatticeError(f"injected current must be a finite real number, got {injected!r}")


def _past_the_float_range(injected) -> LatticeError:
    """The refusal of a J too large for the float range; its wording holds for either sign."""
    return LatticeError(f"the currents for J={abs(injected)!r} pass the float range, or the "
                        "mode values that form them do, and so do those for -J; they are "
                        "linear in J, so solve for a smaller |J|")


def mode_weights(rows: int, height: int) -> np.ndarray:
    """Per-mode weights of the link-current sum above ``height``.

    Summing the inverse transform over link rows height+1 .. M+1 gives
    (M+1-height)/(M+1) for the uniform mode and
    -sin(2*height*chi_i) / ((M+1)*sin(chi_i)) for the rest, the table rt
    reads (see :func:`_profiles`).
    """
    if not (_is_integer(rows) and rows >= 1 and _is_integer(height)
            and 0 <= height <= rows + 1):
        raise LatticeError(f"need integers rows >= 1 and 0 <= height <= rows + 1, "
                           f"got rows={rows!r}, height={height!r}")
    uniform = [(rows + 1 - height) / (rows + 1)]
    return np.concatenate((uniform, _all_profiles(rows, height, height)[3]))


def solve_modes(spec: HammockSpec, coords: SpanCoords,
                injected: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values of the decoupled recurrences, ``(x_out, x_in)``.

    These are the transformed column values at the output column
    (k = q_offset) and input column (k = -p_offset); the uniform mode is
    the analytic limit -J*(y_out - y_in)/N. They are assembled from the
    closed form's scaled span-frame ratios, so they scale to 10^4+ rows
    and columns, and they are the values rt sums in its live modes. Past
    the live cut-off the cross ratio is exactly 0: the values are
    (r/s)*J*f*zeta_out and -(r/s)*J*f*zeta_in, with f = 1/(2*sinh(2h))
    formed one block at a time by :func:`_free`. J must be a finite real
    number.
    """
    require_frame(spec, coords)
    _require_current(injected)
    table = _decay_table(spec.rows, spec.ratio)
    live = _live_modes(coords, table)
    scale, n = spec.ratio * injected, spec.rows + 1
    x_out, x_in = np.empty(n), np.empty(n)
    x_out[0] = x_in[0] = -injected * (coords.y_out - coords.y_in) / spec.cols
    for block, cut in _mode_blocks(spec.rows, live):
        zeta_in, zeta_out, _, _ = _profiles(n, *_sines(block, 2 * n, 1, 2 * coords.y_in,
                                                       2 * coords.y_out))
        out, in_ = x_out[1 + block.start:1 + block.stop], x_in[1 + block.start:1 + block.stop]
        if cut:
            out[:cut], in_[:cut] = _live_values(spec, coords, table.head, block, cut,
                                                zeta_in[:cut], zeta_out[:cut], scale)
        weight = scale * _free(spec.rows, spec.ratio, block.start + cut, block.stop)
        out[cut:], in_[cut:] = weight * zeta_out[cut:], -weight * zeta_in[cut:]
    return x_out, x_in


# Largest transformed term that truncation drops, per unit of |J|. Two
# terms per column, at most M dropped modes and |inverse| <= 2/(M+1) keep the
# dropped modes' share of each link current within 4 * this * |J| = eps*|J|.
_DROP_TOLERANCE = np.finfo(float).eps / 4.0
# Modes per fill block: narrow enough that the entries past a column's
# depth, computed and then discarded, stay a small share of each block.
_FILL_BAND = 64
# Columns per inverse-product call. Narrower calls cost the threaded BLAS
# more per column than the modes they skip, except in the chunks whose
# depths vary most (those that hold or border a node), which run in
# calls of _NARROW columns.
_CHUNK = 256
_NARROW = 64
# Entries per row block of the Kirchhoff audit.
_AUDIT_BLOCK = 1 << 14


def _spans(first: int, stop: int, width: int):
    """(start, stop) pairs covering first..stop-1, each >= ``width`` wide
    except when the whole range is narrower."""
    starts = list(range(first, stop, width))
    if len(starts) > 1 and stop - starts[-1] < width:
        starts.pop()  # fold a narrow tail into the span before it
    return zip(starts, starts[1:] + [stop])


def _depth(kept: np.ndarray, first: int, stop: int) -> int:
    """Modes, the uniform one included, kept by any column first..stop-1."""
    return 1 + int(kept[first:stop].max())


def _product_calls(kept: np.ndarray):
    """Column ranges of the inverse-product calls.

    Chunks of ``_CHUNK`` columns, each multiplied over the modes its
    columns keep. A chunk is split into calls of ``_NARROW`` columns where
    that skips at least a third of its multiply-adds.
    """
    for start, stop in _spans(0, len(kept), _CHUNK):
        narrow = list(_spans(start, stop, _NARROW))
        if 3 * sum(_depth(kept, *call) * (call[1] - call[0]) for call in narrow) \
                <= 2 * _depth(kept, start, stop) * (stop - start):
            yield from narrow
        else:
            yield start, stop


def _region_terms(spec: HammockSpec, coords: SpanCoords, injected: float,
                  two_log: np.ndarray):
    """Yield (first, weight, exponent arrays) for each term of each region.

    Column first + j of a region holds minus the sum, over its terms and
    their exponent arrays e, of weight * root**e[j]. Every exponent is
    <= 0, and every array is monotone in the column. The region
    amplitudes themselves grow like root**N and are never formed.
    """
    cols = spec.cols
    left_s, right_s = coords.span_left, coords.span_right
    p, q = coords.p_offset, coords.q_offset
    gap = 2.0 * np.sinh(two_log)
    zeta_in, zeta_out = _all_profiles(spec.rows, coords.y_in, coords.y_out)[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused in term
        c_in = spec.ratio * injected * zeta_in / gap
        c_out = spec.ratio * injected * zeta_out / gap
    shrink = -np.expm1(-2.0 * cols * two_log)  # 1 - root**(-2N)

    def term(first, numerators, *exponents):
        top = max(base for _, base in numerators)
        with np.errstate(over="ignore", invalid="ignore"):
            weight = sum(coeff * np.exp((base - top) * two_log)
                         for coeff, base in numerators) / shrink
            # a column sums two terms, each at most |weight|: no value overflows
            if not np.isfinite(2.0 * weight).all():
                raise _past_the_float_range(injected)
        return first, weight, [e + (top - 2 * cols) for e in exponents]

    ks = np.arange(q + 1, right_s + 1, dtype=float)
    yield term(q + 1, [(c_in, p), (c_in, 2 * left_s - p + 1),
                       (-c_out, -q), (-c_out, q + 2 * left_s + 1)],
               ks, 2 * right_s + 1 - ks)
    ks = np.arange(-p, q + 1, dtype=float)
    yield term(-p, [(c_in, p), (c_in, 2 * left_s - p + 1),
                    (-c_out, q + 2 * left_s + 1), (-c_out, 2 * cols - q)], ks)
    yield term(-p, [(c_in, 2 * right_s + 1 + p), (c_in, 2 * cols - p),
                    (-c_out, 2 * right_s + 1 - q), (-c_out, q)], -ks)
    ks = np.arange(-left_s, -p, dtype=float)
    yield term(-left_s, [(c_in, 2 * right_s + p + 1), (c_in, -p),
                         (-c_out, 2 * right_s - q + 1), (-c_out, q)],
               2 * left_s + 1 + ks, -ks)


def _thresholds(weight: np.ndarray, two_log: np.ndarray,
                tolerance: float) -> np.ndarray:
    """Per-mode exponents from which a term keeps a mode.

    Mode i is kept in a column with exponent e while env_i * root_i**e >=
    tolerance, env being the suffix maximum of |weight|: while e >=
    log(tolerance / env_i) / (2h_i). Both factors fall with i, so these
    thresholds ascend over the modes an exponent <= 0 can reach.
    """
    envelope = np.maximum.accumulate(np.abs(weight)[::-1])[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        thresholds = np.log(tolerance / envelope) / two_log
    thresholds[thresholds > 0.0] = np.inf  # out of reach of e <= 0
    return thresholds


def transformed_columns(spec: HammockSpec, coords: SpanCoords,
                        injected: float) -> tuple[np.ndarray, np.ndarray]:
    """Transformed column values for every column, and each column's modes.

    Column k follows the right-region solution for k > q_offset, the
    middle one for -p_offset <= k <= q_offset and the left one below, and
    each region is evaluated on its own columns only. A region is a sum of
    column terms coeff_j * root**(base_j + e(k) - 2N) over the grouped
    numerators j and one or two column exponents e(k). With top the
    largest base_j, each column term factors into root**(e(k) + top - 2N)
    times the per-mode sum of coeff_j * root**(base_j - top). Both
    exponents are <= 0 inside the region, so nothing overflows.

    The roots ascend with the mode, so a column far from both nodes needs
    only a prefix of the modes. In each column a term keeps the modes
    before the first one whose bound env_i * root_i**e falls below
    eps*|J|/4 (see :func:`_thresholds`); both factors fall with i, so
    every dropped entry is below that too. Each term is filled in bands of
    ``_FILL_BAND`` modes over the columns that keep some of the band, the
    entries past a column's depth set to exactly zero. Returns the values
    (dropped entries are zero) and the number of non-uniform modes kept in
    each column. A kept entry is at least (|w_i|/env_i)*eps*|J|/4, so no
    value is subnormal for |J| above about 1e-280; below that the currents
    themselves near the subnormal range. Coincident nodes, like a zero
    current, give an all-zero field. J must be a finite real number; a J
    whose column terms could pass the float range raises a ``LatticeError``.
    """
    require_frame(spec, coords)
    _require_current(injected)
    rows, cols = spec.rows, spec.cols
    values = np.zeros((rows + 1, cols))
    values[0, :] = -injected * (coords.y_out - coords.y_in) / cols
    kept = np.zeros(cols, dtype=np.intp)
    if injected == 0.0 or (coords.separation == 0 and coords.y_in == coords.y_out):
        return values, kept
    tolerance = _DROP_TOLERANCE * abs(injected)
    two_log = 2.0 * _rates(rows, spec.ratio, 0, rows)

    for first, weight, exponent_arrays in _region_terms(spec, coords, injected, two_log):
        thresholds = _thresholds(weight, two_log, tolerance)
        for exponents in exponent_arrays:
            columns = slice(first + coords.span_left,
                            first + coords.span_left + len(exponents))
            target, kept_here = values[1:, columns], kept[columns]
            if len(exponents) > 1 and exponents[0] > exponents[-1]:
                # walk the columns backwards, so the exponents ascend
                exponents, target, kept_here = \
                    exponents[::-1], target[:, ::-1], kept_here[::-1]
            depth = np.searchsorted(thresholds, exponents, side="right")
            np.maximum(kept_here, depth, out=kept_here)
            for b0, b1 in _spans(0, int(depth.max(initial=0)), _FILL_BAND):
                # the columns from lo on keep some of the band, those from
                # full on all of it
                lo, full = np.searchsorted(depth, (b0 + 1, b1)).tolist()
                block = np.multiply.outer(two_log[b0:b1], exponents[lo:])
                if full > lo:
                    np.copyto(block[:, :full - lo], -np.inf,
                              where=np.arange(b0, b1)[:, None] >= depth[lo:full])
                np.exp(block, out=block)
                block *= weight[b0:b1, None]
                target[b0:b1, lo:] -= block
    return values, kept


def resistance_rt(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Resistance from the recurrence-transform mode solution.

    Potential differences are summed along the path through the common
    top hub: R = (s/J) * (sum_i X_out(i) * w_i(y_out) -
    sum_i X_in(i) * w_i(y_in)), with the boundary values of
    :func:`solve_modes` and the weights of :func:`mode_weights`. rt forms
    them, and sums X*w, over its live modes only, a block at a time. Past
    the cut-off X*w = (r/s)*J*f*(2/(M+1))*sin^2(2*y*chi) per node, with no
    pair algebra left: rt sums f*sin^2 through the plumbing closed uses,
    :func:`_free_terms` against the sine rows of its blocks up to
    :func:`_direct_modes` and :func:`_far_sum` over the folded table past
    them, and a warm query costs O(live modes) sines at any size.
    """
    coords = span_coords(spec, a, b)
    y_in, y_out, n = coords.y_in, coords.y_out, spec.rows + 1
    table = _decay_table(spec.rows, spec.ratio)
    live = _live_modes(coords, table)
    direct = _direct_modes(live, spec.rows)
    # uniform mode: value -(y_out - y_in)/N, weight (M + 1 - y)/(M + 1)
    total = -(y_out - y_in) / spec.cols * (y_in - y_out) / n
    free = 0.0
    for block, cut in _mode_blocks(direct, live):
        sin_chi, lift_in, lift_out = _sines(block, 2 * n, 1, 2 * y_in, 2 * y_out)
        if cut:
            zeta_in, zeta_out, w_in, w_out = _profiles(n, sin_chi[:cut], lift_in[:cut],
                                                       lift_out[:cut])
            x_out, x_in = _live_values(spec, coords, table.head, block, cut,
                                       zeta_in, zeta_out, spec.ratio)
            total += float((x_out * w_out).sum()) - float((x_in * w_in).sum())
        free += _free_terms(table, block, live, lift_in, lift_out)
    free += _far_sum(table, direct, n, y_in, y_out)
    # past the cut-off, x*w = (r/s)*f*zeta*w per node, zeta*w = (2/n)*sin^2(2*y*chi)
    value = float(spec.s) * (total + spec.ratio * (2.0 / n) * free)
    return ResistanceResult(value, "rt", {"swapped": coords.swapped})


@dataclass(frozen=True)
class CurrentField:
    """All vertical link currents for one injection problem.

    ``currents[i-1, x-1]`` is the upward current through the i-th link
    (i = 1..M+1, counted from the bottom hub) of column x. A current of
    ``injected`` amperes enters at ``source`` and leaves at ``sink``; rail
    currents inside the hubs are implied, not stored. ``truncation_bound``
    (eps*|J|) bounds the dropped modes' share of each current, not the
    rounding of the kept ones (see :func:`transformed_columns`). Immutable.
    """

    spec: HammockSpec
    source: GridNode
    sink: GridNode
    injected: float
    coords: SpanCoords
    currents: np.ndarray
    truncation_bound: float

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
            "truncation_bound": self.truncation_bound,
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

    Inverse-transforms the region solution with the dense (M+1) x (M+1)
    inverse, one call per column range of :func:`_product_calls` over the
    modes its columns keep, and orients the result so ``injected`` amperes
    enter at ``a`` and leave at ``b``. Each column is summed in one call,
    so the columns around a node match the all-modes sum to rounding.
    ``injected`` must be a finite real number and may be zero (zero
    field). Any size that fits in memory reconstructs; a J whose currents
    or mode values pass the float range raises a ``LatticeError``.
    """
    _require_current(injected)  # before it is negated
    coords = span_coords(spec, a, b)
    a, b = coords.node_in, coords.node_out
    if coords.swapped:
        a, b = b, a
    # the solution is odd in the current, so solving for -J negates exactly
    transformed, kept = transformed_columns(spec, coords,
                                            injected if coords.swapped else -injected)
    inverse = mode_transform(spec.rows)
    currents = np.empty((spec.rows + 1, spec.cols))
    for first, stop in _product_calls(kept):
        depth = _depth(kept, first, stop)
        np.matmul(inverse[:, :depth], transformed[:depth, first:stop],
                  out=currents[:, first:stop])
    # BLAS overflows with no numpy flag; min and max need no field-sized temporary
    if not np.isfinite((currents.min(), currents.max())).all():
        raise _past_the_float_range(injected)
    currents.flags.writeable = False
    return CurrentField(spec=spec, source=a, sink=b, injected=injected,
                        coords=coords, currents=currents,
                        truncation_bound=4.0 * _DROP_TOLERANCE * abs(injected))


def kirchhoff_residual(field: CurrentField) -> float:
    """Worst current imbalance over every node, in amperes.

    Horizontal link currents are recovered from Ohm's law on the column
    potentials; the residual covers every interior node, both hubs, and
    the spread of the top-rail potential (scaled to amperes). Works in
    row blocks of about ``_AUDIT_BLOCK`` entries in reused buffers,
    carrying the running sum of the column drops (minus the potential,
    bottom hub pinned to zero) from block to block, so it needs O(M + N)
    memory beyond the field. The prefix sums run row by row, which adds in
    the order of a cumulative sum down the columns and is faster on wide
    blocks.
    """
    spec = field.spec
    currents = field.currents
    rows, cols = spec.rows, spec.cols
    s, r = float(spec.s), float(spec.r)
    injections = [(field.source, field.injected), (field.sink, -field.injected)]

    step = max(1, _AUDIT_BLOCK // cols)
    climbed = np.zeros(cols)  # sum of s * current over the links below
    potential = np.empty((step, cols))  # reused by every block
    drops = np.empty((step, cols - 1))
    balance = np.empty((step, cols))
    worst = 0.0
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        # node rows start..stop-1 sit above link rows start..stop-1
        block = potential[:stop - start]
        np.multiply(currents[start:stop], s, out=block)
        block[0] += climbed
        lines = list(block)
        for below, line in zip(lines, lines[1:]):
            np.add(below, line, line)
        climbed[:] = block[-1]
        horizontal = drops[:stop - start]
        np.subtract(block[:, 1:], block[:, :-1], out=horizontal)
        np.divide(horizontal, r, out=horizontal)

        imbalance = balance[:stop - start]
        np.subtract(currents[start:stop], currents[start + 1:stop + 1], out=imbalance)
        for node, amount in injections:
            if start <= node.y - 1 < stop:
                imbalance[node.y - 1 - start, node.x - 1] += amount
        imbalance[:, 1:] += horizontal
        imbalance[:, :-1] -= horizontal
        worst = max(worst, float(imbalance.max()), -float(imbalance.min()))

    top = climbed + s * currents[-1]
    return max(worst,
               abs(float(currents[0, :].sum())),
               abs(float(currents[-1, :].sum())),
               float(np.abs(top - top[0]).max()) / s)


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
    injection = np.zeros(spec.cols)
    injection[c1] += field.injected
    if y2 == y1:
        injection[c2] -= field.injected
    conserved = np.cumsum(currents[row, :-1] - currents[row + 1, :-1]
                          + injection[:-1])

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
