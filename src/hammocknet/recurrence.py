"""Column-current recurrence solution and current-field reconstruction.

The hammock is treated as a full rectangle of N columns and M + 2 rows
whose top and bottom rows are perfect conductors (the two hubs). With
I_k the vector of M + 1 upward link currents in column k, Kirchhoff and
Ohm reduce to a three-term matrix recurrence in k, closed at the side
boundaries by one-sided relations. Transforming by the eigenvector matrix
of the link-coupling pattern decouples the rows into M + 1 scalar
recurrences, each solved in closed form region by region (left of the
input column, between the two nodes, right of the output column). The
way back folds at the mirror row: link rows j and M - j are the sum and
the difference of an even-mode and an odd-mode half-product (the first
butterfly of a fast cosine transform), so the inverse product multiplies
half the rows and the cached transform holds half a table. A field holds
one field-sized array, its currents: the transformed values are formed a
chunk of columns at a time, so beside the currents it takes
O((M+1) * ``_CHUNK``) of buffers, O(M + N) of per-column plan and the
cached half table.

Every mode table (injection profiles, path weights, boundary values and
the inverse transform) is built from the closed form's exact-residue
sines, the first three through :func:`_profiles`, so rt and the fields
read one table per quantity and every entry is within a few eps. rt's
pair sum passes only its live-mode kernel to closed's ``_mode_sum``,
which adds its modes' mirror terms and a cached tail of f*sin^2 over the
folded table past the cut-off, the same for both routes.

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
    _block_rates,
    _decay_table,
    _mode_blocks,
    _mode_sum,
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

# Entries per row block of the inverse transform's build.
_TABLE_BLOCK = 1 << 16


@lru_cache(maxsize=64, typed=True)  # typed: True or 2.0 must not hit 1 or 2
def mode_transform(rows: int) -> np.ndarray:
    """Read-only lower half of the inverse mode transform for M + 1 link rows, cached.

    The forward transform has the coupling pattern's eigenvectors as rows,
    entry [i, j] = cos((2j+1) * chi_i) with chi_i = i*pi/(2M+2), 0-based.
    Its inverse has entry [j, i] = 1/(M+1) for i = 0 and
    (2/(M+1)) * cos((2j+1) * chi_i) otherwise, gathered from one period of
    an exact-residue table of cos(pi*t/(2M+2)): within a few eps of 2/(M+1).

    Link rows j and M - j mirror each other, inverse[M-j, i] =
    (-1)**i * inverse[j, i], so only the first h = ceil((M+1)/2) link rows
    are kept, mode-major. This is a change of shape and layout: the
    returned array is (M+1, h), not the full (M+1, M+1) inverse, with
    entry half[i, j] = inverse[j, i]. To unfold it, link rows 0..h-1 are
    ``half.T`` and link row M - j (j < M + 1 - h) is column j of ``half``
    with its odd modes negated. Negated as 0 - x, so that a zero stays
    +0.0, the unfolded entries equal the full table's bitwise, since
    mirrored residues reduce to +- the same angle. The table is gathered
    in row blocks of about ``_TABLE_BLOCK`` entries, so building it takes
    little more memory than it holds.
    """
    if not _is_integer(rows) or rows < 1:
        raise LatticeError(f"need at least one row, as an integer, got {rows!r}")
    n = rows + 1
    odd = 2 * np.arange((n + 1) // 2) + 1
    half = np.empty((n, len(odd)))
    # cos(pi*t/(2n)) = sin(2*pi*(t + n)/(4n)) for t = 0..4n-1
    wave = (2.0 / n) * _sin_turns(np.arange(n, 5 * n), 4 * n)
    step = max(1, _TABLE_BLOCK // len(odd))
    for start in range(0, n, step):
        turns = np.multiply.outer(np.arange(start, min(start + step, n)), odd)
        turns %= 4 * n
        np.take(wave, turns, out=half[start:start + step])
    half[0] = 1.0 / n
    half.flags.writeable = False
    return half


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


def _injection_profiles(rows: int, y_in: int, y_out: int) -> np.ndarray:
    """Rows ``(zeta_in, zeta_out)`` of :func:`_profiles` over every non-uniform
    mode, filled a block of :func:`_mode_blocks` at a time."""
    n = rows + 1
    zeta = np.empty((2, rows))
    for block in _mode_blocks(rows):
        sines = _sines(block, 2 * n, 1, 2 * y_in, 2 * y_out)
        np.multiply(sines[1:], -2.0 * sines[0], out=zeta[:, block])
    return zeta


def _live_values(coords: SpanCoords, rates: np.ndarray, zeta_in: np.ndarray,
                 zeta_out: np.ndarray, scale: float):
    """``(x_out, x_in)`` of :func:`solve_modes` over the modes of decay ``rates``,
    with ``scale`` = (r/s)*J for the current J."""
    ratio_in, ratio_cross, ratio_out = _span_ratios(coords, rates)
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


def _require_finite(currents: np.ndarray, injected) -> None:
    """Refuse a field with a current past the float range, in two passes over it."""
    # BLAS overflows with no numpy flag; min and max need no field-sized temporary
    if not np.isfinite((currents.min(), currents.max())).all():
        raise _past_the_float_range(injected)


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
    n = rows + 1
    weights = np.empty(n)
    weights[0] = (n - height) / n
    for block in _mode_blocks(rows):
        sin_chi, lift = _sines(block, 2 * n, 1, 2 * height)
        np.divide(lift, -n * sin_chi, out=weights[1 + block.start:1 + block.stop])
    return weights


def solve_modes(spec: HammockSpec, coords: SpanCoords,
                injected: float) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values of the decoupled recurrences, ``(x_out, x_in)``.

    These are the transformed column values at the output column
    (k = q_offset) and input column (k = -p_offset); the uniform mode is
    the analytic limit -J*(y_out - y_in)/N. They are assembled from the
    closed form's scaled span-frame ratios over every mode, a block of
    :func:`_mode_blocks` at a time, so they scale to 10^4+ rows and
    columns, and they are the values rt sums in its live modes. J must be
    a finite real number.
    """
    require_frame(spec, coords)
    _require_current(injected)
    head = _decay_table(spec.rows, spec.ratio).head
    scale, n = spec.ratio * injected, spec.rows + 1
    x_out, x_in = np.empty(n), np.empty(n)
    x_out[0] = x_in[0] = -injected * (coords.y_out - coords.y_in) / spec.cols
    for block in _mode_blocks(spec.rows):
        zeta_in, zeta_out, _, _ = _profiles(n, *_sines(block, 2 * n, 1, 2 * coords.y_in,
                                                       2 * coords.y_out))
        modes = slice(1 + block.start, 1 + block.stop)
        x_out[modes], x_in[modes] = _live_values(coords, _block_rates(spec, head, block),
                                                 zeta_in, zeta_out, scale)
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
    """Chunks of ``_CHUNK`` columns, as (start, stop, calls), each call a
    column range of the inverse product.

    A chunk is one call, multiplied over the modes its columns keep, or
    calls of ``_NARROW`` columns where that skips at least a third of its
    multiply-adds.
    """
    for start, stop in _spans(0, len(kept), _CHUNK):
        narrow = list(_spans(start, stop, _NARROW))
        if 3 * sum(_depth(kept, *call) * (call[1] - call[0]) for call in narrow) \
                <= 2 * _depth(kept, start, stop) * (stop - start):
            yield start, stop, narrow
        else:
            yield start, stop, [(start, stop)]


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
    zeta_in, zeta_out = _injection_profiles(spec.rows, coords.y_in, coords.y_out)
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


def _plan_columns(spec: HammockSpec, coords: SpanCoords, injected: float):
    """Everything of :func:`transformed_columns` but its entries, in O(M + N).

    Returns ``(uniform, two_log, terms, kept)``: the uniform mode's value,
    the exponents 2h_i, one ``(start, backwards, weight, exponents,
    depth)`` per column term, and each column's kept modes. A term covers
    the columns from ``start`` on, walked backwards if ``backwards`` so
    that its ``exponents`` ascend, and keeps ``depth`` modes in each of
    them.
    """
    require_frame(spec, coords)
    _require_current(injected)
    uniform = -injected * (coords.y_out - coords.y_in) / spec.cols
    kept = np.zeros(spec.cols, dtype=np.intp)
    terms = []
    if injected == 0.0 or (coords.separation == 0 and coords.y_in == coords.y_out):
        return uniform, None, terms, kept
    tolerance = _DROP_TOLERANCE * abs(injected)
    two_log = 2.0 * _rates(spec.rows, spec.ratio, 0, spec.rows)
    for first, weight, exponent_arrays in _region_terms(spec, coords, injected, two_log):
        thresholds = _thresholds(weight, two_log, tolerance)
        for exponents in exponent_arrays:
            start = first + coords.span_left
            backwards = len(exponents) > 1 and exponents[0] > exponents[-1]
            if backwards:
                exponents = exponents[::-1]
            depth = np.searchsorted(thresholds, exponents, side="right")
            kept_here = kept[start:start + len(exponents)]
            np.maximum(kept_here, depth[::-1] if backwards else depth, out=kept_here)
            terms.append((start, backwards, weight, exponents, depth))
    return uniform, two_log, terms, kept


def _fill_columns(plan, out: np.ndarray, first: int) -> None:
    """Write the transformed values of columns first .. first + width - 1
    into ``out``, of shape (rows, width), from a :func:`_plan_columns` plan.

    ``rows`` must reach every mode the window keeps, the uniform one
    included; the entries of :func:`transformed_columns` past them are
    zero. Each term is filled in bands of ``_FILL_BAND`` modes over the
    window's columns that keep some of the band, and each entry is formed
    as over all columns, so the values are the same bits.
    """
    uniform, two_log, terms, _ = plan
    out[0] = uniform
    out[1:] = 0.0
    stop = first + out.shape[1]
    for start, backwards, weight, exponents, depth in terms:
        # the window's share of the term: columns left..right-1
        left, right = max(first, start), min(stop, start + len(exponents))
        if left >= right:
            continue
        target = out[1:, left - first:right - first]
        if backwards:
            target, offset = target[:, ::-1], start + len(exponents) - right
        else:
            offset = left - start
        shared = slice(offset, offset + right - left)
        exponents, depth = exponents[shared], depth[shared]
        for b0, b1 in _spans(0, int(depth[-1]), _FILL_BAND):
            # the columns from lo on keep some of the band, those from full
            # on all of it
            lo, full = np.searchsorted(depth, (b0 + 1, b1)).tolist()
            block = np.multiply.outer(two_log[b0:b1], exponents[lo:])
            if full > lo:
                np.copyto(block[:, :full - lo], -np.inf,
                          where=np.arange(b0, b1)[:, None] >= depth[lo:full])
            np.exp(block, out=block)
            block *= weight[b0:b1, None]
            target[b0:b1, lo:] -= block


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

    The values take one (M+1) x N array. The per-column work beside it
    (:func:`_plan_columns`) is O(M + N); :func:`reconstruct_currents`
    fills the same values a chunk of columns at a time instead.
    """
    plan = _plan_columns(spec, coords, injected)
    values = np.empty((spec.rows + 1, spec.cols))
    _fill_columns(plan, values, 0)
    *_, kept = plan
    return values, kept


def _rt_kernel(spec: HammockSpec, coords: SpanCoords, rates: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """X_out*w_out and -X_in*w_in over live modes, two rows summed apart, for
    J = 1, from the sine rows sin(chi), sin(2*y_in*chi) and sin(2*y_out*chi)."""
    zeta_in, zeta_out, w_in, w_out = _profiles(spec.rows + 1, *rows)
    x_out, x_in = _live_values(coords, rates, zeta_in, zeta_out, spec.ratio)
    return np.stack((x_out * w_out, -(x_in * w_in)))


def resistance_rt(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Resistance from the recurrence-transform mode solution.

    Potential differences are summed along the path through the common
    top hub: R = (s/J) * (sum_i X_out(i) * w_i(y_out) -
    sum_i X_in(i) * w_i(y_in)), with the boundary values of
    :func:`solve_modes` and the weights of :func:`mode_weights`, which
    cover every mode. rt forms them, its sine rows sin(chi) and
    sin(2*y*chi) included, and sums X*w, over the live modes only, in the
    kernel it passes to closed's ``_mode_sum``, the one place that knows
    the cut-off. Past it X*w = (r/s)*J*f*(2/(M+1))*
    sin^2(2*y*chi) per node, with no pair algebra left: ``_mode_sum`` adds
    the live modes' mirror terms and closed's tail, cached per instance,
    cut-off and node heights (pi*j*2y/(2(M+1)) reduces to closed's
    pi*j*y/(M+1) exactly, so the bits are closed's). Right after closed on
    the same pair, rt forms no sine past its live modes.
    """
    coords = span_coords(spec, a, b)
    y_in, y_out, n = coords.y_in, coords.y_out, spec.rows + 1
    live, free = _mode_sum(spec, coords, _rt_kernel, 2 * n, 1, 2 * y_in, 2 * y_out)
    # uniform mode: value -(y_out - y_in)/N, weight (M + 1 - y)/(M + 1)
    total = -(y_out - y_in) / spec.cols * (y_in - y_out) / n + live
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
    (eps*|J|) bounds the dropped modes' share of each current (see
    :func:`transformed_columns`); the rounding of the kept ones is within
    gamma_k * sum(|half| * |values|), k = ceil(d/2) + 1 for a column that
    keeps d modes (see :func:`reconstruct_currents`). Every current is
    finite: a field past the float range is refused, ruled out chunk by
    chunk from a bound on the transformed values, and scanned whole only
    where that bound cannot. Immutable. Its
    currents are the one field-sized array a reconstruction allocates;
    the rest is O((M+1) * ``_CHUNK``) of buffers, freed on return, and
    the cached half table of :func:`mode_transform`.
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

    Inverse-transforms the region solution, one call per column range of
    :func:`_product_calls` over the modes its columns keep, and orients
    the result so ``injected`` amperes enter at ``a`` and leave at ``b``.
    The values of :func:`transformed_columns` are never held whole: each
    chunk of ``_CHUNK`` columns is filled, as the same bits, into one
    reused buffer and multiplied from it. Each call forms two
    half-products with the folded table of :func:`mode_transform`, ``even``
    over the even modes and ``odd`` over the odd ones, for link rows j < h
    = ceil((M+1)/2), into two reused buffers; row j is even + odd and its
    mirror row M - j is even - odd. Each column is summed in one call, so
    the columns around a node match the all-modes sum to rounding, and
    each current is within gamma_k * sum(|half| * |values|) over both
    half-products of the exact product of the table and the transformed
    values, gamma_k = k*u/(1 - k*u), u = eps/2, k = ceil(d/2) + 1 with d
    the modes its column keeps, the uniform one included.

    Memory: the (M+1) x N currents, O((M+1) * ``_CHUNK``) of buffers,
    O(M + N) of per-column plan and the cached half table. ``injected``
    must be a finite real number and may be zero (zero field). A J whose
    currents or mode values pass the float range raises a
    ``LatticeError``, and so does a field whose currents or half table
    cannot be allocated; the currents are reserved first, before any
    per-mode work. Overflow is ruled out from a bound, with no pass over
    the field: every |half| <= (2/(M+1))*(1+eps), so no current or partial
    sum of a chunk whose depth d and largest |value| (its buffer's max and
    min, read while in cache) give (2/(M+1))*d*max|value| below a quarter
    of the float maximum can overflow. Only a field with a chunk that the
    bound does not clear, NaN or infinite values included, is checked
    whole, from its min and max.
    """
    _require_current(injected)  # before it is negated
    coords = span_coords(spec, a, b)
    a, b = coords.node_in, coords.node_out
    if coords.swapped:
        a, b = b, a
    rows, cols = spec.rows, spec.cols
    try:
        currents = np.empty((rows + 1, cols))
        half = mode_transform(rows)
    except MemoryError:
        raise LatticeError(
            f"a {rows} x {cols} field needs {8 * (rows + 1) * cols:,} bytes for its "
            f"currents and {8 * (rows + 1) * ((rows + 2) // 2):,} for the half table of "
            "the inverse transform, more than can be allocated") from None
    # the solution is odd in the current, so solving for -J negates exactly
    plan = _plan_columns(spec, coords, injected if coords.swapped else -injected)
    *_, kept = plan
    chunks = list(_product_calls(kept))
    # each chunk's values to its deepest column, in one reused buffer
    values = np.empty(max(_depth(kept, start, stop) * (stop - start)
                          for start, stop, _ in chunks))
    # link rows 0..h-1, and rows M..h downwards: row M - j mirrors row j
    h = half.shape[1]
    upper, mirrored = currents[:h], currents[h:][::-1]
    # each call's half-products, contiguous, in two reused buffers
    widest = max(end - first for _, _, calls in chunks for first, end in calls)
    evens, odds = np.empty(h * widest), np.empty(h * widest)
    bounded = True
    for start, stop, calls in chunks:
        chunk = values[:_depth(kept, start, stop) * (stop - start)].reshape(-1, stop - start)
        _fill_columns(plan, chunk, start)
        # every |half| <= (2/(M+1))*(1+eps): so far below the float maximum,
        # no current or partial sum of the chunk overflows (False for NaN too)
        largest = max(float(chunk.max()), -float(chunk.min()))
        bounded &= 4.0 * (2.0 / (rows + 1)) * len(chunk) * largest < sys.float_info.max
        # an overflow is refused below, with no warning from the products or sums
        with np.errstate(over="ignore", invalid="ignore"):
            for first, end in calls:
                depth, window = _depth(kept, first, end), slice(first - start, end - start)
                even = evens[:h * (end - first)].reshape(h, -1)
                odd = odds[:even.size].reshape(even.shape)
                np.matmul(half[0:depth:2].T, chunk[0:depth:2, window], out=even)
                np.matmul(half[1:depth:2].T, chunk[1:depth:2, window], out=odd)
                np.add(even, odd, out=upper[:, first:end])
                np.subtract(even[:len(mirrored)], odd[:len(mirrored)], out=mirrored[:, first:end])
    if not bounded:
        _require_finite(currents, injected)
    currents.flags.writeable = False
    return CurrentField(spec=spec, source=a, sink=b, injected=injected,
                        coords=coords, currents=currents,
                        truncation_bound=4.0 * _DROP_TOLERANCE * abs(injected))


def kirchhoff_residual(field: CurrentField) -> float:
    """Worst current imbalance over every node, in amperes.

    The residual covers every interior node, both hubs, and the spread of
    the top-rail potential (scaled to amperes). The horizontal current at
    node row y between columns x and x+1 follows from Ohm's law on the
    column potentials, summed difference-first: (s/r) * sum over links
    k <= y of (I[k, x+1] - I[k, x]). Each sum adds the small differences
    of neighbouring currents rather than differencing two potentials,
    each a sum of up to M currents, so its rounding stays below the
    field's own error and the residual reads the field's imbalance, not
    the audit's (within 5% of the same balance summed in long double on
    fields from 300 x 300 to 2000 x 2000 and 20000 x 20). The rail spread sums the same column sums, with the top link
    row's differences, along the columns.

    Works in row blocks of about ``_AUDIT_BLOCK`` entries in reused
    buffers, each pass a contiguous 1-D call over the block's rows taken
    flat: the differences of neighbouring entries, with the entries that
    step from a row's last column into the next row's first set to zero,
    so that the same flat views, shifted by one entry, add and subtract
    every horizontal current. The sums run down the rows row by row,
    carried from block to block, so the audit needs O(M + N) memory
    beyond the field.
    """
    spec = field.spec
    currents = field.currents
    rows, cols = spec.rows, spec.cols
    s_over_r = float(spec.s) / float(spec.r)
    injections = [(field.source, field.injected), (field.sink, -field.injected)]

    step = max(1, _AUDIT_BLOCK // cols)
    climbed = np.zeros(cols)  # sums of the differences over the links below
    sums = np.empty((step, cols))  # reused by every block
    balance = np.empty((step, cols))
    worst = 0.0
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        # node rows start..stop-1 sit above link rows start..stop-1
        flat = currents[start:stop].ravel()
        block = sums[:stop - start]
        np.subtract(flat[1:], flat[:-1], out=block.ravel()[:-1])
        block[:, -1] = 0.0  # the seams, and the last entry, which was not written
        block[0] += climbed
        lines = list(block)
        for below, line in zip(lines, lines[1:]):
            np.add(below, line, line)
        climbed[:] = block[-1]
        horizontal = block.ravel()
        horizontal *= s_over_r

        imbalance = balance[:stop - start]
        np.subtract(currents[start:stop], currents[start + 1:stop + 1], out=imbalance)
        for node, amount in injections:
            if start <= node.y - 1 < stop:
                imbalance[node.y - 1 - start, node.x - 1] += amount
        # node x takes in the current from x-1 and sends the current to x+1
        balanced = imbalance.ravel()
        balanced[1:] += horizontal[:-1]
        balanced -= horizontal
        worst = max(worst, float(imbalance.max()), -float(imbalance.min()))

    top = climbed[:-1] + (currents[-1, 1:] - currents[-1, :-1])
    return max(worst,
               abs(float(currents[0, :].sum())),
               abs(float(currents[-1, :].sum())),
               float(np.abs(np.cumsum(top)).max(initial=0.0)))


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
