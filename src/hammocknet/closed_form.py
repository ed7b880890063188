"""Closed-form two-point resistance between interior hammock nodes.

The resistance decomposes over M + 1 transverse modes. The uniform mode
contributes the quadratic term s*(y2 - y1)^2 / (N*(M + 1)); every higher
mode contributes a ratio of hyperbolic products weighted by sine factors
of the two node heights. Each mode carries a decay rate h_i: with
theta_i = (i-1)*pi/(M+1) and c_i = 2 + 2*(r/s)*(1 - cos(theta_i)), the
growth factor per column pair is the larger root of g*g - c_i*g + 1 = 0,
and h_i is half its logarithm. As cosh(2*h_i) = c_i/2, the rates are
formed as h_i = asinh(sqrt(r/s) * sin(theta_i/2)), accurate to rounding
in every mode; 1 - cos(theta) and the root would lose digits like
eps/theta^2 in the slow modes (7.6e-6 relative at 10^6 rows).

Every hyperbolic ratio is scaled by its largest exponential before it is
evaluated: cosh(a*h) becomes e^{a*h} * (1 + e^{-2a*h}) / 2, the large
factors cancel analytically, and what is left is built from exponentials
of arguments <= 0. Lattices with 10^4..10^6 rows and columns therefore
evaluate without overflow, and without the rounding of a difference of
two large logarithms, at O(M) cost per node pair.

Two exact shortcuts keep that O(M) cheap. The sine factors come from the
integer residue of (i-1)*height, so they are within a few eps, and a
long block of them is one batched matrix product, sin(a + b) =
[sin a, cos a] . [cos b, sin b], over about 2*sqrt(n) anchor and offset
angles per height. And since the rates ascend, every decay factor falls
below rounding from some mode on (see :func:`_live_modes`); past it,
alpha = gamma = f = 1/(2*sinh(2h)) and beta = 0, and the span-frame
kernel is skipped.

closed, rt and the same-column and same-row forms read one cached table
per instance, :func:`_decay_table`: f for every mode and h for the first
``_BLOCK`` modes. The rates past those are formed one block at a time
(:func:`_live_rates`), so a pair query holds O(_BLOCK) temporaries on
top of the table; the current fields, which need every rate, form them
all once per field. closed and rt both contract the blocks after the
first and after the last live one (:func:`_direct_modes`,
:func:`_far_sum`): with sin^2 = (1 - cos 2*theta)/2 and the angle
addition, each block of f is two small matrix products, with no per-mode
sine. That rounds like eps*sum(f) over the contracted modes, not like
eps*sum(f*sin^2), so the first block stays direct: at large r/s, f falls
like 1/i^2, and with a node next to a hub (y = 1 or M) the slow modes
carry most of sum(f) while their sin^2 is small. With F = (2r/(M+1)) *
sum of f over the contracted modes, closed's R and rt's are each within
eps*(4*R + 8*F) of the same sum taken exactly over the same rates
(tested against a long-double sum at 4*_BLOCK + 1 and 10^6 rows, r/s 0.5
to 2**1021, y = 1, M and (M+1)/2). Functions are pure; node pairs can be
evaluated in parallel by callers.
"""

from __future__ import annotations

import bisect
import math
import operator
from functools import lru_cache

import numpy as np

from .lattice import (
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SpanCoords,
    span_coords,
)


def _rates(rows: int, ratio: float, start: int, stop: int) -> np.ndarray:
    """Decay rates asinh(sqrt(r/s) * sin(theta_i/2)) of table entries start..stop-1.

    Entry j belongs to mode i = j + 2. Every entry is formed on its own, so
    any range of entries has the bits of the same slice of all ``rows``.
    """
    idx = np.arange(start + 1, stop + 1, dtype=float)
    return np.arcsinh(np.sqrt(ratio) * np.sin(idx * np.pi / (2 * rows + 2)))


# Modes per block of a mode sum: the temporaries of one query stay within
# a few MB however many rows the lattice has.
_BLOCK = 1 << 14
# Modes per row of a contracted block: _BLOCK = _WIDTH**2, so each block
# is a square of anchors by offsets.
_WIDTH = 1 << 7
# Sine tables longer than this are built as an anchor x offset product,
# whose fixed cost (some 20 us of numpy calls) pays off against one sine
# per mode from about 500 modes for rt's three heights, 650 for closed's two.
_SPLIT = 512


@lru_cache(maxsize=64)
def _decay_table(rows: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """``(free, head)``: f_i = 1/(2*sinh(2h_i)) for every mode, and h_i for
    the first ``_BLOCK`` modes; cached per instance shape.

    f is alpha = gamma past the live cut-off, and descends with the mode,
    which :func:`_live_modes` relies on. Each entry has the bits of
    0.5/sinh(2*h) over :func:`_rates`; the table is built one block at a
    time, so the build holds O(_BLOCK) temporaries.
    """
    free = np.empty(rows)
    for block, _ in _mode_blocks(rows, 0):
        half = _rates(rows, ratio, block.start, block.stop)
        if block.start == 0:
            head = half
        np.divide(0.5, np.sinh(2.0 * half), out=free[block])
    free.flags.writeable = False
    head.flags.writeable = False
    return free, head


def _live_rates(spec: HammockSpec, head: np.ndarray, block: slice, cut: int) -> np.ndarray:
    """Rates of the first ``cut`` modes of ``block``: the cached head, else formed here."""
    if block.start == 0:
        return head[:cut]
    return _rates(spec.rows, spec.ratio, block.start, block.start + cut)


def _mode_blocks(rows: int, live: int):
    """Yield (block, cut) over modes i = 2..M+1 in blocks of ``_BLOCK``.

    ``block`` is a slice of a per-mode table such as the decay table; its
    entry j belongs to mode i = j + 2. The block's first ``cut`` modes are
    among the first ``live`` modes of the table, the rest past them.
    """
    for start in range(0, rows, _BLOCK):
        stop = min(start + _BLOCK, rows)
        yield slice(start, stop), min(max(live - start, 0), stop - start)


def _sin_turns(turns: np.ndarray, period: int) -> np.ndarray:
    """sin(2*pi*turns/period) for integer ``turns``; ``period`` is a multiple of 4.

    The residue of turns + period/4 mod period is exact, and folding it
    about period/2 leaves an angle in [-pi/2, pi/2] with the same sine,
    so only the final product and the sine round.
    """
    quarter = period // 4
    folded = (turns + quarter) % period
    folded -= 2 * quarter
    np.abs(folded, out=folded)
    return np.sin((quarter - folded) * (np.pi / (2 * quarter)))


def _angle_tables(anchors: range, width: int, denom: int, heights):
    """Anchor and offset tables of the angles pi*(i-1)*h/denom, reduced exactly.

    Mode i's angle is 2*pi*t/(4*denom) with the integer t = 2*(i-1)*h, split
    as 2*(i-1) = a + b over the ``anchors`` a and the offsets b = 0, 2, ...,
    2*width - 2. Returns [sin a, cos a] per anchor, shape (heights,
    anchors, 2), and [cos b, sin b] per offset, shape (heights, 2, width):
    a quarter period (denom turns) on, a sine is a cosine.
    """
    period = 4 * denom
    height = np.array(heights, dtype=np.int64)[:, None, None]
    starts = np.arange(anchors.start, anchors.stop, anchors.step, dtype=np.int64)[:, None]
    offsets = np.arange(0, 2 * width, 2, dtype=np.int64)
    return (_sin_turns(height * starts + [0, denom], period),
            _sin_turns(height * offsets + [[denom], [0]], period))


def _sines(block: slice, denom: int, *heights: int) -> np.ndarray:
    """sin(pi*(i-1)*h/denom) over the modes of ``block``: one row per height h.

    Mode i's angle is 2*pi*t/(4*denom) with the integer t = 2*(i-1)*h,
    reduced exactly by :func:`_sin_turns` (t stays below 2**63 for any
    lattice whose decay table fits in memory), so every entry is within a
    few eps; a rounded product near pi*(i-1)*h/denom is off by up to
    8e-10 at 10^6 rows. A block longer than ``_SPLIT`` modes splits each
    angle into an anchor a and an offset b (:func:`_angle_tables`) and
    takes sin(a + b) = [sin a, cos a] . [cos b, sin b] as one batched
    matrix product of (heights, anchors, 2) by (heights, 2, offsets):
    about 4*sqrt(n) sines per height instead of n.
    """
    first, stop = 2 * block.start + 2, 2 * block.stop + 2  # 2*(i-1) of the block
    count = block.stop - block.start
    if count <= _SPLIT:
        modes = np.arange(first, stop, 2, dtype=np.int64)
        return _sin_turns(np.multiply.outer(heights, modes), 4 * denom)
    width = math.isqrt(count - 1) + 1
    left, right = _angle_tables(range(first, stop, 2 * width), width, denom, heights)
    return np.matmul(left, right).reshape(len(heights), -1)[:, :count]


# e^{-z} for z > 708 is far below rounding in every ratio built here, and numpy's
# exp leaves its fast path just below -707.5 (per 4096 entries: 7 us at -707.5,
# 107 us at -708, 960 us at -709; numpy 2.4, 2-CPU Xeon KVM guest): clamp at -700.
_UNDERFLOW = 708.0
_CLAMP = 700.0


def _live_modes(coords: SpanCoords, free: np.ndarray) -> int:
    """How many modes come before the first in which every span-frame decay underflows.

    From there on, a suffix because the rates ascend, e^{-2*length*h} < e^{-708}
    for each of the five lengths of :func:`_span_ratios`, and so is e^{-4Nh}:
    far below rounding, so alpha = gamma = f = 1/(2*sinh(2h)) and beta = 0.
    With ``shortest`` the least length, that is 2h >= 708/shortest, read off
    the descending f table of :func:`_decay_table` as f <= 1/(2*sinh(708/shortest))
    by bisection, without a reversed copy. A zero length (nodes in one
    column) keeps every mode live.
    """
    # x_in <= x_out: near_in = 2*x_in - 1 and far_out = 2*(N - x_out) + 1
    # are the shorter near and far lengths
    shortest = min(2 * coords.x_in - 1, 2 * (coords.cols - coords.x_out) + 1,
                   coords.separation)
    if shortest == 0:
        return free.size
    floor = 0.5 / math.sinh(_UNDERFLOW / shortest)
    if free[-1] > floor:
        return free.size
    return bisect.bisect_left(free, -floor, key=operator.neg)


def _span_ratios(coords: SpanCoords, half: np.ndarray):
    """alpha, beta, gamma over sinh(2h) * sinh(2Nh) for the decay rates ``half``.

    The span-frame kernel read by both the general form and the
    recurrence route's boundary values. With C(a) = (1 + e^{-2ah}) / 2
    and D = 2 / (sinh(2h) * (1 - e^{-4Nh})), alpha = D*C(near_in)*C(far_in),
    gamma = D*C(near_out)*C(far_out) and beta = D*C(near_in)*C(far_out)
    times e^{-2*separation*h}: near and far arguments sum to 2N, so the
    growing exponentials cancel exactly and every exponent left is <= 0.
    """
    x_in, x_out, cols = coords.x_in, coords.x_out, coords.cols
    scale = 0.5 / (np.sinh(2.0 * half) * -np.expm1(-4.0 * cols * half))
    lengths = (2 * x_in - 1, 2 * cols - 2 * x_in + 1, 2 * x_out - 1,
               2 * cols - 2 * x_out + 1, coords.separation)
    # the five decays e^{-2*length*h} in one exponential, clamped at e^{-700}
    exponents = np.multiply.outer([-2.0 * length for length in lengths], half)
    np.maximum(exponents, -_CLAMP, out=exponents)
    near_in, far_in, near_out, far_out, apart = np.exp(exponents, out=exponents)
    exponents[:4] += 1.0  # near and far: 1 + e^{-2*length*h}
    near_in *= scale
    near_out *= scale
    return near_in * far_in, near_in * far_out * apart, near_out * far_out


def _direct_modes(live: int, rows: int) -> int:
    """Entries a pair sums mode by mode: the first block and those to the last live mode."""
    return min(max(1, -(-live // _BLOCK)) * _BLOCK, rows)


def _far_sum(free: np.ndarray, start: int, denom: int, *heights: int) -> float:
    """Sum of f_i * sin^2(pi*(i-1)*y/denom) over the heights y and the table
    entries from ``start`` on, with no per-mode sine: plumbing, like
    :func:`_sines`, with which closed and rt both sum their far blocks.

    As sin^2 = (1 - cos 2*theta)/2, only the sums of f*cos(2*theta) are
    needed. Each 2*theta splits as c + a + b: the base c of its block, the
    anchor a of its line of ``_WIDTH`` modes, and the offset b within the
    line, each reduced exactly by :func:`_angle_tables`. A block of f,
    viewed as (lines x ``_WIDTH``), takes one matrix product by the offset
    table ([cos b, sin b] per height and a column of ones) and one by the
    anchor table ([cos a, sin a] per height and a row of ones); the block
    bases are applied once at the end.
    """
    count = len(heights)
    doubled = [2 * y for y in heights]  # the angle 2*theta of height y
    lines, offsets = _angle_tables(range(0, 2 * _BLOCK, 2 * _WIDTH), _WIDTH, denom, doubled)
    bases, _ = _angle_tables(range(2 * start + 2, 2 * free.size + 2, 2 * _BLOCK), 0,
                             denom, doubled)
    by_offset = np.vstack((offsets.reshape(-1, _WIDTH), np.ones(_WIDTH))).T
    by_line = np.vstack((lines[:, :, ::-1].transpose(0, 2, 1).reshape(-1, _WIDTH),
                         np.ones(_WIDTH)))
    # parts[k, 2h + p, 2h + q] = sum over block k of f * [cos a, sin a][p]
    # * [cos b, sin b][q] for height h; parts[k, -1, -1] = sum of f over it
    parts = np.empty((bases.shape[1], 2 * count + 1, 2 * count + 1))
    for part, first in zip(parts, range(start, free.size, _BLOCK)):
        weights = free[first:first + _BLOCK]
        if weights.size % _WIDTH:  # the last block, padded with weight 0
            weights = np.concatenate((weights, np.zeros(-weights.size % _WIDTH)))
        size = weights.size // _WIDTH
        np.matmul(by_line[:, :size], np.matmul(weights.reshape(size, _WIDTH), by_offset),
                  out=part)
    cosines = 0.0
    for height, (sin_c, cos_c) in enumerate(bases.transpose(0, 2, 1)):
        cc, cs, sc, ss = (parts[:, 2 * height + p, 2 * height + q]
                          for p in (0, 1) for q in (0, 1))
        # cos(c + a + b) = cos c * cos(a + b) - sin c * sin(a + b)
        cosines += float((cos_c * (cc - ss) - sin_c * (sc + cs)).sum())
    return 0.5 * (count * float(parts[:, -1, -1].sum()) - cosines)


def _mode_sum(spec: HammockSpec, coords: SpanCoords) -> float:
    """Hyperbolic mode sum of the general form, one block of modes at a time.

    The first block and those up to the last live mode sum the span-frame
    kernel (f past the cut-off) against the sine tables; the blocks after
    them are contracted (see the module docstring for the rounding bound).
    """
    rows, denom = spec.rows, spec.rows + 1
    free, head = _decay_table(rows, spec.ratio)
    live = _live_modes(coords, free)
    direct = _direct_modes(live, rows)
    total = 0.0
    for block, cut in _mode_blocks(direct, live):
        sin_in, sin_out = _sines(block, denom, coords.y_in, coords.y_out)
        if cut:
            alpha, beta, gamma = _span_ratios(coords, _live_rates(spec, head, block, cut))
            s_in, s_out = sin_in[:cut], sin_out[:cut]
            total += float((s_in * s_in * alpha
                            - 2.0 * s_in * s_out * beta
                            + s_out * s_out * gamma).sum())
        if cut < block.stop - block.start:
            s_in, s_out = sin_in[cut:], sin_out[cut:]
            total += float((free[block][cut:] * (s_in * s_in + s_out * s_out)).sum())
    if direct < rows:
        total += _far_sum(free, direct, denom, coords.y_in, coords.y_out)
    return total


def _uniform_term(spec: HammockSpec, y1: int, y2: int) -> float:
    # s*(y2 - y1)^2 is often exact (s = 3, say), and then only the quotient
    # rounds; only where the product overflows is the integer ratio taken first
    lift, cells = float(spec.s) * (y2 - y1) ** 2, spec.cols * (spec.rows + 1)
    if lift == math.inf:
        return float(spec.s) * ((y2 - y1) ** 2 / cells)
    return lift / cells


def resistance_general(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Closed-form resistance between two interior nodes.

    Handles any pair, any aspect ratio and lattices up to millions of
    rows/columns; identical nodes give exactly zero. Hub terminals are
    rejected (the dense oracle covers them).
    """
    coords = span_coords(spec, a, b)
    if coords.node_in == coords.node_out:  # the mode sum misses 0 past r/s ~ 1e305
        return ResistanceResult(0.0, "closed", {"swapped": coords.swapped})
    total = _mode_sum(spec, coords)
    # r/(M + 1) before its factor 2: the same bits, and no large r overflows
    value = float(spec.r) / (spec.rows + 1) * (2.0 * total) \
        + _uniform_term(spec, coords.y_in, coords.y_out)
    return ResistanceResult(value, "closed", {"swapped": coords.swapped})


def resistance_same_column(spec: HammockSpec, x: int, y1: int, y2: int) -> ResistanceResult:
    """Specialised form for two nodes in the same column.

    Equivalent to :func:`resistance_general` at equal columns, where
    alpha == beta == gamma and the cross terms fold into one squared sine
    difference per mode.
    """
    coords = span_coords(spec, (x, y1), (x, y2))
    if y1 == y2:
        return ResistanceResult(0.0, "closed", {"specialization": "same_column"})
    _, head = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, cut in _mode_blocks(spec.rows, spec.rows):
        alpha = _span_ratios(coords, _live_rates(spec, head, block, cut))[0]
        sin_1, sin_2 = _sines(block, spec.rows + 1, y1, y2)
        sine_diff = sin_2 - sin_1
        total += float((sine_diff * sine_diff * alpha).sum())
    value = float(spec.r) / (spec.rows + 1) * (2.0 * total) + _uniform_term(spec, y1, y2)
    return ResistanceResult(value, "closed", {"specialization": "same_column"})


def resistance_same_row(spec: HammockSpec, y: int, x1: int, x2: int) -> ResistanceResult:
    """Specialised form for two same-row nodes mirrored about the centre.

    Valid exactly when the pair is centred, x1 + x2 == N + 1, which makes
    the two hyperbolic factors per mode collapse into a single
    sinh * cosh ratio. Off-centre pairs raise; use
    :func:`resistance_general` for those.
    """
    coords = span_coords(spec, (x1, y), (x2, y))
    if coords.x_in + coords.x_out != spec.cols + 1:
        raise LatticeError(
            f"columns x1={x1}, x2={x2} are not centred (need x1 + x2 = "
            f"{spec.cols + 1}); use resistance_general for off-centre pairs"
        )
    distance = coords.separation
    if distance == 0:
        return ResistanceResult(0.0, "closed", {"specialization": "same_row"})
    # sinh(dh) * cosh((N-d)h) / (sinh(2h) * cosh(Nh)) with e^{Nh} cancelled
    _, head = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, cut in _mode_blocks(spec.rows, spec.rows):
        step = -2.0 * _live_rates(spec, head, block, cut)
        coef = -np.expm1(distance * step) \
            * (1.0 + np.exp((spec.cols - distance) * step)) \
            / (2.0 * np.sinh(-step) * (1.0 + np.exp(spec.cols * step)))
        (sines,) = _sines(block, spec.rows + 1, y)
        total += float((sines * sines * coef).sum())
    value = float(spec.r) / (spec.rows + 1) * (4.0 * total)
    return ResistanceResult(value, "closed", {"specialization": "same_row"})
