"""Closed-form two-point resistance between interior hammock nodes.

The resistance decomposes over M + 1 transverse modes. The uniform mode
contributes the quadratic term s*(y2 - y1)^2 / (N*(M + 1)); every higher
mode contributes a ratio of hyperbolic products weighted by sine factors
of the two node heights. Each mode carries a decay rate h_i: with
theta_i = (i-1)*pi/(M+1) and c_i = 2 + 2*(r/s)*(1 - cos(theta_i)), the
growth factor per column pair is the larger root of g*g - c_i*g + 1 = 0,
and h_i is half its logarithm. As cosh(2*h_i) = c_i/2, the decay table
holds h_i = asinh(sqrt(r/s) * sin(theta_i/2)), accurate to rounding in
every mode; 1 - cos(theta) and the root would lose digits like
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
alpha = gamma = 1/(2*sinh(2h)) and beta = 0, and the span-frame kernel
is skipped. The mode sums run over blocks of ``_BLOCK`` modes, so a query
holds O(_BLOCK) temporaries on top of the cached decay table. Functions
are pure; node pairs can be evaluated in parallel by callers.
"""

from __future__ import annotations

import math
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


@lru_cache(maxsize=64)
def _decay_table(rows: int, ratio: float) -> np.ndarray:
    """Decay rates asinh(sqrt(r/s) * sin(theta_i/2)) for modes 2..rows+1.

    Cached per instance shape; the one per-mode table that the closed
    form, the recurrence route and the current fields read. The rates
    ascend with the mode, which :func:`_live_modes` relies on.
    """
    idx = np.arange(1, rows + 1, dtype=float)
    table = np.arcsinh(np.sqrt(ratio) * np.sin(idx * np.pi / (2 * rows + 2)))
    table.flags.writeable = False
    return table


# Modes per block of a mode sum: the temporaries of one query stay near
# 1 MB however many rows the lattice has.
_BLOCK = 1 << 14
# Sine tables longer than this are built as an anchor x offset product,
# whose fixed cost (some 20 us of numpy calls) pays off against one sine
# per mode from about 500 modes for rt's three heights, 650 for closed's two.
_SPLIT = 512


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


def _sines(block: slice, denom: int, *heights: int) -> np.ndarray:
    """sin(pi*(i-1)*h/denom) over the modes of ``block``: one row per height h.

    Mode i's angle is 2*pi*t/(4*denom) with the integer t = 2*(i-1)*h,
    reduced exactly by :func:`_sin_turns` (t stays below 2**63 for any
    lattice whose decay table fits in memory), so every entry is within a
    few eps; a rounded product near pi*(i-1)*h/denom is off by up to
    8e-10 at 10^6 rows. A block longer than ``_SPLIT`` modes splits each
    angle into an anchor a and an offset b, both reduced exactly, and
    takes sin(a + b) = [sin a, cos a] . [cos b, sin b] as one batched
    matrix product of (heights, anchors, 2) by (heights, 2, offsets):
    about 4*sqrt(n) sines per height instead of n.
    """
    period = 4 * denom
    first, stop = 2 * block.start + 2, 2 * block.stop + 2  # 2*(i-1) of the block
    count = block.stop - block.start
    if count <= _SPLIT:
        modes = np.arange(first, stop, 2, dtype=np.int64)
        return _sin_turns(np.multiply.outer(heights, modes), period)
    width = math.isqrt(count - 1) + 1
    height = np.array(heights, dtype=np.int64)[:, None, None]
    anchors = np.arange(first, stop, 2 * width, dtype=np.int64)[:, None]
    offsets = np.arange(0, 2 * width, 2, dtype=np.int64)
    # [sin a, cos a] per anchor and [cos b, sin b] per offset: a quarter
    # period (denom turns) on, a sine is a cosine
    left = _sin_turns(height * anchors + [0, denom], period)
    right = _sin_turns(height * offsets + [[denom], [0]], period)
    return np.matmul(left, right).reshape(len(heights), -1)[:, :count]


# e^{-z} for z > 708 is far below rounding in every ratio built here, and numpy's
# exp leaves its fast path just below -707.5 (per 4096 entries: 7 us at -707.5,
# 107 us at -708, 960 us at -709; numpy 2.4, 2-CPU Xeon KVM guest): clamp at -700.
_UNDERFLOW = 708.0
_CLAMP = 700.0


def _live_modes(coords: SpanCoords, half: np.ndarray) -> int:
    """How many modes come before the first in which every span-frame decay underflows.

    From there on, a suffix because the rates ascend, e^{-2*length*h} < e^{-708}
    for each of the five lengths of :func:`_span_ratios`, and so is e^{-4Nh}:
    far below rounding, so alpha = gamma = :func:`_free_scale` and beta = 0.
    A zero length (nodes in one column) keeps every mode live.
    """
    # x_in <= x_out: near_in = 2*x_in - 1 and far_out = 2*(N - x_out) + 1
    # are the shorter near and far lengths
    shortest = min(2 * coords.x_in - 1, 2 * (coords.cols - coords.x_out) + 1,
                   coords.separation)
    if shortest == 0 or 2 * shortest * half[-1] < _UNDERFLOW:
        return half.size
    return int(half.searchsorted(_UNDERFLOW / (2 * shortest)))


def _free_scale(half: np.ndarray) -> np.ndarray:
    """alpha = gamma = D/4 = 1 / (2*sinh(2h)) past the live modes.

    There every C of :func:`_span_ratios` is 1/2 and e^{-4Nh} is 0.
    """
    return 0.5 / np.sinh(2.0 * half)


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


def _mode_sum(spec: HammockSpec, coords: SpanCoords) -> float:
    """Hyperbolic mode sum of the general form, one block of modes at a time."""
    table = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, cut in _mode_blocks(spec.rows, _live_modes(coords, table)):
        sin_in, sin_out = _sines(block, spec.rows + 1, coords.y_in, coords.y_out)
        half = table[block]
        if cut:
            alpha, beta, gamma = _span_ratios(coords, half[:cut])
            s_in, s_out = sin_in[:cut], sin_out[:cut]
            total += float((s_in * s_in * alpha
                            - 2.0 * s_in * s_out * beta
                            + s_out * s_out * gamma).sum())
        if cut < len(half):
            s_in, s_out = sin_in[cut:], sin_out[cut:]
            total += float((_free_scale(half[cut:]) * (s_in * s_in + s_out * s_out)).sum())
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
    table = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, _ in _mode_blocks(spec.rows, spec.rows):
        alpha = _span_ratios(coords, table[block])[0]
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
    table = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, _ in _mode_blocks(spec.rows, spec.rows):
        step = -2.0 * table[block]
        coef = -np.expm1(distance * step) \
            * (1.0 + np.exp((spec.cols - distance) * step)) \
            / (2.0 * np.sinh(-step) * (1.0 + np.exp(spec.cols * step)))
        (sines,) = _sines(block, spec.rows + 1, y)
        total += float((sines * sines * coef).sum())
    value = float(spec.r) / (spec.rows + 1) * (4.0 * total)
    return ResistanceResult(value, "closed", {"specialization": "same_row"})
