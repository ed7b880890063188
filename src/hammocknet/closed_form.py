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
two large logarithms, at O(M) cost per node pair. The mode sums run over
blocks of ``_BLOCK`` modes, so a query holds O(_BLOCK) temporaries on top
of the cached decay table. Functions are pure; node pairs can be
evaluated in parallel by callers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import (
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SpanCoords,
    require_interior,
    span_coords,
)


@lru_cache(maxsize=64)
def _decay_table(rows: int, ratio: float) -> np.ndarray:
    """Decay rates asinh(sqrt(r/s) * sin(theta_i/2)) for modes 2..rows+1.

    Cached per instance shape; the one per-mode table that the closed
    form, the recurrence route and the current fields read. The rates
    ascend with the mode, which :func:`_decay` relies on.
    """
    idx = np.arange(1, rows + 1, dtype=float)
    table = np.arcsinh(np.sqrt(ratio) * np.sin(idx * np.pi / (2 * rows + 2)))
    table.flags.writeable = False
    return table


# Modes per block of a mode sum: the temporaries of one query stay near
# 1 MB however many rows the lattice has.
_BLOCK = 1 << 14


def _mode_blocks(rows: int):
    """Yield (slice, idx) over modes i = 2..M+1 in blocks of ``_BLOCK``.

    ``slice`` selects the block's entries of a per-mode table such as the
    decay table; ``idx`` holds their i - 1 as floats.
    """
    for start in range(0, rows, _BLOCK):
        stop = min(start + _BLOCK, rows)
        yield slice(start, stop), np.arange(start + 1, stop + 1, dtype=float)


def _sine_table(rows: int, height: int, idx: np.ndarray) -> np.ndarray:
    """sin((i-1)*pi*height/(M+1)) for the modes whose i - 1 is ``idx``."""
    return np.sin(idx * np.pi * height / (rows + 1))


# e^{-z} for z > 708 is subnormal or zero: below rounding in every ratio
# built here, and many times slower for numpy to produce than a normal
# result.
_UNDERFLOW = 708.0


def _decay(half: np.ndarray, length: int) -> np.ndarray:
    """e^{-2*length*h} over the ascending decay rates ``half``.

    Only the rates with 2*length*h < ``_UNDERFLOW`` are exponentiated; the
    rest, a suffix because the rates ascend, are zero.
    """
    out = np.zeros(half.shape)
    stop = half.size if length == 0 else np.searchsorted(half, _UNDERFLOW / (2 * length))
    np.exp(-2.0 * length * half[:stop], out=out[:stop])
    return out


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
    near_in = 1.0 + _decay(half, 2 * x_in - 1)
    far_in = 1.0 + _decay(half, 2 * cols - 2 * x_in + 1)
    near_out = 1.0 + _decay(half, 2 * x_out - 1)
    far_out = 1.0 + _decay(half, 2 * cols - 2 * x_out + 1)
    near_in *= scale
    near_out *= scale
    return (near_in * far_in,
            near_in * far_out * _decay(half, coords.separation),
            near_out * far_out)


def _mode_sum(spec: HammockSpec, coords: SpanCoords) -> float:
    """Hyperbolic mode sum of the general form, one block of modes at a time."""
    table = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, idx in _mode_blocks(spec.rows):
        alpha, beta, gamma = _span_ratios(coords, table[block])
        sin_in = _sine_table(spec.rows, coords.y_in, idx)
        sin_out = _sine_table(spec.rows, coords.y_out, idx)
        terms = (sin_in * sin_in * alpha
                 - 2.0 * sin_in * sin_out * beta
                 + sin_out * sin_out * gamma)
        total += float(terms.sum())
    return total


def _uniform_term(spec: HammockSpec, y1: int, y2: int) -> float:
    return float(spec.s) * (y2 - y1) ** 2 / (spec.cols * (spec.rows + 1))


def resistance_general(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Closed-form resistance between two interior nodes.

    Handles any pair, any aspect ratio and lattices up to millions of
    rows/columns; identical nodes give exactly zero. Hub terminals are
    rejected (the dense oracle covers them).
    """
    coords = span_coords(spec, a, b)
    total = _mode_sum(spec, coords)
    value = (2.0 * float(spec.r) / (spec.rows + 1)) * total \
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
    for block, idx in _mode_blocks(spec.rows):
        alpha = _span_ratios(coords, table[block])[0]
        sine_diff = _sine_table(spec.rows, y2, idx) - _sine_table(spec.rows, y1, idx)
        total += float((sine_diff * sine_diff * alpha).sum())
    value = (2.0 * float(spec.r) / (spec.rows + 1)) * total \
        + _uniform_term(spec, y1, y2)
    return ResistanceResult(value, "closed", {"specialization": "same_column"})


def resistance_same_row(spec: HammockSpec, y: int, x1: int, x2: int) -> ResistanceResult:
    """Specialised form for two same-row nodes mirrored about the centre.

    Valid exactly when the pair is centred, x1 + x2 == N + 1, which makes
    the two hyperbolic factors per mode collapse into a single
    sinh * cosh ratio. Off-centre pairs raise; use
    :func:`resistance_general` for those.
    """
    require_interior(spec, (x1, y))
    require_interior(spec, (x2, y))
    if x1 + x2 != spec.cols + 1:
        raise LatticeError(
            f"columns x1={x1}, x2={x2} are not centred (need x1 + x2 = "
            f"{spec.cols + 1}); use resistance_general for off-centre pairs"
        )
    distance = abs(x2 - x1)
    if distance == 0:
        return ResistanceResult(0.0, "closed", {"specialization": "same_row"})
    # sinh(dh) * cosh((N-d)h) / (sinh(2h) * cosh(Nh)) with e^{Nh} cancelled
    table = _decay_table(spec.rows, spec.ratio)
    total = 0.0
    for block, idx in _mode_blocks(spec.rows):
        step = -2.0 * table[block]
        coef = -np.expm1(distance * step) \
            * (1.0 + np.exp((spec.cols - distance) * step)) \
            / (2.0 * np.sinh(-step) * (1.0 + np.exp(spec.cols * step)))
        sines = _sine_table(spec.rows, y, idx)
        total += float((sines * sines * coef).sum())
    value = (4.0 * float(spec.r) / (spec.rows + 1)) * total
    return ResistanceResult(value, "closed", {"specialization": "same_row"})
