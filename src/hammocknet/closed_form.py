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
below rounding from some mode on, read off the rate formula (:func:`_live_modes`);
past it, alpha = gamma = f = 1/(2*sinh(2h)) and beta = 0: no span-frame kernel.

Every pair route splits its mode sum the same way, and one function,
:func:`_mode_sum`, holds that split: a route passes only its kernel, and
forms each live mode's sines once. Past the cut-off no pair algebra is
left, and modes i and M + 3 - i share sin^2 at every height: a live mode
adds its mirror's term from its own sine rows, and the folded sum from
the cut-off on, :func:`_tail`, is computed once per (instance, cut-off,
node heights) and shared by every route, so a pair that closed and rt
cross-check pays for it once. One cached table per instance,
:func:`_decay_table`, holds the folded weights g_j = f_j + f_{M-1-j} over
ceil(M/2) entries (raw over the first ``_BLOCK``, past it as ``_DEGREE``
+ 1 Chebyshev coefficients per line of ``_WIDTH`` entries), the rates h
of the first ``_BLOCK`` modes and the raw f of the last ``_BLOCK``. The
rates past the head are formed one block at a time
(:func:`_block_rates`), so a pair query holds O(_BLOCK) temporaries on top
of the table; the current fields, which need every rate, form them all
once per field. :func:`_mode_sum` states the rounding bound of the sum.
Functions are pure; node pairs can be evaluated in parallel by callers.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import NamedTuple

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
    any range of entries has the bits of the same entries of all ``rows``.
    """
    idx = np.arange(start + 1, stop + 1, dtype=float)
    return np.arcsinh(np.sqrt(ratio) * np.sin(idx * np.pi / (2 * rows + 2)))


def _free(rows: int, ratio: float, start: int, stop: int) -> np.ndarray:
    """f = 1/(2*sinh(2h)) over the rates of :func:`_rates`, with their bits."""
    return 0.5 / np.sinh(2.0 * _rates(rows, ratio, start, stop))


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


class _ModeTable(NamedTuple):
    """The per-instance mode table of :func:`_decay_table`, entry j for mode j + 2."""

    rows: int
    ratio: float
    # g_j = f_j + f_{M-1-j} for j < min(_BLOCK, ceil(M/2)); f_j alone at a middle j = M-1-j
    folded: np.ndarray
    head: np.ndarray  # h_j for j < min(_BLOCK, M)
    top: np.ndarray  # f_{M-1-j} for j < min(_BLOCK, M): the last entries, mirrored
    lines: np.ndarray  # Chebyshev coefficients of g, one row per _WIDTH entries from _BLOCK on
    rest: np.ndarray  # g_j past the last line to ceil(M/2), raw; f_j alone at a middle j


# Degree of the Chebyshev fit of one line of g: past the first block a line of
# _WIDTH entries is at least 2*_BLOCK/_WIDTH half-widths from the pole of f at
# mode 1 (entry -1), so the truncation error is far below rounding.
_DEGREE = 7


@cache
def _chebyshev() -> tuple[np.ndarray, np.ndarray]:
    """T_q at the ``_WIDTH`` entries of a line mapped onto [-1, 1], shape
    (_WIDTH, _DEGREE + 1), and its least-squares projection: the same for
    every table, built by the first one that fits a line."""
    x = np.linspace(-1.0, 1.0, _WIDTH)
    basis = np.empty((_WIDTH, _DEGREE + 1))
    basis[:, 0], basis[:, 1] = 1.0, x
    for q in range(2, _DEGREE + 1):  # T_q = 2x*T_{q-1} - T_{q-2}
        basis[:, q] = 2.0 * x * basis[:, q - 1] - basis[:, q - 2]
    projection = np.linalg.solve(basis.T @ basis, basis.T)
    for array in (basis, projection):
        array.flags.writeable = False
    return basis, projection


def _fit_lines(weights: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients, (lines, _DEGREE + 1), of the rows of ``weights``,
    one line of ``_WIDTH`` entries each.

    Each line is fitted about its mean: the mean, plus the least-squares
    projection of what is left. That residual is a few percent of the line
    and rounds that much less: a plain projection of the line reads its
    sum up to 5.5 eps off at 10^6 rows.
    """
    _, projection = _chebyshev()
    mean = weights.mean(axis=1)
    coeffs = (weights - mean[:, None]) @ projection.T
    coeffs[:, 0] += mean
    return coeffs


@lru_cache(maxsize=64)
def _decay_table(rows: int, ratio: float) -> _ModeTable:
    """The folded table of f_i = 1/(2*sinh(2h_i)), and O(_BLOCK) raw entries;
    cached per instance shape.

    Mode i and its mirror M + 3 - i have the same sin^2 at every height, so
    past the live cut-off a pair sums the folded weights g_j = f_j +
    f_{M-1-j} over ceil(M/2) entries instead of f over M. The first
    ``_BLOCK`` of them are kept raw. Past the first block g is analytic in
    j, its nearest singularity at j = -1, so each line of ``_WIDTH`` entries
    is kept as ``_DEGREE`` + 1 Chebyshev coefficients (:func:`_fit_lines`):
    a fitted entry is within 4*eps*(1 + 2h)*g of g, the rounding of f from
    its rate, and each line's sum within eps of its own (:func:`_mode_sum`
    adds that term to its bound). The entries past the last full line, at
    most ``_WIDTH`` with the middle entry of an odd M, stay raw. At 10^6
    rows the table holds 0.77 MB where raw g took 4.2.

    The table keeps the rates h of the first ``_BLOCK`` modes for
    :func:`_block_rates`, and the raw f of the last ``_BLOCK`` (``top``), the
    mirror terms of first-block live modes (:func:`_mirror_terms`). Every raw
    f has the bits of :func:`_free`; the build takes a low block and its
    mirror block at a time, so it holds O(_BLOCK) temporaries.
    """
    edge, half = min(_BLOCK, rows), (rows + 1) // 2
    head = _rates(rows, ratio, 0, edge)
    first = 0.5 / np.sinh(2.0 * head)
    top = first[::-1] if edge == rows else _free(rows, ratio, rows - edge, rows)[::-1]
    folded = first[:half] + top[:half]
    lines = np.empty((max(rows // 2 - _BLOCK, 0) // _WIDTH, _DEGREE + 1))
    fitted = _BLOCK + lines.shape[0] * _WIDTH  # where the raw rest begins
    rest = np.empty(max(half - fitted, 0))
    for block in _mode_blocks(half):
        start, stop = block.start, block.stop
        if start == 0:
            low, weights = first[block], folded
        else:
            low = _free(rows, ratio, start, stop)
            weights = low + _free(rows, ratio, rows - stop, rows - start)[::-1]
        if rows % 2 and stop == half:  # the middle mode is its own mirror
            weights[-1] = low[-1]
        count = max(min(stop, fitted) - start, 0)  # entries of the block in full lines
        if start and count:
            line = (start - _BLOCK) // _WIDTH
            lines[line:line + count // _WIDTH] = _fit_lines(weights[:count].reshape(-1, _WIDTH))
        if stop > fitted:  # the rest lies in the last block
            rest[:] = weights[count:]
    for table in (folded, head, top, lines, rest):
        table.flags.writeable = False
    return _ModeTable(rows, ratio, folded, head, top, lines, rest)


def _folded(table: _ModeTable, start: int, stop: int) -> np.ndarray:
    """g_j over start <= j < stop: raw in the first block and the rest, else
    evaluated from the coefficients of its lines."""
    if stop <= table.folded.size:
        return table.folded[start:stop]
    line = min((start - _BLOCK) // _WIDTH, table.lines.shape[0])
    last = -(-(stop - _BLOCK) // _WIDTH)
    basis, _ = _chebyshev()
    values = np.concatenate(((table.lines[line:last] @ basis.T).ravel(), table.rest))
    first = _BLOCK + line * _WIDTH
    return values[start - first:stop - first]


def _block_rates(spec: HammockSpec, head: np.ndarray, block: slice) -> np.ndarray:
    """Rates of the modes of ``block``: the cached head in the first block, else formed here."""
    if block.start == 0:
        return head[:block.stop]
    return _rates(spec.rows, spec.ratio, block.start, block.stop)


def _mode_blocks(rows: int):
    """Yield slices over the first ``rows`` entries of a per-mode table, such as
    the decay table, in blocks of ``_BLOCK``; entry j belongs to mode i = j + 2."""
    for start in range(0, rows, _BLOCK):
        yield slice(start, min(start + _BLOCK, rows))


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
    2*(i-1) into an anchor a, every 2*width, and an offset b = 0, 2, ...,
    2*width - 2, and takes sin(a + b) = [sin a, cos a] . [cos b, sin b] as
    one batched matrix product of (heights, anchors, 2) by (heights, 2,
    offsets): about 4*sqrt(n) sines per height instead of n.
    """
    first, stop = 2 * block.start + 2, 2 * block.stop + 2  # 2*(i-1) of the block
    count = block.stop - block.start
    if count <= _SPLIT:
        modes = np.arange(first, stop, 2, dtype=np.int64)
        return _sin_turns(np.multiply.outer(heights, modes), 4 * denom)
    width = math.isqrt(count - 1) + 1
    height = np.array(heights, dtype=np.int64)[:, None, None]
    anchors = np.arange(first, stop, 2 * width, dtype=np.int64)[:, None]
    offsets = np.arange(0, 2 * width, 2, dtype=np.int64)
    # a quarter period (denom turns) on, a sine is a cosine
    left = _sin_turns(height * anchors + [0, denom], 4 * denom)
    right = _sin_turns(height * offsets + [[denom], [0]], 4 * denom)
    return np.matmul(left, right).reshape(len(heights), -1)[:, :count]


# e^{-z} for z > 708 is far below rounding in every ratio built here, and numpy's
# exp leaves its fast path just below -707.5 (per 4096 entries: 7 us at -707.5,
# 107 us at -708, 960 us at -709; numpy 2.4, 2-CPU Xeon KVM guest): clamp at -700.
_UNDERFLOW = 708.0
_CLAMP = 700.0


def _live_modes(coords: SpanCoords, table: _ModeTable) -> int:
    """How many modes come before the first in which every span-frame decay underflows.

    From there on, a suffix because the rates ascend, e^{-2*length*h} < e^{-708}
    for each of the five lengths of :func:`_span_ratios`, and so is e^{-4Nh}:
    far below rounding, so alpha = gamma = f = 1/(2*sinh(2h)) and beta = 0.
    With L the least length, table entry j is live while h_j < 354/L, which
    by the rate formula is sin((j+1)*pi/(2M+2)) < reach = sinh(354/L)/sqrt(r/s):
    j + 1 < asin(reach)*(2M+2)/pi, and every j from reach 1 on or at L = 0
    (nodes in one column). A rounding tie may move the count by one mode,
    whose decays are about e^{-708}: either side gives the sum to an ulp.
    """
    # x_in <= x_out: near_in = 2*x_in - 1 and far_out = 2*(N - x_out) + 1
    # are the shorter near and far lengths
    shortest = min(2 * coords.x_in - 1, 2 * (coords.cols - coords.x_out) + 1,
                   coords.separation)
    reach = math.sinh(_UNDERFLOW / 2 / shortest) / math.sqrt(table.ratio) if shortest else 1.0
    if reach >= 1.0:
        return table.rows
    # below rows as asin(reach) < pi/2; max: a reach that underflows (L near 1e300)
    return max(math.ceil(math.asin(reach) * (2 * table.rows + 2) / math.pi) - 1, 0)


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
    """Where :func:`_tail` stops forming a sine per folded entry and :func:`_far_sum`
    takes over: the end of the first block, of the block that holds the last
    live mode, or ceil(M/2); the cut-off itself past ceil(M/2)."""
    return max(live, min(max(1, -(-live // _BLOCK)) * _BLOCK, (rows + 1) // 2))


def _mirror_terms(table: _ModeTable, start: int, s_in: np.ndarray, s_out: np.ndarray) -> float:
    """Sum of f_{M-1-j}*(s_in^2 + s_out^2) over live entries j from ``start``, their
    mirrors past the cut-off: f from the table's top in the first block, else formed here."""
    stop = start + s_in.size
    weights = table.top[start:stop] if stop <= table.top.size else \
        _free(table.rows, table.ratio, table.rows - stop, table.rows - start)[::-1]
    squares = s_in * s_in  # in place: a block-sized temporary fewer at peak memory
    squares += s_out * s_out
    return float((weights * squares).sum())


def _far_sum(table: _ModeTable, start: int, denom: int, *heights: int) -> float:
    """Sum of g_j * sin^2(pi*(j+1)*y/denom) over the heights y and the
    folded entries j of ``table`` from ``start`` on, with no per-mode sine:
    the entries of :func:`_tail` from :func:`_direct_modes` (a multiple
    of ``_BLOCK``, or past the table) to ceil(M/2).

    As sin^2 = (1 - cos 2*theta)/2, only the sums of g*cos(2*theta) are
    needed, and those of g itself: the angle 2*theta of a height 0. Past the
    first block g is a polynomial in each line of ``_WIDTH`` entries, so a
    line's sum is its coefficients times the moments of the basis against
    e^{i*b} over the line's offsets b, one (_DEGREE + 1) x heights table per
    call. Each line's own angle splits as c + a, the base c of its block and
    its anchor a within the block, so every angle is reduced exactly by
    :func:`_sin_turns` from about 2*_WIDTH + M/_BLOCK turns per height. The
    raw rest, shorter than one line, takes a sine per entry, and alone
    (M below 2*_BLOCK + 2*_WIDTH) no line or base table.
    """
    lines = table.lines[(start - _BLOCK) // _WIDTH:]
    fitted = _BLOCK + table.lines.shape[0] * _WIDTH  # where the raw rest begins
    rest = table.rest[max(start - fitted, 0):]
    total = 0.0
    if rest.size:  # at most _WIDTH <= _SPLIT entries: _sines takes a sine each
        first = max(start, fitted)
        sines = _sines(slice(first, first + rest.size), denom, *heights)
        total += float((sines * sines @ rest).sum())
    if not lines.size:
        return total
    full, tail = divmod(lines.shape[0], _WIDTH)  # _BLOCK = _WIDTH lines of _WIDTH entries
    blocks = full + (tail > 0)
    # turns 2*(j+1)*2y for the block bases j + 1 = start + 1 + k*_BLOCK, the
    # line anchors l*_WIDTH and the offsets m; e^{i*angle} per height, and
    # e^0 = 1 for the sums of g
    steps = np.concatenate((start + 1 + _BLOCK * np.arange(blocks),
                            _WIDTH * np.arange(_WIDTH), np.arange(_WIDTH)))
    turns = np.multiply.outer(np.array(heights) * 4, steps)
    phases = np.ones((len(heights) + 1, steps.size), complex)
    phases[1:].real, phases[1:].imag = _sin_turns(np.add.outer((denom, 0), turns), 4 * denom)
    bases, offsets = phases[:, :blocks], phases[:, blocks + _WIDTH:]
    # per block and coefficient, the sum over its lines of c*e^{i*a}, as [re, im] per height
    anchors = np.ascontiguousarray(phases[:, blocks:blocks + _WIDTH].T).view(float)
    per_block = np.empty((blocks, _DEGREE + 1, anchors.shape[1]))
    np.matmul(lines[:full * _WIDTH].reshape(full, _WIDTH, _DEGREE + 1).transpose(0, 2, 1),
              anchors, out=per_block[:full])
    if tail:
        np.matmul(lines[full * _WIDTH:].T, anchors[:tail], out=per_block[full])
    # times the moments of the basis against e^{i*b} over a line's offsets, and the bases
    basis, _ = _chebyshev()
    sums = (per_block.view(complex) * (basis.T @ offsets.T)).sum(axis=1)
    cosines = (bases * sums.T).real.sum(axis=1)
    return total + 0.5 * (len(heights) * float(cosines[0]) - float(cosines[1:].sum()))


@lru_cache(maxsize=64)
def _tail(rows: int, ratio: float, live: int, low: int, high: int) -> float:
    """The folded sum g*(sin_low^2 + sin_high^2) over the entries from a pair's
    cut-off ``live`` to ceil(M/2), at node heights ``low`` <= ``high``; cached
    per instance, cut-off and heights, and shared by every pair route (see
    :func:`_mode_sum`).

    The entries up to :func:`_direct_modes` take one sine call over ``M +
    1``, and :func:`_far_sum` the entries after them. Call it only when some
    folded entry is past the cut-off: a pure function of its arguments, it
    gives every route the same bits, cached or not.
    """
    table = _decay_table(rows, ratio)
    direct = _direct_modes(live, rows)
    sin_low, sin_high = _sines(slice(live, direct), rows + 1, low, high)
    weights = _folded(table, live, direct)
    free = float((weights * (sin_low * sin_low + sin_high * sin_high)).sum())
    return free + _far_sum(table, direct, rows + 1, low, high)


def _mode_sum(spec: HammockSpec, coords: SpanCoords, kernel, denom: int,
              *heights: int) -> tuple[float, float]:
    """``(live, free)``: a pair's sum over the live modes and past them.

    The one split of every pair route's mode sum. ``kernel(spec, coords,
    rates, rows)`` returns the route's terms over a block of live modes (its
    last axis; each row, if there are several, is summed on its own), from
    their rates and their sine rows, those of :func:`_sines` at ``heights``
    over ``denom``, each formed once. The last two heights must be the two
    nodes': their rows are the node sines over M + 1 (rt's lifts 2y over
    2(M+1) have those bits). ``free`` sums f*(sin_in^2 + sin_out^2) past the
    cut-off, where no pair algebra is left: a live entry j < M - live adds
    its mirror's f_{M-1-j} (:func:`_mirror_terms`) against those two rows,
    and :func:`_tail` the folded entries from the cut-off on, the same for
    every route and cached, so a cross-checked pair (closed, then rt) reads
    it once. :func:`_far_sum` takes those past :func:`_direct_modes`: with
    sin^2 = (1 - cos 2*theta)/2 and the angle addition, the coefficients of
    every line take a few small matrix products, with no per-mode sine.

    That rounds like eps*sum(g) over the contracted entries, not like
    eps*sum(g*sin^2), so the first block stays direct: at large r/s, f falls
    like 1/i^2, and with a node next to a hub (y = 1 or M) the slow modes
    carry most of sum(f) while their sin^2 is small. With F = (2r/(M+1)) *
    sum of g over the contracted entries, closed's R and rt's are each within
    eps*(4*R + 8*F) of the same sum taken exactly over the same rates
    (tested against a long-double sum at 4*_BLOCK + 1, 4*_BLOCK + 2 and 10^6
    rows, r/s 0.5 to 2**1021, y = 1, M and (M+1)/2), plus the fit's term:
    (2r/(M+1)) * sum of (g_fit - g)*(sin_in^2 + sin_out^2) over the fitted
    entries a pair reads. Each fitted entry is within 4*eps*(1 + 2h)*g of g,
    the rounding of f from its rate, and each line's sum within eps of its
    own, so that term is at most 8*eps*(1 + 2h) times 2r/(M+1) times the sum
    of g over those entries (F, when the cut-off is in the first block). The
    entry errors are the rates' rounding smoothed away and take either sign:
    in every case tested the fit stays inside eps*(4*R + 8*F). Live terms
    that cancel are not counted by that bound: a pair one column apart at the
    middle height reads 8.8 eps off at 4*_BLOCK + 2 rows and r/s 0.5.
    """
    table = _decay_table(spec.rows, spec.ratio)
    live = _live_modes(coords, table)
    mirrored = min(live, spec.rows - live)  # live entries whose mirror is past the cut-off
    total = free = 0.0
    for block in _mode_blocks(live):
        # kept into the next block: freed with the kernel's temporaries they let glibc
        # trim the heap and fault it back in (2000 page faults per rt pair at 10^5 rows)
        rows = _sines(block, denom, *heights)
        if block.start < mirrored:
            free += _mirror_terms(table, block.start, *rows[-2:, :mirrored - block.start])
        terms = kernel(spec, coords, _block_rates(spec, table.head, block), rows)
        total += float(terms.sum(axis=-1).sum())
    if live >= (spec.rows + 1) // 2:  # no folded entry past the cut-off: no tail, no cache entry
        return total, free
    low, high = sorted((coords.y_in, coords.y_out))
    return total, free + _tail(spec.rows, spec.ratio, live, low, high)


def _general_kernel(spec: HammockSpec, coords: SpanCoords, rates: np.ndarray,
                    rows: np.ndarray) -> np.ndarray:
    """alpha*s_in^2 - 2*beta*s_in*s_out + gamma*s_out^2 over live modes."""
    alpha, beta, gamma = _span_ratios(coords, rates)
    s_in, s_out = rows
    return s_in * s_in * alpha - 2.0 * s_in * s_out * beta + s_out * s_out * gamma


def _column_kernel(spec: HammockSpec, coords: SpanCoords, rates: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
    """(s_2 - s_1)^2 * alpha over live modes: at equal columns alpha = beta = gamma."""
    sine_diff = rows[1] - rows[0]
    return sine_diff * sine_diff * _span_ratios(coords, rates)[0]


def _row_kernel(spec: HammockSpec, coords: SpanCoords, rates: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """sin^2 times twice sinh(dh)*cosh((N-d)h)/(sinh(2h)*cosh(Nh)), e^{Nh} cancelled: past
    the cut-off the coefficient is f, so doubled it is both nodes' isolated-node terms, 2f."""
    distance, step = coords.separation, -2.0 * rates
    coef = -np.expm1(distance * step) * (1.0 + np.exp((spec.cols - distance) * step)) \
        / (np.sinh(-step) * (1.0 + np.exp(spec.cols * step)))
    return rows[0] * rows[0] * coef


def _closed_value(spec: HammockSpec, coords: SpanCoords, kernel, y1: int, y2: int) -> float:
    """2r/(M+1) times the mode sum of ``kernel``, plus the uniform term s*(y2-y1)^2/(N*(M+1))."""
    live, free = _mode_sum(spec, coords, kernel, spec.rows + 1, y1, y2)
    # s*(y2 - y1)^2 is often exact (s = 3, say), and then only the quotient
    # rounds; only where the product overflows is the integer ratio taken first
    lift, cells = float(spec.s) * (y2 - y1) ** 2, spec.cols * (spec.rows + 1)
    uniform = lift / cells if lift != math.inf else float(spec.s) * ((y2 - y1) ** 2 / cells)
    # r/(M + 1) before its factor 2: the same bits, and no large r overflows
    return float(spec.r) / (spec.rows + 1) * (2.0 * (live + free)) + uniform


def resistance_general(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Closed-form resistance between two interior nodes.

    Handles any pair, any aspect ratio and lattices up to millions of
    rows/columns; identical nodes give exactly zero. Hub terminals are
    rejected (the dense oracle covers them).
    """
    coords = span_coords(spec, a, b)
    if coords.node_in == coords.node_out:  # the mode sum misses 0 past r/s ~ 1e305
        return ResistanceResult(0.0, "closed", {"swapped": coords.swapped})
    value = _closed_value(spec, coords, _general_kernel, coords.y_in, coords.y_out)
    return ResistanceResult(value, "closed", {"swapped": coords.swapped})


def resistance_same_column(spec: HammockSpec, x: int, y1: int, y2: int) -> ResistanceResult:
    """Specialised form for two nodes in the same column.

    Equivalent to :func:`resistance_general` at equal columns, where
    alpha == beta == gamma and the cross terms fold into one squared sine
    difference per mode; every mode is live.
    """
    coords = span_coords(spec, (x, y1), (x, y2))
    if y1 == y2:
        return ResistanceResult(0.0, "closed", {"specialization": "same_column"})
    value = _closed_value(spec, coords, _column_kernel, y1, y2)
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
    if coords.separation == 0:
        return ResistanceResult(0.0, "closed", {"specialization": "same_row"})
    value = _closed_value(spec, coords, _row_kernel, y, y)
    return ResistanceResult(value, "closed", {"specialization": "same_row"})
