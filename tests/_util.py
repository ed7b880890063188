"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
from mpmath import mp

from hammocknet import CurrentField, GridNode, HammockSpec, LatticeError, SpanCoords
from hammocknet.closed_form import _CLAMP, _UNDERFLOW, _rates, _sin_turns
from hammocknet.lattice import span_coords
from hammocknet.recurrence import _product_calls, mode_transform, transformed_columns
from hammocknet.spectral import _BLOCK, eigen_system


def interior_pairs(spec: HammockSpec, distinct: bool = True):
    """All unordered interior node pairs of one instance."""
    nodes = list(spec.interior_nodes())
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 if distinct else i:]:
            yield a, b


def specs_upto(max_rows: int, max_cols: int, rs=((1.0, 1.0),)):
    for rows, cols in itertools.product(range(1, max_rows + 1),
                                        range(1, max_cols + 1)):
        for r, s in rs:
            yield HammockSpec(rows, cols, r, s)


def rel_dev(values) -> float:
    values = list(values)
    scale = max(abs(v) for v in values)
    if scale == 0.0:
        return 0.0
    return (max(values) - min(values)) / scale


def live_ratio(rows: int, length: int, live: int) -> float:
    """r/s that puts the live cut-off of a shortest span length at ``live``.

    The underflow threshold _UNDERFLOW/(2*length) then lies halfway (in
    angle) between the rates of table entries live - 1 and live.
    """
    angle = (live + 0.5) * math.pi / (2 * rows + 2)
    return (math.sinh(_UNDERFLOW / (2 * length)) / math.sin(angle)) ** 2


def record_sines(monkeypatch) -> list:
    """Record the (start, stop) of every block passed to ``closed_form._sines``,
    from closed_form and recurrence alike, in call order; returns that list."""
    from hammocknet import closed_form, recurrence

    blocks, sines = [], closed_form._sines

    def recorded(block, *args):
        blocks.append((block.start, block.stop))
        return sines(block, *args)

    monkeypatch.setattr(closed_form, "_sines", recorded)
    monkeypatch.setattr(recurrence, "_sines", recorded)
    return blocks


def all_nodes(spec: HammockSpec):
    from hammocknet import Terminal

    return [Terminal.BOTTOM, *spec.interior_nodes(), Terminal.TOP]


def grid(x: int, y: int) -> GridNode:
    return GridNode(x, y)


def region_amplitudes(spec: HammockSpec, coords: SpanCoords, injected: float = 1.0):
    """Raw amplitudes of the three-region recurrence solution, per mode.

    Returns the roots and, for each of "middle", "right" and "left", a
    (growth, decay) pair: column k of that region holds
    growth * root**k + decay * root**(-k). Mode 0 is uniform (root 1), so
    each of its amplitudes is half the constant column value. The
    amplitudes grow like root**(2N): this is a desk-scale reference that
    overflows from a few hundred columns.
    """
    rows, cols = spec.rows, spec.cols
    chis = np.arange(1, rows + 1) * math.pi / (2 * rows + 2)
    lam = np.exp(2.0 * _rates(rows, spec.ratio, 0, rows))
    left, right = coords.span_left, coords.span_right
    p, q = coords.p_offset, coords.q_offset

    def source(height):
        zeta = -2.0 * np.sin(2.0 * height * chis) * np.sin(chis)
        return spec.ratio * injected * zeta / (lam - 1.0 / lam)

    c_in, c_out = source(coords.y_in), source(coords.y_out)
    b_growth = (c_in * (lam ** p + lam ** (2 * left - p + 1))
                - c_out * (lam ** (-q) + lam ** (q + 2 * left + 1))) \
        / (1.0 - lam ** (2 * cols))
    b_decay = b_growth * lam ** (2 * right + 1)
    a_growth = b_growth + c_out * lam ** (-q)
    a_decay = b_decay - c_out * lam ** q
    s_decay = a_decay + c_in * lam ** (-p)
    s_growth = s_decay * lam ** (2 * left + 1)

    half_uniform = -injected * (coords.y_out - coords.y_in) / cols / 2.0

    def with_uniform(values):
        return np.concatenate(([half_uniform], values))

    roots = np.concatenate(([1.0], lam))
    regions = {
        "middle": (with_uniform(a_growth), with_uniform(a_decay)),
        "right": (with_uniform(b_growth), with_uniform(b_decay)),
        "left": (with_uniform(s_growth), with_uniform(s_decay)),
    }
    return roots, regions


def full_kirchhoff_residual(field) -> float:
    """Worst node imbalance of a current field, from full M x N arrays.

    The direct formula: node potentials from one cumulative sum of the
    column drops, horizontal currents by Ohm's law, and every interior
    node's balance in one (M, N) array; plus both hub sums and the
    top-rail spread. A reference for the row-blocked library audit.
    """
    spec = field.spec
    currents = field.currents
    s, r = float(spec.s), float(spec.r)
    potentials = np.zeros((spec.rows + 2, spec.cols))
    potentials[1:, :] = -np.cumsum(s * currents, axis=0)
    horizontal = (potentials[1:-1, :-1] - potentials[1:-1, 1:]) / r

    external = np.zeros((spec.rows, spec.cols))
    external[field.source.y - 1, field.source.x - 1] += field.injected
    external[field.sink.y - 1, field.sink.x - 1] -= field.injected
    imbalance = currents[:-1, :] - currents[1:, :] + external
    imbalance[:, 1:] += horizontal
    imbalance[:, :-1] -= horizontal

    top = potentials[-1, :]
    return max(float(np.abs(imbalance).max()),
               abs(float(currents[0, :].sum())),
               abs(float(currents[-1, :].sum())),
               float(np.abs(top - top[0]).max()) / s)


def cumsum_kirchhoff_residual(field) -> float:
    """The row-blocked audit summed difference-first with ``np.cumsum`` in
    2**16-entry blocks.

    Each horizontal current is (s/r) times a cumulative sum down the rows
    of the differences of neighbouring currents in a row, and the top-rail
    spread sums the same column sums, with the top link row's
    differences, along the columns. Adds in the same order as the
    library's audit, whatever its block size and however it forms the
    prefix sums, so the two agree bitwise.
    """
    spec = field.spec
    currents = field.currents
    rows, cols = spec.rows, spec.cols
    s_over_r = float(spec.s) / float(spec.r)
    worst = 0.0
    climbed = np.zeros(cols - 1)
    step = max(1, (1 << 16) // cols)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = np.diff(currents[start:stop], axis=1)
        block[0] += climbed
        np.cumsum(block, axis=0, out=block)
        climbed = block[-1].copy()
        horizontal = block * s_over_r
        imbalance = currents[start:stop] - currents[start + 1:stop + 1]
        for node, amount in ((field.source, field.injected), (field.sink, -field.injected)):
            if start <= node.y - 1 < stop:
                imbalance[node.y - 1 - start, node.x - 1] += amount
        imbalance[:, 1:] += horizontal
        imbalance[:, :-1] -= horizontal
        worst = max(worst, float(np.abs(imbalance).max()))
    top = climbed + np.diff(currents[-1])
    return max(worst,
               abs(float(currents[0, :].sum())),
               abs(float(currents[-1, :].sum())),
               float(np.abs(np.cumsum(top)).max(initial=0.0)))


def long_double_kirchhoff_residual(field) -> float:
    """The node balance of ``full_kirchhoff_residual`` in ``np.longdouble``.

    Potentials as prefix sums of s*current down the columns, horizontal
    currents by Ohm's law on them, both hub sums and the top-rail spread,
    all in long double, in row blocks of about 2**16 entries so that it
    takes little more memory than a block. It measures the field's own
    imbalance: on x86 the long double is the 80-bit format (eps 1.1e-19),
    so the reference's rounding is far below a double field's. Where it
    is binary64 (MSVC, arm64 macOS) this is only a second
    double-precision audit.
    """
    spec = field.spec
    currents = field.currents
    rows, cols = spec.rows, spec.cols
    s, r = np.longdouble(float(spec.s)), np.longdouble(float(spec.r))
    climbed = np.zeros(cols, dtype=np.longdouble)  # minus the potential
    worst = np.longdouble(0)
    step = max(1, (1 << 16) // cols)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = currents[start:stop + 1].astype(np.longdouble)
        potential = climbed + np.cumsum(s * block[:-1], axis=0)
        climbed = potential[-1]
        horizontal = (potential[:, 1:] - potential[:, :-1]) / r
        imbalance = block[:-1] - block[1:]
        for node, amount in ((field.source, field.injected), (field.sink, -field.injected)):
            if start <= node.y - 1 < stop:
                imbalance[node.y - 1 - start, node.x - 1] += np.longdouble(amount)
        imbalance[:, 1:] += horizontal
        imbalance[:, :-1] -= horizontal
        worst = max(worst, np.abs(imbalance).max())
    hubs = currents[[0, -1]].astype(np.longdouble).sum(axis=1)
    top = climbed + s * currents[-1].astype(np.longdouble)
    return float(max(worst, *np.abs(hubs), np.abs(top - top[0]).max() / s))


def cosine_sum_identity(cols: int, ell: int, omega: float) -> tuple[float, float]:
    """Both sides of the cosine-sum identity that collapses the column modes.

    lhs averages cos(ell * theta_n) / (cosh(2*omega) - cos(theta_n)) over
    the 2N angles theta_n = pi*n/N; rhs is
    cosh(2*(N - ell)*omega) / (sinh(2*omega) * sinh(2*N*omega)). The two
    agree for integer 0 <= ell <= 2N.

    Near ell = N with N*omega large the sum cancels down by many orders
    (the true value is ~exp(-2*N*omega) of the summands), so the direct
    sum is taken in 60-digit arithmetic before rounding. The closed form is
    scaled by its largest exponentials: with a = 2*|N - ell|*omega, rhs =
    e^{a - 2*N*omega} * (1 + e^{-2a}) / (sinh(2*omega) * (1 - e^{-4*N*omega})),
    every exponent <= 0. The routes remain independent.
    """
    if cols < 1:
        raise LatticeError(f"need at least one column, got {cols}")
    if not 0 <= ell <= 2 * cols:
        raise LatticeError(f"offset {ell} outside 0..{2 * cols}")
    if omega <= 0.0:
        raise LatticeError("decay rate must be positive; zero is singular")
    with mp.workdps(60):
        cosh2 = mp.cosh(2 * mp.mpf(omega))
        total = mp.fsum(
            mp.cos(ell * mp.pi * n / cols) / (cosh2 - mp.cos(mp.pi * n / cols))
            for n in range(2 * cols)
        )
        lhs = float(total / (2 * cols))
    near = 2.0 * abs(cols - ell) * omega
    rhs = math.exp(near - 2.0 * cols * omega) * (1.0 + math.exp(-2.0 * near)) \
        / (math.sinh(2.0 * omega) * -math.expm1(-4.0 * cols * omega))
    return lhs, rhs


def _decay_reference(half: np.ndarray, length: int) -> np.ndarray:
    """e^{-2*length*h} over ascending rates, zero wherever 2*length*h >= _UNDERFLOW."""
    if 2 * length * half[-1] < _UNDERFLOW:
        return np.exp(-2.0 * length * half)
    out = np.zeros(half.shape)
    stop = half.searchsorted(_UNDERFLOW / (2 * length))
    np.exp(-2.0 * length * half[:stop], out=out[:stop])
    return out


def span_ratios_reference(coords: SpanCoords, half: np.ndarray):
    """The span-frame kernel with one exponential per length.

    Each decay is exact down to e^{-708} and zero below. The library's
    ``closed_form._span_ratios`` takes all five decays in one exponential
    clamped at e^{-700}: alpha and gamma agree bitwise, and beta wherever
    2*separation*h <= 700.
    """
    x_in, x_out, cols = coords.x_in, coords.x_out, coords.cols
    scale = 0.5 / (np.sinh(2.0 * half) * -np.expm1(-4.0 * cols * half))
    near_in = 1.0 + _decay_reference(half, 2 * x_in - 1)
    far_in = 1.0 + _decay_reference(half, 2 * cols - 2 * x_in + 1)
    near_out = 1.0 + _decay_reference(half, 2 * x_out - 1)
    far_out = 1.0 + _decay_reference(half, 2 * cols - 2 * x_out + 1)
    near_in *= scale
    near_out *= scale
    return (near_in * far_in,
            near_in * far_out * _decay_reference(half, coords.separation),
            near_out * far_out)


def long_double_folded(rows: int, ratio: float, start: int, stop: int) -> np.ndarray:
    """The folded weights g_j = f_j + f_{M-1-j} of entries start..stop-1 in
    ``np.longdouble``, f alone at the middle entry j = M-1-j of an odd M.

    f = 1/(2*sinh(2h)) as ``closed_form._free`` forms it, from the same
    double rates of ``_rates``, so it measures how the table keeps g, not
    how the rates round. On x86 the long double is the 80-bit format (eps
    1.1e-19); where it is binary64 (MSVC, arm64 macOS) this is only a
    second double-precision evaluation.
    """

    def free(lo, hi):
        return 0.5 / np.sinh(2 * _rates(rows, ratio, lo, hi).astype(np.longdouble))

    folded = free(start, stop) + free(rows - stop, rows - start)[::-1]
    if rows % 2 and start <= rows // 2 < stop:
        folded[rows // 2 - start] /= 2
    return folded


_LONG_PI = 4 * np.arctan(np.longdouble(1))


def _long_sines(modes: np.ndarray, height: int, denom: int) -> np.ndarray:
    """sin(pi*k*height/denom) in long double, from the exact residue of the turns
    2*k*height mod 4*denom folded to an angle in [-pi/2, pi/2]."""
    folded = np.abs((2 * modes * height + denom) % (4 * denom) - 2 * denom)
    return np.sin((denom - folded).astype(np.longdouble) * (_LONG_PI / (2 * denom)))


def long_double_closed(spec: HammockSpec, pairs) -> list:
    """closed's general form for each node pair, summed over every mode in
    ``np.longdouble``.

    The span-frame kernel, with one exponential per length and no live
    cut-off, against sine products of exactly reduced angles, in blocks of
    2**16 modes; pairs that share their columns share the kernel, and
    heights their sines. It reads closed's double rates from ``_rates``,
    so it measures how closed sums, not how the rates round. On x86 the
    long double is the 80-bit format (eps 1.1e-19); where it is binary64
    (MSVC, arm64 macOS) this is only a second double-precision sum.
    """
    rows, cols = spec.rows, spec.cols
    frames = [span_coords(spec, a, b) for a, b in pairs]
    columns = {(frame.x_in, frame.x_out, frame.separation) for frame in frames}
    heights = {y for frame in frames for y in (frame.y_in, frame.y_out)}
    table = _rates(rows, spec.ratio, 0, rows)
    totals = [np.longdouble(0)] * len(frames)
    for start in range(0, rows, 1 << 16):
        half = table[start:start + (1 << 16)].astype(np.longdouble)
        modes = np.arange(start + 1, start + 1 + half.size, dtype=np.int64)
        scale = 1 / (2 * np.sinh(2 * half) * -np.expm1(-4 * cols * half))

        def decay(length):
            # e^{-2*length*h}, zero where even the long double underflows
            exponent = -2 * length * half
            return np.exp(exponent, out=np.zeros_like(half), where=exponent > -12000)

        kernels = {}
        for x_in, x_out, apart in columns:
            near_in = scale * (1 + decay(2 * x_in - 1))
            near_out = scale * (1 + decay(2 * x_out - 1))
            far_in, far_out = 1 + decay(2 * (cols - x_in) + 1), 1 + decay(2 * (cols - x_out) + 1)
            kernels[x_in, x_out] = (near_in * far_in, near_in * far_out * decay(apart),
                                    near_out * far_out)
        sines = {y: _long_sines(modes, y, rows + 1) for y in heights}
        for n, frame in enumerate(frames):
            alpha, beta, gamma = kernels[frame.x_in, frame.x_out]
            s_in, s_out = sines[frame.y_in], sines[frame.y_out]
            totals[n] += (s_in * s_in * alpha - 2 * s_in * s_out * beta
                          + s_out * s_out * gamma).sum()
    cells = cols * (rows + 1)
    return [np.longdouble(spec.r) / (rows + 1) * 2 * total
            + np.longdouble(spec.s) * (frame.y_out - frame.y_in) ** 2 / cells
            for frame, total in zip(frames, totals)]


def long_double_spectral(spec: HammockSpec, pairs) -> list:
    """spectral's reduced resistance for each node pair, summed in ``np.longdouble``.

    K(a,a) + K(b,b) - 2*K(a,b) plus the hub term, each element the scaled
    reduced sum over every row mode, in blocks of 2**16 modes. It reads
    spectral's own double rates ``omegas`` and its rounded angles
    2*y*phi, and takes the sines, the exponentials and S in long double,
    so it measures how the route sums, not how its rates and angles
    round. On x86 the long double is the 80-bit format (eps 1.1e-19);
    where it is binary64 (MSVC, arm64 macOS) this is only a second
    double-precision sum.
    """
    rows, cols = spec.rows, spec.cols
    system = eigen_system(spec)
    frames = [span_coords(spec, a, b) for a, b in pairs]
    # (a, b) of the three elements of each pair: K(a,a), K(b,b), K(a,b)
    elements = [[(frame.node_in, frame.node_in), (frame.node_out, frame.node_out),
                 (frame.node_in, frame.node_out)] for frame in frames]
    heights = {node.y for frame in frames for node in (frame.node_in, frame.node_out)}
    lengths = {length for triple in elements for a, b in triple
               for length in (2 * a.x - 1, 2 * (cols - b.x) + 1, b.x - a.x)}
    norm = np.sqrt(np.longdouble(2) / (rows + 1))
    totals = [np.longdouble(0)] * len(frames)
    for start in range(0, rows, 1 << 16):
        block = slice(start, start + (1 << 16))
        omegas = system.omegas[block].astype(np.longdouble)
        scale = 1 / (2 * np.sinh(2 * omegas) * -np.expm1(-4 * cols * omegas))
        sines = {y: norm * np.sin((2.0 * y * system.phis[block]).astype(np.longdouble))
                 for y in heights}
        decays = {}
        for length in lengths:
            # e^{-2*length*omega}, zero where even the long double underflows
            exponent = -2 * length * omegas
            decays[length] = np.exp(exponent, out=np.zeros_like(omegas),
                                    where=exponent > -12000)
        for n, triple in enumerate(elements):
            k_aa, k_bb, k_ab = (
                (sines[a.y] * sines[b.y] * scale * (1 + decays[2 * a.x - 1])
                 * (1 + decays[2 * (cols - b.x) + 1]) * decays[b.x - a.x]).sum()
                for a, b in triple)
            totals[n] += k_aa + k_bb - 2 * k_ab
    return [np.longdouble(spec.r) * total
            + np.longdouble(spec.s) * (frame.y_out - frame.y_in) ** 2 / (cols * (rows + 1))
            for frame, total in zip(frames, totals)]


def inverse_minor_reference(spec: HammockSpec, a, b) -> float:
    """One reduced-form inverse-minor element, evaluated on its own.

    The scaled form with one exponential per length, row modes from
    ``MinorEigenSystem.row_mode``, summed per block of ``spectral._BLOCK``
    modes in the order of operations the one-pass route keeps.
    """
    a, b = sorted((GridNode(*a), GridNode(*b)))
    system = eigen_system(spec)
    total = 0.0
    for start in range(0, spec.rows, _BLOCK):
        block = slice(start, start + _BLOCK)
        omegas = system.omegas[block]

        def decay(length):
            return np.exp(np.maximum(-2.0 * length * omegas, -_CLAMP))

        ratio = (1.0 + decay(2 * a.x - 1)) * system.scale[block] \
            * (1.0 + decay(2 * spec.cols - 2 * b.x + 1)) * decay(b.x - a.x)
        weight = system.row_mode(a.y, block) * system.row_mode(b.y, block)
        total += float(weight @ ratio)
    return float(spec.r) * total


def spectral_reference(spec: HammockSpec, a, b) -> float:
    """Reduced spectral resistance from three separate element evaluations."""
    rise = GridNode(*b).y - GridNode(*a).y
    correction = float(spec.s) * (rise * rise / (spec.cols * (spec.rows + 1)))
    spread = (inverse_minor_reference(spec, a, a)
              + inverse_minor_reference(spec, b, b)
              - 2.0 * inverse_minor_reference(spec, a, b))
    return correction + spread


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


def unfolded_inverse(rows: int) -> np.ndarray:
    """The full (M+1) x (M+1) inverse mode transform, unfolded from the
    mode-major half table of ``mode_transform``.

    Link row j < ceil((M+1)/2) is column j of the table; link row M - j is
    the same column with its odd modes negated, as 0 - x so that a zero
    entry stays +0.0 like the full table's.
    """
    half = mode_transform(rows)
    n, h = half.shape
    mirror = half.copy()
    mirror[1::2] = 0.0 - half[1::2]
    return np.vstack((half.T, mirror.T[:n - h][::-1]))


def full_inverse(rows: int) -> np.ndarray:
    """The full inverse mode transform gathered entry by entry, with no fold.

    Entry [j, i] = (2/n)*cos(pi*(2j+1)*i/(2n)), n = M + 1, taken from one
    period of an exact-residue wave cos(pi*t/(2n)) = sin(2*pi*(t + n)/(4n))
    at t = (2j+1)*i mod 4n, and 1/n for i = 0.
    """
    n = rows + 1
    wave = (2.0 / n) * _sin_turns(np.arange(n, 5 * n), 4 * n)
    turns = np.multiply.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    inverse = wave[turns]
    inverse[:, 0] = 1.0 / n
    return inverse


def whole_array_currents(spec: HammockSpec, a, b, injected: float = 1.0) -> np.ndarray:
    """The currents of ``reconstruct_currents`` from the whole array of
    ``transformed_columns``, in the same product calls and folded sums."""
    coords = span_coords(spec, a, b)
    values, kept = transformed_columns(spec, coords, injected if coords.swapped else -injected)
    half = mode_transform(spec.rows)
    h = half.shape[1]
    currents = np.empty((spec.rows + 1, spec.cols))
    for first, stop in (call for *_, calls in _product_calls(kept) for call in calls):
        depth = 1 + int(kept[first:stop].max())
        even = half[0:depth:2].T @ values[0:depth:2, first:stop]
        odd = half[1:depth:2].T @ values[1:depth:2, first:stop]
        currents[:h, first:stop] = even + odd
        currents[h:, first:stop][::-1] = (even - odd)[:spec.rows + 1 - h]
    return currents


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
