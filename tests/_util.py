"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np

from hammocknet import GridNode, HammockSpec, SpanCoords
from hammocknet.closed_form import _decay_table


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
    lam = np.exp(2.0 * _decay_table(rows, spec.ratio))
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
