"""Closed-form two-point resistance between interior hammock nodes.

The resistance decomposes over M + 1 transverse modes. The uniform mode
contributes the quadratic term s*(y2 - y1)^2 / (N*(M + 1)); every higher
mode contributes a ratio of hyperbolic products weighted by sine factors
of the two node heights. Each mode carries a decay rate: with
h = r/s and c_i = 2 + 2h*(1 - cos((i-1)*pi/(M+1))), the growth factor per
column pair is the larger root of g*g - c_i*g + 1 = 0, and the decay rate
is half its logarithm.

All hyperbolic ratios are evaluated in log space (see
:mod:`hammocknet.hyperbolic`), so lattices with 10^4..10^6 rows and
columns evaluate without overflow at O(M) cost per node pair. Functions
are pure; node pairs can be evaluated in parallel by callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hyperbolic import larger_root, log_cosh, log_sinh
from .lattice import (
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SpanCoords,
    require_interior,
    span_coords,
)


@dataclass(frozen=True)
class ModeParams:
    """Per-mode spectral quantities for modes 1..M+1.

    ``coeff`` is the three-term recurrence coefficient, ``root`` the larger
    quadratic root (>= 1, product of the two roots is 1) and ``half_log``
    half its natural log. Mode 1 is the degenerate uniform mode with
    coeff = 2, root = 1, half_log = 0.
    """

    mode: int
    coeff: float
    root: float
    half_log: float


def mode_params(spec: HammockSpec, mode: int) -> ModeParams:
    """Spectral parameters of one transverse mode (1 <= mode <= M+1)."""
    if not 1 <= mode <= spec.rows + 1:
        raise LatticeError(
            f"mode {mode} outside 1..{spec.rows + 1} for {spec.rows} rows"
        )
    coeff = 2.0 + 2.0 * spec.ratio * (
        1.0 - math.cos((mode - 1) * math.pi / (spec.rows + 1))
    )
    root = float(larger_root(coeff))
    return ModeParams(mode=mode, coeff=coeff, root=root,
                      half_log=0.5 * math.log(root))


@lru_cache(maxsize=64)
def _decay_table(rows: int, ratio: float) -> np.ndarray:
    """Half-log decay rates for modes 2..rows+1, cached per instance shape."""
    idx = np.arange(1, rows + 1, dtype=float)
    coeff = 2.0 + 2.0 * ratio * (1.0 - np.cos(idx * np.pi / (rows + 1)))
    table = 0.5 * np.log(larger_root(coeff))
    table.flags.writeable = False
    return table


def _sine_table(rows: int, height: int) -> np.ndarray:
    """sin((i-1)*pi*height/(M+1)) for modes i = 2..M+1."""
    idx = np.arange(1, rows + 1, dtype=float)
    return np.sin(idx * np.pi * height / (rows + 1))


@dataclass(frozen=True)
class CoefficientTriple:
    """Hyperbolic product coefficients of one mode, stored as logs.

    ``alpha`` weights the squared input-height sine, ``gamma`` the squared
    output-height sine and ``beta`` the cross term. The raw products
    overflow doubles on large lattices, so the logs are canonical; the
    plain properties are provided for desk-scale inspection.
    """

    log_alpha: float
    log_beta: float
    log_gamma: float

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha)

    @property
    def beta(self) -> float:
        return math.exp(self.log_beta)

    @property
    def gamma(self) -> float:
        return math.exp(self.log_gamma)


def _log_triple(coords: SpanCoords, half_log):
    """Log-domain alpha/beta/gamma for one or many decay rates."""
    left, right = coords.span_left, coords.span_right
    p, q = coords.p_offset, coords.q_offset
    near_in = log_cosh((2 * left - 2 * p + 1) * half_log)
    near_out = log_cosh((2 * left + 2 * q + 1) * half_log)
    far_in = log_cosh((2 * right + 2 * p + 1) * half_log)
    far_out = log_cosh((2 * right - 2 * q + 1) * half_log)
    return far_in + near_in, far_out + near_in, far_out + near_out


def coefficient_triple(spec: HammockSpec, coords: SpanCoords,
                       params: ModeParams) -> CoefficientTriple:
    """Mode coefficients for a node pair in its column-span frame.

    Equal input and output columns give alpha == beta == gamma; in the
    uniform-mode limit all three tend to one (their logs to zero).
    """
    if coords.cols != spec.cols:
        raise LatticeError(
            f"span frame covers {coords.cols} columns, spec has {spec.cols}"
        )
    log_alpha, log_beta, log_gamma = _log_triple(coords, params.half_log)
    return CoefficientTriple(float(log_alpha), float(log_beta), float(log_gamma))


def _span_ratios(spec: HammockSpec, coords: SpanCoords):
    """alpha, beta, gamma over sinh(2h) * sinh(2Nh) for modes 2..M+1.

    The span-frame kernel read by both the general form and the
    recurrence route's boundary values.
    """
    half = _decay_table(spec.rows, spec.ratio)
    log_alpha, log_beta, log_gamma = _log_triple(coords, half)
    log_den = log_sinh(2.0 * half) + log_sinh(2.0 * spec.cols * half)
    return (np.exp(log_alpha - log_den), np.exp(log_beta - log_den),
            np.exp(log_gamma - log_den))


def _mode_sum(spec: HammockSpec, coords: SpanCoords) -> float:
    """Hyperbolic mode sum shared by the general form."""
    alpha, beta, gamma = _span_ratios(spec, coords)
    sin_in = _sine_table(spec.rows, coords.y_in)
    sin_out = _sine_table(spec.rows, coords.y_out)
    terms = (sin_in * sin_in * alpha
             - 2.0 * sin_in * sin_out * beta
             + sin_out * sin_out * gamma)
    return float(terms.sum())


def _uniform_term(spec: HammockSpec, y1: int, y2: int) -> float:
    return float(spec.s) * (y2 - y1) ** 2 / (spec.cols * (spec.rows + 1))


def resistance_general(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Closed-form resistance between two interior nodes.

    Handles any pair, any aspect ratio and lattices up to millions of
    rows/columns; identical nodes give exactly zero. Hub terminals are
    rejected (the dense oracle covers them).
    """
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    coords = span_coords(spec, a, b)
    total = _mode_sum(spec, coords)
    value = (2.0 * float(spec.r) / (spec.rows + 1)) * total \
        + _uniform_term(spec, coords.y_in, coords.y_out)
    return ResistanceResult(value, "closed", {"swapped": coords.swapped})


def resistance_same_column(spec: HammockSpec, x: int, y1: int, y2: int) -> ResistanceResult:
    """Specialised form for two nodes in the same column.

    Equivalent to :func:`resistance_general` at equal columns, with the
    cross terms folded into one squared sine difference per mode.
    """
    require_interior(spec, (x, y1))
    require_interior(spec, (x, y2))
    if y1 == y2:
        return ResistanceResult(0.0, "closed", {"specialization": "same_column"})
    half = _decay_table(spec.rows, spec.ratio)
    log_coef = log_cosh((2 * x - 1) * half) \
        + log_cosh((2 * spec.cols - 2 * x + 1) * half)
    log_den = log_sinh(2.0 * half) + log_sinh(2.0 * spec.cols * half)
    sine_diff = _sine_table(spec.rows, y2) - _sine_table(spec.rows, y1)
    total = float((sine_diff * sine_diff * np.exp(log_coef - log_den)).sum())
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
    half = _decay_table(spec.rows, spec.ratio)
    log_num = log_sinh(distance * half) \
        + log_cosh((spec.cols - distance) * half)
    log_den = log_sinh(2.0 * half) + log_cosh(spec.cols * half)
    sines = _sine_table(spec.rows, y)
    total = float((sines * sines * np.exp(log_num - log_den)).sum())
    value = (4.0 * float(spec.r) / (spec.rows + 1)) * total
    return ResistanceResult(value, "closed", {"specialization": "same_row"})
