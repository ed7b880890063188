"""Spectral evaluation through the hub-deleted Kirchhoff minor.

Deleting both hub rows/columns from the full Kirchhoff matrix leaves a
positive-definite minor that factors as a Kronecker sum of two chain
matrices: fixed-end (Dirichlet) across the rows, free-end across the
columns. Its eigensystem is therefore fully analytic, and the resistance
follows from four inverse-minor elements plus a boundary correction built
from two bottom-row sums.

The inverse-minor element comes in two forms: the plain double sum over
all (row mode, column mode) pairs, and a reduced single sum over row
modes obtained by eliminating the column modes with a cosine-sum
identity. Both are exposed; the reduced form is the fast path, the double
sum the reference contender for benchmarks. The eigensystem is generated
from the analytic formulas and holds only O(M + N) data: the mode angles,
the row-mode decay rates and the reduced form's log denominators. Row-mode
columns are evaluated per query, so a reduced pair needs O(M) work and
memory at any size. The dense eigenvector and eigenvalue matrices are
built on first access, for verification only, and are size-capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from mpmath import mp

from .hyperbolic import log_cosh, log_sinh
from .lattice import (
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SizeCapError,
    env_cap,
    require_interior,
)

DEFAULT_DENSE_CAP = 400
DENSE_CAP_ENV = "HAMMOCKNET_DENSE_VERIFY_CAP"

_FORMS = ("reduced", "double_sum")


def dense_cap() -> int:
    return env_cap(DENSE_CAP_ENV, DEFAULT_DENSE_CAP)


def _require_dense(spec: HammockSpec, what: str, cap: int | None = None) -> None:
    limit = dense_cap() if cap is None else cap
    if spec.interior_count > limit:
        raise SizeCapError(
            f"dense {what} for {spec.rows}x{spec.cols} has "
            f"{spec.interior_count} nodes, above the cap of {limit}"
        )


def _chain_fixed(n: int) -> np.ndarray:
    """Second-difference matrix of an n-node chain with both ends pinned."""
    matrix = 2.0 * np.eye(n)
    idx = np.arange(n - 1)
    matrix[idx, idx + 1] = -1.0
    matrix[idx + 1, idx] = -1.0
    return matrix


def _chain_free(n: int) -> np.ndarray:
    """Second-difference matrix of an n-node chain with open ends."""
    matrix = _chain_fixed(n)
    matrix[0, 0] -= 1.0
    matrix[-1, -1] -= 1.0
    return matrix


def build_second_minor(spec: HammockSpec, cap: int | None = None) -> np.ndarray:
    """Dense hub-deleted Kirchhoff minor, ordered by flat node index.

    Kronecker structure: (1/s) * fixed_chain(M) (x) I_N +
    (1/r) * I_M (x) free_chain(N). Interior row sums vanish; nodes in a
    boundary row keep one spoke conductance of 1/s per adjacent hub.
    Dense construction is for verification only, hence the size cap.
    """
    _require_dense(spec, "minor", cap)
    return (1.0 / float(spec.s)) * np.kron(_chain_fixed(spec.rows), np.eye(spec.cols)) \
        + (1.0 / float(spec.r)) * np.kron(np.eye(spec.rows), _chain_free(spec.cols))


@dataclass(frozen=True)
class MinorEigenSystem:
    """Analytic eigensystem of the hub-deleted minor, in O(M + N) memory.

    ``thetas[n]`` and ``phis[m]`` are the column and row mode angles;
    ``omegas[m]`` the per-row-mode decay rate defined by
    cosh(2*omega) = 1 + u, u = (r/s) * (1 - cos(2*phi)) = 2*(r/s)*sin(phi)^2,
    and evaluated as log1p(u + sqrt(u*(u + 2))) / 2: unlike 1 - cos and an
    arccosh near 1, that loses no digits in the slow modes. ``log_den[m]`` the
    pair-independent log denominator log sinh(2*omega) + log sinh(2*N*omega)
    of the reduced form. :meth:`row_mode` gives one row-mode column.

    The dense orthonormal chain eigenvectors ``col_modes[n, x-1]`` and
    ``row_modes[m, y-1]`` and the product-mode conductance eigenvalues
    ``eigenvalues[m, n]`` are built on first access, for checks only, and
    raise :class:`SizeCapError` above :func:`dense_cap` interior nodes.
    """

    spec: HammockSpec
    thetas: np.ndarray
    phis: np.ndarray
    omegas: np.ndarray
    log_den: np.ndarray

    def row_mode(self, y: int) -> np.ndarray:
        """Row-mode column ``row_modes[:, y-1]``: every row mode at row y."""
        return math.sqrt(2.0 / (self.spec.rows + 1)) * np.sin(2.0 * y * self.phis)

    @cached_property
    def col_modes(self) -> np.ndarray:
        _require_dense(self.spec, "col_modes")
        cols = self.spec.cols
        xs = np.arange(1, cols + 1, dtype=float)
        modes = math.sqrt(2.0 / cols) * np.cos((xs[None, :] - 0.5) * self.thetas[:, None])
        modes[0, :] = math.sqrt(1.0 / cols)
        return _frozen(modes)

    @cached_property
    def row_modes(self) -> np.ndarray:
        _require_dense(self.spec, "row_modes")
        return _frozen(np.stack([self.row_mode(y) for y in range(1, self.spec.rows + 1)],
                                axis=1))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        _require_dense(self.spec, "eigenvalues")
        spec = self.spec
        return _frozen((2.0 / float(spec.r)) * (1.0 - np.cos(self.thetas))[None, :]
                       + (2.0 / float(spec.s)) * (1.0 - np.cos(2.0 * self.phis))[:, None])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def eigen_system(spec: HammockSpec) -> MinorEigenSystem:
    """Build (and cache) the analytic eigensystem for one instance."""
    rows, cols = spec.rows, spec.cols
    thetas = np.pi * np.arange(cols) / cols
    phis = np.pi * (np.arange(rows) + 1.0) / (2.0 * rows + 2.0)
    u = 2.0 * spec.ratio * np.sin(phis) ** 2
    omegas = 0.5 * np.log1p(u + np.sqrt(u * (u + 2.0)))
    log_den = log_sinh(2.0 * omegas) + log_sinh(2.0 * cols * omegas)
    return MinorEigenSystem(spec=spec, thetas=_frozen(thetas), phis=_frozen(phis),
                            omegas=_frozen(omegas), log_den=_frozen(log_den))


def cosine_sum_identity(cols: int, ell: int, omega: float) -> tuple[float, float]:
    """Both sides of the cosine-sum identity that collapses the column modes.

    lhs averages cos(ell * theta_n) / (cosh(2*omega) - cos(theta_n)) over
    the 2N angles theta_n = pi*n/N; rhs is
    cosh(2*(N - ell)*omega) / (sinh(2*omega) * sinh(2*N*omega)). The two
    agree for integer 0 <= ell <= 2N.

    Near ell = N with N*omega large the sum cancels down by many orders
    (the true value is ~exp(-2*N*omega) of the summands), so the direct
    sum is taken in 60-digit arithmetic before rounding; the closed form
    stays in log-domain doubles. The routes remain independent.
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
    log_rhs = log_cosh(2.0 * (cols - ell) * omega) \
        - log_sinh(2.0 * omega) - log_sinh(2.0 * cols * omega)
    return lhs, float(np.exp(log_rhs))


def inverse_minor_element(spec: HammockSpec, a: NodeLike, b: NodeLike,
                          form: str = "reduced") -> float:
    """One element of the inverse minor, in inverse ohms.

    ``form="double_sum"`` evaluates the full (row mode, column mode) sum
    with the half-integer column cosines; ``form="reduced"`` evaluates the
    identity-collapsed single sum over row modes. Symmetric in (a, b).
    """
    if form not in _FORMS:
        raise LatticeError(f"unknown form {form!r}; expected one of {_FORMS}")
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    if (a.x, a.y) > (b.x, b.y):
        a, b = b, a
    system = eigen_system(spec)
    row_weight = system.row_mode(a.y) * system.row_mode(b.y)

    if form == "double_sum":
        cols = spec.cols
        angles = np.pi * np.arange(2 * cols) / cols
        w_a = np.cos((2 * a.x - 1) * angles / 2.0) / math.sqrt(cols)
        w_b = np.cos((2 * b.x - 1) * angles / 2.0) / math.sqrt(cols)
        eigenvalues = (2.0 / float(spec.r)) * (1.0 - np.cos(angles))[None, :] \
            + (2.0 / float(spec.s)) * (1.0 - np.cos(2.0 * system.phis))[:, None]
        inner = (w_a * w_b)[None, :] / eigenvalues
        return float(inner.sum(axis=1) @ row_weight)

    log_ratio = log_cosh((2 * spec.cols - 2 * b.x + 1) * system.omegas) \
        + log_cosh((2 * a.x - 1) * system.omegas) \
        - system.log_den
    return float(spec.r) * float(row_weight @ np.exp(log_ratio))


def boundary_sums(spec: HammockSpec, a: NodeLike, b: NodeLike) -> tuple[float, float]:
    """Closed forms of the two bottom-row sums of inverse-minor elements.

    The first sums every element between bottom-row nodes:
    N*M*s/(M+1). The second sums the bottom-row column against the input
    node minus the output node: (y_out - y_in)*s/(M+1). The numerically
    summed versions (via :func:`inverse_minor_element`) agree with these.
    """
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    s = float(spec.s)
    sigma1 = spec.cols * spec.rows * s / (spec.rows + 1)
    sigma2 = (b.y - a.y) * s / (spec.rows + 1)
    return sigma1, sigma2


def resistance_spectral(spec: HammockSpec, a: NodeLike, b: NodeLike,
                        form: str = "reduced") -> ResistanceResult:
    """Resistance from four inverse-minor elements plus the hub correction.

    The correction term restores the contribution of the deleted hubs:
    sigma2^2 / (N*s - sigma1) with the closed-form boundary sums. Agrees
    with the closed form and the recurrence solution on interior pairs.
    """
    a = require_interior(spec, a)
    b = require_interior(spec, b)
    sigma1, sigma2 = boundary_sums(spec, a, b)
    correction = sigma2 * sigma2 / (spec.cols * float(spec.s) - sigma1)
    spread = (inverse_minor_element(spec, a, a, form)
              + inverse_minor_element(spec, b, b, form)
              - 2.0 * inverse_minor_element(spec, a, b, form))
    return ResistanceResult(correction + spread, "spectral", {"form": form})
