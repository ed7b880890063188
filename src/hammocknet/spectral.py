"""Spectral evaluation through the hub-deleted Kirchhoff minor.

Deleting both hub rows/columns from the full Kirchhoff matrix leaves a
positive-definite minor that factors as a Kronecker sum of two chain
matrices: fixed-end (Dirichlet) across the rows, free-end across the
columns. Its eigensystem is therefore fully analytic, and the resistance
follows from four inverse-minor elements plus one term that puts the
hubs back.

An element comes in two forms: the double sum over every eigenpair, read
from the dense, size-capped matrices, and the fast reduced sum over row
modes, where a cosine-sum identity eliminates the column modes. The
eigensystem holds O(M + N) data, so a reduced pair needs O(M) work, in
blocks of modes with O(_BLOCK) temporaries, at any size. A reduced
resistance is within 4 eps of the same sum taken exactly over the route's
own rates and angles (tested in long double at 10^5 and 10^6 rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .closed_form import _BLOCK, _CLAMP
from .lattice import (
    HammockSpec,
    LatticeError,
    NodeLike,
    ResistanceResult,
    SizeCapError,
    env_cap,
    require_interior,
    span_coords,
)
from .oracle import build_full_laplacian

DEFAULT_DENSE_CAP = 400
DENSE_CAP_ENV = "HAMMOCKNET_DENSE_VERIFY_CAP"


def dense_cap() -> int:
    return env_cap(DENSE_CAP_ENV, DEFAULT_DENSE_CAP)


def _require_dense(spec: HammockSpec, what: str) -> None:
    limit = dense_cap()
    if spec.interior_count > limit:
        raise SizeCapError(
            f"dense {what} for {spec.rows}x{spec.cols} has "
            f"{spec.interior_count} nodes, above the cap of {limit}",
            spec.interior_count, what, limit)


def build_second_minor(spec: HammockSpec) -> np.ndarray:
    """Dense hub-deleted Kirchhoff minor, ordered by flat node index.

    The full matrix of :func:`hammocknet.oracle.build_full_laplacian`,
    stamped from :func:`hammocknet.lattice.edge_indices`, with both hub
    rows and columns deleted; a writable copy. The analytic eigensystem
    assumes it equals (1/s) * fixed_chain(M) (x) I_N +
    (1/r) * I_M (x) free_chain(N), and the tests check that it does.
    Dense construction is for verification only, hence the size cap.
    """
    _require_dense(spec, "minor")
    return build_full_laplacian(spec)[1:-1, 1:-1].copy()


@dataclass(frozen=True)
class MinorEigenSystem:
    """Analytic eigensystem of the hub-deleted minor, in O(M + N) memory.

    ``thetas[n]`` and ``phis[m]`` are the column and row mode angles;
    ``omegas[m]`` the per-row-mode decay rate defined by
    cosh(2*omega) = 1 + u, u = (r/s) * (1 - cos(2*phi)) = 2*(r/s)*sin(phi)^2,
    and evaluated as log1p(u + sqrt(u*(u + 2))) / 2: unlike 1 - cos and an
    arccosh near 1, that loses no digits in the slow modes (past u ~ 1.3e154,
    where u*(u + 2) overflows, the root is sqrt(u)*sqrt(u + 2)). ``scale[m]`` is
    the reduced form's S = 1/(2*sinh(2*omega)*(1 - e^{-4*N*omega})), from ``expm1``.
    :meth:`row_mode` gives one row-mode column.

    The dense orthonormal chain eigenvectors ``col_modes[n, x-1]`` and
    ``row_modes[m, y-1]`` and the product-mode conductance eigenvalues
    ``eigenvalues[m, n]`` are built on first access, for the double sum and
    checks, and raise :class:`SizeCapError` above :func:`dense_cap` nodes.
    """

    spec: HammockSpec
    thetas: np.ndarray
    phis: np.ndarray
    omegas: np.ndarray
    scale: np.ndarray

    def row_mode(self, y, block: slice = slice(None)) -> np.ndarray:
        """Row-mode column ``row_modes[block, y-1]``; rows y shaped (k, 1) give k columns."""
        modes = 2.0 * y * self.phis[block]
        np.sin(modes, out=modes)
        modes *= math.sqrt(2.0 / (self.spec.rows + 1))
        return modes

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
        return _frozen(self.row_mode(np.arange(1, self.spec.rows + 1)[:, None]).T)

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
    with np.errstate(over="ignore"):
        root = np.sqrt(u * (u + 2.0))
    wide = np.isinf(root)
    root[wide] = np.sqrt(u[wide]) * np.sqrt(u[wide] + 2.0)
    omegas = 0.5 * np.log1p(u + root)
    scale = 0.5 / (np.sinh(2.0 * omegas) * -np.expm1(-4.0 * cols * omegas))
    return MinorEigenSystem(spec=spec, thetas=_frozen(thetas), phis=_frozen(phis),
                            omegas=_frozen(omegas), scale=_frozen(scale))


def _reduced_elements(spec: HammockSpec, nodes: list, pairs) -> list[float]:
    """Reduced-form K(nodes[i], nodes[j]), nodes[i] <= nodes[j], for each (i, j) in pairs.

    r times the sum over row modes of row_i * row_j * cosh(n*omega) * cosh(f*omega)
    / (sinh(2*omega) * sinh(2*N*omega)), n = 2*x_i - 1 and f = 2*N - 2*x_j + 1 the
    near and far lengths; as n + f = 2*N - 2*d, d = x_j - x_i, each ratio is
    (1 + e^{-2*n*omega}) * (1 + e^{-2*f*omega}) * e^{-2*d*omega} * S, every exponent
    <= 0. Per block of modes, one exponential (clamped at e^{-700}) takes every length.
    """
    system = eigen_system(spec)
    spans = [(2 * nodes[i].x - 1, 2 * spec.cols - 2 * nodes[j].x + 1, nodes[j].x - nodes[i].x)
             for i, j in pairs]
    near, far, gaps = (sorted(set(kind)) for kind in zip(*spans))
    # each pair's near, far and gap rows of the exponential table
    takes = [(near.index(n), len(near) + far.index(f), len(near) + len(far) + gaps.index(d))
             for n, f, d in spans]
    totals = [0.0] * len(pairs)
    for start in range(0, spec.rows, _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = system.row_mode(np.array([node.y for node in nodes])[:, None], block)
        exponents = np.multiply.outer(-2.0 * np.array(near + far + gaps), system.omegas[block])
        decays = np.exp(np.maximum(exponents, -_CLAMP, out=exponents), out=exponents)
        decays[:len(near) + len(far)] += 1.0  # near and far: 1 + e^{-2*length*omega}
        decays[:len(near)] *= system.scale[block]
        for p, ((i, j), (n, f, d)) in enumerate(zip(pairs, takes)):
            totals[p] += float((rows[i] * rows[j]) @ (decays[n] * decays[f] * decays[d]))
    return [float(spec.r) * total for total in totals]


def _double_sum_elements(spec: HammockSpec, nodes: list, pairs) -> list[float]:
    """Double-sum K(nodes[i], nodes[j]) for each (i, j) in pairs, size-capped.

    The sum over every eigenpair (m, n) of row_modes[m, y_i-1] * row_modes[m, y_j-1]
    * col_modes[n, x_i-1] * col_modes[n, x_j-1] / eigenvalues[m, n].
    """
    _require_dense(spec, "double-sum")
    system = eigen_system(spec)
    rows = system.row_modes[:, [node.y - 1 for node in nodes]]
    cols = system.col_modes[:, [node.x - 1 for node in nodes]]
    return [float((np.outer(rows[:, i] * rows[:, j], cols[:, i] * cols[:, j])
                   / system.eigenvalues).sum()) for i, j in pairs]


_FORMS = {"reduced": _reduced_elements, "double_sum": _double_sum_elements}


def _prepare(spec: HammockSpec, a: NodeLike, b: NodeLike, form: str):
    """The element function of ``form`` and both nodes, checked and ordered
    (lesser (x, y) first) by :func:`hammocknet.lattice.span_coords`."""
    elements = _FORMS.get(form)
    if elements is None:
        raise LatticeError(f"unknown form {form!r}; expected one of {tuple(_FORMS)}")
    coords = span_coords(spec, a, b)
    return elements, [coords.node_in, coords.node_out]


def inverse_minor_element(spec: HammockSpec, a: NodeLike, b: NodeLike,
                          form: str = "reduced") -> float:
    """One element of the inverse minor, in inverse ohms.

    ``form="double_sum"`` sums over every eigenpair and, like the dense
    matrices it reads, raises :class:`SizeCapError` above :func:`dense_cap`
    interior nodes; ``form="reduced"`` is the single sum over row modes.
    Symmetric in (a, b).
    """
    elements, nodes = _prepare(spec, a, b, form)
    return elements(spec, nodes, ((0, 1),))[0]


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
    """Resistance from four inverse-minor elements plus the hub term.

    K(a,a), K(b,b) and K(a,b) come from one call. The hub term
    sigma2^2 / (N*s - sigma1) of the :func:`boundary_sums` puts the hubs back.
    It is exactly s*(y_b - y_a)^2 / (N*(M+1)), which is evaluated as s times
    one correctly rounded integer ratio: no cancelling difference, no square.
    """
    elements, (a, b) = _prepare(spec, a, b, form)
    k_aa, k_bb, k_ab = elements(spec, [a, b], ((0, 0), (1, 1), (0, 1)))
    hub = float(spec.s) * ((b.y - a.y) ** 2 / (spec.cols * (spec.rows + 1)))
    return ResistanceResult(hub + (k_aa + k_bb - 2.0 * k_ab), "spectral", {"form": form})
