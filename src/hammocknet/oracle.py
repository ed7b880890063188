"""Ground-truth resistance computations on the full hammock graph.

Everything here works on the complete (M*N + 2)-node Kirchhoff matrix, so
hub terminals are first-class citizens. The float and the exact matrix are
both stamped link by link from :func:`hammocknet.lattice.edge_indices`, the
one definition of the graph, and share nothing with the other routes.
Three independent evaluations are provided: a grounded linear solve in
floating point, the same solve in exact rational arithmetic (fraction-free
integer elimination, so results are exact ratios whenever r and s are
rational), and the eigenpair sum over the full matrix. Dense cubic cost
limits these to a few thousand nodes; the closed-form engines cover
everything larger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, List, Sequence

import numpy as np

from .lattice import (
    HammockSpec,
    NodeLike,
    ResistanceResult,
    SizeCapError,
    Terminal,
    as_node,
    edge_indices,
    env_cap,
    node_index,
    require_interior,
)

DEFAULT_FLOAT_CAP = 2500
DEFAULT_RATIONAL_CAP = 400

FLOAT_CAP_ENV = "HAMMOCKNET_FLOAT_CAP"
RATIONAL_CAP_ENV = "HAMMOCKNET_RATIONAL_CAP"


def float_cap() -> int:
    return env_cap(FLOAT_CAP_ENV, DEFAULT_FLOAT_CAP)


def rational_cap() -> int:
    return env_cap(RATIONAL_CAP_ENV, DEFAULT_RATIONAL_CAP)


def _check_cap(spec: HammockSpec, cap: int | None, default: int, label: str) -> None:
    limit = default if cap is None else cap
    if spec.node_count > limit:
        raise SizeCapError(
            f"{spec.rows}x{spec.cols} hammock has {spec.node_count} nodes, "
            f"above the {label} cap of {limit}"
        )


def _stamp(spec: HammockSpec, lap, conductance: Callable):
    """Add every link's ``conductance(ohms)`` into ``lap[i][j]``; return ``lap``."""
    for i, j, ohms in edge_indices(spec):
        g = conductance(ohms)
        row_i, row_j = lap[i], lap[j]
        row_i[i] += g
        row_j[j] += g
        row_i[j] -= g
        row_j[i] -= g
    return lap


@dataclass(frozen=True)
class FullLaplacian:
    """Conductance matrix of the whole graph, hubs included.

    Node order: bottom hub first, interior nodes by flat index, top hub
    last. Row sums vanish and the rank is M*N + 1 (one zero mode for the
    connected graph).
    """

    spec: HammockSpec
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def index(self, node: NodeLike) -> int:
        return node_index(self.spec, node)


def build_full_laplacian(spec: HammockSpec, cap: int | None = None) -> FullLaplacian:
    """Assemble the full Kirchhoff matrix in floats, one link at a time.

    Built from :func:`hammocknet.lattice.edge_indices` alone, so it is
    independent of the Kronecker minor that the spectral route builds.
    """
    _check_cap(spec, cap, float_cap(), "float")
    dim = spec.node_count
    matrix = _stamp(spec, np.zeros((dim, dim)), lambda ohms: 1.0 / float(ohms))
    matrix.flags.writeable = False
    return FullLaplacian(spec=spec, matrix=matrix)


# ---------------------------------------------------------------------------
# exact rational path
# ---------------------------------------------------------------------------


def _rational_laplacian(spec: HammockSpec) -> List[List[Fraction]]:
    """Exact Kirchhoff matrix; Fraction() of int/float/Fraction is exact."""
    dim = spec.node_count
    return _stamp(spec, [[Fraction(0)] * dim for _ in range(dim)],
                  lambda ohms: 1 / Fraction(ohms))


def _bareiss_solve(matrix: Sequence[Sequence[Fraction]],
                   rhs_columns: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Solve ``A x = b`` for several right-hand sides, exactly.

    Each row (with its rhs entries) is scaled to integers, then eliminated
    fraction-free: every intermediate division is exact integer division,
    which keeps entry growth polynomial instead of exponential.
    """
    n = len(matrix)
    m = len(rhs_columns)
    aug: List[List[int]] = []
    for i in range(n):
        row = list(matrix[i]) + [rhs_columns[j][i] for j in range(m)]
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row)) if row else 1
        aug.append([int(v * scale) for v in row])

    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            for i in range(k + 1, n):
                if aug[i][k] != 0:
                    aug[k], aug[i] = aug[i], aug[k]
                    break
            else:
                raise ArithmeticError("singular Kirchhoff system; graph should be connected")
        pivot = aug[k][k]
        for i in range(k + 1, n):
            head = aug[i][k]
            row_i, row_k = aug[i], aug[k]
            for j in range(k + 1, n + m):
                row_i[j] = (pivot * row_i[j] - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot

    solutions: List[List[Fraction]] = [[Fraction(0)] * n for _ in range(m)]
    for col in range(m):
        sol = solutions[col]
        for i in range(n - 1, -1, -1):
            acc = Fraction(aug[i][n + col])
            for j in range(i + 1, n):
                acc -= aug[i][j] * sol[j]
            sol[i] = acc / aug[i][i]
    return solutions


def _grounded_system_rational(spec: HammockSpec, ground: int) -> List[List[Fraction]]:
    lap = _rational_laplacian(spec)
    keep = [i for i in range(len(lap)) if i != ground]
    return [[lap[i][j] for j in keep] for i in keep]


# ---------------------------------------------------------------------------
# resistance queries
# ---------------------------------------------------------------------------


def resistance_dense(spec: HammockSpec, a: NodeLike, b: NodeLike,
                     arithmetic: str = "float",
                     cap: int | None = None) -> ResistanceResult:
    """Two-point resistance by grounded linear solve; accepts terminals.

    Node ``b`` is grounded (its row and column deleted), a unit current is
    injected at ``a`` and the resistance is the resulting potential there.
    ``arithmetic="rational"`` runs the whole solve in exact fractions and
    reports the exact value in ``meta["exact"]``.
    """
    if arithmetic not in ("float", "rational"):
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    a = as_node(a)
    b = as_node(b)
    for node in (a, b):
        if not isinstance(node, Terminal):
            require_interior(spec, node)
    method = f"oracle-{arithmetic}"
    if a == b:
        meta = {"exact": Fraction(0)} if arithmetic == "rational" else {}
        return ResistanceResult(0.0, method, meta)

    if arithmetic == "float":
        _check_cap(spec, cap, float_cap(), "float")
        full = build_full_laplacian(spec, cap=spec.node_count)
        ia, ib = full.index(a), full.index(b)
        keep = [i for i in range(full.dimension) if i != ib]
        reduced = full.matrix[np.ix_(keep, keep)]
        rhs = np.zeros(len(keep))
        rhs[keep.index(ia)] = 1.0
        potentials = np.linalg.solve(reduced, rhs)
        value = float(potentials[keep.index(ia)])
        return ResistanceResult(value, method, {"nodes": full.dimension})

    _check_cap(spec, cap, rational_cap(), "rational")
    ia, ib = node_index(spec, a), node_index(spec, b)
    reduced = _grounded_system_rational(spec, ground=ib)
    pos = ia if ia < ib else ia - 1
    rhs = [Fraction(0)] * len(reduced)
    rhs[pos] = Fraction(1)
    solution = _bareiss_solve(reduced, [rhs])[0]
    exact = solution[pos]
    return ResistanceResult(float(exact), method, {"exact": exact})


def resistance_eigen_full(spec: HammockSpec, a: NodeLike, b: NodeLike,
                          cap: int | None = None) -> ResistanceResult:
    """Resistance from the eigenpairs of the full Kirchhoff matrix.

    Sums |psi_i(a) - psi_i(b)|^2 / lambda_i over the numerically computed
    nonzero eigenpairs; the single zero mode of the connected graph is
    dropped.
    """
    _check_cap(spec, cap, float_cap(), "float")
    full = build_full_laplacian(spec, cap=spec.node_count)
    a = as_node(a)
    b = as_node(b)
    if a == b:
        return ResistanceResult(0.0, "oracle-eigen", {})
    eigenvalues, vectors = np.linalg.eigh(full.matrix)
    ia, ib = full.index(a), full.index(b)
    diffs = vectors[ia, 1:] - vectors[ib, 1:]  # eigh sorts; column 0 is the zero mode
    value = float(np.sum(diffs * diffs / eigenvalues[1:]))
    return ResistanceResult(value, "oracle-eigen", {"zero_mode": float(eigenvalues[0])})


def resistance_matrix(spec: HammockSpec, arithmetic: str = "float",
                      cap: int | None = None):
    """All-pairs resistance table over every node, hubs included.

    One grounded factorisation serves every pair: with G the inverse of
    the top-hub-grounded matrix, R(a, b) = G[a,a] + G[b,b] - 2 G[a,b] and
    R(a, ground) = G[a,a]. Returns a dense (T, T) float array, or nested
    lists of Fractions for ``arithmetic="rational"``.
    """
    if arithmetic not in ("float", "rational"):
        raise ValueError(f"unknown arithmetic {arithmetic!r}")
    dim = spec.node_count
    n = dim - 1  # ground the top hub (last index)
    if arithmetic == "float":
        _check_cap(spec, cap, float_cap(), "float")
        full = build_full_laplacian(spec, cap=dim)
        green = np.linalg.inv(full.matrix[:n, :n])
        diag = np.diag(green)
        table = np.zeros((dim, dim))
        table[:n, :n] = diag[:, None] + diag[None, :] - 2.0 * green
        table[:n, n] = diag
        table[n, :n] = diag
        return table

    _check_cap(spec, cap, rational_cap(), "rational")
    reduced = _grounded_system_rational(spec, ground=n)
    identity = [[Fraction(1) if i == j else Fraction(0) for i in range(n)]
                for j in range(n)]
    columns = _bareiss_solve(reduced, identity)
    green_exact = [[columns[j][i] for j in range(n)] for i in range(n)]
    table_exact = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            table_exact[i][j] = (green_exact[i][i] + green_exact[j][j]
                                 - 2 * green_exact[i][j])
        table_exact[i][n] = green_exact[i][i]
        table_exact[n][i] = green_exact[i][i]
    return table_exact


def kirchhoff_index(spec: HammockSpec, arithmetic: str = "float",
                    cap: int | None = None):
    """Sum of resistances over all unordered node pairs, hubs included."""
    table = resistance_matrix(spec, arithmetic=arithmetic, cap=cap)
    dim = spec.node_count
    if arithmetic == "float":
        return float(np.triu(table, k=1).sum())
    total = Fraction(0)
    for i in range(dim):
        for j in range(i + 1, dim):
            total += table[i][j]
    return total
