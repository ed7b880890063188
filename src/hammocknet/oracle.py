"""Ground-truth resistance computations on the full hammock graph.

Everything here works on the complete (M*N + 2)-node Kirchhoff matrix, so
hub terminals are first-class citizens. The float and the exact matrix are
both stamped link by link from :func:`hammocknet.lattice.edge_indices`, the
one definition of the graph, and share nothing with the other routes.
Three independent evaluations are provided: a grounded linear solve in
floating point, the same solve in exact rational arithmetic (fraction-free
integer elimination and back substitution, so results are exact ratios
whenever r and s are rational), and the eigenpair sum over the full
matrix, decomposed once per instance. Dense cubic cost limits these to
a few thousand nodes; the closed-form engines cover everything larger.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .lattice import (
    HammockSpec,
    LatticeError,
    Node,
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


def _check_cap(spec: HammockSpec, arithmetic: str, cap: int | None = None) -> None:
    """Refuse ``spec`` above ``cap``, or the environment cap for ``arithmetic``."""
    if cap is None:
        cap = float_cap() if arithmetic == "float" else rational_cap()
    if spec.node_count > cap:
        raise SizeCapError(
            f"{spec.rows}x{spec.cols} hammock has {spec.node_count} nodes, "
            f"above the {arithmetic} cap of {cap}",
            spec.node_count, arithmetic, cap)


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


@lru_cache(maxsize=1)
def _laplacian(spec: HammockSpec) -> np.ndarray:
    """The read-only float matrix of the last instance built, stamped once.

    The float queries on one instance (its hub pairs on the solve and the
    eigenpair oracles, say) share it; at the float cap it holds about 50 MB.
    """
    dim = spec.node_count
    matrix = _stamp(spec, np.zeros((dim, dim)), lambda ohms: 1.0 / float(ohms))
    matrix.flags.writeable = False
    return matrix


def build_full_laplacian(spec: HammockSpec) -> np.ndarray:
    """The read-only full Kirchhoff matrix in floats, stamped link by link.

    Node order is :func:`hammocknet.lattice.node_index`: bottom hub first,
    interior nodes by flat index, top hub last. Row sums vanish and the
    rank is M*N + 1. Built from :func:`hammocknet.lattice.edge_indices`
    alone, so it is independent of the Kronecker minor that the spectral
    route builds.
    """
    _check_cap(spec, "float")
    return _laplacian(spec)


# ---------------------------------------------------------------------------
# exact rational path
# ---------------------------------------------------------------------------


def _rational_laplacian(spec: HammockSpec) -> List[List[Fraction]]:
    """Exact Kirchhoff matrix; Fraction() of int/float/Fraction is exact."""
    dim = spec.node_count
    return _stamp(spec, [[Fraction(0)] * dim for _ in range(dim)],
                  lambda ohms: 1 / Fraction(ohms))


def _bareiss_numerators(matrix: Sequence[Sequence[Rational]],
                        rhs_columns: Sequence[Sequence[Rational]]
                        ) -> Tuple[List[List[int]], int]:
    """Solve ``A x = b`` for several right-hand sides in integers alone.

    Returns ``(Y, D)`` with ``x_c[i] == Fraction(Y[i][c], D)``. Each row
    (with its rhs entries) is scaled to integers, then eliminated
    fraction-free (Bareiss): every intermediate division is exact, which
    keeps entry growth polynomial. D, the last pivot, is the determinant
    of the row-scaled matrix up to sign, so by Cramer's rule every
    y = D*x is an integer, and back substitution
    y_i = (D*b'_i - sum_j U_ij*y_j) / U_ii divides exactly as well.
    Entries must be ints or Fractions.
    """
    n = len(matrix)
    m = len(rhs_columns)
    aug: List[List[int]] = []
    for i in range(n):
        row = list(matrix[i]) + [column[i] for column in rhs_columns]
        scale = lcm(*(v.denominator for v in row)) if row else 1
        aug.append([v.numerator * (scale // v.denominator) for v in row])

    # A row left alone since step t holds its value then; Bareiss's
    # scaling by pivot/previous pivot telescopes, so after step k it is
    # that value times pivots[k] / pivots[t], exactly. Rows are brought
    # up to date only when a step touches them.
    pivots = [1]
    level = [0] * n

    def current(i: int, k: int) -> List[int]:
        if level[i] < k:
            num, den = pivots[k], pivots[level[i]]
            aug[i] = [x * num // den for x in aug[i]]
            level[i] = k
        return aug[i]

    for k in range(n):
        if aug[k][k] == 0:
            for i in range(k + 1, n):
                if aug[i][k] != 0:
                    aug[k], aug[i] = aug[i], aug[k]
                    level[k], level[i] = level[i], level[k]
                    break
            else:
                raise ArithmeticError("singular Kirchhoff system; graph should be connected")
        row_k = current(k, k)
        pivot, prev = row_k[k], pivots[k]
        for i in range(k + 1, n):
            if aug[i][k]:
                row_i = current(i, k)
                head = row_i[k]
                aug[i] = [(pivot * x - head * y) // prev for x, y in zip(row_i, row_k)]
                level[i] = k + 1
        pivots.append(pivot)
    det = pivots[-1]

    numerators: List[List[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        row = aug[i]
        acc = [det * v for v in row[n:]]
        for j in range(i + 1, n):
            u = row[j]
            if u:
                acc = [a - u * y for a, y in zip(acc, numerators[j])]
        diagonal = row[i]
        solved = []
        for a in acc:
            y, rest = divmod(a, diagonal)
            if rest:
                raise ArithmeticError("inexact back substitution; Bareiss invariant broken")
            solved.append(y)
        numerators[i] = solved
    return numerators, det


def _bareiss_solve(matrix: Sequence[Sequence[Rational]],
                   rhs_columns: Sequence[Sequence[Rational]]) -> List[List[Fraction]]:
    """Exact solutions of ``A x = b``, one list per right-hand side."""
    numerators, det = _bareiss_numerators(matrix, rhs_columns)
    return [[Fraction(row[c], det) for row in numerators] for c in range(len(rhs_columns))]


def _grounded_system_rational(spec: HammockSpec, ground: int) -> List[List[Fraction]]:
    lap = _rational_laplacian(spec)
    keep = [i for i in range(len(lap)) if i != ground]
    return [[lap[i][j] for j in keep] for i in keep]


def _green_numerators(spec: HammockSpec) -> Tuple[List[List[int]], int]:
    """``(Y, D)``: the top-hub-grounded inverse is exactly Y / D.

    Y is an integer matrix over every node but the top hub (the last
    index) and D one common denominator, so callers combine numerators
    in integers and divide once.
    """
    n = spec.node_count - 1
    reduced = _grounded_system_rational(spec, ground=n)
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    return _bareiss_numerators(reduced, identity)


# ---------------------------------------------------------------------------
# eigenpairs of the full matrix, decomposed once per instance
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _eigenpairs(spec: HammockSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(eigenvalues, vectors)`` of the full matrix.

    One entry serves the queries made on one instance in turn, such as
    its three hub pairs; at the float cap it holds about 50 MB.
    """
    pair = np.linalg.eigh(_laplacian(spec))
    for array in pair:
        array.flags.writeable = False
    return pair


# ---------------------------------------------------------------------------
# resistance queries
# ---------------------------------------------------------------------------


def _check_arithmetic(arithmetic: str) -> None:
    if arithmetic not in ("float", "rational"):
        raise LatticeError(f"unknown arithmetic {arithmetic!r}; use 'float' or 'rational'")


def _query_nodes(spec: HammockSpec, a: NodeLike, b: NodeLike) -> Tuple[Node, Node]:
    """Coerce both nodes; grid nodes must lie inside the instance."""
    a = as_node(a)
    b = as_node(b)
    for node in (a, b):
        if not isinstance(node, Terminal):
            require_interior(spec, node)
    return a, b


def resistance_dense(spec: HammockSpec, a: NodeLike, b: NodeLike,
                     arithmetic: str = "float",
                     cap: int | None = None) -> ResistanceResult:
    """Two-point resistance by grounded linear solve; accepts terminals.

    Node ``b`` is grounded (its row and column deleted), a unit current is
    injected at ``a`` and the resistance is the resulting potential there.
    ``arithmetic="rational"`` runs the whole solve in exact integers and
    reports the exact value in ``meta["exact"]``.
    """
    _check_arithmetic(arithmetic)
    a, b = _query_nodes(spec, a, b)
    method = f"oracle-{arithmetic}"
    if a == b:
        meta = {"exact": Fraction(0)} if arithmetic == "rational" else {}
        return ResistanceResult(0.0, method, meta)

    _check_cap(spec, arithmetic, cap)
    ia, ib = node_index(spec, a), node_index(spec, b)
    pos = ia if ia < ib else ia - 1  # a's index once b's row and column are gone
    if arithmetic == "float":
        keep = np.arange(spec.node_count) != ib
        reduced = _laplacian(spec)[np.ix_(keep, keep)]
        rhs = np.zeros(spec.node_count - 1)
        rhs[pos] = 1.0
        potentials = np.linalg.solve(reduced, rhs)
        return ResistanceResult(float(potentials[pos]), method, {"nodes": spec.node_count})

    reduced = _grounded_system_rational(spec, ground=ib)
    rhs = [0] * len(reduced)
    rhs[pos] = 1
    exact = _bareiss_solve(reduced, [rhs])[0][pos]
    return ResistanceResult(float(exact), method, {"exact": exact})


def resistance_eigen_full(spec: HammockSpec, a: NodeLike, b: NodeLike) -> ResistanceResult:
    """Resistance from the eigenpairs of the full Kirchhoff matrix.

    Sums |psi_i(a) - psi_i(b)|^2 / lambda_i over the numerically computed
    nonzero eigenpairs; the single zero mode of the connected graph is
    dropped. The eigenpairs are decomposed once per instance and cached.
    """
    _check_cap(spec, "float")
    a, b = _query_nodes(spec, a, b)
    if a == b:
        return ResistanceResult(0.0, "oracle-eigen", {})
    eigenvalues, vectors = _eigenpairs(spec)
    ia, ib = node_index(spec, a), node_index(spec, b)
    diffs = vectors[ia, 1:] - vectors[ib, 1:]  # eigh sorts; column 0 is the zero mode
    value = float(np.sum(diffs * diffs / eigenvalues[1:]))
    return ResistanceResult(value, "oracle-eigen", {"zero_mode": float(eigenvalues[0])})


def resistance_matrix(spec: HammockSpec, arithmetic: str = "float"):
    """All-pairs resistance table over every node, hubs included.

    One grounded factorisation serves every pair: with G the inverse of
    the top-hub-grounded matrix, R(a, b) = G[a,a] + G[b,b] - 2 G[a,b] and
    R(a, ground) = G[a,a]. Returns a dense (T, T) float array, or nested
    lists of Fractions for ``arithmetic="rational"``, each entry formed
    once from the integer numerators of G over their common denominator.
    """
    _check_arithmetic(arithmetic)
    _check_cap(spec, arithmetic)
    dim = spec.node_count
    n = dim - 1  # ground the top hub (last index)
    if arithmetic == "float":
        green = np.linalg.inv(_laplacian(spec)[:n, :n])
        diag = np.diag(green)
        table = np.zeros((dim, dim))
        table[:n, :n] = diag[:, None] + diag[None, :] - 2.0 * green
        table[:n, n] = diag
        table[n, :n] = diag
        return table

    numerators, det = _green_numerators(spec)
    table = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        row_i, y_i, y_ii = table[i], numerators[i], numerators[i][i]
        for j in range(i + 1, n):
            row_i[j] = table[j][i] = Fraction(y_ii + numerators[j][j] - 2 * y_i[j], det)
        row_i[n] = table[n][i] = Fraction(y_ii, det)
    return table
