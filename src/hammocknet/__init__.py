"""Exact two-point resistance for M x N hammock resistor networks.

Four independent evaluation routes are provided: a closed-form mode sum
(:mod:`hammocknet.closed_form`), a spectral route through the hub-deleted
Kirchhoff minor (:mod:`hammocknet.spectral`), a column-current recurrence
solution that also reconstructs full current fields
(:mod:`hammocknet.recurrence`), and dense float/exact-rational oracles on
the full graph (:mod:`hammocknet.oracle`). The ``hammocknet`` CLI wraps
all of them.
"""

from .closed_form import (
    resistance_general,
    resistance_same_column,
    resistance_same_row,
)
from .lattice import (
    GridNode,
    HammockSpec,
    LatticeError,
    Node,
    ResistanceResult,
    SizeCapError,
    SpanCoords,
    Terminal,
    UnsupportedNodeError,
    as_node,
    edge_indices,
    flat_index,
    node_code,
    node_index,
    parse_node,
    require_interior,
    span_coords,
)
from .oracle import (
    build_full_laplacian,
    resistance_dense,
    resistance_eigen_full,
    resistance_matrix,
)
from .recurrence import (
    CurrentField,
    kirchhoff_residual,
    mode_transform,
    mode_weights,
    potential_path_check,
    reconstruct_currents,
    resistance_rt,
    solve_modes,
    transformed_columns,
)
from .spectral import (
    MinorEigenSystem,
    boundary_sums,
    build_second_minor,
    eigen_system,
    inverse_minor_element,
    resistance_spectral,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
