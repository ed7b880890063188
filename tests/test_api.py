"""The package's public names: adding or removing one is a deliberate change."""

import hammocknet

PUBLIC = [
    "CurrentField",
    "GridNode",
    "HammockSpec",
    "LatticeError",
    "MinorEigenSystem",
    "Node",
    "ResistanceResult",
    "SizeCapError",
    "SpanCoords",
    "Terminal",
    "UnsupportedNodeError",
    "as_node",
    "boundary_sums",
    "build_full_laplacian",
    "build_second_minor",
    "closed_form",
    "edge_indices",
    "eigen_system",
    "flat_index",
    "hyperbolic",
    "inverse_minor_element",
    "kirchhoff_residual",
    "lattice",
    "mode_transform",
    "mode_weights",
    "node_code",
    "node_index",
    "oracle",
    "parse_node",
    "potential_path_check",
    "reconstruct_currents",
    "recurrence",
    "require_interior",
    "resistance_dense",
    "resistance_eigen_full",
    "resistance_general",
    "resistance_matrix",
    "resistance_rt",
    "resistance_same_column",
    "resistance_same_row",
    "resistance_spectral",
    "solve_modes",
    "span_coords",
    "spectral",
    "transformed_columns",
]


def test_public_names_are_pinned():
    assert sorted(hammocknet.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(hammocknet, name), name
