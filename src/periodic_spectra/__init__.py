"""Band structures and two-sided total-bandwidth estimates on periodic graphs.

The library works on the finite quotient of a periodic graph: oriented edges
carry integer index vectors recording which lattice translate they cross.
From that data it assembles fiber operators (adjacency, Laplacians,
Schrodinger, transition), sweeps the quasimomentum torus for band structures,
counts closed walks to evaluate trace formulas combinatorially, and
reports certified lower/upper brackets for the total bandwidth.
"""

from .bands import (
    Band,
    BandTable,
    KGrid,
    band_structure,
    dispersion,
    flat_bands,
    power_band_structure,
    spectrum_components,
    spectrum_measure,
    total_bandwidth,
)
from .bounds import (
    BoundsReport,
    IndexLatticeReport,
    StructuralConstants,
    adjacency_bounds,
    bounds_for_kind,
    normalized_bounds,
    schrodinger_bounds,
    structural_constants,
    verify_index_lattice,
)
from .errors import (
    EngineMismatchError,
    GraphFormatError,
    HermiticityError,
    PeriodicGraphError,
    SearchCapExceeded,
)
from .graphs import (
    CycleRecord,
    FundamentalGraph,
    Gauge,
    OrientedEdge,
    betti_number,
    bridge_count,
    builtin_graph,
    build_graph,
    cycle_basis,
    gauge_transform,
    graph_to_dict,
    index_lattice_check,
    is_bipartite,
    load_graph,
    minimize_bridges,
    parse_graph,
    vertex_degrees,
)
from .laurent import LaurentMatrix, LaurentPoly
from .operators import OPERATOR_KINDS, fiber_eigenvalues_grid, symbolic_operator
from .walks import (
    CycleClassSummary,
    WalkClassCounts,
    classify,
    count_walks,
    normalized_walk_sums,
    trace_series,
    walk_classes,
    walk_sums_for_kind,
    weighted_walk_sums,
)

__version__ = "0.1.0"
