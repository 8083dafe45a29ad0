"""Structured Graver bases and multi-seeded augmentation for quadratic
integer programs with cardinality, semi-assignment and assignment constraints."""

from .graver import (
    Assignment,
    BrickCardinality,
    Cardinality,
    ConstraintKind,
    CoordinateCardinality,
    DimensionError,
    Explicit,
    GraverBasis,
    LiftingSampler,
    SparseIntVector,
    assignment_basis_count,
    build_basis,
    graver_assignment,
    graver_brick_cardinality,
    graver_coordinate_cardinality,
    graver_ones,
    hilbert_basis_cycles,
    load_basis,
    predicted_cardinality,
    realize_matrix,
    save_basis,
)
from .oracle import (
    BruteForceResult,
    ResourceBudgetError,
    brute_force_solve,
    enumerate_feasible,
    integer_kernel_basis,
    is_graver_minimal,
    pottier_graver,
)
from .problems import (
    InfeasibleError,
    QuadraticInstance,
    check_feasible,
    generate_instance,
    load_instance,
    objective,
    parse_instance,
    save_instance,
    serialize_instance,
)
from .seeds import initial_assignment, seeds_cbqp, seeds_qap, seeds_qsap1, seeds_qsap2
from .solver import (
    AugmentationResult,
    SolveReport,
    augment,
    classify_landscape,
    solve,
    verify_local_optimality,
)

__version__ = "0.1.0"
