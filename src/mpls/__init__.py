"""Weighted matroid parity by sliding local search.

Solver, exact baselines, and verifiable structural diagnostics for
weighted matroid k-parity and weighted k-matroid intersection.
"""

from .exact import (
    EXACT_BUDGET,
    ExactResult,
    SizeLimitExceeded,
    TraceMismatch,
    TraceRefuted,
    brute_force_intersection,
    brute_force_optimum,
    check_trace,
    verify_local_optimum,
)
from .exchange import (
    ConflictTrace,
    ExchangeCertificate,
    K4Witness,
    build_conflict_trace,
    find_rota_exchange,
    k4_non_composability_witness,
    near_marker_bound,
    near_marker_probability,
    refine_laminar,
    verify_conflict_trace,
    verify_k4_witness,
)
from .generators import (
    FAMILIES,
    GeneratorError,
    build_doc,
    generate,
)
from .instance import (
    InstanceError,
    ParityInstance,
    Solution,
    from_matroid_intersection,
    make_disjoint,
)
from .matroids import (
    FreeMatroid,
    GraphicMatroid,
    GroundSetError,
    LinearMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
)
from .serialization import (
    FormatError,
    InstanceDoc,
    format_fraction,
    instance_signature,
    load_instance_doc,
    parse_fraction,
)
from .solver import (
    BEST_GAIN,
    FIRST_LEX,
    DegenerateInstanceError,
    IntervalScheme,
    LadderBudgetError,
    SolverTrace,
    SwapMove,
    best_of_runs,
    compute_markers,
    greedy,
    scale_weights,
    sliding_local_search,
    sliding_runs,
    trace_from_json_obj,
    trace_to_json_obj,
)

__version__ = "0.1.0"
