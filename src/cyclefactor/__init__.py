"""Exact counting and bijections for cycle factorizations of a long cycle.

The package enumerates factorizations of a d-cycle into cycles of prescribed
lengths, evaluates the closed-form counts (d^(r-2) and friends) exactly, and
carries each factorization through its support graph to a multi-noded rooted
tree and a 2xn codec matrix, with every step invertible.
"""

from .perm import (
    CircleOrder,
    Cycle,
    CycleType,
    NotMaximal,
    Permutation,
    compose,
    cycle_decomposition,
    cycle_type,
    format_permutation,
    index,
    is_clockwise_on,
    is_counterclockwise_on,
    parse_cycle,
    parse_permutation,
    product,
    pure_cycle_type,
    split_circle_product,
    standard_cycle,
)
from .factorization import (
    CapExceededError,
    Factorization,
    FactorizationType,
    HurwitzDatum,
    count_by_cycle_index,
    count_factorizations,
    enumerate_factorizations,
    factorization_from_json,
    factorization_to_json,
    formula_hurwitz_4point,
    formula_hurwitz_simple,
    hurwitz_count_bruteforce,
    pure_cycle_datum,
    standardize,
    validate,
)
from .graph import (
    Decomposition,
    FactorizationGraph,
    SVertexSet,
    collapse_transposition_graph,
    decompose_at_last,
    default_svertices,
    enumerate_degree_graphs,
    factorization_of,
    graph_from_json,
    graph_of,
    graph_to_dot,
    graph_to_json,
    has_cicpp,
    has_cpp,
    is_factorization_graph,
)
from .trees import (
    LabeledMNR,
    MultiNodedRootedTree,
    PruferMatrix,
    RootedTree,
    TrivialTreeError,
    enumerate_mnr,
    labeled_mnr_from_json,
    labeled_mnr_to_json,
    matrix_from_json,
    matrix_to_json,
    mnr_cardinality,
    mnr_decode,
    mnr_encode,
    mnr_from_json,
    mnr_to_dot,
    mnr_to_json,
    prufer_decode,
    prufer_encode,
    tree_from_json,
    tree_to_json,
)
from .bijection import (
    LabelRanges,
    phi,
    phi_labeled,
    psi,
    standardize_graph,
    unique_labeling,
)

__version__ = "0.1.0"
