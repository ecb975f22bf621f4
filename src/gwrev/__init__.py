"""Reversible root measures for simple random walk on multi-type
Galton-Watson trees, in exact rational arithmetic.

The package decides when a family of conditional offspring laws admits a
reversible measure, constructs that measure, parametrizes all measures with
a prescribed support, handles the no-relabeling (plain) regime, lifts finite
graphs to deterministic instances, and validates everything by seeded Monte
Carlo against exact reference values.
"""

from .core import (
    ChecksFailedError,
    CoordinateUnderflowError,
    Dist,
    GWSpec,
    GwrevError,
    InvalidDistributionError,
    PAIR,
    PLAIN,
    Rat,
    RootMeasure,
    SpecError,
    SupportClass,
    Vector,
    active_labels,
    candidate_support,
    decrement,
    degrees,
    increment,
    swap,
    total,
    vector,
)
from .checker import (
    BalanceGraph,
    CheckReport,
    build_balance_graph,
    check_condition_i,
    check_condition_ii,
    check_strong_connectivity,
    cycle_product,
    label_potentials,
    propagate_potentials,
    run_checks,
    solve_potentials,
)
from .constructor import construct_measure, verify_reversibility
from .parametrizer import (
    InconsistentRatiosError,
    InvalidTemplateError,
    SupportTemplate,
    assemble_measure,
    family_dimension,
    solve_offspring,
    solve_root_weights,
    template_of_measure,
    validate_template,
)
from .norelabel import (
    AsymmetricAdjacencyError,
    DegreeDependentParametersError,
    NotMultinomialError,
    PlainSpec,
    check_plain_cycles,
    check_plain_spec,
    construct_plain_measure,
    expand_plain_spec,
    extract_plain_spec,
    multinomial_dist,
    multinomial_pmf,
    run_plain_checks,
)
from .covers import (
    FiniteGraph,
    GraphTooLargeError,
    IllDefinedLabelingError,
    label_vertices,
    lift_measure,
    load_graph,
    pair_digraph,
    rooted_isomorphic,
)
from .simulator import (
    FlowEstimate,
    LabeledTree,
    TreeNode,
    class_at,
    estimate_flow,
    exact_flow,
    exact_transport,
    inverse_degree_mass,
    mass_transport_check,
    root_class,
    sample_tree,
    walk,
)

__version__ = "0.1.0"
