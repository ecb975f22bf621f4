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
    RootMeasure,
    SpecError,
    SupportClass,
    Vector,
    candidate_support,
    decrement,
    degrees,
    exact_flow,
    increment,
    total,
    vector,
)
from .checker import (
    CheckReport,
    check_strong_connectivity,
    label_potentials,
    run_checks,
)
from .constructor import construct_measure, verify_reversibility
from .parametrizer import (
    InconsistentRatiosError,
    InvalidTemplateError,
    SupportTemplate,
    assemble_measure,
    family_dimension,
    validate_template,
)
from .norelabel import (
    DegreeDependentParametersError,
    NotMultinomialError,
    PlainSpec,
    construct_plain_measure,
    expand_plain_spec,
    extract_plain_spec,
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
)

# The simulator needs numpy; it is imported on first use of one of its
# names, so the exact pipeline never loads numpy (PEP 562).
_SIMULATOR_NAMES = frozenset({
    "FlowEstimate",
    "estimate_flow",
    "exact_transport",
    "inverse_degree_mass",
    "mass_transport_check",
})


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
