"""Invariant Basis Number certificates for Cohn and Leavitt path algebras.

The package models finite directed graphs, their graph monoids, and the
companion constructions that turn questions about relative Cohn path
algebras into questions about Leavitt path algebras.  It decides IBN by
solving the weight system with K0's integer echelon and, when no
certificate exists, from the finite order k0 of [1] in K0: the least
witness rho ~ (1 + k0)*rho is built from the torsion relation, and is
reported whenever its traces fit the coefficient and depth bounds.  A
bounded confluence search over the pairs k0 allows remains only as the
fallback for rank-deficient relation rows.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    CohnIbnError,
    DanglingEdgeError,
    DuplicateNameError,
    EmptyGraphError,
    GraphError,
    GraphParseError,
    InternalInvariantViolation,
    LengthMismatchError,
    NotRegularError,
    OutOfRangeError,
    UnknownExampleError,
    ZeroElementError,
)
from .graphs import (
    Edge,
    Graph,
    VertexClassification,
    classify,
    graph_from,
    validate,
)
from .construct import (
    PRIME,
    CompanionGraph,
    cohn_companion,
    family,
    relative_companion,
)
from .rewriting import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    UNKNOWN,
    Closure,
    Construction,
    EquivalenceOutcome,
    LatticeSeparation,
    ReductionTrace,
    RewriteSystem,
    ScalarWitness,
    SearchBounds,
    as_vector,
    check_lattice_separation,
    cohn_presentation,
    construct_scalar_witness,
    decide_equivalent,
    find_scalar_witness,
    forward_closure,
    incidence,
    scale,
)
from .lattice import separating_functional, torsion_order
from .certificates import (
    WeightCertificate,
    gamma,
    parse_weights,
    serialize_weights,
    solve_exact,
    verify_certificate,
)
from .decision import (
    IBN_CERTIFIED,
    IBN_REFUTED,
    IBN_UNKNOWN,
    IMN_HOLDS,
    IMN_UNKNOWN,
    KIND_COHN,
    KIND_LEAVITT,
    KIND_RELATIVE,
    AlgebraSpec,
    Verdict,
    audit,
    decide_ibn,
    resolve_target,
)
from .graphio import (
    emit_graph_json,
    emit_graph_text,
    graph_as_dict,
    parse_graph,
    parse_graph_json,
    parse_graph_text,
)
from .fixtures import (
    describe_examples,
    example_names,
    f_line_graph,
    f_rose_two,
    line_graph,
    load_example,
    rose_two,
)

__all__ = [
    "__version__",
    # errors
    "CohnIbnError", "GraphError", "DuplicateNameError", "DanglingEdgeError",
    "EmptyGraphError", "NotRegularError", "OutOfRangeError",
    "LengthMismatchError", "ZeroElementError", "InternalInvariantViolation",
    "GraphParseError", "UnknownExampleError",
    # graphs
    "Edge", "Graph", "VertexClassification",
    "graph_from", "validate", "classify",
    # constructions
    "PRIME", "CompanionGraph", "cohn_companion", "relative_companion",
    "family",
    # rewriting
    "EQUIVALENT", "NOT_EQUIVALENT", "UNKNOWN",
    "RewriteSystem", "SearchBounds", "ReductionTrace", "Closure",
    "EquivalenceOutcome", "ScalarWitness", "Construction", "as_vector",
    "scale", "incidence", "cohn_presentation", "forward_closure",
    "decide_equivalent",
    "find_scalar_witness", "construct_scalar_witness",
    "LatticeSeparation", "check_lattice_separation",
    # lattice
    "torsion_order", "separating_functional",
    # certificates
    "WeightCertificate", "solve_exact", "gamma", "verify_certificate",
    "serialize_weights", "parse_weights",
    # decision
    "KIND_COHN", "KIND_RELATIVE", "KIND_LEAVITT",
    "IBN_CERTIFIED", "IBN_REFUTED", "IBN_UNKNOWN", "IMN_HOLDS", "IMN_UNKNOWN",
    "AlgebraSpec", "Verdict", "resolve_target", "decide_ibn", "audit",
    # io
    "parse_graph", "parse_graph_text", "parse_graph_json",
    "emit_graph_text", "emit_graph_json", "graph_as_dict",
    # fixtures
    "line_graph", "rose_two", "f_rose_two", "f_line_graph",
    "example_names", "describe_examples", "load_example",
]
