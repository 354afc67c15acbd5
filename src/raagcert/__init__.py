"""Constructive R-infinity certificates for right-angled Artin groups.

A finite simple graph defines a right-angled Artin group whose generators are
the vertices and whose relations make two generators commute exactly when they
are joined by an edge.  This package decides, by constructive certificate,
whether that group has the R-infinity property (every automorphism has
infinitely many twisted conjugacy classes): complete graphs are the definite
negative case, and a tree of graph-theoretic and exact linear-algebraic rules
handles the rest, with UNDECIDED as an honest fallback verdict.
"""

from .certify import (
    NOT_RINF_ABELIAN,
    RINF,
    UNDECIDED,
    Certificate,
    SimplificationResult,
    audit_certificate,
    certify,
    simplify,
)
from .closures import (
    characteristic_closures,
    is_characteristic_vertex_set,
    is_transvection_free_graph,
    transvection_free_vertices,
)
from .errors import InputError, ResourceError
from .graphs import (
    Graph,
    MbaParameters,
    VertexSet,
    complement,
    complete_graph,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    dominates,
    edgeless_graph,
    from_edge_list,
    from_edges,
    from_graph6,
    induced,
    mba_parameters,
    path_graph,
    petersen_graph,
    to_edge_list,
    to_graph6,
)
from .isomorphism import (
    automorphisms,
    canonical_form,
    enumerate_graphs,
    vertex_orbits,
)
from .liering import (
    SignedAut,
    WitnessReport,
    eigenvalue_witness_report,
    has_eigenvalue_one,
    induced_matrix,
    l2_basis,
    signed_automorphisms,
)
from .lyndon import (
    BracketTree,
    TraceClass,
    bracketing,
    dependence_set,
    enumerate_lyndon,
    initial_vertices,
    is_lyndon,
    standard_factorization,
    support,
    trace_class,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
