"""Exact combinatorics of genus-zero moduli strata, gluing-parameter
cones, formal CohFT calculus and toric quantum-Kirwan counts."""

from .graphs import (
    Color,
    Kind,
    MarkedGraph,
    canonical_key,
    colored_tree,
    is_isomorphic,
    is_stable,
    modular_graph,
    rooted_colored_tree,
    rooted_forest,
    validate,
)
from .cones import ConeData, RelationLattice, classify_cone, cone_rays, relation_lattice
from .kirwan import (
    KirwanRelation,
    SectorElement,
    TorusAction,
    kirwan_count,
    qh_presentation,
    sector,
)
from .series import Series, SeriesRing
from .strata import (
    FM,
    M0,
    MULT,
    SCALED,
    BoundaryDivisor,
    SpaceKind,
    boundary_divisors,
    closure_poset,
    enumerate_strata,
    iter_strata,
    stratum_codimension,
    stratum_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "Color",
    "Kind",
    "MarkedGraph",
    "canonical_key",
    "colored_tree",
    "is_isomorphic",
    "is_stable",
    "modular_graph",
    "rooted_colored_tree",
    "rooted_forest",
    "validate",
    "FM",
    "M0",
    "MULT",
    "SCALED",
    "BoundaryDivisor",
    "SpaceKind",
    "boundary_divisors",
    "closure_poset",
    "enumerate_strata",
    "iter_strata",
    "stratum_codimension",
    "stratum_dimension",
    "ConeData",
    "RelationLattice",
    "classify_cone",
    "cone_rays",
    "relation_lattice",
    "KirwanRelation",
    "SectorElement",
    "TorusAction",
    "kirwan_count",
    "qh_presentation",
    "sector",
    "Series",
    "SeriesRing",
    "__version__",
]
