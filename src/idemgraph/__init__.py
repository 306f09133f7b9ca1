"""Idempotent graphs of finite commutative rings.

Construction of G_Id(R) (vertices = ring elements, x ~ y iff x + y is
idempotent), graph-class recognizers with brute-force oracles, and
closed-form theorem predicates cross-validated against the recognizers.
"""

from .graphs import (
    Graph,
    build_idempotent_graph,
    component_census,
    export_dot,
    graph_from_edges,
    is_connected,
)
from .recognizers import (
    is_cactus,
    is_cograph,
    is_outerplanar,
    is_planar,
    is_split,
    is_threshold,
    is_unicyclic,
)
from .rings import (
    FiniteRing,
    LocalFactorProfile,
    RingSizeError,
    RingSpec,
    RingSpecError,
    additive_closure,
    build_ring,
    format_ring_spec,
    idempotents,
    is_local,
    parse_ring_spec,
    primitive_idempotents,
)
from .theorems import PROPERTIES, Property, cross_validate, predict_all

__all__ = [
    "Graph",
    "FiniteRing",
    "RingSpec",
    "RingSpecError",
    "RingSizeError",
    "LocalFactorProfile",
    "Property",
    "PROPERTIES",
    "parse_ring_spec",
    "format_ring_spec",
    "build_ring",
    "idempotents",
    "is_local",
    "additive_closure",
    "primitive_idempotents",
    "build_idempotent_graph",
    "component_census",
    "is_connected",
    "graph_from_edges",
    "export_dot",
    "is_planar",
    "is_outerplanar",
    "is_split",
    "is_threshold",
    "is_cograph",
    "is_cactus",
    "is_unicyclic",
    "predict_all",
    "cross_validate",
]

__version__ = "0.1.0"
