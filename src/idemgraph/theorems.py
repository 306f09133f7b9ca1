"""Closed-form predictions about the idempotent graph, computed from ring
structure alone, and their cross-validation against the graph recognizers.

The characterization results for planarity, outerplanarity, split,
threshold, cograph, cactus and unicyclic are stated for non-local rings;
for local rings those predictions are explicitly not-applicable (returned
as None) rather than silently extended.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import recognizers
from .graphs import (
    Graph,
    build_idempotent_graph,
    component_census,
    is_connected,
    is_path_graph,
)
from .rings import (
    DEFAULT_MAX_RING_SIZE,
    FiniteRing,
    LocalFactorProfile,
    format_ring_spec,
    idempotents,
    is_local,
    primitive_idempotents,
)


def predict_connected(ring: FiniteRing, profiles: list[LocalFactorProfile] | None = None) -> bool:
    """Connected iff the ring is additively generated by its idempotents.

    The idempotents generate the sum of the local factors' prime subrings,
    so that holds iff every local factor has characteristic equal to its
    size (``rings.additive_closure`` is the reference the tests compare).
    """
    if profiles is None:
        profiles = primitive_idempotents(ring)
    return all(p.generated_by_idempotents for p in profiles)


def predict_path(ring: FiniteRing, profiles: list[LocalFactorProfile] | None = None) -> bool:
    """Path graph iff connected and only the trivial idempotents exist."""
    if profiles is None:
        profiles = primitive_idempotents(ring)
    return len(profiles) == 1 and predict_connected(ring, profiles)


def predict_planar(ring: FiniteRing, profiles: list[LocalFactorProfile] | None = None) -> bool | None:
    """Planar iff exactly two local factors and (i) both additively generated
    by idempotents, or (ii) one generated and the other of characteristic 2,
    or (iii) both of characteristic 2.  None for local rings."""
    if profiles is None:
        profiles = primitive_idempotents(ring)
    if len(profiles) < 2:
        return None
    if len(profiles) != 2:
        return False
    p, q = profiles
    if p.generated_by_idempotents and q.generated_by_idempotents:
        return True
    if p.generated_by_idempotents and q.factor_char == 2:
        return True
    if q.generated_by_idempotents and p.factor_char == 2:
        return True
    if p.factor_char == 2 and q.factor_char == 2:
        return True
    return False


def predict_outerplanar(ring: FiniteRing, profiles=None) -> bool | None:
    """Never outerplanar for a non-local ring; None for local rings."""
    if profiles is None:
        profiles = primitive_idempotents(ring)
    return None if len(profiles) < 2 else False


def predict_cactus(ring: FiniteRing, profiles=None) -> bool | None:
    if profiles is None:
        profiles = primitive_idempotents(ring)
    return None if len(profiles) < 2 else False


def predict_unicyclic(ring: FiniteRing, profiles=None) -> bool | None:
    if profiles is None:
        profiles = primitive_idempotents(ring)
    return None if len(profiles) < 2 else False


def predict_split(ring: FiniteRing, profiles=None) -> bool | None:
    """Split iff every local factor is Z_2; None for local rings."""
    if profiles is None:
        profiles = primitive_idempotents(ring)
    if len(profiles) < 2:
        return None
    return all(p.factor_size == 2 for p in profiles)


def predict_threshold(ring: FiniteRing, profiles=None) -> bool | None:
    # Split and threshold coincide for idempotent graphs of non-local rings.
    return predict_split(ring, profiles)


def predict_cograph(ring: FiniteRing, profiles=None) -> bool | None:
    """Cograph iff every factor has characteristic 2, or exactly one factor
    is Z_3 and every other has characteristic 2.  None for local rings."""
    if profiles is None:
        profiles = primitive_idempotents(ring)
    if len(profiles) < 2:
        return None
    if all(p.factor_char == 2 for p in profiles):
        return True
    z3 = [p for p in profiles if p.is_z3]
    rest = [p for p in profiles if not p.is_z3]
    return len(z3) == 1 and all(p.factor_char == 2 for p in rest)


def verify_degree_formula(ring: FiniteRing, g: Graph) -> bool:
    """deg(x) = |Id(R)| - 1 when 2x is idempotent, else |Id(R)|."""
    ids = idempotents(ring)
    k = len(ids)
    for i, x in enumerate(ring.elements):
        expected = k - 1 if ring.add(x, x) in ids else k
        if g.degree(i) != expected:
            return False
    return True


def verify_component_structure(ring: FiniteRing, g: Graph) -> bool:
    """For rings with only trivial idempotents: every component is a path or
    an even cycle, uniform length per shape (uniform-copies consequence)."""
    if not is_local(ring):
        raise ValueError("component-structure check applies to rings with trivial idempotents only")
    path_sizes = set()
    cycle_sizes = set()
    for rec in component_census(g):
        if rec.shape == "path":
            path_sizes.add(rec.size)
        elif rec.shape == "even-cycle":
            cycle_sizes.add(rec.size)
        else:
            return False
    return len(path_sizes) <= 1 and len(cycle_sizes) <= 1


@dataclass(frozen=True)
class TheoremPrediction:
    """Predicted graph properties; None marks not-applicable (local ring)."""

    connected: bool
    path_graph: bool
    planar: bool | None
    outerplanar: bool | None
    split: bool | None
    threshold: bool | None
    cograph: bool | None
    cactus: bool | None
    unicyclic: bool | None


def predict_all(ring: FiniteRing, profiles: list[LocalFactorProfile] | None = None) -> TheoremPrediction:
    if profiles is None:
        profiles = primitive_idempotents(ring)
    return TheoremPrediction(
        connected=predict_connected(ring, profiles),
        path_graph=predict_path(ring, profiles),
        planar=predict_planar(ring, profiles),
        outerplanar=predict_outerplanar(ring, profiles),
        split=predict_split(ring, profiles),
        threshold=predict_threshold(ring, profiles),
        cograph=predict_cograph(ring, profiles),
        cactus=predict_cactus(ring, profiles),
        unicyclic=predict_unicyclic(ring, profiles),
    )


def recognize_all(g: Graph) -> dict[str, bool]:
    return {
        "connected": is_connected(g),
        "path_graph": is_path_graph(g),
        "planar": recognizers.is_planar(g).value,
        "outerplanar": recognizers.is_outerplanar(g).value,
        "split": recognizers.is_split(g).value,
        "threshold": recognizers.is_threshold(g).value,
        "cograph": recognizers.is_cograph(g).value,
        "cactus": recognizers.is_cactus(g).value,
        "unicyclic": recognizers.is_unicyclic(g).value,
    }


def _tristate(v: bool | None) -> str:
    return "not-applicable" if v is None else ("true" if v else "false")


@dataclass
class ClassificationReport:
    spec_text: str
    size: int
    characteristic: int
    num_idempotents: int
    factors: list[LocalFactorProfile]
    graph_n: int
    graph_edges: int
    component_count: int
    census: list[tuple[int, str]]
    recognized: dict[str, bool]
    predicted: TheoremPrediction
    degree_formula_ok: bool
    component_structure_ok: bool | None
    mismatches: list[dict]

    def to_dict(self) -> dict:
        pred = self.predicted
        return {
            "spec": self.spec_text,
            "size": self.size,
            "characteristic": self.characteristic,
            "num_idempotents": self.num_idempotents,
            "factors": [
                {
                    "factor_size": p.factor_size,
                    "factor_char": p.factor_char,
                    "generated_by_idempotents": p.generated_by_idempotents,
                    "is_z2": p.is_z2,
                    "is_z3": p.is_z3,
                }
                for p in self.factors
            ],
            "graph": {
                "n": self.graph_n,
                "edges": self.graph_edges,
                "components": self.component_count,
                "census": [{"size": s, "shape": sh} for s, sh in self.census],
            },
            "recognized": self.recognized,
            "predicted": {
                "connected": _tristate(pred.connected),
                "path_graph": _tristate(pred.path_graph),
                "planar": _tristate(pred.planar),
                "outerplanar": _tristate(pred.outerplanar),
                "split": _tristate(pred.split),
                "threshold": _tristate(pred.threshold),
                "cograph": _tristate(pred.cograph),
                "cactus": _tristate(pred.cactus),
                "unicyclic": _tristate(pred.unicyclic),
            },
            "degree_formula_ok": self.degree_formula_ok,
            "component_structure_ok": self.component_structure_ok,
            "mismatches": self.mismatches,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def cross_validate(ring: FiniteRing, max_size: int = DEFAULT_MAX_RING_SIZE) -> ClassificationReport:
    """Build the idempotent graph, run every recognizer and predicate, and
    record any disagreement between a prediction and the graph verdict."""
    g = build_idempotent_graph(ring, max_size=max_size)
    recognized = recognize_all(g)
    profiles = primitive_idempotents(ring)
    predicted = predict_all(ring, profiles)
    census = component_census(g)
    mismatches: list[dict] = []
    pairs = {
        "connected": predicted.connected,
        "path_graph": predicted.path_graph,
        "planar": predicted.planar,
        "outerplanar": predicted.outerplanar,
        "split": predicted.split,
        "threshold": predicted.threshold,
        "cograph": predicted.cograph,
        "cactus": predicted.cactus,
        "unicyclic": predicted.unicyclic,
    }
    for prop, want in pairs.items():
        if want is not None and recognized[prop] != want:
            mismatches.append(
                {"property": prop, "predicted": _tristate(want), "recognized": recognized[prop]}
            )
    degree_ok = verify_degree_formula(ring, g)
    if not degree_ok:
        mismatches.append(
            {"property": "degree_formula", "predicted": "true", "recognized": False}
        )
    structure_ok: bool | None = None
    if len(profiles) == 1:
        structure_ok = verify_component_structure(ring, g)
        if not structure_ok:
            mismatches.append(
                {"property": "component_structure", "predicted": "true", "recognized": False}
            )
    return ClassificationReport(
        spec_text=format_ring_spec(ring.spec),
        size=ring.size,
        characteristic=ring.characteristic,
        num_idempotents=len(idempotents(ring)),
        factors=profiles,
        graph_n=g.n,
        graph_edges=g.edge_count(),
        component_count=len(census),
        census=[(rec.size, rec.shape) for rec in census],
        recognized=recognized,
        predicted=predicted,
        degree_formula_ok=degree_ok,
        component_structure_ok=structure_ok,
        mismatches=mismatches,
    )
