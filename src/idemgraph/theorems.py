"""Closed-form predictions about the idempotent graph, computed from ring
structure alone, and their cross-validation against the graph recognizers.

`PROPERTIES` is the one list of the graph properties the paper
characterizes.  Each row names a property, predicts it from the
primitive-idempotent profiles of the ring's local factors, recognizes it on
the graph, and, where one exists, decides it by brute force.  The results
for planarity, outerplanarity, split, threshold, cograph, cactus and
unicyclic are stated for non-local rings; for local rings those predictions
are explicitly not-applicable (None) rather than silently extended.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from . import oracles, recognizers
from .graphs import Graph, component_census, is_connected, is_path_graph
from .rings import (
    FiniteRing,
    LocalFactorProfile,
    format_ring_spec,
    idempotents,
    is_local,
    primitive_idempotents,
)

Profiles = list[LocalFactorProfile]


def predict_connected(profiles: Profiles) -> bool:
    """Connected iff the ring is additively generated by its idempotents.

    The idempotents generate the sum of the local factors' prime subrings,
    so that holds iff every local factor has characteristic equal to its
    size (``rings.additive_closure`` is the reference the tests compare).
    """
    return all(p.generated_by_idempotents for p in profiles)


def predict_path(profiles: Profiles) -> bool:
    """Path graph iff connected and only the trivial idempotents exist."""
    return len(profiles) == 1 and predict_connected(profiles)


def predict_planar(profiles: Profiles) -> bool:
    """Planar iff exactly two local factors, each additively generated by
    idempotents or of characteristic 2."""
    return len(profiles) == 2 and all(
        p.generated_by_idempotents or p.factor_char == 2 for p in profiles
    )


def predict_never(profiles: Profiles) -> bool:
    """Outerplanar, cactus and unicyclic: never, for a non-local ring."""
    return False


def predict_split(profiles: Profiles) -> bool:
    """Split iff every local factor is Z_2.  Split and threshold coincide
    for idempotent graphs of non-local rings."""
    return all(p.factor_size == 2 for p in profiles)


def predict_cograph(profiles: Profiles) -> bool:
    """Cograph iff every factor has characteristic 2, or exactly one factor
    is Z_3 and every other has characteristic 2."""
    odd = [p for p in profiles if p.factor_char != 2]
    return not odd or (len(odd) == 1 and odd[0].is_z3)


@dataclass(frozen=True)
class Property:
    """A graph property: whether its prediction is stated for non-local rings
    only (and so is None for a local ring), its prediction from the
    local-factor profiles, its recognizer, and its brute-force oracle."""

    name: str
    nonlocal_only: bool
    predict: Callable[[Profiles], bool]
    recognize: Callable[[Graph], bool]
    oracle: Callable[[Graph], bool] | None = None


# Rows look recognizers, is_connected and predict_connected up when called,
# not when the table is built, so a function replaced in its module (say,
# by a tracer) is the one that runs.
PROPERTIES: tuple[Property, ...] = (
    Property("connected", False, lambda ps: predict_connected(ps), lambda g: is_connected(g)),
    Property("path_graph", False, predict_path, is_path_graph),
    Property(
        "planar", True, predict_planar,
        lambda g: recognizers.is_planar(g), oracles.kuratowski_oracle,
    ),
    Property(
        "outerplanar", True, predict_never,
        lambda g: recognizers.is_outerplanar(g), oracles.outerplanar_oracle,
    ),
    Property(
        "split", True, predict_split,
        lambda g: recognizers.is_split(g), lambda g: oracles.split_oracle(g) is None,
    ),
    Property(
        "threshold", True, predict_split,
        lambda g: recognizers.is_threshold(g), lambda g: oracles.threshold_oracle(g) is None,
    ),
    Property(
        "cograph", True, predict_cograph,
        lambda g: recognizers.is_cograph(g), lambda g: oracles.cograph_oracle(g) is None,
    ),
    Property("cactus", True, predict_never, lambda g: recognizers.is_cactus(g)),
    Property("unicyclic", True, predict_never, lambda g: recognizers.is_unicyclic(g)),
)


def predict_all(ring: FiniteRing, profiles: Profiles | None = None) -> dict[str, bool | None]:
    """Every prediction, in table order; None marks not-applicable."""
    if profiles is None:
        profiles = primitive_idempotents(ring)
    local = len(profiles) == 1
    return {
        p.name: None if p.nonlocal_only and local else p.predict(profiles)
        for p in PROPERTIES
    }


def recognize_all(g: Graph) -> dict[str, bool]:
    return {p.name: p.recognize(g) for p in PROPERTIES}


def verify_degree_formula(ring: FiniteRing, g: Graph) -> bool:
    """deg(x) = |Id(R)| - 1 when 2x is idempotent, else |Id(R)|.  2x is
    idempotent iff each 2x_k is an idempotent of its spec factor, so the
    flags are each factor's own (`FactorSpec.doubles_idempotent`),
    multiplied out in index order."""
    n = len(idempotents(ring))
    doubles_idempotent = [True]
    for f in ring.spec.factors:
        doubles_idempotent = [d and b for d in doubles_idempotent for b in f.doubles_idempotent]
    return list(g.degrees) == [n - 1 if d else n for d in doubles_idempotent]


def verify_component_structure(ring: FiniteRing, g: Graph) -> bool:
    """For rings with only trivial idempotents: every component is a path or
    an even cycle, uniform length per shape (uniform-copies consequence)."""
    if not is_local(ring):
        raise ValueError("component-structure check applies to rings with trivial idempotents only")
    path_sizes = set()
    cycle_sizes = set()
    for size, shape in component_census(g):
        if shape == "path":
            path_sizes.add(size)
        elif shape == "even-cycle":
            cycle_sizes.add(size)
        else:
            return False
    return len(path_sizes) <= 1 and len(cycle_sizes) <= 1


def _tristate(v: bool | None) -> str:
    return "not-applicable" if v is None else ("true" if v else "false")


def cross_validate(ring: FiniteRing, g: Graph) -> dict:
    """Run every recognizer and predicate on the ring's idempotent graph g
    and report, as a JSON-ready dict, any disagreement between a prediction
    and the graph verdict."""
    recognized = recognize_all(g)
    profiles = primitive_idempotents(ring)
    predicted = predict_all(ring, profiles)
    census = component_census(g)
    mismatches: list[dict] = []
    for prop, want in predicted.items():
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
    return {
        "spec": format_ring_spec(ring.spec),
        "size": ring.size,
        "characteristic": ring.characteristic,
        "num_idempotents": len(idempotents(ring)),
        "factors": [
            {
                "factor_size": p.factor_size,
                "factor_char": p.factor_char,
                "generated_by_idempotents": p.generated_by_idempotents,
                "is_z2": p.is_z2,
                "is_z3": p.is_z3,
            }
            for p in profiles
        ],
        "graph": {
            "n": g.n,
            "edges": g.edge_count(),
            "components": len(census),
            "census": [{"size": size, "shape": shape} for size, shape in census],
        },
        "recognized": recognized,
        "predicted": {name: _tristate(v) for name, v in predicted.items()},
        "degree_formula_ok": degree_ok,
        "component_structure_ok": structure_ok,
        "mismatches": mismatches,
    }
