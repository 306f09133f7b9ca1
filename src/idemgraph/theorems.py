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
from math import lcm

from . import certificates, oracles, recognizers
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
    local-factor profiles, its recognizer, and its brute-force oracle.

    Planar, outerplanar, split and threshold also have the certifying form
    of the recognizer, `certify(g)`, which returns the verdict and its
    evidence: a yes certificate, a no witness, or None when nothing cheap
    proves the verdict.  `check(g, verdict, evidence)` says whether the
    evidence proves the verdict.  `selftest` checks a verdict by its
    evidence, and by the oracle only when there is none: the exhaustive
    searches are slowest where they must rule every pattern out."""

    name: str
    nonlocal_only: bool
    predict: Callable[[Profiles], bool]
    recognize: Callable[[Graph], bool]
    oracle: Callable[[Graph], bool] | None = None
    certify: Callable[[Graph], tuple[bool, object | None]] | None = None
    check: Callable[[Graph, bool, object], bool] | None = None


def _yes_only(cert) -> tuple[bool, object | None]:
    """The verdict of a recognizer that returns a yes certificate or None,
    with that certificate as its evidence."""
    return cert is not None, cert


def _checks(yes, no=None) -> Callable[[Graph, bool, object], bool]:
    """check(g, verdict, evidence): yes(g, evidence) on a yes verdict, and
    no(g, evidence) on a no."""
    return lambda g, verdict, evidence: (yes if verdict else no)(g, evidence)


# Rows look recognizers, is_connected and predict_connected up when called,
# not when the table is built, so a function replaced in its module (say,
# by a tracer or a test) is the one that runs.
PROPERTIES: tuple[Property, ...] = (
    Property("connected", False, lambda ps: predict_connected(ps), lambda g: is_connected(g)),
    Property("path_graph", False, predict_path, is_path_graph),
    Property(
        "planar", True, predict_planar,
        lambda g: recognizers.is_planar(g), oracles.kuratowski_oracle,
        lambda g: recognizers.certify_planar(g),
        _checks(certificates.check_planar, certificates.check_nonplanar),
    ),
    Property(
        "outerplanar", True, predict_never,
        lambda g: recognizers.is_outerplanar(g), oracles.outerplanar_oracle,
        lambda g: recognizers.certify_outerplanar(g),
        _checks(certificates.check_outerplanar, certificates.check_nonouterplanar),
    ),
    Property(
        "split", True, predict_split,
        lambda g: recognizers.is_split(g), lambda g: oracles.split_oracle(g) is None,
        lambda g: _yes_only(recognizers.split_certificate(g)), _checks(certificates.check_split),
    ),
    Property(
        "threshold", True, predict_split,
        lambda g: recognizers.is_threshold(g), lambda g: oracles.threshold_oracle(g) is None,
        lambda g: _yes_only(recognizers.threshold_certificate(g)), _checks(certificates.check_threshold),
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
    an even cycle, of one size per shape (uniform-copies consequence)."""
    if not is_local(ring):
        raise ValueError("component-structure check applies to rings with trivial idempotents only")
    shapes = [shape for _, shape in set(component_census(g))]
    return set(shapes) <= {"path", "even-cycle"} and len(shapes) == len(set(shapes))


def _tristate(v: bool | None) -> str:
    return "not-applicable" if v is None else ("true" if v else "false")


def cross_validate(ring: FiniteRing, g: Graph, recognized: dict[str, bool] | None = None) -> dict:
    """Run every recognizer and predicate on the ring's idempotent graph g
    and report, as a JSON-ready dict, any disagreement between a prediction
    and the graph verdict.

    `recognized` is `recognize_all(g)`, computed here unless the caller
    has it already for a g it shares among rings; the report gets its own
    copy.  The degree check always reads the ring's own doubling flags, so
    a shared g whose degrees are not this ring's shows as a degree-formula
    mismatch.

    Equal `graph.census` entries are one shared dict, so that
    `sweep.summary_json` writes each distinct entry once (the components
    are copies of at most two graphs, and `GF(64)^2` has 1,024 of one);
    a caller must not mutate a census entry in place."""
    recognized = recognize_all(g) if recognized is None else dict(recognized)
    profiles = primitive_idempotents(ring)
    predicted = predict_all(ring, profiles)
    census = component_census(g)
    entries = {c: {"size": c[0], "shape": c[1]} for c in set(census)}
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
        "characteristic": lcm(*(p.factor_char for p in profiles)),
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
            "census": [entries[c] for c in census],
        },
        "recognized": recognized,
        "predicted": {name: _tristate(v) for name, v in predicted.items()},
        "degree_formula_ok": degree_ok,
        "component_structure_ok": structure_ok,
        "mismatches": mismatches,
    }
