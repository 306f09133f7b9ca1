"""summary_json against the standard library's json.dumps(indent=2,
sort_keys=True): the same text on every value the reports can hold, and
TypeError on any other."""

import copy
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemgraph import sweep
from idemgraph.cli import main
from idemgraph.graphs import build_idempotent_graph
from idemgraph.rings import build_ring
from idemgraph.sweep import SweepConfig, run_sweep, summary_json
from idemgraph.theorems import cross_validate

from helpers import reference_json

# Characters the escapes treat specially: quotes, backslashes, control
# characters, DEL, non-ASCII, the JSON-valid line separators, an astral
# character (a surrogate pair in \u form) and a lone surrogate.
SPECIAL = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\xe9\u0664\u2028\u2029\uff14\ud800\U0001f600\U0010ffff'
text = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**300), 2**300),
    text,
)
# Two of the list strategies give each item twice in a row: as one shared
# object, which summary_json writes once and reuses, and as an equal but
# distinct copy, which it must write again.
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(lambda xs: [x for x in xs for _ in "ab"]),
        st.lists(inner, max_size=3).map(lambda xs: [y for x in xs for y in (x, copy.deepcopy(x))]),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(text, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_matches_the_reference_on_nested_values(value):
    assert summary_json(value) == reference_json(value)


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    pass


D = {"size": 4, "shape": "complete"}
E = {"size": 4, "shape": "path"}


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}},
        {"a": []},
        [[]],
        [{}],
        [(), {}, [[], [{}]]],
        {"a": {"b": {"c": []}}, "d": [[[{}]]]},
        (1, (2, ()), [()]),
        {"t": (True, None), "u": ("x",)},
        [True, 1, False, 0, None],
        {"a": True, "b": 1, "c": False, "d": 0},
        True,
        False,
        1,
        None,
        "s",
        -(10**40),
        {"z": 1, "a": 2, "M": 3, "": 4, "\xe9": 5, "a\x00": 6},
        # equal to the item before, but not the same object or type: text
        # reused on == would write 1 for True and 0 for False
        [{"a": 1}, {"a": True}],
        [[0], [False]],
        # the same object in a row, written once and reused
        [D, D],
        [D, E, D],
        [None, None],
    ],
)
def test_matches_the_reference_on_explicit_cases(value):
    assert summary_json(value) == reference_json(value)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        [0.0],
        {"a": 1, "b": float("nan")},
        {"a": {"b": [1, 2.5]}},
        {1: "a"},
        {"a": {None: 1}},
        [{("k",): 1}],
        {1, 2},
        {"a": frozenset()},
        [b"bytes"],
        [Colour.RED],
        {"a": Label("x")},
        [{"a": 1}, {"a": 1.0}],  # equal to the item before, and still checked
        [D, D, [1, 1, 1.0]],
    ],
)
def test_any_other_type_raises_type_error(value):
    # subclasses of int and str included: the reports hold none
    with pytest.raises(TypeError):
        summary_json(value)


def report(spec):
    ring = build_ring(spec, max_size=4096)
    return cross_validate(ring, build_idempotent_graph(ring))


class TestWholeDocuments:
    """Compared as text, so that a difference shows as a diff rather than
    as a changed hash."""

    def test_default_sweep_summary(self):
        summary = run_sweep(SweepConfig())
        assert summary_json(summary) == reference_json(summary)

    @pytest.mark.parametrize(
        "spec", ["Z4*Z4*Z4*Z4*Z4*Z4", "GF(64)*GF(64)", "Z2*Z2*Z2*Z2*Z2*Z2*Z2*Z2", "GF(16)*GF(16)*GF(16)"]
    )
    def test_classify_large_reports(self, spec):
        rep = report(spec)
        assert summary_json(rep) == reference_json(rep)

    def test_local_ring_report(self):
        rep = report("Z3[x]/(x^2)")
        assert rep["component_structure_ok"] is not None  # set only for a local ring
        assert summary_json(rep) == reference_json(rep)

    def test_verify_json_with_a_non_ascii_catalog(self, tmp_path, capsys):
        # the raw catalog lines are echoed under config.catalog, so their
        # non-ASCII digits reach the output as \uXXXX escapes
        path = tmp_path / "catalog.txt"
        path.write_text("Z٤\nGF(４)\nZ3\n", encoding="utf-8")
        assert main(["verify", "--catalog", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert '"Z\\u0664"' in out and '"GF(\\uff14)"' in out
        assert out == reference_json(json.loads(out)) + "\n"


def test_a_census_of_equal_entries_is_written_once(monkeypatch):
    # GF(64)^2 has 1,024 components of one shape: cross_validate gives them
    # one shared census dict, and summary_json encodes it once, not 1,024 times.
    rep = report("GF(64)*GF(64)")
    census = rep["graph"]["census"]
    assert len(census) == 1024 and len({id(e) for e in census}) == 1
    calls = []
    encode = sweep._json_text

    def counting(value, indent):
        calls.append(value)
        return encode(value, indent)

    monkeypatch.setattr(sweep, "_json_text", counting)
    assert summary_json(rep) == reference_json(rep)
    assert sum(1 for v in calls if v is census[0]) == 1
    calls.clear()
    assert summary_json(census) == reference_json(census)
    assert len(calls) == 2  # the list and its one distinct entry
