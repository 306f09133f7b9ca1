import ast
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from idemgraph import cli, selftest, sweep
from idemgraph.cli import main
from idemgraph.graphs import build_idempotent_graph
from idemgraph.rings import FiniteRing, build_ring
from idemgraph.theorems import PROPERTIES, cross_validate
from idemgraph.sweep import (
    DEFAULT_CATALOG,
    SweepConfig,
    enumerate_sweep_specs,
    load_catalog_file,
    run_sweep,
    summary_json,
)

from helpers import time_budget

ROOT = Path(__file__).resolve().parent.parent


class TestSweepEnumeration:
    def test_bound_forces_small_products(self):
        config = SweepConfig(max_ring_size=10)
        specs = enumerate_sweep_specs(config)
        products = [s for s in specs if "*" in s]
        assert "Z2 * Z2" in products
        assert "Z2 * Z3" in products
        assert "Z2 * Z4" in products
        assert "Z2 * Z5" in products
        assert "Z3 * Z3" in products
        assert "Z2 * Z2 * Z2" in products
        assert all(
            eval_size(s) <= 10 for s in products
        )

    def test_multisets_not_tuples(self):
        specs = enumerate_sweep_specs(SweepConfig(max_ring_size=64, max_factors=2))
        assert "Z2 * Z3" in specs
        assert "Z3 * Z2" not in specs

    def test_max_factors_far_above_the_size_bound_is_cheap(self):
        with time_budget(1):
            wide = enumerate_sweep_specs(SweepConfig(max_factors=10**6))
        assert wide == enumerate_sweep_specs(SweepConfig(max_factors=8))

    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig(),
            SweepConfig(max_ring_size=64, max_factors=2),
            SweepConfig(max_ring_size=256, max_factors=6),
            SweepConfig(max_ring_size=512, max_factors=4),
            # GF(4) is spelled twice; GF(9) alone is above the bound and dropped
            SweepConfig(max_ring_size=8, catalog=("GF(9)", "Z2", "GF(4)", "Z2[x]/(x^2 + x + 1)")),
        ],
    )
    def test_pruned_walk_returns_what_the_full_walk_returns(self, config):
        assert enumerate_sweep_specs(config) == every_multiset_then_filter(config)

    def test_every_spec_up_to_the_size_cap_within_budget(self):
        with time_budget(0.5):
            specs = enumerate_sweep_specs(SweepConfig(max_factors=10**6, max_ring_size=4096))
        assert len(specs) == 7257
        assert len(enumerate_sweep_specs(SweepConfig())) == 403

    def test_default_catalog_entries_local(self):
        SweepConfig().validate()

    def test_nonlocal_catalog_entry_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(catalog=("Z6",)).validate()


def eval_size(spec_text):
    from idemgraph.rings import parse_ring_spec

    return parse_ring_spec(spec_text).size


def every_multiset_then_filter(config):
    """The reference walk: every k-multiset of the canonical catalog for
    each k, kept when its product is within bound."""
    from idemgraph.rings import format_ring_spec, parse_ring_spec

    size = {format_ring_spec(s): s.size for s in map(parse_ring_spec, config.catalog)}
    specs = set()
    for k in range(1, config.max_factors + 1):
        for combo in itertools.combinations_with_replacement(sorted(size), k):
            if math.prod(size[c] for c in combo) <= config.max_ring_size:
                specs.add(" * ".join(combo))
    return sorted(specs)


# The complete stdout of `classify Z6`, text and --json: the report layout is
# part of the interface, so any change to it shows here byte for byte.
Z6_TEXT = """\
ring        Z6
size        6   characteristic 6   idempotents 4
factors     (size 2, char 2), (size 3, char 3)
graph       6 vertices, 10 edges, 1 component(s): other(6)
property      predicted        recognized
  connected   true             true
  path_graph  false            false
  planar      true             true
  outerplanar false            false
  split       false            false
  threshold   false            false
  cograph     true             true
  cactus      false            false
  unicyclic   false            false
degree formula ok: True
no mismatches
"""

Z6_JSON = """\
{
  "characteristic": 6,
  "component_structure_ok": null,
  "degree_formula_ok": true,
  "factors": [
    {
      "factor_char": 2,
      "factor_size": 2,
      "generated_by_idempotents": true,
      "is_z2": true,
      "is_z3": false
    },
    {
      "factor_char": 3,
      "factor_size": 3,
      "generated_by_idempotents": true,
      "is_z2": false,
      "is_z3": true
    }
  ],
  "graph": {
    "census": [
      {
        "shape": "other",
        "size": 6
      }
    ],
    "components": 1,
    "edges": 10,
    "n": 6
  },
  "mismatches": [],
  "num_idempotents": 4,
  "predicted": {
    "cactus": "false",
    "cograph": "true",
    "connected": "true",
    "outerplanar": "false",
    "path_graph": "false",
    "planar": "true",
    "split": "false",
    "threshold": "false",
    "unicyclic": "false"
  },
  "recognized": {
    "cactus": false,
    "cograph": true,
    "connected": true,
    "outerplanar": false,
    "path_graph": false,
    "planar": true,
    "split": false,
    "threshold": false,
    "unicyclic": false
  },
  "size": 6,
  "spec": "Z6"
}
"""

# sha256 of the complete `classify --json` stdout of the four rings of the
# classify-large benchmark (256 to 4,096 vertices), recorded at commit
# 07e4da0, before `Graph` kept its degrees, edge count and components.  The
# census of GF(64) * GF(64) alone lists 1,024 components.
LARGE_REPORT_SHA256 = {
    "Z4*Z4*Z4*Z4*Z4*Z4": "77aae91f9f5d4cd0aded2fb20648f77a9933441f0fd9488c60beb75ee39dc81a",
    "GF(64)*GF(64)": "bbb5728282346dd3d8520e8128880d39e60597ed37d74bcb92f1e059397e173c",
    "Z2*Z2*Z2*Z2*Z2*Z2*Z2*Z2": "ccdd6b7872e95befc87134af7d3f5442b384aa6ce19712b747126bcecdea8249",
    "GF(16)*GF(16)*GF(16)": "56c7d67dad5d6f67c47a5d4307ecdde592ef382e475c4bfcb7469fb71f94a8ff",
}

# sha256 of the complete stdout of the default `verify --json` sweep (403
# rings), at --jobs 1 and 2, recorded at commit ee11cf1, before the sweep
# shared one FactorSpec per catalog factor.  The two differ only in the
# "parallelism" field of the config.
VERIFY_REPORT_SHA256 = {
    1: "6ae2a25ae3a6e9d49b4b875e627e0d13f0ef158921470bc31c45fd75c8ebd647",
    2: "5f5336eecc8f0e275534e56d9af1357ec90104dacb27007aea2fe9bb99ed9ba4",
}


class TestSweep:
    def test_small_sweep_clean(self):
        summary = run_sweep(SweepConfig(max_ring_size=32, max_factors=2))
        assert summary["mismatch_count"] == 0
        assert summary["rings_checked"] > 0

    def test_z2_tower_all_split(self):
        summary = run_sweep(SweepConfig(max_ring_size=16, max_factors=4, catalog=("Z2",)))
        products = [r for r in summary["reports"] if len(r["factors"]) >= 2]
        assert {r["size"] for r in products} == {4, 8, 16}
        for r in products:
            for prop in ("split", "threshold", "cograph"):
                assert r["predicted"][prop] == "true"
                assert r["recognized"][prop] is True

    def test_parallelism_does_not_change_results(self):
        cfg = dict(max_ring_size=24, max_factors=2)
        a = run_sweep(SweepConfig(**cfg, parallelism=1))
        b = run_sweep(SweepConfig(**cfg, parallelism=2))
        a["config"]["parallelism"] = b["config"]["parallelism"]
        assert summary_json(a) == summary_json(b)

    def test_jobs_clamped_to_cpus_and_rings(self, monkeypatch):
        asked = []

        class RecordingPool:
            # stands in for ProcessPoolExecutor: records the pool size and
            # runs the jobs in this process, so no worker is ever started
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        cfg = dict(max_ring_size=24, max_factors=2)
        wide = run_sweep(SweepConfig(**cfg, parallelism=10**9))
        assert asked == [3]
        assert wide["config"]["parallelism"] == 10**9
        narrow = run_sweep(SweepConfig(**cfg, parallelism=1))
        narrow["config"]["parallelism"] = wide["config"]["parallelism"]
        assert summary_json(narrow) == summary_json(wide)
        # Z2, Z3 and Z2 * Z2: three rings, so three workers at most
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
        run_sweep(SweepConfig(max_ring_size=4, max_factors=2, catalog=("Z2", "Z3"), parallelism=64))
        assert asked == [3, 3]
        # one CPU: no pool at all
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 1)
        run_sweep(SweepConfig(**cfg, parallelism=8))
        assert asked == [3, 3]

    @pytest.mark.parametrize("jobs", sorted(VERIFY_REPORT_SHA256))
    def test_default_sweep_json_pinned(self, jobs, capsys):
        assert main(["verify", "--json", "--jobs", str(jobs)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == VERIFY_REPORT_SHA256[jobs]

    def test_rings_share_one_factor_object_per_catalog_entry(self, monkeypatch):
        jobs = []
        classify_one = sweep._classify_one

        def recording(args):
            jobs.append(args)
            return classify_one(args)

        monkeypatch.setattr(sweep, "_classify_one", recording)
        run_sweep(SweepConfig())
        assert len(jobs) == 403
        assert len({id(f) for spec, _ in jobs for f in spec.factors}) == len(DEFAULT_CATALOG) == 13

    def test_spec_parses_scale_with_the_catalog_not_the_rings(self, monkeypatch):
        from idemgraph import rings

        calls = []
        parse = rings.parse_ring_spec

        def counting(*args, **kwargs):
            calls.append(args[0])
            return parse(*args, **kwargs)

        monkeypatch.setattr(rings, "parse_ring_spec", counting)
        monkeypatch.setattr(sweep, "parse_ring_spec", counting)
        per_sweep = []
        for max_factors in (1, 3):
            calls.clear()
            rings_checked = run_sweep(SweepConfig(max_factors=max_factors))["rings_checked"]
            per_sweep.append((rings_checked, len(calls)))
        assert [n for n, _ in per_sweep] == [13, 403]
        # validate(), the walk and the factor lookup parse each entry once
        assert [c for _, c in per_sweep] == [3 * len(DEFAULT_CATALOG)] * 2

    def test_no_factor_data_is_shared_across_parses(self):
        from idemgraph.rings import parse_ring_spec

        a, b = parse_ring_spec("Z4").factors[0], parse_ring_spec("Z4").factors[0]
        assert a == b and a is not b
        assert a.idempotents == b.idempotents and a.idempotents is not b.idempotents

    def test_summary_deterministic(self):
        a = summary_json(run_sweep(SweepConfig(max_ring_size=24, max_factors=2)))
        b = summary_json(run_sweep(SweepConfig(max_ring_size=24, max_factors=2)))
        assert a == b

    def test_catalog_file(self, tmp_path):
        path = tmp_path / "catalog.txt"
        path.write_text("# tiny catalog\nZ2\nZ3  # odd prime\n\n")
        assert load_catalog_file(str(path)) == ("Z2", "Z3")


class TestCli:
    def test_classify_clean_ring(self, capsys):
        assert main(["classify", "Z2 * Z2"]) == 0
        out = capsys.readouterr().out
        assert "no mismatches" in out

    def test_classify_json(self, capsys):
        assert main(["classify", "Z3[x]/(x^2) * Z2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["predicted"]["planar"] == "false"
        assert data["recognized"]["planar"] is False

    @pytest.mark.parametrize("flags,golden", [([], Z6_TEXT), (["--json"], Z6_JSON)], ids=["text", "json"])
    def test_classify_z6_stdout_golden(self, flags, golden, capsys):
        assert main(["classify", "Z6", *flags]) == 0
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize("spec", sorted(LARGE_REPORT_SHA256))
    def test_classify_large_ring_json_pinned(self, spec, capsys):
        assert main(["classify", spec, "--json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == LARGE_REPORT_SHA256[spec]

    def test_classify_parse_error_exit_1(self, capsys):
        assert main(["classify", "Z0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_classify_size_error_exit_1(self, capsys):
        assert main(["classify", "Z100 * Z100"]) == 1

    @pytest.mark.parametrize("spec", ["GF(1000000000000000003)", "Z2[x]/(x^99999999999)"])
    def test_classify_oversized_factor_exit_1_fast(self, spec, capsys):
        with time_budget(1.0):
            assert main(["classify", spec]) == 1
        assert "more than 4096 elements" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "export"])
    def test_max_size_above_the_sweep_ceiling_exit_1_fast(self, command, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        with time_budget(1.0):
            assert main([command, "Z5000", "--dot", str(dot), "--max-size", "5000"]) == 1
        assert "must be in [1, 4096]" in capsys.readouterr().err
        assert not dot.exists()

    @pytest.mark.parametrize("command", ["classify", "export"])
    def test_max_size_at_the_ceiling_accepted(self, command, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main([command, "Z6", "--dot", str(dot), "--max-size", "4096"]) == 0
        assert dot.read_text().count("--") == 10  # G_Id(Z6): degrees 3, 4, 3, 3, 4, 3

    def test_classify_report_lines_follow_table_order(self, capsys):
        assert main(["classify", "Z6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("property      predicted        recognized") + 1
        rows = lines[start:start + len(PROPERTIES)]
        assert [row.split()[0] for row in rows] == [p.name for p in PROPERTIES]

    def test_classify_writes_dot(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["classify", "Z2", "--dot", str(dot), "--labels"]) == 0
        assert '"0" -- "1";' in dot.read_text()

    def test_labeled_dot_names_vertices_by_ring_element(self, tmp_path, capsys):
        spec = "Z3[x]/(x^2) * Z2"
        r = build_ring(spec)
        names = [r.label(x) for x in r.elements]
        exported, classified = tmp_path / "export.dot", tmp_path / "classify.dot"
        assert main(["export", spec, "--dot", str(exported), "--labels"]) == 0
        lines = exported.read_text().splitlines()
        assert lines[1:1 + r.size] == [f'  "{name}";' for name in names]
        assert '  "(x, 0)";' in lines
        edges = [re.findall(r'"([^"]*)"', line) for line in lines[1 + r.size:-1]]
        assert edges and all(a in names and b in names for a, b in edges)
        assert main(["classify", spec, "--dot", str(classified), "--labels"]) == 0
        assert classified.read_bytes() == exported.read_bytes()

    def test_classify_dot_builds_the_graph_once(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting(ring):
            built.append(ring)
            return real(ring)

        real = cli.build_idempotent_graph
        monkeypatch.setattr(cli, "build_idempotent_graph", counting)
        classified, exported = tmp_path / "classify.dot", tmp_path / "export.dot"
        assert main(["classify", "Z4*Z2", "--dot", str(classified)]) == 0
        assert len(built) == 1
        assert main(["export", "Z4*Z2", "--dot", str(exported)]) == 0
        assert classified.read_bytes() == exported.read_bytes()

    def test_export(self, tmp_path):
        dot = tmp_path / "z4.dot"
        assert main(["export", "Z4", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("graph G {")
        assert text.count("--") == 3

    def test_verify_small(self, capsys):
        assert main(["verify", "--max-size", "10"]) == 0
        out = capsys.readouterr().out
        assert "mismatches         0" in out

    @pytest.mark.parametrize("max_size,rings", [(4, 6), (8, 16)])
    def test_verify_small_bounds_drop_the_larger_singles(self, max_size, rings, capsys):
        assert main(["verify", "--max-size", str(max_size)]) == 0
        assert f"rings checked      {rings} " in capsys.readouterr().out

    def test_verify_catalog_entry_above_the_bound_dropped(self, tmp_path, capsys):
        path = tmp_path / "catalog.txt"
        path.write_text("Z2\nGF(9)\n")
        assert main(["verify", "--catalog", str(path), "--max-size", "8"]) == 0
        assert "rings checked      3 (2 products)" in capsys.readouterr().out

    def test_verify_empty_sweep_exit_1(self, tmp_path, capsys):
        path = tmp_path / "catalog.txt"
        path.write_text("# nothing but comments\n\n")
        assert main(["verify", "--catalog", str(path)]) == 1
        assert main(["verify", "--max-size", "1"]) == 1
        assert "rings checked" not in capsys.readouterr().out

    def test_verify_json_deterministic(self, capsys):
        assert main(["verify", "--max-size", "16", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--max-size", "16", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["mismatch_count"] == 0

    def test_selftest_tiny(self, capsys):
        assert main(["selftest", "--exhaustive-n", "4", "--random-count", "5", "--random-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "disagreements  0" in out

    def test_selftest_seed_reproducible(self, capsys):
        args = ["selftest", "--exhaustive-n", "0", "--random-count", "20", "--random-n", "9", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_selftest_guards(self, capsys):
        assert main(["selftest", "--exhaustive-n", "9"]) == 1
        assert main(["selftest", "--random-n", "13"]) == 1

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--exhaustive-n", "-2"),
            ("--exhaustive-n", "7"),
            ("--random-count", "-5"),
            ("--random-n", "-3"),
            ("--random-count", "1000000000"),
        ],
    )
    def test_selftest_rejects_out_of_range_sizes(self, flag, value, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(selftest, "graph_from_edges", lambda *args: built.append(args))
        with time_budget(1.0):
            assert main(["selftest", flag, value]) == 1
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and f"got {value}" in err
        assert built == []

    def test_usage_error(self):
        assert main(["classify"]) == 1


class TestNoTupleArithmetic:
    """The program path reads a ring factor by factor: FiniteRing arithmetic
    and the whole-ring element tuples are for the tests, and element labels
    are built for --labels only."""

    @pytest.fixture(autouse=True)
    def forbid_tuple_arithmetic(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("FiniteRing tuple method called on the program path")

        for name in ("add", "neg", "mul", "label"):
            monkeypatch.setattr(FiniteRing, name, forbidden)
        monkeypatch.setattr(FiniteRing, "elements", property(forbidden))

    @pytest.mark.parametrize("spec", ["Z3[x]/(x^2) * Z2", "GF(4) * Z4", "Z6", "Z2 * Z3 * Z4"])
    def test_cross_validate(self, spec):
        ring = build_ring(spec)
        report = cross_validate(ring, build_idempotent_graph(ring))
        assert report["degree_formula_ok"]
        assert report["mismatches"] == []

    def test_classify_dot_without_labels(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert main(["classify", "GF(4) * Z4", "--dot", str(dot)]) == 0
        assert '  "15";' in dot.read_text()


def test_paper_examples_script_runs_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paper_examples.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()[2:]
    assert len(rows) == 10
    assert all(row.split()[-1] == "0" for row in rows)  # the mismatches column


def test_the_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "idemgraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, idemgraph.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
