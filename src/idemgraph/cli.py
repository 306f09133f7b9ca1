"""Command-line interface.

Commands:
  classify <spec> [--json] [--dot PATH] [--labels] [--max-size N]
  verify   [--max-size N] [--max-factors K] [--catalog FILE] [--jobs P] [--json]
  selftest [--exhaustive-n N] [--random-count C] [--random-n M] [--seed S]
  export   <spec> --dot FILE [--labels] [--max-size N]

The integer flags but --seed are bounded: --max-size N in [1, rings.DEFAULT_MAX_RING_SIZE]
wherever it is taken, the selftest sizes in [0, selftest.MAX_*], the others >= 1.
A value outside is an argparse error that names the flag.

Exit codes: 0 success, 1 usage/input error, 2 prediction/recognizer mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .graphs import build_idempotent_graph, export_dot
from .rings import DEFAULT_MAX_RING_SIZE, RingSizeError, RingSpecError, build_ring
from .selftest import MAX_EXHAUSTIVE_N, MAX_RANDOM_COUNT, MAX_RANDOM_N, run_selftest
from .sweep import DEFAULT_CATALOG, SweepConfig, load_catalog_file, run_sweep, summary_json
from .theorems import PROPERTIES, cross_validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


def _print_report(d: dict) -> None:
    print(f"ring        {d['spec']}")
    print(f"size        {d['size']}   characteristic {d['characteristic']}   idempotents {d['num_idempotents']}")
    factors = ", ".join(
        f"(size {f['factor_size']}, char {f['factor_char']})" for f in d["factors"]
    )
    print(f"factors     {factors}")
    census = ", ".join(f"{c['shape']}({c['size']})" for c in d["graph"]["census"])
    print(
        f"graph       {d['graph']['n']} vertices, {d['graph']['edges']} edges, "
        f"{d['graph']['components']} component(s): {census}"
    )
    print("property      predicted        recognized")
    for name in (p.name for p in PROPERTIES):
        print(f"  {name:<12}{d['predicted'][name]:<17}{str(d['recognized'][name]).lower()}")
    print(f"degree formula ok: {d['degree_formula_ok']}")
    if d["component_structure_ok"] is not None:
        print(f"component structure ok: {d['component_structure_ok']}")
    if d["mismatches"]:
        print(f"MISMATCHES ({len(d['mismatches'])}):")
        for m in d["mismatches"]:
            print(f"  {m['property']}: predicted {m['predicted']}, recognized {m['recognized']}")
    else:
        print("no mismatches")


def _write_dot(path: str, ring, g, labels: bool) -> None:
    names = [ring.label(x) for x in ring.elements] if labels else None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_dot(g, names))


def cmd_classify(args) -> int:
    ring = build_ring(args.spec, max_size=args.max_size)
    g = build_idempotent_graph(ring)
    report = cross_validate(ring, g)
    if args.dot:
        _write_dot(args.dot, ring, g, args.labels)
    if args.json:
        print(summary_json(report))
    else:
        _print_report(report)
    return EXIT_MISMATCH if report["mismatches"] else EXIT_OK


def cmd_verify(args) -> int:
    config = SweepConfig(
        max_ring_size=args.max_size,
        max_factors=args.max_factors,
        catalog=load_catalog_file(args.catalog) if args.catalog else DEFAULT_CATALOG,
        parallelism=args.jobs,
    )
    summary = run_sweep(config)
    if args.json:
        print(summary_json(summary))
    else:
        print(
            f"rings checked      {summary['rings_checked']} "
            f"({summary['product_rings_checked']} products)"
        )
        print(f"total vertices     {summary['total_vertices']}")
        print(f"properties checked {summary['properties_checked']}")
        print(f"mismatches         {summary['mismatch_count']}")
        for m in summary["mismatches"]:
            print(
                f"  {m['spec']}: {m['property']} predicted {m['predicted']}, "
                f"recognized {m['recognized']}"
            )
    return EXIT_MISMATCH if summary["mismatch_count"] else EXIT_OK


def cmd_selftest(args) -> int:
    summary = run_selftest(
        exhaustive_n=args.exhaustive_n,
        random_count=args.random_count,
        random_n=args.random_n,
        seed=args.seed,
    )
    print(
        f"graphs checked {summary['graphs_checked']} "
        f"(exhaustive n<={summary['exhaustive_n']}, "
        f"{summary['random_count']} random n={summary['random_n']}, seed {summary['seed']})"
    )
    print(f"properties     {', '.join(summary['properties'])}")
    print(f"disagreements  {summary['disagreement_count']}")
    for d in summary["disagreements"][:20]:
        print(
            f"  {d['graph']} {d['property']}: recognizer={d['recognizer']} "
            f"{d['checked_by']}={d['oracle']} edges={d['edges']}"
        )
    return EXIT_MISMATCH if summary["disagreement_count"] else EXIT_OK


def cmd_export(args) -> int:
    ring = build_ring(args.spec, max_size=args.max_size)
    _write_dot(args.dot, ring, build_idempotent_graph(ring), args.labels)
    return EXIT_OK


def int_in(low: int, high: int | None = None):
    """An argparse type: an int of at least low, and at most high if given."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low or high is not None and n > high:
            bound = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {n}")
        return n

    parse.__name__ = "int"  # argparse's text for a non-integer: invalid int value
    return parse


ring_size = int_in(1, DEFAULT_MAX_RING_SIZE)  # the bound the sweep also enforces


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call.  Sharing is safe: parse_args keeps no state on the parser,
    argparse reads the terminal width when it prints help, not here, and
    each command's `func` is a cmd_* function that looks its helpers up in
    this module when it runs, so a helper replaced here is the one called."""
    parser = argparse.ArgumentParser(
        prog="idemgraph",
        description="Idempotent graphs of finite commutative rings: "
        "construction, classification, and theorem cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one ring and cross-validate")
    p.add_argument("spec", help='ring spec, e.g. "Z4 * Z2" or "Z3[x]/(x^2)"')
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--dot", metavar="PATH", help="also write the graph as DOT")
    p.add_argument("--labels", action="store_true", help="label DOT nodes with ring elements")
    p.add_argument("--max-size", type=ring_size, default=DEFAULT_MAX_RING_SIZE, help="ring size bound")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="sweep catalog products and cross-validate")
    p.add_argument(
        "--max-size", type=ring_size, default=SweepConfig.max_ring_size, help="largest ring in the sweep"
    )
    p.add_argument(
        "--max-factors", type=int_in(1), default=SweepConfig.max_factors, help="largest factor multiset"
    )
    p.add_argument("--catalog", metavar="FILE", help="catalog file, one spec per line")
    p.add_argument("--jobs", type=int_in(1), default=SweepConfig.parallelism, help="parallel workers")
    p.add_argument("--json", action="store_true", help="emit the summary as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="check recognizers by certificates, witnesses or brute-force oracles")
    p.add_argument("--exhaustive-n", type=int_in(0, MAX_EXHAUSTIVE_N), default=6)
    p.add_argument("--random-count", type=int_in(0, MAX_RANDOM_COUNT), default=500)
    p.add_argument("--random-n", type=int_in(0, MAX_RANDOM_N), default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("export", help="write the idempotent graph as DOT")
    p.add_argument("spec")
    p.add_argument("--dot", metavar="FILE", required=True)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--max-size", type=ring_size, default=DEFAULT_MAX_RING_SIZE)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (RingSpecError, RingSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
