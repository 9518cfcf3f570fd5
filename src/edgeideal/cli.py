"""Command-line driver.

Subcommands: pd, betti, sequence, verify, stci, matrix.  Output is one JSON
object (or one JSON line per instance for matrix) unless --format says
otherwise.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
error (a bad spec, option, field list or budget, found before any work),
3 resource limit exceeded, 4 internal error (any other exception, reported
with its traceback; a defect, not a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ResourceLimitError, UsageError
from .formulas import cycle_height, is_stci_cycle, pd_cycle, pd_for_spec
from .graphs import SpecParseError, build, enumerate_specs, min_vertex_cover_size, parse_spec
from .homcomplex import betti_table, projective_dimension
from .polyalg import prime_modulus
from .sequences import sequence_for
from .verify import DEFAULT_HOMOLOGY_MAX_VERTICES, certify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, ensure_ascii=False))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _parse_fields(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad field list {text!r}") from None


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _prime(text: str) -> int:
    try:
        return prime_modulus(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a machine-word sized prime, got {text!r}") from None


def cmd_pd(args) -> int:
    spec = parse_spec(args.graph)
    formula = pd_for_spec(spec)
    graph = build(spec)
    pd_homology = None
    if graph.nedges and graph.nvertices <= args.homology_limit:
        pd_homology = projective_dimension(graph, args.field)
    _emit({
        "pd_formula": formula.value if formula else None,
        "case": formula.case_tag if formula else None,
        "pd_homology": pd_homology,
    }, args.format)
    return EXIT_OK


def cmd_betti(args) -> int:
    graph = build(parse_spec(args.graph))
    table = betti_table(graph, args.field)
    if args.format == "csv":
        for row in table.csv_rows():
            print(row)
    elif args.format == "text":
        print(f"graph {args.graph}, GF({args.field})")
        for entry in table.json_entries():
            print(f"  beta[{entry['i']},{entry['d']}] = {entry['dim']}")
    else:
        print(json.dumps({"graph": args.graph, "field": args.field,
                          "entries": table.json_entries()}, ensure_ascii=False))
    return EXIT_OK


def cmd_sequence(args) -> int:
    seq = sequence_for(parse_spec(args.graph))
    if args.format == "text":
        print(f"graph {args.graph}: {seq.case_tag}, length {seq.claimed_length}")
        for i, poly in enumerate(seq.polys):
            print(f"  q{i} = {poly}")
    else:
        print(json.dumps(seq.to_json_dict(), ensure_ascii=False))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = certify(parse_spec(args.graph), _parse_fields(args.fields),
                     spair_budget=args.spair_budget,
                     homology_max_vertices=args.homology_limit)
    if args.format == "text":
        doc = report.to_json_dict()
        for key in ("graph", "fields", "length", "pd_formula", "pd_homology", "verdict"):
            print(f"{key}: {doc[key]}")
        print(f"forward: {doc['forward']}")
        for rc in doc["reverse"]:
            print(f"  {rc['edge']}: {'ok' if rc['ok'] else 'FAIL'}")
    else:
        print(json.dumps(report.to_json_dict(), ensure_ascii=False))
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_stci(args) -> int:
    spec = parse_spec(args.graph)
    if spec.kind != "cycle":
        raise SpecParseError("stci is defined for cycle graphs only")
    n = spec.params[0]
    graph = build(spec)
    height = min_vertex_cover_size(graph)
    if height != cycle_height(n):
        raise RuntimeError(f"vertex cover of {spec} has size {height}, "
                           f"but the cycle height is {cycle_height(n)}")
    _emit({"stci": is_stci_cycle(n), "height": height, "ara": pd_cycle(n).value},
          args.format)
    return EXIT_OK


def cmd_matrix(args) -> int:
    specs = enumerate_specs([f.strip() for f in args.families.split(",")],
                            args.max_vertices)
    fields = _parse_fields(args.fields)
    any_fail = False
    for spec in specs:
        report = certify(spec, fields, spair_budget=args.spair_budget,
                         homology_max_vertices=args.homology_limit)
        row = {
            "graph": report.graph_spec, "case": report.stats["case"],
            "pd_formula": report.pd_formula,
            "pd_homology": report.pd_homology,
            "length": report.sequence_length,
            "verdict": report.verdict,
        }
        any_fail = any_fail or not report.passed
        if args.format == "text":
            print("  ".join(f"{k}={v}" for k, v in row.items()))
        else:
            print(json.dumps(row, ensure_ascii=False))
    return EXIT_FAIL if any_fail else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeideal",
        description="Edge-ideal toolkit: projective dimension, Betti tables, "
                    "radical generator sequences and arithmetical-rank certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fields_default=None):
        p.add_argument("--graph", required=True, help="graph spec, e.g. cycle:6")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if fields_default:
            p.add_argument("--fields", default=fields_default,
                           help="comma-separated prime moduli")

    p = sub.add_parser("pd", help="projective dimension (formula and homology)")
    add_common(p)
    p.add_argument("--field", type=_prime, default=2, help="field for the homology run")
    p.add_argument("--homology-limit", type=_nonnegative_int, default=DEFAULT_HOMOLOGY_MAX_VERTICES)
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("betti", help="graded Betti table of the edge ideal")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--field", type=_prime, default=2)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("sequence", help="radical generator sequence")
    add_common(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("verify", help="certify the sequence against the edge ideal")
    add_common(p, fields_default="2,32003")
    p.add_argument("--spair-budget", type=_nonnegative_int, default=None)
    p.add_argument("--homology-limit", type=_nonnegative_int, default=DEFAULT_HOMOLOGY_MAX_VERTICES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stci", help="set-theoretic complete intersection test (cycles)")
    add_common(p)
    p.set_defaults(func=cmd_stci)

    p = sub.add_parser("matrix", help="verification sweep, one row per instance")
    p.add_argument("--families", default="cycle,line,bicyclic,dumbbell")
    p.add_argument("--max-vertices", type=_nonnegative_int, default=9)
    p.add_argument("--fields", default="2,32003")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--spair-budget", type=_nonnegative_int, default=None)
    p.add_argument("--homology-limit", type=_nonnegative_int, default=DEFAULT_HOMOLOGY_MAX_VERTICES)
    p.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        # not something the caller can fix: keep the traceback for the
        # report.  Imported only here, since loading the module costs every
        # run memory.
        import traceback
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
