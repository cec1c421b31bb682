"""Command-line driver.

Subcommands: construct | analyze | enumerate | saturate | blowup-opt |
extract-tripartite | verify {thm1|thm2|lambda|lemmas}.  Graphs travel as
graph6, one per line, on stdin or --in; JSON reports go to stdout or
--out.  Exit codes: 0 all assertions pass, 1 mathematical mismatch,
2 usage or resource error.

Reports are byte-stable across runs: keys are sorted, all numbers are
integers, and timing is only included when --timing is passed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Callable, Iterable

from . import constructions as cons
from .deficiency import (
    blowup_bound_gap_times_r,
    deficiency,
    optimal_blowup,
)
from .enumeration import (
    EnumerationLimitError,
    EnumerationWorkerError,
    enumerate_graphs,
)
from .graph import (
    Graph,
    read_graph6_lines,
    to_graph6,
)
from .invariants import CliquePresentError, SearchBudgetExceeded, clique_number
from .saturation import saturate
from .tripartite import CertificateError, extract_tripartite
from .verify import (
    analyze_graph,
    deficiency_table,
    lemma_suite,
    verify_classification,
    verify_threshold,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# the version of the JSON report layout, stamped on every report
SCHEMA = 2


def _read_graphs(args: argparse.Namespace) -> list[Graph]:
    if args.infile:
        with open(args.infile) as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    graphs = read_graph6_lines(lines)
    if not graphs:
        raise ValueError("no graph6 input")
    return graphs


def _emit_graphs(args: argparse.Namespace, chunks: Iterable[str],
                 command: str, t0: float) -> None:
    """Emit the text of ``chunks``, graph6 lines each ending in a newline,
    as it is or as the ``graphs`` list of a JSON report."""
    if args.format == "json":
        lines = "".join(chunks).split()  # graph6 has no whitespace
        _emit_json(args, {"command": command, "count": len(lines),
                          "graphs": lines, "ok": True}, t0)
    else:
        _emit(args, chunks)


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write the strs of ``chunks`` in turn to --out or stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        try:
            # flush here, so a failed write raises inside main's handler
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError:
            # what is still buffered would fail again at exit; send it nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise


def _emit_json(args: argparse.Namespace, payload: dict, t0: float) -> None:
    import json  # only JSON reports need it; the graph6 paths start faster

    payload = dict(payload, schema=SCHEMA)
    if args.timing:
        payload["runtime_ms"] = int((time.perf_counter() - t0) * 1000)
    _emit(args, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _int_at_least(least: int) -> Callable[[str], int]:
    """An argparse ``type`` for an integer option whose values start at
    ``least``: a smaller one is a usage error that names the option."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class _AfterFamily(argparse.Action):
    """A family option given before the family name: argparse would read
    its value as the family, so the option itself is the usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the family name")


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = (int(x) for x in spec.split("..", 1))
        if lo > hi:
            raise ValueError(f"empty range {spec}: {lo} > {hi}")
        return list(range(lo, hi + 1))
    return [int(spec)]


# each construct option's argparse keywords; a family declares only the
# options its builder reads, so any other is an unknown option
_FAMILY_OPTIONS = {
    **dict.fromkeys(("n", "r", "m", "f"), {"type": int, "required": True}),
    "l": {"type": int, "default": 1},
    "variant": {"choices": ["standard", "prime"], "default": "standard"},
    "no-empty-set": {"action": "store_true",
                     "help": "exclude the empty independent set"},
}

# family -> (builder, the options it reads)
_FAMILIES = {
    "turan": (lambda a: cons.turan_graph(a.n, a.r), ("n", "r")),
    "extremal": (lambda a: cons.extremal_family(a.n, a.r), ("n", "r")),
    "family": (lambda a: cons.extremal_family(a.n, a.r, a.l, a.variant),
               ("n", "r", "l", "variant")),
    "groetzsch": (lambda a: cons.groetzsch_graph(), ()),
    "k4f-chi5": (lambda a: cons.k4free_5chromatic(), ()),
    "tf-chi5": (lambda a: cons.trianglefree_5chromatic(not a.no_empty_set),
                ("no-empty-set",)),
    "sat3-twins": (lambda a: cons.three_sat_many_twin_classes(a.f, a.n), ("f", "n")),
    "sat-non-blowup": (lambda a: cons.sat_non_blowup(a.m, a.r, a.n), ("m", "r", "n")),
    "sat3-twin-free": (lambda a: cons.three_sat_twin_free(a.m), ("m",)),
    "sat-twin-free": (lambda a: cons.sat_twin_free(a.m, a.r), ("m", "r")),
}

# filter -> forbidden clique size; kr1-free takes it from --r
_FILTERS = {"none": None, "triangle-free": 3, "k4-free": 4}


# argparse cannot declare an option that one value of another requires
# or forbids, so the two such rules (this one and --budget's) stay checks
def _filter_q(args: argparse.Namespace) -> int | None:
    if args.filter in _FILTERS:
        if args.r is not None:
            raise ValueError(f"enumerate --filter {args.filter} does not read --r")
        return _FILTERS[args.filter]
    if args.r is None:
        raise ValueError("--filter kr1-free requires --r")
    return args.r + 1


def cmd_construct(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _FAMILIES[args.family][0](args)
    if args.format == "json":
        _emit_json(args, {"command": "construct", "family": args.family,
                          "n": g.n, "edges": g.edge_count,
                          "graph6": to_graph6(g)}, t0)
    else:
        _emit(args, [to_graph6(g) + "\n"])
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    q = _filter_q(args)
    t0 = time.perf_counter()
    _emit_graphs(args, enumerate_graphs(args.n, q).graph6_chunks(), "enumerate", t0)
    return EXIT_OK


def cmd_saturate(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    graphs = _read_graphs(args)
    lines = [to_graph6(saturate(g, args.q)) + "\n" for g in graphs]
    _emit_graphs(args, lines, "saturate", t0)
    return EXIT_OK


def _blowup_entry(g: Graph, args: argparse.Namespace) -> dict:
    weights, edges = optimal_blowup(g, args.n)
    r, _ = clique_number(g)
    value = deficiency(g, r).value
    return {"target_order": args.n, "weights": list(weights), "edges": edges,
            "r": r, "deficiency": value,
            "bound_gap_times_r": blowup_bound_gap_times_r(r, value, args.n, edges)}


def _tripartite_entry(g: Graph, args: argparse.Namespace) -> dict:
    cert = extract_tripartite(g, c_param=args.c_param)
    covered, order = cert.covered, cert.order
    d = math.gcd(covered, order)  # 0 only on the order-0 graph, which covers 0/1
    num, den = (covered // d, order // d) if d else (0, 1)
    return {"parts": [list(p) for p in cert.parts], "covered": covered,
            "order": order, "fraction_num": num, "fraction_den": den}


# report command -> the entry it builds for one input graph
_REPORTS = {
    "analyze": lambda g, a: analyze_graph(g, r=a.r, q=a.q),
    "blowup-opt": _blowup_entry,
    "extract-tripartite": _tripartite_entry,
}


def cmd_report(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    build = _REPORTS[args.command]
    entries = [dict(build(g, args), index=i)
               for i, g in enumerate(_read_graphs(args))]
    _emit_json(args, {"command": args.command, "graphs": entries, "ok": True}, t0)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.what in ("thm1", "thm2"):
        check = verify_threshold if args.what == "thm1" else verify_classification
        report = check(args.r, _parse_range(args.n))
    elif args.what == "lambda":
        if args.budget is not None and args.max_order is None:
            raise ValueError("verify lambda --budget requires --max-order")
        report = deficiency_table(args.r, args.k, max_order=args.max_order,
                                  node_budget=args.budget)
    else:  # lemmas; argparse restricts the choices
        report = lemma_suite()
    _emit_json(args, report, t0)
    search = report.get("search")
    if search and not search["complete"]:
        raise SearchBudgetExceeded(f"--budget {args.budget} ran out after "
                                   f"{search['examined']} graphs")
    return EXIT_OK if report["ok"] else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="turanlab",
        description="Constructions and exhaustive verification for "
                    "clique-free extremal graph theory.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graphs_in: bool = False,
               graphs_out: bool = False) -> None:
        p.add_argument("--out", dest="out", help="output file (default stdout)")
        if graphs_out:
            p.add_argument("--format", choices=["graph6", "json"], default="graph6")
        p.add_argument("--timing", action="store_true",
                       help="include runtime_ms in JSON reports "
                            "(off by default to keep reports byte-stable)")
        if graphs_in:
            p.add_argument("--in", dest="infile",
                           help="graph6 input file (default stdin)")

    # each family option stands here too, where a value is optional so that
    # --timing and --format json alike reach _AfterFamily; no abbreviations,
    # so no misspelt family option reads as one of these
    p = sub.add_parser("construct", help="emit a named construction",
                       allow_abbrev=False)
    for opt in ("--format", "--out", "--timing"):
        p.add_argument(opt, nargs="?", action=_AfterFamily, help=argparse.SUPPRESS)
    families = p.add_subparsers(dest="family", required=True)
    for family in sorted(_FAMILIES):
        # no abbreviations: a family without --f must not read it as --format
        f = families.add_parser(family, allow_abbrev=False)
        for opt in _FAMILIES[family][1]:
            f.add_argument(f"--{opt}", **_FAMILY_OPTIONS[opt])
        common(f, graphs_out=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="invariant report for input graphs")
    p.add_argument("--r", type=_int_at_least(2))
    p.add_argument("--q", type=_int_at_least(3))
    common(p, graphs_in=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("enumerate", help="non-isomorphic graphs of an order")
    p.add_argument("--n", type=_int_at_least(0), required=True)
    p.add_argument("--filter", default="none",
                   choices=[*_FILTERS, "kr1-free"])
    p.add_argument("--r", type=_int_at_least(1))
    common(p, graphs_out=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("saturate", help="greedy clique saturation")
    p.add_argument("--q", type=_int_at_least(3), required=True)
    common(p, graphs_in=True, graphs_out=True)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("blowup-opt", help="optimal blow-up weights")
    p.add_argument("--n", type=int, required=True, help="target order")
    common(p, graphs_in=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("extract-tripartite",
                       help="complete tripartite certificate")
    p.add_argument("--C-param", dest="c_param", type=_int_at_least(1), default=10)
    common(p, graphs_in=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="theorem verifications")
    checks = p.add_subparsers(dest="what", required=True)
    # each check takes only the options it reads
    for what in ("thm1", "thm2"):
        c = checks.add_parser(what)
        c.add_argument("--r", type=_int_at_least(2), default=2)
        c.add_argument("--n", required=True, help="order or range lo..hi")
        common(c)
    c = checks.add_parser("lambda")
    c.add_argument("--r", type=_int_at_least(2), default=2)
    c.add_argument("--k", type=_int_at_least(2), required=True)
    c.add_argument("--max-order", type=_int_at_least(1))
    c.add_argument("--budget", type=_int_at_least(0),
                   help="most graphs the lambda search examines "
                        "(needs --max-order)")
    common(c)
    common(checks.add_parser("lemmas"))
    p.set_defaults(func=cmd_verify)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.timing and getattr(args, "format", "json") != "json":
            raise ValueError("--timing requires --format json")
        return args.func(args)
    except CertificateError as exc:
        print(f"certificate validation failed: {exc} "
              f"(offender {exc.offender})", file=sys.stderr)
        return EXIT_MISMATCH
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except CliquePresentError as exc:
        print(f"precondition failed: {exc} (witness {exc.witness})",
              file=sys.stderr)
        return EXIT_USAGE
    except (EnumerationLimitError, SearchBudgetExceeded, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, EnumerationWorkerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
