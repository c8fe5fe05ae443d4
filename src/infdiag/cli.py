"""Command line front end.

One subcommand per engine operation. Models travel as JSON files in the
format described in modelio; transformed models are written back in the
same format (to stdout, or to a file with -o).

Exit codes: 0 on success, 1 when the engine rejects the request (the
error prints to stderr as ``ErrorName: message``), 2 for usage errors.
Probabilities print with 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    EngineError,
    InvalidDiagram,
    InvalidParameters,
    ParseError,
)
from .inference import compare_orders, complexity, d_separated, posterior
from .modelio import (
    builtin_example,
    builtin_names,
    export_dot,
    gen_random,
    load,
    parse_document,
    save,
)
from .transform import refactor, reverse_arc, sum_out


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text: {err.reason} "
                         f"at byte {err.start}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- argument value parsers (syntax errors exit 2 via argparse) ---------------

def _evidence_term(text: str) -> list[tuple[str, str]]:
    pairs = []
    for pair in text.split(","):
        name, sep, outcome = pair.partition("=")
        if not sep or not name or not outcome:
            raise argparse.ArgumentTypeError(
                f"bad evidence term {pair!r}, expected NAME=OUTCOME")
        pairs.append((name, outcome))
    return pairs


def _arc_term(text: str) -> tuple[str, str]:
    src, sep, dst = text.partition(":")
    if not sep or not src or not dst:
        raise argparse.ArgumentTypeError(
            f"bad arc {text!r}, expected FROM:TO")
    return src, dst


def _name_list(text: str) -> list[str]:
    names = text.split(",")
    if any(not n for n in names):
        raise argparse.ArgumentTypeError(
            f"bad name list {text!r}, expected A,B,C")
    return names


def _merge_evidence(chunks) -> dict[str, str]:
    ev: dict[str, str] = {}
    for chunk in chunks:
        for name, outcome in chunk:
            if name in ev:
                raise InvalidParameters(
                    f"evidence given twice for node '{name}'")
            ev[name] = outcome
    return ev


# -- subcommands ----------------------------------------------------------------

def _cmd_validate(args) -> int:
    diagram, report = parse_document(_read(args.file))
    if not report.ok:
        raise InvalidDiagram(report)
    print(f"ok: {len(diagram.nodes)} node(s), {len(diagram.arcs)} arc(s)")
    return 0


def _cmd_query(args) -> int:
    diagram = load(_read(args.file))
    evidence = _merge_evidence(args.evidence)
    vec, plan = posterior(diagram, args.target, evidence)
    outcomes = diagram.nodes[args.target].outcomes

    if args.format == "json":
        doc = {
            "target": args.target,
            "evidence": evidence,
            "posterior": {o: float(f"{p:.12g}")
                          for o, p in zip(outcomes, vec)},
        }
        if args.explain:
            doc["plan"] = {
                "steps": [s.encode() for s in plan.steps],
                "total_added_arcs": plan.total_added_arcs,
                "total_parameters_touched": plan.total_parameters_touched,
            }
        print(json.dumps(doc))
        return 0

    cond = ""
    if evidence:
        cond = " | " + ", ".join(f"{n}={o}" for n, o in evidence.items())
    for o, p in zip(outcomes, vec):
        print(f"P({args.target}={o}{cond}) = {p:.12g}")
    if args.explain:
        print(f"plan ({len(plan.steps)} steps, "
              f"{plan.total_added_arcs} arcs added, "
              f"{plan.total_parameters_touched} parameters touched):")
        for i, step in enumerate(plan.steps, 1):
            print(f"  {i}. {step.encode()}")
    return 0


def _cmd_reverse(args) -> int:
    diagram = load(_read(args.file))
    src, dst = args.arc
    _emit(save(reverse_arc(diagram, src, dst)), args.output)
    return 0


def _cmd_refactor(args) -> int:
    diagram = load(_read(args.file))
    _emit(save(refactor(diagram, args.order)), args.output)
    return 0


def _cmd_sumout(args) -> int:
    diagram = load(_read(args.file))
    _emit(save(sum_out(diagram, args.node)), args.output)
    return 0


def _cmd_metrics(args) -> int:
    diagram = load(_read(args.file))
    m = complexity(diagram)
    print(f"nodes: {len(diagram.nodes)}")
    print(f"arcs: {m.arc_count}")
    print(f"free parameters: {m.free_parameter_count}")
    return 0


def _cmd_orders(args) -> int:
    diagram = load(_read(args.file))
    evidence = _merge_evidence(args.evidence)
    ranked = compare_orders(diagram, args.target, evidence, mode=args.mode)
    print("rank  added_arcs  peak_arcs  peak_params  order")
    for i, (plan, peak) in enumerate(ranked, 1):
        order = ",".join(s.node for s in plan.steps)
        print(f"{i:>4}  {plan.total_added_arcs:>10}  {peak.arc_count:>9}  "
              f"{peak.free_parameter_count:>11}  {order}")
    return 0


def _cmd_export_dot(args) -> int:
    sys.stdout.write(export_dot(load(_read(args.file))))
    return 0


def _cmd_example(args) -> int:
    _emit(save(builtin_example(args.name)), args.output)
    return 0


def _cmd_gen_random(args) -> int:
    diagram = gen_random(args.nodes, args.max_outcomes, args.density,
                         args.det_fraction, args.seed)
    _emit(save(diagram), args.output)
    return 0


def _cmd_independent(args) -> int:
    diagram = load(_read(args.file))
    given = args.given if args.given else []
    print("yes" if d_separated(diagram, args.a, args.b, given) else "no")
    return 0


# -- wiring ----------------------------------------------------------------------

# Built once per process: parsing reads the parser and never changes it,
# and a build costs milliseconds, more than most commands' own work.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infdiag",
        description="Author, transform and query discrete influence diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = cmd("validate", _cmd_validate, "check a model file against every invariant")
    p.add_argument("file")

    p = cmd("query", _cmd_query, "posterior over a target given evidence")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", action="append", type=_evidence_term,
                   default=[], metavar="NAME=OUTCOME[,NAME=OUTCOME...]")
    p.add_argument("--explain", action="store_true",
                   help="also print the transform plan")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = cmd("reverse", _cmd_reverse, "reverse one arc and print the new model")
    p.add_argument("file")
    p.add_argument("--arc", required=True, type=_arc_term, metavar="FROM:TO")
    p.add_argument("-o", "--output")

    p = cmd("refactor", _cmd_refactor,
            "rewrite the model so node order matches --order")
    p.add_argument("file")
    p.add_argument("--order", required=True, type=_name_list, metavar="A,B,C")
    p.add_argument("-o", "--output")

    p = cmd("sumout", _cmd_sumout, "marginalize one node out of the model")
    p.add_argument("file")
    p.add_argument("--node", required=True)
    p.add_argument("-o", "--output")

    p = cmd("metrics", _cmd_metrics, "arc and parameter counts")
    p.add_argument("file")

    p = cmd("orders", _cmd_orders,
            "rank elimination orderings for a query by arc fill-in")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", action="append", type=_evidence_term,
                   default=[], metavar="NAME=OUTCOME[,NAME=OUTCOME...]")
    p.add_argument("--mode", choices=("exhaustive", "greedy-sample"),
                   default="exhaustive")

    p = cmd("export-dot", _cmd_export_dot, "render the model as Graphviz DOT")
    p.add_argument("file")

    p = cmd("example", _cmd_example, "write a built-in example model")
    p.add_argument("name", help=f"one of: {', '.join(builtin_names())}")
    p.add_argument("-o", "--output")

    p = cmd("gen-random", _cmd_gen_random, "write a seeded random model")
    p.add_argument("--nodes", required=True, type=int)
    p.add_argument("--max-outcomes", type=int, default=3)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--det-fraction", type=float, default=0.2)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("-o", "--output")

    p = cmd("independent", _cmd_independent,
            "test graphical independence (d-separation)")
    p.add_argument("file")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--given", type=_name_list, default=[], metavar="A,B,C")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
