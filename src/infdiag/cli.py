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

from .diagram import Diagram
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


# -- argument value parsers (syntax errors exit 2 via argparse) ---------------

def _pair(text: str, sep: str, what: str, form: str) -> tuple[str, str]:
    first, found, second = text.partition(sep)
    if not found or not first or not second:
        raise argparse.ArgumentTypeError(
            f"bad {what} {text!r}, expected {form}")
    return first, second


def _evidence_term(text: str) -> list[tuple[str, str]]:
    return [_pair(term, "=", "evidence term", "NAME=OUTCOME")
            for term in text.split(",")]


def _arc_term(text: str) -> tuple[str, str]:
    return _pair(text, ":", "arc", "FROM:TO")


def _name_list(text: str) -> list[str]:
    names = text.split(",")
    if any(not n for n in names):
        raise argparse.ArgumentTypeError(
            f"bad name list {text!r}, expected A,B,C")
    return names


def _merge_evidence(pairs) -> dict[str, str]:
    ev: dict[str, str] = {}
    for name, outcome in pairs:
        if name in ev:
            raise InvalidParameters(f"evidence given twice for node '{name}'")
        ev[name] = outcome
    return ev


# -- subcommands: each maps (args, model file text) to a Diagram or to text ----

def _cmd_validate(args, text: str) -> str:
    diagram, report = parse_document(text)
    if not report.ok:
        raise InvalidDiagram(report)
    return f"ok: {len(diagram.nodes)} node(s), {len(diagram.arcs)} arc(s)\n"


def _cmd_query(args, text: str) -> str:
    diagram = load(text)
    evidence = _merge_evidence(args.evidence)
    vec, plan = posterior(diagram, args.target, evidence)
    pruned = [f"drop:{n}" if o is None else f"slice:{n}={o}"
              for n, o in plan.pruned]
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
                **({"pruned": pruned} if pruned else {}),
                "steps": [s.encode() for s in plan.steps],
                "total_added_arcs": plan.total_added_arcs,
                "total_parameters_touched": plan.total_parameters_touched,
            }
        return json.dumps(doc) + "\n"

    cond = ""
    if evidence:
        cond = " | " + ", ".join(f"{n}={o}" for n, o in evidence.items())
    lines = [f"P({args.target}={o}{cond}) = {p:.12g}"
             for o, p in zip(outcomes, vec)]
    if args.explain:
        lines.append(f"plan ({len(plan.steps)} steps, "
                     f"{plan.total_added_arcs} arcs added, "
                     f"{plan.total_parameters_touched} parameters touched):")
        if pruned:
            lines.append("  pruned: " + ", ".join(pruned))
        lines += [f"  {i}. {step.encode()}"
                  for i, step in enumerate(plan.steps, 1)]
    return "\n".join(lines) + "\n"


def _cmd_reverse(args, text: str) -> Diagram:
    return reverse_arc(load(text), *args.arc)


def _cmd_refactor(args, text: str) -> Diagram:
    return refactor(load(text), args.order)


def _cmd_sumout(args, text: str) -> Diagram:
    return sum_out(load(text), args.node)


def _cmd_metrics(args, text: str) -> str:
    diagram = load(text)
    m = complexity(diagram)
    return (f"nodes: {len(diagram.nodes)}\n"
            f"arcs: {m.arc_count}\n"
            f"free parameters: {m.free_parameter_count}\n")


def _cmd_orders(args, text: str) -> str:
    ranked = compare_orders(load(text), args.target,
                            _merge_evidence(args.evidence), mode=args.mode)
    lines = ["rank  added_arcs  peak_arcs  peak_params  order"]
    for i, (plan, peak) in enumerate(ranked, 1):
        order = ",".join(s.node for s in plan.steps)
        lines.append(f"{i:>4}  {plan.total_added_arcs:>10}  {peak.arc_count:>9}"
                     f"  {peak.free_parameter_count:>11}  {order}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args, text: str) -> str:
    return export_dot(load(text))


def _cmd_example(args, text: None) -> Diagram:
    return builtin_example(args.name)


def _cmd_gen_random(args, text: None) -> Diagram:
    return gen_random(args.nodes, args.max_outcomes, args.density,
                      args.det_fraction, args.seed)


def _cmd_independent(args, text: str) -> str:
    separated = d_separated(load(text), args.a, args.b, args.given)
    return "yes\n" if separated else "no\n"


# -- wiring ----------------------------------------------------------------------

# Built once per process: parsing reads the parser and never changes it,
# and a build costs milliseconds, more than most commands' own work.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infdiag",
        description="Author, transform and query discrete influence diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help, *, file=True, query=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, file=None, output=None)
        if file:
            p.add_argument("file")
        if query:
            p.add_argument("--target", required=True)
            p.add_argument("--evidence", action="extend", type=_evidence_term,
                           default=[], metavar="NAME=OUTCOME[,NAME=OUTCOME...]")
        return p

    cmd("validate", _cmd_validate, "check a model file against every invariant")

    p = cmd("query", _cmd_query, "posterior over a target given evidence",
            query=True)
    p.add_argument("--explain", action="store_true",
                   help="also print the transform plan")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = cmd("reverse", _cmd_reverse, "reverse one arc and print the new model")
    p.add_argument("--arc", required=True, type=_arc_term, metavar="FROM:TO")

    p = cmd("refactor", _cmd_refactor,
            "rewrite the model so node order matches --order")
    p.add_argument("--order", required=True, type=_name_list, metavar="A,B,C")

    p = cmd("sumout", _cmd_sumout, "marginalize one node out of the model")
    p.add_argument("--node", required=True)

    cmd("metrics", _cmd_metrics, "arc and parameter counts")

    p = cmd("orders", _cmd_orders,
            "rank elimination orderings for a query by arc fill-in", query=True)
    p.add_argument("--mode", choices=("exhaustive", "greedy-sample"),
                   default="exhaustive")

    cmd("export-dot", _cmd_export_dot, "render the model as Graphviz DOT")

    p = cmd("example", _cmd_example, "write a built-in example model",
            file=False)
    p.add_argument("name", help=f"one of: {', '.join(builtin_names())}")

    p = cmd("gen-random", _cmd_gen_random, "write a seeded random model",
            file=False)
    p.add_argument("--nodes", required=True, type=int)
    p.add_argument("--max-outcomes", type=int, default=3)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--det-fraction", type=float, default=0.2)
    p.add_argument("--seed", required=True, type=int)

    p = cmd("independent", _cmd_independent,
            "test graphical independence (d-separation)")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--given", type=_name_list, default=[], metavar="A,B,C")

    for name in ("reverse", "refactor", "sumout", "example", "gen-random"):
        sub.choices[name].add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = None if args.file is None else _read(args.file)
        result = args.func(args, text)
        if isinstance(result, Diagram):
            result = save(result)
        if args.output is None:
            sys.stdout.write(result)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(result)
    except (EngineError, OSError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
