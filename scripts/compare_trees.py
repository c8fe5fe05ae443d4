"""Time one probe on two source trees side by side in one process.

Imports each tree's ``src/infdiag`` under its own package name, builds a
workload's seeded inputs with the first tree's ``bench/workloads.py``
(which sees the first tree's package as ``infdiag``), and checks that both
trees give the same answers (posterior vectors identical, if only their
plans differ). Then it times the probe, one pass per tree per round, the
tree that runs first alternating from round to round, timing each item of
the pass (a request, a model text or a model) on its own. It prints each
tree's median and quartiles of the pass times, the rounds the second tree
won, and the ratio of the medians (second / first: under 1, the second
tree is faster). Whole passes on a shared host swing by more than a few
percent, so it also prints each tree's sum over items of the item's
least time over the rounds, and the ratio of those sums, which resolves
a few percent. Both trees run in one interpreter, so a drift in the
host's speed falls on both alike.

The tree imported first reads a few percent faster or slower by position
alone, so the script then runs itself again in a fresh interpreter with
the trees swapped, and ends with the per-item-minima ratio (second tree
over first, as given) of each order and their geometric mean, in which
that bias cancels.

It also reports the same ratio over the slowest tenth of the items (a
tenth rounded up), in both orders and their geometric mean. The items are
ranked once, by the sum of all four per-item minima (both trees, both
orders), so both orders sum the same items. A change that cuts a
per-query fixed cost must not slow the queries where it saves least:
``diagnose``'s 40 slowest requests of 400 (``--probe loop --workload
diagnose``) must read at most 1.00 in both orders.

Probes:
    load   ``load`` of each request's model text, over the request list
           (on every workload, though ``wide`` and ``plan`` load only in
           their set-up)
    loop   the whole request list, as a bench worker's pass runs it
    save   ``save`` of each of the workload's models; on ``rewrite``, of
           each request's refactored model, as the workload saves it; both
           trees must write the same text
    validate
           ``validate`` of each of the workload's models, once
    sweep  exhaustive ``plan_reversals`` and ``compare_orders`` on the
           9-node sweep model, ``gen_random(9, 3, 0.4, 0.2, 3)``, target
           ``v0``, no evidence; both trees must give the same plan and the
           same ranking, and each item's ratio is printed on its own
    greedy greedy ``plan_reversals`` on ``gen_random(n, 2, 2/n, 0, 5)``
           at 100, 400 and 1,600 nodes, target ``v0``, the last 8 nodes
           observed at their first outcome (ROADMAP item 2's probe); both
           trees must give the same plan, and each size's ratio is printed
           on its own

``--workload`` is one of ``bench/workloads.py``'s, as for
``scripts/step_counts.py``. The sweep and greedy probes build their own
models, but the answers to the workload's requests are still checked.

Usage (``--rounds`` is at least 2, for the quartiles):
    python3 scripts/compare_trees.py PARENT CHANGE --probe load \\
        --workload diagnose --seed 1 --rounds 20
"""

import argparse
import gc
import importlib.util
import json
import math
import pathlib
import statistics
import subprocess
import sys
import time


def import_tree(root: pathlib.Path, alias: str):
    """The package at ``root/src/infdiag``, imported as ``alias``."""
    init = root / "src" / "infdiag" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


def run(pkg, job: dict, req: dict, model):
    """One request, as ``bench/worker.py`` runs it."""
    d = pkg.load(model) if job["parse"] else model
    op = req["op"]
    if op == "posterior":
        return pkg.posterior(d, req["target"], req["evidence"])
    if op == "dsep":
        return pkg.d_separated(d, req["a"], req["b"], req["given"])
    if op == "rewrite":
        return pkg.save(pkg.refactor(d, req["order"]))
    if op == "greedy":
        return pkg.plan_reversals(d, req["target"], req["evidence"], "greedy")
    return pkg.compare_orders(d, req["target"], req["evidence"], "exhaustive")


GREEDY_SIZES = (100, 400, 1600)
# The probes whose items are each printed with their own ratio.
ITEMS = {"sweep": ("exhaustive plan_reversals", "exhaustive compare_orders"),
         "greedy": tuple(f"greedy plan_reversals, {n} nodes"
                         for n in GREEDY_SIZES)}
# bench/workloads.py's WORKLOADS, known before either tree is imported.
WORKLOADS = ("diagnose", "plan", "rewrite", "wide")


def greedy_query(pkg, n: int):
    """The greedy probe's call at ``n`` nodes."""
    d = pkg.gen_random(n, 2, 2 / n, 0, 5)
    evidence = {f"v{i}": d.nodes[f"v{i}"].outcomes[0]
                for i in range(n - 8, n)}
    return lambda: pkg.plan_reversals(d, "v0", evidence, "greedy")


def probes(pkg, job: dict) -> dict:
    """The tree's probes by name, each a pass as a list of calls, one per
    item."""
    texts = [job["models"][r["model"]] for r in job["requests"]]
    diagrams = [pkg.load(t) for t in job["models"]]
    models = job["models"] if job["parse"] else diagrams
    saved = [pkg.refactor(diagrams[r["model"]], r["order"])
             for r in job["requests"] if r["op"] == "rewrite"] or diagrams
    sweep = pkg.gen_random(9, 3, 0.4, 0.2, 3)
    return {
        "load": [lambda t=t: pkg.load(t) for t in texts],
        "loop": [lambda r=r: run(pkg, job, r, models[r["model"]])
                 for r in job["requests"]],
        "save": [lambda d=d: pkg.save(d) for d in saved],
        "validate": [lambda d=d: pkg.validate(d) for d in diagrams],
        "sweep": [
            lambda: pkg.plan_reversals(sweep, "v0", {}, "exhaustive"),
            lambda: pkg.compare_orders(sweep, "v0", {}, "exhaustive")],
        "greedy": [greedy_query(pkg, n) for n in GREEDY_SIZES],
    }


def plain(plan) -> list:
    """A plan's steps and totals as plain data."""
    return [[(s.encode(), s.added_arcs, s.parameters_touched, s.zero_rows)
             for s in plan.steps],
            plan.total_added_arcs, plan.total_parameters_touched]


def sweep_answers(probe: list) -> list:
    """The sweep probe's plan, and its ranking with each plan's peak, as
    plain data."""
    plan, ranking = (call() for call in probe)
    return [plain(plan), [plain(p) + [m.arc_count, m.free_parameter_count]
                          for p, m in ranking]]


def summary(times: list) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return f"median {q2 * 1e3:.2f} ms, quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f}"


def parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=pathlib.Path)
    ap.add_argument("second", type=pathlib.Path)
    ap.add_argument("--probe", default="load",
                    choices=("load", "loop", "save", "validate", "sweep",
                             "greedy"))
    ap.add_argument("--workload", default="diagnose", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("--rounds must be at least 2: the quartiles of the pass "
                 "times need two passes per tree")
    return args


def measure(args: argparse.Namespace) -> list:
    """Time the probe on the trees in the order given, print the report,
    and return the ratios as [label, ratio] pairs (the ratio of the sums
    of per-item minima, second / first, then, for the sweep and greedy
    probes, each item's ratio of minima) and each tree's per-item minima."""
    a, b = (import_tree(t.resolve(), f"tree_{k}")
            for k, t in zip("ab", (args.first, args.second)))
    sys.modules["infdiag"] = a
    sys.path[:0] = [str(args.first.resolve() / "bench")]
    import workloads
    from worker import encode

    job = workloads.build(args.workload, args.seed, args.first.resolve())
    if any(a.save(a.load(t)) != b.save(b.load(t)) for t in job["models"]):
        sys.exit("save(load(text)) differs between the trees")
    pa, pb = probes(a, job), probes(b, job)
    answers = [[encode(r["op"], call()) for r, call in zip(job["requests"], p)]
               for p in (pa["loop"], pb["loop"])]
    same = "answers identical"
    if answers[0] != answers[1]:
        vectors = [[x.get("vec", x) for x in side] for side in answers]
        if vectors[0] != vectors[1]:
            sys.exit("the trees answer differently")
        same = "posterior vectors identical, plans differ"
    if args.probe == "sweep" and (sweep_answers(pa["sweep"])
                                  != sweep_answers(pb["sweep"])):
        sys.exit("the trees plan or rank the sweep differently")
    if args.probe == "save" and ([call() for call in pa["save"]]
                                 != [call() for call in pb["save"]]):
        sys.exit("the trees save differently")
    if args.probe == "greedy" and ([plain(c()) for c in pa["greedy"]]
                                   != [plain(c()) for c in pb["greedy"]]):
        sys.exit("the trees plan the greedy probe differently")

    items = len(pa[args.probe])
    times: tuple[list, list] = ([], [])
    least = ([float("inf")] * items, [float("inf")] * items)
    for k in range(args.rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            gc.collect()
            total = 0.0
            for i, call in enumerate((pa, pb)[side][args.probe]):
                t = time.perf_counter()
                call()
                t = time.perf_counter() - t
                total += t
                least[side][i] = min(least[side][i], t)
            times[side].append(total)
    wins = sum(tb < ta for ta, tb in zip(*times))
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    floor = [sum(m) for m in least]
    print(f"{args.probe} on {args.workload}, seed {args.seed}, "
          f"{args.rounds} rounds; {same}")
    print(f"  first:  {summary(times[0])}")
    print(f"  second: {summary(times[1])}")
    print(f"  second won {wins} of {args.rounds}; ratio {ratio:.3f}")
    print(f"  sum of {items} per-item minima: first {floor[0] * 1e3:.2f} ms, "
          f"second {floor[1] * 1e3:.2f} ms; ratio {floor[1] / floor[0]:.3f}")
    ratios = [["per-item minima", floor[1] / floor[0]]]
    for label, ta, tb in zip(ITEMS.get(args.probe, ()), *least):
        print(f"  {label}: least first {ta * 1e3:.2f} ms, "
              f"second {tb * 1e3:.2f} ms; ratio {tb / ta:.3f}")
        ratios.append([f"{label}, least", tb / ta])
    return [ratios, least]


def main() -> None:
    args = parse()
    ratios, least = measure(args)
    # The same run with the trees swapped, in an interpreter that has
    # imported neither; its last line of output is its ratios and minima.
    here = str(pathlib.Path(__file__).resolve().parent)
    rerun = (f"import sys, json; sys.path.insert(0, {here!r}); "
             "import compare_trees as c; "
             "print(json.dumps(c.measure(c.parse())))")
    argv = [str(args.second), str(args.first), "--probe", args.probe,
            "--workload", args.workload, "--seed", str(args.seed),
            "--rounds", str(args.rounds)]
    sys.stdout.flush()
    out = subprocess.run([sys.executable, "-c", rerun, *argv], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.splitlines()
    print("swapped:", *out[:-1], sep="\n")
    back, least_back = json.loads(out[-1])
    rows = [(label, ratio, 1 / b)  # swapped, as second / first as given
            for (label, ratio), (_, b) in zip(ratios, back)]
    # Each run's minima as (first tree, second tree), in the order given.
    runs = (least, least_back[::-1])
    items = len(least[0])
    slow = sorted(range(items), reverse=True,
                  key=lambda i: sum(m[i] for run in runs for m in run))
    slow = slow[:math.ceil(items / 10)]
    rows.insert(1, (f"the {len(slow)} slowest items' minima", *(
        sum(run[1][i] for i in slow) / sum(run[0][i] for i in slow)
        for run in runs)))
    for label, ratio, swapped in rows:
        print(f"{label}, second / first: {ratio:.3f} in the order given, "
              f"{swapped:.3f} swapped; geometric mean "
              f"{math.sqrt(ratio * swapped):.3f}")


if __name__ == "__main__":
    main()
