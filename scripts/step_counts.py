"""Count the structural work one pass of a benchmark workload does.

Builds the workload's seeded inputs with ``bench/workloads.py`` and runs
its request list once, as a bench worker's pass does (loading each model
per request where the workload parses). It prints, for that pass: the
steps of the plans handed back, by kind (a ranking counts its
first-ranked plan, the one run on the tables); the nodes those plans
pruned before their steps, and of them the evidence nodes sliced out of
their children (``posterior`` prunes, the planners do not); the zero
rows those steps carry, i.e. the rows their runs filled with the uniform
distribution
(``rewrite`` reads 0, as ``refactor`` hands back no steps, though it fills
such rows too); the reversals run on the tables, and the cells of the
products the kernel lays out for them, (merged parents, y, x), where y's
axis holds only the observed outcome when y is a conditioning step's
evidence; and the calls of ``_restructure``, of ``node_depths`` (one
depth pass each) and of ``_flip`` (one reversal decided, and checked
against the reversal cell cap, each). The depth passes are split by where
they are made: at the engine's entry, ``_structure``, one per diagram
it checks in full, which every planner and transform starts from; in
``load``'s validation; and in the steps after the entry (a planner's
round, a sum-out's or ``refactor``'s pass after each reversal, and the
canonical order of the diagram a transform hands back). Last, the calls
of the entry, split into checks made in full and results reused: a
diagram ``load``, a transform or an earlier entry handed back or checked
carries its checked structure, so its queries, transforms and ``save``
reuse it instead of checking it again. The counts come from wrapping those functions, and the kernel,
for this run only.

Usage:
    python3 scripts/step_counts.py wide --seed 1
"""

import argparse
import collections
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import infdiag  # noqa: E402
import workloads  # noqa: E402
from infdiag import diagram, modelio, transform  # noqa: E402


def run(job: dict, req: dict, models: list):
    d = models[req["model"]]
    if job["parse"]:
        d = infdiag.load(d)
    op = req["op"]
    if op == "posterior":
        return [infdiag.posterior(d, req["target"], req["evidence"])[1]]
    if op == "dsep":
        infdiag.d_separated(d, req["a"], req["b"], req["given"])
        return []
    if op == "rewrite":
        infdiag.save(infdiag.refactor(d, req["order"]))
        return []
    if op == "greedy":
        return [infdiag.plan_reversals(d, req["target"], req["evidence"],
                                       "greedy")]
    return [infdiag.compare_orders(d, req["target"], req["evidence"],
                                   "exhaustive")[0][0]]


def counted(calls: collections.Counter):
    """Wrap ``node_depths``, ``_restructure``, ``_flip`` and the kernel
    wherever the package holds them, and ``_structure`` and ``load`` to
    tell where a depth pass is made; returns the function that undoes it."""
    kernel = transform._Work.run

    def run_counted(self, shape, reversals, *args, **kwargs):
        calls["reversals"] += len(reversals)
        # y's table keeps its outcome axis through the run, as it stands.
        calls["product cells"] += sum(
            diagram.row_count(map(self.arity.__getitem__, union + (x,)))
            * self.grid(y)[1].shape[-1] for x, y, union, _ in reversals)
        return kernel(self, shape, reversals, *args, **kwargs)

    originals = {diagram.node_depths: "node_depths",
                 transform._restructure: "_restructure",
                 transform._flip: "_flip",
                 transform._structure: "entry",
                 modelio.load: "load"}
    within = []  # the entry or load calls running
    undo = [lambda: setattr(transform._Work, "run", kernel)]
    transform._Work.run = run_counted
    for module in [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "infdiag"]:
        for attr, value in list(vars(module).items()):
            label = originals.get(value) if callable(value) else None
            if label is None:
                continue

            def wrapper(*args, _f=value, _label=label, **kwargs):
                if _label == "node_depths":
                    calls[within[-1] if within else "steps"] += 1
                elif _label in ("entry", "load"):
                    calls["entry calls"] += _label == "entry"
                    within.append(_label)
                    try:
                        return _f(*args, **kwargs)
                    finally:
                        within.pop()
                calls[_label] += 1
                return _f(*args, **kwargs)

            setattr(module, attr, wrapper)
            undo.append(lambda m=module, a=attr, v=value: setattr(m, a, v))
    return lambda: [u() for u in undo]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    job = workloads.build(args.workload, args.seed, ROOT)
    models = (job["models"] if job["parse"]
              else [infdiag.load(t) for t in job["models"]])
    calls = collections.Counter()
    kinds = collections.Counter()
    zero_rows = pruned = sliced = 0
    restore = counted(calls)
    try:
        for req in job["requests"]:
            for plan in run(job, req, models):
                kinds.update(s.kind for s in plan.steps)
                zero_rows += sum(len(s.zero_rows) for s in plan.steps)
                pruned += len(plan.pruned)
                sliced += sum(o is not None for _, o in plan.pruned)
    finally:
        restore()

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(job['requests'])} requests, one pass")
    print("  steps: " + (", ".join(f"{k} {n}" for k, n in sorted(kinds.items()))
                         or "none"))
    print(f"  pruned: {pruned}, of them evidence sliced: {sliced}")
    print(f"  zero rows: {zero_rows}")
    for label in ("reversals", "product cells", "_restructure"):
        print(f"  {label}: {calls[label]}")
    print(f"  node_depths: {calls['node_depths']} = entry {calls['entry']}"
          f" + load {calls['load']} + steps {calls['steps']}")
    print(f"  _flip: {calls['_flip']}")
    # A full check makes the entry's one depth pass; a reused one makes none.
    print(f"  entry checks: {calls['entry calls']} = made {calls['entry']}"
          f" + reused {calls['entry calls'] - calls['entry']}")


if __name__ == "__main__":
    main()
