"""Referee: every timed answer is checked against an independent answer.

Runs in the parent process, after the timed passes. Posteriors are held to
the enumeration oracle, d-separation verdicts to the ancestral moral-graph
test below, rewritten models to the input's joint, and plans to a
step-by-step re-execution. A check returns ``None`` when the answer holds,
or a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math

import numpy as np

import infdiag
from infdiag.transform import TransformStep, apply_step

TV_TOL = 1e-10


def total_variation(p, q) -> float:
    p, q = np.asarray(p, float), np.asarray(q, float)
    if p.shape != q.shape:
        return math.inf
    return 0.5 * float(np.abs(p - q).sum())


def moral_separated(doc: dict, a: str, b: str, given) -> bool:
    """d-separation by the ancestral moral graph: keep a, b, the given set
    and their ancestors; marry co-parents; drop directions and the given
    nodes; a and b are separated iff no path joins them."""
    parents = {n["name"]: n["parents"] for n in doc["nodes"]}
    keep, stack = set(), [a, b, *given]
    while stack:
        n = stack.pop()
        if n not in keep:
            keep.add(n)
            stack.extend(parents[n])
    adj = {n: set() for n in keep}
    for n in keep:
        ps = parents[n]
        for i, p in enumerate(ps):
            adj[n].add(p)
            adj[p].add(n)
            for q in ps[i + 1:]:
                adj[p].add(q)
                adj[q].add(p)
    blocked = set(given)
    seen, stack = {a}, [a]
    while stack:
        for m in adj[stack.pop()]:
            if m == b:
                return False
            if m not in seen and m not in blocked:
                seen.add(m)
                stack.append(m)
    return True


def marginal_of_root(diagram, target) -> list[float]:
    """The lone root's distribution, read through the file format; empty
    unless the target is the only node left."""
    nodes = json.loads(infdiag.save(diagram))["nodes"]
    if len(nodes) != 1 or nodes[0]["name"] != target:
        return []
    node = nodes[0]
    if node["kind"] == "deterministic":
        vec = [0.0] * len(node["outcomes"])
        vec[node["function"][0]] = 1.0
        return vec
    return node["cpt"][0]


class Referee:
    def __init__(self, job: dict):
        self.job = job
        self._diagrams: dict[int, object] = {}
        self._joints: dict[int, object] = {}
        self._oracle: dict[int, np.ndarray] = {}

    def diagram(self, model: int):
        if model not in self._diagrams:
            self._diagrams[model] = infdiag.load(self.job["models"][model])
        return self._diagrams[model]

    def joint(self, model: int):
        if model not in self._joints:
            self._joints[model] = infdiag.joint_table(self.diagram(model))
        return self._joints[model]

    def oracle(self, i: int, req: dict) -> np.ndarray:
        """The oracle's posterior, sliced from the model's joint, which is
        enumerated once per model rather than once per query."""
        if i not in self._oracle:
            table = self.joint(req["model"])
            sel = [slice(None)] * len(table.variables)
            for name, label in req["evidence"].items():
                sel[table.axis(name)] = table.outcomes[table.axis(name)].index(label)
            free = [v for v in table.variables if v not in req["evidence"]]
            keep = free.index(req["target"])
            vec = table.probs[tuple(sel)].sum(
                axis=tuple(k for k in range(len(free)) if k != keep))
            self._oracle[i] = vec / vec.sum()
        return self._oracle[i]

    def check(self, i: int, out) -> str | None:
        req = self.job["requests"][i]
        if out is None:
            return "raised"
        op = req["op"]
        if op == "posterior":
            tv = total_variation(out["vec"], self.oracle(i, req))
            return None if tv <= TV_TOL else f"posterior off the oracle by TV {tv:.3g}"
        if op == "dsep":
            doc = json.loads(self.job["models"][req["model"]])
            want = moral_separated(doc, req["a"], req["b"], req["given"])
            return None if out["sep"] == want else f"d_separated said {out['sep']}"
        if op == "rewrite":
            return self.check_rewrite(req, out["text"])
        if op == "greedy":
            return self.check_plan(i, req, out)
        return self.check_ranking(i, req, out["ranked"])

    def check_rewrite(self, req: dict, text: str) -> str | None:
        try:
            got = infdiag.load(text)
        except infdiag.EngineError as err:
            return f"output does not load: {err}"
        docs = [json.loads(t) for t in (self.job["models"][req["model"]], text)]
        labels = [{n["name"]: n["outcomes"] for n in d["nodes"]} for d in docs]
        if labels[0] != labels[1]:
            return "output has other variables or outcomes"
        rank = {n: k for k, n in enumerate(req["order"])}
        for node in docs[1]["nodes"]:
            for p in node["parents"]:
                if rank[p] > rank[node["name"]]:
                    return f"arc {p} -> {node['name']} points backward"
        before = self.joint(req["model"])
        after = infdiag.joint_table(got)
        tv = total_variation(after.reordered(before.variables), before.probs)
        return None if tv <= TV_TOL else f"joint changed by TV {tv:.3g}"

    def replay(self, i: int, req: dict, plan: dict) -> str | None:
        """Re-execute a plan with ``apply_step``; it must reproduce every
        step's costs and end at the oracle posterior."""
        d = self.diagram(req["model"])
        conditioned = {}
        for kind, node, other, outcome, added, touched in plan["steps"]:
            d, step = apply_step(d, TransformStep(kind, node, other, outcome))
            if (step.added_arcs, step.parameters_touched) != (added, touched):
                return f"step {step.encode()} costs differ on replay"
            if kind == "condition":
                conditioned[node] = outcome
        if conditioned != req["evidence"]:
            return "plan does not condition on exactly the evidence"
        if (sum(s[4] for s in plan["steps"]), sum(s[5] for s in plan["steps"])) \
                != (plan["added"], plan["touched"]):
            return "plan totals are not the sums of its steps"
        vec = marginal_of_root(d, req["target"])
        tv = total_variation(vec, self.oracle(i, req))
        return None if tv <= TV_TOL else f"plan ends off the oracle by TV {tv:.3g}"

    def check_plan(self, i: int, req: dict, plan: dict) -> str | None:
        try:
            return self.replay(i, req, plan)
        except infdiag.EngineError as err:
            return f"plan does not replay: {err}"

    def check_ranking(self, i: int, req: dict, ranked: list) -> str | None:
        others = sorted(n for n in self.diagram(req["model"]).nodes
                        if n != req["target"])
        orders = {tuple(s[1] for s in plan["steps"]) for plan in ranked}
        if len(ranked) != math.factorial(len(others)) or len(orders) != len(ranked):
            return f"{len(orders)} distinct orders of {len(ranked)}, want {len(others)}!"
        if any(sorted(o) != others for o in orders):
            return "a ranked order is not a permutation of the non-target nodes"
        costs = [plan["added"] for plan in ranked]
        if costs != sorted(costs):
            return "ranked costs are not in non-decreasing order"
        return self.check_plan(i, req, ranked[0])


def structure(job: dict, i: int, out) -> tuple[int, int]:
    """(arcs added, parameters touched) of one answer; see BENCHMARK.json."""
    req = job["requests"][i]
    op = req["op"]
    if out is None or op == "dsep":
        return 0, 0
    if op in ("posterior", "greedy"):
        return out["added"], out["touched"]
    if op == "compare":
        return (sum(p["added"] for p in out["ranked"]),
                sum(p["touched"] for p in out["ranked"]))
    arcs = [sum(len(n["parents"]) for n in json.loads(text)["nodes"])
            for text in (job["models"][req["model"]], out["text"])]
    params = infdiag.complexity(infdiag.load(out["text"])).free_parameter_count
    return arcs[1] - arcs[0], params
