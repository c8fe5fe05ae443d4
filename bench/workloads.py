"""Seeded inputs for the four benchmark workloads.

Each workload has a fixed corpus of model structures, drawn once from the
package's own seeded generator ``gen_random`` (plus, for ``diagnose``, the
committed ``docs/fig*.json`` files), and a fixed list of query shapes on
it: targets and evidence nodes, refactor orders. ``--seed`` draws the
numbers: every conditional probability row and deterministic function
entry of the generated models (by ``gen_random``'s own rule), and the
evidence values, read off an ancestral sample. Every input is a function
of (workload, seed) alone.

The split keeps the work per pass, which follows the structure, the same
from seed to seed. Drawing fresh structures per seed made ``ops_per_s``
differ by up to 2.4x between seeds on ``wide``, ``rewrite`` and ``plan``,
because the cost of a random model and query is heavy-tailed; no bound of
25% could hold that.

Models are handed to the timed process as model-format JSON text. Inputs
are built from the JSON documents (parent lists and tables as the file
format writes them), so input generation does not depend on the engine's
in-memory table layout.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import infdiag

# The referee enumerates each model's full joint; the oracle refuses more.
MAX_JOINT_ENTRIES = 2 ** 22

FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b")


def topo_names(doc: dict) -> list[str]:
    """Node names of a model document, parents before children."""
    parents = {n["name"]: n["parents"] for n in doc["nodes"]}
    done: list[str] = []
    seen: set[str] = set()
    while len(done) < len(parents):
        for name, ps in parents.items():
            if name not in seen and all(p in seen for p in ps):
                seen.add(name)
                done.append(name)
    return done


def sample_assignment(doc: dict, rng: random.Random) -> dict[str, int]:
    """One ancestral sample; it has positive probability by construction."""
    nodes = {n["name"]: n for n in doc["nodes"]}
    value: dict[str, int] = {}
    for name in topo_names(doc):
        node = nodes[name]
        row = 0
        for p in node["parents"]:
            row = row * len(nodes[p]["outcomes"]) + value[p]
        if node["kind"] == "deterministic":
            value[name] = node["function"][row]
        else:
            weights = node["cpt"][row]
            value[name] = rng.choices(range(len(weights)), weights=weights)[0]
    return value


def joint_entries(doc: dict) -> int:
    total = 1
    for n in doc["nodes"]:
        total *= len(n["outcomes"])
    return total


def query(doc: dict, rng: random.Random, max_evidence: int) -> dict:
    """Random target and 1..max_evidence other nodes as evidence."""
    names = [n["name"] for n in doc["nodes"]]
    target = rng.choice(names)
    pool = [n for n in names if n != target]
    k = rng.randint(1, min(max_evidence, len(pool)))
    return {"target": target, "evidence": rng.sample(pool, k)}


def diagnostic_query(doc: dict, rng: random.Random, max_evidence: int) -> dict:
    """The paper's use: a cause as target (one of the first quarter of the
    nodes in causal order) and 1..max_evidence findings from the last
    third as evidence."""
    names = topo_names(doc)
    target = rng.choice(names[:-(-len(names) // 4)])
    pool = [n for n in names[-(-len(names) // 3):] if n != target]
    k = rng.randint(1, min(max_evidence, len(pool)))
    return {"target": target, "evidence": rng.sample(pool, k)}


def observe(doc: dict, shape: dict, rng: random.Random) -> dict:
    """A query of the given shape, its evidence values read off a sample."""
    labels = {n["name"]: n["outcomes"] for n in doc["nodes"]}
    sample = sample_assignment(doc, rng)
    return {"target": shape["target"],
            "evidence": {v: labels[v][sample[v]] for v in shape["evidence"]}}


def redraw(doc: dict, rng: random.Random) -> dict:
    """Same structure, fresh numbers, by the rule ``gen_random`` uses."""
    nodes = []
    for node in doc["nodes"]:
        node = dict(node)
        k = len(node["outcomes"])
        if node["kind"] == "deterministic":
            node["function"] = [rng.randrange(k) for _ in node["function"]]
        else:
            rows = []
            for _ in node["cpt"]:
                weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
                total = sum(weights)
                rows.append([w / total for w in weights])
            node["cpt"] = rows
        nodes.append(node)
    return {**doc, "nodes": nodes}


def random_topological_order(doc: dict, rng: random.Random) -> list[str]:
    parents = {n["name"]: set(n["parents"]) for n in doc["nodes"]}
    order: list[str] = []
    while len(order) < len(parents):
        ready = sorted(n for n, ps in parents.items()
                       if n not in order and ps <= set(order))
        order.append(rng.choice(ready))
    return order


def text_of(doc: dict) -> str:
    """The document as ``save`` writes it."""
    return json.dumps(doc, indent=2) + "\n"


def structures(workload: str, count: int, nodes, density: float):
    """The workload's fixed model structures (as documents, with the
    numbers ``gen_random`` drew) and the generator the rest of its fixed
    shapes come from; node counts cycle through ``nodes``. A draw past the
    oracle's joint-size guard, a structural property, is replaced."""
    rng = random.Random(f"infdiag-bench/{workload}/structure")
    docs = []
    while len(docs) < count:
        size = nodes[len(docs) % len(nodes)]
        doc = json.loads(infdiag.save(infdiag.gen_random(
            size, 3, density, 0.2, rng.randrange(2 ** 31))))
        if joint_entries(doc) <= MAX_JOINT_ENTRIES:
            docs.append(doc)
    return docs, rng


def diagnose(rng: random.Random, root: Path) -> dict:
    """400 load-and-query requests over 33 random models and the 7 figures,
    10 per model; two in ten are d-separation checks."""
    docs, shape_rng = structures("diagnose", 33, (5, 6, 7, 8, 9), 0.4)
    figs = [(root / "docs" / f"{f}.json").read_text() for f in FIGURES]
    docs += [json.loads(t) for t in figs]
    shapes = []
    for i in range(10 * len(docs)):
        m, rnd = i % len(docs), i // len(docs)
        names = [n["name"] for n in docs[m]["nodes"]]
        if (m + rnd) % 5 == 4:
            a, b = shape_rng.sample(names, 2)
            rest = [n for n in names if n not in (a, b)]
            given = shape_rng.sample(rest, shape_rng.randint(0, min(2, len(rest))))
            shapes.append((m, {"op": "dsep", "a": a, "b": b, "given": given}))
        else:
            shapes.append((m, query(docs[m], shape_rng, 3)))
    docs[:-len(figs)] = [redraw(d, rng) for d in docs[:-len(figs)]]
    requests = [{"op": "dsep", "model": m, **q} if "op" in q else
                {"op": "posterior", "model": m, **observe(docs[m], q, rng)}
                for m, q in shapes]
    models = [text_of(d) for d in docs[:-len(figs)]] + figs
    return {"parse": True, "models": models, "requests": requests}


def wide(rng: random.Random, root: Path) -> dict:
    """4 diagnostic posterior queries on each of 12 in-memory models of
    13-16 nodes."""
    docs, shape_rng = structures("wide", 12, (13, 14, 15, 16), 0.35)
    shapes = [(m, diagnostic_query(docs[m], shape_rng, 3))
              for _ in range(4) for m in range(len(docs))]
    docs = [redraw(d, rng) for d in docs]
    requests = [{"op": "posterior", "model": m, **observe(docs[m], q, rng)}
                for m, q in shapes]
    return {"parse": False, "models": [text_of(d) for d in docs],
            "requests": requests}


def rewrite(rng: random.Random, root: Path) -> dict:
    """Each of 8 models of 9-11 nodes, 5 times: load, refactor to a fully
    diagnostic order (a topological order, reversed), save."""
    docs, shape_rng = structures("rewrite", 8, (9, 10, 11), 0.35)
    orders = [(m, random_topological_order(docs[m], shape_rng)[::-1])
              for _ in range(5) for m in range(len(docs))]
    docs = [redraw(d, rng) for d in docs]
    return {"parse": True, "models": [text_of(d) for d in docs],
            "requests": [{"op": "rewrite", "model": m, "order": order}
                         for m, order in orders]}


def plan(rng: random.Random, root: Path) -> dict:
    """Alternating exhaustive order comparisons (6-node models, 5! orders
    each) and greedy plans (11-node models, 1-2 evidence nodes), five
    diagnostic queries per model."""
    small, shape_rng = structures("plan-compare", 4, (6,), 0.4)
    large, _ = structures("plan-greedy", 4, (11,), 0.35)
    docs = small + large
    shapes = []
    for _ in range(5):
        for m in range(4):
            shapes.append(("compare", m,
                           diagnostic_query(small[m], shape_rng, 1)))
            shapes.append(("greedy", 4 + m,
                           diagnostic_query(large[m], shape_rng, 2)))
    docs = [redraw(d, rng) for d in docs]
    requests = [{"op": op, "model": m, **observe(docs[m], q, rng)}
                for op, m, q in shapes]
    return {"parse": False, "models": [text_of(d) for d in docs],
            "requests": requests}


WORKLOADS = {"diagnose": diagnose, "wide": wide, "rewrite": rewrite,
             "plan": plan}


def build(name: str, seed: int, root: Path) -> dict:
    rng = random.Random(f"infdiag-bench/{name}/{seed}")
    return WORKLOADS[name](rng, root)
