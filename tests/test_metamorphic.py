"""Metamorphic relations: changes to a query's diagram that must leave its
answer, and mostly its plan, as they were.

Over the seeded query family: shuffling the node map, adding an
unconnected root, and a ``save`` then ``load`` round trip give the same
posterior vector bit for bit, from steps with the same encodings; the
added root shows up only in ``Plan.pruned``. A shuffle leaves every
planner's plan and the exhaustive ranking as they were. Renaming every
node changes the names that break depth ties, so the plan may differ, but
the posterior stays within 1e-10 total variation.
"""

import random
from dataclasses import replace

import numpy as np

from conftest import seeded_query_case
from infdiag import (
    NodeSpec,
    compare_orders,
    load,
    plan_reversals,
    posterior,
    save,
)
from infdiag.diagram import Diagram
from infdiag.inference import MAX_EXHAUSTIVE_NODES

ROOT = "unconnected_root"


def shuffled(d, rng):
    names = list(d.nodes)
    rng.shuffle(names)
    return Diagram({n: d.nodes[n] for n in names})


def with_unconnected_root(d):
    root = NodeSpec.probabilistic(ROOT, ("a", "b"), cpt=[[0.3, 0.7]])
    return Diagram({**d.nodes, ROOT: root})


def renamed(d, name):
    """``d`` with each node ``n`` called ``name[n]``, parents alike."""
    return Diagram({name[n]: NodeSpec(
        name[n], s.outcomes, s.kind, tuple(name[p] for p in s.parents),
        s.table) for n, s in d.nodes.items()})


def plans(d, target, evidence):
    """Every planner's step encodings on one query, the ranking's included
    when its orders are few enough to list."""
    got = [plan_reversals(d, target, evidence, strategy).encode()
           for strategy in ("greedy", "exhaustive")]
    if len(d.nodes) - 1 <= MAX_EXHAUSTIVE_NODES:
        got.append([plan.encode() for plan, _ in compare_orders(
            d, target, evidence, "exhaustive")])
    return got


def test_posterior_and_plans_keep_under_metamorphic_relations():
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        vec, plan = posterior(d, target, evidence)
        rng = random.Random(seed)
        for other in (shuffled(d, rng), load(save(d))):
            got, got_plan = posterior(other, target, evidence)
            assert got.tobytes() == vec.tobytes(), seed
            assert got_plan == plan, seed
        got, got_plan = posterior(with_unconnected_root(d), target, evidence)
        assert got.tobytes() == vec.tobytes(), seed
        assert got_plan == replace(plan, pruned=tuple(
            sorted(plan.pruned + ((ROOT, None),)))), seed
        assert plans(shuffled(d, rng), target, evidence) == plans(
            d, target, evidence), seed
        names = sorted(d.nodes, reverse=True)
        name = {n: f"w{k}" for k, n in enumerate(names)}
        got = posterior(renamed(d, name), name[target],
                        {name[n]: o for n, o in evidence.items()})[0]
        assert 0.5 * np.sum(np.abs(got - vec)) <= 1e-10, seed
