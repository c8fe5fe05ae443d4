"""Shared helpers for the test suite.

The seeded families defined here are the workhorses: `seeded_diagram`
draws from the same generator the package ships, and `seeded_query_case`
additionally picks a target and evidence, with the evidence sampled from
an assignment of positive joint probability so conditioning is always
well-defined.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from pathlib import Path

from infdiag import gen_random, joint_table, topological_order
from infdiag.diagram import (
    DETERMINISTIC,
    Cpt,
    DetTable,
    Diagram,
    NodeSpec,
    parent_arities,
    row_index,
    table_array,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"

# The tests that start Python subprocesses (the CLI module, the scripts)
# need the package on their path too, as pyproject.toml's pythonpath puts
# it on pytest's.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]))


def seeded_diagram(seed: int, node_count: int | None = None,
                   max_outcomes: int = 4, density: float = 0.4,
                   det_fraction: float = 0.2):
    """One diagram of the standard seeded family (2..7 nodes by default)."""
    if node_count is None:
        node_count = 2 + seed % 6
    return gen_random(node_count, max_outcomes, density, det_fraction, seed)


def seeded_query_case(seed: int):
    """(diagram, target, evidence) with evidence satisfiable by construction.

    Evidence outcomes are read off one positive-probability assignment of
    the joint, so P(evidence) > 0 always holds.
    """
    diagram = seeded_diagram(seed, node_count=3 + seed % 5)
    return (diagram,) + positive_query(diagram, random.Random(10_000 + seed))


def positive_query(diagram, rng: random.Random):
    """(target, evidence) on ``diagram``: a random target and up to three
    other nodes as evidence, their outcomes read off one assignment drawn
    from the joint, so P(evidence) > 0."""
    table = joint_table(diagram)
    target = rng.choice(list(diagram.nodes))

    flat = table.probs.reshape(-1)
    idx = rng.choices(range(flat.size), weights=flat)[0]
    combo = []
    rest = idx
    for size in reversed([len(o) for o in table.outcomes]):
        combo.append(rest % size)
        rest //= size
    combo.reverse()

    pool = [v for v in table.variables if v != target]
    rng.shuffle(pool)
    evidence = {}
    for v in pool[:rng.randint(0, min(3, len(pool)))]:
        ax = table.axis(v)
        evidence[v] = table.outcomes[ax][combo[ax]]
    return target, evidence


def enumerate_joint(diagram) -> dict[tuple[int, ...], float]:
    """Second, independent joint implementation: plain dicts, no arrays.

    Maps outcome-index tuples (in topological order) to probabilities by
    direct chain-rule lookup.
    """
    order = topological_order(diagram)
    axis = {v: i for i, v in enumerate(order)}
    out = {}
    for combo in itertools.product(
            *(range(diagram.nodes[v].n_outcomes) for v in order)):
        p = 1.0
        for v in order:
            spec = diagram.nodes[v]
            row = row_index(parent_arities(diagram, spec),
                            [combo[axis[q]] for q in spec.parents])
            oi = combo[axis[v]]
            if isinstance(spec.table, Cpt):
                p *= spec.table.rows[row][oi]
            elif spec.table.entries[row] != oi:
                p = 0.0
            if p == 0.0:
                break
        out[combo] = p
    return out


def pruned_diagram(diagram, plan):
    """The diagram the steps of ``plan``, a ``posterior`` plan, start from:
    ``diagram`` without the nodes ``plan.pruned`` lists, each sliced node's
    observed outcome taken out of its children's tables. Pruning keeps the
    posterior, not the joint, so it is no ``apply_step`` kind; a replay
    applies it first, then each step."""
    cut = dict(plan.pruned)
    nodes = {}
    for name, spec in diagram.nodes.items():
        if name in cut:
            continue
        parents = tuple(p for p in spec.parents if p not in cut)
        if parents != spec.parents:
            # A node kept reads no node dropped: every parent cut is sliced.
            grid = table_array(diagram, name)[tuple(
                diagram.nodes[p].outcomes.index(cut[p]) if p in cut
                else slice(None) for p in spec.parents)]
            rows = grid.reshape(-1, spec.n_outcomes)
            table = (DetTable(rows.argmax(axis=-1))
                     if spec.kind == DETERMINISTIC else Cpt(rows))
            spec = NodeSpec(name, spec.outcomes, spec.kind, parents, table)
        nodes[name] = spec
    return Diagram(nodes)


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Set ``replacement`` on every ``infdiag`` module that holds
    ``original``, under whatever name it holds it, as
    ``scripts/step_counts.py`` wraps what it counts, so that no call of it
    escapes a count through an import of its own."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "infdiag":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
