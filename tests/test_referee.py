"""A second referee past the oracle's reach: variable elimination.

The enumeration oracle stops at 2^22 joint entries. Variable elimination
over factors (Zhang & Poole 1994) stops only where one product does: it
multiplies, for each variable in turn, the factors that mention it and sums
it out, taking the variable with the fewest neighbours first (min-degree).
It reads the node tables straight off the diagram and computes with its
own ``np.einsum``, sharing no code with the transforms, and it refuses a
product past 2^22 cells.
"""

import sys
from dataclasses import replace
from math import prod

import numpy as np
import pytest

from conftest import seeded_query_case
from infdiag import (
    Cpt, gen_random, oracle_posterior, plan_reversals, posterior)
from infdiag.transform import apply_step

MAX_CELLS = 2 ** 22


def _product(factors, arity, keep):
    """The product of ``factors``, each (variables, array), summed onto the
    variables ``keep``."""
    union = sorted(set(keep).union(*(vs for vs, _ in factors)))
    if prod(arity[v] for v in union) > MAX_CELLS:
        raise ValueError(f"a product over {union} passes {MAX_CELLS} cells")
    label = {v: i for i, v in enumerate(union)}
    operands = [x for vs, t in factors for x in (t, [label[v] for v in vs])]
    return tuple(keep), np.einsum(*operands, [label[v] for v in keep])


def ve_posterior(diagram, target, evidence) -> np.ndarray:
    """P(target | evidence) by variable elimination in min-degree order."""
    nodes = diagram.nodes
    arity = {n: s.n_outcomes for n, s in nodes.items()}
    factors = []
    for name, spec in nodes.items():
        names = spec.parents + (name,)
        table = (spec.table.rows if isinstance(spec.table, Cpt)
                 else np.eye(arity[name])[spec.table.entries])
        at = tuple(nodes[v].outcomes.index(evidence[v]) if v in evidence
                   else slice(None) for v in names)
        factors.append((tuple(v for v in names if v not in evidence),
                        table.reshape([arity[v] for v in names])[at]))
    left = set(nodes) - set(evidence) - {target}
    while left:
        def degree(v):
            return len(set().union(*(vs for vs, _ in factors if v in vs)))
        v = min(left, key=lambda v: (degree(v), v))
        left.remove(v)
        mine = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        keep = sorted(set().union(*(vs for vs, _ in mine)) - {v})
        factors.append(_product(mine, arity, keep))
    vec = _product(factors, arity, [target])[1]
    return vec / vec.sum()


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def test_variable_elimination_agrees_with_the_oracle():
    for seed in range(100):
        d, target, evidence = seeded_query_case(seed)
        got = ve_posterior(d, target, evidence)
        assert tv(got, oracle_posterior(d, target, evidence)) <= 1e-12, seed


def test_variable_elimination_refuses_a_product_past_the_cap(monkeypatch):
    # At a cap of 16 cells: every pair of the 6 nodes is joined, so the
    # first product already spans all of them, at least 2^6 cells.
    monkeypatch.setattr(sys.modules[__name__], "MAX_CELLS", 16)
    with pytest.raises(ValueError, match="passes 16 cells"):
        ve_posterior(gen_random(6, 4, 1.0, 0.0, 0), "v0", {})


# Under either evidence set, posterior's fixed order would reverse v25->v34
# past MAX_REVERSAL_CELLS here, so posterior plans greedily instead.
POSTERIOR_FALLS_BACK = {(35, 0)}


def agree_past_the_oracle(d, evidence, falls_back):
    """``posterior`` and the replayed greedy plan, for v0 given
    ``evidence``, agree with variable elimination; when ``falls_back``,
    ``posterior`` ran the greedy plan's steps."""
    want = ve_posterior(d, "v0", evidence)
    got, plan = posterior(d, "v0", evidence)
    assert tv(got, want) <= 1e-10
    greedy = plan_reversals(d, "v0", evidence, "greedy")
    if falls_back:
        assert [replace(s, zero_rows=()) for s in plan.steps] == list(
            greedy.steps)
    replayed = d
    for step in greedy.steps:
        replayed = apply_step(replayed, step)[0]
    assert list(replayed.nodes) == ["v0"]
    assert tv(replayed.nodes["v0"].table.rows[0], want) <= 1e-10


@pytest.mark.parametrize("n", [20, 25, 30, 35])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_posterior_and_greedy_plan_agree_past_the_oracle(n, seed):
    # Each joint is far past the oracle's 2^22 entries; (30, 1) is the
    # seeded 30-node query v0 | v29=o0 the ROADMAP times.
    agree_past_the_oracle(gen_random(n, 3, 0.15, 0.2, seed),
                          {f"v{n - 1}": "o0"},
                          (n, seed) in POSTERIOR_FALLS_BACK)


@pytest.mark.parametrize("n", [20, 25, 30, 35])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evidence_with_children_agrees_past_the_oracle(n, seed):
    # The last node has no child, so conditioning on it alone slices no
    # table. Here the median, in node order, of the nodes other than v0
    # that have children (1 to 5 each) is observed too, and each of its
    # children's tables is sliced at the observed outcome.
    d = gen_random(n, 3, 0.15, 0.2, seed)
    inner = [v for v in d.nodes if v != "v0"
             and any(v in s.parents for s in d.nodes.values())]
    evidence = {inner[len(inner) // 2]: "o0", f"v{n - 1}": "o0"}
    agree_past_the_oracle(d, evidence, (n, seed) in POSTERIOR_FALLS_BACK)
