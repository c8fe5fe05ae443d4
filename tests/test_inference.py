"""Query planning and execution, independence checks, complexity metrics."""

import collections
import inspect
import itertools
import math
import random
import re
from collections.abc import Mapping
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    fields,
    make_dataclass,
    replace,
)

import numpy as np
import pytest

from conftest import (
    DOCS,
    patch_everywhere,
    positive_query,
    pruned_diagram,
    seeded_query_case,
)
from infdiag import (
    Metrics,
    NodeSpec,
    add_node,
    builtin_example,
    compare_orders,
    complexity,
    d_separated,
    empty_diagram,
    export_dot,
    gen_random,
    joint_table,
    load,
    oracle_posterior,
    plan_reversals,
    posterior,
    refactor,
    save,
    validate,
)
from infdiag import inference, transform
from infdiag.errors import (
    EvidenceOnTarget,
    InvalidDiagram,
    InvalidNodeSpec,
    InvalidParameters,
    NormalizationViolation,
    SameNode,
    TableShapeMismatch,
    TooLarge,
    TooLargeForExhaustive,
    UnknownNode,
    UnknownOutcome,
    ZeroProbabilityEvidence,
)
from infdiag.diagram import (
    DETERMINISTIC,
    PROBABILISTIC,
    ROW_SUM_TOL,
    Cpt,
    DetTable,
    Diagram,
    node_depths,
    row_count,
    table_array,
    topological_order,
)
from infdiag.inference import (
    Plan,
    _child_counts,
    _eliminated,
    _greedy_plan,
    _parented,
    _plan_of,
    _ranked,
    _summed,
)
from infdiag.transform import (
    CONDITION,
    REMOVE_BARREN,
    TransformStep,
    _structure,
    apply_step,
    condition,
    promote_deterministic,
    prune_constant_parents,
    remove_barren,
    reverse_arc,
    sum_out,
)


def chain_xyz():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[0.6, 0.4]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("0", "1"), ("X",),
                                           cpt=[[0.8, 0.2], [0.25, 0.75]]))
    d = add_node(d, NodeSpec.probabilistic("Z", ("0", "1"), ("Y",),
                                           cpt=[[0.7, 0.3], [0.1, 0.9]]))
    return d


def collider():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("A", ("0", "1"), cpt=[[0.9, 0.1]]))
    d = add_node(d, NodeSpec.probabilistic("B", ("0", "1"), cpt=[[0.9, 0.1]]))
    d = add_node(d, NodeSpec.probabilistic(
        "E", ("0", "1"), ("A", "B"),
        cpt=[[0.95, 0.05], [0.2, 0.8], [0.2, 0.8], [0.05, 0.95]]))
    return d


def test_posterior_no_evidence_is_prior():
    vec, plan = posterior(chain_xyz(), "X", {})
    assert np.allclose(vec, [0.6, 0.4], atol=1e-15)
    assert all(s.kind == REMOVE_BARREN for s in plan.steps)
    assert plan.total_added_arcs == 0


def test_posterior_chain_evidence_matches_oracle():
    d = chain_xyz()
    vec, plan = posterior(d, "X", {"Z": "1"})
    want = oracle_posterior(d, "X", {"Z": "1"})
    assert np.max(np.abs(vec - want)) <= 1e-12
    assert plan.steps  # something actually happened


def test_posterior_medical_model_matches_oracle():
    d = builtin_example("fig9")
    vec, _ = posterior(d, "nephrotic_syndrome", {"frothy_urine": "yes"})
    want = oracle_posterior(d, "nephrotic_syndrome", {"frothy_urine": "yes"})
    assert np.max(np.abs(vec - want)) <= 1e-12
    # Observing the downstream test raises the disorder's probability.
    assert vec[1] > 0.05


def test_posterior_matches_oracle_on_seeded_cases():
    for seed in range(30):
        d, target, evidence = seeded_query_case(seed)
        vec, _ = posterior(d, target, evidence)
        want = oracle_posterior(d, target, evidence)
        assert 0.5 * np.sum(np.abs(vec - want)) <= 1e-10
        assert abs(vec.sum() - 1.0) <= 1e-12


def two_level(deviation: float, children: int):
    """``a`` uniform over two outcomes, with ``children`` barren children
    whose rows sum to 1 + deviation and 1 - deviation."""
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("a", ("x", "y"), cpt=[[0.5, 0.5]]))
    for i in range(children):
        d = add_node(d, NodeSpec.probabilistic(
            f"b{i}", ("u", "v"), ("a",),
            cpt=[[0.5 + deviation, 0.5], [0.5 - deviation, 0.5]]))
    return d


def test_rows_the_engine_accepts_keep_the_oracle_bound():
    # A barren deletion drops a node as if each row summed to exactly 1,
    # while the oracle keeps the true sums. The 1e-9 row tolerance accepted
    # rows 0.99e-9 off, and one deletion then put posterior 4.95e-10 in
    # total variation from the oracle.
    with pytest.raises(NormalizationViolation):
        two_level(0.99e-9, 1)
    # Pruning drops a node the posterior cannot see the same way. At the
    # edge of the tolerance, as many dropped nodes as the oracle can
    # referee (21 children and the target make 2**22 joint entries) keep
    # well inside the bound.
    d = two_level(0.99 * ROW_SUM_TOL, 21)
    vec, plan = posterior(d, "a", {})
    assert plan.steps == ()
    assert plan.pruned == tuple(sorted((f"b{i}", None) for i in range(21)))
    assert 0.5 * np.sum(np.abs(vec - oracle_posterior(d, "a", {}))) <= 1e-10


def test_posterior_zero_probability_evidence():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[1.0, 0.0]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("0", "1"), ("X",),
                                           cpt=[[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ZeroProbabilityEvidence):
        posterior(d, "Y", {"X": "1"})
    # The planners decide on the graph, but the plan they return is run on
    # the tables, so zero-mass evidence still surfaces.
    for strategy in ("greedy", "exhaustive"):
        with pytest.raises(ZeroProbabilityEvidence):
            plan_reversals(d, "Y", {"X": "1"}, strategy=strategy)
    for mode in ("exhaustive", "greedy-sample"):
        with pytest.raises(ZeroProbabilityEvidence):
            compare_orders(d, "Y", {"X": "1"}, mode=mode)


def test_zero_mass_through_a_multi_parent_chain():
    # E's parents form the chain A -> B -> C, and B = 1 rules out both
    # A = 0 and C = 1. E = 1 and E = 2 have cpt entries only at (A, B, C)
    # the chain never reaches, so their mass is zero only once the
    # reversals of C, B and A into E have multiplied it out; E = 0 and
    # E = 3 carry all of it.
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("A", ("0", "1"), cpt=[[0.6, 0.4]]))
    d = add_node(d, NodeSpec.probabilistic(
        "B", ("0", "1"), ("A",), cpt=[[1.0, 0.0], [0.3, 0.7]]))
    d = add_node(d, NodeSpec.probabilistic(
        "C", ("0", "1"), ("B",), cpt=[[0.2, 0.8], [1.0, 0.0]]))
    d = add_node(d, NodeSpec.probabilistic(
        "E", ("0", "1", "2", "3"), ("A", "B", "C"),
        cpt=[[0.7, 0.0, 0.0, 0.3], [0.1, 0.0, 0.0, 0.9],
             [0.4, 0.0, 0.0, 0.6], [0.25, 0.25, 0.25, 0.25],
             [0.5, 0.0, 0.0, 0.5], [0.9, 0.0, 0.0, 0.1],
             [0.6, 0.0, 0.0, 0.4], [0.0, 0.5, 0.0, 0.5]]))
    for target in ("A", "B", "C"):
        for outcome in ("1", "2"):
            with pytest.raises(ZeroProbabilityEvidence):
                posterior(d, target, {"E": outcome})
        for outcome in ("0", "3"):
            vec, plan = posterior(d, target, {"E": outcome})
            assert plan.steps[0].encode() == f"condition:E={outcome}"
            want = oracle_posterior(d, target, {"E": outcome})
            assert 0.5 * np.sum(np.abs(vec - want)) <= 1e-10


def _counting_flips(monkeypatch) -> list:
    """Count the reversals ``_restructure`` decides from here on."""
    flips, flip = [], transform._flip
    monkeypatch.setattr(transform, "_flip", lambda *a: flips.append(a[2:4])
                        or flip(*a))
    return flips


def test_zero_mass_evidence_cut_off_from_the_target_still_raises():
    # T stands alone; E's observed outcome 1 has no mass, since X = 0
    # always and P(E = 1 | X = 0) = 0. E is d-separated from T, but its
    # observed column has a zero, so it starts a ball of its own and is
    # conditioned instead of dropped, and the mass check sees it.
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("T", ("0", "1"), cpt=[[0.3, 0.7]]))
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[1.0, 0.0]]))
    d = add_node(d, NodeSpec.probabilistic("E", ("0", "1"), ("X",),
                                           cpt=[[1.0, 0.0], [0.5, 0.5]]))
    assert d_separated(d, "T", "E", ())
    with pytest.raises(ZeroProbabilityEvidence):
        oracle_posterior(d, "T", {"E": "1"})
    with pytest.raises(ZeroProbabilityEvidence):
        posterior(d, "T", {"E": "1"})
    # At the outcome with mass in every row, E and X are dropped unread.
    vec, plan = posterior(d, "T", {"E": "0"})
    assert plan.pruned == (("E", None), ("X", None)) and plan.steps == ()
    assert vec.tolist() == [0.3, 0.7]


def above_the_target(observed_column):
    """A -> E -> T, E's table holding ``observed_column`` at outcome 1."""
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("A", ("0", "1"), cpt=[[0.4, 0.6]]))
    d = add_node(d, NodeSpec.probabilistic(
        "E", ("0", "1"), ("A",),
        cpt=[[1.0 - p, p] for p in observed_column]))
    return add_node(d, NodeSpec.probabilistic(
        "T", ("0", "1", "2"), ("E",),
        cpt=[[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]))


def test_evidence_above_the_target_is_sliced_not_reversed(monkeypatch):
    # The ball from T reaches E only from its child: only E's observed
    # value is read. E = 1 has mass in every row of E's table, so E is
    # sliced out of T's table and A is dropped: no step, no reversal.
    d = above_the_target([0.3, 0.8])
    flips = _counting_flips(monkeypatch)
    vec, plan = posterior(d, "T", {"E": "1"})
    assert flips == [] and plan.steps == ()
    assert plan.pruned == (("A", None), ("E", "1"))
    # T's sliced table counts as touched: one row of 3 outcomes.
    assert (plan.total_added_arcs, plan.total_parameters_touched) == (0, 2)
    want = oracle_posterior(d, "T", {"E": "1"})
    assert 0.5 * np.sum(np.abs(vec - want)) <= 1e-10
    assert vec.tolist() == [0.6, 0.1, 0.3]


def test_evidence_with_a_zero_in_its_observed_column_is_conditioned(
        monkeypatch):
    # P(E = 1 | A = 0) = 0: E starts a ball of its own, so it is kept
    # and conditioned, reversing A -> E as before pruning.
    d = above_the_target([0.0, 0.8])
    flips = _counting_flips(monkeypatch)
    vec, plan = posterior(d, "T", {"E": "1"})
    assert plan.pruned == ()
    assert "condition:E=1" in plan.encode().split("; ")
    assert ("A", "E") in flips
    want = oracle_posterior(d, "T", {"E": "1"})
    assert 0.5 * np.sum(np.abs(vec - want)) <= 1e-10


def _eager_prune(work, target, evidence):
    """``inference._prune`` with the eager zero check: every evidence
    column is checked for a zero before one walk, whose doubtful nodes
    start balls of their own beside the target's. The keys it hands on
    are the entry's unless evidence was sliced."""
    shape, nodes = work.shape, work.diagram.nodes
    at = {n: nodes[n].outcomes.index(o) for n, o in evidence.items()}
    doubtful = [n for n, i in at.items() if 0.0 in (
        nodes[n].table.entries == i if shape[n][1] == DETERMINISTIC
        else nodes[n].table.rows[:, i]).tolist()]
    top, seen = inference._ball(shape, [target], doubtful, evidence)
    if len(top) == len(shape):
        return (), 0, work.depth
    pruned = tuple((n, evidence.get(n) if n in seen else None)
                   for n in sorted(shape) if n not in top)
    sliced = {n: at[n] for n, outcome in pruned if outcome is not None}
    kept, touched = {n: entry for n, entry in shape.items() if n in top}, 0
    for n, (ps, kind) in kept.items():
        if not top.issuperset(ps):
            kept[n] = entry = (tuple(p for p in ps if p in top), kind)
            work.tables[n] = (entry[0], table_array(work.diagram, n)[tuple(
                sliced.get(p, slice(None)) for p in ps)])
            touched += transform._free(work.arity, n, entry)
    work.shape = kept
    return pruned, touched, None if sliced else work.depth


def test_the_lazy_zero_check_prunes_as_the_eager_one(monkeypatch):
    # _prune checks for a zero only the evidence the target's ball left
    # off top, and walks again from the doubtful ones. Against the eager
    # check, it gives the same Plan.pruned, the same kept structure and
    # the same sliced tables, bit for bit. In r -> d -> t, d's function
    # puts a zero in its observed column and the target's ball leaves d
    # off top: a second walk starts from d and keeps d and r.
    r = NodeSpec.probabilistic("r", ("0", "1"), cpt=[[0.4, 0.6]])
    det = NodeSpec.deterministic("d", ("0", "1"), ("r",), function=[0, 1])
    t = NodeSpec.probabilistic("t", ("0", "1"), ("d",),
                               cpt=[[0.2, 0.8], [0.7, 0.3]])
    built = (Diagram({"r": r, "d": det, "t": t}), "t", {"d": "1"})
    walks, ball = [], inference._ball
    monkeypatch.setattr(inference, "_ball", lambda shape, up, down, given: (
        walks.append(list(down)) or ball(shape, up, down, given)))
    for d, target, evidence in [seeded_query_case(s) for s in range(40)] + [
            built]:
        lazy, eager = inference._Work(d), inference._Work(d)
        walks.clear()
        pruned = inference._prune(lazy, target, evidence)
        lazy_walks = list(walks)
        assert pruned == _eager_prune(eager, target, evidence)
        assert lazy.shape == eager.shape
        assert lazy.tables.keys() == eager.tables.keys()
        for n, (ps, grid) in eager.tables.items():
            got_ps, got = lazy.tables[n]
            assert got_ps == ps and got.dtype == grid.dtype
            assert got.shape == grid.shape and got.tobytes() == grid.tobytes()
    assert lazy_walks == [[], ["d"]]  # the built case's: a second walk
    assert set(lazy.shape) == {"r", "d", "t"}
    vec, plan = posterior(*built)
    assert plan.pruned == () and "condition:d=1" in plan.encode()
    assert 0.5 * np.sum(np.abs(vec - oracle_posterior(*built))) <= 1e-10


def test_posterior_argument_errors():
    d = chain_xyz()
    with pytest.raises(UnknownNode):
        posterior(d, "Q", {})
    with pytest.raises(EvidenceOnTarget):
        posterior(d, "X", {"X": "0"})

    class Unhashable(Mapping):  # evidence keyed by a name no dict can hold
        def __getitem__(self, key):
            return "0"

        def __iter__(self):
            return iter([["Z"]])

        def __len__(self):
            return 1

    for query in (posterior,
                  lambda *a: plan_reversals(*a, strategy="greedy"),
                  lambda *a: plan_reversals(*a, strategy="exhaustive"),
                  lambda *a: compare_orders(*a, mode="exhaustive"),
                  lambda *a: compare_orders(*a, mode="greedy-sample")):
        for evidence in (None, ["Z"], [("Z", "0")]):
            with pytest.raises(InvalidParameters):
                query(d, "X", evidence)
        with pytest.raises(UnknownNode):
            query(d, ["X"], {})
        with pytest.raises(UnknownNode):
            query(d, "X", Unhashable())
        with pytest.raises(UnknownOutcome):
            query(d, "X", {"Z": "nope"})


def test_explaining_away_strict_inequality():
    d = collider()
    with_b, _ = posterior(d, "A", {"E": "1", "B": "1"})
    without_b, _ = posterior(d, "A", {"E": "1"})
    assert with_b[1] < without_b[1]
    # The same ordering holds for the oracle.
    ow = oracle_posterior(d, "A", {"E": "1", "B": "1"})
    oo = oracle_posterior(d, "A", {"E": "1"})
    assert ow[1] < oo[1]


def test_plans_are_replayable():
    # Plans are costed on the graph alone; executing them on the tables
    # must measure the same costs step by step and end at the answer. A
    # replay applies a posterior plan's pruning first, then every step. A
    # plan that ran (posterior's, both planners', each ranking's first)
    # carries the zero rows its run filled, so a replay fills the same; a
    # ranked plan that never ran carries none.
    filled = 0
    for seed in (2, 9, 17, 23, 29, 44):
        d, target, evidence = seeded_query_case(seed)
        ran = [posterior(d, target, evidence)[1]]
        ran += [plan_reversals(d, target, evidence, strategy=s)
                for s in ("greedy", "exhaustive")]
        for mode in ("exhaustive", "greedy-sample"):
            first, *rest = [p for p, _ in compare_orders(d, target, evidence,
                                                         mode=mode)]
            ran.append(first)
            assert all(step.zero_rows == () for p in rest for step in p.steps)
        want = oracle_posterior(d, target, evidence)
        # rest, greedy-sample's other plans, are few enough to replay too.
        replays = [(p, True) for p in ran] + [(p, False) for p in rest]
        for plan, fills in replays:
            cur = pruned_diagram(d, plan)
            for step in plan.steps:
                cur, measured = apply_step(cur, step)
                assert measured.added_arcs == step.added_arcs
                assert measured.parameters_touched == step.parameters_touched
                if fills:
                    assert measured.zero_rows == step.zero_rows
                    filled += len(step.zero_rows)
            assert list(cur.nodes) == [target]
            vec = table_array(cur, target)
            assert 0.5 * np.sum(np.abs(vec - want)) <= 1e-10
    assert filled > 0


def test_posterior_equals_its_plan_replayed_step_by_step():
    # posterior runs its plan on one working state of raw grids; apply_step
    # wraps every table in a NodeSpec and reads it back between steps, from
    # the diagram the plan's pruning leaves. The two must agree exactly,
    # bits and zero rows. The deterministic-heavy family exercises the
    # indicator and substitution branch of the kernel. Each evidence node
    # is conditioned or pruned, and the plan's parameter total adds the
    # sliced tables to its steps'.
    cases = [seeded_query_case(seed) for seed in range(40)]
    for path in sorted(DOCS.glob("*.json")):
        d = load(path.read_text())
        rng = random.Random(path.name)
        cases += [(d,) + positive_query(d, rng) for _ in range(4)]
    for seed in range(30):
        d = gen_random(8, 3, 0.4, 0.6, seed)
        cases.append((d,) + positive_query(d, random.Random(seed)))
    filled = sliced = 0
    for d, target, evidence in cases:
        vec, plan = posterior(d, target, evidence)
        cur = pruned_diagram(d, plan)
        kept = [n for n, s in cur.nodes.items() if s.parents != d.parents(n)]
        shape, arity, _ = _structure(cur)
        assert plan.total_parameters_touched == sum(
            transform._free(arity, n, shape[n]) for n in kept) + sum(
            s.parameters_touched for s in plan.steps)
        sliced += len(kept)
        cut = {n: o for n, o in plan.pruned if n in evidence}
        conditioned = {s.node: s.outcome for s in plan.steps
                       if s.kind == CONDITION}
        assert sorted([*cut, *conditioned]) == sorted(evidence)
        assert all(o in (None, evidence[n]) for n, o in cut.items())
        for step in plan.steps:
            cur, ran = apply_step(cur, step)
            assert ran == step
            filled += len(step.zero_rows)
        assert list(cur.nodes) == [target]
        assert table_array(cur, target).tolist() == vec.tolist()
    assert filled > 0 and sliced > 0


def test_greedy_plan_on_thirty_nodes_runs_on_the_graph():
    # Greedy planning must stay on the graph: running every candidate step
    # on the tables runs out of memory here. The oracle cannot hold 3**30
    # entries, so the greedy order's answer is checked against posterior's.
    d = gen_random(30, 3, 0.15, 0.2, 1)
    evidence = {"v29": d.nodes["v29"].outcomes[0]}
    plan = plan_reversals(d, "v0", evidence, strategy="greedy")
    vec, default = posterior(d, "v0", evidence)
    cur = d
    for step in plan.steps:
        cur, _ = apply_step(cur, step)
    assert list(cur.nodes) == ["v0"]
    assert 0.5 * np.sum(np.abs(table_array(cur, "v0") - vec)) <= 1e-10
    assert plan.total_added_arcs < default.total_added_arcs


def test_greedy_plan_skips_reversals_over_the_cell_cap(monkeypatch):
    # Under a 32-cell cap the fewest-arcs plan trips the cap when it runs;
    # the planner must take steps that fit and still reach the answer.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 32)
    d, target, evidence = seeded_query_case(123)
    plan = plan_reversals(d, target, evidence, strategy="greedy")
    cur = d
    for step in plan.steps:
        cur, _ = apply_step(cur, step)
    assert list(cur.nodes) == [target]
    want = oracle_posterior(d, target, evidence)
    assert 0.5 * np.sum(np.abs(table_array(cur, target) - want)) <= 1e-10
    # With no step that fits, the planner refuses up front.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 1)
    with pytest.raises(TooLarge):
        plan_reversals(d, target, evidence, strategy="greedy")


def _greedy_every_candidate(shape, arity, target, evidence, _):
    """The greedy plan's decided steps, each round deciding every candidate
    in name order on a fresh depth pass and parent set, whatever depth
    keys the caller hands in; raises TooLarge when none fits."""
    decided = []
    while len(shape) > 1:
        best = None
        depth, parented = node_depths(shape), _parented(shape)
        for name in sorted(shape.keys() - {target}):
            taken = _eliminated(shape, arity, name, evidence, depth, parented)
            if taken is None:
                continue
            key = (taken[1].added_arcs, taken[1].encode())
            if best is None or key < best[0]:
                best = (key, taken)
        if best is None:
            raise TooLarge("no step fits")
        decided.append(best[1])
        shape = best[1][0]
    return decided


def _greedy_outcome(planner, diagram, target, evidence):
    """Each decided step as (structure in map order, step, reversals), or
    TooLarge when the planner refuses the query. The planner starts from
    the entry's structure map, arities and depth keys."""
    shape, arity, depth = _structure(diagram)
    try:
        decided = planner(shape, arity, target, evidence, depth)
    except TooLarge:
        return TooLarge
    return [(list(shape.items()), step, reversals)
            for shape, step, reversals, _ in decided]


def _two_state_diagram(*nodes):
    """A diagram of (name, parents) nodes in that order, each with outcomes
    "0" and "1" and uniform rows."""
    d = empty_diagram()
    for name, parents in nodes:
        d = add_node(d, NodeSpec.probabilistic(
            name, ("0", "1"), parents, cpt=[[0.5, 0.5]] * 2 ** len(parents)))
    return d


def _greedy_cases():
    """(label, diagram, target, evidence) for the greedy differential
    test: the seeded family, the ROADMAP item 2 probe's recipe (target v0,
    the last 8 nodes observed at their first outcome) and two built cases
    whose barren deletions move a parent's code and drop its score."""
    for seed in range(40):
        yield (f"seed {seed}", *seeded_query_case(seed))
    for n in (60, 90, 120):
        d = gen_random(n, 2, 2 / n, 0, 5)
        yield (f"probe {n}", d, "v0", {f"v{i}": d.nodes[f"v{i}"].outcomes[0]
                                      for i in range(n - 8, n)})
    # t -> a -> b, t -> c: deleting b leaves a barren, so a moves from
    # "sum_out:a", after c's "remove_barren:c", to "remove_barren:a",
    # before it, and is deleted next.
    yield ("code move", _two_state_diagram(
        ("t", ()), ("a", ("t",)), ("b", ("a",)), ("c", ("t",))), "t", {})
    # b is the child of observed e, whose conditioning (one added arc,
    # p -> q) is scored in the round b wins, and of s. Deleting b forgets
    # e's score and moves s to "remove_barren:s"; the next round scores e
    # again and takes s, which left at "sum_out:s" would lose to
    # "sum_out:p", adding no arc either. No sum-out is scored in a round a
    # barren deletion wins: every barren code sorts before every sum-out
    # code, and adds no arc.
    yield ("dropped scores", _two_state_diagram(
        ("p", ()), ("q", ()), ("t", ()), ("e", ("p", "q")), ("s", ("t",)),
        ("b", ("e", "s"))), "t", {"e": "0"})


@pytest.mark.parametrize("cap", [transform.MAX_REVERSAL_CELLS, 16, 32, 64])
def test_greedy_plan_matches_deciding_every_candidate(monkeypatch, cap):
    # Stopping a round at the first candidate, in encoding order, that fits
    # and adds no arc, and carrying a round's child counts, candidate order,
    # scores and depth keys across a barren deletion, must leave every
    # decided step as deciding every candidate on a fresh structure makes it.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", cap)
    refused = 0
    for label, d, target, evidence in _greedy_cases():
        want = _greedy_outcome(_greedy_every_candidate, d, target, evidence)
        assert _greedy_outcome(_greedy_plan, d, target, evidence) == want, (
            label)
        refused += want is TooLarge
    assert refused < 40


def test_greedy_plan_visits_candidates_by_encoding():
    # "condition:a-b=0" encodes before "condition:a=0", though "a" sorts
    # before "a-b": both add no arc, so the plan conditions on a-b first.
    d = empty_diagram()
    for root in ("a", "a-b"):
        d = add_node(d, NodeSpec.probabilistic(root, ("0", "1"),
                                               cpt=[[0.5, 0.5]]))
    d = add_node(d, NodeSpec.probabilistic("t", ("0", "1"), ("a", "a-b"),
                                           cpt=[[0.5, 0.5]] * 4))
    evidence = {"a": "0", "a-b": "0"}
    plan = plan_reversals(d, "t", evidence, strategy="greedy")
    assert plan.encode() == "condition:a-b=0; condition:a=0"
    assert _greedy_outcome(_greedy_plan, d, "t", evidence) == (
        _greedy_outcome(_greedy_every_candidate, d, "t", evidence))


def test_greedy_plan_passes_a_candidate_over_the_cap(monkeypatch):
    # r -> z (4 outcomes) -> p -> e, r -> p and r -> e, with e and r
    # observed. Conditioning on e, first in encoding order, reverses p -> e
    # over r, z and e's observed outcome: 2 * 4 * 2 * 1 = 16 cells.
    # Conditioning on r reverses nothing. Under an 8-cell cap the round
    # passes the refused condition and takes r's, after which e's first
    # reversal lays out 4 * 2 * 1 = 8 cells and fits.
    d = add_node(empty_diagram(), NodeSpec.probabilistic(
        "r", ("0", "1"), cpt=[[0.5, 0.5]]))
    d = add_node(d, NodeSpec.probabilistic("z", ("0", "1", "2", "3"), ("r",),
                                           cpt=[[0.25] * 4] * 2))
    d = add_node(d, NodeSpec.probabilistic("p", ("0", "1"), ("z", "r"),
                                           cpt=[[0.5, 0.5]] * 8))
    d = add_node(d, NodeSpec.probabilistic("e", ("0", "1"), ("p", "r"),
                                           cpt=[[0.5, 0.5]] * 4))
    evidence = {"e": "0", "r": "0"}
    assert plan_reversals(d, "p", evidence).encode() == (
        "condition:e=0; condition:r=0; sum_out:z")
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 8)
    decided = _greedy_outcome(_greedy_plan, d, "p", evidence)
    assert [step.encode() for _, step, _ in decided] == [
        "condition:r=0", "condition:e=0", "sum_out:z"]
    assert decided == _greedy_outcome(_greedy_every_candidate, d, "p",
                                      evidence)


def test_exhaustive_ranking_skips_orders_over_the_cell_cap(monkeypatch):
    # Under a 32-cell cap some orders trip the cap when they run; the
    # ranking must hold only orders that fit, each reaching the answer.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 32)
    d, target, evidence = seeded_query_case(123)
    ranked = compare_orders(d, target, evidence, mode="exhaustive")
    want = oracle_posterior(d, target, evidence)
    for plan, _ in ranked:
        cur = d
        for step in plan.steps:
            cur, _ = apply_step(cur, step)
        assert list(cur.nodes) == [target]
        assert 0.5 * np.sum(np.abs(table_array(cur, target) - want)) <= 1e-10
    assert plan_reversals(d, target, evidence, "exhaustive") == ranked[0][0]
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 1)
    with pytest.raises(TooLarge):
        compare_orders(d, target, evidence, mode="exhaustive")
    with pytest.raises(TooLarge):
        plan_reversals(d, target, evidence, strategy="exhaustive")


def test_posterior_refuses_past_the_cell_cap_before_running(monkeypatch):
    # Every order for this query reverses some arc. At a 1-cell cap none
    # fits, so the fixed order and then the greedy fallback refuse it while
    # planning, before the kernel computes any table.
    runs = []
    run = transform._Work.run
    monkeypatch.setattr(transform._Work, "run",
                        lambda self, *a: runs.append(a) or run(self, *a))
    d, target, evidence = seeded_query_case(123)
    posterior(d, target, evidence)
    assert runs  # the kernel runs under the default cap
    runs.clear()
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 1)
    with pytest.raises(TooLarge):
        posterior(d, target, evidence)
    assert runs == []


def test_conditioning_counts_the_observed_outcome_only(monkeypatch):
    # C -> X -> E, E with 8 outcomes. Conditioning on E reverses X -> E
    # over C and E's observed outcome, 2 * 2 * 1 = 4 cells, then C -> E
    # over 2: both fit a 16-cell cap, though E's whole axis would not.
    d = add_node(empty_diagram(), NodeSpec.probabilistic(
        "C", ("0", "1"), cpt=[[0.3, 0.7]]))
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), ("C",),
                                           cpt=[[0.8, 0.2], [0.25, 0.75]]))
    rows = [[(i + 1) / 36 for i in range(8)], [(8 - i) / 36 for i in range(8)]]
    d = add_node(d, NodeSpec.probabilistic(
        "E", tuple(map(str, range(8))), ("X",), cpt=rows))
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 16)
    evidence = {"E": "0"}
    conditioned = condition(d, "E", "0")
    for name in ("C", "X"):
        want = oracle_posterior(d, name, evidence)
        got = posterior(conditioned, name, {})[0]
        assert 0.5 * np.sum(np.abs(got - want)) <= 1e-10
    vec, plan = posterior(d, "C", evidence)
    assert plan.steps[0].encode() == "condition:E=0"
    assert 0.5 * np.sum(np.abs(vec - oracle_posterior(d, "C", evidence))) <= (
        1e-10)


def _bad_direct_diagrams():
    """Diagrams built directly, past add_node's checks, by name, each as
    (diagram, two nodes x, y of it, an arc x -> y where it has one, the
    (target, evidence) pairs to query it by)."""
    b = NodeSpec.probabilistic("b", ("0", "1"), cpt=[[0.6, 0.4]])
    a = NodeSpec.probabilistic("a", ("0", "1"), ("b",),
                               cpt=[[0.9, 0.1], [0.2, 0.8]])
    table = {what: (Diagram({"b": b, "a": bad}), ("b", "a"),
                    (("a", {}), ("a", {"b": "0"}), ("b", {"a": "1"})))
             for what, bad in (
                 # A table that is neither a Cpt nor a DetTable, and parents
                 # that are a list or a string, not a tuple.
                 ("no table", replace(a, table=None)),
                 ("list parents", replace(a, parents=["b"])),
                 ("string parents", replace(a, parents="b")))}
    # A parent naming no node, and 3 rows for the 2 outcomes of the parent.
    a = NodeSpec.probabilistic("a", ("0", "1"), cpt=[[0.5, 0.5]])
    table.update(
        (what, (Diagram({"a": a, "b": bad}), ("a", "b"),
                (("a", {}), ("b", {}))))
        for what, bad in (
            ("ghost parent", NodeSpec.probabilistic(
                "b", ("0", "1"), ("a", "ghost"), cpt=[[0.5, 0.5]] * 2)),
            ("extra rows", NodeSpec.probabilistic(
                "b", ("0", "1"), ("a",), cpt=[[0.5, 0.5]] * 3))))
    # A Cpt on a deterministic node and a DetTable on a probabilistic one,
    # each of the right shape.
    a = NodeSpec.probabilistic("a", ("0", "1"), cpt=[[0.6, 0.4]])
    cpt = NodeSpec.probabilistic("b", ("0", "1"), ("a",),
                                 cpt=[[0.9, 0.1], [0.2, 0.8]])
    det = NodeSpec.deterministic("b", ("0", "1"), ("a",), function=[0, 1])
    table.update(
        (what, (Diagram({"a": a, "b": bad}), ("a", "b"),
                (("a", {"b": "0"}), ("b", {}))))
        for what, bad in (("cpt, deterministic",
                           replace(cpt, kind=DETERMINISTIC)),
                          ("function, probabilistic",
                           replace(det, kind=PROBABILISTIC))))

    # The paper's examples with one node broken: an unhashable parent, a
    # parent naming no node, and 2 function entries for 3 parent outcomes.
    def broken(example, name, **fields):
        d = builtin_example(example)
        return Diagram({**d.nodes, name: replace(d.nodes[name], **fields)})
    query = (("heart_failure", {"xray": "abnormal"}),)
    table.update({
        "unhashable parent": (
            broken("fig9", "frothy_urine", parents=(["urine_protein"],)),
            ("heart_failure", "cardiomegaly"), query),
        "ghost parent, fig9": (broken("fig9", "xray", parents=("ghost",)),
                               ("cardiomegaly", "xray"), query),
        "short function": (broken("fig5", "output", table=DetTable([0, 1])),
                           ("program_error", "output"),
                           (("program_error", {}),))})
    # fig5's function with an entry past output's two outcomes, or below 0.
    table.update(
        (what, (broken("fig5", "output", table=DetTable(entries)),
                ("program_error", "output"),
                (("program_error", {"output": "correct"}), ("output", {}))))
        for what, entries in (("function entry past its outcomes", [0, 2, 1]),
                              ("negative function entry", [0, -1, 1])))
    # b lists its one parent a twice, with a row per pair of a's outcomes.
    a = NodeSpec.probabilistic("a", ("0", "1"), cpt=[[0.6, 0.4]])
    table["repeated parent"] = (
        Diagram({"a": a, "b": NodeSpec(
            "b", ("0", "1"), PROBABILISTIC, ("a", "a"),
            Cpt([[0.9, 0.1], [0.5, 0.5], [0.5, 0.5], [0.2, 0.8]]))}),
        ("a", "b"), (("a", {"b": "0"}), ("b", {})))
    # a repeats its outcome label x, and b reads a row per label of a.
    table["repeated outcome label"] = (
        Diagram({"a": NodeSpec("a", ("x", "x", "y"), PROBABILISTIC, (),
                               Cpt([[0.2, 0.3, 0.5]])),
                 "b": NodeSpec("b", ("0", "1"), PROBABILISTIC, ("a",),
                               Cpt([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]))}),
        ("a", "b"), (("b", {"a": "x"}), ("a", {}), ("a", {"b": "0"})))
    # b <-> a is a cycle and e lies below it through c, r does not; and a
    # self-loop on s beside a root z, the loop no elimination would order.
    cpt = Cpt([[0.5, 0.5]] * 2)
    looped = Diagram({
        "c": NodeSpec("c", ("0", "1"), PROBABILISTIC, ("b",), cpt),
        "a": NodeSpec("a", ("0", "1"), PROBABILISTIC, ("b",), cpt),
        "b": NodeSpec("b", ("0", "1"), PROBABILISTIC, ("a",), cpt),
        "r": NodeSpec("r", ("0", "1"), PROBABILISTIC, (), Cpt([[0.5, 0.5]])),
        "e": NodeSpec("e", ("0", "1"), PROBABILISTIC, ("r", "c"),
                      Cpt([[0.5, 0.5]] * 4)),
    })
    table["cycle"] = (looped, ("r", "e"),
                      tuple((target, {}) for target in looped.nodes))
    table["self-loop"] = (
        Diagram({"s": NodeSpec("s", ("0", "1"), PROBABILISTIC, ("s",), cpt),
                 "z": NodeSpec("z", ("0", "1"), PROBABILISTIC, (),
                               Cpt([[0.5, 0.5]]))}),
        ("z", "s"), (("s", {}), ("z", {"s": "0"})))
    # A node keyed as "a" but named "b", the parent of "c".
    table["renamed node"] = (
        Diagram({"a": NodeSpec.probabilistic("b", ("0", "1"),
                                             cpt=[[0.6, 0.4]]),
                 "c": NodeSpec.probabilistic("c", ("0", "1"), ("a",),
                                             cpt=[[0.9, 0.1], [0.2, 0.8]])}),
        ("a", "c"), (("c", {}), ("a", {"c": "1"})))
    # fig9 with xray's first row broken: summing to 0.5, holding NaN or
    # +inf, or holding entries past [0, 1] that sum to 1.
    table.update(
        (what, (broken("fig9", "xray", table=Cpt([row, [0.1, 0.9]])),
                ("cardiomegaly", "xray"), query))
        for what, row in (("row summing to 0.5", [0.43, 0.07]),
                          ("NaN entry", [math.nan, 0.07]),
                          ("infinite entry", [math.inf, 0.07]),
                          ("entries past [0, 1]", [1.5, -0.5])))
    # A root a of bad name or labels, read by its child c: a name that is
    # no identifier, one outcome, and an empty label.
    for what, name, outcomes in (("name with a space", "a b", ("0", "1")),
                                 ("one outcome", "a", ("only",)),
                                 ("empty outcome label", "a", ("", "1"))):
        k = len(outcomes)
        table[what] = (
            Diagram({name: NodeSpec.probabilistic(name, outcomes,
                                                  cpt=[[1 / k] * k]),
                     "c": NodeSpec.probabilistic(
                         "c", ("0", "1"), (name,),
                         cpt=[[0.9, 0.1], [0.2, 0.8]][:k])}),
            (name, "c"), (("c", {}), ("c", {name: outcomes[0]}),
                          (name, {"c": "1"})))
    return table


_READERS = ("posterior", "greedy", "exhaustive", "compare_orders",
            "complexity", "joint_table", "d_separated", "reverse_arc",
            "sum_out", "condition", "remove_barren", "apply_step",
            "promote_deterministic", "refactor", "prune_constant_parents",
            "save", "topological_order", "export_dot")
_UNTYPED = ["no table", "list parents", "string parents"]
_DIRECT = ["ghost parent", "extra rows", "unhashable parent",
           "ghost parent, fig9", "short function", "renamed node",
           "repeated parent", "function entry past its outcomes",
           "negative function entry", "repeated outcome label"]
_OTHER_KIND = ["cpt, deterministic", "function, probabilistic"]
_CYCLES = ["cycle", "self-loop"]
_VALUES = {"row summing to 0.5": "NormalizationViolation",
           "NaN entry": "EntryOutOfRange",
           "infinite entry": "EntryOutOfRange",
           "entries past [0, 1]": "EntryOutOfRange",
           "name with a space": "InvalidName",
           "one outcome": "InvalidOutcomes",
           "empty outcome label": "InvalidOutcomes"}


def _assert_refused(what, readers=_READERS, table=None):
    """Each public reader named in `readers`, each query and each transform
    alike, refuses the diagram `what` of _bad_direct_diagrams (or of
    `table`, of its form) with the oracle's error and message, before it
    reads a table or decides a precondition. Returns the message."""
    d, (x, y), queries = (table or _bad_direct_diagrams())[what]
    outcome = d.nodes[x].outcomes[0]
    for target, evidence in queries:
        with pytest.raises(InvalidDiagram) as want:
            oracle_posterior(d, target, evidence)
        message = f"^{re.escape(str(want.value))}$"
        calls = {
            "posterior": lambda: posterior(d, target, evidence),
            "greedy": lambda: plan_reversals(d, target, evidence, "greedy"),
            "exhaustive": lambda: plan_reversals(d, target, evidence,
                                                 "exhaustive"),
            "compare_orders": lambda: compare_orders(d, target, evidence,
                                                     "exhaustive"),
            "complexity": lambda: complexity(d),
            "joint_table": lambda: joint_table(d),
            "d_separated": lambda: d_separated(d, x, y, ()),
            "reverse_arc": lambda: reverse_arc(d, x, y),
            "sum_out": lambda: sum_out(d, x),
            "condition": lambda: condition(d, x, outcome),
            "remove_barren": lambda: remove_barren(d, y),
            "apply_step": lambda: apply_step(d, TransformStep(REMOVE_BARREN,
                                                              x)),
            "promote_deterministic": lambda: promote_deterministic(d, y),
            "refactor": lambda: refactor(d, list(reversed(d.nodes))),
            "prune_constant_parents": lambda: prune_constant_parents(d),
            "save": lambda: save(d),
            "topological_order": lambda: topological_order(d),
            "export_dot": lambda: export_dot(d)}
        assert tuple(calls) == _READERS
        for name in readers:
            with pytest.raises(InvalidDiagram, match=message):
                calls[name]()
    return message


@pytest.mark.parametrize("what", _UNTYPED)
def test_a_table_or_parents_of_no_known_type_are_refused(what):
    # A table that is neither a Cpt nor a DetTable, or a child of "b" whose
    # parents are a list or a string, not a tuple. validate reports it,
    # add_node refuses it with the error load would use, and every query
    # and transform refuses it with the oracle's error and message.
    d = _bad_direct_diagrams()[what][0]
    kind, error = {
        "no table": ("TableShapeMismatch", TableShapeMismatch),
        "list parents": ("InvalidParents", InvalidNodeSpec),
        "string parents": ("InvalidParents", InvalidNodeSpec),
    }[what]
    assert [(v.kind, v.node) for v in validate(d).violations] == [(kind, "a")]
    with pytest.raises(error, match=kind):
        add_node(Diagram({"b": d.nodes["b"]}), d.nodes["a"])
    _assert_refused(what, [r for r in _READERS
                           if r not in ("save", "d_separated")])


@pytest.mark.parametrize("what", _UNTYPED)
def test_save_and_d_separated_refuse_what_every_query_refuses(what):
    # The same three diagrams: save raised AttributeError on the first and
    # wrote the others as parents ["b"], which load accepts; d_separated
    # answered. Both now raise the oracle's error and message.
    _assert_refused(what, ("save", "d_separated"))


def test_a_bad_direct_diagram_is_refused_at_the_engine_entry():
    # A parent naming no node, 3 rows for the 2 outcomes of the one parent,
    # the paper's examples with one node broken, a node keyed under another
    # name, a parent listed twice, a function entry past its node's
    # outcomes or below 0, and an outcome label listed twice. Every public
    # reader refuses each, save included: it wrote the extra rows and the
    # short function, which load refuses, and the renamed node, which every
    # query answered; every query read a repeated parent off an einsum
    # diagonal, wrapped a negative entry and raised IndexError past the
    # outcomes, and a posterior conditioned on a repeated label read the
    # first of its rows alone, which save wrote too. The six tests of
    # _bad_direct_diagrams between them read every diagram of it.
    assert sorted(_bad_direct_diagrams()) == sorted(
        _UNTYPED + _DIRECT + _OTHER_KIND + _CYCLES + [*_VALUES])
    for what in _DIRECT:
        _assert_refused(what)


@pytest.mark.parametrize("what", _VALUES)
def test_a_diagram_validate_refuses_is_refused_by_every_reader(what):
    # A cpt row that does not sum to 1, a NaN or infinite entry, entries
    # past [0, 1], a name that is no identifier, one outcome, and an empty
    # label: the entry runs validate's own checker, so every public reader
    # refuses each with the oracle's error and message. Every query used
    # to answer them all, a posterior through the NaN row as [nan, nan],
    # and save wrote all but the non-finite ones, which load refuses.
    assert _VALUES[what] in _assert_refused(what)


def test_a_table_of_the_other_kind_is_refused_at_the_engine_entry():
    # A Cpt on a deterministic node and a DetTable on a probabilistic one,
    # each of the right shape. Every public reader refuses both with the
    # oracle's error and message instead of reading the table.
    for what in _OTHER_KIND:
        assert "TableShapeMismatch" in _assert_refused(what)


def _changed_after_load():
    """fig9 loaded and queried, so checked, then its node map changed in
    place, by name, in _bad_direct_diagrams' form: a node added whose
    parent names no node, a node swapped for one that closes a cycle, and
    a parent's node deleted."""
    def changed(edit):
        d = load(save(builtin_example("fig9")))
        posterior(d, "heart_failure", {"xray": "abnormal"})
        edit(d.nodes)
        return d

    ghost = NodeSpec.probabilistic("extra", ("0", "1"), ("ghost",),
                                   cpt=[[0.5, 0.5]] * 2)
    looped = NodeSpec.probabilistic("heart_failure", ("absent", "present"),
                                    ("xray",), cpt=[[0.9, 0.1], [0.2, 0.8]])
    query = (("heart_failure", {"xray": "abnormal"}),)
    return {
        "node added": (changed(lambda nodes: nodes.update(extra=ghost)),
                       ("heart_failure", "cardiomegaly"), query),
        "node swapped": (
            changed(lambda nodes: nodes.update(heart_failure=looped)),
            ("heart_failure", "cardiomegaly"), query),
        "parent deleted": (changed(lambda nodes: nodes.pop("cardiomegaly")),
                           ("heart_failure", "pitting_edema"), query)}


def test_a_loaded_diagram_changed_after_its_check_is_checked_again():
    # A loaded diagram carries the entry's result only for the node map it
    # was checked with. Changed in place, it is checked again in full, so
    # every public reader refuses a broken change with the oracle's error
    # and message, and a valid change is answered from the new structure,
    # never from the one carried.
    table = _changed_after_load()
    for what in table:
        _assert_refused(what, table=table)
    d = load(save(builtin_example("fig9")))
    evidence = {"xray": "abnormal"}
    posterior(d, "heart_failure", evidence)
    d.nodes["xray"] = NodeSpec.probabilistic("xray", ("normal", "abnormal"),
                                             cpt=[[0.5, 0.5]])
    got = posterior(d, "heart_failure", evidence)[0]
    assert got.tolist() == [0.9, 0.1]
    assert 0.5 * np.sum(np.abs(
        got - oracle_posterior(d, "heart_failure", evidence))) <= 1e-10


def test_a_query_of_a_loaded_diagram_makes_no_depth_pass_before_its_first_step(
        monkeypatch):
    # load's validation made the depth pass, and the diagram carries it:
    # no query of it makes one before its first step, in the entry's
    # checker or after it, except a posterior whose pruning sliced
    # evidence, which passes over the structure left (seeds 1 and 7), as
    # for a directly built diagram.
    events = []
    depths, restructure = transform.node_depths, transform._restructure

    def passed(parents):
        events.append("depth")
        return depths(parents)

    def decided(*args, **kwargs):
        events.append("step")
        return restructure(*args, **kwargs)

    patch_everywhere(monkeypatch, depths, passed)
    monkeypatch.setattr(inference, "_restructure", decided)
    sliced = []
    for seed in range(10):
        d, target, evidence = seeded_query_case(seed)
        d = load(save(d))
        queries = {
            "posterior": lambda: posterior(d, target, evidence)[1].pruned,
            "greedy": lambda: plan_reversals(d, target, evidence, "greedy"),
            "exhaustive": lambda: plan_reversals(d, target, evidence,
                                                 "exhaustive"),
            "ranking": lambda: compare_orders(d, target, evidence,
                                              "exhaustive"),
            "sample": lambda: compare_orders(d, target, evidence,
                                             "greedy-sample")}
        for name, query in queries.items():
            events.clear()
            got = query()
            cut = name == "posterior" and any(o is not None for _, o in got)
            sliced += [seed] * cut
            first = events.index("step") if "step" in events else len(events)
            assert events[:first] == ["depth"] * cut, seed
    assert sliced == [1, 7]


@pytest.mark.parametrize("cap", [transform.MAX_REVERSAL_CELLS, 16, 32, 64])
def test_every_reversal_run_fits_the_cell_cap(monkeypatch, cap):
    # The cap bounds what the kernel allocates: each reversal it runs lays
    # out a product over the merged parents, x and y's axis as it stands,
    # which holds one outcome of a conditioning step's observed y.
    laid_out = []
    run = transform._Work.run

    def counted(self, shape, reversals):
        laid_out.extend(
            row_count(map(self.arity.__getitem__, union + (x,)))
            * self.grid(y)[1].shape[-1] for x, y, union, _ in reversals)
        return run(self, shape, reversals)

    monkeypatch.setattr(transform._Work, "run", counted)
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", cap)
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        for query in (lambda: posterior(d, target, evidence),
                      lambda: plan_reversals(d, target, evidence, "greedy"),
                      lambda: compare_orders(d, target, evidence,
                                             "exhaustive")):
            try:
                query()
            except TooLarge:
                pass
    assert laid_out
    assert max(laid_out) <= cap


def test_plan_root_target_no_evidence_is_only_barren_removal():
    d = builtin_example("fig9")
    vec, plan = posterior(d, "heart_failure", {})
    assert np.allclose(vec, [0.9, 0.1], atol=1e-15)
    assert all(s.kind == REMOVE_BARREN for s in plan.steps)
    assert plan.total_added_arcs == 0


def test_plan_reversals_greedy_runs_and_is_legal():
    d, target, evidence = seeded_query_case(4)
    plan = plan_reversals(d, target, evidence, strategy="greedy")
    cur = d
    for step in plan.steps:
        cur, _ = apply_step(cur, step)
    assert list(cur.nodes) == [target]


def test_exhaustive_never_worse_than_greedy():
    for seed in (0, 3, 11, 19):
        d, target, evidence = seeded_query_case(seed)
        greedy = plan_reversals(d, target, evidence, strategy="greedy")
        best = plan_reversals(d, target, evidence, strategy="exhaustive")
        assert best.total_added_arcs <= greedy.total_added_arcs


@pytest.mark.parametrize("cap", [transform.MAX_REVERSAL_CELLS, 16, 32, 64])
def test_exhaustive_plan_is_the_top_ranked_plan(monkeypatch, cap):
    # The dynamic program lists no order, yet hands back the plan the
    # exhaustive ranking puts first, as its run returned it, or refuses
    # where the ranking does. Under the small caps some orders are
    # dropped part-way through, and some queries fit no order at all.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", cap)
    refused = 0
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        try:
            want = compare_orders(d, target, evidence, "exhaustive")[0][0]
        except TooLarge:
            with pytest.raises(TooLarge, match="^every order needs"):
                plan_reversals(d, target, evidence, "exhaustive")
            refused += 1
            continue
        got = plan_reversals(d, target, evidence, "exhaustive")
        assert [(s.encode(), s.added_arcs, s.parameters_touched, s.zero_rows)
                for s in got.steps] == [
            (s.encode(), s.added_arcs, s.parameters_touched, s.zero_rows)
            for s in want.steps], seed
        assert got == want, seed
    assert refused < 40
    assert refused or cap == transform.MAX_REVERSAL_CELLS


def test_exhaustive_plan_refuses_past_its_node_cap(monkeypatch):
    # Past MAX_PLANNED_NODES nodes to eliminate the plan is refused before
    # any step is decided.
    d, target, evidence = seeded_query_case(123)
    lone = empty_diagram()
    for i in range(inference.MAX_PLANNED_NODES + 2):
        lone = add_node(lone, NodeSpec.probabilistic(f"n{i}", ("0", "1"),
                                                     cpt=[[0.5, 0.5]]))
    decided = []
    monkeypatch.setattr(inference, "_eliminated",
                        lambda *a: decided.append(a) or _eliminated(*a))
    with pytest.raises(TooLargeForExhaustive):
        plan_reversals(lone, "n0", {}, "exhaustive")
    assert not decided
    # At the cap it plans; one node past it, it refuses.
    monkeypatch.setattr(inference, "MAX_PLANNED_NODES", len(d.nodes) - 1)
    assert plan_reversals(d, target, evidence, "exhaustive") == (
        compare_orders(d, target, evidence, "exhaustive")[0][0])
    monkeypatch.setattr(inference, "MAX_PLANNED_NODES", len(d.nodes) - 2)
    with pytest.raises(TooLargeForExhaustive):
        plan_reversals(d, target, evidence, "exhaustive")


def test_exhaustive_plan_reaches_past_the_ranking_cap():
    # Ten nodes: 9! orders are past compare_orders' cap, but the dynamic
    # program plans them, no worse than greedy (here better: 5 arcs to 8),
    # and its plan replays to the oracle's answer.
    d = gen_random(10, 3, 0.4, 0.2, 6)
    target, evidence = positive_query(d, random.Random(6))
    with pytest.raises(TooLargeForExhaustive):
        compare_orders(d, target, evidence, "exhaustive")
    best = plan_reversals(d, target, evidence, "exhaustive")
    greedy = plan_reversals(d, target, evidence, "greedy")
    assert (best.total_added_arcs, greedy.total_added_arcs) == (5, 8)
    cur = d
    for step in best.steps:
        cur, _ = apply_step(cur, step)
    assert list(cur.nodes) == [target]
    want = oracle_posterior(d, target, evidence)
    assert 0.5 * np.sum(np.abs(table_array(cur, target) - want)) <= 1e-10


@pytest.mark.parametrize("cls", [TransformStep, Plan, NodeSpec],
                         ids=lambda cls: cls.__name__)
def test_a_value_class_builds_as_its_generated_twin(cls):
    # Each class writes its own constructor; its twin is the dataclass
    # with the same fields and defaults, all generated. Compared on every
    # field (vars holds each), so a field added to the class that its
    # constructor does not fill in fails here; with only the fields that
    # have no default, the defaults are compared too.
    twin = make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is MISSING
        else (f.name, f.type, f.default) for f in fields(cls)], frozen=True)

    def params(c):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(twin)
    values = [(f.name,) for f in fields(cls)]
    required = [v for f, v in zip(fields(cls), values)
                if f.default is MISSING and f.default_factory is MISSING]
    made = [cls(*args) for args in (values, required)]
    twins = [twin(*args) for args in (values, required)]
    assert [vars(m) for m in made] == [vars(t) for t in twins]
    assert [[m == n for n in made] for m in made] == [
        [t == u for u in twins] for t in twins]
    assert [*map(hash, made)] == [*map(hash, twins)]
    assert [*map(repr, made)] == [*map(repr, twins)]
    for m in made:
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(m, f.name, None)


def test_plan_reversals_unknown_strategy():
    with pytest.raises(InvalidParameters):
        plan_reversals(chain_xyz(), "X", {}, strategy="psychic")


def test_plan_reversals_refuses_an_unhashable_strategy():
    # A list strategy raised a raw TypeError from the strategy table's
    # lookup; it is refused as compare_orders refuses a list mode.
    fig9 = builtin_example("fig9")
    for strategy in (["greedy"], {"greedy": 1}):
        with pytest.raises(InvalidParameters, match="unknown strategy"):
            plan_reversals(fig9, "heart_failure", {}, strategy)
    with pytest.raises(InvalidParameters, match="unknown mode"):
        compare_orders(fig9, "heart_failure", {}, ["exhaustive"])


def test_d_separation_chain_fork_collider():
    chain = chain_xyz()
    assert d_separated(chain, "X", "Z", {"Y"})
    assert not d_separated(chain, "X", "Z", set())

    fork = builtin_example("fig7")
    assert d_separated(fork, "effect_a", "effect_b", {"cause"})
    assert not d_separated(fork, "effect_a", "effect_b", set())

    coll = collider()
    assert d_separated(coll, "A", "B", set())
    assert not d_separated(coll, "A", "B", {"E"})


def test_d_separation_collider_descendant_opens_path():
    d = collider()
    d = add_node(d, NodeSpec.probabilistic("F", ("0", "1"), ("E",),
                                           cpt=[[0.8, 0.2], [0.3, 0.7]]))
    assert not d_separated(d, "A", "B", {"F"})
    assert d_separated(d, "A", "F", {"E"})


def test_d_separation_disconnected_nodes():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("P", ("0", "1"), cpt=[[0.5, 0.5]]))
    d = add_node(d, NodeSpec.probabilistic("Q", ("0", "1"), cpt=[[0.5, 0.5]]))
    assert d_separated(d, "P", "Q", set())


def moral_separated(d, a, b, given) -> bool:
    """a and b are separated iff no path joins them in the moral graph of
    the ancestral set of {a, b} | given, once the given nodes are deleted."""
    keep, stack = set(), [a, b, *given]
    while stack:
        n = stack.pop()
        if n not in keep:
            keep.add(n)
            stack.extend(d.nodes[n].parents)
    nbrs = {n: set() for n in keep}
    for n in keep:
        family = [n, *d.nodes[n].parents]
        for u, v in itertools.combinations(family, 2):
            nbrs[u].add(v)
            nbrs[v].add(u)
    seen, stack = {a}, [a]
    while stack:
        for m in nbrs[stack.pop()] - seen - set(given):
            seen.add(m)
            stack.append(m)
    return b not in seen


def test_d_separation_is_sound_and_complete():
    # Bayes-Ball against the moral-graph criterion, which is exact both
    # ways: every pair, every conditioning set of at most two nodes.
    separated = 0
    for seed in range(100):
        d, _, _ = seeded_query_case(seed)
        for a, b in itertools.permutations(d.nodes, 2):
            rest = [n for n in d.nodes if n not in (a, b)]
            for k in range(3):
                for given in itertools.combinations(rest, k):
                    got = d_separated(d, a, b, given)
                    assert got == moral_separated(d, a, b, given), (
                        seed, a, b, given)
                    separated += got
    assert separated > 0


def test_d_separation_takes_a_lone_string_as_one_name():
    d = builtin_example("fig9")
    for a, b, name, want in (
            ("heart_failure", "frothy_urine", "xray", True),
            ("heart_failure", "nephrotic_syndrome", "pitting_edema", False),
            ("heart_failure", "xray", "cardiomegaly", True)):
        assert d_separated(d, a, b, name) is want
        assert d_separated(d, a, b, [name]) is want
    with pytest.raises(UnknownNode, match="'ghost'"):
        d_separated(d, "heart_failure", "xray", "ghost")


def test_d_separation_argument_errors():
    d = chain_xyz()
    with pytest.raises(SameNode):
        d_separated(d, "X", "X", set())
    with pytest.raises(UnknownNode):
        d_separated(d, "X", "Q", set())
    with pytest.raises(InvalidParameters):
        d_separated(d, "X", "Z", {"X"})
    for a, b, given in ((["X"], "Z", ()), ("X", ["Z"], ()),
                        ("X", "Z", [["Y"]])):
        with pytest.raises(UnknownNode):
            d_separated(d, a, b, given)
    for given in (None, 3):
        with pytest.raises(InvalidParameters):
            d_separated(d, "X", "Z", given)


def test_metrics_basics():
    assert complexity(empty_diagram()) == Metrics(0, 0)
    m = complexity(builtin_example("fig9"))
    assert m.arc_count == 6
    assert m.free_parameter_count == 14
    # Deterministic tables carry no free parameters.
    assert complexity(builtin_example("fig5")).free_parameter_count == 2


def test_metrics_fork_before_and_after_usage_order():
    fork = builtin_example("fig7")
    assert complexity(fork) == Metrics(2, 5)
    refd = refactor(fork, ["effect_a", "effect_b", "cause"])
    assert complexity(refd) == Metrics(3, 7)


def test_metrics_never_decrease_under_usage_refactor():
    fork = builtin_example("fig7")
    coll = builtin_example("fig8")
    assert (complexity(refactor(fork, ["effect_a", "effect_b", "cause"]))
            .arc_count >= complexity(fork).arc_count)
    assert (complexity(refactor(coll, ["effect", "cause_a", "cause_b"]))
            .arc_count >= complexity(coll).arc_count)


def test_compare_orders_ranks_and_finds_gap():
    d = chain_xyz()
    ranked = compare_orders(d, "Z", {}, mode="exhaustive")
    totals = [p.total_added_arcs for p, _ in ranked]
    assert totals == sorted(totals)
    assert len(ranked) == 2  # permutations of {X, Y}
    assert totals[-1] - totals[0] >= 1


def _plan_order(diagram, evidence, node_order):
    """The plan eliminating nodes in the given order, and the *peak*
    complexity the diagram reaches along the way, summed afresh after each
    step; None when a step passes the reversal cell cap. Each order is
    replayed from the start."""
    shape, arity, _ = _structure(diagram)
    peak = complexity(diagram)
    steps = []
    for name in node_order:
        taken = _eliminated(shape, arity, name, evidence, node_depths(shape),
                            _parented(shape))
        if taken is None:
            return None
        shape, st, _, _ = taken
        arcs, params = _summed(shape, arity)
        peak = Metrics(max(peak.arc_count, arcs),
                       max(peak.free_parameter_count, params))
        steps.append(st)
    return _plan_of(steps), peak


def _replayed_ranking(diagram, evidence, orders):
    """Each order replayed from the start by ``_plan_order``, the ones
    that fit the cell cap ranked by added arcs, then encoding."""
    want = [pm for pm in (_plan_order(diagram, evidence, o) for o in orders)
            if pm is not None]
    want.sort(key=lambda pm: (pm[0].total_added_arcs, pm[0].encode()))
    return want


@pytest.mark.parametrize("cap", [transform.MAX_REVERSAL_CELLS, 16, 32, 64])
def test_exhaustive_ranking_matches_every_order_replayed(monkeypatch, cap):
    # Reference: each ordering replayed from the start, then the same sort.
    # Under the small caps some orders are dropped part-way through, and
    # the orders after them resume from a shorter prefix.
    def key(pm):
        plan, peak = pm
        return (plan.encode(), [(s.added_arcs, s.parameters_touched)
                                for s in plan.steps],
                plan.total_added_arcs, plan.total_parameters_touched, peak)

    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", cap)
    for seed in range(15):
        d, target, evidence = seeded_query_case(seed)
        others = sorted(n for n in d.nodes if n != target)
        want = _replayed_ranking(d, evidence,
                                 itertools.permutations(others))
        try:
            got = compare_orders(d, target, evidence, mode="exhaustive")
        except TooLarge:
            got = []
        assert [key(pm) for pm in got] == [key(pm) for pm in want], seed
    lone = add_node(empty_diagram(), NodeSpec.probabilistic(
        "X", ("0", "1"), cpt=[[0.5, 0.5]]))
    assert compare_orders(lone, "X", {}, mode="exhaustive") == [
        (Plan((), 0, 0), complexity(lone))]


def test_ranking_resumes_no_further_than_the_order_before_went(
        monkeypatch):
    # Each order resumes from the prefix it shares with the order before
    # it, but no deeper than that order went. Under a 16-cell cap the
    # second order here is dropped at its third step, v4; the third shares
    # three steps with it, so it stops at v4 too, and the fourth resumes
    # after two steps and fits. The top plan's decided steps are its own.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", 16)
    d, target, evidence = seeded_query_case(3)
    orders = [("v2", "v3", "v0", "v5", "v4"),
              ("v2", "v3", "v4", "v0", "v5"),
              ("v2", "v3", "v4", "v5", "v0"),
              ("v2", "v3", "v0", "v4", "v5"),
              ("v2", "v0", "v3", "v4", "v5"),
              ("v3", "v2", "v0", "v5", "v4")]
    dropped = orders[1]
    assert _plan_order(d, evidence, dropped[:2]) is not None
    assert _plan_order(d, evidence, dropped[:3]) is None
    shape, arity, depth = _structure(d)
    ranked, decided = _ranked(shape, arity, evidence, orders, depth)
    assert ranked == _replayed_ranking(d, evidence, orders)
    assert len(ranked) == 4
    assert tuple(taken[1] for taken in decided) == ranked[0][0].steps


@pytest.mark.parametrize("cap", [transform.MAX_REVERSAL_CELLS, 16])
def test_ranking_of_sampled_orders_matches_them_replayed(monkeypatch, cap):
    # A greedy-sample shaped list, out of lexicographic order: the greedy
    # order first, then shuffles, each followed by one that keeps its
    # first steps and shuffles the rest, so the prefix an order resumes
    # from varies in length from one order to the next.
    monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", cap)
    for seed in range(15):
        d, target, evidence = seeded_query_case(seed)
        shape, arity, depth = _structure(d)
        try:
            greedy = _greedy_plan(shape, arity, target, evidence, depth)
        except TooLarge:
            continue
        orders = [tuple(taken[1].node for taken in greedy)]
        rng = random.Random(seed)
        for _ in range(8):
            perm = [n for n in shape if n != target]
            rng.shuffle(perm)
            keep = rng.randrange(len(perm))
            tail = perm[keep:]
            rng.shuffle(tail)
            orders += [tuple(perm), tuple(perm[:keep] + tail)]
        ranked, decided = _ranked(shape, arity, evidence, orders, depth)
        assert ranked == _replayed_ranking(d, evidence, orders), seed
        assert tuple(taken[1] for taken in decided) == (
            ranked[0][0].steps if ranked else ())


@pytest.mark.parametrize("mode", ["exhaustive", "greedy-sample"])
def test_ranked_plans_carry_their_own_totals_in_order(mode):
    # The totals a ranking carries down each order are the sums over the
    # plan's steps, and the list runs best first by (added arcs, encoding),
    # as Plan defines them.
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        ranked = compare_orders(d, target, evidence, mode=mode)
        for plan, _ in ranked:
            assert plan.total_added_arcs == sum(
                s.added_arcs for s in plan.steps)
            assert plan.total_parameters_touched == sum(
                s.parameters_touched for s in plan.steps)
        keys = [(p.total_added_arcs, p.encode()) for p, _ in ranked]
        assert keys == sorted(keys), seed


def test_exhaustive_ranking_restructures_each_structure_once(monkeypatch):
    # k nodes to order: one step per distinct (structure, candidate), which
    # is k * 2**(k-1) when each eliminated set reaches one structure, not
    # one per node of the order tree, the sum over j of k!/(k-j)!. Counted
    # through both modules' bindings: the top-ranked plan runs as the walk
    # decided it, with no step decided again on the tables.
    calls = []
    restructure = inference._restructure

    def counted(shape, arity, kind, name, other=None, outcome=None, *,
                depth):
        calls.append((kind, name))
        return restructure(shape, arity, kind, name, other, outcome,
                           depth=depth)

    monkeypatch.setattr(inference, "_restructure", counted)
    monkeypatch.setattr(transform, "_restructure", counted)
    for seed, k, want in ((3, 5, 80), (4, 6, 192)):
        d, target, evidence = seeded_query_case(seed)
        assert len(d.nodes) - 1 == k
        calls.clear()
        compare_orders(d, target, evidence, mode="exhaustive")
        assert len(calls) == want


class Unscannable(set):
    """A parent set that may be asked what it holds, never iterated."""

    def __iter__(self):
        raise AssertionError("a parent set was scanned")


class UnscannableCounts(dict):
    """A child-count map that may be asked and updated, never iterated."""

    def __iter__(self):
        raise AssertionError("a count map was scanned")


def count_parent_sets(monkeypatch) -> tuple[list, list]:
    """Make every parent set the planners build an Unscannable and every
    count map an UnscannableCounts, and check ``_kind`` reads one of them,
    never a structure; returns the lists of structures each parent set
    and each count map was made for."""
    made, counted, kind = [], [], inference._kind

    def parent_set(shape):
        made.append(tuple(shape.items()))
        return Unscannable(_parented(shape))

    def count_map(shape):
        counted.append(tuple(shape.items()))
        return UnscannableCounts(_child_counts(shape))

    def checked(parented, name, evidence):
        assert type(parented) in (Unscannable, UnscannableCounts)
        return kind(parented, name, evidence)

    monkeypatch.setattr(inference, "_parented", parent_set)
    monkeypatch.setattr(inference, "_child_counts", count_map)
    monkeypatch.setattr(inference, "_kind", checked)
    return made, counted


def test_ranking_makes_one_parent_set_per_state_decided_from(monkeypatch):
    # The exhaustive walk decides from each structure of fewer than k
    # eliminated nodes: 2**k - 1 of them when each eliminated set reaches
    # one structure, each given its parent set at its first decision.
    made, counted = count_parent_sets(monkeypatch)
    decided_from = []
    restructure = inference._restructure

    def recorded(shape, *args, **kwargs):
        decided_from.append(tuple(shape.items()))
        return restructure(shape, *args, **kwargs)

    monkeypatch.setattr(inference, "_restructure", recorded)
    for seed, k in ((3, 5), (4, 6)):
        d, target, evidence = seeded_query_case(seed)
        made.clear()
        decided_from.clear()
        compare_orders(d, target, evidence, mode="exhaustive")
        assert len(made) == len(set(made)) == 2 ** k - 1
        assert set(made) == set(decided_from)
        assert counted == []


def test_greedy_makes_a_count_map_only_after_a_step_that_rewrites(
        monkeypatch):
    # A round after a barren deletion updates the count map the last round
    # used and builds none; every other round builds one, for its encoding
    # sort and every decision in it, and no parent set. The fixed plan
    # makes one parent set per step, and hands it to _eliminated.
    made, counted = count_parent_sets(monkeypatch)
    carried = 0
    for label, d, target, evidence in _greedy_cases():
        made.clear()
        counted.clear()
        shape, arity, depth = _structure(d)
        decided = _greedy_plan(shape, arity, target, evidence, depth)
        assert made == []
        assert counted == [tuple(shape.items())] + [
            tuple(after.items()) for after, step, _, _ in decided[:-1]
            if step.kind != REMOVE_BARREN], label
        carried += len(decided) - len(counted)
        made.clear()
        counted.clear()
        plan = posterior(d, target, evidence)[1]
        assert len(made) == len(plan.steps)
        assert counted == []
    assert carried > 100


def test_compare_orders_builds_one_structure_map(monkeypatch):
    # The walk starts from the map of the _Work that runs the top-ranked
    # plan and sums the start's complexity itself, so each call builds the
    # map once. Counted through both modules' bindings.
    calls = []
    structure = transform._structure

    def counted(diagram):
        calls.append(1)
        return structure(diagram)

    monkeypatch.setattr(inference, "_structure", counted)
    monkeypatch.setattr(transform, "_structure", counted)
    for seed in range(6):
        d, target, evidence = seeded_query_case(seed)
        for mode in ("exhaustive", "greedy-sample"):
            calls.clear()
            compare_orders(d, target, evidence, mode=mode)
            assert len(calls) == 1, (seed, mode)


def test_greedy_sample_decides_each_step_once(monkeypatch):
    # The sampled orders, the greedy one first, walk one graph of
    # structures: after the greedy plan, each (structure, node) step is
    # decided once, however many orders take it, not once per order.
    calls, walked = [], []
    restructure, greedy = inference._restructure, inference._greedy_plan

    def counted(shape, arity, kind, name, other=None, outcome=None, *,
                depth):
        calls.append(kind)
        walked.append((tuple(shape.items()), kind, name))
        return restructure(shape, arity, kind, name, other, outcome,
                           depth=depth)

    def planned(*args):
        decided = greedy(*args)
        walked.clear()
        return decided

    monkeypatch.setattr(inference, "_restructure", counted)
    monkeypatch.setattr(inference, "_greedy_plan", planned)
    for seed, want in ((3, 66), (4, 107)):
        d, target, evidence = seeded_query_case(seed)
        calls.clear()
        compare_orders(d, target, evidence, mode="greedy-sample")
        assert walked and len(set(walked)) == len(walked), seed
        assert len(calls) == want, seed


def test_compare_orders_all_same_cost_when_order_cannot_matter():
    fork = builtin_example("fig7")
    ranked = compare_orders(fork, "cause", {}, mode="exhaustive")
    totals = {p.total_added_arcs for p, _ in ranked}
    assert totals == {0}


def test_compare_orders_greedy_sample_subset_of_legal_plans():
    d, target, evidence = seeded_query_case(6)
    sample = compare_orders(d, target, evidence, mode="greedy-sample")
    assert sample  # at least the greedy plan
    totals = [p.total_added_arcs for p, _ in sample]
    assert totals == sorted(totals)
    # Peak complexity is measured from the starting diagram onward.
    for _, peak in sample:
        assert peak.arc_count >= complexity(d).arc_count


def test_compare_orders_exhaustive_guard():
    d = empty_diagram()
    for i in range(10):
        d = add_node(d, NodeSpec.probabilistic(f"n{i}", ("0", "1"),
                                               cpt=[[0.5, 0.5]]))
    with pytest.raises(TooLargeForExhaustive):
        compare_orders(d, "n0", {}, mode="exhaustive")
    with pytest.raises(InvalidParameters):
        compare_orders(chain_xyz(), "X", {}, mode="vibes")


def test_peak_metrics_never_below_final():
    d, target, evidence = seeded_query_case(14)
    for plan, peak in compare_orders(d, target, evidence,
                                     mode="greedy-sample")[:5]:
        cur = d
        for step in plan.steps:
            cur, _ = apply_step(cur, step)
        final = complexity(cur)
        assert peak.arc_count >= final.arc_count
        assert peak.free_parameter_count >= final.free_parameter_count


def canonical_order(shape):
    """The canonical order of a structure map worked out the slow way:
    depths by fixed-point iteration, then sorted by (depth, name)."""
    depth = dict.fromkeys(shape, 0)
    changed = True
    while changed:
        changed = False
        for n, (ps, *_) in shape.items():
            d = max((depth[p] + 1 for p in ps), default=0)
            if d != depth[n]:
                depth[n], changed = d, True
    return sorted(shape, key=lambda n: (depth[n], n))


def _constant_diagram(shape):
    """A valid diagram of the structure map ``shape``: each node
    deterministic, with two outcomes and a constant function."""
    return Diagram({n: NodeSpec.deterministic(n, ("0", "1"), ps,
                                              [0] * 2 ** len(ps))
                    for n, (ps, *_) in shape.items()})


def test_depth_key_orders_like_topological_order(monkeypatch):
    # The structural core compares nodes by (depth, name) from one depth
    # pass; on every structure it meets, mid-step included, that must be
    # topological_order's order.
    seen = []

    def recorded(shape):
        seen.append(dict(shape))
        return node_depths(shape)

    patch_everywhere(monkeypatch, node_depths, recorded)
    for size in range(1, 13):
        for seed in range(3):
            d = gen_random(size, 3, 0.5, 0.2, seed)
            seen.append({n: (s.parents, s.kind) for n, s in d.nodes.items()})
            refactor(d, list(reversed(topological_order(d))))
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        compare_orders(d, target, evidence, mode="exhaustive")
        plan_reversals(d, target, evidence, strategy="greedy")
    monkeypatch.undo()
    assert len(seen) > 1000
    for shape in {tuple(m.items()): m for m in seen}.values():
        by_key = sorted(shape, key=node_depths(shape).__getitem__)
        assert by_key == canonical_order(shape)
        assert by_key == topological_order(_constant_diagram(shape))
        rank = {n: i for i, n in enumerate(by_key)}
        assert all(rank[p] < rank[n] for n, (ps, _) in shape.items()
                   for p in ps)


def _longest_path_keys(shape):
    """Each node's (longest path from a root, name) in the structure map
    ``shape``, by a memoized recursion over the parents the map holds."""
    memo = {}

    def depth(n):
        if n not in memo:
            memo[n] = max((depth(p) + 1 for p in shape[n][0] if p in shape),
                          default=0)
        return memo[n]

    return {n: (depth(n), n) for n in shape}


def test_node_depths_keys_are_longest_paths_on_every_map_it_is_handed(
        monkeypatch):
    # Every structure map the engine hands node_depths in one seed-1 pass
    # of each workload, and in the planners on the seeded queries: each
    # node's key is (its longest path from a root, its name), as a
    # recursion written here works it out. Each workload makes the passes
    # scripts/step_counts.py counts (the models are loaded before), so a
    # pass added anywhere, under any name a module imports it by, shows.
    monkeypatch.syspath_prepend(str(DOCS.parent / "bench"))
    import workloads

    jobs = {name: _workload_job(workloads, name)
            for name in ("wide", "diagnose", "plan", "rewrite")}
    seen = collections.defaultdict(list)
    label = [None]

    def recorded(shape):
        seen[label[0]].append(dict(shape))
        return node_depths(shape)

    patch_everywhere(monkeypatch, node_depths, recorded)
    for name, job in jobs.items():
        label[0] = name
        _workload_pass(*job)
    label[0] = "planners"
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        for strategy in ("greedy", "exhaustive"):
            plan_reversals(d, target, evidence, strategy)
        for mode in ("exhaustive", "greedy-sample"):
            compare_orders(d, target, evidence, mode)
    monkeypatch.undo()
    assert {name: len(seen[name]) for name in jobs} == {
        "wide": 175, "diagnose": 985, "plan": 627, "rewrite": 1047}
    assert len(seen["planners"]) > 1000
    for maps in seen.values():
        for shape in maps:
            assert node_depths(shape) == _longest_path_keys(shape)


def test_each_query_makes_one_depth_pass_before_its_first_step(monkeypatch):
    # The engine's entry makes the one up-front depth pass, in the checker
    # it runs on a diagram not yet checked, which also refuses a cycle;
    # the planners start from it and add none of their own before the
    # first step they decide. A posterior whose pruning sliced evidence
    # rewired the nodes below it, so its first round makes a pass of the
    # structure left (seeds 1 and 7, each first conditioning). Each query
    # reads its own copy of the diagram, which no entry has checked yet.
    events = []
    depths, restructure = transform.node_depths, transform._restructure

    def passed(parents):
        events.append("depth")
        return depths(parents)

    def decided(*args, **kwargs):
        events.append("step")
        return restructure(*args, **kwargs)

    patch_everywhere(monkeypatch, depths, passed)
    monkeypatch.setattr(inference, "_restructure", decided)
    sliced = []
    for seed in range(10):
        d, target, evidence = seeded_query_case(seed)
        queries = {
            "posterior": lambda d: posterior(d, target, evidence)[1].pruned,
            "greedy": lambda d: plan_reversals(d, target, evidence, "greedy"),
            "exhaustive": lambda d: plan_reversals(d, target, evidence,
                                                   "exhaustive"),
            "ranking": lambda d: compare_orders(d, target, evidence,
                                                "exhaustive"),
            "sample": lambda d: compare_orders(d, target, evidence,
                                               "greedy-sample")}
        for name, query in queries.items():
            events.clear()
            got = query(Diagram(dict(d.nodes)))
            cut = name == "posterior" and any(o is not None for _, o in got)
            sliced += [seed] * cut
            first = events.index("step") if "step" in events else len(events)
            assert events[:first] == ["depth"] * (1 + cut), seed
    assert sliced == [1, 7]


def test_ranked_peaks_match_the_executed_diagrams():
    # Each ranked peak is the largest complexity() of the diagrams that
    # executing its plan step by step passes through, the start included.
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        after = {(): (d, complexity(d))}  # by prefix of encodings
        for mode in ("exhaustive", "greedy-sample"):
            for plan, peak in compare_orders(d, target, evidence, mode=mode):
                key, highest = (), complexity(d)
                for step in plan.steps:
                    prev, key = key, key + (step.encode(),)
                    if key not in after:
                        cur = apply_step(after[prev][0], step)[0]
                        after[key] = (cur, complexity(cur))
                    here = after[key][1]
                    highest = Metrics(
                        max(highest.arc_count, here.arc_count),
                        max(highest.free_parameter_count,
                            here.free_parameter_count))
                assert peak == highest, (seed, mode, plan.encode())


def test_a_cycle_is_reported_not_walked():
    # A diagram built directly, past add_node's checks, whose graph has a
    # cycle: the engine's entry decides it with its one depth pass, so
    # every public reader refuses it with the oracle's InvalidDiagram and
    # message, which names every node on or below the cycle. A self-loop
    # is a cycle too, though every other node would go barren before any
    # step ordered it.
    for what, nodes in zip(_CYCLES, ("a, b, c, e", "s")):
        assert re.escape(f"cycle through nodes: {nodes}") in (
            _assert_refused(what))


def _workload_job(workloads, name):
    """A benchmark workload's seeded inputs at seed 1, (job, models), its
    models loaded where its requests do not parse them, as a bench
    worker's set-up makes them; ``workloads`` is ``bench/workloads.py``."""
    job = workloads.build(name, 1, DOCS.parent)
    return job, (job["models"] if job["parse"]
                 else [load(t) for t in job["models"]])


def _workload_pass(job, models):
    """One pass of a workload's request list, as a bench worker runs it."""
    for req in job["requests"]:
        d = models[req["model"]]
        d = load(d) if job["parse"] else d
        op = req["op"]
        if op == "posterior":
            posterior(d, req["target"], req["evidence"])
        elif op == "dsep":
            d_separated(d, req["a"], req["b"], req["given"])
        elif op == "rewrite":
            save(refactor(d, req["order"]))
        elif op == "greedy":
            plan_reversals(d, req["target"], req["evidence"], "greedy")
        else:
            compare_orders(d, req["target"], req["evidence"], "exhaustive")


def test_handed_on_keys_are_a_fresh_pass_of_their_structure(monkeypatch):
    # The code that changes a structure hands on the depth keys it leaves
    # valid: _restructure beside its decided step, _flip_out after a
    # sum-out's or refactor's flips, _prune beside Plan.pruned. Every key
    # map handed on is the node_depths pass of the structure it travels with,
    # node for node; it may still name a node the step took out, which no
    # one reads again. Every planner on the seeded queries, refactor to
    # the reverse order, and one pass of each workload.
    handed = collections.Counter()

    def check(label, shape, keys):
        if keys is not None:
            handed[label] += 1
            assert {n: keys[n] for n in shape} == node_depths(shape), label

    restructure = transform._restructure
    flip_out, prune = transform._flip_out, inference._prune

    def restructured(shape, arity, kind, *args, **kwargs):
        decided = restructure(shape, arity, kind, *args, **kwargs)
        check(kind, decided[0], decided[3])
        return decided

    def flipped_out(shape, *args):
        keys = flip_out(shape, *args)
        check("_flip_out", shape, keys)
        return keys

    def pruned(work, *args):
        got = prune(work, *args)
        check("_prune", work.shape, got[2])
        return got

    monkeypatch.setattr(transform, "_restructure", restructured)
    monkeypatch.setattr(inference, "_restructure", restructured)
    monkeypatch.setattr(transform, "_flip_out", flipped_out)
    monkeypatch.setattr(inference, "_prune", pruned)
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        posterior(d, target, evidence)
        for strategy in ("greedy", "exhaustive"):
            plan_reversals(d, target, evidence, strategy)
        for mode in ("exhaustive", "greedy-sample"):
            compare_orders(d, target, evidence, mode)
        refactor(d, list(reversed(topological_order(d))))
        for name in d.nodes:
            sum_out(d, name)  # a childless one hands its keys on
    monkeypatch.syspath_prepend(str(DOCS.parent / "bench"))
    import workloads

    for name in ("wide", "diagnose", "plan", "rewrite"):
        _workload_pass(*_workload_job(workloads, name))
    assert handed.keys() == {REMOVE_BARREN, CONDITION, "sum_out",
                             "_flip_out", "_prune"}, handed


def _with_subclassed_cpt(d, name):
    """``d`` with ``name``'s table a subclass of Cpt holding its rows."""
    class SubCpt(Cpt):
        pass

    spec, nodes = d.nodes[name], dict(d.nodes)
    nodes[name] = NodeSpec(name, spec.outcomes, spec.kind, spec.parents,
                           SubCpt(spec.table.rows))
    return Diagram(nodes)


def test_a_cpt_subclass_is_read_as_a_cpt():
    # A table is read by its node's kind, not by its exact class: a Cpt
    # subclass passes validate, and every reader answers it as it answers
    # the same rows in a Cpt, the oracle's posterior included.
    plain = builtin_example("fig9")
    sub = _with_subclassed_cpt(plain, "cardiomegaly")
    assert validate(sub).ok
    evidence = {"xray": "abnormal", "pitting_edema": "present"}
    for target in ("heart_failure", "cardiomegaly", "nephrotic_syndrome"):
        got, plan = posterior(sub, target, evidence)
        want, want_plan = posterior(plain, target, evidence)
        assert got.tobytes() == want.tobytes()
        assert plan.encode() == want_plan.encode()
        assert 0.5 * np.sum(np.abs(
            got - oracle_posterior(sub, target, evidence))) <= 1e-10
        for strategy in ("greedy", "exhaustive"):
            assert plan_reversals(sub, target, evidence, strategy) == (
                plan_reversals(plain, target, evidence, strategy))
        for mode in ("exhaustive", "greedy-sample"):
            assert compare_orders(sub, target, evidence, mode) == (
                compare_orders(plain, target, evidence, mode))
    order = list(reversed(topological_order(plain)))
    for transform_of in (
            lambda d: refactor(d, order),
            lambda d: sum_out(d, "cardiomegaly"),
            lambda d: sum_out(d, "heart_failure"),
            lambda d: reverse_arc(d, "heart_failure", "cardiomegaly"),
            lambda d: reverse_arc(d, "cardiomegaly", "xray"),
            lambda d: condition(d, "cardiomegaly", "present"),
            lambda d: condition(d, "xray", "abnormal"),
            prune_constant_parents):
        assert save(transform_of(sub)) == save(transform_of(plain))
