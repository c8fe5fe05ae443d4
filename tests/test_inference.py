"""Query planning and execution, independence checks, complexity metrics."""

import itertools
import random
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import DOCS, positive_query, seeded_query_case
from infdiag import (
    Metrics,
    NodeSpec,
    add_node,
    builtin_example,
    compare_orders,
    complexity,
    d_separated,
    empty_diagram,
    gen_random,
    joint_table,
    load,
    oracle_posterior,
    plan_reversals,
    posterior,
    refactor,
)
from infdiag import inference, transform
from infdiag.errors import (
    CycleDetected,
    EvidenceOnTarget,
    InvalidParameters,
    SameNode,
    TooLarge,
    TooLargeForExhaustive,
    UnknownNode,
    UnknownOutcome,
    ZeroProbabilityEvidence,
)
from infdiag.diagram import (
    PROBABILISTIC,
    Cpt,
    Diagram,
    node_depths,
    reordered,
    table_array,
    topological_order,
)
from infdiag.inference import Plan, _eliminated, _plan_of, _summed
from infdiag.transform import (
    REMOVE_BARREN,
    SUM_OUT,
    TransformStep,
    _may_pass_cap,
    _structure,
    apply_step,
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
    # must measure the same costs step by step and end at the answer.
    for seed in (2, 9, 17, 23):
        d, target, evidence = seeded_query_case(seed)
        _, plan = posterior(d, target, evidence)
        plans = [plan] + [plan_reversals(d, target, evidence, strategy=s)
                          for s in ("greedy", "exhaustive")]
        plans += [p for p, _ in compare_orders(d, target, evidence,
                                               mode="greedy-sample")]
        want = oracle_posterior(d, target, evidence)
        # Zero-row fills happen at execution: planners record none.
        assert all(step.zero_rows == () for p in plans[1:] for step in p.steps)
        for i, plan in enumerate(plans):
            # A step that reverses or conditions re-sorts its result, and
            # deleting a childless node moves no other, so a replay from a
            # canonical map stays canonical.
            cur = reordered(d) if i == 0 else d
            for step in plan.steps:
                if i == 0:
                    assert list(cur.nodes) == topological_order(cur)
                cur, measured = apply_step(cur, step)
                assert measured.added_arcs == step.added_arcs
                assert measured.parameters_touched == step.parameters_touched
                if i == 0:  # posterior's steps ran, so they carry the fills
                    assert measured.zero_rows == step.zero_rows
            assert list(cur.nodes) == [target]
            vec = table_array(cur, target)
            assert 0.5 * np.sum(np.abs(vec - want)) <= 1e-10


def test_posterior_equals_its_plan_replayed_step_by_step():
    # posterior runs its plan on one working state of raw grids; apply_step
    # wraps every table in a NodeSpec and reads it back between steps. The
    # two must agree exactly, bits and zero rows. The deterministic-heavy
    # family exercises the indicator and substitution branch of the kernel.
    cases = [seeded_query_case(seed) for seed in range(40)]
    for path in sorted(DOCS.glob("*.json")):
        d = load(path.read_text())
        rng = random.Random(path.name)
        cases += [(d,) + positive_query(d, rng) for _ in range(4)]
    for seed in range(30):
        d = gen_random(8, 3, 0.4, 0.6, seed)
        cases.append((d,) + positive_query(d, random.Random(seed)))
    filled = 0
    for d, target, evidence in cases:
        vec, plan = posterior(d, target, evidence)
        cur = d
        for step in plan.steps:
            cur, ran = apply_step(cur, step)
            assert ran == step
            filled += len(step.zero_rows)
        assert list(cur.nodes) == [target]
        assert table_array(cur, target).tolist() == vec.tolist()
    assert filled > 0


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


def test_plan_reversals_unknown_strategy():
    with pytest.raises(InvalidParameters):
        plan_reversals(chain_xyz(), "X", {}, strategy="psychic")


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
    shape, arity = _structure(diagram)
    peak = complexity(diagram)
    capped = _may_pass_cap(arity)
    steps = []
    for name in node_order:
        taken = _eliminated(shape, arity, name, evidence, capped)
        if taken is None:
            return None
        shape, st, _ = taken
        arcs, params = _summed(shape, arity)
        peak = Metrics(max(peak.arc_count, arcs),
                       max(peak.free_parameter_count, params))
        steps.append(st)
    return _plan_of(steps), peak


def test_exhaustive_ranking_matches_every_order_replayed():
    # Reference: each ordering replayed from the start, then the same sort.
    def key(pm):
        plan, peak = pm
        return (plan.encode(), [(s.added_arcs, s.parameters_touched)
                                for s in plan.steps],
                plan.total_added_arcs, plan.total_parameters_touched, peak)

    for seed in range(15):
        d, target, evidence = seeded_query_case(seed)
        others = sorted(n for n in d.nodes if n != target)
        want = [_plan_order(d, evidence, o)
                for o in itertools.permutations(others)]
        want.sort(key=lambda pm: (pm[0].total_added_arcs, pm[0].encode()))
        got = compare_orders(d, target, evidence, mode="exhaustive")
        assert [key(pm) for pm in got] == [key(pm) for pm in want]
    lone = add_node(empty_diagram(), NodeSpec.probabilistic(
        "X", ("0", "1"), cpt=[[0.5, 0.5]]))
    assert compare_orders(lone, "X", {}, mode="exhaustive") == [
        (Plan((), 0, 0), complexity(lone))]


def test_exhaustive_ranking_restructures_each_structure_once(monkeypatch):
    # k nodes to order: one step per distinct (structure, candidate), which
    # is k * 2**(k-1) when each eliminated set reaches one structure, not
    # one per node of the order tree, the sum over j of k!/(k-j)!. Counted
    # through both modules' bindings: the top-ranked plan runs as the walk
    # decided it, with no step decided again on the tables.
    calls = []
    restructure = inference._restructure

    def counted(shape, arity, kind, name, other=None, outcome=None,
                depth=None):
        calls.append((kind, name))
        return restructure(shape, arity, kind, name, other, outcome, depth)

    monkeypatch.setattr(inference, "_restructure", counted)
    monkeypatch.setattr(transform, "_restructure", counted)
    for seed, k, want in ((3, 5, 80), (4, 6, 192)):
        d, target, evidence = seeded_query_case(seed)
        assert len(d.nodes) - 1 == k
        calls.clear()
        compare_orders(d, target, evidence, mode="exhaustive")
        assert len(calls) == want


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

    def counted(shape, arity, kind, name, other=None, outcome=None,
                depth=None):
        calls.append(kind)
        walked.append((tuple(shape.items()), kind, name))
        return restructure(shape, arity, kind, name, other, outcome, depth)

    def planned(*args):
        decided = greedy(*args)
        walked.clear()
        return decided

    monkeypatch.setattr(inference, "_restructure", counted)
    monkeypatch.setattr(inference, "_greedy_plan", planned)
    for seed, want in ((3, 76), (4, 122)):
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


def canonical_order(parents):
    """The canonical order worked out the slow way: depths by fixed-point
    iteration, then sorted by (depth, name)."""
    depth = dict.fromkeys(parents, 0)
    changed = True
    while changed:
        changed = False
        for n, ps in parents.items():
            d = max((depth[p] + 1 for p in ps), default=0)
            if d != depth[n]:
                depth[n], changed = d, True
    return sorted(parents, key=lambda n: (depth[n], n))


def test_depth_key_orders_like_topological_order(monkeypatch):
    # The structural core compares nodes by (depth, name) from one depth
    # pass; on every structure it meets, mid-step included, that must be
    # topological_order's order.
    seen = []
    depths = transform.node_depths

    def recorded(parents):
        seen.append(dict(parents))
        return depths(parents)

    monkeypatch.setattr(transform, "node_depths", recorded)
    for size in range(1, 13):
        for seed in range(3):
            d = gen_random(size, 3, 0.5, 0.2, seed)
            seen.append({n: s.parents for n, s in d.nodes.items()})
            refactor(d, list(reversed(topological_order(d))))
    for seed in range(40):
        d, target, evidence = seeded_query_case(seed)
        compare_orders(d, target, evidence, mode="exhaustive")
        plan_reversals(d, target, evidence, strategy="greedy")
    assert len(seen) > 1000
    for parents in seen:
        depth = node_depths(parents)
        by_key = sorted(parents, key=lambda n: (depth[n], n))
        assert by_key == canonical_order(parents)
        assert by_key == topological_order(Diagram({
            n: NodeSpec(n, ("0", "1"), PROBABILISTIC, ps, None)
            for n, ps in parents.items()}))
        rank = {n: i for i, n in enumerate(by_key)}
        assert all(rank[p] < rank[n] for n, ps in parents.items() for p in ps)


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
    # A diagram built directly, past add_node's checks: b <-> c is a cycle
    # and e lies below it, r does not.
    cpt = Cpt([[0.5, 0.5]] * 2)
    looped = Diagram({
        "c": NodeSpec("c", ("0", "1"), PROBABILISTIC, ("b",), cpt),
        "a": NodeSpec("a", ("0", "1"), PROBABILISTIC, ("b",), cpt),
        "b": NodeSpec("b", ("0", "1"), PROBABILISTIC, ("a",), cpt),
        "r": NodeSpec("r", ("0", "1"), PROBABILISTIC, (), Cpt([[0.5, 0.5]])),
        "e": NodeSpec("e", ("0", "1"), PROBABILISTIC, ("r", "c"),
                      Cpt([[0.5, 0.5]] * 4)),
    })
    message = "cycle through nodes: a, b, c, e"
    with pytest.raises(CycleDetected, match=f"^{message}$"):
        apply_step(looped, TransformStep(SUM_OUT, "r"))
    with pytest.raises(CycleDetected, match=f"^{message}$"):
        sum_out(looped, "b")
    for target in looped.nodes:
        with pytest.raises(CycleDetected, match=f"^{message}$"):
            plan_reversals(looped, target, {}, strategy="greedy")
        with pytest.raises(CycleDetected, match=f"^{message}$"):
            compare_orders(looped, target, {}, mode="exhaustive")
        with pytest.raises(CycleDetected, match=f"^{message}$"):
            posterior(looped, target, {})
    # A self-loop on the target: every other node goes barren, so no step
    # of the elimination ever orders the loop.
    lone = Diagram({
        "s": NodeSpec("s", ("0", "1"), PROBABILISTIC, ("s",), cpt),
        "z": NodeSpec("z", ("0", "1"), PROBABILISTIC, (), Cpt([[0.5, 0.5]])),
    })
    with pytest.raises(CycleDetected, match="^cycle through nodes: s$"):
        posterior(lone, "s", {})
