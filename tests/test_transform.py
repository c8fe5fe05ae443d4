"""Arc reversal and the transforms built from it.

Every transform claims to preserve the represented joint; the enumeration
oracle referees each claim here.
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import patch_everywhere, seeded_diagram, seeded_query_case
from infdiag import (
    DETERMINISTIC,
    Diagram,
    NodeSpec,
    PROBABILISTIC,
    TransformStep,
    add_node,
    builtin_example,
    complexity,
    condition,
    d_separated,
    empty_diagram,
    export_dot,
    gen_random,
    joint_table,
    load,
    oracle_posterior,
    plan_reversals,
    posterior,
    promote_deterministic,
    prune_constant_parents,
    refactor,
    remove_barren,
    reverse_arc,
    save,
    sum_out,
    topological_order,
    validate,
)
from infdiag.errors import (
    CycleWouldForm,
    HasSuccessors,
    InvalidParameters,
    NoSuchArc,
    NotAPermutation,
    TooLarge,
    UnknownNode,
    UnknownOutcome,
    ZeroProbabilityEvidence,
)
from infdiag import transform
from infdiag.diagram import (
    _accepted,
    has_path,
    node_depths,
    parent_arities,
    row_count,
    table_array,
)
from infdiag.modelio import builtin_names
from infdiag.transform import (
    CONDITION,
    REVERSE,
    SUM_OUT,
    _flip,
    _free,
    _restructure,
    _Work,
    apply_step,
)

ROOT = Path(__file__).resolve().parent.parent


def two_node():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("y0", "y1"), ("X",),
                                           cpt=[[0.8, 0.2], [0.1, 0.9]]))
    return d


def joints_match(a: Diagram, b: Diagram, atol=1e-12) -> bool:
    ja, jb = joint_table(a), joint_table(b)
    return bool(np.max(np.abs(ja.probs - jb.reordered(ja.variables))) <= atol)


def test_reverse_hand_values():
    r = reverse_arc(two_node(), "X", "Y")
    assert r.nodes["Y"].parents == ()
    assert r.nodes["X"].parents == ("Y",)
    y_prior = r.nodes["Y"].table.rows[0]
    assert y_prior == pytest.approx((0.59, 0.41), abs=1e-12)
    x_rows = r.nodes["X"].table.rows
    assert x_rows[0] == pytest.approx((56 / 59, 3 / 59), abs=1e-12)
    assert x_rows[1] == pytest.approx((14 / 41, 27 / 41), abs=1e-12)
    assert joints_match(two_node(), r)


def test_reverse_constant_likelihood_gives_prior_back():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("0", "1"), ("X",),
                                           cpt=[[0.6, 0.4], [0.6, 0.4]]))
    r = reverse_arc(d, "X", "Y")
    for row in r.nodes["X"].table.rows:
        assert row == pytest.approx((0.7, 0.3), abs=1e-12)


def test_reverse_inherits_each_others_parents():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("c1", ("0", "1"), cpt=[[0.5, 0.5]]))
    d = add_node(d, NodeSpec.probabilistic("c2", ("0", "1"), cpt=[[0.4, 0.6]]))
    d = add_node(d, NodeSpec.probabilistic("x", ("0", "1"), ("c1",),
                                           cpt=[[0.8, 0.2], [0.3, 0.7]]))
    d = add_node(d, NodeSpec.probabilistic(
        "y", ("0", "1"), ("c2", "x"),
        cpt=[[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.25, 0.75]]))
    r = reverse_arc(d, "x", "y")
    assert r.nodes["y"].parents == ("c1", "c2")
    assert r.nodes["x"].parents == ("c1", "c2", "y")
    assert r.nodes["x"].kind == PROBABILISTIC
    assert joints_match(d, r)
    assert validate(r).ok


def test_reverse_requires_the_arc_and_no_other_path():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.probabilistic("Z", ("0", "1"), ("X",),
                                           cpt=[[0.8, 0.2], [0.1, 0.9]]))
    d = add_node(d, NodeSpec.probabilistic(
        "Y", ("0", "1"), ("X", "Z"),
        cpt=[[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]]))
    with pytest.raises(CycleWouldForm):
        reverse_arc(d, "X", "Y")
    with pytest.raises(NoSuchArc):
        reverse_arc(d, "Z", "X")
    with pytest.raises(UnknownNode):
        reverse_arc(d, "Q", "Y")


def test_double_reversal_restores_arc_and_joint():
    d = builtin_example("fig9")
    once = reverse_arc(d, "heart_failure", "cardiomegaly")
    assert ("cardiomegaly", "heart_failure") in once.arcs
    twice = reverse_arc(once, "cardiomegaly", "heart_failure")
    assert ("heart_failure", "cardiomegaly") in twice.arcs
    assert joints_match(d, twice)


def test_zero_probability_context_filled_uniform_and_noted():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[1.0, 0.0]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("0", "1"), ("X",),
                                           cpt=[[1.0, 0.0], [0.5, 0.5]]))
    r = reverse_arc(d, "X", "Y")
    assert r.nodes["Y"].table.rows[0].tolist() == [1.0, 0.0]
    assert r.nodes["X"].table.rows[0].tolist() == [1.0, 0.0]
    assert r.nodes["X"].table.rows[1].tolist() == [0.5, 0.5]  # unreachable, uniform
    assert joints_match(d, r)
    # The fill is recorded on the executed step as (x, y, row).
    done, step = apply_step(d, TransformStep("reverse", "X", other="Y"))
    assert step.zero_rows == (("X", "Y", 1),)
    assert done == r
    # A replayed step carries only its own run's fills.
    assert apply_step(two_node(), step)[1].zero_rows == ()


def test_reversal_stays_valid_despite_rounding_in_row_sums():
    # Regression: a cpt row summing to 1 + 1 ulp turns into a marginal entry
    # of 1 + 1 ulp when a deterministic successor funnels the whole row into
    # one outcome. The reversal must snap such entries back into [0, 1].
    row = (0.4904695346211585, 0.41304773971905906, 0.09648272565978257)
    assert sum(row) == 1.0000000000000002
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("x", ("0", "1", "2"), cpt=[row]))
    d = add_node(d, NodeSpec.deterministic("y", ("lo", "hi"), ("x",),
                                           function=[0, 0, 0]))
    r = reverse_arc(d, "x", "y")
    assert validate(r).ok
    assert all(0.0 <= p <= 1.0 for rw in r.nodes["y"].table.rows for p in rw)
    assert joints_match(d, r)
    # Only the stored marginal is snapped: x's new row is divided by the
    # marginal as summed, 1 + 1 ulp, not by the snapped 1.0.
    assert r.nodes["y"].table.rows.tolist() == [[1.0, 0.0]]
    assert r.nodes["x"].table.rows[0].tolist() == [p / sum(row) for p in row]


def det_sandwich():
    """a (probabilistic) -> x (deterministic identity) -> y (probabilistic)."""
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("a", ("0", "1"), cpt=[[0.3, 0.7]]))
    d = add_node(d, NodeSpec.deterministic("x", ("0", "1"), ("a",),
                                           function=[0, 1]))
    d = add_node(d, NodeSpec.probabilistic("y", ("0", "1"), ("x",),
                                           cpt=[[0.9, 0.1], [0.2, 0.8]]))
    return d


def test_reversal_past_the_cell_cap_is_too_large(monkeypatch):
    # x has 10 binary root parents, y has x and 12 others: the reversal's
    # grid spans 22 parents, x and y, 2**24 cells, over the 2**22 cap.
    # Conditioning on y lays out y's observed outcome only, 2**23 cells,
    # still over it.
    runs = []
    run = _Work.run
    monkeypatch.setattr(_Work, "run",
                        lambda self, *a: runs.append(a) or run(self, *a))
    d = empty_diagram()
    roots = [f"r{i}" for i in range(22)]
    for r in roots:
        d = add_node(d, NodeSpec.probabilistic(r, ("0", "1"), cpt=[[0.5, 0.5]]))
    d = add_node(d, NodeSpec.probabilistic(
        "x", ("0", "1"), roots[:10], cpt=[[0.5, 0.5]] * 2 ** 10))
    d = add_node(d, NodeSpec.probabilistic(
        "y", ("0", "1"), ["x", *roots[10:]], cpt=[[0.5, 0.5]] * 2 ** 13))
    # Every transform that reverses x -> y refuses it while deciding the
    # reversal, before the kernel computes any table.
    for reverses_x_y, cells in ((lambda: reverse_arc(d, "x", "y"), 2 ** 24),
                                (lambda: refactor(d, [*roots, "y", "x"]),
                                 2 ** 24),
                                (lambda: sum_out(d, "x"), 2 ** 24),
                                (lambda: condition(d, "y", "0"), 2 ** 23)):
        with pytest.raises(TooLarge, match=f"^reversing x->y needs {cells} "
                           f"table cells, over the {2 ** 22} cap$"):
            reverses_x_y()
    assert runs == []
    # posterior's fixed order would condition on y first, which reverses
    # x -> y past the cap; it plans greedily instead, summing the roots out
    # first, and every step of that plan fits.
    vec, plan = posterior(d, "x", {"y": "0"})
    assert vec.tolist() == [0.5, 0.5]
    assert plan == plan_reversals(d, "x", {"y": "0"}, "greedy")


def test_deterministic_predecessor_shortcut():
    d = det_sandwich()
    r = reverse_arc(d, "x", "y")
    # Substitution: y answers to a directly; x is untouched; no y->x arc.
    assert r.nodes["y"].parents == ("a",)
    assert r.nodes["x"] == d.nodes["x"]
    assert ("y", "x") not in r.arcs
    assert joints_match(d, r)


def test_deterministic_predecessor_agrees_with_generic_path():
    d = det_sandwich()
    special = reverse_arc(d, "x", "y")
    generic = reverse_arc(promote_deterministic(d, "x"), "x", "y")
    assert joints_match(special, generic)
    assert promote_deterministic(d, "a") is d  # already probabilistic
    # The generic path pays for ignoring the determinism:
    assert ("y", "x") in generic.arcs
    assert generic.nodes["x"].kind == PROBABILISTIC


def test_deterministic_chain_reversal_composes_functions():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("a", ("0", "1"), cpt=[[0.3, 0.7]]))
    d = add_node(d, NodeSpec.deterministic("x", ("0", "1"), ("a",),
                                           function=[0, 1]))
    d = add_node(d, NodeSpec.deterministic("z", ("0", "1"), ("x",),
                                           function=[1, 0]))
    r = reverse_arc(d, "x", "z")
    assert r.nodes["z"].kind == DETERMINISTIC
    assert r.nodes["z"].parents == ("a",)
    assert r.nodes["z"].table.entries.tolist() == [1, 0]
    assert joints_match(d, r)


def test_deterministic_successor_takes_generic_path():
    d = builtin_example("fig5")
    r = reverse_arc(d, "program_error", "output")
    assert r.nodes["output"].kind == PROBABILISTIC
    assert r.nodes["program_error"].kind == PROBABILISTIC
    assert r.nodes["output"].table.rows[0] == pytest.approx((0.9, 0.1),
                                                            abs=1e-12)
    rows = r.nodes["program_error"].table.rows
    assert rows[0] == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert rows[1] == pytest.approx((0.0, 0.6, 0.4), abs=1e-12)
    assert joints_match(d, r)


def test_remove_barren():
    d = two_node()
    r = remove_barren(d, "Y")
    assert r.names == ("X",)
    assert r.nodes["X"] == d.nodes["X"]
    with pytest.raises(HasSuccessors):
        remove_barren(d, "X")
    with pytest.raises(UnknownNode):
        remove_barren(d, "Q")
    single = add_node(empty_diagram(),
                      NodeSpec.probabilistic("S", ("0", "1"), cpt=[[0.5, 0.5]]))
    assert remove_barren(single, "S") == empty_diagram()


def test_sum_out_childless_equals_remove_barren():
    d = two_node()
    assert sum_out(d, "Y") == remove_barren(d, "Y")


def test_sum_out_isolated_node_leaves_rest_alone():
    d = add_node(two_node(), NodeSpec.probabilistic("iso", ("0", "1"),
                                                    cpt=[[0.2, 0.8]]))
    assert sum_out(d, "iso") == two_node()


def test_sum_out_medical_model_marginalizes_disorder():
    d = builtin_example("fig9")
    r = sum_out(d, "nephrotic_syndrome")
    spec = r.nodes["pitting_edema"]
    assert spec.parents == ("heart_failure",)
    assert spec.table.rows[0] == pytest.approx((0.8865, 0.1135), abs=1e-12)
    assert spec.table.rows[1] == pytest.approx((0.2875, 0.7125), abs=1e-12)


def test_sum_out_preserves_marginal_joint():
    for seed in (1, 3, 5, 8, 13):
        d = seeded_diagram(seed, node_count=4 + seed % 3)
        before = joint_table(d)
        for name in d.nodes:
            r = sum_out(d, name)
            after = joint_table(r)
            keep = tuple(v for v in before.variables if v != name)
            assert np.max(np.abs(after.reordered(keep) -
                                 before.marginal(keep))) <= 1e-12


def test_condition_on_root_slices_children():
    r = condition(two_node(), "X", "x1")
    assert r.names == ("Y",)
    assert r.nodes["Y"].parents == ()
    assert r.nodes["Y"].table.rows[0] == pytest.approx((0.1, 0.9), abs=1e-12)


def test_condition_on_leaf_is_bayes():
    r = condition(two_node(), "Y", "y1")
    assert r.names == ("X",)
    assert r.nodes["X"].table.rows[0] == pytest.approx((14 / 41, 27 / 41),
                                                       abs=1e-12)


def test_condition_records_no_fill_at_an_outcome_not_observed():
    # P(E = e2) is zero, but e2 is not observed: no kept table holds it.
    d = add_node(two_node(), NodeSpec.probabilistic(
        "E", ("e0", "e1", "e2"), ("X",), cpt=[[0.6, 0.4, 0.0],
                                              [0.2, 0.8, 0.0]]))
    bayes = {"e0": (0.42 / 0.48, 0.06 / 0.48), "e1": (0.28 / 0.52, 0.24 / 0.52)}
    for outcome, want in bayes.items():
        r, step = apply_step(d, TransformStep(CONDITION, "E", outcome=outcome))
        assert step.zero_rows == ()
        assert r.nodes["X"].table.rows[0] == pytest.approx(want, abs=1e-12)


def test_condition_records_the_kept_row_it_filled():
    # P'(E = 1 | C = 1) is zero: X = 2 under C = 1, and E = 1 never follows
    # X = 2. Reversing X -> E fills row C = 1 of X's kept table, which is
    # X's table given C alone, E being fixed at 1.
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("C", ("0", "1"), cpt=[[0.5, 0.5]]))
    d = add_node(d, NodeSpec.probabilistic(
        "X", ("0", "1", "2"), ("C",), cpt=[[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    d = add_node(d, NodeSpec.probabilistic(
        "E", ("0", "1"), ("X",), cpt=[[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]]))
    step = apply_step(d, TransformStep(CONDITION, "E", outcome="1"))[1]
    assert step.zero_rows == (("X", "E", 1),)
    r = condition(d, "E", "1")
    assert r.nodes["X"].parents == ("C",)
    assert r.nodes["X"].table.rows[1].tolist() == [1 / 3] * 3
    assert r.nodes["X"].table.rows[0] == pytest.approx((1 / 3, 2 / 3, 0.0),
                                                       abs=1e-12)


def test_condition_matches_oracle_on_seeded_family():
    for seed in range(12):
        d = seeded_diagram(seed, node_count=3 + seed % 4)
        before = joint_table(d)
        # Condition on the most likely assignment of the last variable.
        name = before.variables[-1]
        ax = before.axis(name)
        marg = before.marginal((name,))
        oi = int(np.argmax(marg))
        r = condition(d, name, d.nodes[name].outcomes[oi])
        after = joint_table(r)
        sliced = np.take(before.probs, oi, axis=ax) / marg[oi]
        keep = tuple(v for v in before.variables if v != name)
        assert np.max(np.abs(after.reordered(keep) - sliced)) <= 1e-12


def test_condition_errors():
    d = two_node()
    with pytest.raises(UnknownOutcome):
        condition(d, "Y", "nope")
    with pytest.raises(UnknownNode):
        condition(d, "Q", "y0")
    # An unhashable node name names no node.
    for call in (lambda: reverse_arc(d, ["X"], "Y"),
                 lambda: reverse_arc(d, "X", ["Y"]),
                 lambda: sum_out(d, ["X"]),
                 lambda: remove_barren(d, ["Y"]),
                 lambda: condition(d, ["Y"], "y0"),
                 lambda: apply_step(d, TransformStep("sum_out", ["X"]))):
        with pytest.raises(UnknownNode):
            call()
    z = empty_diagram()
    z = add_node(z, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[1.0, 0.0]]))
    with pytest.raises(ZeroProbabilityEvidence):
        condition(z, "X", "1")


def test_a_step_that_rewrites_a_table_hands_back_canonical_order():
    # A transform that rewrites a table leaves through _Work.result, in
    # topological_order's order, whatever the input's; a barren deletion,
    # a childless sum-out and promote_deterministic keep the input's order.
    fig9 = builtin_example("fig9")
    assert list(fig9.nodes) != topological_order(fig9)
    cases, rng = [fig9], random.Random(0)
    for seed in range(20):
        d = seeded_diagram(seed, node_count=4 + seed % 4)
        names = list(d.nodes)
        rng.shuffle(names)
        cases.append(Diagram({n: d.nodes[n] for n in names}))
    promoted = 0
    for d in cases:
        kids = d.children_map()
        leaf = next(n for n in d.nodes if not kids[n])
        kept = [n for n in d.nodes if n != leaf]
        assert list(remove_barren(d, leaf).nodes) == kept
        assert list(sum_out(d, leaf).nodes) == kept
        rewritten = [refactor(d, list(reversed(d.nodes))),
                     prune_constant_parents(d)]
        arc = next(((x, y) for x, y in d.arcs
                    if not has_path(d, x, y, skip_arc=(x, y))), None)
        if arc:
            x, y = arc
            seen = oracle_posterior(d, y, {})
            rewritten += [reverse_arc(d, x, y), sum_out(d, x), condition(
                d, y, d.nodes[y].outcomes[int(np.argmax(seen))])]
        for r in rewritten:
            assert list(r.nodes) == topological_order(r)
        for n, spec in d.nodes.items():
            if spec.kind == DETERMINISTIC:
                promoted += 1
                assert list(promote_deterministic(d, n).nodes) == list(d.nodes)
    assert promoted


def test_refactor_two_node_equals_reverse():
    assert refactor(two_node(), ["Y", "X"]) == reverse_arc(two_node(), "X", "Y")


def test_refactor_all_permutations_keep_joint():
    import itertools
    d = seeded_diagram(7, node_count=3)
    names = list(d.nodes)
    before = joint_table(d)
    for perm in itertools.permutations(names):
        r = refactor(d, perm)
        order = {n: i for i, n in enumerate(perm)}
        assert all(order[p] < order[c] for p, c in r.arcs)
        for spec in r.nodes.values():  # every table stays a read-only array
            rows = row_count(parent_arities(r, spec))
            if spec.kind == PROBABILISTIC:
                arr, dtype, shape = (spec.table.rows, np.float64,
                                     (rows, spec.n_outcomes))
            else:
                arr, dtype, shape = spec.table.entries, np.int64, (rows,)
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
            assert (arr.dtype, arr.shape) == (dtype, shape)
        after = joint_table(r)
        assert np.max(np.abs(after.reordered(before.variables) -
                             before.probs)) <= 1e-12


def test_refactor_rejects_non_permutations():
    with pytest.raises(NotAPermutation):
        refactor(two_node(), ["X"])
    with pytest.raises(NotAPermutation):
        refactor(two_node(), ["X", "X"])
    with pytest.raises(NotAPermutation):
        refactor(two_node(), ["X", "Y", "Z"])
    with pytest.raises(NotAPermutation):
        refactor(two_node(), 5)
    # A lone string is one name, not a sequence of one-letter names.
    with pytest.raises(NotAPermutation):
        refactor(two_node(), "YX")
    xray = add_node(empty_diagram(), NodeSpec.probabilistic(
        "xray", ("0", "1"), cpt=[[0.5, 0.5]]))
    assert refactor(xray, "xray").nodes == xray.nodes


def test_refactor_rejects_entries_that_are_not_names():
    d = builtin_example("fig9")
    names = list(d.nodes)
    for bad in (1, None, ("xray",), ["xray"]):
        with pytest.raises(NotAPermutation):
            refactor(d, [names[0], bad] + names[2:])


def test_prune_constant_parents_drops_vacuous_arc():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("0", "1"), ("X",),
                                           cpt=[[0.6, 0.4], [0.6, 0.4]]))
    r = prune_constant_parents(d)
    assert r.nodes["Y"].parents == ()
    assert r.nodes["Y"].table.rows.tolist() == [[0.6, 0.4]]
    assert joints_match(d, r)
    # Two constant parents around an informative one both go in one pass.
    w = add_node(d, NodeSpec.probabilistic("W", ("0", "1"), cpt=[[0.2, 0.8]]))
    w = add_node(w, NodeSpec.probabilistic(
        "Z", ("0", "1"), ("X", "W", "Y"),
        cpt=[[0.1, 0.9]] * 2 + [[0.3, 0.7]] * 2 + [[0.1, 0.9]] * 2
        + [[0.3, 0.7]] * 2))
    r = prune_constant_parents(w)
    assert r.nodes["Z"].parents == ("W",)
    assert r.nodes["Z"].table.rows.tolist() == [[0.1, 0.9], [0.3, 0.7]]
    assert r.nodes["Y"].parents == ()
    assert joints_match(w, r)
    # A genuinely informative arc stays.
    assert prune_constant_parents(two_node()) == two_node()


def test_transforms_keep_diagrams_valid():
    d = builtin_example("fig9")
    for step in (reverse_arc(d, "heart_failure", "pitting_edema"),
                 sum_out(d, "cardiomegaly"),
                 condition(d, "xray", "abnormal"),
                 refactor(d, list(reversed(list(d.nodes))))):
        assert validate(step).ok


def test_apply_step_measures_costs():
    d = two_node()
    r, step = apply_step(d, TransformStep("reverse", "X", other="Y"))
    assert ("Y", "X") in r.arcs
    assert step.added_arcs == 1          # Y->X is the only new arc
    assert step.parameters_touched == 3  # X: 2 rows x 1; Y: 1 row x 1
    assert step.encode() == "reverse:X->Y"
    with pytest.raises(InvalidParameters):
        apply_step(d, TransformStep("warp", "X"))
    # Fields that do not fit the kind: a reversal with no other end raised
    # UnknownNode for 'None', and the others ran, handing back the field.
    for bad in ("x", None, ("reverse", "X", "Y"),
                TransformStep("reverse", "X"),
                TransformStep("sum_out", "X", other="Y"),
                TransformStep("remove_barren", "Y", other="X"),
                TransformStep("condition", "Y", other="X", outcome="y0"),
                TransformStep("reverse", "X", other="Y", outcome="y0"),
                TransformStep("sum_out", "X", outcome="x0"),
                TransformStep("remove_barren", "Y", outcome="y0")):
        with pytest.raises(InvalidParameters):
            apply_step(d, bad)


def test_step_encodings():
    assert TransformStep("sum_out", "n").encode() == "sum_out:n"
    assert TransformStep("remove_barren", "n").encode() == "remove_barren:n"
    assert TransformStep("condition", "n", outcome="o").encode() == "condition:n=o"


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=9999))
def test_every_legal_reversal_preserves_joint(seed):
    d = gen_random(4, 3, 0.5, 0.2, seed)
    before = joint_table(d)
    for x, y in d.arcs:
        try:
            r = reverse_arc(d, x, y)
        except CycleWouldForm:
            continue
        after = joint_table(r)
        assert np.max(np.abs(after.reordered(before.variables) -
                             before.probs)) <= 1e-12


def condition_with_a_pass_per_flip(shape, arity, name, outcome, depth):
    """``_restructure``'s conditioning step as it was written when every
    parent flip was followed by a fresh depth pass; the caller's ``depth``
    is handed on only when no node left has a new entry."""
    new = dict(shape)
    reversals = []
    while new[name][0]:
        depth = node_depths(new)
        parent = max(new[name][0], key=lambda n: (depth[n], n))
        reversals.append(_flip(new, arity, parent, name, depth))
    for c, (ps, k) in new.items():
        if name in ps:
            new[c] = (tuple(p for p in ps if p != name), k)
    del new[name]
    added = touched = 0
    for n, was in shape.items():
        entry = new.get(n, ((), DETERMINISTIC))
        if entry is not was:
            added += len(set(entry[0]).difference(was[0]))
            touched += _free(arity, n, entry)
    keys = depth if all(new[n] is shape[n] for n in new) else None
    return (new, TransformStep(CONDITION, name, None, outcome, added, touched),
            reversals, keys)


def test_conditioning_with_one_depth_pass_matches_a_pass_per_flip():
    # Flipping p -> name moves only p, name and their descendants in depth;
    # every node compared afterwards is an ancestor of name, so the pass
    # made before the first flip picks the same parents and merges the
    # same parent lists as a fresh pass after every flip.
    many = 0
    for seed in range(540):
        d = gen_random(2 + seed % 15, 2 + seed % 2, (0.3, 0.4, 0.5)[seed % 3],
                       (0.0, 0.2, 0.5)[seed // 3 % 3], seed)
        shape, arity, depth = _accepted(d)
        for name, spec in d.nodes.items():
            many += len(spec.parents) >= 3
            want = condition_with_a_pass_per_flip(shape, arity, name,
                                                  spec.outcomes[0], depth)
            got = _restructure(shape, arity, CONDITION, name,
                               outcome=spec.outcomes[0], depth=depth)
            assert list(got[0].items()) == list(want[0].items())
            assert got[1:] == want[1:]
    assert many > 500


def test_conditioning_makes_at_most_one_depth_pass(monkeypatch):
    # The step reads the caller's pass across all three of its flips and
    # makes none of its own.
    calls = []

    def counted(shape):
        calls.append(1)
        return node_depths(shape)

    patch_everywhere(monkeypatch, node_depths, counted)
    P = PROBABILISTIC
    shape = {"a": ((), P), "b": (("a",), P), "c": (("b",), P),
             "y": (("a", "b", "c"), P)}
    arity = dict.fromkeys(shape, 2)
    depth = node_depths(shape)
    calls.clear()
    _, step, reversals, _ = _restructure(shape, arity, CONDITION, "y",
                                         outcome="o0", depth=depth)
    assert [r[0] for r in reversals] == ["c", "b", "a"]
    assert calls == []


def test_depth_ties_are_broken_by_name():
    # Nodes at equal depth sit in each map in the reverse of name order, so
    # a depth map without the name in its key would order them by the map
    # (or by a set's hash order) instead of by name.
    P = PROBABILISTIC
    roots = [f"r{i}" for i in range(6, 0, -1)]
    shape = {**{r: ((), P) for r in roots},
             "x": (("r6", "r4", "r2"), P), "y": (("x", "r5", "r3", "r1"), P)}
    depth = node_depths(shape)
    assert depth["r1"] == (0, "r1")
    arity = dict.fromkeys(shape, 2)
    new, _, [(_, _, merged, _)], _ = _restructure(
        shape, arity, REVERSE, "x", other="y", depth=depth)
    assert merged == ("r1", "r2", "r3", "r4", "r5", "r6")
    assert new["y"][0] == merged and new["x"][0] == merged + ("y",)
    # The sum-out's next child: the earliest by (depth, name) each time.
    shape = {"s": ((), P), **{k: (("s",), P) for k in ("k3", "k2", "k1")}}
    arity = dict.fromkeys(shape, 2)
    _, _, reversals, _ = _restructure(shape, arity, SUM_OUT, "s",
                                      depth=node_depths(shape))
    assert [r[1] for r in reversals] == ["k1", "k2", "k3"]
    # The conditioning step's next parent: the latest by (depth, name),
    # though the parent list names the earliest first.
    shape = {**{p: ((), P) for p in ("p3", "p2", "p1")},
             "o": (("p1", "p2", "p3"), P)}
    arity = dict.fromkeys(shape, 2)
    _, _, reversals, _ = _restructure(shape, arity, CONDITION, "o",
                                      outcome="o0", depth=node_depths(shape))
    assert [r[0] for r in reversals] == ["p3", "p2", "p1"]


# -- the reversal kernel against the kernel it replaced ------------------------

def reference_run(work, reversals):
    """The reversal kernel as it stood when it laid its product out as
    (merged parents, x, y): the marginal summed over the middle axis, x's
    new table divided with y and x swapped back, and every table of every
    reversal computed in full. Returns name -> (parents, grid) of each
    table it wrote, and the zero rows."""
    tables, zero = {}, []
    for x, y, union, substitute in reversals:
        (xp, gx), (yp, gy) = [tables.get(n) or work.grid(n) for n in (x, y)]
        axes = {n: i for i, n in enumerate(union + (x, y))}
        t = np.einsum(gx, [axes[n] for n in xp + (x,)],
                      gy, [axes[n] for n in yp + (y,)],
                      list(axes.values()))
        marg = t.sum(axis=-2)
        tables[y] = (union, np.ascontiguousarray(marg.clip(0.0, 1.0)))
        if substitute:
            continue
        empty = marg == 0.0
        post = (t.swapaxes(-1, -2)
                / np.where(empty, 1.0, marg)[..., np.newaxis])
        if np.count_nonzero(empty):
            post[empty] = 1.0 / work.arity[x]
            zero.extend((x, y, r) for r in np.flatnonzero(empty).tolist())
        tables[x] = (union + (y,), np.ascontiguousarray(post.clip(0.0, 1.0)))
    return tables, tuple(zero)


def sparse_diagram(rng):
    """Four or five nodes of 2 to 10 outcomes, each a later node's parent
    with probability one half, a fifth of them deterministic; about half
    of each cpt row's entries are exactly zero, so marginals have zero
    rows. Those zeros are -0.0 in every other node, which validate
    accepts as it accepts +0.0."""
    d = empty_diagram()
    for i in range(int(rng.integers(4, 6))):
        k = int(rng.integers(2, 11))
        outcomes = tuple(f"o{j}" for j in range(k))
        parents = tuple(p for p in d.nodes if rng.random() < 0.5)
        rows = row_count(d.nodes[p].n_outcomes for p in parents)
        if rng.random() < 0.2:
            d = add_node(d, NodeSpec.deterministic(
                f"n{i}", outcomes, parents, rng.integers(k, size=rows)))
            continue
        t = rng.random((rows, k)) * (rng.random((rows, k)) < 0.5)
        t[np.arange(rows), rng.integers(k, size=rows)] += rng.random(rows)
        t /= t.sum(axis=1, keepdims=True)
        if i % 2:
            t[t == 0.0] = -0.0
        d = add_node(d, NodeSpec.probabilistic(f"n{i}", outcomes, parents, t))
    return d


def decided_steps(d, rng):
    """Every reversal of an arc with no other path, a conditioning step
    on each parented node at a random outcome, and the sum-out of each
    node with children, decided on ``d``."""
    shape, arity, depth = _accepted(d)
    for y, spec in d.nodes.items():
        for x in spec.parents:
            if not has_path(d, x, y, skip_arc=(x, y)):
                yield _restructure(shape, arity, "reverse", x, y, depth=depth)
        if spec.parents:
            yield _restructure(shape, arity, CONDITION, y, outcome=str(
                spec.outcomes[int(rng.integers(spec.n_outcomes))]),
                depth=depth)
        if any(y in s.parents for s in d.nodes.values()):
            yield _restructure(shape, arity, "sum_out", y, depth=depth)


def test_kernel_keeps_the_bits_of_the_kernel_it_replaced():
    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(60):
        d = sparse_diagram(rng)
        signed = {n for n, s in d.nodes.items() if s.kind == PROBABILISTIC
                  and np.signbit(s.table.rows[s.table.rows == 0.0]).any()}
        for shape, step, reversals, _ in decided_steps(d, rng):
            conditioned = step.kind == CONDITION
            work = _Work(d)
            if conditioned:
                # As ``take`` does: the observed node's table at the
                # observed outcome only, an axis of length 1.
                oi, k = int(step.outcome[1:]), d.nodes[step.node].n_outcomes
                ps, grid = work.grid(step.node)
                work.tables[step.node] = (ps, grid[..., oi:oi + 1])
            zero = work.run(shape, reversals)
            want, want_zero = reference_run(_Work(d), reversals)
            if conditioned:
                # Its rows are (merged parents, observed outcome): only
                # those at the observed outcome are rows of a kept table.
                want_zero = tuple((x, y, r // k) for x, y, r in want_zero
                                  if r % k == oi)
            assert zero == want_zero, step
            for n, (ps, grid) in want.items():
                if conditioned and n == step.node:
                    grid = grid[..., oi:oi + 1]
                elif conditioned:
                    # A table reversed into the observed node is kept at
                    # the observed outcome only.
                    ps, grid = ps[:-1], np.take(grid, oi, axis=-2)
                elif n not in shape:
                    continue  # a sum-out's node, deleted with its table
                got_ps, got = work.tables[n]
                assert got_ps == ps, (step, n)
                assert got.shape == grid.shape and got.flags.c_contiguous
                assert got.tobytes() == grid.tobytes(), (step, n)
                # einsum writes +0.0 for a product with a -0.0 factor,
                # where a product of broadcast views writes -0.0.
                assert not np.signbit(got[got == 0.0]).any(), (step, n)
            seen.add(step.kind)
            seen.update(label for label, hit in (
                ("zero rows", zero),
                ("zero rows, conditioned", conditioned and zero),
                ("substitute", any(r[3] for r in reversals)),
                ("wide x", any(d.nodes[r[0]].n_outcomes >= 8
                               for r in reversals)),
                ("-0.0 in", signed.intersection(
                    n for r in reversals for n in r[:2]))) if hit)
    assert seen == {"reverse", CONDITION, "sum_out", "zero rows",
                    "zero rows, conditioned", "substitute", "wide x",
                    "-0.0 in"}


def test_an_unread_grid_is_shaped_as_table_array_shapes_it():
    # _Work.grid shapes a table not yet rewritten from the entry's arities,
    # a deterministic one as 0/1 indicator rows; it reads as the diagram's
    # table_array does, in dtype, shape and bytes, on the built-ins and the
    # seeded query family alike.
    diagrams = [builtin_example(n) for n in builtin_names()] + [
        seeded_query_case(s)[0] for s in range(40)]
    kinds = set()
    for d in diagrams:
        work = _Work(d)
        for n, spec in d.nodes.items():
            parents, got = work.grid(n)
            want = table_array(d, n)
            assert parents == spec.parents and got.dtype == want.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), n
            kinds.add(spec.kind)
    assert kinds == {DETERMINISTIC, PROBABILISTIC}


def test_a_loaded_or_transformed_diagram_carries_its_checked_structure(
        monkeypatch):
    # load and every transform attach the entry's result to the diagram
    # they hand back. The entry returns it with no depth pass, and it
    # equals a fresh check of a directly built copy, iteration order
    # included: the workload models, the built-ins and the seeded family
    # after save and load, and what refactor, sum_out, condition,
    # reverse_arc and prune_constant_parents hand back of each, and the
    # steps that rewrite no table: remove_barren of a leaf, sum_out of a
    # childless node and promote_deterministic of each node. The readers
    # that share the carried maps (complexity, d_separated, save,
    # export_dot, topological_order) leave them as a fresh check makes
    # them. A directly built diagram is checked, in one pass, at its first
    # entry only, until its node map changes in place.
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    passes = []

    def counted(shape):
        passes.append(1)
        return node_depths(shape)

    patch_everywhere(monkeypatch, node_depths, counted)

    def carried(d):
        passes.clear()
        got = _accepted(d)
        assert not passes
        want = _accepted(Diagram(dict(d.nodes)))
        assert passes == [1]
        assert [list(m.items()) for m in got] == [
            list(m.items()) for m in want]

    models = [load(save(builtin_example(n))) for n in builtin_names()]
    models += [load(save(seeded_query_case(s)[0])) for s in range(40)]
    for name in sorted(workloads.WORKLOADS):
        models += map(load, workloads.build(name, 1, ROOT)["models"])
    kinds = set()
    for d in models:
        carried(d)
        carried(refactor(d, reversed(topological_order(d))))
        carried(prune_constant_parents(d))
        parented = [n for n, s in d.nodes.items() if s.parents]
        kids = {p for n in parented for p in d.nodes[n].parents}
        arcs = [(x, y) for x, y in d.arcs
                if not has_path(d, x, y, skip_arc=(x, y))]
        for name in parented[-1:]:
            try:
                carried(condition(d, name, d.nodes[name].outcomes[0]))
                kinds.add(CONDITION)
            except ZeroProbabilityEvidence:
                pass
        for name in sorted(kids)[:1]:
            carried(sum_out(d, name))
            kinds.add(SUM_OUT)
        for x, y in arcs[:1]:
            carried(reverse_arc(d, x, y))
            kinds.add(REVERSE)
        leaves = [n for n in d.nodes if n not in kids]
        carried(remove_barren(d, leaves[0]))
        carried(sum_out(d, leaves[-1]))
        for name, spec in d.nodes.items():
            carried(promote_deterministic(d, name))
            if spec.kind == DETERMINISTIC:
                kinds.add("promote")
        first, *_, last = d.nodes
        complexity(d)
        d_separated(d, first, last, ())
        save(d)
        export_dot(d)
        topological_order(d)
        carried(d)  # as loaded, whatever the transforms and readers did
    assert len(models) == 7 + 40 + 40 + 12 + 8 + 8
    assert kinds == {CONDITION, SUM_OUT, REVERSE, "promote"}

    direct = builtin_example("fig9")
    for edit in (None, lambda nodes: nodes.pop("frothy_urine")):
        if edit:
            edit(direct.nodes)
        passes.clear()
        first = _accepted(direct)
        assert passes == [1]
        passes.clear()
        again = _accepted(direct)
        assert not passes
        assert [list(m.items()) for m in again] == [
            list(m.items()) for m in first]
    assert "frothy_urine" not in first[0]


def test_a_transform_writes_its_own_structure_map_not_the_carried_one():
    # prune_constant_parents writes into its working structure map; the
    # loaded diagram it reads keeps the structure it carries.
    a = NodeSpec.probabilistic("a", ("0", "1"), cpt=[[0.6, 0.4]])
    b = NodeSpec.probabilistic("b", ("0", "1"), ("a",),
                               cpt=[[0.3, 0.7], [0.3, 0.7]])
    d = load(save(add_node(add_node(empty_diagram(), a), b)))
    assert prune_constant_parents(d).nodes["b"].parents == ()
    assert _accepted(d)[0] == {"a": ((), PROBABILISTIC),
                                "b": (("a",), PROBABILISTIC)}
    assert prune_constant_parents(d).nodes["b"].parents == ()
