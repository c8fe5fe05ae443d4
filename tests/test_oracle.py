"""The enumeration oracle, cross-checked against hand values and a second
independent implementation built on plain dicts."""

from collections.abc import Mapping

import numpy as np
import pytest

from conftest import DOCS, enumerate_joint, seeded_diagram
from infdiag import (
    NodeSpec,
    add_node,
    empty_diagram,
    joint_table,
    load,
    oracle_posterior,
    posterior,
    topological_order,
)
from infdiag.diagram import Cpt, Diagram
from infdiag.errors import (
    EvidenceOnTarget,
    InvalidDiagram,
    InvalidParameters,
    TooLarge,
    UnknownNode,
    UnknownOutcome,
    ZeroProbabilityEvidence,
)
from infdiag.oracle import MAX_JOINT_ENTRIES


def two_node():
    """The worked two-node model: P(X=1)=0.3, P(Y=1|X=0)=0.2, P(Y=1|X=1)=0.9."""
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("y0", "y1"), ("X",),
                                           cpt=[[0.8, 0.2], [0.1, 0.9]]))
    return d


def test_joint_hand_values():
    table = joint_table(two_node())
    want = {("x0", "y0"): 0.56, ("x0", "y1"): 0.14,
            ("x1", "y0"): 0.03, ("x1", "y1"): 0.27}
    for (x, y), p in want.items():
        assert table.prob({"X": x, "Y": y}) == pytest.approx(p, abs=1e-12)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_independent_roots_outer_product():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("A", ("0", "1"), cpt=[[0.6, 0.4]]))
    d = add_node(d, NodeSpec.probabilistic("B", ("0", "1", "2"),
                                           cpt=[[0.2, 0.3, 0.5]]))
    table = joint_table(d)
    outer = np.outer([0.6, 0.4], [0.2, 0.3, 0.5]).reshape(
        table.reordered(("A", "B")).shape)
    assert np.allclose(table.reordered(("A", "B")), outer, atol=1e-15)


def test_deterministic_identity_mass_on_diagonal():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.deterministic("Y", ("0", "1"), ("X",),
                                           function=[0, 1]))
    table = joint_table(d)
    assert table.prob({"X": "0", "Y": "0"}) == 0.7
    assert table.prob({"X": "1", "Y": "1"}) == 0.3
    assert table.prob({"X": "0", "Y": "1"}) == 0.0
    assert table.prob({"X": "1", "Y": "0"}) == 0.0


def test_joint_sums_to_one_on_seeded_family():
    for seed in range(50):
        table = joint_table(seeded_diagram(seed))
        assert abs(table.probs.sum() - 1.0) <= 1e-12


def test_joint_agrees_with_dict_enumeration():
    for seed in range(30):
        d = seeded_diagram(seed)
        table = joint_table(d)
        byhand = enumerate_joint(d)
        assert table.probs.size == len(byhand)
        flat = table.probs.reshape(-1)
        for i, combo in enumerate(sorted(byhand)):
            assert flat[i] == pytest.approx(byhand[combo], abs=1e-12)


def test_single_node_marginals_match_sequential_summation():
    # Chain-rule marginal by sequential dict summation vs the dense table.
    for seed in range(20):
        d = seeded_diagram(seed)
        order = topological_order(d)
        byhand = enumerate_joint(d)
        table = joint_table(d)
        for i, v in enumerate(order):
            acc = {}
            for combo, p in byhand.items():
                acc[combo[i]] = acc.get(combo[i], 0.0) + p
            dense = table.marginal((v,))
            for oi in range(d.nodes[v].n_outcomes):
                assert dense[oi] == pytest.approx(acc.get(oi, 0.0), abs=1e-12)


def test_posterior_hand_value():
    vec = oracle_posterior(two_node(), "X", {"Y": "y1"})
    assert vec[1] == pytest.approx(27 / 41, abs=1e-12)
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_empty_evidence_is_prior():
    vec = oracle_posterior(two_node(), "X", {})
    assert np.allclose(vec, [0.7, 0.3], atol=1e-15)


def test_posterior_full_evidence_equals_joint_slice():
    for seed in range(10):
        d = seeded_diagram(seed, node_count=3 + seed % 3)
        table = joint_table(d)
        # Pick the most likely full assignment; all its slices are positive.
        idx = np.unravel_index(np.argmax(table.probs), table.probs.shape)
        target = table.variables[0]
        evidence = {v: table.outcomes[i][idx[i]]
                    for i, v in enumerate(table.variables) if v != target}
        vec = oracle_posterior(d, target, evidence)
        sel = list(idx)
        sel[0] = slice(None)
        sliced = table.probs[tuple(sel)]
        assert np.allclose(vec, sliced / sliced.sum(), atol=1e-12)


def test_posterior_zero_probability_evidence():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("0", "1"), cpt=[[1.0, 0.0]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("0", "1"), ("X",),
                                           cpt=[[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ZeroProbabilityEvidence):
        oracle_posterior(d, "Y", {"X": "1"})


def test_posterior_argument_errors():
    d = two_node()
    with pytest.raises(UnknownNode):
        oracle_posterior(d, "Q", {})
    with pytest.raises(UnknownNode):
        oracle_posterior(d, "X", {"Q": "y0"})
    with pytest.raises(UnknownOutcome):
        oracle_posterior(d, "X", {"Y": "nope"})
    with pytest.raises(EvidenceOnTarget):
        oracle_posterior(d, "X", {"X": "x0", "Y": "y0"})
    with pytest.raises(UnknownNode, match="unknown target node"):
        oracle_posterior(d, ["X"], {})
    with pytest.raises(InvalidParameters, match="not list"):
        oracle_posterior(d, "X", [1])
    # The oracle checks its arguments with posterior's checker, so both
    # raise the same error: every evidence entry is checked before
    # evidence on the target, which reads the mapping by key.
    fig9 = load((DOCS / "fig9.json").read_text())
    for evidence, error in (
            (Unhashable(), UnknownNode),
            ({"heart_failure": "absent", "nope": "x"}, UnknownNode),
            ({"heart_failure": "absent", "xray": "x"}, UnknownOutcome),
            ({"heart_failure": "absent", "xray": "normal"}, EvidenceOnTarget)):
        for query in (oracle_posterior, posterior):
            with pytest.raises(error):
                query(fig9, "heart_failure", evidence)


class Unhashable(Mapping):  # evidence keyed by a name no dict can hold
    def __getitem__(self, key):
        return "abnormal"

    def __iter__(self):
        return iter([["xray"]])

    def __len__(self):
        return 1


def test_state_space_guard():
    d = empty_diagram()
    for i in range(23):
        d = add_node(d, NodeSpec.probabilistic(f"b{i}", ("0", "1"),
                                               cpt=[[0.5, 0.5]]))
    assert 2 ** 23 > MAX_JOINT_ENTRIES
    with pytest.raises(TooLarge):
        joint_table(d)


def test_joint_prob_requires_full_assignment():
    table = joint_table(two_node())
    with pytest.raises(UnknownNode):
        table.prob({"X": "x0"})
    with pytest.raises(UnknownNode):
        table.axis("Q")
    with pytest.raises(UnknownNode):
        table.reordered(("X", "Q"))


def test_joint_table_refuses_an_invalid_diagram():
    x = two_node().nodes["X"]
    bad = Diagram({"X": NodeSpec("X", x.outcomes, x.kind, (),
                                 Cpt([[0.5, 0.4]]))})
    with pytest.raises(InvalidDiagram):
        joint_table(bad)


def test_items_enumeration_order_last_variable_fastest():
    table = joint_table(two_node())
    labels = [tuple(a.values()) for a, _ in table.items()]
    assert labels == [("x0", "y0"), ("x0", "y1"), ("x1", "y0"), ("x1", "y1")]
