"""File format round-trips, DOT output, built-in models, random generation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DOCS
from infdiag import (
    add_node,
    builtin_example,
    d_separated,
    export_dot,
    empty_diagram,
    gen_random,
    load,
    refactor,
    save,
    topological_order,
    validate,
)
from infdiag.diagram import Diagram, NodeSpec
from infdiag.errors import (
    EngineError,
    InvalidParameters,
    NormalizationViolation,
    OutcomeOutOfRange,
    ParseError,
    SchemaError,
    TooLarge,
    UnknownExample,
    UnknownParent,
)
from infdiag.modelio import builtin_names, parse_document

ALL_BUILTINS = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b")


def test_round_trip_all_builtins():
    for name in ALL_BUILTINS:
        d = builtin_example(name)
        assert load(save(d)) == d


def test_round_trip_is_byte_stable():
    for name in ALL_BUILTINS:
        text = save(builtin_example(name))
        assert save(load(text)) == text


def test_round_trip_seeded_models():
    for seed in range(100):
        d = gen_random(1 + seed % 7, 2 + seed % 3, (seed % 11) / 10,
                       (seed % 5) / 4, seed)
        assert load(save(d)) == d


def _dumps_reference(d):
    """The text json.dumps writes for d: save must write exactly this."""
    nodes = []
    for spec in d.nodes.values():
        entry = {"name": spec.name, "outcomes": list(spec.outcomes),
                 "kind": spec.kind, "parents": list(spec.parents)}
        if spec.kind == "deterministic":
            entry["function"] = spec.table.entries.tolist()
        else:
            entry["cpt"] = spec.table.rows.tolist()
        nodes.append(entry)
    return json.dumps({"version": 1, "nodes": nodes}, indent=2) + "\n"


def test_save_matches_json_dumps_on_random_and_refactored_models():
    for n in range(1, 13):
        for det in (0.0, 0.25, 0.5):
            for seed in range(3):
                d = gen_random(n, 2 if n > 8 else 3, 0.4, det, 100 * n + seed)
                assert save(d) == _dumps_reference(d)
                dense = refactor(d, list(topological_order(d))[::-1])
                assert save(dense) == _dumps_reference(dense)


def test_save_matches_json_dumps_on_committed_models():
    for path in sorted(DOCS.glob("*.json")):
        d = load(path.read_text())
        assert save(d) == _dumps_reference(d) == path.read_text()


def test_save_matches_json_dumps_on_edge_cases():
    assert save(empty_diagram()) == _dumps_reference(empty_diagram())
    assert save(empty_diagram()) == '{\n  "version": 1,\n  "nodes": []\n}\n'
    d = Diagram({
        "root": NodeSpec.probabilistic(
            "root", ("caf\u00e9", 'say "hi"', "back\\slash", "\u2603\U0001f600"),
            cpt=[[-0.0, 5e-324, 1e22, 0.1 + 0.2]]),
        "f": NodeSpec.deterministic(
            "f", ("a", "b"), ("root",),
            function=[2 ** 63 - 1, -(2 ** 63), 0, 1]),
        "empty": NodeSpec.probabilistic("empty", (), cpt=[]),
    })
    text = save(d)
    assert text == _dumps_reference(d)
    assert '"parents": []' in text
    assert '"cpt": []' in text
    assert "-0.0" in text and "5e-324" in text and "1e+22" in text
    assert "9223372036854775807" in text


def test_save_rejects_non_finite_cpt():
    for bad in (math.nan, math.inf, -math.inf):
        d = Diagram({
            "ok": NodeSpec.probabilistic("ok", ("a", "b"), cpt=[[0.5, 0.5]]),
            "x": NodeSpec.probabilistic("x", ("a", "b"), ("ok",),
                                        cpt=[[0.5, 0.5], [bad, 0.5]]),
        })
        with pytest.raises(NormalizationViolation) as err:
            save(d)
        assert "'x'" in str(err.value)


def test_load_rejects_malformed_json_with_position():
    with pytest.raises(ParseError) as err:
        load("{\n  \"version\": 1,\n  nodes: []\n}")
    assert "line 3" in str(err.value)
    for bad in (None, 5):
        with pytest.raises(ParseError, match="unreadable JSON: .*not (NoneType|int)"):
            load(bad)


def test_load_schema_rejections():
    base = {"version": 1, "nodes": []}
    bad_docs = [
        ([], "top level must be an object"),
        ({"nodes": []}, "missing field 'version'"),
        ({"version": 2, "nodes": []}, "unsupported version"),
        ({"version": True, "nodes": []}, "unsupported version"),
        ({"version": 1.0, "nodes": []}, "unsupported version"),
        ({**base, "extra": 1}, "unknown top-level fields"),
        ({"version": 1, "nodes": {}}, "'nodes' must be a list"),
        ({"version": 1, "nodes": [{"name": "x"}]}, "missing fields"),
        ({"version": 1, "nodes": [{"name": "x", "outcomes": ["a", "b"],
                                   "kind": "probabilistic", "parents": [],
                                   "cpt": [[1.0, 0.0]], "color": "red"}]},
         "unknown fields"),
        ({"version": 1, "nodes": [{"name": "x", "outcomes": ["a", "b"],
                                   "kind": "magic", "parents": [],
                                   "cpt": [[1.0, 0.0]]}]},
         "'kind' must be"),
        ({"version": 1, "nodes": [{"name": "x", "outcomes": ["a", "b"],
                                   "kind": "deterministic", "parents": [],
                                   "cpt": [[1.0, 0.0]]}]},
         "missing field 'function'"),
        ({"version": 1, "nodes": [{"name": "x", "outcomes": ["a", "b"],
                                   "kind": "probabilistic", "parents": [],
                                   "function": [0]}]},
         "missing field 'cpt'"),
        ({"version": 1, "nodes": [{"name": "x", "outcomes": ["a", "b"],
                                   "kind": "deterministic", "parents": [],
                                   "function": [0.5]}]},
         "list of integers"),
        ({"version": 1, "nodes": [{"name": "x", "outcomes": ["a", "b"],
                                   "kind": "probabilistic", "parents": [],
                                   "cpt": [[True, False]]}]},
         "numeric rows"),
    ]
    for doc, needle in bad_docs:
        with pytest.raises(SchemaError) as err:
            load(json.dumps(doc))
        assert needle in str(err.value)


def test_load_rejects_duplicate_node_names():
    node = {"name": "x", "outcomes": ["a", "b"], "kind": "probabilistic",
            "parents": [], "cpt": [[0.5, 0.5]]}
    with pytest.raises(SchemaError):
        load(json.dumps({"version": 1, "nodes": [node, node]}))


def test_load_semantic_errors_use_engine_types():
    def doc(node):
        return json.dumps({"version": 1, "nodes": [node]})

    with pytest.raises(NormalizationViolation):
        load(doc({"name": "x", "outcomes": ["a", "b"],
                  "kind": "probabilistic", "parents": [],
                  "cpt": [[0.5, 0.4]]}))
    with pytest.raises(NormalizationViolation):  # past float range
        load(doc({"name": "x", "outcomes": ["a", "b"],
                  "kind": "probabilistic", "parents": [],
                  "cpt": [[10 ** 400, 0]]}))
    with pytest.raises(UnknownParent):
        load(doc({"name": "x", "outcomes": ["a", "b"],
                  "kind": "probabilistic", "parents": ["ghost"],
                  "cpt": [[0.5, 0.5], [0.5, 0.5]]}))
    with pytest.raises(OutcomeOutOfRange):
        load(doc({"name": "x", "outcomes": ["a", "b"],
                  "kind": "deterministic", "parents": [],
                  "function": [5]}))


def _doc(*nodes):
    return json.dumps({"version": 1, "nodes": list(nodes)})


def _prob(name, cpt, parents=()):
    return {"name": name, "outcomes": ["a", "b"], "kind": "probabilistic",
            "parents": list(parents), "cpt": cpt}


def _first_error(text):
    with pytest.raises(EngineError) as err:
        load(text)
    return f"{type(err.value).__name__}: {err.value}"


def test_load_error_ordering():
    # A SchemaError on any node wins over every semantic violation.
    text = _doc(_prob("a", [[0.5, 0.4]]), _prob("b", [[.5, .5]]),
                _prob("c", [[.5, .5]]), {"name": "d"})
    assert _first_error(text) == (
        "SchemaError: nodes[3]: missing fields ['kind', 'outcomes', "
        "'parents']")
    # A number past the float range, or a ragged table, raises at once.
    text = _doc(_prob("a", [[0.5, 0.4]]), _prob("b", [[10 ** 400, 0]]))
    assert _first_error(text) == (
        "NormalizationViolation: nodes[1] 'b': cpt entry too large for a "
        "float")
    text = _doc(_prob("a", [[0.5, 0.4]]), _prob("b", [[.5, .5], [1.0]], "a"))
    assert _first_error(text) == (
        "TableShapeMismatch: nodes[1] 'b': table is not a rectangular array "
        "of numbers")
    # A row sum and its repr are floats, as .tolist() yields them; a row's
    # range violation comes before its sum violation.
    text = _doc(_prob("a", [[2, 0]]))
    assert _first_error(text) == (
        "NormalizationViolation: EntryOutOfRange: node 'a' row 0: "
        "probability outside [0, 1] (+1 more violations)")
    assert str(parse_document(text)[1]) == (
        "EntryOutOfRange: node 'a' row 0: probability outside [0, 1]\n"
        "NormalizationViolation: node 'a' row 0: row sums to 2.0")
    # Rows of one wrong length are a collected shape violation; the cycle
    # check comes last.
    text = _doc(_prob("a", [[1.0]]), _prob("b", [[1.5, -0.5], [.5, .5]], "c"),
                _prob("c", [[.5, .5], [.5, .5]], "b"))
    assert _first_error(text) == (
        "TableShapeMismatch: TableShapeMismatch: node 'a': 1 entries per "
        "row, expected 2 (+2 more violations)")
    assert str(parse_document(text)[1]) == (
        "TableShapeMismatch: node 'a': 1 entries per row, expected 2\n"
        "EntryOutOfRange: node 'b' row 0: probability outside [0, 1]\n"
        "CycleDetected: node '-': cycle through nodes: b, c")


def test_docs_match_their_sources():
    text = (DOCS / "fig9.json").read_text()
    d = load(text)
    assert len(d.nodes) == 7
    assert len(d.arcs) == 6
    assert d == builtin_example("fig9")
    # Committed data files are their sources, bit for bit.
    for name in ALL_BUILTINS:
        assert (DOCS / f"{name}.json").read_text() == save(builtin_example(name))
    assert (DOCS / "order_gap.json").read_text() == save(
        gen_random(4, 3, 0.5, 0.2, 0))


def test_all_committed_models_load_clean():
    for path in sorted(DOCS.glob("*.json")):
        d = load(path.read_text())
        assert validate(d).ok


def test_export_dot_shapes_and_arcs():
    d = builtin_example("fig5")
    dot = export_dot(d)
    assert dot.startswith("digraph influence_diagram {")
    assert '"output" [shape=ellipse, peripheries=2];' in dot
    assert '"program_error" [shape=ellipse];' in dot
    assert '"program_error" -> "output";' in dot
    arc_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(arc_lines) == len(d.arcs)


def test_export_dot_empty_diagram():
    assert export_dot(empty_diagram()) == "digraph influence_diagram {\n}\n"


def test_export_dot_arc_endpoints_match_parent_lists():
    d = builtin_example("fig9")
    dot = export_dot(d)
    for parent, child in d.arcs:
        assert f'"{parent}" -> "{child}";' in dot


def test_builtin_structures():
    fig5 = builtin_example("fig5")
    assert fig5.arcs == (("program_error", "output"),)
    assert fig5.nodes["output"].kind == "deterministic"

    fig6 = builtin_example("fig6")
    roots = [n for n in fig6.nodes if not fig6.parents(n)]
    assert len(roots) == 3
    assert fig6.nodes["output"].kind == "deterministic"
    assert set(fig6.arcs) == {("subsystem_a", "output"),
                              ("subsystem_b", "output"),
                              ("subsystem_c", "output")}

    fig7 = builtin_example("fig7")
    assert set(fig7.arcs) == {("cause", "effect_a"), ("cause", "effect_b")}

    fig8 = builtin_example("fig8")
    assert len(fig8.nodes) == 3
    assert set(fig8.arcs) == {("cause_a", "effect"), ("cause_b", "effect")}
    assert d_separated(fig8, "cause_a", "cause_b", set())

    fig9 = builtin_example("fig9")
    assert set(fig9.arcs) == {
        ("heart_failure", "cardiomegaly"),
        ("heart_failure", "pitting_edema"),
        ("nephrotic_syndrome", "pitting_edema"),
        ("nephrotic_syndrome", "urine_protein"),
        ("cardiomegaly", "xray"),
        ("urine_protein", "frothy_urine"),
    }


def test_builtin_constant_likelihood_pair():
    a = builtin_example("fig10a")
    b = builtin_example("fig10b")
    assert a.nodes["symptom"].table == b.nodes["symptom"].table
    assert a.nodes["disorder"].table != b.nodes["disorder"].table


def test_builtin_unknown_name():
    with pytest.raises(UnknownExample):
        builtin_example("fig99")
    with pytest.raises(UnknownExample):
        builtin_example(["x"])
    assert builtin_names() == tuple(sorted(ALL_BUILTINS))


def test_gen_random_determinism_and_validity():
    a = save(gen_random(6, 4, 0.5, 0.3, 42))
    b = save(gen_random(6, 4, 0.5, 0.3, 42))
    assert a == b
    assert save(gen_random(6, 4, 0.5, 0.3, 43)) != a


def test_gen_random_density_zero_means_no_arcs():
    d = gen_random(8, 3, 0.0, 0.5, 1)
    assert d.arcs == ()


def test_gen_random_thousand_samples_all_validate():
    # gen_random builds its diagram without add_node's checks: this proves
    # its output valid over a grid of every parameter.
    for seed in range(1000):
        d = gen_random(1 + seed % 6, 2 + seed % 3, (seed % 11) / 10,
                       (seed % 5) / 4, seed)
        assert validate(d).ok
    # Wide rows, whose normalized sums drift furthest from 1.
    for seed in range(3):
        assert validate(gen_random(2, 1024, 1.0, 0.0, seed)).ok
        assert validate(gen_random(3, 64, 1.0, 0.5, seed)).ok


def test_gen_random_arcs_point_forward():
    d = gen_random(7, 3, 0.7, 0.2, 5)
    order = {n: i for i, n in enumerate(d.nodes)}
    assert all(order[p] < order[c] for p, c in d.arcs)


def test_gen_random_parameter_errors():
    with pytest.raises(InvalidParameters):
        gen_random(0, 3, 0.5, 0.2, 1)
    with pytest.raises(InvalidParameters):
        gen_random(3, 1, 0.5, 0.2, 1)
    with pytest.raises(InvalidParameters):
        gen_random(3, 3, 1.5, 0.2, 1)
    with pytest.raises(InvalidParameters):
        gen_random(3, 3, 0.5, -0.1, 1)
    for bad in ((2.5, 3, .3, .2, 1), (3, "3", .3, .2, 1), (3, 3, "a", .2, 1),
                (3, 3, .3, None, 1), (3, 3, .3, .2, [1])):
        with pytest.raises(InvalidParameters):
            gen_random(*bad)
    # A table past the reversal cell cap is refused before it is drawn.
    with pytest.raises(TooLarge, match="'v34' would hold 53747712 table"):
        gen_random(36, 3, 0.4, 0.2, 1)
    with pytest.raises(TooLarge, match="'v1' would hold 32073305199 table"):
        gen_random(3, 10 ** 6, 0.5, 0.2, 1)


# Outcome labels of several types: add_node must refuse every label that
# save and load could not carry.
labels = (st.text(max_size=3) | st.integers(-1, 2) | st.none()
          | st.text(max_size=3).map(np.str_))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_every_accepted_diagram_round_trips(seed, data):
    d = empty_diagram()
    for spec in gen_random(1 + seed % 5, 2 + seed % 3, 0.5, 0.25,
                           seed).nodes.values():
        if data.draw(st.booleans()):
            k = spec.n_outcomes
            outcomes = data.draw(st.lists(labels, min_size=k, max_size=k))
            spec = NodeSpec(spec.name, tuple(outcomes), spec.kind,
                            spec.parents, spec.table)
        try:
            d = add_node(d, spec)
        except EngineError:
            pass
    assert load(save(d)) == d


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_property(seed):
    d = gen_random(1 + seed % 5, 2 + seed % 3, 0.5, 0.25, seed)
    text = save(d)
    assert load(text) == d
    assert save(load(text)) == text
