"""File format round-trips, DOT output, built-in models, random generation."""

import json
import math
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

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
from infdiag import diagram as diagram_module
from infdiag.diagram import (
    ROW_SUM_TOL,
    Cpt,
    DetTable,
    Diagram,
    NodeSpec,
    ValidationReport,
    Violation,
    _node_violations,
    _table_lists,
    node_depths,
)
from infdiag.errors import (
    CycleDetected,
    EngineError,
    InvalidDiagram,
    InvalidParameters,
    NormalizationViolation,
    OutcomeOutOfRange,
    ParseError,
    SchemaError,
    TooLarge,
    UnknownExample,
    UnknownParent,
)
from infdiag.modelio import _table_text, builtin_names, parse_document

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
            "root", ("caf\u00e9", 'say "hi"', "back\\slash",
                     "\u2603\U0001f600", "rest"),
            cpt=[[-0.0, 5e-324, 0.1 + 0.2, 1e-07, 0.7 - 1e-07]]),
        "f": NodeSpec.deterministic(
            "f", ("a", "b"), ("root",), function=[1, 0, 0, 1, 0]),
    })
    text = save(d)
    assert text == _dumps_reference(d)
    assert load(text) == d
    assert '"parents": []' in text
    for value in ("-0.0", "5e-324", "0.30000000000000004", "1e-07"):
        assert value in text
    # A probability past 1 is no entry of a model save writes; the table
    # writer writes it as json.dumps does all the same.
    big = np.array([[1e22, 0.5], [-0.0, 5e-324]])
    assert _table_text(big, "") == json.dumps(big.tolist(), indent=2)
    assert "1e+22" in _table_text(big, "")
    # A node of no outcomes has no table of its shape, one row of none, a
    # function entry of int64's extremes indexes no outcome of f, and a
    # cpt entry of 1e22 is no probability: save refuses each, as every
    # query and load do, rather than write what load refuses.
    empty = NodeSpec.probabilistic("empty", (), cpt=[])
    extreme = replace(d.nodes["f"],
                      table=DetTable([2 ** 63 - 1, -(2 ** 63), 0, 1, 0]))
    huge = replace(d.nodes["root"],
                   table=Cpt([[-0.0, 5e-324, 1e22, 0.1 + 0.2, 1e-07]]))
    for bad in ({**d.nodes, "empty": empty}, {**d.nodes, "f": extreme},
                {**d.nodes, "root": huge}):
        with pytest.raises(InvalidDiagram):
            save(Diagram(bad))


def test_save_rejects_non_finite_cpt():
    # Strict JSON has no NaN or infinity; the entry's checker reports each
    # as a probability outside [0, 1], naming the node.
    for bad in (math.nan, math.inf, -math.inf):
        d = Diagram({
            "ok": NodeSpec.probabilistic("ok", ("a", "b"), cpt=[[0.5, 0.5]]),
            "x": NodeSpec.probabilistic("x", ("a", "b"), ("ok",),
                                        cpt=[[0.5, 0.5], [bad, 0.5]]),
        })
        with pytest.raises(InvalidDiagram) as err:
            save(d)
        assert str(err.value).startswith("EntryOutOfRange: node 'x' row 1")


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


def _built(text):
    """The document's diagram, built by the checking constructors."""
    return Diagram({
        n["name"]: (NodeSpec.probabilistic(n["name"], n["outcomes"],
                                           n["parents"], n["cpt"])
                    if n["kind"] == "probabilistic" else
                    NodeSpec.deterministic(n["name"], n["outcomes"],
                                           n["parents"], n["function"]))
        for n in json.loads(text)["nodes"]})


def _bits(d):
    """Each node's fields, its table as type, dtype, shape and bytes: equal
    only for identical tables, NaN and -0.0 entries included."""
    out = []
    for n, spec in d.nodes.items():
        arr = (spec.table.entries if spec.kind == "deterministic"
               else spec.table.rows)
        out.append((n, spec.name, spec.outcomes, spec.kind, spec.parents,
                    type(spec.table), arr.dtype, arr.shape, arr.tobytes(),
                    arr.flags.writeable))
    return out


def _row_by_row(diagram):
    """``validate``'s report as ``_node_violations`` writes it when it
    reads every cpt row itself: each node in turn, none deferred, then the
    cycle check."""
    arity = {n: len(s.outcomes) for n, s in diagram.nodes.items()}
    out = []
    for name, spec in diagram.nodes.items():
        out += _node_violations(name, spec, _table_lists(spec), arity)
    try:
        node_depths({n: (s.parents, s.kind)
                     for n, s in diagram.nodes.items()})
    except CycleDetected as err:
        out.append(Violation("CycleDetected", "-", str(err)))
    return ValidationReport(tuple(out))


def _agrees_with_the_full_report(text, saves=True):
    """``check_tables`` decides as the row-by-row reference does, both on
    the lists ``parse_document`` parsed and, through ``validate``, on the
    built diagram's arrays; the document builds the same diagram, bit for
    bit, as the checking constructors; ``load`` raises exactly when the
    report is not ok. Returns the report. Equal bits save the same;
    ``saves`` checks that too."""
    diagram, report = parse_document(text)
    built = _built(text)
    assert report == validate(diagram) == _row_by_row(diagram)
    assert _bits(diagram) == _bits(built)
    if report.ok:
        assert load(text) == diagram == built
        assert repr(diagram) == repr(built)
        assert list(map(hash, diagram.nodes.values())) == list(
            map(hash, built.nodes.values()))
        assert not saves or save(load(text)) == save(built)
    else:
        with pytest.raises(EngineError):
            load(text)
    return report


def _row_sum_edges():
    """Floats s at and one ulp either side of each bound of the row-sum
    tolerance, with whether the row loop accepts a row summing to s."""
    out = []
    for bound in (1.0 - ROW_SUM_TOL, 1.0 + ROW_SUM_TOL):
        for s in (math.nextafter(bound, 0.0), bound,
                  math.nextafter(bound, 2.0)):
            out.append((s, abs(s - 1.0) <= ROW_SUM_TOL))
    return out


def test_one_pass_decides_row_sums_as_the_row_loop():
    edges = _row_sum_edges()
    # Each bound is straddled: of its three values, some pass, some fail.
    assert {ok for _, ok in edges[:3]} == {ok for _, ok in edges[3:]} == {
        True, False}
    low = min(s for s, ok in edges if ok)
    high = max(s for s, ok in edges if ok)
    for s, ok in edges:
        # s - 0.5 is exact near 1, so [s - 0.5, 0.5] sums to s exactly.
        row = [s - 0.5, 0.5]
        assert sum(row) == s
        # Alone; after a row well inside; and beside rows at the other
        # accepted extremes, so that it is the document's least or
        # greatest sum exactly when it is out of bounds.
        for text in (_doc(_prob("x", [row])),
                     _doc(_prob("a", [[0.5, 0.5]]),
                          _prob("b", [[0.25, 0.75], row], "a")),
                     _doc(_prob("a", [[low - 0.5, 0.5]]),
                          _prob("b", [row, [high - 0.5, 0.5]], "a"))):
            assert _agrees_with_the_full_report(text).ok == ok


def test_one_pass_agrees_on_edge_documents():
    def det(name, function, parents, outcomes=("a", "b")):
        return {"name": name, "outcomes": list(outcomes),
                "kind": "deterministic", "parents": list(parents),
                "function": function}

    root = _prob("a", [[0.5, 0.5]])
    valid = {
        "-0.0 entries": _doc(_prob("a", [[-0.0, 1.0]]),
                             _prob("b", [[1.0, -0.0], [-0.0, 1.0]], "a")),
        "integer entries": _doc(_prob("a", [[1, 0]]),
                                _prob("b", [[0, 1], [0.5, 0.5]], "a")),
        "parent after its child": _doc(_prob("b", [[0.2, 0.8], [0.7, 0.3]],
                                             "a"), root),
        "deterministic only": _doc(det("k", [1], [])),
        "deterministic child": _doc(root, det("k", [1, 0], ["a"])),
    }
    invalid = {
        "an infinite entry": _doc(root, _prob("b", [[0.5, 0.5], [
            0.123, 0.5]], "a")).replace("0.123", "1e400"),
        "a NaN entry": _doc(_prob("a", [[0.5, 0.5]])).replace(
            "[[0.5", "[[NaN"),
        # min and max pass over a NaN that is not first.
        "a NaN entry in a later row": _doc(root, _prob("b", [
            [0.5, 0.5], [0.5, 0.123]], "a")).replace("0.123", "NaN"),
        "infinities in one row": _doc(root, _prob("b", [
            [0.5, 0.5], [0.123, 0.5]], "a")).replace(
                "[0.123, 0.5]", "[Infinity, -Infinity]"),
        "integer entries out of range": _doc(root, _prob("b", [
            [0.5, 0.5], [2, 0]], "a")),
        "an entry above 1 in a row summing to 1": _doc(_prob("a", [
            [1.0 + 2 ** -52, 0.0]])),
        "a negative entry in a row summing to 1": _doc(dict(
            _prob("a", [[-0.25, 0.5, 0.75]]), outcomes=["a", "b", "c"])),
        "a self-parent": _doc(_prob("a", [[0.5, 0.5]] * 2, "a")),
        "a 2-cycle": _doc(_prob("a", [[0.5, 0.5]] * 2, "b"),
                          _prob("b", [[0.5, 0.5]] * 2, "a")),
        "an unknown parent": _doc(root, _prob("b", [[0.5, 0.5]] * 2,
                                              "ghost")),
        "a function entry equal to the outcome count": _doc(
            root, det("k", [0, 2], ["a"])),
        "a negative function entry": _doc(root, det("k", [-1, 0], ["a"])),
        "an empty label": _doc(det("k", [0], [], ("a", ""))),
        "a duplicate label": _doc(det("k", [0], [], ("a", "a"))),
        "one label": _doc(det("k", [0], [], ("a",))),
        "a bad name": _doc(_prob("1a", [[0.5, 0.5]])),
        "a duplicate parent": _doc(root, _prob("b", [[0.5, 0.5]] * 4,
                                               "aa")),
        "too few rows": _doc(root, _prob("b", [[0.5, 0.5]], "a")),
        "too few function entries": _doc(root, det("k", [0], ["a"])),
        "a short row": _doc(_prob("a", [[1.0]])),
        "an empty cpt": _doc(_prob("a", [])),
        "an empty row and no outcomes": _doc(dict(_prob("a", [[]]),
                                                  outcomes=[])),
    }
    for what, text in [*valid.items(), *invalid.items()]:
        assert _agrees_with_the_full_report(text).ok == (what in valid), what
    # A node built by the one pass is the same immutable value.
    spec = load(valid["deterministic child"]).nodes["k"]
    with pytest.raises(FrozenInstanceError):
        spec.kind = "probabilistic"
    with pytest.raises(ValueError):
        spec.table.entries[0] = 0
    assert replace(spec, parents=()) == NodeSpec.deterministic(
        "k", ("a", "b"), function=[1, 0])


def test_one_pass_accepts_generated_models_without_the_full_report(
        monkeypatch):
    # A valid model's cpt rows are checked once per document: no node runs
    # the row-by-row pass, in load or in validate.
    row_by_row = []

    def counted(name, spec, table, arity, deferred=None):
        if deferred is None:
            row_by_row.append(name)
        return _node_violations(name, spec, table, arity, deferred)

    monkeypatch.setattr(diagram_module, "_node_violations", counted)
    for seed in range(120):
        d = gen_random(1 + seed % 7, 2 + seed % 4, (seed % 11) / 10,
                       (seed % 5) / 4, seed)
        assert _agrees_with_the_full_report(save(d)).ok
        assert load(save(d)) == d and validate(d).ok
    # Wide rows, whose normalized sums drift furthest from 1: 766,410 cells
    # at seed 0, so each is written once.
    for seed in (0, 1):
        d = gen_random(2, 1024, 1.0, 0.0, seed)
        assert _agrees_with_the_full_report(save(d), saves=False).ok
    assert row_by_row == []
    # One bad row sends every node through the pass, in both.
    text = _doc(_prob("a", [[0.5, 0.5]]), _prob("b", [[0.5, 0.5], [0.5, 0.6]],
                                                 "a"))
    diagram, report = parse_document(text)
    assert not report.ok and row_by_row == ["a", "b"]
    assert not validate(diagram).ok and row_by_row == ["a", "b"] * 2


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


def test_gen_random_refuses_too_many_nodes_before_any_draw(monkeypatch):
    # Each node draws once per earlier node, whatever the density, so
    # 10**6 nodes took hours; past MAX_RANDOM_NODES it raises TooLarge
    # before a generator is even made. Sizes up to the cap draw as before.
    from infdiag import modelio

    cap = modelio.MAX_RANDOM_NODES
    want = save(gen_random(6, 3, 0.5, 0.2, 3))

    class NoDraws:
        def __init__(self, seed):
            raise AssertionError("drew a number")

    monkeypatch.setattr(modelio, "random", SimpleNamespace(Random=NoDraws))
    for nodes in (cap + 1, 10 ** 6):
        with pytest.raises(TooLarge, match=f"{nodes} nodes exceed"):
            gen_random(nodes, 2, 0.0, 0.0, 0)
    monkeypatch.undo()
    monkeypatch.setattr(modelio, "MAX_RANDOM_NODES", 6)
    assert save(gen_random(6, 3, 0.5, 0.2, 3)) == want
    with pytest.raises(TooLarge):
        gen_random(7, 3, 0.5, 0.2, 3)


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
