"""Construction, validation and ordering of the core diagram type."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infdiag import (
    Cpt,
    DETERMINISTIC,
    DetTable,
    Diagram,
    NodeSpec,
    PROBABILISTIC,
    add_node,
    builtin_example,
    empty_diagram,
    topological_order,
    validate,
)
from infdiag.diagram import (
    ValidationReport,
    decode_row,
    node_depths,
    row_count,
    row_index,
    table_array,
    trusted_spec,
)
from infdiag.errors import (
    CycleDetected,
    CycleWouldForm,
    DuplicateName,
    InvalidDiagram,
    InvalidNodeSpec,
    NormalizationViolation,
    OutcomeOutOfRange,
    TableShapeMismatch,
    UnknownParent,
)


def chain_xyz():
    d = empty_diagram()
    d = add_node(d, NodeSpec.probabilistic("X", ("a", "b"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), ("X",),
                                           cpt=[[0.8, 0.2], [0.1, 0.9]]))
    d = add_node(d, NodeSpec.probabilistic("Z", ("a", "b"), ("Y",),
                                           cpt=[[0.6, 0.4], [0.3, 0.7]]))
    return d


def test_add_single_root():
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    assert d.names == ("X",)
    assert validate(d).ok


def test_add_deterministic_identity():
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.deterministic("Y", ("y0", "y1"), ("X",),
                                           function=[0, 1]))
    spec = d.nodes["Y"]
    assert spec.kind == DETERMINISTIC
    assert spec.free_parameters(2) == 0
    assert validate(d).ok


def test_self_parent_is_a_cycle():
    with pytest.raises(CycleWouldForm):
        add_node(empty_diagram(),
                 NodeSpec.probabilistic("Z", ("a", "b"), ("Z",),
                                        cpt=[[0.5, 0.5], [0.5, 0.5]]))


def test_add_node_rejections():
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    with pytest.raises(DuplicateName):
        add_node(d, NodeSpec.probabilistic("X", ("a", "b"), cpt=[[0.5, 0.5]]))
    with pytest.raises(UnknownParent):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), ("Q",),
                                           cpt=[[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(NormalizationViolation):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), cpt=[[0.5, 0.4]]))
    with pytest.raises(NormalizationViolation):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), cpt=[[1.2, -0.2]]))
    with pytest.raises(NormalizationViolation):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"),
                                           cpt=[[float("nan"), 0.5]]))
    with pytest.raises(TableShapeMismatch):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), ("X",),
                                           cpt=[[0.5, 0.5]]))
    with pytest.raises(TableShapeMismatch):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), cpt=[[1.0]]))
    with pytest.raises(OutcomeOutOfRange):
        add_node(d, NodeSpec.deterministic("Y", ("a", "b"), ("X",),
                                           function=[0, 5]))
    with pytest.raises(OutcomeOutOfRange, match="whole numbers"):
        NodeSpec.deterministic("Y", ("a", "b"), ("X",), function=[1.7, -0.5])
    # The int64 cast wraps a uint64 entry past its range where a Python
    # int raises; both are whole numbers too large to index an outcome. A
    # float array past int64, or infinite, raises as its list does, and
    # without numpy's warning for an undefined cast (warnings are errors).
    inf = float("inf")
    for big in ([2 ** 63], np.array([0, 2 ** 63], dtype=np.uint64),
                [1e19], np.array([1e19]), np.array([0.0, -1e19]),
                [inf], np.array([inf]), np.array([-inf], dtype=np.float32)):
        with pytest.raises(OutcomeOutOfRange, match="too large to index"):
            DetTable(big)
    # NaN is no number at all, in a list or an array.
    for nan in ([float("nan")], np.array([0.0, float("nan")])):
        with pytest.raises(TableShapeMismatch):
            DetTable(nan)
    # A complex or text entry is no real number either, in an array or a
    # list, even with a zero imaginary part: numpy's float cast would drop
    # the imaginary part (with a warning) or parse the text. Nor is None,
    # which the cast would turn into NaN. Beside an int past 64 bits or
    # None, numpy holds them in an object array.
    for unreal in ([[0.5 + 1j, 0.5]], np.array([[0.5 + 1j, 0.5]]),
                   np.array([[0.5 + 0j, 0.5]]),
                   [[np.complex128(0.5 + 1j), 0.5]],
                   [["0.5", "0.5"]], np.array([["0.5", "0.5"]]),
                   [[2 ** 64, "0.5"]], [[0.5, None]], [[None, "0.5"]],
                   [[0.5 + 0j, None]]):
        with pytest.raises(TableShapeMismatch):
            Cpt(unreal)
    for unreal in ([2 ** 64, "1"], [0, None]):
        with pytest.raises(TableShapeMismatch):
            DetTable(unreal)
    with pytest.raises(InvalidNodeSpec):
        add_node(d, NodeSpec.probabilistic("Y", ("only",), cpt=[[1.0]]))
    with pytest.raises(InvalidNodeSpec):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "a"), cpt=[[0.5, 0.5]]))
    with pytest.raises(InvalidNodeSpec):
        add_node(d, NodeSpec.probabilistic("2bad", ("a", "b"), cpt=[[0.5, 0.5]]))
    with pytest.raises(InvalidNodeSpec):
        add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), ("X", "X"),
                                           cpt=[[0.5, 0.5]] * 4))


def test_non_string_names_and_labels_are_invalid_node_specs():
    with pytest.raises(InvalidNodeSpec, match="5 is not a valid identifier"):
        add_node(empty_diagram(),
                 NodeSpec.probabilistic(5, ("a", "b"), cpt=[[.5, .5]]))
    with pytest.raises(InvalidNodeSpec, match="labels must be strings"):
        add_node(empty_diagram(),
                 NodeSpec.probabilistic("x", (1, 2), cpt=[[.5, .5]]))
    report = validate(Diagram({
        5: NodeSpec.probabilistic(5, ("a", "b"), cpt=[[.5, .5]]),
        "x": NodeSpec.probabilistic("x", (1, [2]), cpt=[[.5, .5]]),
    }))
    assert [(v.kind, v.node, v.detail) for v in report.violations] == [
        ("InvalidName", 5, "5 is not a valid identifier"),
        ("InvalidOutcomes", "x", "labels must be strings"),
    ]


def test_unhashable_names_and_parents_are_invalid_node_specs():
    with pytest.raises(InvalidNodeSpec, match="is not a valid identifier"):
        add_node(empty_diagram(),
                 NodeSpec.probabilistic(["a"], ("a", "b"), cpt=[[.5, .5]]))
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("a", ("a", "b"), cpt=[[.5, .5]]))
    with pytest.raises(InvalidNodeSpec, match="parents must be node names"):
        add_node(d, NodeSpec.probabilistic("x", ("a", "b"), ("a", ["a"]),
                                           cpt=[[.5, .5]] * 4))
    report = validate(Diagram({
        "a": d.nodes["a"],
        "x": NodeSpec.probabilistic("x", ("a", "b"), ("a", ["a"]),
                                    cpt=[[.5, .5]] * 4),
        "y": NodeSpec.probabilistic(["y"], ("a", "b"), cpt=[[.5, .5]]),
    }))
    assert [(v.kind, v.node, v.detail) for v in report.violations] == [
        ("InvalidParents", "x", "parents must be node names"),
        ("InvalidName", "y", "keyed as 'y' but named '['y']'"),
        ("InvalidName", "y", "['y'] is not a valid identifier"),
    ]


def test_row_sum_tolerance_band():
    # 1e-13 off is inside the 1e-12 band; 1e-11 off is outside.
    good = [[0.5 + 5e-14, 0.5 + 5e-14]]
    d = add_node(empty_diagram(), NodeSpec.probabilistic("X", ("a", "b"), cpt=good))
    assert validate(d).ok
    with pytest.raises(NormalizationViolation):
        add_node(empty_diagram(),
                 NodeSpec.probabilistic("X", ("a", "b"), cpt=[[0.5, 0.5 + 1e-11]]))


def test_add_node_does_not_mutate_input():
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    before = list(d.nodes.items())
    d2 = add_node(d, NodeSpec.probabilistic("Y", ("a", "b"), ("X",),
                                            cpt=[[0.8, 0.2], [0.1, 0.9]]))
    assert list(d.nodes.items()) == before
    assert d2 != d
    assert d == Diagram(dict(before))


def test_validate_reports_violations_as_data():
    # Assembled directly so several violations can coexist.
    bad = Diagram({
        "x": NodeSpec("x", ("a", "b"), PROBABILISTIC, (), Cpt(((0.5, 0.4),))),
        "y": NodeSpec("y", ("a", "b"), DETERMINISTIC, ("x",), DetTable((0, 5))),
        "z": NodeSpec("z", ("a", "b"), PROBABILISTIC, ("missing",),
                      Cpt(((0.5, 0.5), (0.5, 0.5)))),
        "w": NodeSpec("w", ("a", "b"), PROBABILISTIC, (),
                      Cpt(((float("nan"), 0.5),))),
        "u": NodeSpec("u", ("a", "b"), DETERMINISTIC, (), Cpt(((1.0, 0.0),))),
        "v": NodeSpec("v", ("a", "b"), PROBABILISTIC, (), DetTable((0,))),
    })
    report = validate(bad)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "NormalizationViolation" in kinds
    assert any(v.kind == "EntryOutOfRange" and v.node == "w"
               for v in report.violations)
    assert "OutcomeOutOfRange" in kinds
    assert "UnknownParent" in kinds
    norm = next(v for v in report.violations if v.kind == "NormalizationViolation")
    assert norm.node == "x" and norm.row == 0
    assert [(v.node, v.detail) for v in report.violations
            if v.kind == "TableShapeMismatch"] == [
        ("u", "Cpt on a non-probabilistic node"),
        ("v", "DetTable on a non-deterministic node")]
    assert str(ValidationReport()) == "ok"


def test_tables_and_diagrams_compare_by_value():
    # Equal tables hash equal, -0.0 and 0.0 included; whole entries of any
    # numeric type make the same function table.
    assert Cpt([[0.0, 1.0]]) == Cpt([[-0.0, 1.0]])
    assert hash(Cpt([[0.0, 1.0]])) == hash(Cpt([[-0.0, 1.0]]))
    narrow = DetTable(np.array([1, 0], dtype=np.int8))
    assert narrow == DetTable([1.0, 0])
    assert hash(narrow) == hash(DetTable([1, 0]))
    assert Cpt([[0.5, 0.5]]) != DetTable([0])
    with pytest.raises(TableShapeMismatch):
        Cpt([0.5, 0.5])
    assert chain_xyz().__eq__("chain") is NotImplemented
    assert chain_xyz() != "chain"


@pytest.mark.parametrize("example", ["fig9", "fig5"])
def test_trusted_spec_builds_what_the_classmethods_build(example):
    # Of the lists a model file holds, trusted_spec builds the node the
    # classmethods build, its table wrapped past their checks: the same
    # fields, and a read-only C-ordered table of the same type and dtype.
    for spec in builtin_example(example).nodes.values():
        det = spec.kind == DETERMINISTIC
        arr = spec.table.entries if det else spec.table.rows
        got = trusted_spec(spec.name, list(spec.outcomes), spec.kind,
                           list(spec.parents), arr.tolist())
        assert vars(got) == vars(spec) and hash(got) == hash(spec)
        assert type(got.table) is type(spec.table)
        got_arr = got.table.entries if det else got.table.rows
        assert got_arr.dtype == arr.dtype and got_arr.shape == arr.shape
        assert got_arr.flags.c_contiguous and not got_arr.flags.writeable


def test_validate_detects_cycles():
    looped = Diagram({
        "a": NodeSpec("a", ("0", "1"), PROBABILISTIC, ("b",),
                      Cpt(((0.5, 0.5), (0.5, 0.5)))),
        "b": NodeSpec("b", ("0", "1"), PROBABILISTIC, ("a",),
                      Cpt(((0.5, 0.5), (0.5, 0.5)))),
    })
    report = validate(looped)
    assert any(v.kind == "CycleDetected" for v in report.violations)
    # topological_order takes a diagram as the engine's entry does, so it
    # refuses the cycle with the oracle's InvalidDiagram and its report.
    with pytest.raises(InvalidDiagram,
                       match="^CycleDetected: node '-': cycle through nodes"):
        topological_order(looped)


def test_topological_order_refuses_an_unhashable_parent():
    # A diagram built directly, past add_node: frothy_urine's parent is a
    # list. It is refused with validate's report, not a raw TypeError.
    fig9 = builtin_example("fig9")
    d = Diagram({**fig9.nodes, "frothy_urine": replace(
        fig9.nodes["frothy_urine"], parents=(["urine_protein"],))})
    report = validate(d)
    assert not report.ok
    with pytest.raises(InvalidDiagram, match=f"^{re.escape(str(report))}$"):
        topological_order(d)


def test_validate_builtin_fig9_clean():
    assert validate(builtin_example("fig9")).ok


def test_topological_order_chain_and_empty():
    assert topological_order(chain_xyz()) == ["X", "Y", "Z"]
    assert topological_order(empty_diagram()) == []


def test_topological_order_ties_lexicographic():
    d = empty_diagram()
    for name in ("b_root", "a_root"):
        d = add_node(d, NodeSpec.probabilistic(name, ("0", "1"), cpt=[[0.5, 0.5]]))
    assert topological_order(d) == ["a_root", "b_root"]


def test_topological_order_fig9_disorders_first():
    order = topological_order(builtin_example("fig9"))
    disorders = {"heart_failure", "nephrotic_syndrome"}
    cut = max(order.index(n) for n in disorders)
    assert cut < min(i for i, n in enumerate(order) if n not in disorders)


def test_parents_precede_children_for_built_diagrams():
    d = builtin_example("fig9")
    order = topological_order(d)
    pos = {n: i for i, n in enumerate(order)}
    for name in d.nodes:
        assert all(pos[p] < pos[name] for p in d.parents(name))


def test_node_depths_in_any_map_order():
    # One sweep in map order, resolving unread parents depth-first: a long
    # chain listed backwards, a wide fan-in and parents missing from the
    # map must all come out right, without recursion or rescans. A
    # structure map goes in, name -> (parents, kind), and each node's key
    # (depth, name) comes out.
    P = PROBABILISTIC
    chain = {f"n{i}": ((f"n{i - 1}",) if i else (), P) for i in range(20000)}
    backwards = node_depths(dict(reversed(chain.items())))
    assert backwards == {f"n{i}": (i, f"n{i}") for i in range(20000)}
    fan = {"sink": (tuple(f"r{i}" for i in range(5000)), P),
           "ghost_child": (("zz",), P)}
    fan.update({f"r{i}": ((), P) for i in range(5000)})
    keys = node_depths(fan)
    assert keys["sink"] == (1, "sink")
    assert keys["ghost_child"] == (0, "ghost_child")
    with pytest.raises(CycleDetected, match="^cycle through nodes: a, b, c$"):
        node_depths({"c": (("b",), P), "a": (("b",), P), "b": (("a",), P),
                     "r": ((), P)})
    with pytest.raises(CycleDetected, match="^cycle through nodes: s$"):
        node_depths({"s": (("s",), P)})


def test_row_indexing_bijection_exhaustive():
    # All parent arity tuples up to 5 parents, each with 2..4 outcomes.
    for n in range(6):
        for arities in itertools.product((2, 3, 4), repeat=n):
            total = row_count(arities)
            seen = set()
            for r in range(total):
                combo = decode_row(arities, r)
                assert row_index(arities, combo) == r
                seen.add(combo)
            assert len(seen) == total


def test_last_parent_varies_fastest():
    arities = (2, 3)
    combos = [decode_row(arities, r) for r in range(row_count(arities))]
    assert combos == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_table_array_deterministic_indicators():
    d = add_node(empty_diagram(),
                 NodeSpec.probabilistic("X", ("x0", "x1"), cpt=[[0.7, 0.3]]))
    d = add_node(d, NodeSpec.deterministic("Y", ("y0", "y1"), ("X",),
                                           function=[1, 0]))
    arr = table_array(d, "Y")
    assert arr.shape == (2, 2)
    assert np.array_equal(arr, [[0.0, 1.0], [1.0, 0.0]])


@settings(derandomize=True)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2,
                max_size=6))
def test_normalized_rows_always_accepted(weights):
    total = sum(weights)
    row = [w / total for w in weights]
    labels = tuple(f"o{i}" for i in range(len(row)))
    d = add_node(empty_diagram(), NodeSpec.probabilistic("X", labels, cpt=[row]))
    assert validate(d).ok


@settings(derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_row_round_trip_random_arities(seed):
    import random as _random
    rng = _random.Random(seed)
    arities = tuple(rng.randint(2, 4) for _ in range(rng.randint(0, 5)))
    r = rng.randrange(row_count(arities))
    assert row_index(arities, decode_row(arities, r)) == r
