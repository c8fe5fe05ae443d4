"""Model persistence, DOT rendering, built-in examples, random generation.

The file format is strict JSON, one schema, version 1:

    {"version": 1,
     "nodes": [{"name": ..., "outcomes": [...],
                "kind": "probabilistic" | "deterministic",
                "parents": [...],
                "cpt": [[...], ...]      # probabilistic nodes
                "function": [...]         # deterministic nodes
               }, ...]}

Rows follow the package-wide convention (last declared parent varies
fastest). Unknown fields are rejected. Numbers are written with Python's
shortest round-trip float representation, so save -> load reproduces every
table bit for bit. ``save`` writes, byte for byte, the text json's encoder
writes at indent 2, but directly, and refuses what ``load`` and the
engine's entry, ``diagram._accepted``, refuse: a NaN or an infinity,
which strict JSON cannot write, is a probability outside [0, 1] there.

``load`` builds each node once and checks the lists ``json.loads`` built
with ``validate``'s own checker, which reads a valid document's cpt rows
once, all together; only a document with a bad row has them read again,
row by row, for the messages. A table an array holds exactly is wrapped
past the table constructors' checks, which that checker repeats. The
diagram ``load`` hands back carries that check's record, which the
engine's entry reuses, so its queries, transforms and ``save`` do not
check it again; a node map changed after ``load`` is checked in full.

The built-in examples are small canonical structures (single cause with
two effects, two causes with a common effect, a two-disorder medical
model, ...). Their probability values are fixed constants chosen for the
artifact: they avoid zero rows and make the medical model exhibit
explaining-away. The modular-system example uses three subsystems.
"""

from __future__ import annotations

import json
import random
from itertools import chain
from numbers import Integral, Real

import numpy as np

from .diagram import (
    DETERMINISTIC,
    Diagram,
    NodeSpec,
    ValidationReport,
    _accepted,
    check_tables,
    row_count,
    trusted_spec,
)
from .errors import (
    EngineError,
    InvalidParameters,
    ParseError,
    SchemaError,
    TooLarge,
    UnknownExample,
)
from .transform import MAX_REVERSAL_CELLS

FORMAT_VERSION = 1

_NODE_REQUIRED = {"name", "outcomes", "kind", "parents"}
_NODE_FIELDS = _NODE_REQUIRED | {"cpt", "function"}
_STR, _INT, _LIST, _FLOAT, _NUMBER = {str}, {int}, {list}, {float}, {int, float}


def save(diagram: Diagram) -> str:
    """Serialize to the JSON model format: the text json's encoder writes
    at indent 2, plus a final newline.

    Enters through the engine's entry, ``diagram._accepted``, so it
    refuses what every query and ``load`` refuse, with the oracle's
    InvalidDiagram: a NaN or an infinity in a cpt, which strict JSON
    cannot express, is an EntryOutOfRange naming its node.
    """
    _accepted(diagram)
    nodes = _array([_node_text(spec) for spec in diagram.nodes.values()], "  ")
    return f'{{\n  "version": {FORMAT_VERSION},\n  "nodes": {nodes}\n}}\n'


# json's own string encoder, so escaping and ensure_ascii are json.dumps'.
_quote = json.JSONEncoder().encode


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already-encoded items, laid out as json.dumps with
    indent=2 lays out an array whose line starts at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _table_text(table: np.ndarray, indent: str) -> str:
    """The table's ``.tolist()`` as json.dumps with indent=2 writes it: an
    array layout with one ``%r`` per value, filled in by one ``%``. For a
    finite float json writes float.__repr__, and for an int int.__repr__,
    which is what ``%r`` writes."""
    layout = "%r"
    for axis in reversed(range(table.ndim)):
        layout = _array([layout] * table.shape[axis], indent + "  " * axis)
    return layout % tuple(table.ravel().tolist())


def _node_text(spec: NodeSpec) -> str:
    if spec.kind == DETERMINISTIC:
        field, table = '"function"', spec.table.entries
    else:
        field, table = '"cpt"', spec.table.rows
    return (
        '{\n      "name": ' + _quote(spec.name)
        + ',\n      "outcomes": '
        + _array(list(map(_quote, spec.outcomes)), "      ")
        + ',\n      "kind": ' + _quote(spec.kind)
        + ',\n      "parents": '
        + _array(list(map(_quote, spec.parents)), "      ")
        + ",\n      " + field + ": " + _table_text(table, "      ") + "\n    }")


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def parse_document(text: str) -> tuple[Diagram, ValidationReport]:
    """Parse a model document into a diagram and its full report.

    The JSON structure and field types are enforced node by node, and a
    table no array can hold (ragged rows, a number past the float or int64
    range) raises its table error at once, so a SchemaError on any node
    wins over every semantic violation. ``json.loads`` builds values of
    exact types only, so the checks compare exact types (which also keeps
    out ``bool``). A table an array holds exactly builds its node
    unchecked, any other goes through the constructors; the report is
    ``check_tables``' on the parsed lists, which equals ``validate``'s.
    A diagram whose report is clean carries that check's record, so its
    queries, transforms and ``save`` neither check it again nor make a
    depth pass; a node map changed since is checked in full.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from None
    except (RecursionError, ValueError, TypeError) as err:
        # too deep; too many digits; not text at all
        raise ParseError(f"unreadable JSON: {err}") from None

    _expect(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - {"version", "nodes"}
    _expect(not unknown, f"unknown top-level fields: {sorted(unknown)}")
    _expect("version" in doc, "missing field 'version'")
    _expect(type(doc["version"]) is int and doc["version"] == FORMAT_VERSION,
            f"unsupported version {doc['version']!r}")  # not True, not 1.0
    _expect(isinstance(doc.get("nodes"), list), "'nodes' must be a list")

    nodes: dict[str, NodeSpec] = {}
    tables: list[list] = []
    for i, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict):
            raise SchemaError(f"nodes[{i}] must be an object")
        if not raw.keys() >= _NODE_REQUIRED:
            missing = sorted(_NODE_REQUIRED - raw.keys())
            raise SchemaError(f"nodes[{i}]: missing fields {missing}")
        if not raw.keys() <= _NODE_FIELDS:
            extra = sorted(raw.keys() - _NODE_FIELDS)
            raise SchemaError(f"nodes[{i}]: unknown fields {extra}")

        name = raw["name"]
        if type(name) is not str:
            raise SchemaError(f"nodes[{i}]: 'name' must be a string")
        if name in nodes:
            raise SchemaError(f"nodes[{i}]: duplicate node name '{name}'")
        outcomes = raw["outcomes"]
        if type(outcomes) is not list or not _STR.issuperset(
                map(type, outcomes)):
            raise SchemaError(
                f"nodes[{i}]: 'outcomes' must be a list of strings")
        kind = raw["kind"]
        if kind not in ("probabilistic", "deterministic"):
            raise SchemaError(f"nodes[{i}]: 'kind' must be probabilistic "
                              "or deterministic")
        parents = raw["parents"]
        if type(parents) is not list or not _STR.issuperset(
                map(type, parents)):
            raise SchemaError(
                f"nodes[{i}]: 'parents' must be a list of strings")

        field, other = (("function", "cpt") if kind == "deterministic"
                        else ("cpt", "function"))
        if field not in raw:
            raise SchemaError(f"nodes[{i}]: missing field '{field}'")
        if other in raw:
            raise SchemaError(
                f"nodes[{i}]: {kind} node must not carry '{other}'")
        table = raw[field]
        if field == "function":
            if type(table) is not list or not _INT.issuperset(
                    map(type, table)):
                raise SchemaError(
                    f"nodes[{i}]: 'function' must be a list of integers")
            exact = not table or -2**63 <= min(table) and max(table) < 2**63
        else:
            types = {None}  # unless the table is a list of lists
            if type(table) is list and _LIST.issuperset(map(type, table)):
                types = set(map(type, chain.from_iterable(table)))
            if not types <= _NUMBER:
                raise SchemaError(
                    f"nodes[{i}]: 'cpt' must be a list of numeric rows")
            exact = types == _FLOAT and len({*map(len, table)}) == 1
        if exact:  # an array of the kind's dtype holds the table as it is
            spec = trusted_spec(name, outcomes, kind, parents, table)
        else:
            try:
                spec = (NodeSpec.deterministic if field == "function" else
                        NodeSpec.probabilistic)(name, outcomes, parents, table)
            except EngineError as err:  # a table no array can hold
                raise type(err)(f"nodes[{i}] '{name}': {err}") from None
            table = spec.table.rows.tolist()  # a cpt's, read as floats
        nodes[name] = spec
        tables.append(table)

    diagram = Diagram(nodes)
    return diagram, check_tables(diagram, tables)


def load(text: str) -> Diagram:
    """Parse and validate a model document.

    Raises ParseError or SchemaError for malformed documents and a table
    error for a table no array can hold, each as soon as it is found;
    other problems raise the first violation of ``parse_document``'s full
    report, as the error type add_node would have used, with the count of
    the others. The diagram carries its checked structure, as
    ``parse_document`` says.
    """
    diagram, report = parse_document(text)
    report.raise_first()
    return diagram


# -- DOT ------------------------------------------------------------------------

def export_dot(diagram: Diagram) -> str:
    """Render as a Graphviz digraph: single ovals for probabilistic nodes,
    double ovals (peripheries=2) for deterministic ones. It enters through
    the engine's entry, as ``save`` does, so it draws no invalid diagram."""
    _accepted(diagram)
    lines = ["digraph influence_diagram {"]
    for spec in diagram.nodes.values():
        if spec.kind == DETERMINISTIC:
            lines.append(f'  "{spec.name}" [shape=ellipse, peripheries=2];')
        else:
            lines.append(f'  "{spec.name}" [shape=ellipse];')
    for spec in diagram.nodes.values():
        for p in spec.parents:
            lines.append(f'  "{p}" -> "{spec.name}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- built-in examples ------------------------------------------------------------

def _build(specs) -> Diagram:
    """The diagram of ``specs`` in their order, left unchecked: the
    library's own models are valid by construction."""
    return Diagram({s.name: s for s in specs})


def _fig5() -> Diagram:
    # A probabilistic error source driving a deterministic program output:
    # both garbling errors produce the same output, so the function is
    # non-injective and diagnosis stays uncertain.
    return _build([
        NodeSpec.probabilistic(
            "program_error", ("none", "off_by_one", "bad_loop"),
            cpt=[[0.9, 0.06, 0.04]]),
        NodeSpec.deterministic(
            "output", ("correct", "garbled"), ("program_error",),
            function=[0, 1, 1]),
    ])


def _fig6() -> Diagram:
    # Three independent subsystems feeding one deterministic output
    # (correct only when every subsystem is ok).
    return _build([
        NodeSpec.probabilistic("subsystem_a", ("ok", "faulty"),
                               cpt=[[0.95, 0.05]]),
        NodeSpec.probabilistic("subsystem_b", ("ok", "faulty"),
                               cpt=[[0.9, 0.1]]),
        NodeSpec.probabilistic("subsystem_c", ("ok", "faulty"),
                               cpt=[[0.85, 0.15]]),
        NodeSpec.deterministic(
            "output", ("correct", "faulty"),
            ("subsystem_a", "subsystem_b", "subsystem_c"),
            function=[0, 1, 1, 1, 1, 1, 1, 1]),
    ])


def _fig7() -> Diagram:
    # One cause, two conditionally independent effects (a fork).
    return _build([
        NodeSpec.probabilistic("cause", ("absent", "present"),
                               cpt=[[0.8, 0.2]]),
        NodeSpec.probabilistic("effect_a", ("absent", "present"), ("cause",),
                               cpt=[[0.9, 0.1], [0.25, 0.75]]),
        NodeSpec.probabilistic("effect_b", ("absent", "present"), ("cause",),
                               cpt=[[0.85, 0.15], [0.3, 0.7]]),
    ])


def _fig8() -> Diagram:
    # Two independent causes, one common effect (a collider).
    return _build([
        NodeSpec.probabilistic("cause_a", ("absent", "present"),
                               cpt=[[0.9, 0.1]]),
        NodeSpec.probabilistic("cause_b", ("absent", "present"),
                               cpt=[[0.9, 0.1]]),
        NodeSpec.probabilistic(
            "effect", ("absent", "present"), ("cause_a", "cause_b"),
            cpt=[[0.95, 0.05], [0.2, 0.8], [0.2, 0.8], [0.05, 0.95]]),
    ])


def _fig9() -> Diagram:
    # Two independently arising disorders with overlapping findings:
    # heart failure enlarges the heart (seen on x-ray) and causes pitting
    # edema; nephrotic syndrome causes pitting edema and urine protein
    # (seen as frothy urine).
    return _build([
        NodeSpec.probabilistic("heart_failure", ("absent", "present"),
                               cpt=[[0.9, 0.1]]),
        NodeSpec.probabilistic("nephrotic_syndrome", ("absent", "present"),
                               cpt=[[0.95, 0.05]]),
        NodeSpec.probabilistic("cardiomegaly", ("absent", "present"),
                               ("heart_failure",),
                               cpt=[[0.9, 0.1], [0.15, 0.85]]),
        NodeSpec.probabilistic(
            "pitting_edema", ("absent", "present"),
            ("heart_failure", "nephrotic_syndrome"),
            cpt=[[0.92, 0.08], [0.25, 0.75], [0.3, 0.7], [0.05, 0.95]]),
        NodeSpec.probabilistic("urine_protein", ("absent", "present"),
                               ("nephrotic_syndrome",),
                               cpt=[[0.85, 0.15], [0.1, 0.9]]),
        NodeSpec.probabilistic("xray", ("normal", "abnormal"),
                               ("cardiomegaly",),
                               cpt=[[0.93, 0.07], [0.1, 0.9]]),
        NodeSpec.probabilistic("frothy_urine", ("no", "yes"),
                               ("urine_protein",),
                               cpt=[[0.88, 0.12], [0.15, 0.85]]),
    ])


# The symptom likelihood is shared between the two variants; only the
# population-specific disorder prior differs.
_SHARED_LIKELIHOOD = [[0.9, 0.1], [0.2, 0.8]]


def _fig10(prior) -> Diagram:
    return _build([
        NodeSpec.probabilistic("disorder", ("absent", "present"), cpt=[prior]),
        NodeSpec.probabilistic("symptom", ("absent", "present"), ("disorder",),
                               cpt=_SHARED_LIKELIHOOD),
    ])


_BUILTINS = {
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10a": lambda: _fig10([0.8, 0.2]),
    "fig10b": lambda: _fig10([0.97, 0.03]),
}


def builtin_example(name: str) -> Diagram:
    """One of the built-in example diagrams; see the module docstring."""
    try:
        factory = _BUILTINS[name]
    except (KeyError, TypeError):  # a TypeError: an unhashable name
        raise UnknownExample(
            f"unknown example '{name}' (have: {', '.join(sorted(_BUILTINS))})"
        ) from None
    return factory()


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


# -- random models ------------------------------------------------------------------

# Each node draws one number per earlier node, whatever the arc density, so
# a model of n nodes makes about n**2 / 2 draws: 0.42 s at 4,000 nodes and
# 1.6 s at 8,000 on a shared 2-vCPU VM, where 10**6 would take hours.
MAX_RANDOM_NODES = 4096


def gen_random(node_count: int, max_outcomes: int, arc_density: float,
               det_fraction: float, seed: int) -> Diagram:
    """Seeded random diagram for property tests; identical inputs give an
    identical diagram.

    Nodes are named v0..vN in generation order and arcs only ever point
    from earlier to later nodes. Roots are always probabilistic (a
    deterministic root is a constant); CPT entries are bounded away from
    zero so random queries rarely hit zero-probability evidence. Raises
    TooLarge, before drawing it, for a table past MAX_REVERSAL_CELLS, and
    before any draw for more than MAX_RANDOM_NODES nodes. A seed of None,
    which would seed from the OS, raises InvalidParameters.

    The nodes are built in one map, without ``add_node``'s checks: each
    row is normalized by its own sum and each function entry is an outcome
    index, so every table is valid by construction.
    """
    if not isinstance(node_count, Integral) or node_count < 1:
        raise InvalidParameters("node_count must be an integer >= 1")
    if not isinstance(max_outcomes, Integral) or max_outcomes < 2:
        raise InvalidParameters("max_outcomes must be an integer >= 2")
    if not (isinstance(arc_density, Real) and 0.0 <= arc_density <= 1.0):
        raise InvalidParameters("arc_density must be a number in [0, 1]")
    if not (isinstance(det_fraction, Real) and 0.0 <= det_fraction <= 1.0):
        raise InvalidParameters("det_fraction must be a number in [0, 1]")
    if node_count > MAX_RANDOM_NODES:
        raise TooLarge(f"{node_count} nodes exceed the {MAX_RANDOM_NODES}-node "
                       "cap on random models")

    if seed is None:  # random.Random(None) seeds from the OS
        raise InvalidParameters("seed must be an integer, not NoneType")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise InvalidParameters(f"seed must be an integer, not "
                                f"{type(seed).__name__}") from None
    specs: list[NodeSpec] = []
    for i in range(node_count):
        name = f"v{i}"
        k = rng.randint(2, max_outcomes)
        parents = [f"v{j}" for j in range(i) if rng.random() < arc_density]
        rows = row_count(specs[int(p[1:])].n_outcomes for p in parents)
        if rows * k > MAX_REVERSAL_CELLS:
            raise TooLarge(f"node '{name}' would hold {rows * k} table "
                           f"cells, over the {MAX_REVERSAL_CELLS} cap")
        if parents and rng.random() < det_fraction:
            spec = NodeSpec.deterministic(
                name, _labels(k), parents,
                function=[rng.randrange(k) for _ in range(rows)])
        else:
            cpt = []
            for _ in range(rows):
                weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
                total = sum(weights)
                cpt.append([w / total for w in weights])
            spec = NodeSpec.probabilistic(name, _labels(k), parents, cpt)
        specs.append(spec)
    return _build(specs)


def _labels(k: int) -> tuple[str, ...]:
    return tuple(f"o{i}" for i in range(k))
