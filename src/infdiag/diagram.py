"""Core representation of an influence diagram over discrete chance nodes.

A diagram is an acyclic directed graph. Each node is a random variable with
a fixed, ordered list of outcome labels; arcs point from a node's parents
(conditioning variables) to the node. Probabilistic nodes carry a
conditional probability table, deterministic nodes carry a function table
mapping each parent configuration to one outcome.

A diagram's tables are read-only numpy arrays from construction to
``save``: a Cpt's ``rows`` is float64 of shape (rows, outcomes), a
DetTable's ``entries`` int64 of shape (rows,). Rows are indexed by parent
configuration, enumerated in declared parent order with the *last* parent
varying fastest, so ``table_array`` is a reshape to (*parent arities,
outcomes). The same convention is used by the file format. The transforms
compute on those grids directly and wrap each table they rewrite once,
when they hand a diagram back.

Diagrams are immutable values: every operation returns a new diagram and
never touches its input, so they are safe to share across threads.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import (
    CycleDetected,
    CycleWouldForm,
    DuplicateName,
    EvidenceOnTarget,
    InvalidNodeSpec,
    InvalidParameters,
    NormalizationViolation,
    OutcomeOutOfRange,
    TableShapeMismatch,
    UnknownNode,
    UnknownOutcome,
    UnknownParent,
)

PROBABILISTIC = "probabilistic"
DETERMINISTIC = "deterministic"

NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")

# A CPT row must sum to 1 within this tolerance. Rows are stored as given;
# we never renormalize silently.
ROW_SUM_TOL = 1e-9


def _frozen(values, dtype, ndim: int, too_big: tuple) -> np.ndarray:
    """Read-only C-ordered copy of a nested sequence as an ``ndim``-axis
    array. A ragged or non-numeric input has no such array; a number past
    the dtype's range raises ``too_big``, an (error type, message) pair."""
    try:
        arr = np.array(values, dtype=dtype, order="C")
    except OverflowError:
        raise too_big[0](too_big[1]) from None
    except (TypeError, ValueError):
        raise TableShapeMismatch(
            "table is not a rectangular array of numbers") from None
    if arr.shape == (0,):
        arr = arr.reshape((0,) * ndim)
    if arr.ndim != ndim:
        raise TableShapeMismatch(
            f"table has {arr.ndim} axes, expected {ndim}")
    arr.setflags(write=False)
    return arr


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def _digest(a: np.ndarray) -> int:
    # Adding zero folds -0.0 into 0.0, which compares equal to it.
    return hash((a.shape, (a + 0).tobytes()))


@dataclass(frozen=True, eq=False, init=False)
class Cpt:
    """Conditional probability table: one distribution row per parent config,
    held as a read-only float64 array of shape (rows, outcomes)."""

    rows: np.ndarray

    def __init__(self, rows):
        object.__setattr__(self, "rows", _frozen(
            rows, np.float64, 2,
            (NormalizationViolation, "cpt entry too large for a float")))

    def __eq__(self, other):
        return (_same(self.rows, other.rows)
                if isinstance(other, Cpt) else NotImplemented)

    def __hash__(self):
        return _digest(self.rows)


@dataclass(frozen=True, eq=False, init=False)
class DetTable:
    """Deterministic function table: one outcome index per parent config,
    held as a read-only int64 array of shape (rows,)."""

    entries: np.ndarray

    def __init__(self, entries):
        too_big = "function entry too large to index an outcome"
        if isinstance(entries, np.ndarray) and entries.dtype.kind in "fc":
            # numpy's cast of an out-of-range, infinite or NaN float is
            # undefined and warns; a list's raises, as for a Python number.
            entries = entries.tolist()
        arr = _frozen(entries, np.int64, 1, (OutcomeOutOfRange, too_big))
        given = np.asarray(entries)
        if not (given == arr).all():  # the cast changed one
            # The cast wraps an unsigned entry past int64 instead of raising.
            raise OutcomeOutOfRange(
                too_big if given.dtype.kind == "u"
                else "function entries must be whole numbers")
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other):
        return (_same(self.entries, other.entries)
                if isinstance(other, DetTable) else NotImplemented)

    def __hash__(self):
        return _digest(self.entries)


@dataclass(frozen=True)
class NodeSpec:
    """One chance node: variable name, outcomes, kind, parents and table."""

    name: str
    outcomes: tuple[str, ...]
    kind: str
    parents: tuple[str, ...]
    table: Cpt | DetTable

    @classmethod
    def probabilistic(cls, name, outcomes, parents=(), cpt=()) -> "NodeSpec":
        return cls(name, tuple(outcomes), PROBABILISTIC, tuple(parents), Cpt(cpt))

    @classmethod
    def deterministic(cls, name, outcomes, parents=(), function=()) -> "NodeSpec":
        return cls(name, tuple(outcomes), DETERMINISTIC, tuple(parents),
                   DetTable(function))

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def free_parameters(self, row_count: int) -> int:
        """Free parameters of the table; deterministic nodes contribute none."""
        if self.kind == DETERMINISTIC:
            return 0
        return row_count * (self.n_outcomes - 1)


@dataclass(eq=False)
class Diagram:
    """Ordered collection of nodes; arcs are implied by parent lists.

    The node map is the whole value: what a transform did is recorded on
    its ``TransformStep``, not on the diagram it returns.
    """

    nodes: dict[str, NodeSpec] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        # Node order is structural: the map is ordered.
        return list(self.nodes.items()) == list(other.nodes.items())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    @property
    def arcs(self) -> tuple[tuple[str, str], ...]:
        """Every (parent, child) pair, in node-map then parent-list order."""
        return tuple((p, child.name) for child in self.nodes.values()
                     for p in child.parents)

    def parents(self, name: str) -> tuple[str, ...]:
        return self.nodes[name].parents

    def children_map(self) -> dict[str, list[str]]:
        kids: dict[str, list[str]] = {name: [] for name in self.nodes}
        for child in self.nodes.values():
            for p in child.parents:
                if p in kids:
                    kids[p].append(child.name)
        return kids


def empty_diagram() -> Diagram:
    return Diagram({})


def known(diagram: Diagram, name) -> bool:
    """Whether ``name`` names a node; an unhashable one names none."""
    try:
        return name in diagram.nodes
    except TypeError:
        return False


def _check_query(diagram: Diagram, target: str, evidence) -> None:
    """Raise the typed error of a query's first bad argument, in the order
    ``posterior`` and ``oracle_posterior`` share."""
    if not known(diagram, target):
        raise UnknownNode(f"unknown target node '{target}'")
    if not isinstance(evidence, Mapping):
        raise InvalidParameters(
            f"evidence must map node names to outcome labels, not "
            f"{type(evidence).__name__}")
    for name, label in evidence.items():
        if not known(diagram, name):
            raise UnknownNode(f"unknown evidence node '{name}'")
        if label not in diagram.nodes[name].outcomes:
            raise UnknownOutcome(f"node '{name}' has no outcome '{label}'")
    if target in evidence:
        raise EvidenceOnTarget(f"'{target}' is both target and evidence")


# -- row indexing ------------------------------------------------------------
#
# Rows enumerate parent configurations with the last parent varying fastest,
# i.e. plain row-major order over the parent arities.

row_count = prod  # rows of a table over parents of these arities


def row_index(arities, config) -> int:
    r = 0
    for a, i in zip(arities, config):
        r = r * a + i
    return r


def decode_row(arities, r: int) -> tuple[int, ...]:
    out = []
    for a in reversed(arities):
        out.append(r % a)
        r //= a
    return tuple(reversed(out))


def parent_arities(diagram: Diagram, spec: NodeSpec) -> tuple[int, ...]:
    return tuple(diagram.nodes[p].n_outcomes for p in spec.parents)


def _grid(diagram: Diagram, spec: NodeSpec) -> np.ndarray:
    """The stored table with one axis per parent (and, for a Cpt, a last
    axis over the node's outcomes)."""
    arities = parent_arities(diagram, spec)
    if isinstance(spec.table, Cpt):
        return spec.table.rows.reshape(arities + (spec.n_outcomes,))
    return spec.table.entries.reshape(arities)


def table_array(diagram: Diagram, name: str) -> np.ndarray:
    """Node's table as an ndarray of shape (*parent arities, n_outcomes).

    Deterministic tables come back as 0/1 indicator rows, so the array form
    is a CPT either way. A Cpt comes back as a read-only view.
    """
    spec = diagram.nodes[name]
    if isinstance(spec.table, Cpt):
        return _grid(diagram, spec)
    return np.eye(spec.n_outcomes)[_grid(diagram, spec)]


# -- structure queries --------------------------------------------------------

def has_path(diagram: Diagram, src: str, dst: str,
             skip_arc: tuple[str, str] | None = None) -> bool:
    """True if a directed path src -> ... -> dst exists, optionally ignoring
    one specific arc."""
    kids = diagram.children_map()
    stack = [src]
    seen = set()
    while stack:
        n = stack.pop()
        for c in kids.get(n, ()):
            if skip_arc is not None and (n, c) == skip_arc:
                continue
            if c == dst:
                return True
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def node_depths(parents: dict) -> dict[str, int]:
    """Longest-path depth from the roots of the graph ``parents`` maps out
    (name -> parent names), ignoring parents missing from the map. One
    sweep in map order, working out a parent not yet reached depth-first:
    linear, and one pass over a map already in topological order. Raises
    CycleDetected naming every node on or below a cycle."""
    depth: dict[str, int] = {}
    bad: set[str] = set()  # on or below a cycle
    waiting: list[tuple] = []  # (node, its parents left, its depth so far)
    path: set[str] = set()  # the nodes waiting
    for name, ps in parents.items():
        if name in depth or name in bad:
            continue
        n, unread, d = name, iter(ps), 0
        while True:
            for p in unread:
                if p in depth:
                    if depth[p] >= d:
                        d = depth[p] + 1
                elif p in parents:
                    break
            else:
                depth[n] = d
                if not waiting:
                    break
                up = d + 1
                n, unread, d = waiting.pop()
                path.discard(n)
                d = max(d, up)
                continue
            if p in bad or p == n or p in path:  # so n and the path are bad
                bad.add(n)
                bad.update(path)
                path.clear()
                waiting.clear()
                break
            path.add(n)
            waiting.append((n, unread, d))
            n, unread, d = p, iter(parents[p]), 0
    if bad:
        raise CycleDetected("cycle through nodes: " + ", ".join(sorted(bad)))
    return depth


def topological_order(diagram: Diagram) -> list[str]:
    """Deterministic topological order: by depth, ties broken by name.

    Every node appears after all of its parents; nodes at equal depth come
    out lexicographically. Any subset of the nodes sorts the same way by
    the key (depth, name).
    """
    depths = node_depths({n: s.parents for n, s in diagram.nodes.items()})
    return sorted(diagram.nodes, key=lambda n: (depths[n], n))


def reordered(diagram: Diagram) -> Diagram:
    """Same diagram with the node map in canonical topological order."""
    order = topological_order(diagram)
    return Diagram({n: diagram.nodes[n] for n in order})


# -- node invariants -----------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    node: str
    detail: str
    row: int | None = None

    def __str__(self) -> str:
        where = f" row {self.row}" if self.row is not None else ""
        return f"{self.kind}: node '{self.node}'{where}: {self.detail}"


# Which exception class a violation surfaces as from add_node and load().
_VIOLATION_ERRORS = {
    "InvalidName": InvalidNodeSpec,
    "InvalidOutcomes": InvalidNodeSpec,
    "InvalidParents": InvalidNodeSpec,
    "UnknownParent": UnknownParent,
    "TableShapeMismatch": TableShapeMismatch,
    "EntryOutOfRange": NormalizationViolation,
    "NormalizationViolation": NormalizationViolation,
    "OutcomeOutOfRange": OutcomeOutOfRange,
    "CycleDetected": CycleDetected,
}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_first(self) -> None:
        """Raise the first violation as its engine error type, if any; the
        message counts the others."""
        if self.ok:
            return
        first = self.violations[0]
        more = ("" if len(self.violations) == 1
                else f" (+{len(self.violations) - 1} more violations)")
        raise _VIOLATION_ERRORS[first.kind](f"{first}{more}")

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _node_violations(name: str, spec: NodeSpec, table: list,
                     arity: dict[str, int]) -> list[Violation]:
    """Every invariant the node keyed ``name`` breaks, cycles aside.
    ``table`` holds the table's numbers as ``.tolist()`` gives them, so a
    model file's parsed lists serve directly; it is read in one loop over
    the rows. ``arity`` maps each node of the diagram to its outcome count.
    """
    out: list[Violation] = []

    def bad(kind, detail, row=None):
        out.append(Violation(kind, name, detail, row))

    if name != spec.name:
        bad("InvalidName", f"keyed as '{name}' but named '{spec.name}'")
    if not (isinstance(spec.name, str) and NAME_PATTERN.match(spec.name)):
        bad("InvalidName", f"{spec.name!r} is not a valid identifier")
    labels = spec.outcomes
    m = len(labels)
    if m < 2:
        bad("InvalidOutcomes", "fewer than 2 outcomes")
    if not all(isinstance(o, str) for o in labels):
        bad("InvalidOutcomes", "labels must be strings")
    elif len(set(labels)) != m or "" in labels:
        bad("InvalidOutcomes", "labels must be unique and non-empty")
    parents = spec.parents
    try:
        distinct = set(parents)
    except TypeError:
        bad("InvalidParents", "parents must be node names")
        return out  # no parent arities to shape the table by
    if len(distinct) != len(parents) or name in parents:
        bad("InvalidParents", "parents must be distinct, excluding self")
    if not distinct <= arity.keys():
        for p in parents:
            if p not in arity:
                bad("UnknownParent", f"unknown parent '{p}'")
        return out  # table shape is undefined without parent arities

    want_rows = prod(map(arity.__getitem__, parents))
    if isinstance(spec.table, Cpt):
        if spec.kind != PROBABILISTIC:
            bad("TableShapeMismatch", "Cpt on a non-probabilistic node")
        n_rows, width = spec.table.rows.shape
        if n_rows != want_rows:
            bad("TableShapeMismatch", f"{n_rows} rows, expected {want_rows}")
            return out
        if width != m:
            bad("TableShapeMismatch",
                f"{width} entries per row, expected {m}")
            return out
        for r, row in enumerate(table):
            s = sum(row)
            # The sum is NaN only if an entry is NaN or infinite; without a
            # NaN entry, min and max bound the row.
            if row and not (s == s and 0.0 <= min(row) and max(row) <= 1.0):
                bad("EntryOutOfRange", "probability outside [0, 1]", r)
            if abs(s - 1.0) > ROW_SUM_TOL:
                bad("NormalizationViolation", f"row sums to {s!r}", r)
    else:
        if spec.kind != DETERMINISTIC:
            bad("TableShapeMismatch", "DetTable on a non-deterministic node")
        if len(table) != want_rows:
            bad("TableShapeMismatch",
                f"{len(table)} entries, expected {want_rows}")
            return out
        for r, e in enumerate(table):
            if not 0 <= e < m:
                bad("OutcomeOutOfRange",
                    f"entry {e} not an outcome index (< {m})", r)
    return out


def _table_lists(spec: NodeSpec) -> list:
    table = spec.table
    return (table.rows if isinstance(table, Cpt) else table.entries).tolist()


def check_tables(diagram: Diagram, tables) -> ValidationReport:
    """``validate``, given each node's table as lists, in node order."""
    arity = {n: len(s.outcomes) for n, s in diagram.nodes.items()}
    out: list[Violation] = []
    for (name, spec), table in zip(diagram.nodes.items(), tables):
        out += _node_violations(name, spec, table, arity)
    try:
        node_depths({n: s.parents for n, s in diagram.nodes.items()})
    except CycleDetected as err:
        out.append(Violation("CycleDetected", "-", str(err)))
    except TypeError:
        pass  # an unhashable parent, an InvalidParents above: no graph
    return ValidationReport(tuple(out))


def validate(diagram: Diagram) -> ValidationReport:
    """Check every structural invariant; violations are data, not errors."""
    return check_tables(diagram, map(_table_lists, diagram.nodes.values()))


# -- construction --------------------------------------------------------------

def add_node(diagram: Diagram, spec: NodeSpec) -> Diagram:
    """Return a new diagram with ``spec`` appended; the input is unchanged.

    Parents must already exist, so insertion order is always a topological
    order. Raises DuplicateName or CycleWouldForm, else the first violation
    ``validate`` would report for the node: UnknownParent,
    TableShapeMismatch, NormalizationViolation, InvalidNodeSpec or
    OutcomeOutOfRange.
    """
    if known(diagram, spec.name):
        raise DuplicateName(f"node '{spec.name}' already present")
    if spec.name in spec.parents:
        raise CycleWouldForm(f"node '{spec.name}' lists itself as a parent")
    arity = {p: len(diagram.nodes[p].outcomes) for p in spec.parents
             if known(diagram, p)}
    ValidationReport(tuple(_node_violations(
        spec.name, spec, _table_lists(spec), arity))).raise_first()
    nodes = dict(diagram.nodes)
    nodes[spec.name] = spec
    return Diagram(nodes)
