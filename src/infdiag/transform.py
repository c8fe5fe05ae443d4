"""Joint-preserving diagram transforms.

The central operation is arc reversal: flipping one arc x -> y while both
endpoints inherit each other's predecessors, so the represented joint is
untouched. The new tables are

    P'(y | c)    = sum_x P(y | x, c) * P(x | c)
    P'(x | y, c) = P(y | x, c) * P(x | c) / P'(y | c)

with c ranging over the union of the two former parent sets. When the
predecessor x is deterministic the reversal collapses to direct
substitution of x's function into y's table: no summation, no new arc into
x, and x keeps its kind. A deterministic *successor* gets no such shortcut;
its function table is treated as a 0/1 CPT and both nodes come out
probabilistic.

Built on reversal: summing a node out of the model, deleting barren
(childless) nodes, conditioning a node to an observed outcome, and
refactoring a whole diagram to a requested variable ordering. Inherited
arcs are never pruned automatically, even when they turn out to carry no
information; ``prune_constant_parents`` is available as an explicit,
separate pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagram import (
    Cpt,
    DETERMINISTIC,
    DetTable,
    Diagram,
    NodeSpec,
    PROBABILISTIC,
    _topo_pos,
    has_path,
    parent_arities,
    reordered,
    row_count,
    table_array,
)
from .errors import (
    CycleWouldForm,
    HasSuccessors,
    NoSuchArc,
    NotAPermutation,
    UnknownNode,
    UnknownOutcome,
    ZeroProbabilityEvidence,
)
from .oracle import _align

REVERSE = "reverse"
SUM_OUT = "sum_out"
REMOVE_BARREN = "remove_barren"
CONDITION = "condition"


@dataclass(frozen=True)
class TransformStep:
    """One recorded transform action, with the arc cost it incurred.

    ``added_arcs`` counts arcs present after the step that were absent
    before it; ``parameters_touched`` sums the free parameters of every
    table the step rewrote.
    """

    kind: str
    node: str
    other: str | None = None
    outcome: str | None = None
    added_arcs: int = 0
    parameters_touched: int = 0

    def encode(self) -> str:
        if self.kind == REVERSE:
            return f"reverse:{self.node}->{self.other}"
        if self.kind == CONDITION:
            return f"condition:{self.node}={self.outcome}"
        return f"{self.kind}:{self.node}"


def _require(diagram: Diagram, name: str) -> NodeSpec:
    try:
        return diagram.nodes[name]
    except KeyError:
        raise UnknownNode(f"unknown node '{name}'") from None


def _prob_rows(arr: np.ndarray) -> Cpt:
    """Build a Cpt from freshly computed probabilities.

    Summing float products can land an entry an ulp outside [0, 1] (for
    example a deterministic successor makes the new marginal an exact sum
    of a cpt row, and those rows only sum to 1 within rounding). Snap the
    entries back so the strict range check downstream never trips on
    rounding noise; row sums are unaffected at the 1e-9 tolerance.
    """
    return Cpt(np.clip(arr, 0.0, 1.0).reshape(-1, arr.shape[-1]))


def _reversal_grid(diagram: Diagram, x: str, y: str):
    """Shared setup for both reversal paths.

    Returns (union, T) where union is the merged parent list (ordered by
    the current topological order) and T is the product table
    P(x | c) * P(y | x, c) over axes (*union, x, y). Deterministic tables
    enter as exact 0/1 indicators.
    """
    sx, sy = diagram.nodes[x], diagram.nodes[y]
    pos = _topo_pos(diagram)
    c_x = list(sx.parents)
    c_y = [p for p in sy.parents if p != x]
    union = sorted(set(c_x) | set(c_y), key=pos.__getitem__)
    counts = {n: diagram.nodes[n].n_outcomes for n in union + [x, y]}
    target = union + [x, y]
    a = _align(table_array(diagram, x), c_x + [x], target, counts)
    b = _align(table_array(diagram, y), list(sy.parents) + [y], target, counts)
    return union, a * b


def _reverse_generic(diagram: Diagram, x: str, y: str) -> Diagram:
    sx, sy = diagram.nodes[x], diagram.nodes[y]
    mx = sx.n_outcomes
    union, t = _reversal_grid(diagram, x, y)
    marg = t.sum(axis=-2)                    # (*union, y): new P(y | c)
    txy = np.moveaxis(t, -2, -1)             # (*union, y, x)
    denom = marg[..., np.newaxis]
    safe = np.where(denom == 0.0, 1.0, denom)
    post = np.where(denom == 0.0, 1.0 / mx, txy / safe)

    notes = []
    zero_rows = np.flatnonzero(marg.reshape(-1) == 0.0)
    for r in zero_rows:
        notes.append(
            f"reverse {x}->{y}: row {r} of P({x}|{y},...) is an unreachable "
            f"zero-probability context; filled with the uniform distribution")

    new_y = NodeSpec(y, sy.outcomes, PROBABILISTIC, tuple(union),
                     _prob_rows(marg))
    new_x = NodeSpec(x, sx.outcomes, PROBABILISTIC, tuple(union) + (y,),
                     _prob_rows(post))
    nodes = dict(diagram.nodes)
    nodes[x] = new_x
    nodes[y] = new_y
    return reordered(Diagram(nodes, diagram.notes + tuple(notes)))


def _reverse_det_predecessor(diagram: Diagram, x: str, y: str) -> Diagram:
    # Substitution shortcut: summing y's table against x's 0/1 indicator
    # just picks the row at x = f(c), exactly. x is untouched and no arc
    # y -> x appears, because y carries no information about x beyond c.
    sy = diagram.nodes[y]
    union, t = _reversal_grid(diagram, x, y)
    marg = t.sum(axis=-2)
    if sy.kind == DETERMINISTIC:
        table: Cpt | DetTable = DetTable(
            marg.reshape(-1, sy.n_outcomes).argmax(axis=1))
    else:
        table = _prob_rows(marg)
    nodes = dict(diagram.nodes)
    nodes[y] = NodeSpec(y, sy.outcomes, sy.kind, tuple(union), table)
    return reordered(Diagram(nodes, diagram.notes))


def reverse_arc(diagram: Diagram, x: str, y: str) -> Diagram:
    """Reverse the arc x -> y; the represented joint is preserved exactly.

    Requires that no other directed path x -> ... -> y exists (the flipped
    arc would close a cycle). All inherited arcs are kept, needed or not.
    """
    sx = _require(diagram, x)
    sy = _require(diagram, y)
    if x not in sy.parents:
        raise NoSuchArc(f"no arc {x} -> {y}")
    if has_path(diagram, x, y, skip_arc=(x, y)):
        raise CycleWouldForm(
            f"another path {x} -> ... -> {y} exists; reversal would cycle")
    if sx.kind == DETERMINISTIC:
        return _reverse_det_predecessor(diagram, x, y)
    return _reverse_generic(diagram, x, y)


def promote_deterministic(diagram: Diagram, name: str) -> Diagram:
    """Rewrite a deterministic node as a probabilistic one with 0/1 rows.

    No-op on probabilistic nodes. Useful for comparing the deterministic
    reversal shortcut against the generic path.
    """
    spec = _require(diagram, name)
    if spec.kind != DETERMINISTIC:
        return diagram
    rows = table_array(diagram, name).reshape(-1, spec.n_outcomes)
    nodes = dict(diagram.nodes)
    nodes[name] = NodeSpec(name, spec.outcomes, PROBABILISTIC, spec.parents,
                           Cpt(rows))
    return Diagram(nodes, diagram.notes)


def remove_barren(diagram: Diagram, name: str) -> Diagram:
    """Delete a childless node; the joint over the rest is unchanged."""
    _require(diagram, name)
    kids = diagram.children(name)
    if kids:
        raise HasSuccessors(
            f"node '{name}' still has children: {', '.join(kids)}")
    nodes = {k: v for k, v in diagram.nodes.items() if k != name}
    return Diagram(nodes, diagram.notes)


def sum_out(diagram: Diagram, name: str) -> Diagram:
    """Marginalize a node out of the model.

    Reverses the arcs from the node to each of its children (always the
    child earliest in the current topological order, which is the one the
    no-other-path precondition is guaranteed to hold for) and then removes
    the node, by then barren.
    """
    _require(diagram, name)
    while True:
        kids = diagram.children(name)
        if not kids:
            break
        pos = _topo_pos(diagram)
        child = min(kids, key=pos.__getitem__)
        diagram = reverse_arc(diagram, name, child)
    return remove_barren(diagram, name)


def condition(diagram: Diagram, name: str, outcome: str) -> Diagram:
    """Fix a node to an observed outcome and drop it from the diagram.

    Incoming arcs are reversed until the node is parentless, taking the
    parent *latest* in the current topological order first (the earliest
    parent may still reach the node through another parent, which would
    break the reversal precondition). The node's marginal row then prices
    the evidence; every child table is sliced at the observed outcome.
    """
    spec = _require(diagram, name)
    if outcome not in spec.outcomes:
        raise UnknownOutcome(f"node '{name}' has no outcome '{outcome}'")
    while diagram.nodes[name].parents:
        pos = _topo_pos(diagram)
        parent = max(diagram.nodes[name].parents, key=pos.__getitem__)
        diagram = reverse_arc(diagram, parent, name)

    oi = spec.outcomes.index(outcome)
    if table_array(diagram, name)[oi] == 0.0:
        raise ZeroProbabilityEvidence(
            f"P({name} = {outcome}) is zero; cannot condition on it")

    nodes = {}
    for other, child in diagram.nodes.items():
        if other == name:
            continue
        nodes[other] = (_slice_parent(diagram, child, name, oi)
                        if name in child.parents else child)
    return reordered(Diagram(nodes, diagram.notes))


def _grid(diagram: Diagram, spec: NodeSpec) -> np.ndarray:
    """The stored table with one axis per parent (and, for a Cpt, a last
    axis over the node's outcomes)."""
    arities = parent_arities(diagram, spec)
    if isinstance(spec.table, Cpt):
        return spec.table.rows.reshape(arities + (spec.n_outcomes,))
    return spec.table.entries.reshape(arities)


def _drop_parent(spec: NodeSpec, parent: str, grid: np.ndarray) -> NodeSpec:
    """``spec`` without ``parent``; ``grid`` is its table with that
    parent's axis gone."""
    if isinstance(spec.table, Cpt):
        table: Cpt | DetTable = Cpt(grid.reshape(-1, spec.n_outcomes))
    else:
        table = DetTable(grid.reshape(-1))
    return NodeSpec(spec.name, spec.outcomes, spec.kind,
                    tuple(p for p in spec.parents if p != parent), table)


def _slice_parent(diagram: Diagram, child: NodeSpec, parent: str,
                  oi: int) -> NodeSpec:
    """Child's table restricted to parent = outcome ``oi``; parent dropped."""
    axis = child.parents.index(parent)
    return _drop_parent(child, parent,
                        np.take(_grid(diagram, child), oi, axis=axis))


def refactor(diagram: Diagram, order) -> Diagram:
    """Rebuild the diagram so the given permutation is a valid variable
    ordering, by repeated arc reversal. Arcs may come out dense; nothing is
    pruned.

    Works back to front: each node in turn has its arcs into earlier-ranked
    nodes reversed (earliest such child in the current topological order
    first) until every arc points forward in ``order``.
    """
    order = list(order)
    if sorted(order) != sorted(diagram.nodes):
        raise NotAPermutation(
            f"order {order!r} is not a permutation of the node set")
    rank = {n: i for i, n in enumerate(order)}
    for i in range(len(order) - 1, -1, -1):
        node = order[i]
        while True:
            late = [c for c in diagram.children(node) if rank[c] < i]
            if not late:
                break
            pos = _topo_pos(diagram)
            child = min(late, key=pos.__getitem__)
            diagram = reverse_arc(diagram, node, child)
    return reordered(diagram)


def prune_constant_parents(diagram: Diagram) -> Diagram:
    """Drop parents whose outcome provably never changes a node's table:
    every CPT row is bit-identical across that parent's outcomes. Exact
    equality only; this is an explicit opt-in pass, transforms never prune.
    """
    changed = True
    while changed:
        changed = False
        for name in list(diagram.nodes):
            spec = diagram.nodes[name]
            grid = _grid(diagram, spec)
            for axis, parent in enumerate(spec.parents):
                first = np.take(grid, 0, axis=axis)
                if not np.all(grid == np.expand_dims(first, axis)):
                    continue
                nodes = dict(diagram.nodes)
                nodes[name] = _drop_parent(spec, parent, first)
                diagram = Diagram(nodes, diagram.notes)
                changed = True
                break
    return reordered(diagram)


def apply_step(diagram: Diagram, step: TransformStep
               ) -> tuple[Diagram, TransformStep]:
    """Execute one step and return it with its measured costs filled in."""
    if step.kind == REVERSE:
        result = reverse_arc(diagram, step.node, step.other)
    elif step.kind == SUM_OUT:
        result = sum_out(diagram, step.node)
    elif step.kind == REMOVE_BARREN:
        result = remove_barren(diagram, step.node)
    elif step.kind == CONDITION:
        result = condition(diagram, step.node, step.outcome)
    else:
        raise ValueError(f"unknown step kind {step.kind!r}")
    added = len(set(result.arcs) - set(diagram.arcs))
    touched = 0
    for name, spec in result.nodes.items():
        old = diagram.nodes.get(name)
        if old is not spec and old != spec:
            touched += spec.free_parameters(
                row_count(parent_arities(result, spec)))
    return result, replace(step, added_arcs=added, parameters_touched=touched)
