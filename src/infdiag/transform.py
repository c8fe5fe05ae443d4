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

Every step is decided on the graph first, on a plain map name ->
(parents, kind): ``_restructure`` returns the *decided step*, (structure
afterwards, step with its costs, reversals), for every kind of step. One
executor, ``_Work.take``, runs decided steps on one table working state
(``_Work``): that map plus each rewritten table as a float64 grid. It
decides nothing: a step is decided once, by the code that chose it. Its
kernel lays each reversal's product out as (merged parents, y, x) and
makes only the tables the step keeps. The query planners hand it their
steps; ``apply_step`` decides a caller's with ``_restructure``.
``refactor`` and ``prune_constant_parents`` also work on the state, and
each rewritten node is wrapped once at the end.
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
    has_path,
    known,
    node_depths,
    reordered,
    row_count,
    table_array,
)
from .errors import (
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

REVERSE = "reverse"
SUM_OUT = "sum_out"
REMOVE_BARREN = "remove_barren"
CONDITION = "condition"

# A reversal's product spans the merged parents, x and y; past this many
# cells it raises TooLarge before anything is allocated.
MAX_REVERSAL_CELLS = 2 ** 22


@dataclass(frozen=True)
class TransformStep:
    """One recorded transform action, with what it costs.

    Both costs are read off the structure, before any table is computed:
    ``added_arcs`` counts arcs present after the step that were absent
    before it; ``parameters_touched`` sums the free parameters, afterwards,
    of every table the step recomputes and keeps.

    ``zero_rows`` is the one field filled at execution, by ``_Work.take``:
    each (x, y, row) whose P'(y | c) was zero, so that ``row`` of x's new
    table was filled with the uniform distribution. Planned steps carry ();
    ``refactor`` and the one-step wrappers fill the same rows unrecorded.
    """

    kind: str
    node: str
    other: str | None = None
    outcome: str | None = None
    added_arcs: int = 0
    parameters_touched: int = 0
    zero_rows: tuple[tuple[str, str, int], ...] = ()

    def encode(self) -> str:
        if self.kind == REVERSE:
            return f"reverse:{self.node}->{self.other}"
        if self.kind == CONDITION:
            return f"condition:{self.node}={self.outcome}"
        return f"{self.kind}:{self.node}"


def _require(diagram: Diagram, name: str) -> NodeSpec:
    if not known(diagram, name):
        raise UnknownNode(f"unknown node '{name}'")
    return diagram.nodes[name]


# -- structure: every decision a step makes, read off the graph ------------

def _structure(diagram: Diagram) -> tuple[dict, dict]:
    """A plain map name -> (parents, kind), and one name -> arity."""
    nodes = diagram.nodes
    return ({n: (s.parents, s.kind) for n, s in nodes.items()},
            {n: s.n_outcomes for n, s in nodes.items()})


def _depths(shape: dict) -> dict[str, int]:
    return node_depths({n: ps for n, (ps, _) in shape.items()})


def _free(arity: dict, name: str, entry: tuple) -> int:
    """Free parameters of the table of a node (name, (parents, kind))."""
    parents, kind = entry
    if kind == DETERMINISTIC:
        return 0
    return row_count(map(arity.__getitem__, parents)) * (arity[name] - 1)


def _flip(shape: dict, x: str, y: str, depth: dict) -> tuple:
    """Rewire the arc x -> y in ``shape`` and return the reversal
    (x, y, merged parents, substitute), the parents ordered by ``shape``'s
    depth key. ``substitute`` says x is deterministic: it keeps its table
    and gets no arc from y, and y's table takes x's function in."""
    (xp, xkind), (yp, ykind) = shape[x], shape[y]
    union = tuple(sorted(set(xp).union(p for p in yp if p != x),
                         key=lambda n: (depth[n], n)))
    substitute = xkind == DETERMINISTIC
    if substitute:
        shape[y] = (union, ykind)
    else:
        shape[y] = (union, PROBABILISTIC)
        shape[x] = (union + (y,), PROBABILISTIC)
    return x, y, union, substitute


def _flip_out(shape: dict, name: str, kids, reversals: list,
              depth: dict | None = None) -> None:
    """Reverse the arcs from ``name`` to each of ``kids``, always to the
    child earliest in the current topological order: no other path from
    ``name`` can reach that child, so the reversal is legal. ``depth`` is
    ``shape``'s depth map, if known."""
    kids = list(kids)
    while kids:
        if depth is None:
            depth = _depths(shape)
        child = min(kids, key=lambda n: (depth[n], n))
        kids.remove(child)
        reversals.append(_flip(shape, name, child, depth))
        depth = None  # the flip changed the graph


def _restructure(shape: dict, arity: dict, kind: str, name: str,
                 other: str | None = None, outcome: str | None = None,
                 depth: dict | None = None):
    """Make every structural decision of a step, already checked, without
    reading a table.

    Returns the *decided step* (structure afterwards, step, reversals): the
    step carries both its costs, read off the nodes it rewrote, and the
    reversals are as ``_flip`` returns them, in execution order.
    ``_Work.take`` runs a decided step as it stands and decides nothing
    again. Nodes compare by the key (depth, name), which is
    ``topological_order`` restricted to them, to pick the next arc and to
    order merged parents. ``depth``, the depth pass over ``shape``, lets a
    caller trying many steps on one structure make it once. A barren
    deletion drops the node and reads no depth. A conditioning step makes
    at most that one pass: flipping p -> name changes the depth of p, name
    and their descendants only, and every node the step compares after it
    is an ancestor of name. A sum-out makes a fresh pass after each
    reversal, since the children left are descendants of the flipped node.
    """
    new = dict(shape)
    reversals: list[tuple] = []
    if kind == REVERSE:
        reversals.append(_flip(new, name, other, depth or _depths(shape)))
    elif kind == CONDITION:
        # The latest parent first: the earliest may still reach the node
        # through another parent.
        while new[name][0]:
            if depth is None:
                depth = _depths(new)
            parent = max(new[name][0], key=lambda n: (depth[n], n))
            reversals.append(_flip(new, parent, name, depth))
        for c, (ps, k) in new.items():
            if name in ps:
                new[c] = (tuple(p for p in ps if p != name), k)
    elif kind == SUM_OUT:
        kids = [c for c, (ps, _) in shape.items() if name in ps]
        _flip_out(new, name, kids, reversals, depth)
    if kind != REVERSE:
        del new[name]
    added = touched = 0
    for n, entry in new.items():
        was = shape[n]
        if entry is not was:
            added += len(set(entry[0]).difference(was[0]))
            touched += _free(arity, n, entry)
    return (new, TransformStep(kind, name, other, outcome, added, touched),
            reversals)


def _cells(arity: dict, reversal) -> int:
    """Cells in the product of a reversal (x, y, merged parents, _)."""
    x, y, union, _ = reversal
    return row_count(map(arity.__getitem__, union + (x, y)))


def _fits(arity: dict, reversals) -> bool:
    """Whether every reversal of a step stays within MAX_REVERSAL_CELLS."""
    return all(_cells(arity, r) <= MAX_REVERSAL_CELLS for r in reversals)


def _may_pass_cap(arity: dict) -> bool:
    """Whether a reversal on these variables could pass MAX_REVERSAL_CELLS.
    A reversal spans a subset of the variables, so none can when the whole
    joint fits."""
    return row_count(arity.values()) > MAX_REVERSAL_CELLS


# -- numbers: the tables of a structure already decided ----------------------

class _Work:
    """The working state of one numeric run: the structure map the planners
    use, ``shape`` (name -> (parents, kind)) and ``arity``, and ``tables``,
    each table rewritten so far as (parents, C-ordered float64 grid) with
    one axis per parent and a last axis over the node's outcomes. A table
    not rewritten is read off the diagram's NodeSpec when used.
    Deterministic tables enter as exact 0/1 indicators, so every grid is a
    CPT; a node's kind is the one ``shape`` gives it. The kernel, ``run``,
    lays a reversal's product out as (merged parents, y, x): x's new table
    is that product divided in place by y's, its sum over x.
    """

    def __init__(self, diagram: Diagram):
        self.diagram = diagram
        self.shape, self.arity = _structure(diagram)
        self.tables: dict[str, tuple] = {}

    def grid(self, name: str) -> tuple:
        """(parents, grid) of a node's table as it stands."""
        got = self.tables.get(name)
        if got is None:
            return self.diagram.nodes[name].parents, table_array(
                self.diagram, name)
        return got

    def run(self, shape: dict, reversals, oi: int | None = None) -> tuple:
        """Compute the tables of each reversal (x, y, merged parents,
        substitute) in turn, from a product laid out (merged parents, y, x),
        then take ``shape``, the structure they lead to. Returns the (x, y,
        row) of each zero row of y's full marginal, filled uniform in x's
        table. Only the tables the step keeps are made: given ``oi``, the
        step conditions each y on that outcome, so x's table is made at
        y = oi only, on the merged parents; the table of a node gone from
        ``shape`` is not made at its last reversal."""
        tables, zero, last = self.tables, [], len(reversals) - 1
        for i, (x, y, union, substitute) in enumerate(reversals):
            cells = _cells(self.arity, reversals[i])
            if cells > MAX_REVERSAL_CELLS:
                raise TooLarge(f"reversing {x}->{y} needs {cells} table "
                               f"cells, over the {MAX_REVERSAL_CELLS} cap")
            (xp, gx), (yp, gy) = self.grid(x), self.grid(y)
            axes = {n: k for k, n in enumerate(union + (y, x))}
            t = np.einsum(gx, [axes[n] for n in xp + (x,)],
                          gy, [axes[n] for n in yp + (y,)],
                          list(axes.values()), order="C")
            # x's outcomes added one by one, as a sum over a middle axis
            # adds them; a sum over the last axis adds pairwise.
            marg = t[..., 0].copy()
            for k in range(1, self.arity[x]):
                marg += t[..., k]
            empty = marg == 0.0
            filled = not substitute and np.count_nonzero(empty)
            if filled:
                zero.extend((x, y, r) for r in np.flatnonzero(empty).tolist())
            # A substitute x keeps its table; y's is its row at x = f(c).
            if not substitute and (x in shape or i < last):
                # Divide by the marginal as summed, not as capped.
                by = np.where(empty, 1.0, marg) if filled else marg
                if oi is None:
                    post, kept, at = t, union + (y,), empty
                    post /= by[..., np.newaxis]
                else:
                    post = t[..., oi, :] / by[..., oi, np.newaxis]
                    kept, at = union, empty[..., oi]
                if filled:
                    post[at] = 1.0 / self.arity[x]
                # In [0, 1]: a term over a sum of terms >= 0 holding it, or 1/k
                tables[x] = (kept, post)
            # A sum of float products can land an ulp above 1 (a deterministic
            # successor makes the marginal a sum of a cpt row), never below
            # +0.0 (einsum writes +0.0 for a zero product): cap it at 1.
            tables[y] = (union, np.minimum(marg, 1.0, out=marg))
        self.shape = shape
        return tuple(zero)

    def take(self, decided: tuple) -> TransformStep:
        """Run a decided step (structure afterwards, step, reversals): its
        reversals; for a conditioning step, the check that the outcome has
        mass and the slice at it of each child from before the step (the
        reversals make theirs sliced); then drop the eliminated node's
        table. Returns the step with its zero rows filled in."""
        shape, step, reversals = decided
        name, outcome = step.node, step.outcome
        oi = (self.diagram.nodes[name].outcomes.index(outcome)
              if step.kind == CONDITION else None)
        before = self.shape
        zero = self.run(shape, reversals, oi)
        if oi is not None:
            if self.grid(name)[1][oi] == 0.0:
                raise ZeroProbabilityEvidence(
                    f"P({name} = {outcome}) is zero; cannot condition on it")
            for c in [c for c, (ps, _) in before.items() if name in ps]:
                ps, grid = self.grid(c)
                self.tables[c] = (tuple(p for p in ps if p != name),
                                  np.take(grid, oi, axis=ps.index(name)))
        if name not in shape:
            self.tables.pop(name, None)
        return replace(step, zero_rows=zero) if zero else step

    def result(self) -> Diagram:
        """The diagram in ``shape``'s order, each rewritten table wrapped
        once: a deterministic node's as the outcome index of its indicator,
        a probabilistic node's as a Cpt of its grid."""
        nodes = {}
        for n, (_, kind) in self.shape.items():
            spec = self.diagram.nodes[n]
            if n in self.tables:
                parents, grid = self.tables[n]
                table = (DetTable(grid.argmax(axis=-1).reshape(-1))
                         if kind == DETERMINISTIC
                         else Cpt(grid.reshape(-1, spec.n_outcomes)))
                spec = NodeSpec(n, spec.outcomes, kind, parents, table)
            nodes[n] = spec
        return Diagram(nodes)


def apply_step(diagram: Diagram,
               step: TransformStep) -> tuple[Diagram, TransformStep]:
    """Execute one step and return it with its costs and zero rows filled in.

    Raises InvalidParameters for anything but a TransformStep of a known
    kind, and TooLarge for a reversal past MAX_REVERSAL_CELLS.
    """
    if not isinstance(step, TransformStep) or step.kind not in (
            REVERSE, SUM_OUT, REMOVE_BARREN, CONDITION):
        raise InvalidParameters(f"not a step of a known kind: {step!r}")
    name = step.node
    spec = _require(diagram, name)
    if step.kind == REVERSE:
        y = step.other
        if name not in _require(diagram, y).parents:
            raise NoSuchArc(f"no arc {name} -> {y}")
        if has_path(diagram, name, y, skip_arc=(name, y)):
            raise CycleWouldForm(
                f"another path {name} -> ... -> {y} exists; reversal would cycle")
    elif step.kind == CONDITION and step.outcome not in spec.outcomes:
        raise UnknownOutcome(f"node '{name}' has no outcome '{step.outcome}'")
    elif step.kind == REMOVE_BARREN:
        kids = [c for c, s in diagram.nodes.items() if name in s.parents]
        if kids:
            raise HasSuccessors(
                f"node '{name}' still has children: {', '.join(kids)}")
    work = _Work(diagram)
    step = work.take(_restructure(work.shape, work.arity, step.kind, name,
                                  step.other, step.outcome))
    result = work.result()
    # Only deleting a childless node leaves every table and the order as is.
    if work.tables or step.kind == CONDITION:
        result = reordered(result)
    return result, step


def reverse_arc(diagram: Diagram, x: str, y: str) -> Diagram:
    """Reverse the arc x -> y; the represented joint is preserved exactly.

    Requires that no other directed path x -> ... -> y exists (the flipped
    arc would close a cycle). All inherited arcs are kept, needed or not.
    """
    return apply_step(diagram, TransformStep(REVERSE, x, other=y))[0]


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
    return Diagram(nodes)


def remove_barren(diagram: Diagram, name: str) -> Diagram:
    """Delete a childless node; the joint over the rest is unchanged."""
    return apply_step(diagram, TransformStep(REMOVE_BARREN, name))[0]


def sum_out(diagram: Diagram, name: str) -> Diagram:
    """Marginalize a node out of the model.

    Reverses the arcs from the node to each of its children (always the
    child earliest in the current topological order, which is the one the
    no-other-path precondition is guaranteed to hold for) and then removes
    the node, by then barren.
    """
    return apply_step(diagram, TransformStep(SUM_OUT, name))[0]


def condition(diagram: Diagram, name: str, outcome: str) -> Diagram:
    """Fix a node to an observed outcome and drop it from the diagram.

    Incoming arcs are reversed until the node is parentless, taking the
    parent *latest* in the current topological order first (the earliest
    parent may still reach the node through another parent, which would
    break the reversal precondition). The node's marginal row then prices
    the evidence; every child table is sliced at the observed outcome.
    """
    return apply_step(diagram, TransformStep(CONDITION, name,
                                             outcome=outcome))[0]


def refactor(diagram: Diagram, order) -> Diagram:
    """Rebuild the diagram so the given permutation is a valid variable
    ordering, by repeated arc reversal. Arcs may come out dense; nothing is
    pruned.

    Works back to front: each node in turn has its arcs into earlier-ranked
    nodes reversed (earliest such child in the current topological order
    first) until every arc points forward in ``order``.
    """
    listed = list(order) if hasattr(order, "__iter__") else [order]
    if sorted(listed, key=str) != sorted(diagram.nodes):  # any entry sorts
        raise NotAPermutation(
            f"order {order!r} is not a permutation of the node set")
    rank = {n: i for i, n in enumerate(listed)}
    work = _Work(diagram)
    shape = dict(work.shape)
    reversals: list[tuple] = []
    for i in range(len(listed) - 1, -1, -1):
        name = listed[i]
        _flip_out(shape, name, [c for c, (ps, _) in shape.items()
                                if name in ps and rank[c] < i], reversals)
    work.run(shape, reversals)
    return reordered(work.result())


def prune_constant_parents(diagram: Diagram) -> Diagram:
    """Drop parents whose outcome provably never changes a node's table:
    every CPT row is bit-identical across that parent's outcomes. Exact
    equality only; this is an explicit opt-in pass, transforms never prune.
    """
    # Dropping a parent whose slices are all equal leaves every other
    # parent's constancy as it was, so one pass per node finds them all.
    work = _Work(diagram)
    for name, spec in diagram.nodes.items():
        kept, grid = work.grid(name)
        for parent in spec.parents:
            axis = kept.index(parent)
            first = np.take(grid, 0, axis=axis)
            if np.all(grid == np.expand_dims(first, axis)):
                kept, grid = tuple(p for p in kept if p != parent), first
                work.tables[name] = (kept, grid)
    return reordered(work.result())
