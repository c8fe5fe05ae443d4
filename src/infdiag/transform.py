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
(parents, kind), nodes compared by the key (depth, name) that
``diagram.node_depths`` gives for each node of that map:
``_restructure`` returns the *decided step*, (structure afterwards, step
with its costs, reversals, keys), for every kind of step; only the code
that changes a structure decides which depth keys outlive it. One executor,
``_Work.take``, runs decided steps on one table state (``_Work``): that
map plus each rewritten table as a float64 grid. It decides nothing: a
step is decided once, by the code that chose it, and ``_flip``, which
makes every reversal, refuses one past the cell cap before rewiring. The
kernel lays each reversal's product out as (merged parents, y, x) and
makes only the tables the step keeps. A conditioning step computes only
the observed outcome's slice, as in evidence absorption: ``take`` cuts
the observed node's table to that outcome before the reversals run, since
the node is deleted at the end of the step and each reversed parent's
table is kept at that outcome only, so no later read touches another. The
query planners hand it their steps; ``apply_step`` decides a caller's
with ``_restructure``. Every public transform enters through ``_Work``,
so through ``diagram._accepted``, the engine's entry, which checks a
diagram with ``validate``'s checker, and every step that rewrites a table
leaves through ``_Work.result``, in canonical topological order. Every
diagram a transform hands back carries the entry's result (structure
map, arities, depth keys), as every diagram that checker passed does;
the entry returns it unchecked while the node map holds the very
NodeSpecs it was made for, and checks a map changed since in full. A
step that rewrites none (a barren deletion, a childless sum-out) and
``promote_deterministic`` keep the input's order, and its result less the
node taken out or with the one kind changed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import (
    Cpt,
    DETERMINISTIC,
    DetTable,
    Diagram,
    NodeSpec,
    PROBABILISTIC,
    _accepted,
    _checked,
    has_path,
    known,
    node_depths,
    row_count,
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

# A reversal's product spans the merged parents, x and y's axis as laid out
# (one outcome of an observed y); past this many cells ``_flip`` raises
# TooLarge before anything is allocated.
MAX_REVERSAL_CELLS = 2 ** 22


@dataclass(frozen=True, init=False)
class TransformStep:
    """One recorded transform action, with what it costs.

    Both costs are read off the structure, before any table is computed:
    ``added_arcs`` counts arcs present after the step that were absent
    before it; ``parameters_touched`` sums the free parameters, afterwards,
    of every table the step recomputes and keeps.

    ``zero_rows`` is the one field filled at execution, by ``_Work.take``:
    each (x, y, row) whose P'(y | c) was zero, so that ``row`` of x's new
    table was filled with the uniform distribution. ``row`` indexes the
    configurations (c, y) of the product as laid out: for a conditioning
    step, whose y is the observed node held at its observed outcome, that
    is c alone, a row of x's kept table, so the step records exactly the
    rows it filled. A step carries the fills of the run that made it, and
    a step that never ran carries (); ``refactor`` and the one-step
    wrappers fill the same rows unrecorded.

    Its constructor fills each field in directly, at about a third of the
    cost of the frozen dataclass's own, which sets each through
    ``object.__setattr__``: the planners build one per step they decide.
    """

    kind: str
    node: str
    other: str | None = None
    outcome: str | None = None
    added_arcs: int = 0
    parameters_touched: int = 0
    zero_rows: tuple[tuple[str, str, int], ...] = ()

    def __init__(self, kind: str, node: str, other: str | None = None,
                 outcome: str | None = None, added_arcs: int = 0,
                 parameters_touched: int = 0,
                 zero_rows: tuple[tuple[str, str, int], ...] = ()):
        fields = self.__dict__
        fields["kind"] = kind
        fields["node"] = node
        fields["other"] = other
        fields["outcome"] = outcome
        fields["added_arcs"] = added_arcs
        fields["parameters_touched"] = parameters_touched
        fields["zero_rows"] = zero_rows

    def encode(self) -> str:
        return encode_step(self.kind, self.node, self.other, self.outcome)


def encode_step(kind: str, node: str, other: str | None = None,
                outcome: str | None = None) -> str:
    """A step's text form, ``reverse:x->y``, ``condition:x=o`` or
    ``kind:x``, from its fields alone, so a planner can order candidates
    by it without building their steps."""
    if kind == REVERSE:
        return f"reverse:{node}->{other}"
    if kind == CONDITION:
        return f"condition:{node}={outcome}"
    return f"{kind}:{node}"


# -- structure: every decision a step makes, read off the graph ------------

def _free(arity: dict, name: str, entry: tuple) -> int:
    """Free parameters of the table of a node (name, (parents, kind))."""
    parents, kind = entry
    if kind == DETERMINISTIC:
        return 0
    return row_count(map(arity.__getitem__, parents)) * (arity[name] - 1)


def _flip(shape: dict, arity: dict, x: str, y: str, depth: dict,
          held: bool = False) -> tuple:
    """Rewire the arc x -> y in ``shape`` and return the reversal
    (x, y, merged parents, substitute), the parents ordered by ``depth``,
    ``node_depths(shape)``. ``substitute`` says x is deterministic: it
    keeps its table and gets no arc from y, and y's table takes x's
    function in. Every reversal is made here, so the cap is checked here:
    a product over the merged parents, x and y past MAX_REVERSAL_CELLS
    raises TooLarge before anything is rewired. Each axis counts as the
    kernel lays it out: ``held`` says y is a conditioning step's observed
    node, held at one outcome."""
    (xp, xkind), (yp, ykind) = shape[x], shape[y]
    merged = {*xp, *yp}
    merged.discard(x)
    union = tuple(sorted(merged, key=depth.__getitem__))
    cells = row_count(map(arity.__getitem__, union + (x,))) * (
        1 if held else arity[y])
    if cells > MAX_REVERSAL_CELLS:
        raise TooLarge(f"reversing {x}->{y} needs {cells} table cells, "
                       f"over the {MAX_REVERSAL_CELLS} cap")
    substitute = xkind == DETERMINISTIC
    if substitute:
        shape[y] = (union, ykind)
    else:
        shape[y] = (union, PROBABILISTIC)
        shape[x] = (union + (y,), PROBABILISTIC)
    return x, y, union, substitute


def _flip_out(shape: dict, arity: dict, name: str, kids, reversals: list,
              depth: dict | None) -> dict | None:
    """Reverse the arcs from ``name`` to each of ``kids``, always to the
    child earliest in the current topological order: no other path from
    ``name`` can reach that child, so the reversal is legal. ``depth`` is
    ``node_depths(shape)``, or None when not known. Returns the keys it
    leaves valid: ``depth`` when there was no child to flip, else None."""
    kids = list(kids)
    while kids:
        depth = depth or node_depths(shape)
        child = min(kids, key=depth.__getitem__)
        kids.remove(child)
        reversals.append(_flip(shape, arity, name, child, depth))
        depth = None  # the flip changed the graph
    return depth


def _restructure(shape: dict, arity: dict, kind: str, name: str,
                 other: str | None = None, outcome: str | None = None, *,
                 depth: dict | None):
    """Make every structural decision of a step, already checked, without
    reading a table.

    Returns the *decided step* (structure afterwards, step, reversals,
    keys): the step carries both its costs, read off the nodes it rewrote,
    and the reversals are as ``_flip`` returns them, in execution order,
    each under the cell cap: a step with a reversal past it raises
    TooLarge. ``_Work.take`` runs a decided step as it stands and decides
    nothing again. Nodes compare by their key (depth, name) in ``depth``,
    which is ``topological_order`` restricted to them, to pick the next arc
    and to order merged parents. ``depth`` is the caller's
    ``node_depths(shape)``, made once for every step it tries on one
    structure, or None for a barren deletion, which reads none. A
    conditioning step reads only that pass: flipping p -> name changes the
    depth of p, name and their descendants only, and every node the step
    compares after it is an ancestor of name. A sum-out makes a fresh pass
    after each reversal, since the children left are descendants of the
    flipped node. ``keys`` is ``depth`` as given when no node left has a
    new (parents, kind) entry, as a node's depth is set by its ancestors
    alone, else None; it may name the node taken out, which no one reads
    again.
    """
    new = dict(shape)
    reversals: list[tuple] = []
    if kind == REMOVE_BARREN:  # no other node rewritten: the keys hold
        del new[name]
        return new, TransformStep(kind, name, other, outcome), reversals, depth
    if kind == REVERSE:
        reversals.append(_flip(new, arity, name, other, depth))
    elif kind == CONDITION:
        # The latest parent first: the earliest may still reach the node
        # through another parent. ``take`` cuts the node's table to the
        # observed outcome before the reversals run, so the cap counts one:
        # the node is ``_flip``'s held y.
        while new[name][0]:
            parent = max(new[name][0], key=depth.__getitem__)
            reversals.append(_flip(new, arity, parent, name, depth, True))
        for c, (ps, k) in new.items():
            if name in ps:
                new[c] = (tuple(p for p in ps if p != name), k)
    elif kind == SUM_OUT:
        kids = [c for c, (ps, _) in shape.items() if name in ps]
        _flip_out(new, arity, name, kids, reversals, depth)
    if kind != REVERSE:
        del new[name]
    added = touched = 0
    for n, entry in new.items():
        was = shape[n]
        if entry is not was:
            depth = None
            added += len(set(entry[0]).difference(was[0]))
            touched += _free(arity, n, entry)
    return (new, TransformStep(kind, name, other, outcome, added, touched),
            reversals, depth)


# -- numbers: the tables of a structure already decided ----------------------

class _Work:
    """The working state of one numeric run: the structure map the planners
    use, ``shape`` (name -> (parents, kind)), ``arity``, the entry's depth
    keys ``depth``, and ``tables``, each table rewritten so far as (parents,
    C-ordered float64 grid) with one axis per parent and a last axis over
    the node's outcomes. A table not rewritten is read off its NodeSpec
    when used, shaped by ``arity``. Deterministic tables enter as exact 0/1
    indicators, so every grid is a CPT; a node's kind is the one ``shape``
    gives it. The kernel, ``run``, lays a reversal's product out as (merged
    parents, y, x): x's new table is that product divided in place by y's,
    its sum over x. ``shape`` is the run's own copy of the entry's map
    (``diagram._accepted``), since a run writes into it: ``refactor`` flips
    it in place and ``prune_constant_parents`` drops parents from it.
    """

    def __init__(self, diagram: Diagram):
        self.diagram = diagram
        shape, self.arity, self.depth = _accepted(diagram)
        self.shape = dict(shape)
        self.tables: dict[str, tuple] = {}

    def grid(self, name: str) -> tuple:
        """(parents, grid) of a node's table as it stands: an unread one
        read by its kind and shaped by ``arity``, as ``table_array`` does."""
        got = self.tables.get(name)
        if got is not None:
            return got
        spec, k = self.diagram.nodes[name], self.arity[name]
        dims = tuple(map(self.arity.__getitem__, spec.parents))
        if spec.kind == DETERMINISTIC:
            return spec.parents, np.eye(k)[spec.table.entries.reshape(dims)]
        return spec.parents, spec.table.rows.reshape(dims + (k,))

    def run(self, shape: dict, reversals) -> tuple:
        """Compute the tables of each reversal (x, y, merged parents,
        substitute) in turn, from a product laid out (merged parents, y, x),
        then take ``shape``, the structure they lead to. Returns the (x, y,
        row) of each zero row of y's marginal as laid out, filled uniform
        in x's table. Only the tables the step keeps are made: a y gone from
        ``shape`` is an observed node whose table ``take`` cut to the
        observed outcome, so the product holds that one outcome of y and
        x's table is made at it, on the merged parents; the table of a node
        gone from ``shape`` is not made at its last reversal. One count of
        the marginal's nonzero entries decides whether any row of it is
        zero; the mask, the zero rows and the safe divisor are built only
        then. No cap is checked here: ``_flip`` made each reversal under
        it."""
        tables, zero, last = self.tables, [], len(reversals) - 1
        for i, (x, y, union, substitute) in enumerate(reversals):
            (xp, gx), (yp, gy) = self.grid(x), self.grid(y)
            laid = union + (y, x)  # distinct names: an axis is its index
            t = np.einsum(gx, [*map(laid.index, xp + (x,))],
                          gy, [*map(laid.index, yp + (y,))],
                          [*range(len(laid))], order="C")
            # x's outcomes (two at least) added one by one, as a sum over a
            # middle axis adds them; a sum over the last axis adds pairwise.
            marg = t[..., 0] + t[..., 1]
            for k in range(2, self.arity[x]):
                marg += t[..., k]
            filled = not substitute and np.count_nonzero(marg) < marg.size
            if filled:
                empty = marg == 0.0
                zero.extend((x, y, r) for r in np.flatnonzero(empty).tolist())
            # A substitute x keeps its table; y's is its row at x = f(c).
            if not substitute and (x in shape or i < last):
                # Divide by the marginal as summed, not as capped.
                by = np.where(empty, 1.0, marg) if filled else marg
                t /= by[..., np.newaxis]
                if filled:
                    t[empty] = 1.0 / self.arity[x]
                # In [0, 1]: a term over a sum of terms >= 0 holding it, or 1/k
                tables[x] = ((union + (y,), t) if y in shape
                             else (union, t[..., 0, :]))
            # A sum of float products can land an ulp above 1 (a deterministic
            # successor makes the marginal a sum of a cpt row), never below
            # +0.0 (einsum writes +0.0 for a zero product): cap it at 1.
            tables[y] = (union, np.minimum(marg, 1.0, out=marg))
        self.shape = shape
        return tuple(zero)

    def take(self, decided: tuple) -> TransformStep:
        """Run a decided step (structure afterwards, step, reversals, keys).
        For a conditioning step, first cut the observed node's table to the
        observed outcome, an axis of length 1, so its reversals compute
        that one slice; then check the outcome has mass and slice each
        child from before the step at it (the reversals make theirs
        sliced). Then drop the eliminated node's table. Returns the step
        with its zero rows filled in: for a conditioning step, each row of
        a reversed parent's kept table whose P'(observed | row) was zero."""
        shape, step, reversals, _ = decided
        name, outcome = step.node, step.outcome
        before = self.shape
        if step.kind == CONDITION:
            oi = self.diagram.nodes[name].outcomes.index(outcome)
            ps, grid = self.grid(name)
            self.tables[name] = (ps, grid[..., oi:oi + 1])
        zero = self.run(shape, reversals)
        if step.kind == CONDITION:
            if self.grid(name)[1][0] == 0.0:
                raise ZeroProbabilityEvidence(
                    f"P({name} = {outcome}) is zero; cannot condition on it")
            for c in [c for c, (ps, _) in before.items() if name in ps]:
                ps, grid = self.grid(c)
                self.tables[c] = (tuple(p for p in ps if p != name),
                                  np.take(grid, oi, axis=ps.index(name)))
        if name not in shape:
            self.tables.pop(name, None)
        return TransformStep(step.kind, name, step.other, outcome,
                             step.added_arcs, step.parameters_touched,
                             zero) if zero else step

    def result(self) -> Diagram:
        """The diagram ``shape`` and ``tables`` hold, in canonical
        topological order, each rewritten table wrapped once: a
        deterministic node's as the outcome index of its indicator, a
        probabilistic node's as a Cpt of its grid. Every transform that
        rewrites a table hands its diagram back through here.

        The diagram carries its ``_accepted`` result (``_checked``), built
        in its node order from what the run kept valid: each node's parents
        and kind as its NodeSpec holds them, its arity, and its key from the
        ``node_depths`` pass that sorts the nodes, so the next query of it,
        or ``save``, makes no check and no depth pass."""
        nodes, checked, arity, keys = {}, {}, {}, {}
        depth = node_depths(self.shape)
        for n in sorted(self.shape, key=depth.__getitem__):
            kind, spec = self.shape[n][1], self.diagram.nodes[n]
            if n in self.tables:
                parents, grid = self.tables[n]
                table = (DetTable(grid.argmax(axis=-1).reshape(-1))
                         if kind == DETERMINISTIC
                         else Cpt(grid.reshape(-1, spec.n_outcomes)))
                spec = NodeSpec(n, spec.outcomes, kind, parents, table)
            nodes[n], checked[n] = spec, (spec.parents, spec.kind)
            arity[n], keys[n] = self.arity[n], depth[n]
        return _checked(Diagram(nodes), checked, arity, keys)


def apply_step(diagram: Diagram,
               step: TransformStep) -> tuple[Diagram, TransformStep]:
    """Execute one step and return it with its costs and zero rows filled in.

    Raises InvalidParameters for anything but a TransformStep of a known
    kind whose fields fit it (``other`` on a reversal only, and there
    set; ``outcome`` on a conditioning only), then InvalidDiagram for a
    diagram the engine's entry refuses, and TooLarge for a reversal past
    MAX_REVERSAL_CELLS, before any table is computed.
    """
    if not isinstance(step, TransformStep) or step.kind not in (
            REVERSE, SUM_OUT, REMOVE_BARREN, CONDITION):
        raise InvalidParameters(f"not a step of a known kind: {step!r}")
    if ((step.other is None) == (step.kind == REVERSE)
            or (step.outcome is not None and step.kind != CONDITION)):
        raise InvalidParameters(f"fields that do not fit the step: {step!r}")
    work = _Work(diagram)
    shape, name, y = work.shape, step.node, step.other
    for n in (name, y) if step.kind == REVERSE else (name,):
        if not known(diagram, n):
            raise UnknownNode(f"unknown node '{n}'")
    if step.kind == REVERSE:
        if name not in shape[y][0]:
            raise NoSuchArc(f"no arc {name} -> {y}")
        if has_path(diagram, name, y, skip_arc=(name, y)):
            raise CycleWouldForm(
                f"another path {name} -> ... -> {y} exists; reversal would cycle")
    elif (step.kind == CONDITION
          and step.outcome not in diagram.nodes[name].outcomes):
        raise UnknownOutcome(f"node '{name}' has no outcome '{step.outcome}'")
    elif step.kind == REMOVE_BARREN:
        kids = [c for c, (ps, _) in shape.items() if name in ps]
        if kids:
            raise HasSuccessors(
                f"node '{name}' still has children: {', '.join(kids)}")
    step = work.take(_restructure(shape, work.arity, step.kind, name, y,
                                  step.outcome, depth=work.depth))
    if work.tables or step.kind == CONDITION:
        return work.result(), step
    # No table rewritten, conditioning aside: the order, entries and keys hold.
    kept = work.shape
    return _checked(Diagram({n: diagram.nodes[n] for n in kept}), kept,
                    {n: work.arity[n] for n in kept},
                    {n: work.depth[n] for n in kept}), step


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
    work = _Work(diagram)
    if not known(diagram, name):
        raise UnknownNode(f"unknown node '{name}'")
    if work.shape[name][1] != DETERMINISTIC:
        return diagram
    spec, (parents, grid) = diagram.nodes[name], work.grid(name)
    nodes = dict(diagram.nodes)
    nodes[name] = NodeSpec(name, spec.outcomes, PROBABILISTIC, parents,
                           Cpt(grid.reshape(-1, spec.n_outcomes)))
    # Only the node's kind changed: the graph, arities and keys hold.
    work.shape[name] = (parents, PROBABILISTIC)
    return _checked(Diagram(nodes), work.shape, work.arity, work.depth)


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
    first) until every arc points forward in ``order``, an iterable of
    names (a lone string counts as one). Raises TooLarge for a reversal
    past MAX_REVERSAL_CELLS, before any table is computed.
    """
    work = _Work(diagram)
    shape, depth, reversals = work.shape, work.depth, []
    listed = ([order] if isinstance(order, str)
              or not hasattr(order, "__iter__") else list(order))
    if sorted(listed, key=str) != sorted(shape):  # any entry sorts
        raise NotAPermutation(
            f"order {order!r} is not a permutation of the node set")
    rank = {n: i for i, n in enumerate(listed)}
    for i in range(len(listed) - 1, -1, -1):
        name = listed[i]
        kids = [c for c, (ps, _) in shape.items() if name in ps and rank[c] < i]
        depth = _flip_out(shape, work.arity, name, kids, reversals, depth)
    work.run(shape, reversals)
    return work.result()


def prune_constant_parents(diagram: Diagram) -> Diagram:
    """Drop parents whose outcome provably never changes a node's table:
    every CPT row is bit-identical across that parent's outcomes. Exact
    equality only; this is an explicit opt-in pass, transforms never prune.
    """
    # Dropping a parent whose slices are all equal leaves every other
    # parent's constancy as it was, so one pass per node finds them all.
    work = _Work(diagram)
    for name, (parents, kind) in work.shape.items():
        kept, grid = work.grid(name)
        for parent in parents:
            axis = kept.index(parent)
            first = np.take(grid, 0, axis=axis)
            if np.all(grid == np.expand_dims(first, axis)):
                kept, grid = tuple(p for p in kept if p != parent), first
                work.tables[name] = (kept, grid)
                work.shape[name] = (kept, kind)
    return work.result()
