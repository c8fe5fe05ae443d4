"""Usage-direction engine: answer queries by transforming the diagram.

A posterior query is a plan, then its run. The planner decides every
transform step on the graph: barren non-query nodes are deleted, evidence
nodes are conditioned away, the remaining nuisance nodes are summed out,
and the target, by then a lone root, carries its own posterior. A step is
decided once, by the planner that chose it; the one executor,
``_Work.take``, runs it as it stands on one table working state, raw grids
beside the structure map, and builds no diagram. The plan, with the arc
fill-in each step incurred, is returned alongside the answer, because the
*order* of the reversals is what determines how dense the intermediate
diagrams get; ``plan_reversals`` and ``compare_orders`` search that
ordering space. They search on the graph alone, a plain map name ->
(parents, kind): a step's fill-in and parameter count, and a structure's
``complexity``, follow from parent sets, node kinds and outcome counts,
never from a table value, and each structure gets at most one parent set
(the greedy planner's, with child counts) and one depth pass, of keys
(depth, name), for all the steps tried on it, unless the step that
reached it handed on the keys it leaves valid, as only ``_restructure``
decides. The greedy planner decides a round's candidates in order of
their encoding and stops at the first that fits and adds no arc, which no
later one can beat. A barren deletion rewrites no other node, so the
round after one keeps the child counts, candidate order and scores the
last one made, and forgets only the deleted node's parents' scores; any
other step makes them afresh. Both ways of ranking orders walk one graph
of the structures that elimination prefixes reach (dynamic programming
over elimination states, as for optimal elimination orders), so each
(structure, candidate) step is decided and encoded once, however many
orders take it, and each complexity summed once. Each order carries
its totals, codes and peak down the walk and resumes from the prefix it
shares with the order before it. ``plan_reversals(..., "exhaustive")``
lists no order: it solves each structure of that graph once, keeping the
least (added arcs, joined codes) of its completions, which is the order
``compare_orders`` ranks first, so its cap is MAX_PLANNED_NODES nodes to
eliminate, not 8! orders. Only the steps of the plan handed back
run on the tables, which is where zero-mass evidence raises
ZeroProbabilityEvidence, and each is handed back as its run returned it,
with the zero rows it filled. Every planner decides each step through
``_eliminated``, which drops a step with a reversal past the cell cap
(``transform._flip`` refuses it), and ``posterior``'s fixed order gives
way to the greedy plan at its first step past the cap.

Before it plans, ``posterior`` runs a Bayes-Ball walk (Shachter 1998,
"Bayes-Ball: the rational pastime") from the target, with the evidence
observed, and keeps the nodes it marks on top. An evidence node the ball
reached only from a child is sliced out of its children at its observed
outcome, never reversed; every other node left out is dropped unread;
``Plan.pruned`` lists both. Only evidence left off top is checked for a
zero: one whose observed outcome has zero probability in a row of its
table starts a ball of its own, in a second walk, and is conditioned.
So ZeroProbabilityEvidence is raised exactly when the whole evidence has
zero mass: each evidence factor pruned is positive in every row, and the
rows of each unobserved node pruned sum to one. ``d_separated`` is the
same walk from one node.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .diagram import DETERMINISTIC, Diagram, _check_query, known, node_depths
from .errors import (
    InvalidParameters,
    SameNode,
    TooLarge,
    TooLargeForExhaustive,
    UnknownNode,
)
from .transform import (
    CONDITION,
    REMOVE_BARREN,
    SUM_OUT,
    TransformStep,
    _Work,
    _free,
    _restructure,
    _structure,
    encode_step,
)

# compare_orders' exhaustive ranking lists every order, so it is capped at
# 8! of them. plan_reversals' exhaustive plan solves each structure once,
# so its cap is in nodes to eliminate: at 12, over gen_random(13, 3,
# 0.2-0.9, 0.2, 0 or 3) with the first, middle or last node as target, the
# worst measured case decided 71,487 steps in 3.0 s (58 MB peak) on a
# shared 2-vCPU VM; each node more costs about 2.5 times as much.
MAX_EXHAUSTIVE_NODES = 8
MAX_PLANNED_NODES = 12
GREEDY_SAMPLE_COUNT = 32


@dataclass(frozen=True)
class Metrics:
    """Diagram complexity: arcs, and free parameters across all tables."""

    arc_count: int
    free_parameter_count: int


@dataclass(frozen=True, init=False)
class Plan:
    """A legal sequence of transform steps, with their summed costs, after
    ``pruned``: (name, observed outcome) per evidence node sliced out of its
    children, whose tables count as touched; (name, None) per node dropped.
    Its constructor fills fields in as ``TransformStep``'s does."""

    steps: tuple[TransformStep, ...]
    total_added_arcs: int
    total_parameters_touched: int
    pruned: tuple[tuple[str, str | None], ...] = ()

    def __init__(self, steps: tuple[TransformStep, ...],
                 total_added_arcs: int, total_parameters_touched: int,
                 pruned: tuple[tuple[str, str | None], ...] = ()):
        fields = self.__dict__
        fields["steps"] = steps
        fields["total_added_arcs"] = total_added_arcs
        fields["total_parameters_touched"] = total_parameters_touched
        fields["pruned"] = pruned

    def encode(self) -> str:
        return "; ".join(step.encode() for step in self.steps)


def _plan_of(steps, pruned: tuple = (), touched: int = 0) -> Plan:
    """The steps with their cost totals, ``touched`` by ``pruned`` added."""
    return Plan(tuple(steps), sum(s.added_arcs for s in steps),
                touched + sum(s.parameters_touched for s in steps), pruned)


def _summed(shape: dict, arity: dict) -> tuple[int, int]:
    """The complexity of a structure, (arcs, free parameters)."""
    arcs = params = 0
    for n, entry in shape.items():
        arcs, params = arcs + len(entry[0]), params + _free(arity, n, entry)
    return arcs, params


def complexity(diagram: Diagram) -> Metrics:
    return Metrics(*_summed(*_structure(diagram)[:2]))


def posterior(diagram: Diagram, target: str,
              evidence: dict[str, str]) -> tuple[np.ndarray, Plan]:
    """Posterior over the target's outcomes, computed by arc reversal.

    Returns the probability vector and the plan that produced it. Matches
    the enumeration oracle within tight tolerance; raises
    ZeroProbabilityEvidence when the evidence has no mass. After ``_prune``
    the plan is the fixed order while each reversal fits MAX_REVERSAL_CELLS,
    else the greedy plan; TooLarge is raised only when no greedy step fits.
    """
    _check_query(diagram, target, evidence)
    work = _Work(diagram)
    pruned, touched, depth = _prune(work, target, evidence)
    steps = [work.take(decided) for decided in _fixed_plan(
        work.shape, work.arity, target, evidence, depth)]
    # A copy: the caller gets a writable vector, not a view of a table.
    return np.array(work.grid(target)[1]), _plan_of(steps, pruned, touched)


def _prune(work: _Work, target: str,
           evidence: dict) -> tuple[tuple, int, dict | None]:
    """Cut ``work`` down to the nodes the ball marks on top, as the module
    says; returns ``Plan.pruned``, the free parameters of the tables sliced
    and the keys it leaves valid. Every parent of a node kept is kept or
    sliced, so unless evidence was sliced every node keeps its ancestors,
    and its key in the entry's ``work.depth``; else None. The target's
    walk runs first: evidence it puts on top needs no zero check."""
    shape, nodes = work.shape, work.diagram.nodes
    top, seen = _ball(shape, [target], [], evidence)
    at = {n: nodes[n].outcomes.index(o)
          for n, o in evidence.items() if n not in top}
    doubtful = [n for n, i in at.items() if 0.0 in (
        nodes[n].table.entries == i if shape[n][1] == DETERMINISTIC
        else nodes[n].table.rows[:, i]).tolist()]
    if doubtful:
        top, seen = _ball(shape, [target], doubtful, evidence)
    if len(top) == len(shape):
        return (), 0, work.depth
    pruned = tuple((n, evidence.get(n) if n in seen else None)
                   for n in sorted(shape) if n not in top)
    sliced = {n: at[n] for n, outcome in pruned if outcome is not None}
    kept, touched = {n: entry for n, entry in shape.items() if n in top}, 0
    for n, (ps, kind) in kept.items():
        if not top.issuperset(ps):
            kept[n] = entry = (tuple(p for p in ps if p in top), kind)
            work.tables[n] = (entry[0], work.grid(n)[1][tuple(
                sliced.get(p, slice(None)) for p in ps)])
            touched += _free(work.arity, n, entry)
    work.shape = kept
    return pruned, touched, None if sliced else work.depth


# -- reversal-order search ----------------------------------------------------

def _fixed_plan(shape: dict, arity: dict, target: str,
                evidence: dict, depth: dict | None) -> list[tuple]:
    """``posterior``'s fixed order, as decided steps: barren nodes first,
    by name; then evidence, then nuisance nodes, each earliest by its key
    (depth, name), from a depth pass handed to the step with the round's
    parent set: the keys the caller (``depth`` of ``shape``) or the step
    before handed on, else a fresh pass. Each step is decided under the
    reversal cell cap; at the first that does not fit, the plan is the
    greedy plan from the caller's ``shape`` and ``depth``."""
    start, first, decided = shape, depth, []
    while len(shape) > 1:
        parented = _parented(shape)
        barren = [n for n in shape
                  if n not in parented and n != target and n not in evidence]
        depth = depth or (None if barren else node_depths(shape))
        name = min(barren) if barren else min(
            [n for n in evidence if n in shape]
            or (n for n in shape if n != target), key=depth.__getitem__)
        taken = _eliminated(shape, arity, name, evidence, depth, parented)
        if taken is None:
            return _greedy_plan(start, arity, target, evidence, first)
        decided.append(taken)
        shape, depth = taken[0], taken[3]
    return decided


def _parented(shape: dict) -> set:
    """The nodes of ``shape`` that have a child."""
    return {p for ps, _ in shape.values() for p in ps}


def _child_counts(shape: dict) -> dict:
    """The nodes of ``shape`` that have a child, each with its count of
    them: a ``_parented`` that a barren deletion can update."""
    counts: dict[str, int] = {}
    for ps, _ in shape.values():
        for p in ps:
            counts[p] = counts.get(p, 0) + 1
    return counts


def _kind(parented, name: str, evidence: dict) -> str:
    """How ``name`` leaves a structure with ``parented`` its ``_parented``
    or ``_child_counts``: conditioned on its evidence, else summed out, or
    deleted once barren."""
    return (CONDITION if name in evidence
            else SUM_OUT if name in parented
            else REMOVE_BARREN)


def _eliminated(shape: dict, arity: dict, name: str, evidence: dict,
                depth: dict | None, parented):
    """The decided step taking ``name`` out of ``shape``, of the kind
    ``_kind`` reads off the caller's ``parented``, on the caller's ``depth``;
    None when ``_flip`` refuses a reversal of it past MAX_REVERSAL_CELLS."""
    try:
        return _restructure(shape, arity, _kind(parented, name, evidence),
                            name, outcome=evidence.get(name), depth=depth)
    except TooLarge:
        return None


def _ranked(shape: dict, arity: dict, evidence: dict, orders,
            depth: dict) -> tuple[list, list]:
    """The plan of each order that fits the reversal cell cap, with the
    *peak* complexity the diagram reaches along it, best first by added
    arcs, then encoding; and the decided steps of the first.

    The orders walk one graph of structures, from the caller's ``shape``,
    ``arity`` and ``depth``. A state is the structure a prefix reaches,
    [structure, depth keys, edges, complexity, parent set]: what can
    follow depends only on each remaining node's parents and kind
    (arities are fixed per name, evidence per call). Its complexity is
    summed once, when the walk first reaches it. An edge per node taken
    out holds the decided step, the next state and the step's encoding,
    or None past the cap, which drops the order; so each (structure,
    node) step is decided and encoded once. A state's parent set is made
    at its first decision, and its keys too, unless they are the caller's
    or the step that reached it first handed them on. The key is the
    structure, not the set of nodes eliminated: fill-in depends on the order.

    An order carries down its steps, their codes, its totals and its
    peak, a ``Metrics`` built anew only when a state's complexity goes
    past it, builds its ``Plan`` from them and sorts by
    ``(added, "; ".join(codes))``, i.e. ``(plan.total_added_arcs,
    plan.encode())``. It resumes from the longest prefix it shares with
    the order before it, no deeper than that order went, finished or
    dropped: ``stack`` holds (state, peak, totals) after each step."""
    states: dict[tuple, list] = {}

    def state(shape: dict, depth: dict | None) -> list:
        key = tuple(shape.items())
        if key not in states:
            states[key] = [shape, depth, {}, _summed(shape, arity), None]
        return states[key]

    start, k = state(shape, depth), len(shape) - 1  # k steps leave the target
    stack = [(start, Metrics(*start[3]), 0, 0)] * (k + 1)
    steps, codes, keyed, prev, went = [None] * k, [None] * k, [], (), 0
    for order in orders:
        i = 0
        while i < went and order[i] == prev[i]:
            i += 1
        here, peak, added, params = stack[i]
        while i < k:
            name = order[i]
            shape, depth, edges, _, parented = here
            if name not in edges:
                if parented is None:  # the state's first decision
                    parented = here[4] = _parented(shape)
                    depth = here[1] = depth or node_depths(shape)
                taken = _eliminated(shape, arity, name, evidence, depth,
                                    parented)
                edges[name] = taken and (taken, state(taken[0], taken[3]),
                                         taken[1].encode())
            if edges[name] is None:
                break
            (_, step, _, _), here, code = edges[name]
            arcs, ps = here[3]
            if arcs > peak.arc_count or ps > peak.free_parameter_count:
                peak = Metrics(max(arcs, peak.arc_count),
                               max(ps, peak.free_parameter_count))
            added += step.added_arcs
            params += step.parameters_touched
            steps[i], codes[i] = step, code
            i += 1
            stack[i] = (here, peak, added, params)
        else:
            keyed.append((added, "; ".join(codes),
                          Plan(tuple(steps), added, params), peak))
        prev, went = order, i
    keyed.sort(key=itemgetter(0, 1))
    ranked = [(plan, peak) for _, _, plan, peak in keyed]
    here, decided = start, []
    for step in ranked[0][0].steps if ranked else ():
        taken, here, _ = here[2][step.node]
        decided.append(taken)
    return ranked, decided


def _greedy_plan(shape: dict, arity: dict, target: str,
                 evidence: dict, depth: dict | None) -> list:
    """The greedy plan's decided steps: at each step, the elimination that
    adds the fewest arcs (ties broken by the step's string encoding),
    skipping any step with a reversal past MAX_REVERSAL_CELLS; raises
    TooLarge when none is left. A round decides its candidates in order of
    their encoding and stops at the first that fits and adds no arc: every
    later one adds at least as many arcs and encodes larger. A candidate
    is compared by its code, read off a table made once per call: each
    node's code as a barren deletion and as a sum-out (its condition
    step's, for evidence), by whether it has a child.

    A round keeps what the last one made when the last winner was a
    barren deletion: the child counts (nodes with a child only), the
    candidates in encoding order, the depth keys and each candidate's
    score, its added arcs or None past the cap. Deleting a barren node
    b rewrites no other node's entry, so b leaves the list, each of its
    parents loses a child, and one left with none moves from its sum-out
    code to its barren one. No score is forgotten: a round stops at its
    first barren candidate, which adds no arc, and every code before it is
    a conditioning's, so each score carried is a conditioning's. b is no
    node's parent, so it is in no parent set a conditioning merges: it
    adds no arc to one and no cell to its reversals. Any other winner
    makes all of them afresh from its structure, the keys only when it
    handed none on. A winner scored in an earlier round is decided again,
    since its old step still holds deleted nodes. Evidence nodes leave
    only by conditioning, so once the target stands alone none is
    pending."""
    decided, scores = [], None
    codes = {n: (encode_step(CONDITION, n, outcome=evidence[n]),) * 2
             if n in evidence else
             (encode_step(REMOVE_BARREN, n), encode_step(SUM_OUT, n))
             for n in shape if n != target}
    while len(shape) > 1:
        if scores is None:  # the first round, or one after a rewrite
            depth, counts = depth or node_depths(shape), _child_counts(shape)
            candidates = sorted((codes[n][n in counts], n)
                                for n in shape if n != target)
            scores = {}
        best = None
        for i, (code, name) in enumerate(candidates):
            taken = None
            if name not in scores:
                taken = _eliminated(shape, arity, name, evidence, depth,
                                    counts)
                scores[name] = taken and taken[1].added_arcs
            if scores[name] is None:
                continue
            key = (scores[name], code)
            if best is None or key < best[0]:
                best = (key, i, taken)
            if not key[0]:
                break
        if best is None:
            raise TooLarge("every step left needs a reversal over the "
                           "reversal cell cap")
        _, i, taken = best
        name = candidates[i][1]
        taken = taken or _eliminated(shape, arity, name, evidence, depth,
                                     counts)
        decided.append(taken)
        if taken[1].kind != REMOVE_BARREN:
            scores = None
        else:
            del candidates[i]
            for p in shape[name][0]:
                counts[p] -= 1
                if not counts[p]:
                    del counts[p]
                    if p != target and p not in evidence:
                        del candidates[bisect_left(candidates,
                                                   (codes[p][1], p))]
                        insort(candidates, (codes[p][0], p))
        shape, depth = taken[0], taken[3]
    return decided


def _best_plan(shape: dict, arity: dict, target: str,
               evidence: dict, depth: dict) -> list:
    """The decided steps of the order ``compare_orders(..., "exhaustive")``
    ranks first, the least (total added arcs, joined encodings) of the
    orders that fit MAX_REVERSAL_CELLS, found by dynamic programming over
    the structures elimination prefixes reach, without listing an order.

    Each structure is solved once, memoized on the same key as ``_ranked``'s
    states: its best completion is the least, over its fitting steps, of
    (the step's added arcs + its successor's, the step's code + "; " + its
    successor's codes); None when no completion fits. The tie-break is
    exact: every completion from one structure has the same length, so for
    a fixed first step, comparing the joined codes compares the rests'. A
    structure's parent set and depth pass are made for its candidates,
    unless the caller (for ``shape``) or the step that reached it handed
    the keys on, as in ``_ranked``. Raises TooLargeForExhaustive past
    MAX_PLANNED_NODES non-target nodes, and TooLarge when no order fits."""
    if len(shape) - 1 > MAX_PLANNED_NODES:
        raise TooLargeForExhaustive(
            f"{len(shape) - 1} nodes to eliminate exceed the "
            f"{MAX_PLANNED_NODES}-node exhaustive planning cap")
    solved: dict[tuple, tuple | None] = {}

    def solve(shape: dict, depth: dict | None) -> tuple | None:
        """(added arcs, joined codes, decided step, the rest's solution)
        of the best completion from ``shape``, or None."""
        key = tuple(shape.items())
        if key in solved:
            return solved[key]
        if len(shape) == 1:
            solved[key] = best = (0, "", None, None)
            return best
        best, parented = None, _parented(shape)
        depth = depth or node_depths(shape)
        for name in shape:
            if name == target:
                continue
            taken = _eliminated(shape, arity, name, evidence, depth, parented)
            if taken is None:
                continue
            step, rest = taken[1], solve(taken[0], taken[3])
            if rest is None:
                continue
            code = step.encode()
            added = step.added_arcs + rest[0]
            codes = f"{code}; {rest[1]}" if rest[1] else code
            if best is None or (added, codes) < best[:2]:
                best = (added, codes, taken, rest)
        solved[key] = best
        return best

    decided, at = [], solve(shape, depth)
    if at is None:
        raise TooLarge("every order needs a reversal over the reversal "
                       "cell cap")
    while at[2] is not None:
        decided.append(at[2])
        at = at[3]
    return decided


def plan_reversals(diagram: Diagram, target: str, evidence: dict[str, str],
                   strategy: str = "greedy") -> Plan:
    """Plan the transform sequence for a query without caring about the
    answer, only about arc fill-in.

    ``greedy`` locally minimizes arcs added per step among the steps whose
    reversals fit MAX_REVERSAL_CELLS. ``exhaustive`` returns the plan
    ``compare_orders(..., "exhaustive")`` ranks first, of minimal total
    added arcs (then encoding) among the orders that fit
    MAX_REVERSAL_CELLS, without listing the orders: a dynamic program
    solves each structure an elimination prefix reaches once, so it
    raises TooLargeForExhaustive only past MAX_PLANNED_NODES nodes to
    eliminate, not past ``compare_orders``' 8!. Either raises TooLarge
    when nothing fits. Only the plan handed back runs on the tables.
    """
    _check_query(diagram, target, evidence)
    planner = {"greedy": _greedy_plan, "exhaustive": _best_plan}.get(
        strategy) if isinstance(strategy, str) else None
    if planner is None:
        raise InvalidParameters(f"unknown strategy {strategy!r}")
    work = _Work(diagram)
    return _plan_of([work.take(taken) for taken in planner(
        work.shape, work.arity, target, evidence, work.depth)])


def compare_orders(diagram: Diagram, target: str, evidence: dict[str, str],
                   mode: str = "exhaustive") -> list[tuple[Plan, Metrics]]:
    """Rank elimination orderings for a query by total arc fill-in.

    Every plan is worked out on the graph, so all are legal; the metrics
    give the peak complexity the diagram reached under that plan. Only
    orders whose every reversal fits MAX_REVERSAL_CELLS are ranked, and
    TooLarge is raised when none does. ``exhaustive`` ranks every such
    ordering (8! cap); ``greedy-sample`` ranks the greedy plan's order
    plus a fixed-seed sample. Both walk one graph of the structures the
    orders reach, from the structure map of the one ``_Work``, deciding
    and encoding each (structure, node) step once and summing each
    structure's complexity once; each order carries its costs, codes and
    peak from the prefix it shares with the order before it, so no plan
    is re-summed or re-encoded to rank it. Only the top-ranked plan runs
    on the tables, and it is handed back as its run returned it.
    """
    _check_query(diagram, target, evidence)
    work = _Work(diagram)
    others = sorted(n for n in diagram.nodes if n != target)
    if mode == "exhaustive":
        if len(others) > MAX_EXHAUSTIVE_NODES:
            raise TooLargeForExhaustive(
                f"{len(others)}! orderings exceed the "
                f"{MAX_EXHAUSTIVE_NODES}! exhaustive cap")
        orders = itertools.permutations(others)
    elif mode == "greedy-sample":
        greedy = _greedy_plan(work.shape, work.arity, target, evidence,
                              work.depth)
        orders = [tuple(taken[1].node for taken in greedy)]
        rng = random.Random(0)
        for _ in range(GREEDY_SAMPLE_COUNT):
            perm = list(others)
            rng.shuffle(perm)
            if tuple(perm) not in orders:
                orders.append(tuple(perm))
    else:
        raise InvalidParameters(f"unknown mode {mode!r}")
    ranked, decided = _ranked(work.shape, work.arity, evidence, orders,
                              work.depth)
    if not ranked:
        raise TooLarge("every order needs a reversal over the reversal "
                       "cell cap")
    ranked[0] = (_plan_of([work.take(taken) for taken in decided]),
                 ranked[0][1])
    return ranked


# -- graphical independence ----------------------------------------------------

def d_separated(diagram: Diagram, a: str, b: str, given) -> bool:
    """True iff every trail between a and b is blocked by ``given``.

    Sound with respect to the numbers: a separated pair is independent in
    the represented joint. The converse is not claimed. ``given`` is an
    iterable of node names; a lone string counts as one name.
    """
    try:
        given = [given] if isinstance(given, str) else list(given)
    except TypeError:
        raise InvalidParameters(
            f"given must be node names, not {type(given).__name__}") from None
    for name in (a, b, *given):
        if not known(diagram, name):
            raise UnknownNode(f"unknown node '{name}'")
    given = set(given)
    if a == b:
        raise SameNode(f"'{a}' cannot be separated from itself")
    if a in given or b in given:
        raise InvalidParameters("endpoints may not be in the conditioning set")
    # b is separated iff a ball from a, as if from a child, never reaches it.
    return b not in _ball(_structure(diagram)[0], [a], [], given)[1]


def _ball(shape: dict, up: list, down: list, observed) -> tuple[set, set]:
    """Bayes-Ball from ``up`` (balls as if from a child) and ``down`` (from
    a parent), each node passing up, marked on top, and down at most once.
    Returns (on top, visited)."""
    kids: dict[str, list] = {n: [] for n in shape}
    for n, (ps, _) in shape.items():
        for p in ps:
            kids[p].append(n)
    top, bottom, seen = set(), set(), set()
    while up or down:
        if up:  # a ball from a child passes up through an unobserved node
            node = up.pop()
            passes_up = node not in observed
        else:  # a ball from a parent bounces up off an observed one
            node = down.pop()
            passes_up = node in observed
        seen.add(node)
        if passes_up and node not in top:
            top.add(node)
            up.extend(shape[node][0])
        if node not in observed and node not in bottom:
            bottom.add(node)
            down.extend(kids[node])
    return top, seen
