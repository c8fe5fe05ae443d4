"""Usage-direction engine: answer queries by transforming the diagram.

A posterior query is a plan, then its run. The planner decides every
transform step on the graph: barren non-query nodes are deleted, evidence
nodes are conditioned away, the remaining nuisance nodes are summed out,
and the target, by then a lone root, carries its own posterior. A step
is decided once, by the planner that chose it; the one executor,
``_Work.take``, runs it as it stands on one table working state, raw
grids beside the structure map, and builds no diagram. The plan, with the
arc fill-in each step incurred, is returned alongside the answer, because
the *order* of the reversals is exactly what determines how dense the
intermediate diagrams get; ``plan_reversals`` and ``compare_orders``
search that ordering space. They search on the graph alone, a plain map
name -> (parents, kind): a step's fill-in and parameter count, and a
structure's ``complexity``, follow from parent sets, node kinds and
outcome counts, never from a table value, and each structure gets one
depth pass for all the steps tried on it. Both ways of ranking orders
walk one graph of the structures that elimination prefixes reach (dynamic
programming over elimination states, as for optimal elimination orders),
so each (structure, candidate) step is decided once, however many orders
take it, and each structure's complexity is summed once. Only the steps
of the plan handed back run on the tables, which is where zero-mass
evidence raises ZeroProbabilityEvidence. Every planner decides each step
through ``_eliminated``, under the reversal cell cap, and ``posterior``'s
fixed order gives way to the greedy plan at its first step past the cap.

``d_separated`` reads conditional independence straight off the graph in
one Bayes-Ball walk (Shachter 1998): a ball sent from one node passes
through unobserved nodes and bounces off observed ones by the trail rules,
and the other node is separated iff the ball never reaches it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, _check_query, known
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
    _depths,
    _fits,
    _free,
    _may_pass_cap,
    _restructure,
    _structure,
)

# Exhaustive search is capped at 8! candidate orderings.
MAX_EXHAUSTIVE_NODES = 8
GREEDY_SAMPLE_COUNT = 32


@dataclass(frozen=True)
class Metrics:
    """Diagram complexity: arcs, and free parameters across all tables."""

    arc_count: int
    free_parameter_count: int


@dataclass(frozen=True)
class Plan:
    """A legal sequence of transform steps, with their summed costs."""

    steps: tuple[TransformStep, ...]
    total_added_arcs: int
    total_parameters_touched: int

    def encode(self) -> str:
        return "; ".join(step.encode() for step in self.steps)


def _plan_of(steps) -> Plan:
    """The steps with their cost totals."""
    return Plan(tuple(steps), sum(s.added_arcs for s in steps),
                sum(s.parameters_touched for s in steps))


def _summed(shape: dict, arity: dict) -> tuple[int, int]:
    """The complexity of a structure, (arcs, free parameters)."""
    return (sum(len(ps) for ps, _ in shape.values()),
            sum(_free(arity, n, entry) for n, entry in shape.items()))


def complexity(diagram: Diagram) -> Metrics:
    return Metrics(*_summed(*_structure(diagram)))


def posterior(diagram: Diagram, target: str,
              evidence: dict[str, str]) -> tuple[np.ndarray, Plan]:
    """Posterior over the target's outcomes, computed by arc reversal.

    Returns the probability vector and the plan that produced it. Matches
    the enumeration oracle within tight tolerance; raises
    ZeroProbabilityEvidence when the evidence has no mass. The plan is the
    fixed order while each of its reversals fits MAX_REVERSAL_CELLS, else
    the greedy plan; TooLarge is raised only when no greedy step fits.
    """
    _check_query(diagram, target, evidence)
    work = _Work(diagram)
    steps = [work.take(decided) for decided in _fixed_plan(
        work.shape, work.arity, target, evidence)]
    # A copy: the caller gets a writable vector, not a view of a table.
    return np.array(work.grid(target)[1]), _plan_of(steps)


# -- reversal-order search ----------------------------------------------------

def _fixed_plan(shape: dict, arity: dict, target: str,
                evidence: dict) -> list[tuple]:
    """``posterior``'s fixed order, as decided steps: barren nodes first,
    by name; then evidence, then nuisance nodes, each earliest by (depth,
    name), as topological_order lists them, from a depth pass handed on to
    the step. The first pass, made up front to refuse a cyclic diagram,
    serves the first such step: deleting a childless node changes no other
    node's depth. Each step is decided under the reversal cell cap; at
    the first that does not fit, the plan is the greedy plan instead."""
    capped, start, depth = _may_pass_cap(arity), shape, _depths(shape)
    decided = []
    while len(shape) > 1:
        parented = {p for ps, _ in shape.values() for p in ps}
        barren = [n for n in shape
                  if n not in parented and n != target and n not in evidence]
        depth = depth or (None if barren else _depths(shape))
        name = min(barren) if barren else min(
            [n for n in evidence if n in shape]
            or (n for n in shape if n != target), key=lambda n: (depth[n], n))
        taken = _eliminated(shape, arity, name, evidence, capped, depth)
        if taken is None:
            return _greedy_plan(start, arity, target, evidence)
        decided.append(taken)
        shape, depth = taken[0], depth if barren else None
    return decided


def _eliminated(shape: dict, arity: dict, name: str, evidence: dict,
                capped: bool, depth: dict | None = None):
    """The decided step taking ``name`` out of ``shape``: condition on its
    evidence, else sum it out, or just delete it once it is barren. None
    when ``capped`` and a reversal of the step passes MAX_REVERSAL_CELLS."""
    kind = (CONDITION if name in evidence
            else SUM_OUT if any(name in ps for ps, _ in shape.values())
            else REMOVE_BARREN)
    taken = _restructure(shape, arity, kind, name, outcome=evidence.get(name),
                         depth=depth)
    if capped and not _fits(arity, taken[2]):
        return None
    return taken


def _ranked(shape: dict, arity: dict, evidence: dict,
            orders) -> tuple[list, list]:
    """The plan of each order that fits the reversal cell cap, with the
    *peak* complexity the diagram reaches along it, best first by added
    arcs, then encoding; and the decided steps of the first.

    The orders walk one graph of structures, from the caller's ``shape``
    and ``arity``. A state is the structure a prefix reaches, [structure,
    depth pass made at its first decision, edges, complexity]: what can
    follow depends only on each remaining node's parents and kind (arities
    are fixed per name, evidence per call). Its complexity is summed once,
    when the walk first reaches it, and an order's peak is the largest
    over the states it passes through. An edge per node taken out holds
    the decided step and the next state, or None past the cap, which drops
    the order; so each (structure, node) step is decided once. The key is
    the structure, not the set of nodes eliminated: fill-in depends on the
    order."""
    capped = _may_pass_cap(arity)
    states: dict[tuple, list] = {}

    def state(shape: dict) -> list:
        key = tuple(shape.items())
        if key not in states:
            states[key] = [shape, None, {}, _summed(shape, arity)]
        return states[key]

    start = state(shape)
    ranked = []
    for order in orders:
        here, steps = start, []
        top_arcs, top_params = start[3]
        for name in order:
            shape, depth, edges, _ = here
            if name not in edges:
                if depth is None:
                    depth = here[1] = _depths(shape)
                taken = _eliminated(shape, arity, name, evidence, capped, depth)
                edges[name] = taken and (taken, state(taken[0]))
            if edges[name] is None:
                break
            (_, step, _), here = edges[name]
            arcs, params = here[3]
            top_arcs, top_params = max(top_arcs, arcs), max(top_params, params)
            steps.append(step)
        else:
            ranked.append((_plan_of(steps), Metrics(top_arcs, top_params)))
    ranked.sort(key=lambda pm: (pm[0].total_added_arcs, pm[0].encode()))
    here, decided = start, []
    for step in ranked[0][0].steps if ranked else ():
        taken, here = here[2][step.node]
        decided.append(taken)
    return ranked, decided


def _greedy_plan(shape: dict, arity: dict, target: str,
                 evidence: dict) -> list:
    """The greedy plan's decided steps: at each step, the elimination that
    adds the fewest arcs (ties broken by the step's string encoding),
    skipping any step with a reversal past MAX_REVERSAL_CELLS; raises
    TooLarge when none is left. Every candidate of a round shares one depth
    pass. Evidence nodes leave only by conditioning, so once the target
    stands alone none is pending."""
    capped = _may_pass_cap(arity)
    decided = []
    while len(shape) > 1:
        best = None
        depth = _depths(shape)
        for name in sorted(shape.keys() - {target}):
            taken = _eliminated(shape, arity, name, evidence, capped, depth)
            if taken is None:
                continue
            key = (taken[1].added_arcs, taken[1].encode())
            if best is None or key < best[0]:
                best = (key, taken)
        if best is None:
            raise TooLarge("every step left needs a reversal over the "
                           "reversal cell cap")
        decided.append(best[1])
        shape = best[1][0]
    return decided


def plan_reversals(diagram: Diagram, target: str, evidence: dict[str, str],
                   strategy: str = "greedy") -> Plan:
    """Plan the transform sequence for a query without caring about the
    answer, only about arc fill-in.

    ``greedy`` locally minimizes arcs added per step among the steps whose
    reversals fit MAX_REVERSAL_CELLS; ``exhaustive`` tries every
    elimination ordering (capped at 8! candidates), ranks only the orders
    that fit MAX_REVERSAL_CELLS, and returns one with minimal total added
    arcs. Either raises TooLarge when nothing fits.
    """
    _check_query(diagram, target, evidence)
    if strategy == "greedy":
        work = _Work(diagram)
        decided = _greedy_plan(work.shape, work.arity, target, evidence)
        for taken in decided:
            work.take(taken)
        return _plan_of([taken[1] for taken in decided])
    if strategy == "exhaustive":
        return compare_orders(diagram, target, evidence, "exhaustive")[0][0]
    raise InvalidParameters(f"unknown strategy {strategy!r}")


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
    each (structure, node) step once and summing each structure's
    complexity once; only the top-ranked plan runs on the tables, as the
    steps the walk decided.
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
        greedy = _greedy_plan(work.shape, work.arity, target, evidence)
        orders = [tuple(taken[1].node for taken in greedy)]
        rng = random.Random(0)
        for _ in range(GREEDY_SAMPLE_COUNT):
            perm = list(others)
            rng.shuffle(perm)
            if tuple(perm) not in orders:
                orders.append(tuple(perm))
    else:
        raise InvalidParameters(f"unknown mode {mode!r}")
    ranked, decided = _ranked(work.shape, work.arity, evidence, orders)
    if not ranked:
        raise TooLarge("every order needs a reversal over the reversal "
                       "cell cap")
    for taken in decided:  # run the top-ranked plan on the tables
        work.take(taken)
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

    # Bayes-Ball (Shachter 1998): b is separated iff a ball sent from a
    # never reaches it. A ball records whether it arrived from a child.
    kids = diagram.children_map()
    seen = set()
    frontier = [(a, True)]  # a starts as if its ball came from a child
    while frontier:
        node, from_child = frontier.pop()
        if (node, from_child) in seen:
            continue
        seen.add((node, from_child))
        if node == b:
            return False
        parents = diagram.nodes[node].parents
        if node in given:
            # Observed: bounce a ball from a parent back up; stop one from below.
            if not from_child:
                frontier.extend((p, True) for p in parents)
        else:
            # Unobserved: pass every ball down, and one from below up too.
            if from_child:
                frontier.extend((p, True) for p in parents)
            frontier.extend((c, False) for c in kids[node])
    return True
