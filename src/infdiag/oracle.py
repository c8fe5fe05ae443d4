"""Ground-truth engine: the full joint distribution by brute enumeration.

Every transform in this package is contractually required to preserve the
joint it represents; this module is the independent referee. It builds the
complete joint table (guarded to 2**22 entries) by multiplying every node's
conditional table over the full outcome grid, and answers posterior queries
by slicing and renormalizing that table. Nothing here uses arc reversal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .diagram import (
    Diagram,
    _check_query,
    table_array,
    topological_order,
    validate,
)
from .errors import (
    InvalidDiagram,
    TooLarge,
    UnknownNode,
    ZeroProbabilityEvidence,
)

# The oracle is a desk-scale test instrument, not the production path.
MAX_JOINT_ENTRIES = 2 ** 22


@dataclass(frozen=True)
class JointTable:
    """Dense joint distribution.

    ``probs`` has one axis per variable, axes in ``variables`` order
    (the diagram's canonical topological order); flattening it in C order
    enumerates assignments with the last variable varying fastest.
    """

    variables: tuple[str, ...]
    outcomes: tuple[tuple[str, ...], ...]
    probs: np.ndarray

    def axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownNode(f"unknown node '{name}'") from None

    def prob(self, assignment: dict[str, str]) -> float:
        """Probability of one full assignment, labels keyed by node name."""
        if set(assignment) != set(self.variables):
            raise UnknownNode("assignment must cover every variable exactly")
        idx = tuple(self.outcomes[i].index(assignment[v])
                    for i, v in enumerate(self.variables))
        return float(self.probs[idx])

    def items(self):
        """Yield (assignment dict, probability) in enumeration order."""
        for combo in itertools.product(*(range(len(o)) for o in self.outcomes)):
            labels = {v: self.outcomes[i][combo[i]]
                      for i, v in enumerate(self.variables)}
            yield labels, float(self.probs[combo])

    def marginal(self, keep: tuple[str, ...]) -> np.ndarray:
        """Sum out everything except ``keep``; axes follow ``keep`` order."""
        drop = tuple(i for i, v in enumerate(self.variables) if v not in keep)
        arr = self.probs.sum(axis=drop) if drop else self.probs
        kept = [v for v in self.variables if v in keep]
        perm = [kept.index(v) for v in keep]
        return np.transpose(arr, perm)

    def reordered(self, variables) -> np.ndarray:
        """The full table with axes permuted to the given variable order."""
        variables = tuple(variables)
        if sorted(variables) != sorted(self.variables):
            raise UnknownNode("reorder must use exactly the same variables")
        perm = [self.variables.index(v) for v in variables]
        return np.transpose(self.probs, perm)


def _align(arr: np.ndarray, labels, target, counts) -> np.ndarray:
    """Permute/reshape ``arr`` (axes named ``labels``) so it broadcasts
    against a grid whose axes are ``target``."""
    pos = {v: i for i, v in enumerate(target)}
    perm = sorted(range(len(labels)), key=lambda i: pos[labels[i]])
    arr = np.transpose(arr, perm)
    shape = [counts[v] if v in labels else 1 for v in target]
    return arr.reshape(shape)


def joint_table(diagram: Diagram) -> JointTable:
    """Materialize the joint: entry(a) = prod over nodes of P(a_n | a_parents).

    Deterministic nodes enter as 0/1 indicators, so assignments that break a
    function get exactly zero mass. Raises TooLarge past the 2**22-entry
    guard and InvalidDiagram when validation fails.
    """
    report = validate(diagram)
    if not report.ok:
        raise InvalidDiagram(report)
    order = topological_order(diagram)
    counts = {v: diagram.nodes[v].n_outcomes for v in order}
    total = 1
    for v in order:
        total *= counts[v]
        if total > MAX_JOINT_ENTRIES:
            raise TooLarge(
                f"joint would exceed {MAX_JOINT_ENTRIES} entries")
    probs = np.ones([counts[v] for v in order])
    for v in order:
        spec = diagram.nodes[v]
        local = list(spec.parents) + [v]
        probs = probs * _align(table_array(diagram, v), local, order, counts)
    return JointTable(
        variables=tuple(order),
        outcomes=tuple(diagram.nodes[v].outcomes for v in order),
        probs=probs,
    )


def _evidence_indices(diagram: Diagram, evidence: dict[str, str]) -> dict[str, int]:
    return {name: diagram.nodes[name].outcomes.index(label)
            for name, label in evidence.items()}


def oracle_posterior(diagram: Diagram, target: str,
                     evidence: dict[str, str]) -> np.ndarray:
    """Exact posterior over the target's outcomes, by enumeration.

    Slices the joint at the evidence, sums out everything else, and
    renormalizes. Raises ZeroProbabilityEvidence when the evidence has no
    mass, and posterior's typed errors for arguments of the wrong kind.
    """
    _check_query(diagram, target, evidence)
    ev = _evidence_indices(diagram, evidence)
    table = joint_table(diagram)
    sel: list = [slice(None)] * len(table.variables)
    for name, i in ev.items():
        sel[table.axis(name)] = i
    sliced = table.probs[tuple(sel)]
    remaining = [v for v in table.variables if v not in ev]
    t_axis = remaining.index(target)
    keep_sum = tuple(i for i in range(len(remaining)) if i != t_axis)
    vec = sliced.sum(axis=keep_sum) if keep_sum else sliced
    mass = float(vec.sum())
    if mass == 0.0:
        raise ZeroProbabilityEvidence(
            f"evidence {evidence!r} has probability zero")
    return vec / mass
