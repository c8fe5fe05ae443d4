"""An exact referee: the joint enumerated in rational arithmetic.

Every float in a model is a dyadic rational, so ``fractions.Fraction``
holds each table entry exactly, and the chain-rule product and the sums
of the joint then carry no rounding at all. The exact posterior referees
both ``posterior`` and ``oracle_posterior``. On ``seeded_query_case(0..99)``
the worst total variation measured 1.7e-16 for ``posterior`` and 1.0e-16
for the oracle, six orders under the 1e-10 the other tests allow; the
bound here sits a hundredfold over the measured worst.
"""

import itertools
from fractions import Fraction

import numpy as np

from conftest import seeded_query_case
from infdiag import oracle_posterior, posterior, topological_order
from infdiag.diagram import Cpt, parent_arities, row_index

EXACT_TV = 2e-14
CASES = range(100)


def exact_posterior(diagram, target, evidence) -> list[Fraction]:
    """P(target | evidence) as exact fractions, by enumerating the joint."""
    order = topological_order(diagram)
    axis = {v: i for i, v in enumerate(order)}
    nodes = [diagram.nodes[v] for v in order]
    tables = []
    for spec in nodes:
        if isinstance(spec.table, Cpt):
            tables.append([[Fraction(p) for p in row]
                           for row in spec.table.rows.tolist()])
        else:
            tables.append([[Fraction(int(e == o)) for o in
                            range(spec.n_outcomes)]
                           for e in spec.table.entries])
    arities = [parent_arities(diagram, spec) for spec in nodes]
    parents = [[axis[q] for q in spec.parents] for spec in nodes]
    fixed = {axis[v]: diagram.nodes[v].outcomes.index(o)
             for v, o in evidence.items()}
    mass = [Fraction(0)] * diagram.nodes[target].n_outcomes
    for combo in itertools.product(*(range(s.n_outcomes) for s in nodes)):
        if any(combo[i] != o for i, o in fixed.items()):
            continue
        p = Fraction(1)
        for i, table in enumerate(tables):
            row = row_index(arities[i], [combo[j] for j in parents[i]])
            p *= table[row][combo[i]]
            if not p:
                break
        mass[combo[axis[target]]] += p
    total = sum(mass)
    return [m / total for m in mass]


def total_variation(vec, exact) -> float:
    return float(sum(abs(Fraction(float(v)) - e)
                     for v, e in zip(vec, exact)) / 2)


def test_posterior_and_oracle_match_the_exact_answer():
    worst = {"posterior": 0.0, "oracle": 0.0}
    for seed in CASES:
        d, target, evidence = seeded_query_case(seed)
        exact = exact_posterior(d, target, evidence)
        assert sum(exact) == 1
        vec, _ = posterior(d, target, evidence)
        for name, got in (("posterior", vec),
                          ("oracle", oracle_posterior(d, target, evidence))):
            worst[name] = max(worst[name], total_variation(got, exact))
    assert max(worst.values()) <= EXACT_TV, worst
    # The referee itself: a perturbed answer is seen.
    d, target, evidence = seeded_query_case(0)
    exact = exact_posterior(d, target, evidence)
    off = np.array([float(e) for e in exact]) + np.array(
        [1e-13] + [0.0] * (len(exact) - 2) + [-1e-13])
    assert total_variation(off, exact) > EXACT_TV
