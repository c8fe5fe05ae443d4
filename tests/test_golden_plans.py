"""Golden plans of ``posterior`` and of the planners.

``golden_plans.json`` holds, for each of ``seeded_query_case(0..59)`` and
four fixed queries on every committed model under ``docs/``, the query
and each step of the plan ``posterior`` ran: its encoding, arcs added,
parameters touched and zero rows filled. It was recorded before
``posterior`` deleted barren nodes without ``_restructure`` and before a
conditioning step shared one depth pass between its reversals, so both
are pinned to the plans of the engine that recomputed everything per step.

``golden_planners.json`` holds, for the same queries, the plans of
``plan_reversals`` (greedy and exhaustive) and the whole
``compare_orders(..., "greedy-sample")`` ranking with each plan's peak
complexity, steps recorded the same way. It was recorded before ``posterior``
and ``plan_reversals`` ran their planners' decided steps through one
executor, so that change is pinned to the plans of the engine that
decided each planned step again when running it. It was recorded again
when the planners began handing back the steps their run returned, with
the zero rows it filled; only those rows moved.

Both fixtures, the four seeded ``RANKING_DIGESTS`` and the ``seeded``,
``referee`` and ``many_outcomes`` ``ANSWER_DIGESTS`` were recorded again
when a conditioning step began computing only the observed outcome of its
evidence node, so that its zero rows index the reversed parent's kept
table. The engine before it, with each conditioning step's rows (x, y, r)
kept where r % k is the observed outcome's index and re-indexed r // k,
k the evidence node's outcome count, reproduces every one of them.

``golden_plans.json`` and the ``seeded``, ``docs``, ``referee`` and
``many_outcomes`` ``ANSWER_DIGESTS`` were recorded again when
``posterior`` began pruning, before it plans, every node its target
cannot see; each record now holds the plan's ``pruned`` list too. Every
answer vector kept its bytes: only the plans moved, as nodes the fixed
order deleted or conditioned went into ``pruned`` instead.
``golden_planners.json`` and ``RANKING_DIGESTS`` did not change.

To record both fixtures again, which is right only when a plan is meant to
change:

    PYTHONPATH=src python tests/test_golden_plans.py

``RANKING_DIGESTS`` pins the whole ``compare_orders(..., "exhaustive")``
output, as SHA-256 digests: every ranked plan's steps (encoding, arcs added,
parameters touched, zero rows), its totals and its peak complexity, or the
type of the error raised. It covers ``seeded_query_case(0..39)`` at the
default reversal cell cap and at caps of 16, 32 and 64 cells, and the
9-node sweep, all 40,320 orders of ``gen_random(9, 3, 0.4, 0.2, 3)`` with
target ``v0``. The digests were recorded with the engine that built the
ranking from recursive completion lists and replayed greedy-sample's
orders one by one. The four seeded digests were recorded again when the
top-ranked plan began carrying its run's zero rows; with those rows cleared
the engine reproduces the digests it had before. The digests at caps of
16, 32 and 64 were recorded again when the cap began counting a
conditioning step's observed node as one outcome, the one its reversals
lay out: each ranking is the one before it with the orders added that
only the new count fits, and the engine before it, counting that axis as
one, reproduces them.
``python tests/test_golden_plans.py --digests`` prints them.

``ANSWER_DIGESTS`` pins the bits of the answers themselves, as SHA-256
digests of each answer or of the type of the error raised: ``posterior``'s
vector bytes and plan steps (with zero rows) on ``seeded_query_case(0..99)``
and on the four ``docs/`` queries per model; the same on the referee grid of
``tests/test_referee.py``, n in {20, 25, 30} by seeds 0-2, both evidence
sets; the ``save`` text of ``refactor`` to the reversed topological order
for ``gen_random(n, 3, 0.35, 0.2, s)``, n in 9-11 and s in 0-9; and the
``save`` text of ``condition`` on every outcome and of ``sum_out`` of every
node of ``docs/fig9.json``. They were recorded with the kernel that laid a
reversal's product out as (merged parents, x, y) and computed every table
in full; the same printer prints them. The last case, ``posterior`` on
``gen_random(n, 10, 0.5, 0.2, s)``, n in {5, 6} and s in 0-9, each with a
``positive_query``, pins the bits at 8 to 10 outcomes, where a marginal's
sum order decides its last bits. It was recorded with the engine whose
planners carried complexity forward by each step's change.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import DOCS, positive_query, seeded_query_case  # noqa: E402
from infdiag import (  # noqa: E402
    compare_orders, condition, gen_random, load, plan_reversals, posterior,
    refactor, save, sum_out, topological_order, transform)
from infdiag.errors import EngineError  # noqa: E402
from infdiag.inference import _fixed_plan  # noqa: E402

FIXTURE = HERE / "golden_plans.json"
PLANNERS = HERE / "golden_planners.json"


def queries():
    """(label, diagram, target, evidence) of every pinned query."""
    for seed in range(60):
        yield (f"seeded_query_case({seed})",) + seeded_query_case(seed)
    for path in sorted(DOCS.glob("*.json")):
        d = load(path.read_text())
        rng = random.Random(path.name)
        for k in range(4):
            yield (f"docs/{path.name}#{k}", d) + positive_query(d, rng)


def steps(plan) -> list:
    return [[s.encode(), s.added_arcs, s.parameters_touched,
             [list(z) for z in s.zero_rows]] for s in plan.steps]


def record(target, evidence, plan) -> dict:
    return {"target": target, "evidence": evidence,
            "pruned": [list(p) for p in plan.pruned], "steps": steps(plan)}


def plans() -> dict:
    return {label: record(t, e, posterior(d, t, e)[1])
            for label, d, t, e in queries()}


def planned(d, target, evidence) -> dict:
    ranking = compare_orders(d, target, evidence, "greedy-sample")
    return {strategy: steps(plan_reversals(d, target, evidence, strategy))
            for strategy in ("greedy", "exhaustive")} | {
        "greedy-sample": [{"steps": steps(p),
                           "peak": [m.arc_count, m.free_parameter_count]}
                          for p, m in ranking]}


def planner_plans() -> dict:
    return {label: planned(d, t, e) for label, d, t, e in queries()}


def test_posterior_reproduces_the_golden_plans():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = plans()
    assert list(got) == list(want)
    for label in want:
        assert got[label] == want[label], label


def test_golden_plans_cover_barren_conditioning_and_zero_rows():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    steps = [s for rec in want.values() for s in rec["steps"]]
    kinds = {s[0].split(":", 1)[0] for s in steps}
    assert kinds == {"remove_barren", "condition", "sum_out"}
    assert any(s[3] for s in steps)
    # Pruning both slices evidence and drops nodes unread.
    pruned = {o is None for rec in want.values() for _, o in rec["pruned"]}
    assert pruned == {True, False}


def test_planners_reproduce_the_golden_plans():
    want = json.loads(PLANNERS.read_text(encoding="utf-8"))
    got = planner_plans()
    assert list(got) == list(want)
    for label in want:
        assert got[label] == want[label], label


def test_golden_planner_plans_cover_every_kind_of_step():
    want = json.loads(PLANNERS.read_text(encoding="utf-8"))
    for key in ("greedy", "exhaustive"):
        kinds = {s[0].split(":", 1)[0] for rec in want.values()
                 for s in rec[key]}
        assert kinds == {"remove_barren", "condition", "sum_out"}, key
    assert all(len(rec["greedy-sample"]) > 1 for rec in want.values()
               if len(rec["greedy"]) > 1)


def ranking(d, target, evidence):
    """The exhaustive ranking as plain data, or the type of its error."""
    try:
        ranked = compare_orders(d, target, evidence, "exhaustive")
    except EngineError as e:
        return type(e).__name__
    return [[steps(p), p.total_added_arcs, p.total_parameters_touched,
             [m.arc_count, m.free_parameter_count]] for p, m in ranked]


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def ranking_digest(case) -> str:
    """The digest of the 9-node sweep's ranking for "sweep", else of the
    seeded cases' rankings under the cell cap in force."""
    if case == "sweep":
        return digest(ranking(gen_random(9, 3, 0.4, 0.2, 3), "v0", {}))
    return digest([ranking(*seeded_query_case(seed)) for seed in range(40)])


CASES = ("default", 16, 32, 64, "sweep")

RANKING_DIGESTS = {
    "default":
        "e7a25d64f0afdd07272f3086a288c63b4d4ce14526a813e2557c6b76e429c7fa",
    16: "d6ee3ae126e7909c3b75701c002862068b11874bc668fd8ecbc5eb8e501d30c6",
    32: "f5826dbd436e2ebc875544f9f672805d63c251bbe3bb3cd2efe0177b2ea2bb92",
    64: "dd066f6b7f9c676a436d367c6250d775aa4c03bdfe87ff6907b7bf7de05757d4",
    "sweep":
        "fa7cb73b2d046dc5ccfa4af8bf783e47dea428dfe5bfd6a09bebd69d6cab7b1a",
}


@pytest.mark.parametrize("case", CASES)
def test_exhaustive_rankings_match_their_digests(case, monkeypatch):
    if isinstance(case, int):
        monkeypatch.setattr(transform, "MAX_REVERSAL_CELLS", case)
    assert ranking_digest(case) == RANKING_DIGESTS[case]


def outcome(f, *args):
    """``f(*args)``, or the type of the engine error it raises."""
    try:
        return f(*args)
    except EngineError as e:
        return type(e).__name__


def answer(d, target, evidence):
    """``posterior``'s vector bytes and plan steps, or its error type."""
    got = outcome(posterior, d, target, evidence)
    return got if isinstance(got, str) else [got[0].tobytes().hex(),
                                             steps(got[1])]


def referee_queries():
    """The referee grid's queries: v0 given the last node, then also given
    the median node with children, as ``tests/test_referee.py`` asks."""
    for n in (20, 25, 30):
        for seed in range(3):
            d = gen_random(n, 3, 0.15, 0.2, seed)
            inner = [v for v in d.nodes if v != "v0"
                     and any(v in s.parents for s in d.nodes.values())]
            last = {f"v{n - 1}": "o0"}
            yield d, "v0", last
            yield d, "v0", {inner[len(inner) // 2]: "o0"} | last


def saved(f, d, *args):
    got = outcome(f, d, *args)
    return got if isinstance(got, str) else save(got)


def fig9_rewrites():
    d = load((DOCS / "fig9.json").read_text())
    for name, spec in d.nodes.items():
        for label in spec.outcomes:
            yield saved(condition, d, name, label)
        yield saved(sum_out, d, name)


def many_outcome_queries():
    """Queries on models of 2 to 10 outcomes a node, at most six nodes, so
    that every joint fits the oracle that ``positive_query`` samples."""
    for n in (5, 6):
        for seed in range(10):
            d = gen_random(n, 10, 0.5, 0.2, seed)
            yield (d,) + positive_query(d, random.Random(seed))


def test_many_outcome_queries_sum_marginals_over_eight_outcomes():
    # numpy's sum over a last axis adds pairwise from 8 entries on, which
    # changes last bits: the case must reverse arcs from such an x.
    widest = 0
    for d, target, evidence in many_outcome_queries():
        shape, arity, depth = transform._structure(d)
        for _, _, reversals, _ in _fixed_plan(shape, arity, target,
                                              evidence, depth):
            widest = max([widest] + [arity[x] for x, _, _, substitute
                                     in reversals if not substitute])
    assert widest >= 8


def answers(case) -> list:
    if case == "seeded":
        return [answer(*seeded_query_case(seed)) for seed in range(100)]
    if case == "docs":
        return [answer(d, t, e) for label, d, t, e in queries()
                if label.startswith("docs/")]
    if case == "referee":
        return [answer(*q) for q in referee_queries()]
    if case == "many_outcomes":
        return [answer(*q) for q in many_outcome_queries()]
    if case == "refactor":
        return [saved(refactor, d, topological_order(d)[::-1])
                for d in (gen_random(n, 3, 0.35, 0.2, s)
                          for n in (9, 10, 11) for s in range(10))]
    return list(fig9_rewrites())


ANSWER_CASES = ("seeded", "docs", "referee", "refactor", "fig9",
                "many_outcomes")

ANSWER_DIGESTS = {
    "seeded":
        "75b168131624863dd847fa7b45251e787fd1eabaad4b107cfc471732dfb33d65",
    "docs":
        "8f204257b02a7b38e48679fde4527ca1e8c236770e8ad3f4f20f57563f1951ae",
    "referee":
        "b049324a6e2c7a224c4c79cf719bf06a41b4418dab63d0d93c91c84b101d6c47",
    "refactor":
        "a1fccef72d2ab61948b4fdae0804d0c50a0a335d08910f799a1876a6caf18fc1",
    "fig9":
        "8ebab99440db7137362050f266675ca7c28e3202a789070042ceb45e1886b4e8",
    "many_outcomes":
        "7017c7dcba9099162379603f151026b3f05177d6f912c0c7fe6561bfc338b1e7",
}


@pytest.mark.parametrize("case", ANSWER_CASES)
def test_answers_match_their_digests(case):
    assert digest(answers(case)) == ANSWER_DIGESTS[case]


if __name__ == "__main__" and sys.argv[1:] == ["--digests"]:
    default = transform.MAX_REVERSAL_CELLS
    for case in CASES:
        transform.MAX_REVERSAL_CELLS = (case if isinstance(case, int)
                                        else default)
        print(f"    {case!r}: \"{ranking_digest(case)}\",")
    transform.MAX_REVERSAL_CELLS = default
    for case in ANSWER_CASES:
        print(f"    {case!r}: \"{digest(answers(case))}\",")
elif __name__ == "__main__":
    FIXTURE.write_text(json.dumps(plans(), indent=0) + "\n", encoding="utf-8")
    PLANNERS.write_text(json.dumps(planner_plans(), indent=0) + "\n",
                        encoding="utf-8")
