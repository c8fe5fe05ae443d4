"""Golden plans of ``posterior``.

``golden_plans.json`` holds, for each of ``seeded_query_case(0..59)`` and
four fixed queries on every committed model under ``docs/``, the query
and each step of the plan ``posterior`` ran: its encoding, arcs added,
parameters touched and zero rows filled. It was recorded before
``posterior`` deleted barren nodes without ``_restructure`` and before a
conditioning step shared one depth pass between its reversals, so both
are pinned to the plans of the engine that recomputed everything per step.

To record the fixture again, which is right only when a plan is meant to
change:

    PYTHONPATH=src python tests/test_golden_plans.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import DOCS, positive_query, seeded_query_case  # noqa: E402
from infdiag import load, posterior  # noqa: E402

FIXTURE = HERE / "golden_plans.json"


def queries():
    """(label, diagram, target, evidence) of every pinned query."""
    for seed in range(60):
        yield (f"seeded_query_case({seed})",) + seeded_query_case(seed)
    for path in sorted(DOCS.glob("*.json")):
        d = load(path.read_text())
        rng = random.Random(path.name)
        for k in range(4):
            yield (f"docs/{path.name}#{k}", d) + positive_query(d, rng)


def record(target, evidence, plan) -> dict:
    return {"target": target, "evidence": evidence,
            "steps": [[s.encode(), s.added_arcs, s.parameters_touched,
                       [list(z) for z in s.zero_rows]] for s in plan.steps]}


def plans() -> dict:
    return {label: record(t, e, posterior(d, t, e)[1])
            for label, d, t, e in queries()}


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


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(plans(), indent=0) + "\n", encoding="utf-8")
