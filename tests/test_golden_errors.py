"""Golden error messages for about 3,000 broken model documents.

A seeded generator mutates the committed models under ``docs/`` and
models drawn by ``gen_random``: it drops, retypes or adds fields, perturbs
numbers (NaN, infinities, huge integers, values out of range), makes rows
ragged, adds or drops rows, duplicates parents, closes cycles, breaks
names and outcome lists, swaps kinds, and truncates the text.
``golden_errors.json`` holds, for each generated document, what ``load``
raised (``Type: message``, or ``ok``), and what ``infdiag validate``
printed wherever that differs. It was recorded with the loader that
type-checked every number while parsing and then ran ``validate`` on the
built diagram, so every message and every ordering between errors is
pinned to that loader's. A hash of the generated texts is stored beside
the answers, so a change to the generator fails loudly instead of quietly
testing other inputs.

``load`` accepts a valid document in one pass and sends only a document
with a node in doubt or a cycle to the full report, so the fixture also
pins which documents that one pass must refuse: every answer other than
``ok`` is one it must not accept.

To record the fixture again, which is right only when a message is meant
to change:

    PYTHONPATH=src python tests/test_golden_errors.py
"""

from __future__ import annotations

import copy
import functools
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import DOCS  # noqa: E402
from infdiag import gen_random, load, save  # noqa: E402
from infdiag import cli  # noqa: E402
from infdiag.errors import EngineError  # noqa: E402

FIXTURE = HERE / "golden_errors.json"
COUNT = 3000

JUNK = (None, True, False, 0, 1, -1, 0.5, "x", "", [], {}, ["a"], [0],
        [[0.5, 0.5]], {"a": 1}, 10 ** 400)
NAMES = ("1bad", "", "has space", "ok_name", "ü", "a-b", "_")


def _bases() -> list[str]:
    texts = [p.read_text() for p in sorted(DOCS.glob("*.json"))]
    for seed in range(40):
        texts.append(save(gen_random(
            2 + seed % 5, 2 + seed % 3, 0.5, (seed % 4) / 4, seed)))
    return texts


def _table(node):
    return node.get("cpt", node.get("function"))


def _cpt_value(rng, old):
    if rng.random() < 0.1:
        return rng.choice((True, "0.5", None, [0.5]))
    return rng.choice((
        old + rng.choice((1e-12, 1e-6, 0.1, -0.1)) if type(old) is float
        else old, -0.25, 1.5, 0, 1, 2, float("nan"), float("inf"),
        -float("inf"), 10 ** 400, -(10 ** 400), 2 ** 63))


def _function_value(rng, m):
    if rng.random() < 0.1:
        return rng.choice((0.0, 1.5, True, "0", None))
    return rng.choice((-1, m, m + 1, 2 ** 63, -(2 ** 63) - 1, 10 ** 400))


def _arity(nodes, name):
    for n in nodes:
        if isinstance(n, dict) and n.get("name") == name:
            outcomes = n.get("outcomes")
            return len(outcomes) if isinstance(outcomes, list) else 1
    return 1


def _mutate(doc: dict, rng: random.Random) -> None:
    """One random change to ``doc``, in place."""
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes or rng.random() < 0.05:
        key = rng.choice(("version", "nodes", "extra"))
        if key in doc and rng.random() < 0.4:
            del doc[key]
        else:
            doc[key] = copy.deepcopy(rng.choice(JUNK + (2, 1.0, "1")))
        return
    node = rng.choice(nodes)
    if not isinstance(node, dict):
        nodes.remove(node)
        return
    fields = sorted(node)
    table = _table(node)
    parents = node.get("parents")
    outcomes = node.get("outcomes")
    kind = rng.randrange(16)
    if kind == 0 and fields:
        del node[rng.choice(fields)]
    elif kind == 1 and fields:
        node[rng.choice(fields)] = copy.deepcopy(rng.choice(JUNK))
    elif kind == 2:
        node[rng.choice(("color", "cpt", "function"))] = [[0.5, 0.5]]
    elif kind in (3, 4, 13) and isinstance(table, list) and table:
        j = rng.randrange(len(table))
        if "cpt" in node and isinstance(table[j], list) and table[j]:
            k = rng.randrange(len(table[j]))
            table[j][k] = _cpt_value(rng, table[j][k])
        elif "function" in node:
            m = len(outcomes) if isinstance(outcomes, list) else 2
            table[j] = _function_value(rng, m)
    elif kind == 5 and isinstance(table, list) and table:
        row = rng.choice(table)
        if isinstance(row, list):
            if row and rng.random() < 0.5:
                row.pop()
            else:
                row.append(0.0)
    elif kind == 6 and isinstance(table, list):
        if table and rng.random() < 0.5:
            table.pop(rng.randrange(len(table)))
        else:
            table.append(copy.deepcopy(rng.choice(table)) if table else 0)
    elif kind == 7 and isinstance(parents, list):
        if parents and rng.random() < 0.6:
            parents.append(rng.choice(parents))
        else:
            parents.append(rng.choice((node.get("name"), "ghost")))
    elif kind == 8 and isinstance(parents, list) and parents:
        parents.pop(rng.randrange(len(parents)))
    elif kind == 9 and isinstance(parents, list) and parents:
        # Close a cycle: the node becomes the last parent of one of its
        # parents, whose table repeats each row once per new outcome.
        up = [n for n in nodes if isinstance(n, dict)
              and n.get("name") == parents[0]]
        if up and isinstance(up[0].get("parents"), list):
            up[0]["parents"].append(node.get("name"))
            rows = _table(up[0])
            if isinstance(rows, list):
                k = _arity(nodes, node.get("name"))
                rows[:] = [copy.deepcopy(r) for r in rows for _ in range(k)]
    elif kind == 10:
        others = [n.get("name") for n in nodes if isinstance(n, dict)]
        node["name"] = rng.choice(NAMES + tuple(others))
    elif kind == 11 and isinstance(outcomes, list):
        choice = rng.randrange(5)
        if choice == 0 and outcomes:
            outcomes.append(outcomes[0])
        elif choice == 1 and outcomes:
            outcomes[-1] = ""
        elif choice == 2:
            del outcomes[1:]
        elif choice == 3:
            outcomes.append("extra")
        elif outcomes:
            outcomes.pop()
    elif kind == 12:
        node["kind"] = ("probabilistic" if node.get("kind") == "deterministic"
                        else "deterministic")
    else:
        rng.shuffle(nodes)


def broken_documents() -> list[str]:
    """The seeded corpus: ``COUNT`` document texts, each made by one to
    three mutations of a base model; one in twenty is then cut short."""
    rng = random.Random("infdiag-golden-errors")
    bases = _bases()
    texts = []
    for _ in range(COUNT):
        doc = json.loads(rng.choice(bases))
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            _mutate(doc, rng)
        text = json.dumps(doc, indent=rng.choice((None, 2)))
        if rng.random() < 0.05:
            text = text[:rng.randrange(len(text))]
        texts.append(text)
    return texts


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


def load_outcome(text: str) -> str:
    try:
        load(text)
    except EngineError as err:
        return f"{type(err).__name__}: {err}"
    return "ok"


def cli_outcome(path: Path, text: str) -> str:
    """What ``infdiag validate`` prints for the document: stdout on exit
    0, stderr on exit 1."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    return (out if code == 0 else err).getvalue()


def outcomes(texts: list[str], path: Path) -> dict:
    answers = {"inputs_sha256": digest(texts), "load": [], "cli": {}}
    # One parser serves every call: building it dominates main() otherwise.
    with mock.patch.object(cli, "_build_parser",
                           functools.cache(cli._build_parser)):
        for i, text in enumerate(texts):
            got = load_outcome(text)
            answers["load"].append(got)
            printed = cli_outcome(path, text)
            if printed != got + "\n":
                answers["cli"][str(i)] = printed
    return answers


def test_broken_documents_keep_their_golden_errors(tmp_path):
    texts = broken_documents()
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert digest(texts) == want["inputs_sha256"], (
        "the generator no longer makes the recorded documents")
    got = outcomes(texts, tmp_path / "doc.json")
    for i, text in enumerate(texts):
        assert got["load"][i] == want["load"][i], text
        assert got["cli"].get(str(i)) == want["cli"].get(str(i)), text


def test_golden_corpus_covers_every_error_class():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    kinds = {line.split(":", 1)[0] for line in want["load"]}
    assert kinds >= {
        "ok", "ParseError", "SchemaError", "TableShapeMismatch",
        "NormalizationViolation", "OutcomeOutOfRange", "InvalidNodeSpec",
        "UnknownParent", "CycleDetected"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        answers = outcomes(broken_documents(), Path(tmp) / "doc.json")
    FIXTURE.write_text(json.dumps(answers, indent=0, ensure_ascii=False)
                       + "\n", encoding="utf-8")
