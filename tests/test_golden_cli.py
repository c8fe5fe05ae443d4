"""Golden command-line output, compared byte for byte.

``golden_cli.json`` holds, for a fixed set of ``infdiag`` invocations, the
exit code, stdout and stderr of each, and the text of any file it wrote
with ``-o``. The set runs every subcommand on every committed model under
``docs/``: queries in text and json, with and without ``--explain``,
both ranking modes, each transform to stdout and to a file. It adds every
built-in example, a seeded random model, the usage and engine error cases
(missing file, file that is not UTF-8, unknown example, unknown node,
bad argument syntax), and the ``--help`` text of every parser.

Each invocation runs in a scratch directory that holds a copy of
``docs/``, so every path it names, and so every message, is relative and
the same on any machine. Help text is formatted for 80 columns.

To record the fixture again, which is right only when output is meant to
change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import DOCS, positive_query  # noqa: E402
from infdiag import load, topological_order  # noqa: E402
from infdiag.cli import main  # noqa: E402
from infdiag.modelio import builtin_names  # noqa: E402

FIXTURE = HERE / "golden_cli.json"
OUT = "out.json"
SUBCOMMANDS = ("validate", "query", "reverse", "refactor", "sumout",
               "metrics", "orders", "export-dot", "example", "gen-random",
               "independent")


def _doc_invocations(path: str) -> list[list[str]]:
    diagram = load((DOCS.parent / path).read_text(encoding="utf-8"))
    order = topological_order(diagram)
    target, evidence = positive_query(diagram, random.Random(path))
    query = [path, "--target", target]
    for name, outcome in evidence.items():
        query += ["--evidence", f"{name}={outcome}"]
    src, dst = diagram.arcs[0]
    return [
        ["validate", path],
        ["metrics", path],
        ["export-dot", path],
        ["query", *query],
        ["query", *query, "--explain"],
        ["query", *query, "--format", "json"],
        ["query", *query, "--format", "json", "--explain"],
        ["query", path, "--target", order[-1], "--explain"],
        ["orders", *query],
        ["orders", *query, "--mode", "greedy-sample"],
        ["reverse", path, "--arc", f"{src}:{dst}"],
        ["reverse", path, "--arc", f"{src}:{dst}", "-o", OUT],
        ["refactor", path, "--order", ",".join(reversed(order))],
        ["refactor", path, "--order", ",".join(reversed(order)), "-o", OUT],
        ["sumout", path, "--node", order[len(order) // 2]],
        ["sumout", path, "--node", order[0], "-o", OUT],
        ["independent", path, "--a", order[0], "--b", order[-1]],
        ["independent", path, "--a", order[0], "--b", order[-1],
         "--given", ",".join(order[1:-1]) or order[0]],
    ]


def invocations() -> list[list[str]]:
    """The recorded argument lists, in order."""
    runs = []
    for doc in sorted(DOCS.glob("*.json")):
        runs += _doc_invocations(f"docs/{doc.name}")
    for name in builtin_names():
        runs.append(["example", name])
    fig9 = "docs/fig9.json"
    runs += [
        ["example", "fig9", "-o", OUT],
        ["gen-random", "--nodes", "6", "--seed", "3"],
        ["gen-random", "--nodes", "5", "--max-outcomes", "4", "--density",
         "0.6", "--det-fraction", "0.5", "--seed", "1", "-o", OUT],
        # engine errors, exit 1
        ["validate", "docs/absent.json"],
        ["query", "docs/absent.json", "--target", "x"],
        ["validate", "latin1.json"],
        ["example", "fig99"],
        ["query", fig9, "--target", "ghost"],
        ["query", fig9, "--target", "heart_failure", "--evidence", "ghost=yes"],
        ["query", fig9, "--target", "heart_failure",
         "--evidence", "heart_failure=present"],
        ["query", fig9, "--target", "heart_failure",
         "--evidence", "xray=abnormal", "--evidence", "xray=normal"],
        ["query", fig9, "--target", "heart_failure", "--evidence", "xray=odd"],
        ["orders", fig9, "--target", "ghost"],
        ["reverse", fig9, "--arc", "xray:cardiomegaly"],
        ["reverse", fig9, "--arc", "xray:cardiomegaly", "-o", OUT],
        ["refactor", fig9, "--order", "xray"],
        ["sumout", fig9, "--node", "ghost"],
        ["sumout", fig9, "--node", "ghost", "-o", OUT],
        ["independent", fig9, "--a", "ghost", "--b", "xray"],
        ["gen-random", "--nodes", "3", "--max-outcomes", "1000000",
         "--seed", "1"],
        ["reverse", fig9, "--arc", "cardiomegaly:xray", "-o", "no/dir/out"],
        ["validate", ""],
        ["reverse", fig9, "--arc", "cardiomegaly:xray", "-o", ""],
        # usage errors, exit 2
        [],
        ["bogus"],
        ["validate"],
        ["query", "--target", "heart_failure"],
        ["query", fig9],
        ["query", fig9, "--target", "heart_failure", "--evidence", "xray"],
        ["query", fig9, "--target", "heart_failure", "--format", "yaml"],
        ["reverse", fig9, "--arc", "cardiomegaly->xray"],
        ["refactor", fig9, "--order", "a,,b"],
        ["orders", fig9, "--target", "heart_failure", "--mode", "random"],
        ["gen-random", "--nodes", "five", "--seed", "1"],
        # help
        ["--help"],
    ]
    runs += [[name, "--help"] for name in SUBCOMMANDS]
    return runs


def run(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and written file of one invocation, run
    in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    result = {"argv": argv, "code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue()}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            result["file"] = fh.read()
        os.remove(OUT)
    return result


def record(workdir: Path, runs: list[list[str]]) -> list[dict]:
    """Run each invocation in ``workdir``, set up as the fixture expects."""
    shutil.copytree(DOCS, workdir / "docs")
    (workdir / "latin1.json").write_bytes(b'{"version": 1, "nodes": []} \xff')
    cwd = os.getcwd()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(workdir)
        try:
            return [run(argv) for argv in runs]
        finally:
            os.chdir(cwd)


def test_cli_output_matches_golden_bytes(tmp_path):
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = record(tmp_path, [w["argv"] for w in want])
    for w, g in zip(want, got):
        assert g == w, w["argv"]


def test_golden_cli_covers_every_subcommand_and_outcome():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert [w["argv"] for w in want] == invocations()
    used = {w["argv"][0] for w in want if w["argv"]}
    assert used >= set(SUBCOMMANDS)
    assert {w["code"] for w in want} == {0, 1, 2}
    assert any("file" in w for w in want)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(Path(tmp), invocations())
    FIXTURE.write_text(json.dumps(recorded, indent=1, ensure_ascii=False)
                       + "\n", encoding="utf-8")
