"""Command-line interface: output formats, exit codes, error reporting.

Most tests drive ``cli.main`` in-process for speed; one test invokes the
installed console script to cover the packaging entry point, and one runs
each script under ``scripts/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infdiag import builtin_example, load, oracle_posterior, save, sum_out
from infdiag.cli import main
from infdiag.errors import EngineError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def fig9_file(tmp_path):
    path = tmp_path / "fig9.json"
    path.write_text(save(builtin_example("fig9")))
    return str(path)


def test_example_then_validate(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, out, err = run(capsys, "example", "fig9", "-o", str(path))
    assert code == 0
    assert out == "" and err == ""
    assert load(path.read_text()) == builtin_example("fig9")

    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert out == "ok: 7 node(s), 6 arc(s)\n"


def test_example_writes_stdout_without_output_flag(capsys):
    code, out, _ = run(capsys, "example", "fig5")
    assert code == 0
    assert out == save(builtin_example("fig5"))


def test_query_text_matches_oracle(capsys, fig9_file):
    code, out, _ = run(capsys, "query", fig9_file,
                       "--target", "heart_failure",
                       "--evidence", "xray=abnormal,frothy_urine=yes")
    assert code == 0
    d = builtin_example("fig9")
    vec = oracle_posterior(d, "heart_failure",
                           {"xray": "abnormal", "frothy_urine": "yes"})
    expected = [
        f"P(heart_failure={o} | xray=abnormal, frothy_urine=yes) = {p:.12g}"
        for o, p in zip(("absent", "present"), vec)
    ]
    assert out.splitlines() == expected


def test_query_without_evidence_prints_prior(capsys, fig9_file):
    code, out, _ = run(capsys, "query", fig9_file, "--target", "heart_failure")
    assert code == 0
    assert out.splitlines() == ["P(heart_failure=absent) = 0.9",
                                "P(heart_failure=present) = 0.1"]


def test_query_json_is_deterministic_and_accurate(capsys, fig9_file):
    argv = ("query", fig9_file, "--target", "nephrotic_syndrome",
            "--evidence", "frothy_urine=yes", "--format", "json")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2

    doc = json.loads(out1)
    assert doc["target"] == "nephrotic_syndrome"
    assert doc["evidence"] == {"frothy_urine": "yes"}
    vec = oracle_posterior(builtin_example("fig9"), "nephrotic_syndrome",
                           {"frothy_urine": "yes"})
    got = [doc["posterior"]["absent"], doc["posterior"]["present"]]
    assert max(abs(a - b) for a, b in zip(got, vec)) <= 1e-10

    code, out, _ = run(capsys, *argv, "--explain")
    assert code == 0
    assert out == (
        '{"target": "nephrotic_syndrome", "evidence": {"frothy_urine": "yes"},'
        ' "posterior": {"absent": 0.848759124088, "present": 0.151240875912},'
        ' "plan": {"pruned": ["drop:cardiomegaly", "drop:heart_failure",'
        ' "drop:pitting_edema", "drop:xray"],'
        ' "steps": ["condition:frothy_urine=yes",'
        ' "remove_barren:urine_protein"], "total_added_arcs": 0,'
        ' "total_parameters_touched": 3}}\n')


def test_successive_calls_in_one_process_print_the_same(capsys, fig9_file):
    # main reuses one parser; appended evidence must not leak into the
    # next call's defaults.
    with_evidence = (
        "P(heart_failure=absent | xray=abnormal, frothy_urine=yes)"
        " = 0.639721254355\n"
        "P(heart_failure=present | xray=abnormal, frothy_urine=yes)"
        " = 0.360278745645\n"
        "plan (2 steps, 0 arcs added, 3 parameters touched):\n"
        "  pruned: drop:frothy_urine, drop:nephrotic_syndrome,"
        " drop:pitting_edema, drop:urine_protein\n"
        "  1. condition:xray=abnormal\n"
        "  2. remove_barren:cardiomegaly\n")
    prior = "P(heart_failure=absent) = 0.9\nP(heart_failure=present) = 0.1\n"
    for _ in range(2):
        assert run(capsys, "query", fig9_file, "--target", "heart_failure",
                   "--evidence", "xray=abnormal",
                   "--evidence", "frothy_urine=yes",
                   "--explain") == (0, with_evidence, "")
        assert run(capsys, "query", fig9_file,
                   "--target", "heart_failure") == (0, prior, "")


def test_query_explain_prints_plan(capsys, fig9_file):
    code, out, _ = run(capsys, "query", fig9_file,
                       "--target", "heart_failure",
                       "--evidence", "xray=abnormal", "--explain")
    assert code == 0
    lines = out.splitlines()
    header = [ln for ln in lines if ln.startswith("plan (")]
    assert len(header) == 1
    assert "arcs added" in header[0] and "parameters touched" in header[0]
    steps = [ln for ln in lines if ln.startswith("  ")]
    assert steps and all(":" in ln for ln in steps)
    assert any("condition:xray=abnormal" in ln for ln in steps)


def test_query_evidence_on_target_fails(capsys, fig9_file):
    code, out, err = run(capsys, "query", fig9_file,
                         "--target", "xray", "--evidence", "xray=abnormal")
    assert code == 1
    assert out == ""
    assert err.startswith("EvidenceOnTarget:")


def test_query_duplicate_evidence_fails(capsys, fig9_file):
    code, _, err = run(capsys, "query", fig9_file, "--target", "heart_failure",
                       "--evidence", "xray=abnormal",
                       "--evidence", "xray=normal")
    assert code == 1
    assert err.startswith("InvalidParameters:")


def test_query_unknown_target_fails(capsys, fig9_file):
    code, _, err = run(capsys, "query", fig9_file, "--target", "nope")
    assert code == 1
    assert err.startswith("UnknownNode:")


def test_validate_broken_file_names_violation(capsys, tmp_path):
    doc = {"version": 1, "nodes": [{
        "name": "x", "outcomes": ["a", "b"], "kind": "probabilistic",
        "parents": [], "cpt": [[0.5, 0.4]],
    }]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert "NormalizationViolation" in err


def test_reverse_writes_loadable_model(capsys, fig9_file):
    code, out, _ = run(capsys, "reverse", fig9_file,
                       "--arc", "cardiomegaly:xray")
    assert code == 0
    d = load(out)
    assert ("xray", "cardiomegaly") in d.arcs
    assert ("cardiomegaly", "xray") not in d.arcs


def test_reverse_missing_arc_fails(capsys, fig9_file):
    code, _, err = run(capsys, "reverse", fig9_file,
                       "--arc", "xray:cardiomegaly")
    assert code == 1
    assert err.startswith("NoSuchArc:")


def test_sumout_output_matches_library(capsys, fig9_file):
    code, out, _ = run(capsys, "sumout", fig9_file,
                       "--node", "nephrotic_syndrome")
    assert code == 0
    d = load(out)
    assert d == sum_out(builtin_example("fig9"), "nephrotic_syndrome")
    assert d.parents("pitting_edema") == ("heart_failure",)


def test_refactor_reorders_arcs(capsys, tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(save(builtin_example("fig7")))
    code, out, _ = run(capsys, "refactor", str(path),
                       "--order", "effect_a,effect_b,cause")
    assert code == 0
    d = load(out)
    assert list(d.nodes) == ["effect_a", "effect_b", "cause"]
    assert all(c == "cause" or (p, c) == ("effect_a", "effect_b")
               for p, c in d.arcs)


def test_metrics_exact_lines(capsys, fig9_file):
    code, out, _ = run(capsys, "metrics", fig9_file)
    assert code == 0
    assert out == "nodes: 7\narcs: 6\nfree parameters: 14\n"


def test_orders_table_format_and_ranking(capsys, tmp_path):
    from conftest import DOCS
    path = str(DOCS / "order_gap.json")
    code, out1, _ = run(capsys, "orders", path, "--target", "v1",
                        "--mode", "exhaustive")
    assert code == 0
    _, out2, _ = run(capsys, "orders", path, "--target", "v1",
                     "--mode", "exhaustive")
    assert out1 == out2

    lines = out1.splitlines()
    assert lines[0] == "rank  added_arcs  peak_arcs  peak_params  order"
    added = [int(ln.split()[1]) for ln in lines[1:]]
    assert added == sorted(added)
    assert added[-1] - added[0] >= 1


def test_orders_greedy_sample_is_deterministic(capsys, fig9_file):
    argv = ("orders", fig9_file, "--target", "heart_failure",
            "--evidence", "xray=abnormal", "--mode", "greedy-sample")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert len(out1.splitlines()) >= 2


def test_export_dot_stdout(capsys, fig9_file):
    code, out, _ = run(capsys, "export-dot", fig9_file)
    assert code == 0
    assert out.startswith("digraph influence_diagram {")
    assert '"heart_failure" -> "cardiomegaly";' in out


def test_gen_random_roundtrip_through_cli(capsys, tmp_path):
    path = tmp_path / "r.json"
    argv = ("gen-random", "--nodes", "6", "--seed", "9", "-o", str(path))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    first = path.read_text()

    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out.startswith("ok: 6 node(s)")

    run(capsys, *argv)
    assert path.read_text() == first


def test_gen_random_past_the_cell_cap_fails(capsys):
    code, out, err = run(capsys, "gen-random", "--nodes", "3",
                         "--max-outcomes", "1000000", "--seed", "1")
    assert (code, out) == (1, "")
    assert err.startswith("TooLarge:")


def test_gen_random_past_the_node_cap_fails(capsys):
    code, out, err = run(capsys, "gen-random", "--nodes", "1000000",
                         "--seed", "0")
    assert (code, out) == (1, "")
    assert err.startswith("TooLarge: 1000000 nodes exceed")


def test_independent_yes_and_no(capsys, tmp_path):
    path = tmp_path / "fig8.json"
    path.write_text(save(builtin_example("fig8")))
    code, out, _ = run(capsys, "independent", str(path),
                       "--a", "cause_a", "--b", "cause_b")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "independent", str(path),
                       "--a", "cause_a", "--b", "cause_b",
                       "--given", "effect")
    assert (code, out) == (0, "no\n")


def test_bad_evidence_syntax_is_usage_error(capsys, fig9_file):
    with pytest.raises(SystemExit) as exc:
        main(["query", fig9_file, "--target", "heart_failure",
              "--evidence", "xray"])
    assert exc.value.code == 2


def test_bad_arc_syntax_is_usage_error(capsys, fig9_file):
    with pytest.raises(SystemExit) as exc:
        main(["reverse", fig9_file, "--arc", "cardiomegaly->xray"])
    assert exc.value.code == 2


def test_bad_order_list_is_usage_error(capsys, fig9_file):
    with pytest.raises(SystemExit) as exc:
        main(["refactor", fig9_file, "--order", "a,,b"])
    assert exc.value.code == 2


def test_missing_file_is_engine_error(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("FileNotFoundError:")


def test_non_utf8_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    for data in (b'{"version": 1, "nodes": []} \xff',
                 b"[" * 100_000,                  # too deep for json
                 b'{"version": ' + b"1" * 5000 + b', "nodes": []}'):
        path.write_bytes(data)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ParseError:")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def mostly(valid):
    """``valid`` values, with an arbitrary JSON value now and then."""
    return st.integers(0, 5).flatmap(
        lambda i: json_values if i == 5 else valid)


names = st.sampled_from(["a", "b", "c"])
probabilities = st.sampled_from([0.0, 0.5, 1.0]) | st.floats() | st.integers()


def model_node(kind, table, entries):
    """A node of the given kind, each field now and then replaced."""
    return st.fixed_dictionaries(
        {"name": mostly(names),
         "outcomes": mostly(st.lists(st.sampled_from(["0", "1", "2"]),
                                     max_size=3)),
         "kind": mostly(st.just(kind)),
         "parents": mostly(st.lists(names, max_size=2)),
         table: mostly(entries)})


model_nodes = (
    model_node("probabilistic", "cpt",
               st.lists(st.lists(probabilities, max_size=3), max_size=4))
    | model_node("deterministic", "function",
                 st.lists(st.integers(-1, 3), max_size=4)))
models = st.fixed_dictionaries(
    {"version": mostly(st.just(1)),
     "nodes": mostly(st.lists(model_nodes, max_size=3))})
documents = st.integers(0, 5).flatmap(
    lambda i: st.text(max_size=20) if i == 4
    else json_values.map(json.dumps) if i == 5 else models.map(json.dumps))


# Documents shaped like models, some arbitrary JSON and some plain text:
# loading or validating any of them fails, if at all, with an EngineError,
# and load accepts exactly the documents `infdiag validate` passes.
@settings(max_examples=200, derandomize=True, deadline=None)
@example("[" * 100_000)
@example('{"version": ' + "1" * 5000 + ', "nodes": []}')
@given(documents)
def test_fuzzed_documents_fail_only_as_engine_errors(tmp_path_factory, text):
    try:
        load(text)
        loaded = True
    except EngineError:
        loaded = False
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == (0 if loaded else 1)


def test_unknown_example_is_engine_error(capsys):
    code, _, err = run(capsys, "example", "fig99")
    assert code == 1
    assert err.startswith("UnknownExample:")


@pytest.mark.skipif(shutil.which("infdiag") is None,
                    reason="console script not installed")
def test_console_script_subprocess():
    proc = subprocess.run(["infdiag", "example", "fig9"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == save(builtin_example("fig9"))

    proc = subprocess.run(["infdiag", "example", "fig99"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("UnknownExample:")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "infdiag.cli", "metrics", "/dev/stdin"],
        input=save(builtin_example("fig5")),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "nodes: 2\narcs: 1\nfree parameters: 2\n"


def test_scripts_run_to_their_summary_line():
    scripts = Path(__file__).resolve().parent.parent / "scripts"

    def last_line(script):
        proc = subprocess.run([sys.executable, str(scripts / script)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    gap = last_line("diagnostic_reversal_demo.py")
    assert gap.startswith("joint preserved: max entrywise gap ")
    assert float(gap.rsplit(" ", 1)[1]) <= 1e-12
    assert last_line("order_effects.py") == (
        "cheapest order adds 0 arc(s), dearest adds 2; spread 2")


def test_compare_trees_reports_both_ratio_lines_and_refuses_one_round():
    # The repo against itself on a short probe: both orders run, and the
    # closing lines give the ratio of all items' minima and of the slowest
    # tenth's. Fewer than two rounds leave no quartiles: a usage error.
    root = Path(__file__).resolve().parent.parent
    command = [sys.executable, str(root / "scripts" / "compare_trees.py"),
               str(root), str(root), "--probe", "validate",
               "--workload", "plan", "--rounds"]
    proc = subprocess.run(command + ["2"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("per-item minima, second / first: ")
    assert lines[-1].startswith("the 1 slowest items' minima, second / first: ")
    assert all("geometric mean" in line for line in lines[-2:])
    for rounds in ("1", "0"):
        proc = subprocess.run(command + [rounds], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2
        assert "--rounds must be at least 2" in proc.stderr
        assert "Traceback" not in proc.stderr
    # An unknown workload is refused as step_counts.py refuses it, before
    # either tree is imported.
    proc = subprocess.run(
        [*command[:-2], "nosuch", "--rounds", "2"], capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert "argument --workload: invalid choice: 'nosuch'" in proc.stderr
    assert "Traceback" not in proc.stderr


# One pass of each workload at seed 1. A step is decided once, by the
# planner that chose it: a ranking runs its first-ranked order's steps as
# its walk decided them, where deciding them again made 2,807 restructures
# and 1,609 depth passes on plan. Every step, barren deletions included,
# is decided by _restructure, where posterior's barren deletions skipping
# it made 168 restructures on wide and 913 on diagnose. A barren deletion
# changes no other node's depth, so posterior's up-front depth pass serves
# its first step that reads one, where a fresh pass there made 278 depth
# passes on wide and 1,764 on diagnose. Each _flip call decides one
# reversal and checks it against the reversal cell cap: the posterior
# and rewrite workloads decide exactly the reversals they run, while plan
# decides every candidate's. Zero rows are the fills the plans handed back
# carry: plan read 0 when the planners handed back their steps without
# their run's fills, and rewrite reads 0 because refactor hands back none.
# A conditioning step's reversals lay out only the observed outcome of the
# evidence node and fill only rows of the tables they keep: with every
# outcome laid out, wide read 345,810 product cells and 7,934 zero rows,
# diagnose 28,186 and 583, plan 5,342 and 29 (rewrite conditions nothing).
# posterior prunes what its target cannot see before it plans (only its
# workloads prune): without that, wide made 648 steps (condition 98,
# remove_barren 480), 650 reversals, 126,045 product cells, 230 depth
# passes and 650 flips, and diagnose 1,688 steps (condition 599,
# remove_barren 775), 1,202 reversals, 14,378 cells, 1,444 depth passes and
# 1,202 flips. A query that slices evidence makes a second depth pass,
# over the structure left; one that only drops nodes hands its first pass
# on, since every node kept keeps its ancestors. Every zero row is still
# filled. Depth passes split as (all, at the entry, in load, in the steps
# after the entry): the entry, _accepted, makes one per engine call and
# refuses a cycle there, and every planner and transform starts from it.
# When posterior and the planners each made their own first pass instead,
# and d_separated and save made none, diagnose made 1,344 passes (43
# fewer, one per d-separation request) and rewrite 1,087 (40 fewer, one
# per save; refactor reuses its entry's pass). A diagram load or a
# transform hands back carries the entry's result, so every entry call of
# a pass reuses it and makes no depth pass: before, wide made 223 passes
# (48 at the entry), plan 681 (40), diagnose 1,387 (400) and rewrite 1,127
# (80, of which 40 re-checked in save what refactor had just built).
# A step hands its depth keys on whenever it leaves every remaining
# node's (parents, kind) as it was, not only when it is a barren
# deletion: conditioning an isolated evidence node keeps them too. When
# only barren deletions handed them on, plan made 641 passes and
# diagnose 987 (587 in the steps), for the same decisions. The greedy
# planner keeps a round's scores across a barren deletion and decides
# again only a winner scored in an earlier round: when every round decided
# its candidates afresh, plan made 2,060 restructures and 2,086 flips, and
# when it also decided the deleted node's scored parents again, 1,995 and
# 1,789, for the same plans. Those scores are conditionings', which a
# barren node, no node's parent, cannot change.
STEP_COUNTS = {
    "wide": ("48 requests", "condition 88, remove_barren 219, sum_out 70",
             (271, 1), 790, (633, 27), 125884, 377, (175, 0, 0, 175), 633,
             (48, 0)),
    "plan": ("40 requests", "condition 53, remove_barren 200, sum_out 47",
             (0, 0), 10, (174, 7), 3440, 1971, (627, 0, 0, 627), 1696,
             (40, 0)),
    "diagnose": ("400 requests",
                 "condition 298, remove_barren 182, sum_out 314",
                 (894, 151), 294, (1126, 83), 14042, 794, (985, 0, 400, 585),
                 1126, (400, 0)),
    "rewrite": ("40 requests", "none", (0, 0), 0, (1007, 147), 189508, 0,
                (1047, 0, 40, 1007), 1007, (80, 0)),
}


@pytest.mark.parametrize("workload", sorted(STEP_COUNTS))
def test_step_counts_script_counts_one_pass(workload):
    (requests, steps, (pruned, sliced), zero_rows, (reversals, filling),
     cells, restructures, (depths, entry, load, after), flips,
     (checks, made)) = STEP_COUNTS[workload]
    script = Path(__file__).resolve().parent.parent / "scripts" / "step_counts.py"
    proc = subprocess.run(
        [sys.executable, str(script), workload, "--seed", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"workload {workload}, seed 1: {requests}, one pass",
        f"  steps: {steps}",
        f"  pruned: {pruned}, of them evidence sliced: {sliced}",
        f"  zero rows: {zero_rows}",
        f"  reversals: {reversals}, of them filling a zero row: {filling}",
        f"  product cells: {cells}",
        f"  _restructure: {restructures}",
        f"  node_depths: {depths} = entry {entry} + load {load}"
        f" + steps {after}",
        f"  _flip: {flips}",
        f"  entry checks: {checks} = made {made} + reused {checks - made}",
    ]
