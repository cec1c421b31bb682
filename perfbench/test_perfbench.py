"""Tests of the benchmark itself: span arithmetic, the exactness gates,
the seeded inputs and the run's exit code.  All of them are fast; the
workloads themselves run only through ``run.py``."""

import json
import os
import shutil
import subprocess
import sys
import time

import turanlab
from turanlab import enumeration
from turanlab.canon import canonical_certificate_rows
from turanlab.graph import from_graph6, read_graph6_lines

from perfbench import child, gates, inputs, run, spans

# -- spans ---------------------------------------------------------------------

NAMES = ["cli.main", "enumeration.levels_up_to",
         "canon.canonical_certificate_rows", "graph.to_graph6", "canon.certificate"]


def span(name: str, parent: int, start: int, end: int, size: int = -1) -> list[int]:
    return [NAMES.index(name), parent, start, end, size]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tree = [
        span("cli.main", -1, 0, 100),                        # 0
        span("enumeration.levels_up_to", 0, 10, 40),         # 1
        span("canon.canonical_certificate_rows", 1, 20, 30), # 2
        span("enumeration.levels_up_to", 0, 35, 45),         # 3 overlaps 1
        span("graph.to_graph6", 0, 50, 90),                  # 4
        span("canon.certificate", 4, 60, 95),                # 5 ends past 4
    ]
    # 0: children cover [10,45] and [50,90] = 75; 4: child clipped to [60,90]
    assert spans.self_times(tree) == [25, 20, 10, 10, 10, 35]


def test_layer_metrics_on_hand_built_tree():
    tree = [
        span("cli.main", -1, 0, 1000),
        span("enumeration.levels_up_to", 0, 100, 700, size=5),
        span("canon.canonical_certificate_rows", 1, 200, 300),
        span("canon.canonical_certificate_rows", 1, 300, 500),
        span("canon.certificate", 3, 350, 400),              # nested in canon
        span("graph.to_graph6", 0, 800, 900),
    ]
    m, absent = spans.layer_metrics(NAMES, tree)
    assert m["canon.calls"] == 2 and m["enumeration.labelled"] == 2
    assert m["canon.busy_s"] == 300e-9
    assert m["canon.us_per_call"] == 300e-9 * 1e6 / 2
    assert m["enumeration.self_s"] == 300e-9
    assert m["enumeration.kept"] == 5 and m["enumeration.kept_per_labelled"] == 2.5
    assert m["graph.encode_calls"] == 1 and m["graph.encode_s"] == 100e-9
    assert m["cli.self_s"] == 300e-9
    # functions missing from the program are absent, not zero
    assert "graph.decode_calls" in absent and "graph.decode_calls" not in m
    assert "invariants.colour_s" in absent and "deficiency.calls" in absent


def test_recorder_rebinds_import_sites_and_restores_them():
    # K6-free up to order 5 is every graph; a filter no other test caches
    enumeration._LEVELS.pop(6, None)
    rec = spans.Recorder()
    rec.install(turanlab)
    try:
        assert enumeration.canonical_certificate_rows is not canonical_certificate_rows
        turanlab.enumerate_graphs(5, 6)
    finally:
        rec.uninstall()
        enumeration._LEVELS.pop(6, None)
    assert enumeration.canonical_certificate_rows is canonical_certificate_rows
    m, absent = spans.layer_metrics(rec.names, rec.spans)
    assert absent == []
    assert m["enumeration.kept"] == sum(gates.A000088[:5])
    assert m["enumeration.labelled"] == m["canon.calls"] > 0
    assert m["invariants.clique_calls"] == 0


# -- exactness gates -------------------------------------------------------------


def small_enum():
    """A correct triangle-free order-6 stream and a spec pinned to it."""
    graphs = turanlab.enumerate_graphs(6, 3)
    stream = "".join(turanlab.to_graph6(g) + "\n" for g in graphs)
    lower = [len(turanlab.enumerate_graphs(k, 3)) for k in range(1, 6)]
    spec = gates.EnumSpec(("enumerate",), 6, 3, gates.A006785[:6], gates.sha256(stream))
    return spec, stream, lower


def enum_failures(spec, stream, lower) -> list[str]:
    tally = gates.Tally()
    gates.check_enum(tally, spec, stream, lower)
    return tally.failures


def test_enum_gate_accepts_the_correct_stream():
    assert enum_failures(*small_enum()) == []


def test_enum_gate_rejects_a_dropped_line():
    spec, stream, lower = small_enum()
    dropped = "".join(stream.splitlines(keepends=True)[1:])
    assert len(enum_failures(spec, dropped, lower)) == 2   # count and digest


def test_enum_gate_rejects_a_flipped_byte():
    spec, stream, lower = small_enum()
    i = stream.index("\n") - 1
    flipped = stream[:i] + chr(ord(stream[i]) ^ 1) + stream[i + 1:]
    assert enum_failures(spec, flipped, lower) == ["graph6 stream digest mismatch"]


def test_enum_gate_rejects_a_wrong_lower_order_count():
    spec, stream, lower = small_enum()
    assert enum_failures(spec, stream, lower[:-1] + [lower[-1] + 1])


def stream_case(size: int = 30):
    graphs = read_graph6_lines(inputs.certify_stream(5, size).splitlines())
    return [list(g.rows) for g in graphs], child.stream_reports(graphs)


def test_certify_gates_accept_correct_reports():
    rows, reports = stream_case()
    tally = gates.Tally()
    for i, (r, rep) in enumerate(zip(rows, reports)):
        gates.check_stream_item(tally, i, r, rep)
    assert tally.failures == [] and tally.attempted == 5 * len(rows)


def test_certify_gate_rejects_an_improper_colouring():
    rows, reports = stream_case()
    i = next(i for i, rep in enumerate(reports) if rep["col3"] is not None)
    u = next(u for u in range(len(rows[i])) if rows[i][u])
    v = rows[i][u].bit_length() - 1
    reports[i]["col3"][v] = reports[i]["col3"][u]
    tally = gates.Tally()
    gates.check_stream_item(tally, i, rows[i], reports[i])
    assert tally.failures == [f"stream[{i}]: improper 3-colouring"]


def test_certify_gate_rejects_a_false_refutation_and_a_wrong_chi():
    rows, reports = stream_case()
    reports[0]["col3"] = None                       # these graphs are 3-colourable
    tally = gates.Tally()
    gates.check_stream_item(tally, 0, rows[0], reports[0])
    g = turanlab.groetzsch_graph()                  # chi 4, not the pinned 5
    chi, col = turanlab.chromatic_number(g)
    gates.check_chi(tally, "tf-chi5", list(g.rows), {"chi": chi, "colors": list(col.colors)})
    assert len(tally.failures) == 2


def test_budget_trip_is_a_failed_operation():
    g = child.mycielskian(child.mycielskian(turanlab.groetzsch_graph()))
    saved, gates.CHI_NODE_BUDGET = gates.CHI_NODE_BUDGET, 10
    try:
        rep = child.chi_reports({"myc-myc-groetzsch": g})
    finally:
        gates.CHI_NODE_BUDGET = saved
    tally = gates.Tally()
    gates.check_chi(tally, "myc-myc-groetzsch", list(g.rows), rep["myc-myc-groetzsch"])
    assert tally.attempted == 1 and tally.failures[0].startswith(
        "myc-myc-groetzsch: SearchBudgetExceeded")


# -- seeded inputs -----------------------------------------------------------------


def test_same_seed_gives_byte_identical_graph6_input():
    a = inputs.certify_stream(11, 200)
    assert a == inputs.certify_stream(11, 200)
    assert a != inputs.certify_stream(12, 200)
    for line in a.splitlines():
        g = from_graph6(line)
        assert g.n in inputs.STREAM_ORDERS and g.edge_count > 0
        assert gates.triangle_free(list(g.rows))
        assert inputs.graph6(list(g.rows)) == line


# -- the run -----------------------------------------------------------------------


def test_a_failed_gate_fails_the_run(tmp_path, monkeypatch, capsys):
    def fake_spawn(workload, seed, mode, stdin_text):
        time.sleep(0.02)
        if mode == "setup":
            return {"mode": mode, "setup_s": 0.1}
        return {"mode": mode, "setup_s": 0.1, "wall_s": 2.0, "cpu_s": 2.0, "items": 10,
                "maxrss_kb": 20480, "attempted": 12, "failed": 1,
                "failures": ["graph6 stream digest mismatch"], "digest": "x"}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(["--workload", "enum-all", "--seed", "1", "--seconds", "0.05"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] >= 1
    record = json.loads((tmp_path / "results.jsonl").read_text().splitlines()[-1])
    assert record["failed_frac"] > 0 and record["seed"] == 1


def test_run_refuses_a_directory_without_the_library(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enum-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
