import json
import subprocess
import sys

import pytest

from turanlab import cli, enumeration
from turanlab.cli import main
from turanlab.graph import Graph, from_graph6, to_graph6


def run_cli(args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "turanlab.cli", *args],
        input=stdin_text, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_construct_groetzsch_line():
    code, out, _ = run_cli(["construct", "groetzsch"])
    assert code == 0
    g = from_graph6(out.strip())
    assert g.n == 11 and g.edge_count == 20


def test_construct_json_format():
    code, out, _ = run_cli(["construct", "turan", "--n", "6", "--r", "3",
                            "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["edges"] == 12


def test_analyze_turan():
    code, out, _ = run_cli(["construct", "turan", "--n", "9", "--r", "3"])
    code, out, _ = run_cli(["analyze", "--r", "3", "--q", "4"],
                           stdin_text=out)
    assert code == 0
    entry = json.loads(out)["graphs"][0]
    assert entry["clique_number"] == 3
    assert entry["chromatic_number"] == 3
    assert entry["twin_class_count"] == 3
    assert entry["saturation"] == {"q": 4, "clique_free": True, "saturated": True}
    assert entry["deficiency"]["value"] == 0


def test_enumerate_triangle_free_five():
    code, out, _ = run_cli(["enumerate", "--n", "5", "--filter", "triangle-free"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14


def test_enumerate_resume_roundtrip(tmp_path):
    state = tmp_path / "state.json"
    code, first, _ = run_cli(["enumerate", "--n", "5",
                              "--filter", "triangle-free",
                              "--resume", str(state)])
    assert code == 0 and state.exists()
    payload = json.loads(state.read_text())
    assert payload["filter"] == 3 and len(payload["levels"]) == 5
    code, second, _ = run_cli(["enumerate", "--n", "6",
                               "--filter", "triangle-free",
                               "--resume", str(state)])
    assert code == 0
    assert len(second.strip().splitlines()) == 38
    assert len(json.loads(state.read_text())["levels"]) == 6


def test_enumerate_resume_checkpoints_every_finished_order(tmp_path, monkeypatch):
    # K8-free: a filter no other test caches in this process
    state = tmp_path / "state.json"
    on_disk = []
    build = enumeration._next_level

    def next_level(parents, q):
        on_disk.append(len(json.loads(state.read_text())["levels"]))
        return build(parents, q)

    monkeypatch.setattr(enumeration, "_next_level", next_level)
    enumeration._LEVELS.pop(8, None)
    try:
        assert main(["enumerate", "--n", "5", "--filter", "kr1-free", "--r", "7",
                     "--resume", str(state), "--out", str(tmp_path / "out")]) == 0
    finally:
        enumeration._LEVELS.pop(8, None)
    assert on_disk == [1, 2, 3, 4]
    assert len(json.loads(state.read_text())["levels"]) == 5
    # the temporary file of each atomic write was renamed into place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "state.json"]


def test_enumerate_resume_writes_orders_already_cached(tmp_path):
    # in-process, a warm level cache must not keep the checkpoint from disk
    state = tmp_path / "state.json"
    enumeration.levels_up_to(4, 3)
    assert main(["enumerate", "--n", "4", "--filter", "triangle-free",
                 "--resume", str(state), "--out", str(tmp_path / "out")]) == 0
    assert len(json.loads(state.read_text())["levels"]) == 4


def test_enumerate_resume_rejects_another_filters_state(tmp_path):
    state = tmp_path / "state.json"
    run_cli(["enumerate", "--n", "3", "--filter", "triangle-free",
             "--resume", str(state)])
    code, _, err = run_cli(["enumerate", "--n", "3", "--resume", str(state)])
    assert code == 2
    assert "different filter" in err


def test_enumerate_resume_rejects_an_incomplete_level(tmp_path):
    # the order-3 level holds only the empty graph: K2 + K1 and P3 are gone
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"schema": 1, "filter": 3,
                                 "levels": [["@"], ["A?", "A_"], ["B?"]]}))
    code, out, err = run_cli(["enumerate", "--n", "4", "--filter", "triangle-free",
                              "--resume", str(state)])
    assert code == 2 and out == ""
    assert "plus an isolated vertex" in err and "Traceback" not in err


def test_enumerate_resume_rejects_a_non_canonical_graph(tmp_path):
    state = tmp_path / "state.json"
    assert main(["enumerate", "--n", "4", "--filter", "triangle-free",
                 "--resume", str(state), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads(state.read_text())
    # the path on 4 vertices, labelled 0-2-1-3 instead of canonically
    g = from_graph6(payload["levels"][3][4])
    assert g.edge_count == 3 and sorted(g.degrees()) == [1, 1, 2, 2]
    forged = to_graph6(Graph(4, [(0, 2), (2, 1), (1, 3)]))
    assert forged != payload["levels"][3][4]
    payload["levels"][3][4] = forged
    state.write_text(json.dumps(payload))
    code, _, err = run_cli(["enumerate", "--n", "5", "--filter", "triangle-free",
                            "--resume", str(state)])
    assert code == 2
    assert "is not canonical" in err


@pytest.mark.parametrize("levels,reason", [
    ([["A?"]], "order 1 must hold only K1"),
    ([["@"], ["A_", "A?"]], "out of order"),
    ([["@"], ["A?", "A_"], ["Bw"]], "contains K3"),
    ([["@"], ["A?"], ["B?", "BW"]], "parent missing"),
])
def test_enumerate_resume_rejects_forged_levels(tmp_path, levels, reason):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"schema": 1, "filter": 3, "levels": levels}))
    code, _, err = run_cli(["enumerate", "--n", "4", "--filter", "triangle-free",
                            "--resume", str(state)])
    assert code == 2
    assert reason in err


def test_enumerate_infeasible_is_resource_error():
    code, _, err = run_cli(["enumerate", "--n", "12"])
    assert code == 2
    assert "limited" in err


def test_saturate_stream():
    code, out, _ = run_cli(["construct", "extremal", "--n", "5", "--r", "2"])
    code, out, _ = run_cli(["saturate", "--q", "3"], stdin_text=out)
    assert code == 0
    g = from_graph6(out.strip())
    assert g.edge_count == 5  # the 5-cycle is already saturated


def test_blowup_opt_command():
    code, out, _ = run_cli(["construct", "extremal", "--n", "5", "--r", "2"])
    code, out, _ = run_cli(["blowup-opt", "--n", "10"], stdin_text=out)
    assert code == 0
    entry = json.loads(out)["graphs"][0]
    assert entry["edges"] == 21
    assert sum(entry["weights"]) == 10


def test_extract_tripartite_command():
    code, out, _ = run_cli(["construct", "turan", "--n", "12", "--r", "3"])
    code, out, _ = run_cli(["extract-tripartite"], stdin_text=out)
    assert code == 0
    entry = json.loads(out)["graphs"][0]
    assert entry["covered"] == 12 and entry["fraction_num"] == 1


def test_verify_thm1_range():
    code, out, _ = run_cli(["verify", "thm1", "--r", "2", "--n", "5..6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [c["computed_max"] for c in payload["cases"]] == [5, 7]


@pytest.mark.parametrize("argv", [
    ["verify", "thm1", "--n", "7..5"],
    ["verify", "thm2", "--r", "3", "--n", "9..3"],
])
def test_reversed_range_is_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: empty range")


def test_verify_thm2_single():
    code, out, _ = run_cli(["verify", "thm2", "--r", "2", "--n", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    case = payload["cases"][0]
    assert case["extremal_count"] == 1 and not case["unexplained"]


def test_verify_lambda_pinch():
    code, out, _ = run_cli(["verify", "lambda", "--r", "3", "--k", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pinched"] is True and payload["global_value"] == 2


def test_reports_byte_stable():
    _, a, _ = run_cli(["verify", "thm1", "--r", "2", "--n", "5"])
    _, b, _ = run_cli(["verify", "thm1", "--r", "2", "--n", "5"])
    assert a == b
    assert "runtime_ms" not in a
    _, c, _ = run_cli(["verify", "thm1", "--r", "2", "--n", "5", "--timing"])
    assert "runtime_ms" in c


def test_exit_code_on_usage_error():
    code, _, err = run_cli(["analyze"], stdin_text="notagraph6\x01\n")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["construct", "turan"],
    ["construct", "family", "--n", "9"],
    ["enumerate", "--n", "4", "--filter", "kr1-free"],
    ["verify", "thm1"],
    ["verify", "thm2"],
    ["verify", "lambda"],
])
def test_missing_option_is_usage_error(argv):
    code, _, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: ") and "requires" in err
    assert "Traceback" not in err


def test_failed_check_exits_one(monkeypatch, capsys):
    def broken(r, n_values):
        raise AssertionError("extremal witness is 2-colourable")

    monkeypatch.setattr(cli, "verify_threshold", broken)
    assert main(["verify", "thm1", "--n", "5"]) == 1
    assert capsys.readouterr().err == "check failed: extremal witness is 2-colourable\n"


def test_main_entry_direct(capsys):
    assert main(["construct", "groetzsch"]) == 0
    out = capsys.readouterr().out
    assert from_graph6(out.strip()).n == 11


def test_out_file(tmp_path):
    target = tmp_path / "graphs.g6"
    assert main(["enumerate", "--n", "4", "--out", str(target)]) == 0
    assert len(target.read_text().strip().splitlines()) == 11
