import ast
import hashlib
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from turanlab import cli, graph, invariants, tripartite, verify
from turanlab.cli import main
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import Graph, complete_graph, complete_multipartite, from_graph6


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
    assert payload["schema"] == 2
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


@pytest.mark.parametrize("source,saturation", [
    # K_{3,2}: a non-edge inside a part has an independent common neighbourhood
    (["turan", "--n", "5", "--r", "2"], {"q": 4, "clique_free": True, "saturated": False}),
    (["turan", "--n", "4", "--r", "4"], {"q": 4, "clique_free": False, "saturated": False}),
], ids=["k32", "k4"])
def test_analyze_reports_an_unsaturated_graph(tmp_path, capsys, source, saturation):
    infile = tmp_path / "in.g6"
    assert main(["construct", *source, "--out", str(infile)]) == 0
    assert main(["analyze", "--q", "4", "--in", str(infile)]) == 0
    assert json.loads(capsys.readouterr().out)["graphs"][0]["saturation"] == saturation


def test_enumerate_triangle_free_five():
    code, out, _ = run_cli(["enumerate", "--n", "5", "--filter", "triangle-free"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 14


def test_resume_is_an_unknown_option(tmp_path):
    state = tmp_path / "state.json"
    code, out, err = run_cli(["enumerate", "--n", "4", "--filter", "triangle-free",
                              "--resume", str(state)])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --resume" in err
    assert not state.exists()


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["blowup-opt", "--n", "10"],
    ["extract-tripartite"],
    ["verify", "thm1", "--r", "2", "--n", "5"],
])
def test_format_is_unknown_to_report_commands(argv):
    # --format belongs only to the commands that emit graphs
    code, out, err = run_cli([*argv, "--format", "graph6"], stdin_text="Bw\n")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --format" in err


@pytest.mark.parametrize("argv,ignored", [
    (["verify", "thm1", "--r", "2", "--n", "5", "--max-order", "3", "--k", "9"],
     "--max-order 3 --k 9"),
    (["verify", "thm2", "--r", "3", "--n", "7", "--budget", "5"], "--budget 5"),
    (["verify", "lemmas", "--n", "7", "--r", "5", "--k", "3"], "--n 7 --r 5 --k 3"),
    (["verify", "lambda", "--r", "2", "--k", "4", "--n", "6"], "--n 6"),
], ids=["thm1", "thm2", "lemmas", "lambda"])
def test_verify_rejects_options_its_check_ignores(argv, ignored):
    # each check takes only the options it reads, so a mistyped command
    # cannot read as a pass for a check that was never asked for
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {ignored}" in err


@pytest.mark.parametrize("argv", [
    ["construct", "groetzsch"],
    ["enumerate", "--n", "3"],
    ["saturate", "--q", "3"],
], ids=["construct", "enumerate", "saturate"])
def test_timing_without_json_is_usage_error(argv):
    # graph6 output has nowhere to put the runtime
    code, out, err = run_cli([*argv, "--timing"], stdin_text="B?\n")
    assert code == 2 and out == ""
    assert err == "error: --timing requires --format json\n"
    code, out, _ = run_cli([*argv, "--timing", "--format", "json"],
                           stdin_text="B?\n")
    assert code == 0 and "runtime_ms" in json.loads(out)


@pytest.mark.parametrize("n,r", [("0", "0"), ("0", "-3"), ("1", "0")])
def test_kr1_free_below_an_edge_is_usage_error_at_every_order(n, r):
    # --r 1 forbids K_2; smaller r forbids nothing meaningful, even at order 0
    code, out, err = run_cli(["enumerate", "--n", n, "--filter", "kr1-free", "--r", r])
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument --r: must be >= 1, got {r}\n")


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
    # the order-0 graph covers 0 of 0 vertices, reported as 0/1
    code, out, _ = run_cli(["extract-tripartite"], stdin_text="?\n")
    assert code == 0
    entry = json.loads(out)["graphs"][0]
    assert (entry["covered"], entry["order"]) == (0, 0)
    assert (entry["fraction_num"], entry["fraction_den"]) == (0, 1)


def test_extract_tripartite_peels_the_lowest_index_vertex_of_least_degree(
        tmp_path, capsys):
    # a 4-saturated graph of order 9 (made by saturate --q 4) on which the
    # peel meets ties: removing the highest-index vertex of least degree
    # instead gives the parts [[0, 5], [1], [2, 4]]
    infile = tmp_path / "in.g6"
    infile.write_text("H|p{}jS\n")
    assert main(["extract-tripartite", "--C-param", "1", "--in", str(infile)]) == 0
    entry = json.loads(capsys.readouterr().out)["graphs"][0]
    assert entry["parts"] == [[0, 5], [3], [6, 7, 8]]
    assert (entry["covered"], entry["order"]) == (6, 9)


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


_OUTSIDE = "character '{}' outside graph6 range 63..126"

# case id -> bad graph6 input and the decoder's message; every command
# that reads graphs refuses each one, and only line ends and spaces
# surround a graph6 line, so a control character is a bad character,
# never a blank line or a blank end of K2's line
_BAD_GRAPH6 = {
    "x1f-line": ("\x1f\n", _OUTSIDE.format("\\x1f")),
    "x1c-after-k2": ("A_\x1c\n", _OUTSIDE.format("\\x1c")),
    "stream": ("A_\n\x1f\nA_\x1c\n", _OUTSIDE.format("\\x1f")),
    "tab": ("A_\t\n", _OUTSIDE.format("\\t")),
    "x7f": ("A\x7f\n", _OUTSIDE.format("\\x7f")),
    "truncated": ("C\n", "bit payload too short: need 1 bytes, got 0"),
    "trailing-byte": ("A_?\n", "trailing bytes after graph6 payload (1 extra)"),
    "order-4097": ("~@?@\n", "order must be in 0..4096, got 4097"),
    "good-then-truncated": ("A_\nC\n",
                            "bit payload too short: need 1 bytes, got 0"),
}


@pytest.mark.parametrize("text,message", _BAD_GRAPH6.values(),
                         ids=list(_BAD_GRAPH6))
def test_control_character_in_graph6_input_is_usage_error(
        tmp_path, capsys, text, message):
    infile = tmp_path / "in.g6"
    for argv in (["analyze"], ["saturate", "--q", "3"],
                 ["blowup-opt", "--n", "10"], ["extract-tripartite"]):
        infile.write_text(text)
        assert main([*argv, "--in", str(infile)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # a header, spaces and line ends around K2 are valid graph6
    infile.write_text(" >>graph6<<A_ \r\n\n")
    assert main(["analyze", "--in", str(infile)]) == 0
    assert json.loads(capsys.readouterr().out)["graphs"][0]["n"] == 2


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["extract-tripartite"],
    ["saturate", "--q", "3"],
    ["blowup-opt", "--n", "10"],
])
def test_empty_graph_input_is_usage_error(argv):
    code, out, err = run_cli(argv, stdin_text="")
    assert code == 2 and out == ""
    assert err == "error: no graph6 input\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "{tmp}/missing.g6"],
    ["analyze", "--in", "{tmp}"],
    ["construct", "groetzsch", "--out", "{tmp}/missing/x.g6"],
    ["construct", "groetzsch", "--out", "/dev/full"],
], ids=["missing-input", "directory-input", "unwritable-output", "full-output"])
def test_unreadable_or_unwritable_file_is_usage_error(argv, tmp_path):
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno ") and "Traceback" not in err


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "w")


@pytest.mark.parametrize("argv", [
    ["construct", "groetzsch"],
    ["enumerate", "--n", "8"],
], ids=["small", "large"])
@pytest.mark.parametrize("stdout, message", [
    (lambda: open("/dev/full", "w"), "[Errno 28] No space left on device"),
    (_closed_pipe, "[Errno 32] Broken pipe"),
], ids=["full", "broken-pipe"])
def test_unwritable_stdout_is_usage_error(argv, stdout, message):
    # stdout block-buffered, as it is by default: a small report is still
    # in the buffer when main returns unless main flushes it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with stdout() as sink:
        proc = subprocess.run([sys.executable, "-m", "turanlab.cli", *argv],
                              stdout=sink, stderr=subprocess.PIPE, text=True,
                              env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


def _cap_address_space():
    # a builder that allocates before it checks the order then fails with
    # a quick MemoryError instead of growing until the machine runs out
    import resource
    cap = 1536 << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    ["turan", "--n", "100000000", "--r", "2"],
    ["extremal", "--n", "100000000", "--r", "2"],
    ["sat3-twins", "--f", "1", "--n", "100000000"],
    ["sat-non-blowup", "--m", "2", "--r", "3", "--n", "100000000"],
    ["sat3-twin-free", "--m", str(1 << 27)],
    ["sat-twin-free", "--m", "20", "--r", "3"],
    ["sat-twin-free", "--m", "40", "--r", "3"],
], ids=["turan", "extremal", "sat3-twins", "sat-non-blowup", "sat3-twin-free",
        "sat-twin-free-20", "sat-twin-free-40"])
def test_oversize_construction_is_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "turanlab.cli", "construct", *argv],
                          capture_output=True, text=True,
                          preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: order must be in 0..4096, got ")


def test_huge_twin_free_m_is_rejected_before_the_binomial():
    # C(2000000, 1000000) alone takes minutes; the order is bounded below by
    # r * (2m + 3) and rejected from that bound first
    proc = subprocess.run([sys.executable, "-m", "turanlab.cli", "construct",
                           "sat-twin-free", "--m", "2000000", "--r", "3"],
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: order must be in 0..4096, got at least 12000009\n"


@pytest.mark.parametrize("r", ["5", "7", "100000000"])
def test_turan_with_more_classes_than_vertices_is_complete(r):
    # the classes past the fifth are empty; none of them may be allocated
    proc = subprocess.run([sys.executable, "-m", "turanlab.cli", "construct",
                           "turan", "--n", "5", "--r", r],
                          capture_output=True, text=True,
                          preexec_fn=_cap_address_space, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "D~{\n", "")


@pytest.mark.parametrize("family", ["family", "extremal"])
def test_family_l_one_is_extremal_below_twice_r(family):
    # at r + 3 <= n < 2r the host class has 2 vertices, so l = 1 is valid
    # though it exceeds n // r - 1 = 0
    assert run_cli(["construct", family, "--n", "7", "--r", "4"]) == (0, "FM~|W\n", "")


@pytest.mark.parametrize("argv", [
    ["extremal", "--n", "5", "--r", "1"],
    ["family", "--n", "6", "--r", "1", "--l", "2"],
    ["family", "--n", "6", "--r", "0"],
], ids=["extremal", "family", "family-r0"])
def test_extremal_rank_below_two_is_usage_error(argv):
    code, out, err = run_cli(["construct", *argv])
    assert (code, out, err) == (2, "", "error: r must be >= 2\n")


def test_out_of_memory_is_resource_error(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._FAMILIES, "groetzsch", (exhausted, ()))
    assert main(["construct", "groetzsch"]) == 2
    assert capsys.readouterr().err == "resource limit: out of memory\n"


def test_exhausted_lambda_budget_is_resource_error():
    code, out, err = run_cli(["verify", "lambda", "--r", "2", "--k", "4",
                              "--max-order", "6", "--budget", "3"])
    assert code == 2
    search = json.loads(out)["search"]
    assert search["complete"] is False and search["examined"] == 3
    assert json.loads(out)["ok"] is False
    assert err == "resource limit: --budget 3 ran out after 3 graphs\n"


def test_negative_lambda_budget_is_usage_error():
    code, out, err = run_cli(["verify", "lambda", "--r", "2", "--k", "4",
                              "--max-order", "6", "--budget", "-1"])
    assert code == 2 and out == ""
    assert err.endswith("error: argument --budget: must be >= 0, got -1\n")


def test_lambda_budget_without_max_order_is_usage_error():
    code, out, err = run_cli(["verify", "lambda", "--r", "2", "--k", "4",
                              "--budget", "3"])
    assert code == 2 and out == ""
    assert err == "error: verify lambda --budget requires --max-order\n"


@pytest.mark.parametrize("argv,digest", [
    (["enumerate", "--n", "8"],
     "cdfa08c54d7a3b5786cc4c2d89979a112ec3b1756f402d293db741ff10a8d2e9"),
    (["enumerate", "--n", "9", "--filter", "triangle-free"],
     "fc4e0c3d4c619d42f24eafa64ce1cda83bc65e0d3592b61a2b4a082361cc575e"),
    (["enumerate", "--n", "8", "--filter", "k4-free"],
     "6ecf2f4a5b3d7023e81d53a7d93365b5473b5ddd68617778beae20c857326e0f"),
    (["enumerate", "--n", "8", "--format", "json"],
     "8e0d7701094f66060405b218386d35169fd2303ad8df387d8e1fefb9039c1ccc"),
    (["enumerate", "--n", "4", "--filter", "kr1-free", "--r", "1"],
     "ca4ab673832a7ca85ec146ad9a3e51da720fa97993c5345bc9ca02e1df51658d"),
], ids=["all-8", "triangle-free-9", "k4-free-8", "all-8-json", "k2-free-4"])
def test_enumerate_output_is_byte_stable(argv, digest):
    # the graph6 streams rest on canonical certificates; a canon change that
    # is self-consistent but labels differently passes every isomorphism
    # test and fails here
    proc = subprocess.run([sys.executable, "-m", "turanlab.cli", *argv],
                          capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("source,argv,digest", [
    (["construct", "groetzsch"], ["analyze"],
     "466acfdfa4d5d26f0b947bed0f87049330b3a46eacd12b5328d1d9cc63769323"),
    (["construct", "turan", "--n", "9", "--r", "3"],
     ["analyze", "--r", "3", "--q", "4"],
     "3f97136898f38f30d6dd02dd83fb3d583d2484c033c5edba09c861d5db9b6ed0"),
    (["construct", "groetzsch"], ["blowup-opt", "--n", "30"],
     "301815ce42f9f78b595662660ec401ef57070bd0b56d41acda3333c6fe5fc830"),
    (["construct", "sat-non-blowup", "--m", "4", "--r", "3", "--n", "40"],
     ["extract-tripartite"],
     "79c5ff5cae8c8c74a298c3deee5312b47699111c84a07d33305a0c86f52e21f2"),
    (["construct", "sat-twin-free", "--m", "8", "--r", "3"], ["extract-tripartite"],
     "fdd56207cfb33e71e964c13984fa53d6bb1fd83ebe2206a6bb99c641490d58a8"),
    (["construct", "turan", "--n", "9", "--r", "3"], ["extract-tripartite"],
     "4688aaa5bd524b8b26b75df7f0ad02386ee9527255932d6887bbb8d1ecc10627"),
    (["construct", "sat-twin-free", "--m", "4", "--r", "3"],
     ["extract-tripartite", "--C-param", "3"],
     "dd0fa9de899bea06f8e43c9b64f5e09c286574ca84cb058378750ec82a769d3e"),
    (None, ["verify", "thm2", "--r", "3", "--n", "7..8"],
     "fdd829374a0423933e2599b6db2ef0497137632f9f189e957771b5ac58dc9843"),
    (None, ["verify", "thm1", "--r", "2", "--n", "5..9"],
     "a9c280c63c84869b5f48a09bf5e1bc5eade9ea07ccfd600374e7f63c7d78d99f"),
    (None, ["verify", "lambda", "--r", "2", "--k", "4", "--max-order", "9"],
     "12006cb07948f523b8625acfd114637d7ba7ee10c2efccb587b2de43888033d5"),
    (None, ["verify", "lemmas"],
     "2cca9a26c4b5d338aff8453e22e2e062384421d80b4ae0ed2e2cb0b0309313d2"),
], ids=["analyze-groetzsch", "analyze-turan-9-3", "blowup-opt-groetzsch",
        "extract-tripartite-sat-non-blowup", "extract-tripartite-sat-twin-free",
        "extract-tripartite-turan-9-3", "extract-tripartite-c3-sat-twin-free",
        "thm2-r3", "thm1-r2", "lambda-r2-k4", "lemmas"])
def test_report_output_is_byte_stable(source, argv, digest):
    # the reports carry witnesses (twin classes, clique, colouring, weights,
    # parts) that no isomorphism-invariant assertion would catch changing
    stdin = b""
    if source is not None:
        stdin = subprocess.run([sys.executable, "-m", "turanlab.cli", *source],
                               capture_output=True, check=True).stdout
    proc = subprocess.run([sys.executable, "-m", "turanlab.cli", *argv],
                          input=stdin, capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


_LAMBDA_R2_K3 = ["verify", "lambda", "--r", "2", "--k", "3", "--max-order", "6"]


# orders 1-6 hold 1, 3, 6, 13, 27 and 65 triangle-free graphs in total and
# the value reaches its lower bound 1 at order 5, where the search stops:
# budgets 27, 30, 64 and 65 all exit 0 with the same report, examined 27,
# and order 6 is never built
@pytest.mark.parametrize("argv,code,digest", [
    (_LAMBDA_R2_K3 + ["--budget", "0"], 2,
     "9ec0ea923d87b38e8b276a972c4e425425e54dbcea55392f3ad7faab787480cd"),
    (_LAMBDA_R2_K3 + ["--budget", "3"], 2,
     "e7a445eef44564880ac738f1f0ab7cbb9db27b1a109b201353ef18e2c6e1ce1d"),
    (_LAMBDA_R2_K3 + ["--budget", "27"], 0,
     "fedb791df38b9857b967eef9db63e831cedeab48ef5effb0a994362dc1d64edd"),
    (_LAMBDA_R2_K3 + ["--budget", "30"], 0,
     "fedb791df38b9857b967eef9db63e831cedeab48ef5effb0a994362dc1d64edd"),
    (_LAMBDA_R2_K3 + ["--budget", "64"], 0,
     "fedb791df38b9857b967eef9db63e831cedeab48ef5effb0a994362dc1d64edd"),
    (_LAMBDA_R2_K3 + ["--budget", "65"], 0,
     "fedb791df38b9857b967eef9db63e831cedeab48ef5effb0a994362dc1d64edd"),
    (["verify", "lambda", "--r", "3", "--k", "4", "--max-order", "7"], 0,
     "75861c1c45c0d3d5bf1529c61388b2030890bab51e7c4dc22ea96cbaa936294a"),
    (["verify", "thm2", "--r", "2", "--n", "5..9"], 0,
     "9672ec9464096c15cbea30b9e6174536ec18d13f1b175bc94d6507465ca598d3"),
    (["verify", "thm1", "--r", "3", "--n", "6..8"], 0,
     "0668c7a124d39b2b18c94e2145475c56e5de2b475cf4cef795d392549e17a600"),
], ids=["lambda-budget-0", "lambda-budget-3", "lambda-budget-27",
        "lambda-budget-30", "lambda-budget-64", "lambda-budget-65",
        "lambda-r3-k4", "thm2-r2", "thm1-r3"])
def test_verify_scans_are_pinned(argv, code, digest):
    # each level scan is written once, with its budget cut taken per level
    # and the lambda search's stop at its lower bound; these pin where a
    # cut or a stop could go wrong
    proc = subprocess.run([sys.executable, "-m", "turanlab.cli", *argv],
                          capture_output=True)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "-1"],
    ["enumerate", "--n", "-5", "--filter", "triangle-free"],
])
def test_negative_order_names_the_option(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument --n: must be >= 0, got {argv[2]}\n")


def test_order_zero_is_the_empty_graph():
    code, out, _ = run_cli(["enumerate", "--n", "0"])
    assert code == 0 and out == "?\n"


# argv and the last line of its stderr: argparse's message for an option
# the parser declares required or does not declare, the command's own for
# the conditional rules argparse cannot declare
_OPTION_ERRORS = [
    (["construct", "turan"], "turanlab construct turan: error: "
     "the following arguments are required: --n, --r"),
    (["construct", "family", "--n", "9"], "turanlab construct family: error: "
     "the following arguments are required: --r"),
    (["enumerate", "--n", "4", "--filter", "kr1-free"],
     "error: --filter kr1-free requires --r"),
    (["verify", "thm1"], "turanlab verify thm1: error: "
     "the following arguments are required: --n"),
    (["verify", "thm2"], "turanlab verify thm2: error: "
     "the following arguments are required: --n"),
    (["verify", "lambda"], "turanlab verify lambda: error: "
     "the following arguments are required: --k"),
    # an option the command does not read
    (["construct", "groetzsch", "--n", "5"],
     "turanlab: error: unrecognized arguments: --n 5"),
    (["construct", "turan", "--n", "5", "--r", "2", "--m", "3"],
     "turanlab: error: unrecognized arguments: --m 3"),
    (["enumerate", "--n", "4", "--r", "7"],
     "error: enumerate --filter none does not read --r"),
    # a family option before the family name, whose value argparse would
    # read as the family
    (["construct", "--format", "json", "turan", "--n", "5", "--r", "2"],
     "turanlab construct: error: --format goes after the family name"),
    (["construct", "--out", "turan.g6", "turan", "--n", "5", "--r", "2"],
     "turanlab construct: error: --out goes after the family name"),
    (["construct", "--timing", "turan", "--n", "5", "--r", "2", "--format", "json"],
     "turanlab construct: error: --timing goes after the family name"),
]


# positional ids, so a case keeps its id when cases are appended
@pytest.mark.parametrize("argv,message", _OPTION_ERRORS,
                         ids=[f"argv{i}" for i in range(len(_OPTION_ERRORS))])
def test_missing_option_is_usage_error(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", message)
    if not message.startswith("turanlab"):
        assert err == f"{message}\n"


# each construct option as written on the command line, and as parsed
_FAMILY_OPTION_SAMPLES = {
    "n": (["--n", "9"], 9), "r": (["--r", "3"], 3), "m": (["--m", "4"], 4),
    "f": (["--f", "2"], 2), "l": (["--l", "2"], 2),
    "variant": (["--variant", "prime"], "prime"),
    "no-empty-set": (["--no-empty-set"], True),
}


def _construct_argv(family, options):
    return ["construct", family,
            *(word for opt in options for word in _FAMILY_OPTION_SAMPLES[opt][0])]


@pytest.mark.parametrize("family,option", [
    (family, option) for family in sorted(cli._FAMILIES)
    for option in cli._FAMILY_OPTIONS])
def test_a_family_takes_only_the_options_it_reads(capsys, family, option):
    # the parser alone decides: an option the family reads parses, a
    # required one left out and one it does not read are usage errors
    reads = cli._FAMILIES[family][1]
    required = [o for o in reads if cli._FAMILY_OPTIONS[o].get("required")]
    parse = cli.build_parser().parse_args
    if option in reads:
        args = parse(_construct_argv(family, {*required, option}))
        assert getattr(args, option.replace("-", "_")) == _FAMILY_OPTION_SAMPLES[option][1]
        if option not in required:
            return
        argv = _construct_argv(family, [o for o in required if o != option])
        message = f"error: the following arguments are required: --{option}"
    else:
        argv = _construct_argv(family, [*required, option])
        message = ("error: unrecognized arguments: "
                   + " ".join(_FAMILY_OPTION_SAMPLES[option][0]))
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"{message}\n")


def test_failed_check_exits_one(monkeypatch, capsys):
    def broken(r, n_values):
        raise AssertionError("extremal witness is 2-colourable")

    monkeypatch.setattr(cli, "verify_threshold", broken)
    assert main(["verify", "thm1", "--n", "5"]) == 1
    assert capsys.readouterr().err == "check failed: extremal witness is 2-colourable\n"


# the package exports the function deficiency under the module's name
deficiency = importlib.import_module("turanlab.deficiency")


def _off_by_one_sum(real):
    def kernel(g, r):
        total, clique = real(g, r)
        return total + 1, clique
    return kernel


def _constant(value):
    return lambda real: lambda *args, **kwargs: value


def _no_deficiency(real):
    return lambda g, r: deficiency.DeficiencyReport(r, 0, (), ())


def _one_edge_short(real):
    def build(cycle, parts):
        g = real(cycle, parts)
        return Graph(g.n, list(g.edges())[1:])
    return build


def _star_of_its_size(real):
    # triangle-free and 2-colourable, with as many edges as the real graph
    return lambda cycle, parts: complete_multipartite([1, real(cycle, parts).edge_count])


def _one_less(real):
    return lambda n, r: real(n, r) - 1


def _one_colour(real):
    return lambda rows, n, k, budget: [0] * n


# case id -> the message of a re-check, the kernel that feeds it (module,
# name, and a wrong version of it from the real one), a command that
# reaches it and its graph6 input; the ids are written out, so a new case
# renames no other
_RECHECKS = {
    "_max_degree_sum_clique": (
        "deficiency formulas disagree: 0 vs 1",
        deficiency, "_max_degree_sum_clique", _off_by_one_sum,
        ["blowup-opt", "--n", "7"], "Dhc\n"),  # C5
    "_k_color": (
        "2-colouring witness is not a proper 2-colouring",
        invariants, "_k_color", _one_colour,
        ["verify", "thm1", "--r", "2", "--n", "5"], None),
    "chromatic_number": (
        "gadget for (r=2, k=4) has chromatic number 3",
        verify, "chromatic_number", _constant((3, None)),
        ["verify", "lambda", "--r", "2", "--k", "4"], None),
    "deficiency": (
        "search minimum 0 is below the lower bound 1",
        verify, "deficiency", _no_deficiency,
        ["verify", "lambda", "--r", "2", "--k", "3", "--max-order", "5"], None),
    "is_r_colorable": (
        "minimum degree exceeds the guaranteed bound; this indicates a solver bug",
        invariants, "is_r_colorable", _constant((False, None)),
        ["extract-tripartite"], "E]~o\n"),  # K_{2,2,2}, K4-free and 4-saturated
    "enumerate_graphs": (
        "extremal witness contains a K_3",
        verify, "enumerate_graphs", _constant([complete_graph(5)]),
        ["verify", "thm1", "--r", "2", "--n", "5"], None),
    "_c5_blowup0": (
        "extremal witness has 4 edges, not 5",
        verify, "_c5_blowup", _one_edge_short,
        ["verify", "thm2", "--r", "2", "--n", "5"], None),
    "_c5_blowup1": (
        "extremal witness is 2-colourable",
        verify, "_c5_blowup", _star_of_its_size,
        ["verify", "thm2", "--r", "2", "--n", "5"], None),
    # C5 itself, the one member at (n, r) = (5, 2), is then above it
    "threshold_size": (
        "family member c5 (1, 1, 1, 1, 1), parts () has 5 edges, above the threshold 4",
        verify, "threshold_size", _one_less,
        ["verify", "thm2", "--r", "2", "--n", "5"], None),
    # DSATUR's 3 colours on C5 leave k = 2 to the search, whose witness
    # _chromatic_number checks before analyze_graph does
    "_k_color-analyze": (
        "2-colouring witness is not a proper 2-colouring",
        invariants, "_k_color", _one_colour,
        ["analyze"], "Dhc\n"),  # C5
    # on K2 DSATUR's 1 colour is below the clique number, so no search
    # runs and analyze_graph's check is the only one its colouring meets
    "dsatur_coloring": (
        "chromatic witness is not a proper colouring",
        invariants, "dsatur_coloring", _constant(invariants.Coloring((0, 0), 1)),
        ["analyze"], "A_\n"),  # K2
    "clique_number": (
        "clique witness (0, 2) is not a clique",
        verify, "clique_number", _constant((2, (0, 2))),
        ["analyze"], "Bg\n"),  # the path 0-1-2
}


@pytest.mark.parametrize("message,module,name,wrong,argv,graphs",
                         _RECHECKS.values(), ids=list(_RECHECKS))
def test_a_recheck_fires_on_a_wrong_kernel(
        monkeypatch, tmp_path, capsys, message, module, name, wrong, argv,
        graphs):
    if graphs is not None:
        infile = tmp_path / "in.g6"
        infile.write_text(graphs)
        argv = [*argv, "--in", str(infile)]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"check failed: {message}\n")


def _one_part(g, r):
    # every vertex in one part, nothing peeled
    return [], [(1 << g.n) - 1, 0, 0]


# case id -> a command, its graph6 input, a kernel to replace (or None),
# the exit code and main's message on stderr
_HANDLED = {
    "k4-in-extract-tripartite": (
        ["extract-tripartite"], "C~\n", None, 2,  # K4
        "precondition failed: graph contains a K_4 (witness (0, 1, 2, 3))"),
    "k3-in-saturate": (
        ["saturate", "--q", "3"], "Bw\n", None, 2,  # K3
        "precondition failed: graph already contains a K_3 (witness (0, 1, 2))"),
    "invalid-certificate": (
        ["extract-tripartite"], "E]~o\n", _one_part, 1,  # K_{2,2,2}
        "certificate validation failed: part not independent at (0,2) "
        "(offender (0, 2))"),
}


@pytest.mark.parametrize("argv,graphs,peel,code,message",
                         _HANDLED.values(), ids=list(_HANDLED))
def test_main_reports_a_refused_input_or_certificate(
        monkeypatch, tmp_path, capsys, argv, graphs, peel, code, message):
    infile = tmp_path / "in.g6"
    infile.write_text(graphs)
    if peel is not None:
        monkeypatch.setattr(tripartite, "_peel", peel)
    assert main([*argv, "--in", str(infile)]) == code
    assert capsys.readouterr() == ("", f"{message}\n")


# an option whose range the library checks as well, the rest of a command
# line that reads it, and its least value
_LIBRARY_RANGES = [
    ("--q", ["saturate"], 3),
    ("--r", ["verify", "thm1", "--n", "5"], 2),
    ("--r", ["verify", "thm2", "--n", "5"], 2),
    ("--r", ["verify", "lambda", "--k", "4"], 2),
    ("--k", ["verify", "lambda"], 2),
    ("--max-order", ["verify", "lambda", "--k", "4"], 1),
    ("--budget", ["verify", "lambda", "--k", "4", "--max-order", "3"], 0),
    ("--r", ["enumerate", "--n", "3", "--filter", "kr1-free"], 1),
]


@pytest.mark.parametrize("option,argv,least", _LIBRARY_RANGES,
                         ids=[" ".join(a[:2]) + o for o, a, _ in _LIBRARY_RANGES])
def test_a_range_the_library_checks_is_declared_on_its_option(
        capsys, option, argv, least):
    # the message names the option, not the library's parameter (the
    # library's own check says "q must be >= 3")
    for value in sorted({-1, least - 1}):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, str(value)])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: must be >= {least}, "
                            f"got {value}\n")


def test_library_has_no_bare_assert():
    # python -O strips assert statements, so a check that must keep
    # running (and turn into exit code 1) raises AssertionError itself
    package = pathlib.Path(cli.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_main_entry_direct(capsys):
    assert main(["construct", "groetzsch"]) == 0
    out = capsys.readouterr().out
    assert from_graph6(out.strip()).n == 11


def test_out_file(tmp_path):
    target = tmp_path / "graphs.g6"
    assert main(["enumerate", "--n", "4", "--out", str(target)]) == 0
    assert len(target.read_text().strip().splitlines()) == 11


def test_enumerate_writes_a_level_in_chunks(monkeypatch, capsys, tmp_path):
    level = enumerate_graphs(7)  # 1,044 graphs
    whole = "".join(level.graph6_chunks())
    monkeypatch.setattr(graph, "_GRAPH6_CHUNK", 100)
    assert len(list(level.graph6_chunks())) == 11
    assert main(["enumerate", "--n", "7"]) == 0
    assert capsys.readouterr().out == whole
    target = tmp_path / "level.g6"
    assert main(["enumerate", "--n", "7", "--out", str(target)]) == 0
    assert target.read_bytes() == whole.encode()


def test_importing_the_cli_loads_no_dataclasses_inspect_ast_or_json():
    # every turanlab process pays for its imports at start-up; these four
    # took about two thirds of importing turanlab and its CLI, and no
    # graph6 path needs them.  Modules the interpreter loaded before (site
    # .pth files may import some) are not counted.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import turanlab, turanlab.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'ast', 'json'}\n"
              "             & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# command, option, least valid value, the report field that value keeps,
# and the input graph: C5 (clique number 2) for analyze and a K4-free
# 4-saturated graph for extract-tripartite
_OPTION_RANGES = [
    ("analyze", "--q", 3, "saturation", ["extremal", "--n", "5", "--r", "2"]),
    ("analyze", "--r", 2, "deficiency", ["extremal", "--n", "5", "--r", "2"]),
    ("extract-tripartite", "--C-param", 1, "parts",
     ["sat-twin-free", "--m", "4", "--r", "3"]),
]


@pytest.mark.parametrize("command,option,least,field,source", _OPTION_RANGES,
                         ids=[f"{c}{o}" for c, o, *_ in _OPTION_RANGES])
def test_an_option_below_its_range_is_a_usage_error(
        tmp_path, capsys, command, option, least, field, source):
    # these values used to run with exit 0: analyze left the saturation or
    # deficiency field out, and extract-tripartite took a meaningless cutoff
    infile = tmp_path / "in.g6"
    assert main(["construct", *source, "--out", str(infile)]) == 0
    for value in sorted({-1, 0, least - 1}):
        with pytest.raises(SystemExit) as exc:
            main([command, option, str(value), "--in", str(infile)])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.endswith(f"error: argument {option}: must be >= {least}, "
                            f"got {value}\n")
    assert main([command, option, str(least), "--in", str(infile)]) == 0
    assert field in json.loads(capsys.readouterr().out)["graphs"][0]
