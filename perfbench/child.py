"""One cold process of a workload: import turanlab, run the body, check it.

Run by ``run.py`` as ``python -I perfbench/child.py --workload W --seed S
--mode setup|plain|traced``.  Set-up ends once ``turanlab`` and its CLI
are imported; the monotonic clock reading at that point goes back to the
parent, which started its own reading just before it spawned this process.
The last line of stdout is one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import turanlab  # noqa: E402
import turanlab.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from perfbench import gates, spans  # noqa: E402

tl = turanlab


def mycielskian(g: "tl.Graph") -> "tl.Graph":
    """Mycielski's construction: triangle-free in, triangle-free out, and
    the chromatic number goes up by one."""
    n = g.n
    rows = [0] * (2 * n + 1)
    for u, v in g.edges():
        for a, b in ((u, v), (u, n + v), (n + u, v)):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    for i in range(n, 2 * n):
        rows[i] |= 1 << (2 * n)
        rows[2 * n] |= 1 << i
    return tl.Graph.from_rows(rows)


def attempt(fn, *args, **kwargs) -> tuple[object, str | None]:
    """Run one operation; any exception, a budget trip included, is a
    failed operation, recorded and counted, and the workload goes on."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - boundary that must keep running
        return None, f"{type(exc).__name__}: {exc}"


def enum_body(spec: gates.EnumSpec) -> tuple[str, int]:
    """The CLI command in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tl.cli.main(list(spec.argv))
    return buf.getvalue(), code


# how many stream graphs also go through zykov_reduce and optimal_blowup
REDUCE_COUNT = 1000


def stream_reports(graphs: list) -> list[dict]:
    """(a) The per-graph work of ``verify lambda``: clique number,
    3-colourability and deficiency at rank 2."""
    out = []
    for g in graphs:
        ops = [attempt(tl.clique_number, g), attempt(tl.is_r_colorable, g, 3),
               attempt(tl.deficiency, g, 2)]
        err = next((e for _, e in ops if e), None)
        if err:
            out.append({"error": err})
            continue
        (w, clique), (ok, col), rep = (r for r, _ in ops)
        out.append({"omega": w, "clique": list(clique),
                    "col3": list(col.colors) if ok else None,
                    "deficiency": {"value": rep.value, "clique": list(rep.clique),
                                   "per_vertex": list(rep.deficiencies)}})
    return out


def chi_reports(fixed: dict) -> dict:
    """(b) Budgeted exact chromatic number."""
    out = {}
    for name, g in fixed.items():
        res, err = attempt(tl.chromatic_number, g, node_budget=gates.CHI_NODE_BUDGET)
        out[name] = {"error": err} if err else {"chi": res[0], "colors": list(res[1].colors)}
    return out


def saturation_reports(sat_graphs: dict) -> dict:
    """(c) Saturation report and complete tripartite extraction."""
    out = {}
    for name, g in sat_graphs.items():
        report, err = attempt(tl.is_saturated, g, 4)
        cert, err2 = attempt(tl.extract_tripartite, g)
        if err or err2:
            out[name] = {"error": err or err2}
        else:
            out[name] = {"saturated": report.saturated, "obstruction": report.obstruction,
                         "completions": report.completions,
                         "parts": [list(p) for p in cert.parts]}
    return out


def reduce_reports(graphs: list) -> list[dict]:
    """(d) Zykov symmetrization to a complete multipartite graph, and the
    optimal blow-up to three times the order."""
    out = []
    for g in graphs:
        res, err = attempt(tl.zykov_reduce, g)
        blow, err2 = attempt(tl.optimal_blowup, g, 3 * g.n)
        if err or err2:
            out.append({"error": err or err2})
        else:
            out.append({"reduced": list(res[0].rows), "steps": len(res[1].steps),
                        "weights": list(blow[0]), "edges": blow[1], "target": 3 * g.n})
    return out


def certify_body(text: str) -> tuple[dict, dict]:
    """Exact searches on the seeded stream and on four fixed graphs.
    Library calls go through module attributes, so the traced run sees
    them.  Returns the inputs (as rows) and the report of every operation."""
    graphs = tl.graph.read_graph6_lines(text.splitlines())
    fixed = {"tf-chi5": tl.trianglefree_5chromatic(),
             "myc-myc-groetzsch": mycielskian(mycielskian(tl.groetzsch_graph()))}
    sat_graphs = {"sat-twin-free-8-3": tl.sat_twin_free(8, 3),
                  "sat-non-blowup-4-3-120": tl.sat_non_blowup(4, 3, 120)}
    report = {"stream": stream_reports(graphs), "chi": chi_reports(fixed),
              "saturation": saturation_reports(sat_graphs),
              "reduce": reduce_reports(graphs[:REDUCE_COUNT])}
    inputs = {"stream": [list(g.rows) for g in graphs],
              "chi": {k: list(g.rows) for k, g in fixed.items()},
              "saturation": {k: list(g.rows) for k, g in sat_graphs.items()}}
    return inputs, report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    if args.mode == "setup":
        print(json.dumps({"ready": READY}))
        return 0

    text = sys.stdin.read()
    recorder = spans.Recorder() if args.mode == "traced" else None
    if recorder:
        recorder.install(turanlab)
    start = time.perf_counter()
    cpu_start = time.process_time()
    if args.workload == "certify":
        inputs, report = certify_body(text)
    else:
        spec = gates.ENUM[args.workload]
        stream, code = enum_body(spec)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder:
        recorder.uninstall()

    tally = gates.Tally()
    out: dict = {"ready": READY, "wall_s": wall, "cpu_s": cpu, "maxrss_kb": maxrss_kb}
    if args.workload == "certify":
        gates.check_certify(tally, args.seed, inputs, report)
        out["items"] = len(inputs["stream"]) + len(inputs["chi"]) + len(inputs["saturation"])
        out["digest"] = gates.report_digest(report)
    else:
        tally.check(code == 0, f"enumerate exited {code}")
        # lower orders through the public API, after the timed body: served
        # from the level cache the body filled, recomputed if there is none
        lower =[len(tl.enumerate_graphs(k, spec.forbidden_clique))
                 for k in range(1, spec.order)]
        gates.check_enum(tally, spec, stream, lower)
        out["items"] = len(stream.splitlines())
        out["digest"] = gates.sha256(stream)
    if recorder:
        layers, absent = spans.layer_metrics(recorder.names, recorder.spans)
        if "enumeration.kept" in layers and args.workload in gates.ENUM:
            want = sum(gates.ENUM[args.workload].counts)
            tally.check(layers["enumeration.kept"] == want,
                        f"enumeration.kept {layers['enumeration.kept']}, expected {want}")
        out["layers"] = layers
        out["absent"] = absent
        if args.spans_out:
            recorder.write(args.spans_out, f"{args.workload}-{args.seed}")
    out.update(attempted=tally.attempted, failed=len(tally.failures),
               failures=tally.failures[:10])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
