"""Benchmark of turanlab: one run of one workload.

    python3 perfbench/run.py --workload enum-tf|enum-all|certify \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Each repetition is a cold, single-threaded child
process (``child.py``), one at a time.  A run repeats the workload body
until the next repetition would end past ``--seconds`` (at least once),
and starts a few set-up-only children before every repetition and after
the last.  With ``--trace 1``
it alternates an untraced and a traced repetition and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
checkout holds no library to measure.  Each run also appends its full
record to ``.bench_out/results.jsonl`` and the traced run writes its spans
to ``.bench_out/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("enum-tf", "enum-all", "certify")
PROBES_PER_GAP = 5
CHILD_TIMEOUT_S = 150


def spawn(workload: str, seed: int, mode: str, stdin_text: str) -> dict:
    """One cold child; its record gains ``setup_s`` (spawn to ready) or,
    when it did not finish cleanly, ``error``."""
    cmd = [sys.executable, "-I", CHILD, "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans-{workload}.csv")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, input=stdin_text, capture_output=True, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"{mode} child timed out"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
    rec = json.loads(lines[-1])
    rec["mode"] = mode
    rec["setup_s"] = rec["ready"] - t0
    return rec


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return {"p": round(100 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def provenance() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "turanlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def summarize(spec: dict, setups: list[float], reps: list[dict], trace: bool
              ) -> tuple[dict, dict]:
    """Metrics of one run (end-to-end, or per-layer when traced) and the
    check totals.  A child that failed to report counts as one failed
    check of one attempted."""
    ok = [r for r in reps if "error" not in r]
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "traced"]
    errors = [r["error"] for r in reps if "error" in r]
    attempted = sum(r["attempted"] for r in ok) + len(errors)
    failed = sum(r["failed"] for r in ok) + len(errors)
    failures = errors + [f for r in ok for f in r["failures"]]
    setup = setups + [r["setup_s"] for r in ok]
    samples = {"setup": len(setup), "plain": len(plain), "traced": len(traced)}

    values: dict[str, list[float]] = {}
    if trace:
        for name in spec["per_layer"]:
            got = [r["layers"][name] for r in traced if name in r["layers"]]
            if got:
                values[name] = got
        if plain and traced:
            values["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                          - statistics.median(r["wall_s"] for r in plain)]
    elif plain:
        values = {"wall_s": [r["wall_s"] for r in plain],
                  "items_per_s": [r["items"] / r["wall_s"] for r in plain],
                  "setup_s": setup,
                  "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in plain]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
               for name, unit in wanted.items() if name in values}
    record = {
        "metrics": metrics,
        "tails": {name: tail_percentile(v) for name, v in values.items()
                  if name in metrics and not trace},
        "absent": sorted(set(wanted) - set(metrics)),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "digests": sorted({r["digest"] for r in ok}),
        "cpu_s": [r["cpu_s"] for r in plain],
    }
    return record, {"correct": failed == 0 and attempted > 0,
                    "attempted": max(attempted, 1), "failed": failed}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "turanlab", "__init__.py")):
        print(f"no turanlab sources under {ROOT}/src: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    stdin_text = inputs.certify_stream(args.seed) if args.workload == "certify" else ""

    order: list[str] = []
    setups: list[float] = []
    reps: list[dict] = []

    def probes() -> None:
        """Set-up-only children, before every repetition and after the last,
        so the set-up median covers the whole run."""
        for _ in range(PROBES_PER_GAP):
            probe = spawn(args.workload, args.seed, "setup", stdin_text="")
            order.append("setup")
            if "error" in probe:
                reps.append(probe)
            else:
                setups.append(probe["setup_s"])

    modes = ["plain", "traced"] if args.trace else ["plain"]
    start = time.monotonic()
    rounds = 0
    while True:
        probes()
        for mode in modes:
            reps.append(spawn(args.workload, args.seed, mode, stdin_text))
            order.append(mode)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    probes()

    record, result = summarize(spec, setups, reps, bool(args.trace))
    run_log = os.path.join(OUT_DIR, "results.jsonl")
    run_index = 0
    if os.path.exists(run_log):
        with open(run_log) as fh:
            run_index = sum(1 for _ in fh)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "run_index": run_index, "order": order,
              **provenance(), **record}
    with open(run_log, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={record['samples']} run_index={run_index} commit={record['commit']} "
          f"python={record['python']} nproc={record['nproc']}")
    for name, m in record["metrics"].items():
        tail = record["tails"].get(name)
        tail_text = f"p{tail['p']:g} {tail['value']:.6g}" if tail else "tail: too few samples"
        print(f"{name}: {m['value']:.6g} {m['unit']} (median; {tail_text})"
              if not args.trace else f"{name}: {m['value']:.6g} {m['unit']}")
    for name in record["absent"]:
        print(f"{name}: absent")
    print(f"failed_frac: {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} checks)")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({**result, "metrics": record["metrics"]}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
