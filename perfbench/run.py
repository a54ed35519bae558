"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campus-replay --seed 1 \\
        --seconds 25 --trace 0

Each run generates its corpus from ``--seed`` (``corpus.py``, in a
child process), then repeats passes of the workload until ``--seconds``
of set-up plus ingest have been measured, at least ``MIN_PASSES``
passes have run and the untraced passes made ``MIN_READS`` reads.
Every pass runs in a fresh process (``one_pass.py``), so passes are
independent and ``peak_rss_mb`` is one pass's own.  After every pass,
outside the timed part, each device's final fix is checked against
``locate(Γ_ref)``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: self times from the traced passes' spans, counts
from the program's own registries, and ``trace.overhead_share``.  The
spans of the last traced pass are written to
``.perfbench-work/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (hardware, versions, sizes, sample counts).
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from corpus import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Safety margin: stop starting passes after this much wall time so a
#: run always ends well inside its time limit.
PASS_BUDGET_S = 110.0
#: A pass still running this long after the run started is killed.
RUN_LIMIT_S = 170.0
#: Passes per run at least, so every median has three samples.
MIN_PASSES = 3
#: Untraced ``/locate`` reads per run at least: ten lie beyond p95, so
#: ``locate_p95_ms`` is always the 95th percentile.
MIN_READS = 200


def percentile(values, q: float):
    """(value, percentile reported, samples) for percentile ``q``.

    When fewer than ten samples lie beyond ``q``, the highest
    percentile that has ten beyond it is reported instead.
    """
    n = len(values)
    if n == 0:
        return None, q, 0
    if n * (1.0 - q / 100.0) < 10.0:
        q = max(0.0, 100.0 * (1.0 - 10.0 / n))
    return float(np.percentile(values, q)), q, n


def make_corpus(workload: str, seed: int, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out), "--src", str(SRC)],
        capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"corpus generation failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_pass(args, corpus: dict, pass_dir: Path, traced: bool,
                 deadline: float) -> dict:
    """Run one pass in a fresh process; returns its summary."""
    command = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--corpus", str(corpus["path"]), "--pass-dir", str(pass_dir),
               "--traced", str(int(traced))]
    if args.wrong_reference:
        command.append("--wrong-reference")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if done.returncode != 0:
        raise RuntimeError(f"pass failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(passes: list, samples: dict) -> dict:
    """End-to-end metric values from the untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    values = {}
    # Every pass emits thousands of estimates: each pass gets its own
    # percentile and the median over passes is reported, so one pass
    # hit by a stall does not own the tail.
    for name, key in (("emit_latency_p50_ms", "emit_p50_ms"),
                      ("emit_latency_p99_ms", "emit_p99_ms")):
        per_pass = [p[key] for p in plain if p[key][2]]
        values[name] = (float(np.median([v for v, _, _ in per_pass]))
                        if per_pass else None)
        samples[name] = {"n_per_pass": [n for _, _, n in per_pass],
                         "percentile_reported": min(
                             (r for _, r, _ in per_pass), default=None)}
    # A fleet pass makes only a few dozen /locate reads: pool them.  A
    # run goes on until MIN_READS are pooled, so the percentile reported
    # does not depend on how many passes fit.
    reads_ms = np.concatenate([p["reads_ms"] for p in plain])
    for name, q in (("locate_p50_ms", 50), ("locate_p95_ms", 95)):
        values[name], reported, count = percentile(reads_ms, q)
        samples[name] = {"n": count, "percentile_reported": reported}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # None only when no device matched its reference (a failed check).
    errors = [p["check"]["loc_error_p50_m"] for p in passes
              if p["check"]["loc_error_p50_m"] is not None]
    values.update({
        "setup_s": float(np.median([p["setup_s"] for p in plain])),
        "frames_per_s": float(np.median([p["frames_per_s"]
                                         for p in plain])),
        "peak_rss_mb": float(np.median([p["peak_rss_mb"] for p in plain])),
        "success_rate": 1.0 - failed / attempted,
        "loc_error_p50_m": float(np.median(errors)) if errors else None,
        "located_share": float(np.median(
            [p["check"]["located_share"] for p in passes])),
    })
    samples["setup_s"] = samples["frames_per_s"] = len(plain)
    samples["peak_rss_mb"] = len(plain)
    return values


def per_layer(passes: list) -> dict:
    """Per-layer values: the mean over traced passes, plus tracing cost."""
    traced = [p for p in passes if p["traced"]]
    values = {name: float(np.mean([p["layers"][name] for p in traced]))
              for name in traced[0]["layers"]}
    plain_wall = np.median([p["wall_s"] for p in passes if not p["traced"]])
    values["trace.overhead_share"] = float(
        np.median([p["wall_s"] for p in traced]) / plain_wall - 1.0)
    return values


def bench(args, workdir: Path):
    started = time.perf_counter()
    # Metric names and units come from the benchmark's description.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    corpus = {"path": workdir / "corpus"}
    corpus["sizes"] = make_corpus(args.workload, args.seed, corpus["path"])
    passes: list = []
    measured = 0.0
    reads = 0
    while True:
        # A traced run alternates untraced and traced passes.
        traced = bool(args.trace) and len(passes) % 2 == 1
        summary = measure_pass(args, corpus,
                               workdir / f"pass-{len(passes)}", traced,
                               started + RUN_LIMIT_S)
        passes.append(summary)
        measured += summary["setup_s"] + summary["wall_s"]
        if not traced:
            reads += len(summary["reads_ms"])
        if args.trace and not traced:
            continue
        enough = (measured >= args.seconds and len(passes) >= MIN_PASSES
                  and (args.trace or reads >= MIN_READS))
        if enough or time.perf_counter() - started > PASS_BUDGET_S:
            break

    samples: dict = {}
    if args.trace:
        values, kind = per_layer(passes), "per_layer"
    else:
        values, kind = end_to_end(passes, samples), "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "params": WORKLOADS[args.workload],
        "sizes": corpus["sizes"],
        "samples": samples,
        "passes": [{key: p[key] for key in (
            "traced", "cpus", "setup_s", "wall_s", "frames_per_s",
            "emit_p50_ms", "emit_p99_ms", "peak_rss_mb",
            "emits_unmatched", "attempted", "failed", "check")}
            for p in passes],
        "wall_s": time.perf_counter() - started,
    }
    result = {"correct": all(p["ok"] for p in passes),
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--wrong-reference", action="store_true",
                        help="check against a deliberately wrong Γ_ref; "
                             "the run must then report correct=false")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result, record = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
