"""Fast self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload, with ``--trace 0`` and ``--trace 1``, it checks that the
last line of output is the result object, that every check passed, and that
exactly the metrics named in BENCHMARK.json are printed, each with its unit,
both in the object and as a ``name = value unit`` line. For traced runs it
checks that spans nest, that each job's direct children plus its self time
add up to the job span, and that each workload reaches the layers NOTES.md
says it does. Last, it checks that the benchmark fails, printing no result,
in a directory that holds only BENCHMARK.json and the benchmark.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

sys.path.insert(0, HERE)
import run  # noqa: E402

# per-layer metrics that must be above zero on each workload: its jobs reach them
REACHED = {
    "heavy20k": ["graph.load_edge_list.s", "graph.giant_core.s", "stats.fit_double_pareto.s",
                 "structure.personality_report.s", "generators.configuration_model.s",
                 "crawl.simulate_crawl.s", "crawl.fit_rational.s", "crawl.trace.samples",
                 "graph.load_edge_list.peak_mb", "job.solve-ode.wall_s"],
    "allpairs2k": ["stats.path_length_report.s", "structure.depth_map.s", "embedding.embed_full.s",
                   "embedding.embed_full.peak_mb", "job.embed-refs.wall_s"],
    "reduce": ["embedding.reduce_references.s", "embedding.reduce_references.peak_mb",
               "embedding.reduce_references.kept", "embedding.reduce_references.cover_cells",
               "job.reduce-t2.wall_s"],
}


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck: FAILED: {message}")


def declared() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[:-1]}")
    want = declared()["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(want.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{workload}: {name} = {m['value']!r}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {m['unit']}") for line in lines):
            fail(f"{workload}: no '{name} = value {m['unit']}' line")
    return result


def check_spans(workload: str, result: dict) -> None:
    with open(os.path.join(HERE, "results", f"BENCH_{workload}_seed3_trace1_tiny.json")) as fh:
        detail = json.load(fh)["detail"]
    spans = detail["spans"]
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            if not (parent["start"] <= s["start"] <= s["end"] <= parent["end"]) or s["job"] != parent["job"]:
                fail(f"{workload}: span {s} not inside its parent {parent}")
    for job, j in detail["jobs"].items():
        if j["self_s"] < 0 or not math.isclose(j["children_s"] + j["self_s"], j["span_s"], abs_tol=1e-9):
            fail(f"{workload}: job {job} children + self != span: {j}")
    for name in REACHED[workload] + [f"job.{job}.wall_s" for job in detail["jobs"]]:
        if result["metrics"][name]["value"] <= 0:
            fail(f"{workload}: {name} is not above zero")


def check_without_program() -> None:
    bare = os.path.join(HERE, "_work", "selfcheck_bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                               "reduce", "--seed", "1", "--seconds", "10", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"ran without the program: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    bench = declared()
    if bench["end_to_end"] != run.END_TO_END or bench["per_layer"] != run.PER_LAYER:
        fail("BENCHMARK.json and run.py name different metrics or units")
    for workload in REACHED:
        for trace in (0, 1):
            result = run_tiny(workload, trace)
            if trace:
                check_spans(workload, result)
            print(f"ok {workload} trace={trace}", flush=True)
    check_without_program()
    print("ok without the program: exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
