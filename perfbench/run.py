"""netgeom benchmark: seeded workloads run as whole CLI processes, checked, timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload heavy20k|allpairs2k|reduce \
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` runs the workload's job list as separate ``python -m
netgeom.cli`` processes, one after another (a closed loop with one client),
in as many whole passes as its run plan gives ``--seconds``, and reports the
end-to-end metrics, its times scaled to a reference machine speed by the
calibration bursts of ``calibration.py`` timed around every process. ``--trace 1`` reports the per-layer metrics instead.
Both check every report and print one JSON object as the last line of
standard output. A results file with the machine record goes to
``perfbench/results/``. NOTES.md defines every metric and workload.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import checks
import workloads
from calibration import Calibrator
from tracing import Tracer, job_self_seconds, span_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "1",
}

ALL_JOBS = (
    "generate", "stats", "decompose", "depth", "personality", "crawl-fifo", "crawl-random",
    "estimate", "fit-fifo", "fit-random", "solve-ode", "embed", "embed-refs",
    "reduce-t0", "reduce-t1", "reduce-t2",
)
TIMED_FUNCTIONS = (
    "graph.load_edge_list", "graph.components", "graph.giant_core",
    "stats.path_length_report", "stats.degree_histogram", "stats.fit_double_pareto",
    "stats.senior_stats",
    "structure.depth_map", "structure.depth_density_profile", "structure.decompose",
    "structure.personality_report",
    "embedding.embed_full", "embedding.reduce_references",
    "generators.generate_double_pareto_degrees", "generators.configuration_model",
    "crawl.simulate_crawl", "crawl.write_trace_csv", "crawl.read_trace_csv",
    "crawl.estimate_size", "crawl.fit_rational", "crawl.solve_acquisition_ode",
)
PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_FUNCTIONS},
    "graph.from_edges.s": "s",
    "graph.bfs.s": "s",
    "graph.bfs.edges_scanned": "count",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.load_edge_list.peak_mb": "MiB",
    "embedding.embed_full.peak_mb": "MiB",
    "embedding.reduce_references.peak_mb": "MiB",
    "embedding.reduce_references.kept": "count",
    "embedding.reduce_references.cover_cells": "count",
    "crawl.trace.samples": "count",
    "cli.import.s": "s",
    "cli.self.s": "s",
    "cli.bytes_written": "bytes",
    **{f"job.{job}.wall_s": "s" for job in ALL_JOBS},
    "trace.overhead_s": "s",
    "bench.calibration_s": "s",
}
PEAK_FUNCTIONS = ("graph.load_edge_list", "embedding.embed_full", "embedding.reduce_references")

# Seconds of one calibration burst at the reference speed: a burst on the
# 2-vCPU Xeon VM where the baseline was recorded, at its faster times. The
# timed end-to-end metrics are in seconds at that speed; see ``_ref_s``.
CAL_REF_S = 0.2
IMPORT_SAMPLES = 3
BFS_SOURCES = 64
DEADLINE_S = 170.0  # a job still running this long after the start is killed


class BenchError(Exception):
    """The benchmark cannot run: no program to measure, or its spawner died."""


@dataclass
class Proc:
    job: str
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    cal_wall_s: float  # calibration bursts around the process: mean of before and after
    cal_cpu_s: float


class Runner:
    """Runs netgeom jobs of one workload, as processes or in this process."""

    def __init__(self, wl: workloads.Workload, started: float):
        self.wl = wl
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []
        self.calibrator = Calibrator()
        self.bursts: list[dict] = []
        self.spawner = subprocess.Popen([sys.executable, os.path.join(HERE, "spawn.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        """Stop the spawner, and with it any job it is running."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=1)  # idle, it exits at the end of its input
        except subprocess.TimeoutExpired:
            self.spawner.terminate()
            self.spawner.wait()
        self.spawner.stdout.close()

    def calibrate(self) -> dict:
        """One calibration burst; every burst does the same work."""
        burst = self.calibrator.burst()
        if self.bursts and burst["checksum"] != self.bursts[0]["checksum"]:
            raise BenchError(f"calibration checksum {burst['checksum']} != {self.bursts[0]['checksum']}")
        self.bursts.append(burst)
        return burst

    def process(self, job: str, argv: list[str]) -> Proc:
        """One process, started by the spawner, from spawn to exit, between two
        calibration bursts (the burst after one process is the burst before the next)."""
        before = self.bursts[-1] if self.bursts else self.calibrate()
        err = os.path.join(self.wl.work, "stderr.txt")
        request = {"argv": argv, "cwd": self.wl.work, "env": self.env, "stderr": err,
                   "timeout": self.deadline - time.perf_counter()}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise BenchError("the spawner process died")
        after = self.calibrate()
        p = Proc(job, **json.loads(reply), cal_wall_s=(before["wall_s"] + after["wall_s"]) / 2,
                 cal_cpu_s=(before["cpu_s"] + after["cpu_s"]) / 2)
        if p.code != 0:
            with open(err, errors="replace") as fh:
                sys.stderr.write(f"[{self.wl.name}] {job}: {fh.read()}")
        return p

    def cli(self, job: str, argv: list[str]) -> Proc:
        return self.process(job, [sys.executable, "-m", "netgeom.cli", *argv])

    def _clear(self) -> None:
        shutil.rmtree(os.path.join(self.wl.work, "out"), ignore_errors=True)

    def check(self, codes: dict[str, int]) -> None:
        expected = checks.load_expected() if self.wl.default_seed else None
        failures = checks.failed_checks(self.wl, codes, expected)
        self.attempted += len(codes)
        self.failed += len({job for job, _ in failures})
        self.failures += failures

    def setup_probe(self) -> Proc:
        p = self.cli("setup", ["stats", "--graph", self.wl.setup_input,
                               "--out", os.path.join("setup", "out")])
        self.attempted += 1
        if p.code != 0:
            self.failed += 1
            self.failures.append(("setup", f"exit_code={p.code}"))
        return p

    def process_pass(self) -> list[Proc]:
        self._clear()
        procs = [self.cli(job.name, job.command()) for job in self.wl.jobs]
        self.check({p.job: p.code for p in procs})
        return procs

    def in_process_pass(self, tracer: Tracer) -> tuple[float, float]:
        """Each job through ``netgeom.cli.main`` in this process, first untraced and
        then traced, so that machine drift hits both alike. Returns the summed
        untraced and traced wall times; the traced run's reports are checked."""
        import netgeom.cli

        self._clear()
        codes = {}
        untraced = traced = 0.0
        cwd = os.getcwd()
        os.chdir(self.wl.work)
        try:
            for job in self.wl.jobs:
                gc.collect()
                t0 = time.perf_counter()
                _call_main(netgeom.cli.main, job)
                untraced += time.perf_counter() - t0
                gc.collect()
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    codes[job.name] = tracer.job(job.name, lambda: _call_main(netgeom.cli.main, job))
                    traced += time.perf_counter() - t0
                finally:
                    tracer.uninstall()
        finally:
            os.chdir(cwd)
        self.check(codes)
        return untraced, traced


def _call_main(main, job: workloads.Job) -> int:
    try:
        return main(job.command())
    except Exception:  # a crash fails the job like a traceback exit would
        traceback.print_exc()
        return -1


def _ref_s(p: Proc, field: str) -> float:
    """A process's wall or CPU seconds at the reference speed: the measured time
    scaled by how much faster or slower than ``CAL_REF_S`` the calibration bursts
    around it ran, on the same clock. The speed of a shared VM drifts by up to 2x
    over minutes, for wall and CPU time alike, and that drift cancels here."""
    return getattr(p, field) * CAL_REF_S / getattr(p, "cal_" + field)


def _best_of_passes(passes: list[list[Proc]], seconds) -> float:
    """Sum over jobs of each job's smallest ``seconds(proc)`` over the passes.
    Contention from other tenants only ever slows a process, so the least of a
    job's repeats is its steadiest estimate; summing per job keeps one slow
    burst from leaking into the other jobs' figures."""
    return sum(min(seconds(procs[i]) for procs in passes) for i in range(len(passes[0])))


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: the workload's set-up probes, then whole
    passes over the job list, as many as the workload's plan gives ``seconds``."""
    passes_per_25s, probes = workloads.RUN_PLAN[runner.wl.name]
    setup = [runner.setup_probe() for _ in range(probes)]
    passes = [runner.process_pass() for _ in range(max(1, round(passes_per_25s * seconds / 25)))]
    metrics = {
        "wall_s": _best_of_passes(passes, lambda p: _ref_s(p, "wall_s")),
        "cpu_s": _best_of_passes(passes, lambda p: _ref_s(p, "cpu_s")),
        "setup_s": statistics.median(_ref_s(p, "wall_s") for p in setup),
        "peak_rss_mb": statistics.median(max(p.maxrss_kib for p in procs) for procs in passes) / 1024,
        "ok_ratio": 1 - runner.failed / runner.attempted,
    }
    detail = {
        "fail_ratio": runner.failed / runner.attempted,
        "measured_wall_s": _best_of_passes(passes, lambda p: p.wall_s),
        "measured_cpu_s": _best_of_passes(passes, lambda p: p.cpu_s),
        "measured_setup_s": statistics.median(p.wall_s for p in setup),
        "bursts": runner.bursts,
        "setup": [vars(p) for p in setup],
        "passes": [[vars(p) for p in procs] for procs in passes],
    }
    return metrics, detail


def _load(path: str):
    from netgeom import load_edge_list

    with open(path) as fh:
        return load_edge_list(fh)


def _peak_mb(call) -> float:
    """Peak traced allocation of ``call()`` in MiB, in a tracemalloc session of its own."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def memory_pass(runner: Runner, spans: list[dict]) -> dict[str, float]:
    """``*.peak_mb``: each function that the traced pass reached, called once per
    distinct argument set under tracemalloc, apart from every timing pass."""
    from netgeom import build_cover_matrix, embed_full, reduce_references
    from netgeom.cli import build_parser

    wl = runner.wl
    reached = {(s["name"], s["job"]) for s in spans}
    job_args = {job.name: build_parser().parse_args(job.command()) for job in wl.jobs}
    peaks = dict.fromkeys(PEAK_FUNCTIONS, 0.0)
    done = set()
    for name, job in sorted(reached):
        args = job_args[job]
        key = (name, getattr(args, "graph", None), getattr(args, "tolerance", None))
        if name not in PEAK_FUNCTIONS or key in done:
            continue
        done.add(key)
        path = os.path.join(wl.work, args.graph)
        if name == "graph.load_edge_list":
            call = lambda: _load(path)  # noqa: E731
        elif name == "embedding.embed_full":
            g = _load(path)
            call = lambda: embed_full(g)  # noqa: E731
        else:
            cm = build_cover_matrix(embed_full(_load(path)), tolerance=args.tolerance)
            call = lambda: reduce_references(cm)  # noqa: E731
        peaks[name] = max(peaks[name], _peak_mb(call))
    return {f"{name}.peak_mb": mb for name, mb in peaks.items()}


def graph_probes(runner: Runner) -> dict[str, float]:
    """Graph build from benchmark-parsed pairs, and 64 single-source BFS runs."""
    import numpy as np
    from netgeom import Graph, bfs

    path = os.path.join(runner.wl.work, runner.wl.setup_input)
    index: dict[str, int] = {}
    pairs = []
    with open(path) as fh:
        for line in fh:
            u, v = (index.setdefault(t, len(index)) for t in line.split())
            pairs.append((u, v))
    labels = tuple(index)
    gc.collect()
    t0 = time.perf_counter()
    g = Graph.from_edges(len(labels), pairs, labels=labels)
    build = time.perf_counter() - t0
    n, m = g.node_count, g.edge_count
    k = min(BFS_SOURCES, n)
    sources = np.random.default_rng(runner.wl.seed).choice(n, size=k, replace=False)
    t0 = time.perf_counter()
    for s in sources.tolist():
        bfs(g, s)
    return {
        "graph.from_edges.s": build,
        "graph.bfs.s": time.perf_counter() - t0,
        "graph.bfs.edges_scanned": k * 2 * m,
        "graph.nodes": n,
        "graph.edges": m,
    }


def report_counts(runner: Runner) -> dict[str, float]:
    """Counts read back from the reports of the last pass."""
    wl = runner.wl
    counts = {"cli.bytes_written": 0, "embedding.reduce_references.kept": 0,
              "embedding.reduce_references.cover_cells": 0, "crawl.trace.samples": 0}
    for base, _, files in os.walk(os.path.join(wl.work, "out")):
        counts["cli.bytes_written"] += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    for job in wl.jobs:
        out = os.path.join(wl.work, workloads.out_dir(job.name))
        if job.argv[0] == "reduce":
            with open(os.path.join(out, "reduction.json")) as fh:
                r = json.load(fh)
            n = r["initial_references"]
            counts["embedding.reduce_references.kept"] += r["kept"]
            counts["embedding.reduce_references.cover_cells"] += n * (n - 1) // 2 * n
        elif job.argv[0] == "crawl-sim":
            with open(os.path.join(out, "crawl.json")) as fh:
                counts["crawl.trace.samples"] += json.load(fh)["samples"]
    return counts


def trace(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metrics: one untraced process pass for the job times, then the
    in-process pass, untraced and traced, then the tracemalloc pass."""
    imports = [runner.process("import", [sys.executable, "-c", "import netgeom.cli"])
               for _ in range(IMPORT_SAMPLES)]
    procs = runner.process_pass()
    tracer = Tracer()
    untraced, traced = runner.in_process_pass(tracer)
    counts = report_counts(runner) if not runner.failures else {}
    spans = tracer.spans
    seconds = span_seconds(spans)
    jobs = job_self_seconds(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({f"{name}.s": seconds.get(name, 0.0) for name in TIMED_FUNCTIONS})
    metrics.update(counts)
    metrics.update(memory_pass(runner, spans))
    metrics.update(graph_probes(runner))
    metrics["cli.import.s"] = statistics.median(p.wall_s for p in imports)
    metrics["cli.self.s"] = sum(j["self_s"] for j in jobs.values())
    metrics.update({f"job.{p.job}.wall_s": p.wall_s for p in procs})
    metrics["trace.overhead_s"] = traced - untraced
    metrics["bench.calibration_s"] = statistics.median(b["wall_s"] for b in runner.bursts)
    detail = {
        "untraced_in_process_s": untraced,
        "traced_in_process_s": traced,
        "jobs": jobs,
        "span_seconds": seconds,
        "spans": spans,
    }
    return metrics, detail


def machine_record() -> dict:
    def proc_field(path: str, key: str) -> str | None:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "netgeom", "cli.py")):
        raise BenchError(f"no netgeom sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import netgeom

    if os.path.dirname(os.path.abspath(netgeom.__file__)) != os.path.join(SRC, "netgeom"):
        raise BenchError(f"imported netgeom from {netgeom.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: its own)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="tiny inputs exist only for the self-check")
    args = parser.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    started = time.perf_counter()
    # a terminated run still kills its running job and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _import_program()
    except (BenchError, ImportError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    machine = machine_record()
    tag = f"{args.workload}_seed{seed}_trace{args.trace}" + ("" if args.scale == "full" else f"_{args.scale}")
    work = os.path.join(HERE, "_work", f"{tag}_{os.getpid()}")
    runner = None
    try:
        wl = workloads.build(args.workload, seed, args.scale, work)
        runner = Runner(wl, started)
        metrics, detail = trace(runner) if args.trace else measure(runner, args.seconds)
        outputs = {job.name: checks.file_hashes(os.path.join(work, workloads.out_dir(job.name)))
                   for job in wl.jobs}
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_end"] = os.getloadavg()
    units = PER_LAYER if args.trace else END_TO_END
    failed = runner.failed
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": seed, "scale": args.scale, "trace": args.trace,
        "seconds": args.seconds, "jobs": {j.name: j.command() for j in wl.jobs},
        "machine": machine, "result": result, "failed_checks": runner.failures,
        "detail": detail, "outputs": outputs,
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for job, name in runner.failures:
        print(f"FAILED check {args.workload}/{job}: {name}")
    if not args.trace:
        print(f"fail_ratio = {detail['fail_ratio']:.4f} 1")
        for name in ("measured_wall_s", "measured_cpu_s", "measured_setup_s"):
            print(f"{name} = {detail[name]:.6g} s")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
