"""Seeded workload inputs and the job list each workload runs.

A workload writes its input edge lists into a work directory and names the
``netgeom`` subcommands to run there, one process per job, in order. Every
job writes into ``out/<job>`` under the work directory, and every path a job
names is relative, so the reports (meta.json records input basenames only)
do not depend on where the work directory lives.

Inputs:

* ``heavy20k`` draws the criterion-6 graph with the workload seed as the
  generator seed, exactly as ``netgeom generate`` does for that seed.
* ``allpairs2k`` and ``reduce`` always take the giant core drawn at their
  default seed 7. Any other workload seed relabels that core: a seeded
  permutation of the node labels, of the line order and of the endpoints on
  each line. The inputs differ per seed while the amount of work stays the
  same, because the cost of ``reduce`` (its greedy rounds) and of the all-pairs
  jobs depends strongly on the graph drawn: across generator seeds the n=630
  core ranges from 584 to 626 nodes, which even flips ``reduce`` between its
  dense and streamed branches, and its time ranged from 3.0 s to 7.6 s.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

HEAVY_RECIPE = {"alpha-left": 1, "alpha-right": 3, "break": 50, "min": 10}
CORE_RECIPE = {"alpha-left": 1.5, "alpha-right": 2.5, "break": 10, "min": 1}
CORE_SEED = 7

DEFAULT_SEEDS = {"heavy20k": 42, "allpairs2k": CORE_SEED, "reduce": CORE_SEED}

# Passes over the job list per 25 s of run length, and the number of set-up
# probes. Counts are fixed, not timed, so that every run at one length
# computes the same statistics however fast the machine happens to be.
RUN_PLAN = {"heavy20k": (1, 4), "allpairs2k": (2, 6), "reduce": (2, 6)}

# generator node counts per workload; "tiny" only serves the self-check
SIZES = {
    "full": {"heavy20k": 20_000, "allpairs2k": 2_100, "reduce": (420, 630)},
    "tiny": {"heavy20k": 400, "allpairs2k": 150, "reduce": (40, 60)},
}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]

    def command(self) -> list[str]:
        return [*self.argv, "--out", out_dir(self.name)]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    scale: str
    work: str
    jobs: tuple[Job, ...]
    setup_input: str  # the largest input, read by the bare `stats --graph` set-up probe

    @property
    def default_seed(self) -> bool:
        return self.scale == "full" and self.seed == DEFAULT_SEEDS[self.name]


def out_dir(job: str) -> str:
    return os.path.join("out", job)


def _recipe_tokens(n: int, recipe: dict) -> list[str]:
    return [f"n={n}"] + [f"{k}={v}" for k, v in recipe.items()]


def _draw(n: int, recipe: dict, seed: int):
    from netgeom import DoubleParetoSpec, configuration_model, generate_double_pareto_degrees

    spec = DoubleParetoSpec(
        size=n,
        alpha_left=recipe["alpha-left"],
        alpha_right=recipe["alpha-right"],
        break_degree=recipe["break"],
        min_degree=recipe["min"],
        seed=seed,
    )
    return configuration_model(generate_double_pareto_degrees(spec), seed=seed)


def _edge_lines(g) -> list[str]:
    # the same text `netgeom generate` writes to edges.txt
    return [f"{g.label_of(u)} {g.label_of(v)}\n" for u, v in g.edges()]


def _relabeled_core_lines(n: int, seed: int) -> list[str]:
    from netgeom import giant_core

    core = giant_core(_draw(n, CORE_RECIPE, CORE_SEED))
    if seed == CORE_SEED:
        return _edge_lines(core)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(core.node_count)
    edges = np.array(list(core.edges()), dtype=np.int64).reshape(-1, 2)
    edges = perm[edges][rng.permutation(len(edges))]
    swap = rng.random(len(edges)) < 0.5
    edges[swap] = edges[swap, ::-1]
    return [f"{u} {v}\n" for u, v in edges.tolist()]


def _write(work: str, name: str, lines: list[str]) -> str:
    with open(os.path.join(work, name), "w") as fh:
        fh.writelines(lines)
    return name


def build(name: str, seed: int, scale: str, work: str) -> Workload:
    """Write the inputs of workload ``name`` into ``work`` and return its jobs."""
    size = SIZES[scale][name]
    os.makedirs(work, exist_ok=True)
    if name == "heavy20k":
        g = _write(work, "graph.txt", _edge_lines(_draw(size, HEAVY_RECIPE, seed)))
        fifo = os.path.join(out_dir("crawl-fifo"), "trace.csv")
        rand = os.path.join(out_dir("crawl-random"), "trace.csv")
        jobs = [
            Job("generate", ("generate", "--double-pareto", *_recipe_tokens(size, HEAVY_RECIPE),
                             "--seed", str(seed))),
            Job("stats", ("stats", "--graph", g, "--giant", "--degrees", "--fit",
                          "--paths", "sampled:64", "--seniors", "50")),
            Job("decompose", ("decompose", "--graph", g, "--giant")),
            Job("depth", ("depth", "--graph", g, "--giant", "--mode", "sampled:64",
                          "--profile-bin", "0.25")),
            Job("personality", ("personality", "--graph", g, "--giant")),
            Job("crawl-fifo", ("crawl-sim", "--graph", g, "--policy", "fifo", "--stride", "1")),
            Job("crawl-random", ("crawl-sim", "--graph", g, "--policy", "random", "--stride", "1")),
            Job("estimate", ("estimate", "--trace", fifo)),
            Job("fit-fifo", ("fit-rational", "--trace", fifo)),
            Job("fit-random", ("fit-rational", "--trace", rand)),
            Job("solve-ode", ("solve-ode", "--d0", "100", "--dprime0", "-0.5", "--step", "0.01",
                              "--pmax", "200")),
        ]
        return Workload(name, seed, scale, work, tuple(jobs), g)
    if name == "allpairs2k":
        lines = _relabeled_core_lines(size, seed)
        g = _write(work, "graph.txt", lines)
        refs: list[str] = []  # the first 16 labels in order of appearance
        for line in lines:
            refs += [t for t in line.split() if t not in refs]
            if len(refs) >= 16:
                break
        jobs = [
            Job("stats", ("stats", "--graph", g, "--paths", "exact")),
            Job("depth", ("depth", "--graph", g, "--mode", "exact", "--profile-bin", "0.25")),
            Job("embed", ("embed", "--graph", g)),
            Job("embed-refs", ("embed", "--graph", g, "--refs", ",".join(refs[:16]))),
            Job("decompose", ("decompose", "--graph", g)),
        ]
        return Workload(name, seed, scale, work, tuple(jobs), g)
    if name == "reduce":
        small = _write(work, "small.txt", _relabeled_core_lines(size[0], seed))
        large = _write(work, "large.txt", _relabeled_core_lines(size[1], seed))
        jobs = [
            Job("reduce-t0", ("reduce", "--graph", small, "--tolerance", "0")),
            Job("reduce-t1", ("reduce", "--graph", small, "--tolerance", "1")),
            Job("reduce-t2", ("reduce", "--graph", large, "--tolerance", "2")),
        ]
        return Workload(name, seed, scale, work, tuple(jobs), large)
    raise ValueError(f"unknown workload {name!r}")
