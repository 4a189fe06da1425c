"""Checks on the reports of one pass over a workload's jobs.

At the default seed of the full-size workloads every report file must match
the SHA-256 recorded in ``expected_sha256.json``. At every seed the checks
below hold whatever graph was drawn; each names the job it blames.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import Workload, out_dir

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_sha256.json")


def file_hashes(directory: str) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    hashes = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _read_json(wl: Workload, job: str, name: str) -> dict:
    with open(os.path.join(wl.work, out_dir(job), name)) as fh:
        return json.load(fh)


def _generate_matches_input(wl: Workload) -> bool:
    with open(os.path.join(wl.work, out_dir("generate"), "edges.txt"), "rb") as a, \
            open(os.path.join(wl.work, wl.setup_input), "rb") as b:
        return a.read() == b.read()


def _depth_matches_paths(wl: Workload) -> bool:
    mean_depth = _read_json(wl, "depth", "summary.json")["mean_depth"]
    mean_path = _read_json(wl, "stats", "report.json")["paths"]["mean"]
    # equal up to summation order: both average the same integer distances
    return math.isclose(mean_depth, mean_path, rel_tol=1e-12)


def _coords_symmetric(wl: Workload) -> bool:
    with open(os.path.join(wl.work, out_dir("embed"), "coords.csv")) as fh:
        head, *rows = fh.read().splitlines()
    refs = head.split(",")[1:]
    nodes = [row.split(",", 1)[0] for row in rows]
    coords = np.array([row.split(",")[1:] for row in rows], dtype=np.int64)
    return (refs == nodes and coords.shape == (len(nodes), len(nodes))
            and bool((coords == coords.T).all()) and not coords.diagonal().any())


def _within_tolerance(job: str):
    def check(wl: Workload) -> bool:
        r = _read_json(wl, job, "reduction.json")
        return 0 <= r["max_distortion"] <= r["tolerance"] and r["kept"] >= 1
    return check


SEED_FREE_CHECKS = {
    "heavy20k": [("generate", "edges_match_input", _generate_matches_input)],
    "allpairs2k": [
        ("depth", "exact_mean_depth_equals_mean_path", _depth_matches_paths),
        ("embed", "coords_symmetric_zero_diagonal", _coords_symmetric),
    ],
    "reduce": [
        (job, "max_distortion_within_tolerance", _within_tolerance(job))
        for job in ("reduce-t0", "reduce-t1", "reduce-t2")
    ],
}


def failed_checks(wl: Workload, codes: dict[str, int], expected: dict | None) -> list[tuple[str, str]]:
    """(job, check) for every check the pass failed; ``codes`` maps job to exit code."""
    failed = [(job, f"exit_code={code}") for job, code in codes.items() if code != 0]
    if expected is not None:
        for job in codes:
            got = file_hashes(os.path.join(wl.work, out_dir(job)))
            want = expected.get(wl.name, {}).get(job, {})
            failed += [(job, f"sha256:{name}") for name in sorted(set(got) | set(want))
                       if got.get(name) != want.get(name)]
    for job, name, check in SEED_FREE_CHECKS[wl.name]:
        if codes.get(job) != 0:
            continue  # already failed on its exit code; its reports may be missing
        try:
            ok = check(wl)
        except (OSError, ValueError, KeyError, TypeError) as e:
            ok, name = False, f"{name} ({type(e).__name__}: {e})"
        if not ok:
            failed.append((job, name))
    return failed
