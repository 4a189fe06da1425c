"""Record the SHA-256 of every file the golden CLI run writes into cli_golden_sha256.json.

Run from the repository root, only when a change is meant to alter reports:

    python3 tests/record_cli_golden.py

The golden run calls ``netgeom.cli.main`` in-process once per case in CASES,
on small seeded inputs: the 5-node path, the same path plus a separate
2-node component, and the graphs of the four ``generate`` cases. The
88-node appendage graph takes more than one 64-source traversal block, and
the random core of ``gen-appendage-random`` is disconnected before its
repair, so the component-linking step runs. Both appendage graphs have
pendant trees, which the exact depth and exact path cases cover. Two small
inputs pin ``decompose`` on branched pendant trees: ``ties.txt`` hangs two
equal-height branches under one node of a pure-cycle core, and
``fibers.txt`` has a fiber, a loop fiber and a branched tree on a K4.
``one.txt`` is a lone node, which peels away as a 1-node tentacle.
``tests/test_cli.py::TestGolden`` repeats the run and compares every digest,
``meta.json`` included.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "cli_golden_sha256.json"

INPUTS = {
    "p5.txt": "0 1\n1 2\n2 3\n3 4\n",
    "p5_plus_pair.txt": "0 1\n1 2\n2 3\n3 4\na b\n",
    # a 4-cycle core with two equal-height branches under 4
    "ties.txt": "0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n4 6\n5 7\n6 8\n1 9\n",
    # K4 with a loop fiber at 0, a fiber from 1 to 2 and a branched tree at 3
    "fibers.txt": "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 10\n10 11\n11 0\n1 12\n12 2\n"
                  "3 13\n13 14\n13 15\n14 16\n15 17\n",
    "one.txt": "a a\n",  # the self-loop is dropped: one node, no edge
}

# (case name, argv); "{root}" is the run's directory, and each case writes
# into {root}/<case name>. Later cases read the outputs of earlier ones.
P5, TWO = "{root}/p5.txt", "{root}/p5_plus_pair.txt"
TIES, FIBERS, ONE = "{root}/ties.txt", "{root}/fibers.txt", "{root}/one.txt"
APP, DP = "{root}/gen-appendage/edges.txt", "{root}/gen-double-pareto/edges.txt"
APP88 = "{root}/gen-appendage88/edges.txt"
APPR = "{root}/gen-appendage-random/edges.txt"
FIFO, RANDOM = "{root}/crawl-fifo/trace.csv", "{root}/crawl-random/trace.csv"
CASES: list[tuple[str, list[str]]] = [
    ("gen-appendage", ["generate", "--appendage", "core=K8", "tentacles=1,2,3,1",
                       "fibers=2,1", "loops=1", "--seed", "7"]),
    ("gen-appendage88", ["generate", "--appendage", "core=K8", "tentacles=30,30,20",
                         "--seed", "7"]),
    ("gen-appendage-random", ["generate", "--appendage", "core=R12:0.2", "tentacles=3,1",
                              "fibers=2", "--seed", "0"]),
    ("gen-double-pareto", ["generate", "--double-pareto", "n=300", "alpha-left=1",
                           "alpha-right=3", "break=10", "min=2", "--seed", "3"]),
    ("stats-p5", ["stats", "--graph", P5, "--degrees", "--paths", "exact"]),
    ("stats-giant", ["stats", "--graph", TWO, "--giant", "--degrees", "--paths", "exact",
                     "--seniors", "2"]),
    ("stats-dp-exact", ["stats", "--graph", DP, "--giant", "--degrees", "--fit",
                        "--paths", "exact", "--seniors", "10"]),
    ("stats-dp-sampled", ["stats", "--graph", DP, "--paths", "sampled:16", "--seed", "5",
                          "--seniors", "0"]),
    ("stats-appendage88", ["stats", "--graph", APP88, "--paths", "sampled:80", "--seed", "3"]),
    ("stats-appendage", ["stats", "--graph", APP, "--degrees", "--paths", "sampled:4",
                         "--seed", "2"]),
    ("stats-appendage-exact", ["stats", "--graph", APP, "--degrees", "--paths", "exact"]),
    ("stats-appendage88-exact", ["stats", "--graph", APP88, "--paths", "exact"]),
    ("decompose-appendage", ["decompose", "--graph", APP]),
    ("decompose-appendage-random", ["decompose", "--graph", APPR]),
    ("decompose-giant", ["decompose", "--graph", TWO, "--giant"]),
    ("decompose-dp", ["decompose", "--graph", DP, "--giant"]),
    ("decompose-ties", ["decompose", "--graph", TIES]),
    ("decompose-fibers", ["decompose", "--graph", FIBERS]),
    ("decompose-one-node", ["decompose", "--graph", ONE]),
    ("depth-p5", ["depth", "--graph", P5, "--profile-bin", "0.5"]),
    ("depth-giant", ["depth", "--graph", TWO, "--giant"]),
    ("depth-appendage", ["depth", "--graph", APP, "--mode", "exact", "--profile-bin", "0.25"]),
    ("depth-appendage88", ["depth", "--graph", APP88, "--mode", "exact"]),
    ("depth-dp-sampled", ["depth", "--graph", DP, "--giant", "--mode", "sampled:8",
                          "--seed", "4", "--profile-bin", "0.25"]),
    ("personality-appendage", ["personality", "--graph", APP]),
    ("personality-dp", ["personality", "--graph", DP, "--giant", "--tau", "0.1"]),
    ("personality-giant", ["personality", "--graph", TWO, "--giant", "--tau", "0"]),
    ("embed-p5", ["embed", "--graph", P5]),
    ("embed-appendage-refs", ["embed", "--graph", APP, "--refs", "3,0,11"]),
    ("embed-appendage88", ["embed", "--graph", APP88]),
    ("reduce-p5", ["reduce", "--graph", P5]),
    ("reduce-appendage", ["reduce", "--graph", APP, "--tolerance", "1", "--max-pairs", "10000"]),
    ("reduce-appendage88", ["reduce", "--graph", APP88, "--tolerance", "1"]),
    ("crawl-fifo", ["crawl-sim", "--graph", DP, "--policy", "fifo"]),
    ("crawl-random", ["crawl-sim", "--graph", DP, "--policy", "random", "--stride", "2",
                      "--seed", "9", "--start", "17"]),
    ("estimate-fifo", ["estimate", "--trace", FIFO]),
    ("estimate-random", ["estimate", "--trace", RANDOM, "--window", "5"]),
    ("estimate-fifo-w2", ["estimate", "--trace", FIFO, "--window", "2"]),
    ("fit-fifo", ["fit-rational", "--trace", FIFO]),
    ("fit-random", ["fit-rational", "--trace", RANDOM]),
    ("solve-ode", ["solve-ode", "--d0", "100", "--dprime0", "-0.5", "--step", "0.5",
                   "--pmax", "50"]),
]


def run_cases(root: Path) -> dict[str, str]:
    """Run every case under ``root``; return ``{"<case>/<file>": sha256}``.

    Raises AssertionError naming the first case whose exit code is not 0."""
    from netgeom.cli import main

    for name, text in INPUTS.items():
        (root / name).write_text(text)
    digests = {}
    for case, argv in CASES:
        out = root / case
        argv = [a.format(root=root) for a in argv]
        code = main([*argv, "--out", str(out)])
        assert code == 0, f"{case}: exit {code}"
        for path in sorted(out.iterdir()):
            digests[f"{case}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main() -> int:
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_cases(Path(tmp))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {os.path.relpath(GOLDEN_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
