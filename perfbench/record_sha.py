"""Record the SHA-256 of every report at the default seeds into expected_sha256.json.

Run from the repository root, only when a change is meant to alter reports:

    python3 perfbench/record_sha.py

It runs one pass of each workload at its default seed and takes the hashes
from the results file the run writes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    expected = {}
    for name, seed in workloads.DEFAULT_SEEDS.items():
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                        "--seed", str(seed), "--seconds", "0"], check=True,
                       stdout=subprocess.DEVNULL)
        with open(os.path.join(HERE, "results", f"BENCH_{name}_seed{seed}_trace0.json")) as fh:
            expected[name] = json.load(fh)["outputs"]
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
