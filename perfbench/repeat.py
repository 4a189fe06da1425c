"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload reduce --seeds 1-10 [--seconds 25] \
        [--trace 0|1] [--baseline perfbench/baseline.json]

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4, so at least two seeds) and the spread: the distance between the
quartiles as a share of the median. With ``--baseline`` the summary is stored
in that file under the workload's name and ``end_to_end`` or ``per_layer``,
next to the machine record of the first run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range such as 1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--baseline", default=None, help="JSON file to store the summary in")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    summary = {
        "seeds": args.seeds,
        "seconds": float(args.seconds),
        "trace": int(args.trace),
        "all_correct": all(r["correct"] for r in runs),
        "metrics": {name: dict(unit=m["unit"], **summarise([r["metrics"][name]["value"] for r in runs]))
                    for name, m in runs[0]["metrics"].items()},
    }
    for name, s in summary["metrics"].items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g} {s['unit']}, quartiles "
              f"{s['q1']:.6g}..{s['q3']:.6g}, spread {spread}")
    if args.baseline:
        baseline = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        first = f"BENCH_{args.workload}_seed{args.seeds[0]}_trace{args.trace}.json"
        with open(os.path.join(HERE, "results", first)) as fh:
            summary["machine"] = json.load(fh)["machine"]
        kind = "per_layer" if args.trace == "1" else "end_to_end"
        baseline.setdefault(args.workload, {})[kind] = summary
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
