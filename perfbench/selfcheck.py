"""Self-check of the traced run: its counts must repeat across runs.

For each workload, runs ``run.py --trace 1`` twice with the same seed, one
run at a time, and checks that both runs are correct (which covers answers,
self-time share and reached modules, see run.py) and that every per-layer
count (``calls``, sizes, cache hits and misses) is exactly the same in both.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed N]

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    for workload in sorted(WORKLOADS):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        if not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: traced run not correct")
        counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs: {a} vs {b}")
        share = first["metrics"]["trace.self_share"]["value"]
        print(f"{workload}: self_share {share:.4f}, {len(counts)} counts compared")
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
