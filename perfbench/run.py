"""srposet benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {section3,sweep5,cm_cross6} \
        --seed N --seconds S --trace {0,1}

Every unit of work runs in a fresh, single-threaded Python process, one at
a time, so the library's process-wide caches start cold.  ``run_s``, the
item latencies and ``setup_s`` are in reference seconds, calibrated
against the machine's momentary speed (see clock.py).  With ``--trace 0``
the run first starts set-up-only processes, then runs units until
``--seconds`` have passed (at least one unit), and reports the end-to-end
metrics.  With ``--trace 1`` it runs one plain unit, then traced units
until ``--seconds`` have passed (at least one), and reports the per-layer
metrics; it is correct only if the traced answers equal the plain ones,
the self times cover at least ``MIN_SELF_SHARE`` of the traced time and
every module the workload should reach was called.  selfcheck.py checks
that the traced counts repeat across runs.  No unit is started that could
not end before ``DEADLINE_S``.  The last line of standard output is the
result object.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import TARGETS, metric_names  # noqa: E402
from workloads import REACHES, SEEDED, WORKLOADS  # noqa: E402

assert set().union(*REACHES.values()) == {p for p, _, _ in TARGETS.values()}

SETUP_PROBES = 8
DEADLINE_S = 170.0
MIN_SELF_SHARE = 0.90
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run child.py in a fresh process and return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, workload, str(seed), mode]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} unit did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} unit exited {proc.returncode}:\n{err[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode} unit printed no report")
    return json.loads(lines[-1])


def run_units(workload, seed, mode, seconds, deadline) -> list[dict]:
    """Run units one at a time: at least one, then more while under
    ``seconds`` and while the longest unit so far would still end before the
    deadline."""
    units = []
    began = time.monotonic()
    longest = 0.0
    while not units or (
        time.monotonic() - began < seconds and time.monotonic() + longest < deadline
    ):
        started = time.monotonic()
        units.append(spawn(workload, seed, mode, deadline))
        longest = max(longest, time.monotonic() - started)
    return units


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, deadline: float):
    setups = [
        spawn(workload, seed, "setup", deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    units = run_units(workload, seed, "plain", seconds, deadline)
    setups += [u["setup_s"] for u in units]
    attempted = sum(len(u["latencies"]) for u in units)
    failed = sum(len(u["failed"]) for u in units)
    same = len({u["answers"] for u in units}) == 1
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(u["run_s"] for u in units), "s"),
        "item_p50_ms": (statistics.median(
            1000 * statistics.median(u["latencies"]) for u in units), "ms"),
        "item_p99_ms": (statistics.median(
            1000 * percentile(u["latencies"], 99) for u in units), "ms"),
        "peak_rss_mib": (statistics.median(u["peak_rss_mib"] for u in units), "MiB"),
    }
    info = {"units": len(units), "items": attempted, "setups": len(setups),
            "failed_frac": failed / attempted, "answers_repeat": same,
            "wall_run_s": statistics.median(u["wall_s"] for u in units),
            "cpu_run_s": statistics.median(u["cpu_s"] for u in units)}
    return failed == 0 and same, attempted, failed, metrics, info


def measure_traced(workload: str, seed: int, seconds: float, deadline: float):
    plain = spawn(workload, seed, "plain", deadline)
    traced = run_units(workload, seed, "traced", seconds, deadline)
    answers = {u["answers"] for u in [plain, *traced]}
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name in metric_names():
        unit = "s" if name.endswith(".self_s") else "count"
        metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
    traced_run_s = statistics.median(t["run_s"] for t in traced)
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    self_share = self_total / traced_run_s
    metrics["trace.overhead_ratio"] = (traced_run_s / plain["wall_s"], "ratio")
    metrics["trace.self_share"] = (self_share, "ratio")
    unreached = sorted(
        module for module in REACHES[workload]
        if not any(v for k, (v, _) in metrics.items()
                   if k.startswith(module + ".") and k.endswith(".calls"))
    )

    os.makedirs(TRACE_OUT, exist_ok=True)
    path = os.path.join(TRACE_OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([{"run_s": t["run_s"], "spans": t["spans"]} for t in traced],
                  handle, indent=1)
    attempted = sum(len(u["latencies"]) for u in [plain, *traced])
    failed = sum(len(u["failed"]) for u in [plain, *traced])
    missing = sorted({m for t in traced for m in t["missing"]})
    info = {"traced_units": len(traced), "answers_match": len(answers) == 1,
            "unreached": unreached,
            "missing": missing, "trace_file": path}
    ok = (failed == 0 and len(answers) == 1 and not missing and not unreached and self_share >= MIN_SELF_SHARE)
    return ok, attempted, failed, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "srposet", "__init__.py")):
        print(f"error: no srposet sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure_fn = measure_traced if args.trace else measure
    try:
        correct, attempted, failed, metrics, info = measure_fn(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    info.update(workload=args.workload, seed=args.seed,
                seed_used=args.workload in SEEDED,
                python=sys.version.split()[0], nproc=os.cpu_count(), src_lines=src_lines)
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
