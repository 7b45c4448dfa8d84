"""The benchmark's traced contract, checked at desk scale.

For every workload of perfbench/workloads.py, one traced and one plain unit
run as perfbench/run.py starts them (perfbench/child.py in a fresh process,
PYTHONHASHSEED=0, no PYTHONPATH), at seed 5.  The traced run must find
every traced target (no `missing`), call every module the workload is
declared to reach (REACHES), fail no item, and give the plain run's answers.
These are the checks of run.py's traced run that do not depend on timing;
the self-share gate does, and stays with perfbench/selfcheck.py.

This test only reads perfbench/.  A change to the benchmark that alters
child.py's report must update this test with it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SEED = 5

sys.path.insert(0, BENCH)
from workloads import REACHES, WORKLOADS  # noqa: E402

sys.path.remove(BENCH)


def child(workload: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), ROOT, workload, str(SEED), mode],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_meets_the_contract(workload):
    traced, plain = child(workload, "traced"), child(workload, "plain")
    assert traced["missing"] == []
    calls = {k: v for k, v in traced["layers"].items() if k.endswith(".calls")}
    for module in REACHES[workload]:
        assert any(v for k, v in calls.items() if k.startswith(module + ".")), module
    assert traced["failed"] == [] and plain["failed"] == []
    assert traced["answers"] == plain["answers"]
