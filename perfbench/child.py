"""One fresh benchmark process: set up one workload, run one unit, report.

Usage: python3 child.py ROOT WORKLOAD SEED MODE, with MODE one of
``setup`` (set up and exit), ``plain`` (run the unit on the calibrated
clock) or ``traced`` (run the unit under the tracer; its ``run_s`` is wall
time).  The last line of standard output is one JSON object.  ``setup_s``
is the CPU time of this process from its start until the inputs were
ready (interpreter start, imports, input generation), in reference
seconds at the speed measured right after (see clock.py).  ``wall_s`` and
``cpu_s``, the unit's wall and process CPU time, are reported for
comparison with the calibrated clock.
"""

import hashlib
import json
import os
import resource
import sys
import time


def main(argv):
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    setup, run = WORKLOADS[workload]
    inputs = setup(seed)
    setup_cpu_s = time.process_time()
    from clock import CalibratedClock, speed

    report = {"setup_s": setup_cpu_s * speed()}
    import srposet

    here = os.path.realpath(srposet.__file__)
    if not here.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise SystemExit(f"srposet was imported from {here}, not from the checkout")
    if mode == "setup":
        print(json.dumps(report))
        return

    tracer = calibrated = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        calibrated = CalibratedClock()
        calibrated.start()
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    items = run(inputs)
    cpu_end, wall_end = time.process_time(), time.perf_counter()
    if calibrated is None:
        run_s = wall_end - wall_start
        latencies = [b - a for a, b, _, _ in items]
    else:
        calibrated.stop()
        ref = calibrated.reference
        run_s = ref(cpu_end) - ref(cpu_start)
        latencies = [ref(b) - ref(a) for a, b, _, _ in items]

    answers = json.dumps([answer for _, _, _, answer in items], sort_keys=True)
    report.update(
        run_s=run_s,
        wall_s=wall_end - wall_start,
        cpu_s=cpu_end - cpu_start,
        latencies=latencies,
        failed=[i for i, (_, _, ok, _) in enumerate(items) if not ok],
        answers=hashlib.sha256(answers.encode()).hexdigest(),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        report.update(
            layers=tracer.layer_metrics(),
            spans=tracer.span_table(),
            missing=tracer.missing,
        )
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv)
