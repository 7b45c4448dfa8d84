"""The benchmark's workloads: input generation, the timed unit and its
answer checks.

Each workload is a pair of functions.  ``setup(seed)`` imports the library
and builds the inputs; ``run(inputs)`` executes one unit of work and returns
a list of items, one per user-visible call, as ``(start, end, ok, answer)``
with ``process_time`` readings.  An item is not ok when the call raised or
its answer failed the check.  Library functions are looked up on their
modules at call time, so that the traced run reaches the wrapped bindings.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from math import comb

CM_CROSS_LABELS = ("a", "b", "c", "d", "e", "f")
CM_CROSS_POSETS = 2500
SWEEP_ARGV = ["sweep", "--max-elements", "5"]
SWEEP_PAIRS = 48711


def _timed(call, check):
    """Run one item; return (start, end, ok, answer), never raising."""
    start = time.process_time()
    try:
        answer = call()
    except Exception as exc:  # a raising item is a failed item, not a crash
        return start, time.process_time(), False, f"raised {type(exc).__name__}: {exc}"
    end = time.process_time()
    return start, end, check(answer), answer


# ----------------------------------------------------------------------
# section3: one item per field, reproduce_section3 for n = 3..6 in it, so
# the item latency is the time to reproduce Section 3 in one field;
# exhaustive, so the seed is unused.

def setup_section3(seed):
    import srposet

    return [(char, (3, 4, 5, 6)) for char in (0, 2)]


def _section3_ok(n, char, rep):
    return (
        rep["dim"] == n
        and rep["depth"] == 2
        and rep["core_dim"] == n - 2
        and rep["core_depth"] == 0
        and rep["facets_verified"] is True
        and rep["facet_cards"] == sorted([comb(n, 2) + 2, comb(n + 1, 2)])
        and rep["field"] == {"char": char}
    )


def run_section3(inputs):
    import srposet

    items = []
    for char, ns in inputs:
        field = srposet.FieldSpec(char)
        items.append(_timed(
            lambda: [srposet.detsym.reproduce_section3(n, field) for n in ns],
            lambda reps: all(_section3_ok(n, char, rep) for n, rep in zip(ns, reps)),
        ))
    return items


# ----------------------------------------------------------------------
# sweep5: the CLI's exhaustive sweep, run in-process as one item; the seed
# is unused.

def setup_sweep5(seed):
    import srposet.cli

    return list(SWEEP_ARGV)


def run_sweep5(argv):
    import srposet.cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = srposet.cli.main(argv)
        return [code, out.getvalue()]

    def check(answer):
        code, text = answer
        return code == 0 and text.startswith(f"sweep ok: {SWEEP_PAIRS} ")

    return [_timed(call, check)]


# ----------------------------------------------------------------------
# cm_cross6: seeded random posets on 6 labels; the interval test must agree
# with the link test on the order complex in characteristics 0 and 2.

def setup_cm_cross6(seed):
    import srposet

    rng = random.Random(seed)
    return [
        srposet.poset.random_poset(rng, CM_CROSS_LABELS)
        for _ in range(CM_CROSS_POSETS)
    ]


def run_cm_cross6(posets):
    import srposet

    fields = (srposet.FieldSpec(0), srposet.FieldSpec(2))

    def cross(p):
        delta = srposet.poset.order_complex(p)
        return [
            [srposet.invariants.is_cohen_macaulay_poset(p, f),
             srposet.invariants.is_cohen_macaulay_complex(delta, f)]
            for f in fields
        ]

    return [
        _timed(lambda: cross(p), lambda ans: all(a == b for a, b in ans))
        for p in posets
    ]


# section3 and sweep5 are exhaustive: their inputs do not depend on the seed.
SEEDED = {"cm_cross6"}
# The traced modules (metric prefixes, see tracing.py) that each workload
# must call; together the workloads reach every traced module.
REACHES = {
    "section3": {"detsym", "monomial", "invariants"},
    "sweep5": {"cli", "rees", "poset", "simplicial", "exact", "invariants"},
    "cm_cross6": {"poset", "simplicial", "exact", "invariants"},
}
WORKLOADS = {
    "section3": (setup_section3, run_section3),
    "sweep5": (setup_sweep5, run_sweep5),
    "cm_cross6": (setup_cm_cross6, run_cm_cross6),
}
