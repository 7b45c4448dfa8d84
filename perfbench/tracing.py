"""Per-layer tracing from outside the library.

The tracer wraps the public functions of each srposet module and installs
the wrapper at every binding that holds the original function: the defining
module, every module that imported the name, and the package namespace.
Callers look names up in their own module globals, so patching only the
defining module would miss most calls.

Each call is a span.  A span's self time is its duration minus the time of
the spans it caused; private kernels that are not wrapped, such as
``_strong_collapse``, therefore land in their caller's self time.  Spans are
aggregated in memory per (function, caller) and written out when the unit
ends.  Generator functions are timed per ``next()``, and their ``calls``
count invocations.  ``stanley_reisner_complex`` is wrapped outside its
``lru_cache``, whose hit and miss counts are read when the unit ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

ROOT = "<bench>"


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _facets_in(args, kwargs, result):
    return len(_first_arg(args, kwargs).facets)


def _facets_out(args, kwargs, result):
    return len(result.facets)


def _dense_entries(args, kwargs, result):
    rows = _first_arg(args, kwargs)
    return len(rows) * len(rows[0]) if rows else 0


def _bitrow_entries(args, kwargs, result):
    rows = _first_arg(args, kwargs)
    used = 0
    for row in rows:
        used |= row
    return len(rows) * used.bit_length()


# (module, function) -> (metric prefix, size stat, size function or None).
# Metric names may not start with "_", so "_exact" reports as "exact".
TARGETS = {
    ("poset", "enumerate_posets"): ("poset", None, None),
    ("poset", "all_poset_ideals"): ("poset", None, None),
    ("poset", "order_complex"): ("poset", "facets", _facets_out),
    ("poset", "open_interval"): ("poset", None, None),
    ("poset", "uplus"): ("poset", None, None),
    ("simplicial", "reduced_betti_numbers"): ("simplicial", "facets", _facets_in),
    ("_exact", "rank_char0"): ("exact", "entries", _dense_entries),
    ("_exact", "rank_mod2"): ("exact", "entries", _bitrow_entries),
    ("invariants", "is_cohen_macaulay_complex"): ("invariants", None, None),
    ("invariants", "is_cohen_macaulay_poset"): ("invariants", None, None),
    ("invariants", "depth_stanley_reisner"): ("invariants", "facets", _facets_in),
    ("monomial", "polarize"): ("monomial", None, None),
    ("monomial", "stanley_reisner_complex"): ("monomial", None, None),
    ("monomial", "dim_monomial_quotient"): ("monomial", None, None),
    ("monomial", "depth_monomial_quotient"): ("monomial", None, None),
    ("rees", "euler_condition_Q"): ("rees", None, None),
    ("rees", "euler_condition_interval"): ("rees", None, None),
    ("rees", "g_dis_numerator_mu_top"): ("rees", None, None),
    ("rees", "g_dis_numerator_mu_top_via_lower_sets"): ("rees", None, None),
    ("rees", "a_invariant_negative"): ("rees", None, None),
    ("detsym", "reproduce_section3"): ("detsym", None, None),
    ("detsym", "a_dis_ideal_t2"): ("detsym", None, None),
    ("cli", "main"): ("cli", None, None),
}
CACHED = ("monomial", "stanley_reisner_complex")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for (module, func), (prefix, size_stat, _) in TARGETS.items():
        base = f"{prefix}.{func}"
        names += [f"{base}.calls", f"{base}.self_s"]
        if size_stat:
            names.append(f"{base}.{size_stat}")
    base = f"{TARGETS[CACHED][0]}.{CACHED[1]}"
    names += [f"{base}.cache_hits", f"{base}.cache_misses"]
    return names


class Tracer:
    """Wraps the target functions and aggregates their spans."""

    def __init__(self):
        self._stack = [[ROOT, 0.0]]  # [span name, time of child spans]
        # (name, caller) -> [calls, total_s, self_s, size]
        self.spans: dict[tuple[str, str], list] = {}
        self._cached = None
        self.missing: list[str] = []

    def _record(self, name, frame, elapsed, calls=1):
        stack = self._stack
        stack.pop()
        stack[-1][1] += elapsed
        key = (name, stack[-1][0])
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0, 0]
        rec[0] += calls
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]
        return rec

    def _wrap(self, name, fn, size_fn):
        stack = self._stack
        record = self._record

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls = 1  # counted with the first next()
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        record(name, frame, perf_counter() - start, calls)
                        calls = 0
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec = record(name, frame, perf_counter() - start)
            if size_fn:
                rec[3] += size_fn(args, kwargs, result)
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> int:
        """Patch every srposet binding of every target; return the count."""
        import srposet.cli  # noqa: F401  (the package does not import it)

        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "srposet" or n.startswith("srposet."))
        ]
        patched = 0
        for (module, func), (prefix, _, size_fn) in TARGETS.items():
            owner = sys.modules.get(f"srposet.{module}")
            fn = getattr(owner, func, None)
            if fn is None:
                self.missing.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{prefix}.{func}", fn, size_fn)
            if (module, func) == CACHED:
                self._cached = fn
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        patched += 1
        return patched

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over all callers, keyed as in metric_names()."""
        out = {
            name: 0.0 if name.endswith(".self_s") else 0
            for name in metric_names()
        }
        for (name, _caller), (calls, _total, self_s, size) in self.spans.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
            for stat in ("facets", "entries"):
                if f"{name}.{stat}" in out:
                    out[f"{name}.{stat}"] += size
        if self._cached is not None:
            info = self._cached.cache_info()
            base = f"{TARGETS[CACHED][0]}.{CACHED[1]}"
            out[f"{base}.cache_hits"] = info.hits
            out[f"{base}.cache_misses"] = info.misses
        return out

    def span_table(self) -> list[dict]:
        """The per-(function, caller) aggregates, for the trace file."""
        return [
            {"function": name, "caller": caller, "calls": calls,
             "total_s": total, "self_s": self_s, "size": size}
            for (name, caller), (calls, total, self_s, size)
            in sorted(self.spans.items())
        ]
