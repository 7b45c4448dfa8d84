"""Batch front-end: parse poset/ideal/complex files, run the invariant
suites, emit JSON or text reports.

Exit codes: 0 on success (for `uplus`, additionally only if the consistency
assertions hold), 1 on violated sweep properties or failed consistency,
2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import detsym as detsym_mod
from .errors import CapExceededError, DegenerateQWarning, SRPosetError
from .invariants import (
    complex_report,
    is_cohen_macaulay_complex,
    krull_dim_stanley_reisner,
)
from .poset import (
    Poset,
    all_poset_ideals,
    enumerate_posets,
    ideal_from_json,
    is_pure,
    order_complex,
    poset_from_json,
    poset_to_json,
    reduced_euler_char_poset,
)
from .rees import _cm_reports, _rees_facts, g_dis_numerator_mu_top_via_lower_sets
from .simplicial import (
    BettiVector,
    FieldSpec,
    SimplicialComplex,
    complex_from_json,
    is_equidimensional,
    reduced_betti_numbers,
    reduced_euler_char_complex,
)

SCHEMA_VERSION = 1


def _fields_from_args(args) -> list[FieldSpec]:
    chars = args.char if args.char else [0, 2]
    fields = []
    for c in chars:
        try:
            fields.append(FieldSpec(c))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2)
    return fields


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _parse(loader, text: str, what: str):
    try:
        return loader(text)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed {what} JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    except (ValueError, SRPosetError) as exc:
        print(f"error: bad {what}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except RecursionError:
        print(f"error: bad {what}: JSON nested too deeply", file=sys.stderr)
        raise SystemExit(2)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if key == "schema_version":
            continue
        print(f"{key}: {value}")


def _field_rows(k, fields: list[FieldSpec]) -> list[dict]:
    """The per-field CM/Buchsbaum/depth rows of check-poset and check-complex."""
    rows = []
    for f in fields:
        rep = complex_report(k, f)
        rows.append(
            {
                "char": f.characteristic,
                "cm": rep["cm"],
                "buchsbaum": rep["buchsbaum"],
                "depth": rep["depth"],
            }
        )
    return rows


def cmd_check_poset(args) -> int:
    p = _parse(poset_from_json, _read(args.file), "poset")
    fields = _fields_from_args(args)
    delta = order_complex(p)
    report = {
        "schema_version": SCHEMA_VERSION,
        "elements": len(p),
        "pure": is_pure(p),
        "euler_char": reduced_euler_char_poset(p),
        "dim": krull_dim_stanley_reisner(delta),
        "fields": _field_rows(delta, fields),
    }
    _emit(report, args.json)
    return 0


def cmd_check_complex(args) -> int:
    k = _parse(complex_from_json, _read(args.file), "complex")
    fields = _fields_from_args(args)
    report = {
        "schema_version": SCHEMA_VERSION,
        "vertices": len(k.vertices),
        "equidimensional": is_equidimensional(k),
        "euler_char": reduced_euler_char_complex(k),
        "dim": krull_dim_stanley_reisner(k),
        "fields": _field_rows(k, fields),
    }
    _emit(report, args.json)
    return 0


def cmd_homology(args) -> int:
    k = _parse(complex_from_json, _read(args.file), "complex")
    fields = _fields_from_args(args)
    per_field = []
    for f in fields:
        betti = reduced_betti_numbers(k, f)
        per_field.append(
            {
                "char": f.characteristic,
                "betti": {str(d): betti[d] for d in sorted(betti.values)},
            }
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "dim": k.dim(),
        "fields": per_field,
    }
    _emit(report, args.json)
    return 0


def cmd_uplus(args) -> int:
    p = _parse(poset_from_json, _read(args.poset), "poset")
    q = _parse(ideal_from_json, _read(args.ideal), "ideal")
    fields = _fields_from_args(args)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateQWarning)
            facts = _rees_facts(p, q)
            per_field = _cm_reports(p, facts, fields)
            warned = [str(w.message) for w in caught]
    except (SRPosetError, ValueError) as exc:
        # ValueError: a label that carries the reserved star marker
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "schema_version": SCHEMA_VERSION,
        "uplus": json.loads(poset_to_json(facts.uplus)),
        "fields": per_field,
    }
    if warned:
        report["warnings"] = sorted(set(warned))
    _emit(report, args.json)
    ok = all(r["consistent"] is not False for r in per_field)
    return 0 if ok else 1


def cmd_detsym(args) -> int:
    try:
        detsym_mod.check_cap(args.n, args.cap)
        if args.n < 3:
            raise ValueError("n must be at least 3")
    except (CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fields = _fields_from_args(args)
    per_field = []
    shared = None
    for f in fields:
        rep = detsym_mod.reproduce_section3(args.n, f)
        per_field.append(
            {
                "char": f.characteristic,
                "depth": rep["depth"],
                "core_depth": rep["core_depth"],
            }
        )
        shared = rep
    report = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "dim": shared["dim"],
        "core_dim": shared["core_dim"],
        "aux_vars": shared["aux_vars"],
        "facet_cards": shared["facet_cards"],
        "facets_verified": shared["facets_verified"],
        "regular_pair": shared["regular_pair"],
        "fields": per_field,
    }
    _emit(report, args.json)
    return 0


def _sweep_pair(p: Poset, q: frozenset, minimal, per_field) -> tuple | None:
    """The first property this pair violates, as (kind, P, Q[, char]), or None."""
    facts = _rees_facts(p, q)
    if facts.cond_q != facts.cond_interval:
        return ("euler-conditions-disagree", p, sorted(q))
    if q:
        a_neg = facts.numerator.is_zero()
        if facts.numerator != g_dis_numerator_mu_top_via_lower_sets(p, q):
            return ("numerator-routes-disagree", p, sorted(q))
        if a_neg != facts.cond_q:
            return ("a-invariant-vs-euler", p, sorted(q))
    up = facts.uplus
    delta_up = order_complex(up)
    delta_red = None
    if len(minimal) == 1 and q:
        # the starred minimum is least in P (+) Q, so in every facet: a cone point
        star = 1 << up.index(minimal[0] + "*")
        delta_red = SimplicialComplex._trusted(up.elements, tuple(f & ~star for f in delta_up.facets))
    for f, betti_p, cm_p in per_field:
        betti_up = reduced_betti_numbers(delta_up, f)
        if betti_p != betti_up:
            return ("betti-not-preserved", p, sorted(q), f.characteristic)
        if delta_red is not None and reduced_betti_numbers(delta_red, f) != BettiVector({}):
            return ("deleted-star-not-acyclic", p, sorted(q), f.characteristic)
        if not cm_p:
            continue
        cm_up = is_cohen_macaulay_complex(delta_up, f)
        if facts.cond_interval and not cm_up:
            return ("interval-condition-but-not-cm", p, sorted(q), f.characteristic)
        if len(minimal) == 1 and not cm_up:
            return ("unique-min-but-not-cm", p, sorted(q), f.characteristic)
        if q and len(q) < len(p) and cm_up != a_neg:
            return ("biconditional-fails", p, sorted(q), f.characteristic)
    return None


def cmd_sweep(args) -> int:
    if args.max_elements > 6:
        print("error: sweep is capped at 6 elements", file=sys.stderr)
        return 2
    if args.max_elements < 0:
        print("error: --max-elements must be nonnegative", file=sys.stderr)
        return 2
    fields = _fields_from_args(args)
    pairs = 0
    for n in range(args.max_elements + 1):
        labels = [chr(ord("a") + i) for i in range(n)]
        for p in enumerate_posets(labels):
            # what every pair needs of P alone, computed once per poset
            delta_p = order_complex(p)
            minimal = [p.elements[i] for i in p.minimal_idx()]
            per_field = [
                (f, reduced_betti_numbers(delta_p, f), is_cohen_macaulay_complex(delta_p, f))
                for f in fields
            ]
            for q in all_poset_ideals(p):
                pairs += 1
                failure = _sweep_pair(p, q, minimal, per_field)
                if failure:
                    kind, bad_p, bad_q, *rest = failure
                    print(f"FAIL {kind}: P={bad_p!r} Q={bad_q} {rest}")
                    return 1
    chars = [f.characteristic for f in fields]
    print(f"sweep ok: {pairs} (poset, ideal) pairs up to {args.max_elements} elements, characteristics {chars}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srposet",
        description="Combinatorial Cohen-Macaulay/Buchsbaum/depth computations "
        "for posets, simplicial complexes and monomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--char", action="append", type=int, default=None,
                        help="field characteristic; repeatable (default: 0 and 2)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("check-poset", help="purity/CM/Buchsbaum/depth of a poset file")
    sp.add_argument("file")
    add_common(sp)
    sp.set_defaults(func=cmd_check_poset)

    sp = sub.add_parser("check-complex", help="invariants of a complex file")
    sp.add_argument("file")
    add_common(sp)
    sp.set_defaults(func=cmd_check_complex)

    sp = sub.add_parser("homology", help="reduced Betti numbers of a complex file")
    sp.add_argument("file")
    add_common(sp)
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("uplus", help="Rees-poset report for a poset and an ideal file")
    sp.add_argument("poset")
    sp.add_argument("ideal")
    add_common(sp)
    sp.set_defaults(func=cmd_uplus)

    sp = sub.add_parser("detsym", help="symmetric-minors dimension/depth reproduction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, default=2,
                    help="minor size; only t=2 runs the full report")
    sp.add_argument("--cap", type=int, default=detsym_mod.DEFAULT_CAP)
    add_common(sp)
    sp.set_defaults(func=cmd_detsym)

    sp = sub.add_parser("sweep", help="exhaustive property sweep over small posets")
    sp.add_argument("--max-elements", type=int, default=5)
    add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    if getattr(args, "t", 2) != 2:
        print("error: only t=2 is supported for the full report", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
