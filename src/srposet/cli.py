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
from math import factorial

from . import detsym as detsym_mod
from .errors import CapExceededError, SRPosetError
from .invariants import _field_report, complex_report, depth_poset, is_buchsbaum_poset, krull_dim_stanley_reisner
from .poset import (
    Poset,
    _heights,
    _ideal_mask,
    _ideal_orbits,
    _poset_classes,
    _uplus_mask,
    ideal_from_json,
    is_pure,
    poset_from_json,
    poset_to_json,
    reduced_euler_char_poset,
)
from .rees import _DEGENERATE, _cm_reports, _field_data, _rees_facts, _violations
from .simplicial import (
    FieldSpec,
    _bits,
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


def _field_rows(reports) -> list[dict]:
    """The per-field CM/Buchsbaum/depth rows of both check commands, from
    the field reports of invariants: the link loop's for a complex, the
    interval pass's for a poset."""
    return [{"char": r["field"]["char"], "cm": r["cm"], "buchsbaum": r["buchsbaum"], "depth": r["depth"]} for r in reports]


def cmd_check_poset(args) -> int:
    p = _parse(poset_from_json, _read(args.file), "poset")
    fields = _fields_from_args(args)
    dim = max(_heights(p), default=0)
    report = {
        "schema_version": SCHEMA_VERSION,
        "elements": len(p),
        "pure": is_pure(p),
        "euler_char": reduced_euler_char_poset(p),
        "dim": dim,
        "fields": _field_rows(_field_report(p, f, dim, depth_poset(p, f), is_buchsbaum_poset) for f in fields),
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
        "fields": _field_rows(complex_report(k, f) for f in fields),
    }
    _emit(report, args.json)
    return 0


def cmd_homology(args) -> int:
    k = _parse(complex_from_json, _read(args.file), "complex")
    fields = _fields_from_args(args)
    bettis = [(f.characteristic, reduced_betti_numbers(k, f)) for f in fields]
    report = {
        "schema_version": SCHEMA_VERSION,
        "dim": k.dim(),
        "fields": [{"char": c, "betti": {str(d): b[d] for d in sorted(b.values)}} for c, b in bettis],
    }
    _emit(report, args.json)
    return 0


def cmd_uplus(args) -> int:
    p = _parse(poset_from_json, _read(args.poset), "poset")
    q = _parse(ideal_from_json, _read(args.ideal), "ideal")
    fields = _fields_from_args(args)
    try:
        qmask = _ideal_mask(p, q)
        up = _uplus_mask(p, qmask)  # labelled for the report alone
    except (SRPosetError, ValueError) as exc:
        # ValueError: a label that carries the reserved star marker
        print(f"error: {exc}", file=sys.stderr)
        return 2
    per_field = _cm_reports(p, _rees_facts(p, qmask), fields)
    report = {
        "schema_version": SCHEMA_VERSION,
        "uplus": json.loads(poset_to_json(up)),
        "fields": per_field,
    }
    if per_field[0]["degenerate"]:
        report["warnings"] = [_DEGENERATE]
    _emit(report, args.json)
    ok = all(r["consistent"] is not False for r in per_field)
    return 0 if ok else 1


def cmd_detsym(args) -> int:
    try:
        detsym_mod.check_cap(args.n, args.cap)
        reps = [detsym_mod.reproduce_section3(args.n, f) for f in _fields_from_args(args)]
    except (CapExceededError, ValueError) as exc:  # ValueError: n < 3
        print(f"error: {exc}", file=sys.stderr)
        return 2
    per_field = [
        {"char": rep["field"]["char"], "depth": rep["depth"], "core_depth": rep["core_depth"]}
        for rep in reps
    ]
    shared = reps[-1]
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


def cmd_sweep(args) -> int:
    if not 0 <= args.max_elements <= 8:
        problem = "sweep is capped at 8 elements" if args.max_elements > 8 else "--max-elements must be nonnegative"
        print(f"error: {problem}", file=sys.stderr)
        return 2
    fields = _fields_from_args(args)
    pairs = 0
    for n, level in zip(range(args.max_elements + 1), _poset_classes()):
        labels = tuple(chr(ord("a") + i) for i in range(n))
        for lt, automorphisms, gens in level:
            # one check per class of pairs: the class of P stands for
            # n!/|Aut P| labelled posets, each with `size` ideals in the orbit
            p = Poset._trusted(labels, lt)
            per_field = _field_data(p, fields)
            for qmask, size in _ideal_orbits(lt, gens).items():
                pairs += factorial(n) // automorphisms * size
                failure = next(_violations(p, _rees_facts(p, qmask), per_field), None)
                if failure:
                    kind, char = failure
                    q = [labels[i] for i in _bits(qmask)]
                    print(f"FAIL {kind}: P={p!r} Q={q} {[] if char is None else [char]}")
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

    def command(name, func, help, *files):
        sp = sub.add_parser(name, help=help)
        for f in files:
            sp.add_argument(f)
        sp.set_defaults(func=func)
        return sp

    command("check-poset", cmd_check_poset, "purity/CM/Buchsbaum/depth of a poset file", "file")
    command("check-complex", cmd_check_complex, "invariants of a complex file", "file")
    command("homology", cmd_homology, "reduced Betti numbers of a complex file", "file")
    command("uplus", cmd_uplus, "Rees-poset report for a poset and an ideal file", "poset", "ideal")
    sp = command("detsym", cmd_detsym, "symmetric-minors dimension/depth reproduction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cap", type=int, default=detsym_mod.DEFAULT_CAP)
    sp = command("sweep", cmd_sweep, "exhaustive property sweep over small posets")
    sp.add_argument("--max-elements", type=int, default=5)
    for sp in sub.choices.values():  # options every command takes, listed last
        sp.add_argument("--char", action="append", type=int, default=None,
                        help="field characteristic; repeatable (default: 0 and 2)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
