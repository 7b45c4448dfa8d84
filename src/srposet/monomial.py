"""Monomial ideals over named variables: polarization, radical, colon,
Stanley-Reisner correspondence and Hodge-data cores.

Generators are exponent vectors; generating sets are kept minimal (no
generator divides another).  The zero ideal has no generators; the unit
ideal is the single zero exponent vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import NotSquarefreeError, UnitIdealError
from .poset import Poset
from .simplicial import SimplicialComplex, FieldSpec, _json_list, _minimalize_facets
from .invariants import _depth_masks, krull_dim_stanley_reisner


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal_generators(gens: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    uniq = sorted(set(gens), key=lambda g: (sum(g), g))
    out: list[tuple[int, ...]] = []
    for g in uniq:
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return tuple(sorted(out))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generating set of exponent vectors over named variables."""

    variables: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        n = len(self.variables)
        for g in self.generators:
            if len(g) != n or any(e < 0 for e in g):
                raise ValueError("bad exponent vector")
        if self.generators != _minimal_generators(self.generators):
            raise ValueError("generating set is not minimal/sorted")

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.variables)!r}, {self.generator_strings()!r})"

    def generator_strings(self) -> list[str]:
        out = []
        for g in self.generators:
            if not any(g):
                out.append("1")
                continue
            parts = []
            for v, e in zip(self.variables, g):
                if e == 1:
                    parts.append(v)
                elif e > 1:
                    parts.append(f"{v}^{e}")
            out.append("*".join(parts))
        return out

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(not any(g) for g in self.generators)

    def is_proper(self) -> bool:
        return not self.is_unit()

    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.generators for e in g)

    def contains_monomial(self, exponents: Sequence[int]) -> bool:
        e = tuple(exponents)
        return any(_divides(g, e) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        if self.variables != other.variables:
            raise ValueError("variable sets differ")
        return all(self.contains_monomial(g) for g in other.generators)


def ideal_from_generators(
    variables: Sequence[str], generators: Iterable[Sequence[int]]
) -> MonomialIdeal:
    """Build an ideal, minimalizing the generating set."""
    variables = tuple(variables)
    gens = _minimal_generators(tuple(g) for g in generators)
    return MonomialIdeal(variables, gens)


def ideal_from_strings(
    variables: Sequence[str], monomials: Iterable[Iterable[tuple[str, int]]]
) -> MonomialIdeal:
    """Build an ideal from (variable, exponent) pair lists."""
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    gens = []
    for mono in monomials:
        e = [0] * len(variables)
        for v, k in mono:
            e[index[v]] += k
        gens.append(tuple(e))
    return ideal_from_generators(variables, gens)


def polar_variable_name(base: str, copy: int) -> str:
    """Deterministic name of the copy-th polarization variable of base."""
    if copy == 1:
        return base
    return f"{base}({copy})"


def polarize(ideal: MonomialIdeal) -> tuple[MonomialIdeal, int]:
    """Standard polarization: x^d becomes x * x(2) * ... * x(d).

    Returns the squarefree polarized ideal together with the number of
    auxiliary variables introduced.  Each variable with maximal exponent e
    spawns copies 2..e, appended after the original variables, grouped by
    variable in the original order.
    """
    if not ideal.is_proper():
        raise UnitIdealError("cannot polarize the unit ideal")
    n = len(ideal.variables)
    max_exp = [0] * n
    for g in ideal.generators:
        for i, e in enumerate(g):
            if e > max_exp[i]:
                max_exp[i] = e
    new_vars = list(ideal.variables)
    copy_index: dict[tuple[int, int], int] = {}
    for i, v in enumerate(ideal.variables):
        for k in range(2, max_exp[i] + 1):
            name = polar_variable_name(v, k)
            if name in new_vars:
                raise ValueError(f"polarization name collision: {name}")
            copy_index[(i, k)] = len(new_vars)
            new_vars.append(name)
    aux = len(new_vars) - n
    gens = []
    for g in ideal.generators:
        e = [0] * len(new_vars)
        for i, d in enumerate(g):
            if d >= 1:
                e[i] = 1
                for k in range(2, d + 1):
                    e[copy_index[(i, k)]] = 1
        gens.append(tuple(e))
    return ideal_from_generators(new_vars, gens), aux


def radical_monomial(ideal: MonomialIdeal) -> MonomialIdeal:
    """Squarefree supports of the generators, re-minimalized."""
    if not ideal.is_proper():
        raise UnitIdealError("radical of the unit ideal")
    return ideal_from_generators(
        ideal.variables,
        [tuple(1 if e else 0 for e in g) for g in ideal.generators],
    )


@lru_cache(maxsize=128)
def stanley_reisner_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose non-faces are the supports of the ideal's monomials.

    Facets are complements of the minimal transversals of the generator
    supports.  Cached: both values are immutable and the polarized
    complexes are reused across dimension, depth and facet checks.
    """
    if not ideal.is_proper():
        raise UnitIdealError("Stanley-Reisner complex needs a proper ideal")
    if not ideal.is_squarefree():
        raise NotSquarefreeError("Stanley-Reisner complex needs a squarefree ideal")
    n = len(ideal.variables)
    full = (1 << n) - 1
    supports = []
    for g in ideal.generators:
        mask = 0
        for i, e in enumerate(g):
            if e:
                mask |= 1 << i
        supports.append(mask)
    transversals = _minimal_transversals(supports)
    facets = _minimalize_facets([full & ~t for t in transversals])
    return SimplicialComplex(ideal.variables, facets)


def _minimal_transversals(edges: list[int]) -> list[int]:
    """All minimal hitting sets of a family of bitmask edges (Berge)."""
    trans = [0]
    for e in sorted(edges, key=lambda m: m.bit_count()):
        nxt = set()
        for t in trans:
            if t & e:
                nxt.add(t)
            else:
                m = e
                while m:
                    b = m & -m
                    nxt.add(t | b)
                    m &= m - 1
        # re-minimalize: drop supersets
        ordered = sorted(nxt, key=lambda m: m.bit_count())
        keep: list[int] = []
        for t in ordered:
            if not any(s & t == s for s in keep):
                keep.append(t)
        trans = keep
    return trans


def colon_monomial(ideal: MonomialIdeal, other: MonomialIdeal) -> MonomialIdeal:
    """The ideal quotient I : J, intersected over the generators of J."""
    if ideal.variables != other.variables:
        raise ValueError("variable sets differ")
    if other.is_unit() or ideal.is_unit():
        return ideal
    if other.is_zero():
        return ideal_from_generators(ideal.variables, [(0,) * len(ideal.variables)])
    result = None
    for g in other.generators:
        quot = ideal_from_generators(
            ideal.variables,
            [tuple(max(m - gg, 0) for m, gg in zip(mono, g)) for mono in ideal.generators],
        )
        result = quot if result is None else _intersect(result, quot)
    return result


def _intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    gens = [
        tuple(max(x, y) for x, y in zip(ga, gb))
        for ga in a.generators
        for gb in b.generators
    ]
    return ideal_from_generators(a.variables, gens)


def dim_monomial_quotient(ideal: MonomialIdeal) -> int:
    """Krull dimension of the quotient by the ideal, via the radical."""
    if not ideal.is_proper():
        raise UnitIdealError("dimension of the zero ring")
    return krull_dim_stanley_reisner(stanley_reisner_complex(radical_monomial(ideal)))


def depth_monomial_quotient(ideal: MonomialIdeal, field: FieldSpec) -> int:
    """Depth of the quotient: polarize, take the Stanley-Reisner complex,
    read the depth off the link homology, subtract the auxiliary count."""
    if not ideal.is_proper():
        raise UnitIdealError("depth of the zero ring")
    polarized, aux = polarize(ideal)
    k = stanley_reisner_complex(polarized)
    # the face ring of k = {emptyset} is the field, of depth 0
    return _depth_masks(k.facets, field.characteristic) - aux


# ----------------------------------------------------------------------
# Hodge data: a poset H together with an ideal of monomials on H.

@dataclass(frozen=True)
class HodgeData:
    """Combinatorial data (H, Sigma) of a Hodge algebra; its discrete
    algebra is k[H]/(Sigma)."""

    poset: Poset
    sigma: MonomialIdeal

    def __post_init__(self):
        if self.sigma.variables != self.poset.elements:
            raise ValueError("sigma must live on the poset's elements")


def core_hodge(data: HodgeData) -> tuple[HodgeData, list[str]]:
    """Restrict to core H = union of generator supports.

    Returns the restricted data together with the complementary elements
    H minus core H, which form a regular sequence on the discrete algebra.
    """
    core_sigma = _core_ideal(data.sigma)
    regular = [e for e in data.poset.elements if e not in core_sigma.variables]
    return HodgeData(data.poset.restrict(core_sigma.variables), core_sigma), regular


def hodge_quotient(data: HodgeData, ideal_labels: Iterable[str]) -> HodgeData:
    """Quotient by a poset ideal Q: restrict to H minus Q and keep the
    generators supported there."""
    drop = set(ideal_labels)
    keep = [e for e in data.poset.elements if e not in drop]
    return HodgeData(data.poset.restrict(keep), _restrict_ideal(data.sigma, keep))


def _restrict_ideal(ideal: MonomialIdeal, keep: Sequence[str]) -> MonomialIdeal:
    """The generators that use only the variables in keep, restricted to
    them, as an ideal on keep (in that order)."""
    idx = [ideal.variables.index(v) for v in keep]
    gens = [
        tuple(g[i] for i in idx)
        for g in ideal.generators
        if sum(g[i] for i in idx) == sum(g)  # exponents are nonnegative
    ]
    return ideal_from_generators(tuple(keep), gens)


def _core_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal restricted to the variables its generators use."""
    used = [v for i, v in enumerate(ideal.variables) if any(g[i] for g in ideal.generators)]
    return _restrict_ideal(ideal, used)


# ----------------------------------------------------------------------
# JSON: {"variables": [...], "generators": [{"var": exp, ...}, ...]}

def ideal_to_json(ideal: MonomialIdeal) -> str:
    gens = []
    for g in ideal.generators:
        gens.append({v: e for v, e in zip(ideal.variables, g) if e})
    return json.dumps({"variables": list(ideal.variables), "generators": gens})


def ideal_from_json(text: str) -> MonomialIdeal:
    data = json.loads(text)
    if not isinstance(data, dict) or "variables" not in data:
        raise ValueError("ideal JSON must have 'variables' and 'generators' keys")
    variables = tuple(_json_list(data["variables"], "'variables'"))
    index = {v: i for i, v in enumerate(variables)}
    gens = []
    for entry in _json_list(data.get("generators", []), "'generators'", dict):
        e = [0] * len(variables)
        for v, k in entry.items():
            if v not in index:
                raise ValueError(f"unknown variable {v!r} in generator")
            if not isinstance(k, int):
                raise ValueError(f"exponent of {v!r} must be an integer")
            e[index[v]] = k
        gens.append(tuple(e))
    return ideal_from_generators(variables, gens)
