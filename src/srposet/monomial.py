"""Monomial ideals over named variables: polarization, radical, colon,
Stanley-Reisner correspondence, dimension and depth of quotients, and
Hodge-data cores.

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
from .poset import Poset, _ideal_mask
from .simplicial import SimplicialComplex, FieldSpec, _json_list
from .invariants import depth_stanley_reisner, krull_dim_stanley_reisner


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal_generators(gens: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The generators no other one divides, sorted.  Candidates are kept
    with their support masks: h can divide g only if supp(h) lies in
    supp(g), so the exponents are compared only after that mask test."""
    uniq = sorted(set(gens), key=lambda g: (sum(g), g))
    out: list[tuple[int, tuple[int, ...]]] = []
    for g in uniq:
        s = sum(1 << i for i, e in enumerate(g) if e)
        if not any(not t & ~s and _divides(h, g) for t, h in out):
            out.append((s, g))
    return tuple(sorted(g for _, g in out))


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generating set of exponent vectors over named variables;
    any generating set given is minimalized and sorted."""

    variables: tuple[str, ...]
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        gens = tuple(map(tuple, self.generators))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        n = len(self.variables)
        for g in gens:
            if len(g) != n or any(e < 0 for e in g):
                raise ValueError("bad exponent vector")
        object.__setattr__(self, "generators", _minimal_generators(gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal({list(self.variables)!r}, {self.generator_strings()!r})"

    def generator_strings(self) -> list[str]:
        return [
            "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, g) if e) or "1"
            for g in self.generators
        ]

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
    return MonomialIdeal(variables, generators)


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
            if v not in index:
                raise ValueError(f"unknown variable {v!r} in generator")
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
    max_exp = [max([0, *(g[i] for g in ideal.generators)]) for i in range(n)]
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
    supports; these are an antichain already, so the complex is trusted.
    Cached, as the values are immutable; but one section3 unit (both fields,
    n = 3..6) gives the cache 0 hits and 8 misses, and its hits come only
    from repeated public dim_monomial_quotient calls on one ideal.
    """
    if not ideal.is_proper():
        raise UnitIdealError("Stanley-Reisner complex needs a proper ideal")
    if not ideal.is_squarefree():
        raise NotSquarefreeError("Stanley-Reisner complex needs a squarefree ideal")
    n = len(ideal.variables)
    full = (1 << n) - 1
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in ideal.generators]
    facets = sorted(full & ~t for t in _minimal_transversals(supports))
    return SimplicialComplex._trusted(ideal.variables, tuple(facets))


def _minimal_transversals(edges: list[int]) -> list[int]:
    """All minimal hitting sets of a family of bitmask edges (Berge).

    Edge by edge: a minimal transversal that hits the edge stays minimal;
    the others grow by one vertex of it, and a grown set is kept unless a
    kept set lies inside it."""
    trans = [0]
    for e in sorted(edges, key=lambda m: m.bit_count()):
        keep = [t for t in trans if t & e]
        if len(keep) == len(trans):
            continue
        grown = set()
        for t in trans:
            if not t & e:
                m = e
                while m:
                    b = m & -m
                    grown.add(t | b)
                    m &= m - 1
        for t in sorted(grown, key=lambda m: m.bit_count()):
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
    """Depth of the quotient, without polarization:

        depth S/I = min { depth k[Delta_b] : 0 <= b_j < rho_j, x^b not in I },

    where rho_j is the largest exponent of x_j among the generators (b_j = 0
    for a variable no generator uses) and Delta_b is the Stanley-Reisner
    complex of the radical of I : x^b, whose minimal nonfaces are the minimal
    sets {j : u_j > b_j} over the generators u.  This is Takayama's formula
    for the graded pieces of local cohomology (Takayama, "Combinatorial
    characterizations of generalized Cohen-Macaulay monomial ideals", 2005)
    with Hochster's formula, grouped by the nonnegative part b of the degree.
    A squarefree ideal has b = 0 only, its own complex.

    The variables no generator uses are cone points of every Delta_b, each
    adding one to its depth.  The complexes on the others come from
    _takayama_complexes, shared by every field and by the core of the ideal,
    and are read in walk order through depth_stanley_reisner; a Delta_b =
    {emptyset}, the walk's last complex if it meets one, has depth 0.
    """
    if not ideal.is_proper():
        raise UnitIdealError("depth of the zero ring")
    gens = ideal.generators
    used = [j for j in range(len(ideal.variables)) if any(g[j] for g in gens)]
    cones = len(ideal.variables) - len(used)
    names = tuple(ideal.variables[j] for j in used)
    depth = len(used)  # the depth never exceeds the number of vertices
    for facets in _takayama_complexes(tuple(tuple(g[j] for j in used) for g in gens)):
        if facets == (0,):
            return cones  # Delta_b = {emptyset}: k[Delta_b] = k has depth 0
        depth = min(depth, depth_stanley_reisner(SimplicialComplex._trusted(names, facets), field))
    return cones + depth


@lru_cache(maxsize=16)
def _takayama_complexes(
    gens: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """The distinct facet tuples of the complexes Delta_b of
    depth_monomial_quotient in walk order, for generators that use all their
    variables; the walk stops after the first Delta_b = {emptyset}, facets
    (0,).  Keyed on the generators alone, so an ideal and its core share one
    walk.  The box is walked one coordinate at a time, a branch pruned as
    soon as a generator divides x^b."""
    n = len(gens[0]) if gens else 0
    full = (1 << n) - 1
    rho = [max(g[j] for g in gens) for j in range(n)]
    # above[e][k]: the variables where the k-th generator's exponent exceeds e
    above = [
        [sum(1 << j for j in range(n) if g[j] > e) for g in gens]
        for e in range(max(rho, default=0))
    ]
    found: dict[tuple[int, ...], None] = {}
    # a partial b (the later coordinates 0) with the generators that divide
    # x^b on its coordinates; one that is 0 on the rest divides x^b itself
    stack = [((), gens)]
    while stack:
        b, within = stack.pop()
        j = len(b)
        if j < n:
            for e in range(rho[j]):
                nxt = tuple(g for g in within if g[j] <= e)
                if any(not any(g[j + 1:]) for g in nxt):
                    break  # x^b x_j^e is in I, and so is every larger power
                stack.append(((*b, e), nxt))
            continue
        nonfaces = [0] * len(gens)
        for e, row in enumerate(above):
            at = sum(1 << i for i in range(n) if b[i] == e)
            nonfaces = [m | (a & at) for m, a in zip(nonfaces, row)]
        facets = tuple(sorted(full & ~t for t in _minimal_transversals(list(set(nonfaces)))))
        found[facets] = None
        if facets == (0,):
            break
    return tuple(found)


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
    qmask = _ideal_mask(data.poset, ideal_labels)
    keep = [e for i, e in enumerate(data.poset.elements) if not qmask >> i & 1]
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
    gens = [{v: e for v, e in zip(ideal.variables, g) if e} for g in ideal.generators]
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
