"""Monomial ideals over named variables: polarization, radical, colon,
Stanley-Reisner correspondence, dimension and depth of quotients, and
Hodge-data cores.

Generators are exponent vectors; generating sets are kept minimal (no
generator divides another).  The zero ideal has no generators; the unit
ideal is the single zero exponent vector.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import or_

from .errors import NotSquarefreeError, UnitIdealError
from .poset import Poset, _ideal_mask
from .simplicial import SimplicialComplex, FieldSpec, _Value, _bits, _json_list
from .invariants import depth_stanley_reisner


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _support(g: tuple[int, ...]) -> int:
    return sum(1 << i for i, e in enumerate(g) if e)


def _minimal_generators(gens: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The generators no other one divides, sorted.  Two distinct generators
    of equal total degree never divide each other, so after duplicates go
    each generator is compared only with the kept generators of strictly
    lower degree, support mask first: h can divide g only if supp(h) lies
    in supp(g).  The lowest degree is kept whole, and its masks are built
    only if a higher degree follows; a family of one degree does no
    comparison at all."""
    groups: dict[int, set[tuple[int, ...]]] = {}
    for g in gens:  # every one: a set would keep (1, 0) and drop an equal (1.0, 0)
        if type(d := sum(g)) is not int:  # an int exactly when every exponent is
            raise ValueError("bad exponent vector")
        groups.setdefault(d, set()).add(g)
    degrees = sorted(groups)
    out = list(groups[degrees[0]]) if degrees else []
    lower = [(_support(g), g) for g in out] if len(degrees) > 1 else []
    for d in degrees[1:]:
        kept = [
            (s, g)
            for g in groups[d]
            for s in (_support(g),)
            if not any(not t & ~s and _divides(h, g) for t, h in lower)
        ]
        out += [g for _, g in kept]
        lower += kept
    return tuple(sorted(out))


class MonomialIdeal(_Value):
    """Minimal generating set of exponent vectors over named variables;
    any generating set given is minimalized and sorted."""

    _fields = ("variables", "generators")

    def __init__(self, variables: Iterable[str], generators: Iterable[Iterable[int]]):
        object.__setattr__(self, "variables", tuple(variables))
        gens = tuple(map(tuple, generators))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        n = len(self.variables)
        for g in gens:
            if len(g) != n or min(g, default=0) < 0:
                raise ValueError("bad exponent vector")
        object.__setattr__(self, "generators", _minimal_generators(gens))

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], generators: Iterable[tuple[int, ...]]) -> "MonomialIdeal":
        """Skips the checks of __init__ and only sorts: for ideals the engine
        derives from valid ones with a generating set minimal by construction."""
        k = object.__new__(cls)
        object.__setattr__(k, "variables", variables)
        object.__setattr__(k, "generators", tuple(sorted(generators)))
        return k

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
    variable in the original order.  Polarization keeps divisibility in
    both directions, so the polarized generators are minimal as they come.
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
    return MonomialIdeal._trusted(tuple(new_vars), gens), aux


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
    Cached, as the values are immutable; but the engine itself never calls
    it, so its hits come only from repeated public calls on one ideal.
    """
    if not ideal.is_proper():
        raise UnitIdealError("Stanley-Reisner complex needs a proper ideal")
    if not ideal.is_squarefree():
        raise NotSquarefreeError("Stanley-Reisner complex needs a squarefree ideal")
    n = len(ideal.variables)
    full = (1 << n) - 1
    supports = [_support(g) for g in ideal.generators]
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
    """Krull dimension of the quotient, read off the generator supports:
    dim S/I = dim S/rad I is n less the least size of a transversal of the
    supports, the nonfaces of _forced_split at b = 0."""
    if not ideal.is_proper():
        raise UnitIdealError("dimension of the zero ring")
    gens = ideal.generators
    n = len(ideal.variables)
    cols = [sum(1 << k for k in compress(range(len(gens)), col)) for col in zip(*gens)] or [0] * n
    ones = twos = 0  # the generators with at least one, two support vertices
    for col in cols:
        ones, twos = ones | col, twos | ones & col
    forced, rest = _forced_split(cols, twos)
    return n - forced.bit_count() - min(t.bit_count() for t in _minimal_transversals(rest))


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
    core = _core_ideal(ideal)
    cones = len(ideal.variables) - len(core.variables)
    depth = len(core.variables)  # the depth never exceeds the number of vertices
    for facets in _takayama_complexes(core.generators):
        if facets == (0,):
            return cones  # Delta_b = {emptyset}: k[Delta_b] = k has depth 0
        depth = min(depth, depth_stanley_reisner(SimplicialComplex._trusted(core.variables, facets), field))
    return cones + depth


@lru_cache(maxsize=16)
def _takayama_complexes(
    gens: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """The distinct facet tuples of the complexes Delta_b of
    depth_monomial_quotient in walk order, for generators that use all their
    variables; the walk stops after the first Delta_b = {emptyset}, facets
    (0,).  Keyed on the generators alone, so an ideal and its core share one
    walk.

    The box is walked depth first, one coordinate at a time, b_j = 0, 1,
    ... pushed in turn, so the largest is popped first.  Generators are bits
    k of one int, and one pass over their nonzero entries builds the
    columns: bit k of gt[j][e] says the k-th generator exceeds e at j (a
    suffix OR over the exponents), so j is in its nonface {i : u_i > b_i}
    when b_j = e, and of tail0[j] that it is 0 after j (a prefix OR).  A
    partial b (the later coordinates 0) carries its columns, and ones and
    twos, the generators with at least one and two nonface vertices so far,
    updated by one column per push.  The
    generators with none divide x^b on its coordinates, and a branch is cut
    as soon as one of them lies in tail0[j]: it then divides x^b, and does
    so for every larger b_j.  At a leaf no generator divides x^b, and the
    minimal transversals are taken only over the nonfaces _forced_split
    leaves.  On the symmetric t-minors almost none are left."""
    n = len(gens[0]) if gens else 0
    full = (1 << n) - 1
    at: list[dict[int, int]] = [{} for _ in range(n)]  # at[j][u]: the generators with exponent u > 0 at j
    last = [0] * n  # last[j]: the generators whose last nonzero coordinate is j
    for k, g in enumerate(gens):
        for j in compress(range(n), g):
            at[j][g[j]] = at[j].get(g[j], 0) | 1 << k
        last[j] |= 1 << k  # j is left at g's last nonzero coordinate
    gt = [list(accumulate(map(col.get, range(max(col), 0, -1), repeat(0)), or_))[::-1] for col in at]
    tail0 = list(accumulate(last, or_))
    found: dict[tuple[int, ...], None] = {}
    stack = [((), 0, 0)]  # the columns of a partial b, and its ones and twos
    while stack:
        cols, ones, twos = stack.pop()
        j = len(cols)
        if j < n:
            dividing = tail0[j] & ~ones
            for col in gt[j]:
                if dividing & ~col:
                    break  # x^b x_j^e is in I, and so is every larger power
                stack.append(((*cols, col), ones | col, twos | ones & col))
            continue
        forced, nonfaces = _forced_split(cols, twos)
        facets = tuple(sorted(full & ~(forced | t) for t in _minimal_transversals(nonfaces)))
        found[facets] = None
        if facets == (0,):
            break
    return tuple(found)


def _forced_split(cols: Sequence[int], twos: int) -> tuple[int, list[int]]:
    """The nonfaces of the generators, none empty, given as columns (bit k
    of cols[i]: the k-th generator has i in its nonface) with twos, the
    generators whose nonface has two vertices or more, split into the
    vertices that are a nonface on their own, which lie in every
    transversal, and the nonfaces those vertices miss.  Only the latter are
    built, from the columns cut down to their generators."""
    forced = hit = 0  # the one-vertex nonfaces, and the generators they hit
    single = ~twos
    for i, col in enumerate(cols):
        if col & single:
            forced |= 1 << i
            hit |= col
    nonfaces: dict[int, int] = {}
    rest = ~hit
    for i, col in enumerate(cols):
        if cut := col & rest:
            for k in _bits(cut):
                nonfaces[k] = nonfaces.get(k, 0) | 1 << i
    return forced, list(nonfaces.values())


# ----------------------------------------------------------------------
# Hodge data: a poset H together with an ideal of monomials on H.

class HodgeData(_Value):
    """Combinatorial data (H, Sigma) of a Hodge algebra; its discrete
    algebra is k[H]/(Sigma)."""

    _fields = ("poset", "sigma")

    def __init__(self, poset: Poset, sigma: MonomialIdeal):
        if sigma.variables != poset.elements:
            raise ValueError("sigma must live on the poset's elements")
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "sigma", sigma)


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
    generators supported there, a subset of a minimal generating set less
    columns that are 0 on all of it, so minimal as it comes."""
    qmask = _ideal_mask(data.poset, ideal_labels)
    idx = [i for i in range(len(data.poset.elements)) if not qmask >> i & 1]
    keep = tuple(data.poset.elements[i] for i in idx)
    gens = [
        tuple(g[i] for i in idx)
        for g in data.sigma.generators
        if sum(g[i] for i in idx) == sum(g)  # exponents are nonnegative
    ]
    return HodgeData(data.poset.restrict(keep), MonomialIdeal._trusted(keep, gens))


def _core_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal restricted to the variables its generators use: the ideal
    itself when it uses them all.  Dropping columns that are 0 in every
    generator keeps the generators minimal, and sorted."""
    gens = ideal.generators
    used = [i for i, col in enumerate(zip(*gens)) if any(col)]
    if len(used) == len(ideal.variables):
        return ideal
    return MonomialIdeal._trusted(tuple(ideal.variables[i] for i in used), [tuple(g[i] for i in used) for g in gens])


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
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"exponent of {v!r} must be an integer")
            e[index[v]] = k
        gens.append(tuple(e))
    return ideal_from_generators(variables, gens)
