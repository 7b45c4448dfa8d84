"""Generators for the symmetric-matrix bitableau Hodge data and the
end-to-end reproduction of its dimension/depth computations.

The generating poset D consists of bitableaux [alpha|beta] of strictly
increasing index tuples of equal size with alpha <= beta; the governing
ideal is generated by the degree-two products of "incomparable" pairs.
Quotienting by the tuples of size >= 2 leaves the quadratic monomial ideal
in the entries of a generic symmetric matrix whose quotient ring has
dimension n and depth 2, with a core of dimension n-2 and depth 0.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import CapExceededError
from .monomial import (
    HodgeData,
    MonomialIdeal,
    _core_ideal,
    _support,
    depth_monomial_quotient,
    dim_monomial_quotient,
    ideal_from_generators,
    polar_variable_name,
    polarize,
)
from .poset import Poset, is_poset_ideal
from .simplicial import FieldSpec

DEFAULT_CAP = 7


def tuple_leq(alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    """Order on index tuples: alpha <= beta iff alpha is at least as long
    and entrywise below beta on beta's length."""
    if len(alpha) < len(beta):
        return False
    return all(a <= b for a, b in zip(alpha, beta))


def _tableau_label(row: tuple[int, ...], col: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, row)) + "|" + ",".join(map(str, col)) + "]"


def build_minor_hodge_data(n: int) -> HodgeData:
    """The poset D of bitableaux over [1, n] with its governing ideal.

    D = {[alpha|beta] : equal size, alpha <= beta}, ordered by
    [alpha|beta] < [gamma|delta] iff alpha < gamma, or alpha = gamma and
    beta < delta.  The ideal is generated by the products
    [alpha|beta][gamma|delta] with beta <= gamma failing and delta <= alpha
    failing (squares included when the condition self-applies).
    """
    if n < 1:
        raise ValueError("n must be positive")
    tableaux: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for size in range(1, n + 1):
        tuples = list(itertools.combinations(range(1, n + 1), size))
        for alpha in tuples:
            for beta in tuples:
                if tuple_leq(alpha, beta):
                    tableaux.append((alpha, beta))
    tableaux.sort(key=lambda ab: (len(ab[0]), ab[0], ab[1]))
    labels = tuple(_tableau_label(a, b) for a, b in tableaux)

    def strict(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return a != b and tuple_leq(a, b)

    rows = tuple(
        sum(1 << j for j, (gamma, delta) in enumerate(tableaux)
            if strict(alpha, gamma) or (alpha == gamma and strict(beta, delta)))
        for alpha, beta in tableaux
    )
    poset = Poset(labels, rows)

    m = len(tableaux)
    gens = []
    for i in range(m):
        alpha, beta = tableaux[i]
        for j in range(i, m):
            gamma, delta = tableaux[j]
            # the condition is symmetric in the two factors, so one check
            # covers both orderings of the pair
            if not tuple_leq(beta, gamma) and not tuple_leq(delta, alpha):
                e = [0] * m
                e[i] += 1
                e[j] += 1
                gens.append(tuple(e))
    sigma = ideal_from_generators(labels, gens)
    return HodgeData(poset, sigma)


def omega_ideal(data: HodgeData, t: int) -> frozenset[str]:
    """The poset ideal of bitableaux of size at least t."""
    if t < 1:
        raise ValueError("t must be positive")
    # a label reads [alpha|beta]: its size is one more than alpha's commas
    result = frozenset(e for e in data.poset.elements if e.split("|")[0].count(",") + 1 >= t)
    assert is_poset_ideal(data.poset, result)
    return result


def _xvar(i: int, j: int, n: int) -> str:
    return f"X{i}{j}" if n <= 9 else f"X{i},{j}"


def a_dis_ideal_t2(n: int) -> MonomialIdeal:
    """The quadratic monomial ideal (X_ij X_kl : j > k and l > i) in the
    entries of a generic symmetric n x n matrix."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    variables = tuple(_xvar(i, j, n) for i, j in pairs)
    gens = []
    for a in range(len(pairs)):
        i, j = pairs[a]
        for b in range(a, len(pairs)):
            k, l = pairs[b]
            # symmetric in the pair, so one ordering suffices; a = b gives
            # the squares X_ij^2 for i < j
            if j > k and l > i:
                e = [0] * len(pairs)
                e[a] += 1
                e[b] += 1
                gens.append(tuple(e))
    return ideal_from_generators(variables, gens)


def section3_facets(n: int) -> tuple[list[str], list[str]]:
    """The two distinguished facets of the polarized complex, by name."""
    facet_a = [_xvar(1, 1, n), _xvar(1, n, n), _xvar(n, n, n)]
    facet_a += [
        polar_variable_name(_xvar(i, j, n), 2)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) != (1, n)
    ]
    facet_b = [
        _xvar(i, j, n)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if j <= i + 1
    ]
    facet_b += [
        polar_variable_name(_xvar(i, j, n), 2)
        for i in range(1, n + 1)
        for j in range(i + 2, n + 1)
    ]
    return facet_a, facet_b


def _is_facet(supports: list[int], width: int, face: int) -> bool:
    """Whether the vertex mask face is a facet of the Stanley-Reisner complex
    on width vertices of the squarefree ideal with the given generator
    supports: a face contains no support, and it is a facet when each vertex
    v outside it has a support s with s - face = {v}."""
    outside = {s & ~face for s in supports}
    return 0 not in outside and all(1 << v in outside for v in range(width) if not face >> v & 1)


@lru_cache(maxsize=8)
def _section3_fixed(n: int) -> dict:
    """Everything reproduce_section3(n) computes that no field changes: the
    auxiliary count of the polarized ideal, against whose generators the two
    distinguished facets are checked, and the ideal and its core, whose
    depths each field reads."""
    ideal = a_dis_ideal_t2(n)
    polarized, aux = polarize(ideal)
    index = {v: i for i, v in enumerate(polarized.variables)}
    supports = [_support(g) for g in polarized.generators]
    facet_a, facet_b = section3_facets(n)
    core_ideal = _core_ideal(ideal)
    return {
        "dim": dim_monomial_quotient(ideal),
        "core_dim": dim_monomial_quotient(core_ideal),
        "aux_vars": aux,
        "ideals": (ideal, core_ideal),
        "facet_cards": tuple(sorted([len(facet_a), len(facet_b)])),
        "facets_verified": all(
            _is_facet(supports, len(index), sum(1 << index[v] for v in f)) for f in (facet_a, facet_b)
        ),
        "regular_pair": tuple(v for v in ideal.variables if v not in core_ideal.variables),
    }


def reproduce_section3(n: int, field: FieldSpec) -> dict:
    """Dimension/depth of the quadratic symmetric-matrix quotient and of its
    core, plus verification of the two distinguished polarized facets."""
    if n < 3:
        raise ValueError("n must be at least 3")
    fixed = _section3_fixed(n)
    ideal, core_ideal = fixed["ideals"]
    return {
        "n": n,
        "dim": fixed["dim"],
        "depth": depth_monomial_quotient(ideal, field),
        "core_dim": fixed["core_dim"],
        "core_depth": depth_monomial_quotient(core_ideal, field),
        "aux_vars": fixed["aux_vars"],
        "facet_cards": list(fixed["facet_cards"]),
        "facets_verified": fixed["facets_verified"],
        "regular_pair": list(fixed["regular_pair"]),
        "field": {"char": field.characteristic},
    }


def check_cap(n: int, cap: int = DEFAULT_CAP) -> None:
    """Desk-scale guard: the one depth walk per n, shared by the ideal and
    its core in every field, visits about 2.6 times more complexes per step
    of n; the facet check reads the generators of the polarized ideal, on
    n(n+1)/2 variables and n(n-1)/2 auxiliary ones."""
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the cap {cap}")
