"""Ring-theoretic invariants of Stanley-Reisner rings, read off combinatorially.

One loop over links serves depth, Cohen-Macaulay and Buchsbaum: depth is
the least |s| + 1 + jmin(lk s) over the faces s, Cohen-Macaulay is read off
as depth = dim, and Buchsbaum as the same loop over the nonempty faces of an
equidimensional complex reaching dim.  Exact reductions keep it desk-scale:

* cone points (vertices in every facet) each add one and are stripped;
* only intersections of facets can carry nonvanishing link homology (any
  other link is a cone); they are grouped into levels by size and visited
  smallest level first, until no face can lower the value further;
* dominated-vertex deletion (strong collapse) is a deformation retract, so
  each link is collapsed before any boundary matrix is built, and only until
  it is a cone (the core of a cone is its apex: about one deletion per link
  instead of eighteen at n = 6 of the symmetric-matrix example);
* the collapse does not depend on the field, so the link cores are
  computed once per complex and level, the first time a call reaches that
  level (facets compacted, so equal complexes on other vertex labels count
  as one), and shared by every field and by depth, CM and Buchsbaum;
  complexes that differ only by cone points share one scan.  Cores that
  are a single point are acyclic over every field and are not kept.  The
  monomial depth shares one step earlier: monomial._takayama_complexes,
  keyed on the generators on the variables they use, walks the complexes
  Delta_b of an ideal and of its core once for every field.

Posets have a second route that never builds the order complex.  The link
of a chain x_1 < ... < x_k of P is the join of the open intervals
(bottom, x_1), ..., (x_k, top), so by Kuenneth for joins Hochster's depth is
a shortest path over the intervals, Cohen-Macaulay asks every interval for
homology in its top degree only, and Buchsbaum (Baclawski) every interval
but (bottom, top) of a pure P.  One field-independent pass per poset,
cached and grown only as far as a question needs, walks the chains of each
interval that is not a cone and strong-collapses them; every field then
reads homology through reduced_betti_numbers.  The link loop on the order
complex stays the independent check of this route.

No approximation is involved anywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyComplexError
from .poset import Poset, _chain_facets, is_pure
from .simplicial import (
    FieldSpec,
    SimplicialComplex,
    _betti_masks,
    _bits,
    _closed_faces,
    _compact_key,
    _core_key,
    _link_facets,
    _strong_collapse,
    is_equidimensional,
    reduced_betti_numbers,
)


def krull_dim_stanley_reisner(k: SimplicialComplex) -> int:
    """Krull dimension of the face ring: dim K + 1, i.e. largest facet size."""
    return max(f.bit_count() for f in k.facets)


def is_cohen_macaulay_complex(k: SimplicialComplex, field: FieldSpec) -> bool:
    """Reisner's criterion (every link has homology only in its top degree),
    read as depth = dim."""
    return _depth_masks(k.facets, field.characteristic) == krull_dim_stanley_reisner(k)


def is_buchsbaum_complex(k: SimplicialComplex, field: FieldSpec) -> bool:
    """Equidimensional with Cohen-Macaulay links of all nonempty faces: the
    depth loop over the nonempty faces alone reaches dim."""
    dim = krull_dim_stanley_reisner(k)
    return is_equidimensional(k) and _link_depth(
        _compact_key(k.facets), field.characteristic, dim, nonempty=True
    ) == dim


def depth_stanley_reisner(k: SimplicialComplex, field: FieldSpec) -> int:
    """Depth of the face ring, from the vanishing of link homology.

    Implements depth = min { i : some face s has nonzero reduced homology
    of its link in degree i - |s| - 1 }.  For K = {emptyset} the face ring
    is the coefficient field; its depth is 0 by convention and this
    function raises EmptyComplexError instead of applying the formula.
    """
    if k.facets == (0,):
        raise EmptyComplexError("face ring of {emptyset} is the field; depth 0")
    return _depth_masks(k.facets, field.characteristic)


def _depth_masks(facets: tuple[int, ...], char: int) -> int:
    # vertices in every facet generate a polynomial extension: strip them
    common = facets[0]
    for f in facets:
        common &= f
    cones = common.bit_count()
    facets = _compact_key([f & ~common for f in facets])
    if facets == (0,):
        return cones
    return cones + _link_depth(facets, char, min(f.bit_count() for f in facets))


def _link_depth(
    facets: tuple[int, ...], char: int, bound: int, nonempty: bool = False
) -> int:
    """min(bound, |s| + 1 + jmin(lk s)) over the closed faces s, and only
    the nonempty ones if asked.  The bound is at most the smallest facet (a
    facet's link {emptyset} gives |s|), so facet levels are never reached.
    `facets` keys the shared levels, so callers pass them compacted.

    A level's links are collapsed the first time a call reaches it, whole,
    and only while faces of that size can still lower the bound."""
    levels, cores = _link_cores(facets)
    for i, (size, faces) in enumerate(levels):
        if size + 1 >= bound:
            break  # no face of this size or larger can lower the bound
        if i == len(cores):
            # appended whole, so an interrupt leaves no partial level behind;
            # a core with one facet (a cone's apex) is a point and left out
            collapsed = (_strong_collapse(_link_facets(facets, s)) for s in faces)
            cores.append(tuple(_compact_key(c) for c in collapsed if len(c) > 1))
        if nonempty and size == 0:
            continue
        for core in cores[i]:
            for d, b in enumerate(_betti_masks(core, char)):
                if b:  # reduced homology in degree d - 1
                    bound = min(bound, size + d)
                    break
            if size + 1 >= bound:
                return bound
    return bound


@lru_cache(maxsize=8)
def _link_cores(facets: tuple[int, ...]):
    """The field-independent half of `_link_depth`, once per facet
    antichain: the closed faces as (size, faces) levels by increasing size
    (facets included, never reached), and a list of per-level core tuples,
    empty until `_link_depth` extends it as far as some call needs.  A core
    is the compacted strong collapse of lk s; single points are left out.

    Bounded, because the complexes worth keeping are the few a caller
    revisits at once (the fields of one complex, depth then Buchsbaum, an
    ideal and its core), while a Takayama walk passes through hundreds.
    """
    levels: dict[int, list[int]] = {}
    for sigma in _closed_faces(facets):  # sorted by size
        levels.setdefault(sigma.bit_count(), []).append(sigma)
    return tuple(levels.items()), []


@lru_cache(maxsize=8)
def _interval_pass(p: Poset) -> list:
    """The field-independent half of the poset tests, once per poset: the
    entries of the intervals walked so far, indexed by walk position (see
    `_intervals`).  Bounded, as `_link_cores` is: the fields of one poset,
    and depth then Buchsbaum, come close together."""
    return []


def _intervals(p: Poset):
    """Yields (a, b, Delta(a, b), dim Delta(a, b)) for the open intervals of
    P with a formal bottom -1 and top n adjoined, a before b in index order,
    except those acyclic in every field (entry None).  Delta is built only
    where homology must be read: a cover's is {emptyset} (None, dimension
    -1), and two or more points (None, dimension 0) have homology in degree
    0 alone.

    The i-th entry is built when the walk reaches i = len(list), as
    `_link_depth` grows `_link_cores`, and appended whole: an interrupt
    leaves no partial one behind, and every other reader reads it back."""
    records = _interval_pass(p)
    n = len(p)
    full = (1 << n) - 1
    # index -1 of `up` is the formal bottom, index n of `down` the formal top
    up = (*p.lt, full)
    down = (*p.down_masks(), full)
    i = 0
    for a in range(-1, n):
        for b in [*_bits(up[a]), n]:
            if i == len(records):
                records.append(_interval_record(p, a, b, up[a] & down[b]))
            if records[i]:
                yield records[i]
            i += 1


def _interval_record(p: Poset, a: int, b: int, mask: int):
    """The entry of the open interval (a, b) on `mask`, built whole.  An
    element comparable to all others, a lone element included, lies on
    every maximal chain, so Delta is a cone on it and acyclic (None); the
    chains are walked only when there is none."""
    if not mask:
        return a, b, None, -1
    lt, down = p.lt, p.down_masks()
    related = 0
    for x in _bits(mask):
        rel = (lt[x] | down[x]) & mask
        if rel | 1 << x == mask:
            return None
        related |= rel
    if not related:
        return a, b, None, 0
    facets = _chain_facets(p._covers(), mask)
    if len(_core_key(facets)) == 1:
        return None
    d = max(map(int.bit_count, facets)) - 1
    return a, b, SimplicialComplex._trusted(p.elements, facets), d


def _jmin(k: SimplicialComplex | None, d: int, field: FieldSpec) -> int | None:
    """The least degree of nonzero reduced homology of an interval complex
    of dimension d, or None if it is acyclic.  {emptyset} has it in degree
    -1, and two or more points in degree 0.  Homology only in the top
    degree reads as _jmin in (d, None)."""
    if d <= 0:
        return d
    betti = reduced_betti_numbers(k, field)
    return next((i for i in range(-1, d + 1) if betti[i]), None)


def is_cohen_macaulay_poset(p: Poset, field: FieldSpec) -> bool:
    """Interval criterion: every open interval of P (with formal bottom and
    top adjoined) has an order complex with homology only in top degree.

    Read off the interval pass, which walks the chains of each interval at
    most once for all fields and tests; stops at the first interval with
    homology below its top degree.  Independent of the link-based test.
    """
    return all(_jmin(k, d, field) in (d, None) for _, _, k, d in _intervals(p))


def is_buchsbaum_poset(p: Poset, field: FieldSpec) -> bool:
    """Baclawski's criterion: P is pure and every open interval other than
    (bottom, top) has homology only in its top degree."""
    n = len(p)
    return is_pure(p) and all(
        _jmin(k, d, field) in (d, None) for a, b, k, d in _intervals(p) if (a, b) != (-1, n)
    )


def depth_poset(p: Poset, field: FieldSpec) -> int:
    """Depth of the face ring of the order complex of P, from the interval
    pass.

    The link of a chain x_1 < ... < x_k is the join of the intervals
    (bottom, x_1), ..., (x_k, top), and by Kuenneth for joins its least
    degree of nonzero homology is the sum of theirs plus k (none if a factor
    is acyclic).  So Hochster's formula is one less than the lightest path
    from bottom to top over the non-acyclic intervals (x, y), each of weight
    2 plus that least degree of Delta(x, y): 1 for a cover.
    """
    n = len(p)
    into: dict[int, list[tuple[int, int]]] = {}
    for a, b, k, d in _intervals(p):
        j = _jmin(k, d, field)
        if j is not None:
            into.setdefault(b, []).append((a, j + 2))
    down = p.down_masks()
    dist = {-1: 0}
    # every element has a cover below it, from the formal bottom at least
    for y in [*sorted(range(n), key=lambda x: down[x].bit_count()), n]:
        dist[y] = min(dist[a] + w for a, w in into[y])
    return dist[n] - 1


def _field_report(x, field: FieldSpec, dim: int, depth: int, buchsbaum) -> dict:
    """The report of x, a complex or a poset, over one field: Cohen-Macaulay is
    depth = dim; buchsbaum(x, field), which it implies, runs only when that fails."""
    cm = depth == dim
    return {"dim": dim, "depth": depth, "cm": cm, "buchsbaum": cm or buchsbaum(x, field),
            "field": {"char": field.characteristic}}


def complex_report(k: SimplicialComplex, field: FieldSpec) -> dict:
    """Summary report of the face-ring invariants over one field; the face
    ring of {emptyset} is the field, of depth 0."""
    depth = _depth_masks(k.facets, field.characteristic)
    return _field_report(k, field, krull_dim_stanley_reisner(k), depth, is_buchsbaum_complex)
