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

No approximation is involved anywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import EmptyComplexError
from .poset import Poset, _chain_facets
from .simplicial import (
    FieldSpec,
    SimplicialComplex,
    _betti_masks,
    _bits,
    _closed_faces,
    _compact_key,
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
    ideal and its core), while a sweep passes through tens of thousands.
    """
    levels: dict[int, list[int]] = {}
    for sigma in _closed_faces(facets):  # sorted by size
        levels.setdefault(sigma.bit_count(), []).append(sigma)
    return tuple(levels.items()), []


def is_cohen_macaulay_poset(p: Poset, field: FieldSpec) -> bool:
    """Interval criterion: every open interval of P (with formal bottom and
    top adjoined) has an order complex with homology only in top degree.

    Deliberately implemented on the chains of each interval mask, walked on
    P's covers (kept on P) and read through reduced_betti_numbers,
    independently of the link-based test.
    """
    n = len(p)
    full = (1 << n) - 1
    covers = p._covers()
    # index -1 of `up` is the formal bottom, index n of `down` the formal top
    up = (*p.lt, full)
    down = (*p.down_masks(), full)
    for a in range(-1, n):
        for b in [*_bits(up[a]), n]:
            mask = up[a] & down[b]
            if not mask & (mask - 1):
                continue  # at most one element: dimension -1 or 0, as below
            facets = _chain_facets(covers, mask)
            d = max(f.bit_count() for f in facets) - 1
            if d <= 0:
                # d = -1: nothing below top degree; d = 0: only beta_{-1}
                # could matter and it vanishes whenever a vertex exists
                continue
            betti = reduced_betti_numbers(SimplicialComplex._trusted(p.elements, facets), field)
            if any(betti[i] for i in range(-1, d)):
                return False
    return True


def complex_report(k: SimplicialComplex, field: FieldSpec) -> dict:
    """Summary report of the face-ring invariants over one field; the face
    ring of {emptyset} is the field, of depth 0."""
    dim = krull_dim_stanley_reisner(k)
    depth = _depth_masks(k.facets, field.characteristic)
    cm = depth == dim
    return {
        "dim": dim,
        "depth": depth,
        "cm": cm,
        "buchsbaum": cm or is_buchsbaum_complex(k, field),
        "field": {"char": field.characteristic},
    }
