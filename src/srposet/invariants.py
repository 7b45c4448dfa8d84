"""Ring-theoretic invariants of Stanley-Reisner rings, read off combinatorially.

One loop over links serves depth, Cohen-Macaulay and Buchsbaum: depth is
the least |s| + 1 + jmin(lk s) over the faces s, Cohen-Macaulay is read off
as depth = dim, and Buchsbaum as the same loop over the nonempty faces of an
equidimensional complex reaching dim.  Exact reductions keep it desk-scale:

* cone points (vertices in every facet) each add one and are stripped;
* only intersections of facets can carry nonvanishing link homology (any
  other link is a cone); they are visited smallest first, until no face
  can lower the value further;
* dominated-vertex deletion (strong collapse) is a deformation retract, so
  each link is collapsed before any boundary matrix is built;
* the collapse does not depend on the field, so the link cores are
  computed once per complex (facets compacted, so equal complexes on other
  vertex labels count as one) and shared by every field, by depth, CM and
  Buchsbaum, and by a monomial ideal and its core, whose polarized
  complexes differ only by cone points.  Cores that are a single point are
  acyclic over every field and are not kept.

No approximation is involved anywhere.
"""

from __future__ import annotations

from copy import copy
from functools import lru_cache
from itertools import tee

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
    """min(bound, |s| + 1 + jmin(lk s)) over the closed faces s that are not
    facets, and only the nonempty ones if asked.  A facet's link {emptyset}
    gives |s|, which the callers' bound already covers.  `facets` keys the
    shared scan, so callers pass them compacted."""
    cores = _link_cores(facets)
    try:
        for size, core in copy(cores):
            if core is not None and not (nonempty and size == 0):
                for d, b in enumerate(_betti_masks(core, char)):
                    if b:  # reduced homology in degree d - 1
                        bound = min(bound, size + d)
                        break
            # sizes never decrease, and each size opens with a marker, so
            # this stops before any link of no use is collapsed
            if size + 1 >= bound:
                break
    except BaseException:
        # an exception inside the scan ends its generator; the cached entry
        # would then replay the part computed so far as if it were complete
        _link_cores.cache_clear()
        raise
    return bound


@lru_cache(maxsize=8)
def _link_cores(facets: tuple[int, ...]):
    """The field-independent half of `_link_depth`, computed lazily and at
    most once per facet antichain.  Callers iterate over a `copy` of the
    returned iterator: it replays what earlier calls computed and extends
    it on demand.

    Yields (size, None) as each size of closed face begins, so that a
    caller can stop before any link of that size is collapsed; then
    (|s|, core) for each closed face s of that size that is not a facet,
    where core is the compacted strong collapse of lk s.  Cores that are a
    single point are acyclic over every field and are not yielded.

    Bounded, because the complexes worth keeping are the few a caller
    revisits at once (the fields of one complex, depth then Buchsbaum, an
    ideal and its core), while a sweep passes through tens of thousands.
    """
    return tee(_scan_link_cores(facets), 1)[0]


def _scan_link_cores(facets: tuple[int, ...]):
    facet_set = set(facets)
    last = -1
    for sigma in _closed_faces(facets):
        size = sigma.bit_count()
        if size != last:
            last = size
            yield size, None
        if sigma in facet_set:
            continue
        core = _strong_collapse(_link_facets(facets, sigma))
        if len(core) > 1:  # a core with one facet is a single point
            yield size, _compact_key(core)


def is_cohen_macaulay_poset(p: Poset, field: FieldSpec) -> bool:
    """Interval criterion: every open interval of P (with formal bottom and
    top adjoined) has an order complex with homology only in top degree.

    Deliberately implemented on the chains of each interval mask, read
    through reduced_betti_numbers, independently of the link-based test.
    """
    n = len(p)
    full = (1 << n) - 1
    # index -1 of `up` is the formal bottom, index n of `down` the formal top
    up = (*p.lt, full)
    down = (*p.down_masks(), full)
    for a in range(-1, n):
        for b in [*_bits(up[a]), n]:
            mask = up[a] & down[b]
            if not mask & (mask - 1):
                continue  # at most one element: dimension -1 or 0, as below
            facets = _chain_facets(p.lt, mask)
            d = max(f.bit_count() for f in facets) - 1
            if d <= 0:
                # d = -1: nothing below top degree; d = 0: only beta_{-1}
                # could matter and it vanishes whenever a vertex exists
                continue
            betti = reduced_betti_numbers(SimplicialComplex(p.elements, facets), field)
            if any(betti[i] for i in range(-1, d)):
                return False
    return True


def complex_report(k: SimplicialComplex, field: FieldSpec) -> dict:
    """Summary report of the face-ring invariants over one field."""
    dim = krull_dim_stanley_reisner(k)
    depth = 0 if k.facets == (0,) else depth_stanley_reisner(k, field)
    cm = depth == dim
    return {
        "dim": dim,
        "depth": depth,
        "cm": cm,
        "buchsbaum": cm or is_buchsbaum_complex(k, field),
        "field": {"char": field.characteristic},
    }
