"""Simplicial complexes with exact reduced (co)homology over a chosen field.

Faces are bitmasks over the vertex index space.  A complex stores only its
facets; every subset of a facet is a face, and the empty face is always
present.  The complex {emptyset} is represented by the single facet 0; the
void complex is not representable.

Homology is computed on the strong-collapse core of a complex (a
deformation retract, so every reduced Betti number is kept) from ranks of
the augmented boundary matrices, by the sparse echelon of `_exact` in
every characteristic.  Each boundary row is built straight from the face
masks: {lower face: +-1} over Q and F_p, a bitmask over F_2.  Over a
field, homology and cohomology dimensions coincide, and that is what
BettiVector reports.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
import json

from ._exact import _rank, rank_char0, rank_mod2
from .errors import NotAFaceError, UnknownVertexError


# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017); larger characteristics are rejected, not guessed.
_PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact primality test for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Value:
    """Base of the immutable value classes.  Two values are equal when their
    classes match and so do their public fields, named in ``_fields``; the
    hash is that of the field tuple.  Other attributes, such as the caches a
    Poset keeps, take no part in equality, hashing or repr."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FieldSpec(_Value):
    """Coefficient field selector: characteristic 0 or a prime p."""

    _fields = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        c = characteristic
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"characteristic must be an int, got {c!r}")
        if c >= _PRIME_BOUND:
            raise ValueError(f"characteristic must be below {_PRIME_BOUND}, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime, got {c}")
        object.__setattr__(self, "characteristic", c)


QQ = FieldSpec(0)
GF2 = FieldSpec(2)


class SimplicialComplex(_Value):
    """Vertex labels plus a sorted inclusion-antichain of facet bitmasks."""

    _fields = ("vertices", "facets")

    def __init__(self, vertices: Iterable[str], facets: Iterable[int]):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "facets", tuple(facets))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        if not self.facets:
            raise ValueError("a complex has at least the empty face; use facets=(0,)")
        full = (1 << len(self.vertices)) - 1
        for f in self.facets:
            if f & ~full:
                raise ValueError("facet bit out of range")
        if self.facets != _minimalize_facets(self.facets):
            raise ValueError("facets must be an inclusion-antichain, sorted")

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], facets: tuple[int, ...]) -> "SimplicialComplex":
        """Skips the checks of __init__: for complexes the engine derives from valid input."""
        k = object.__new__(cls)
        object.__setattr__(k, "vertices", vertices)
        object.__setattr__(k, "facets", facets)
        return k

    def __repr__(self) -> str:
        return f"SimplicialComplex({list(self.vertices)!r}, {self.facet_labels()!r})"

    def dim(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1

    def facet_labels(self) -> list[list[str]]:
        return [[self.vertices[i] for i in _bits(f)] for f in self.facets]

    def face_mask(self, face: Iterable[str]) -> int:
        return _label_mask({v: i for i, v in enumerate(self.vertices)}, face, UnknownVertexError)

    def has_face(self, face: Iterable[str]) -> bool:
        mask = self.face_mask(face)
        return any(mask & f == mask for f in self.facets)


def complex_from_facets(
    vertices: Sequence[str], facets: Iterable[Iterable[str]]
) -> SimplicialComplex:
    """Build a complex from facet label lists; contained facets are pruned.

    Vertices listed but not covered by a facet are kept in the vertex set
    without being faces.  An empty facet list or [[]] yields {emptyset}.
    """
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    masks = [_label_mask(index, facet, UnknownVertexError) for facet in facets]
    if len(index) != len(vertices):
        raise ValueError("duplicate vertex labels")
    return SimplicialComplex._trusted(vertices, _minimalize_facets(masks or [0]))


def link(k: SimplicialComplex, face: Iterable[str]) -> SimplicialComplex:
    """link(k, s) = {t | t and s disjoint, t union s a face of k}."""
    mask = k.face_mask(face)
    if not any(mask & f == mask for f in k.facets):
        raise NotAFaceError(f"{sorted(face)} is not a face")
    if mask == 0:
        return k
    link_facets = _link_facets(k.facets, mask)
    keep = [i for i in range(len(k.vertices)) if not (mask >> i) & 1]
    pos = {g: kk for kk, g in enumerate(keep)}
    # clearing the face and renumbering unused bits keep the facets sorted
    remapped = tuple(_remap_mask(f, pos) for f in link_facets)
    return SimplicialComplex._trusted(tuple(k.vertices[i] for i in keep), remapped)


def reduced_euler_char_complex(k: SimplicialComplex) -> int:
    """Sum over all faces s of (-1)^(|s|-1); {emptyset} gives -1.  Counted
    on the strong-collapse core, which is homotopy equivalent to k."""
    total = 0
    for card, faces in enumerate(_faces_by_card(_core_key(k.facets))):
        total += -len(faces) if card % 2 == 0 else len(faces)
    return total


def is_equidimensional(k: SimplicialComplex) -> bool:
    """True iff all facets have the same cardinality."""
    return len({f.bit_count() for f in k.facets}) <= 1


class BettiVector(_Value):
    """Reduced Betti numbers indexed by degree, from -1 up to dim.  Not
    hashable: its values dict can change."""

    _fields = ("values",)

    def __init__(self, values: dict[int, int]):
        object.__setattr__(self, "values", values)

    def __getitem__(self, degree: int) -> int:
        return self.values.get(degree, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiVector):
            return NotImplemented
        mine = {d: v for d, v in self.values.items() if v}  # a missing degree is zero
        return mine == {d: v for d, v in other.values.items() if v}

    def total(self) -> int:
        return sum(self.values.values())

    def alternating_sum(self) -> int:
        """Sum of (-1)^d beta_d over all degrees, the degree -1 included."""
        return sum(v if d % 2 == 0 else -v for d, v in self.values.items())


def reduced_betti_numbers(k: SimplicialComplex, field: FieldSpec) -> BettiVector:
    """Exact reduced homology dimensions, degrees -1 up to dim k.

    The ranks are taken on the strong-collapse core of k, which has the
    same reduced homology.  Degrees above the core's dimension are reported
    as zeros.
    """
    betti = _betti_masks(_core_key(k.facets), field.characteristic)
    betti += (0,) * (k.dim() + 2 - len(betti))
    return BettiVector({d - 1: b for d, b in enumerate(betti)})


# ----------------------------------------------------------------------
# Internal machinery on facet masks.  Keys passed to the cached routines
# are compacted (vertex bits renumbered densely) so structurally equal
# complexes share cache entries regardless of labels.

def _minimalize_facets(masks: Iterable[int]) -> tuple[int, ...]:
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    out: list[int] = []
    for m in uniq:
        if not any(m & f == m for f in out):
            out.append(m)
    return tuple(sorted(out))


def _link_facets(facets: tuple[int, ...], sigma: int) -> tuple[int, ...]:
    """Facets of the link of the face sigma, on the same vertex bits, in the
    order of `facets`.

    `facets` must be an inclusion-antichain.  Then so is the result: for
    facets f, g containing sigma, f - sigma inside g - sigma forces f inside
    g, so nothing needs minimalizing.
    """
    return tuple([f & ~sigma for f in facets if f & sigma == sigma])


def _label_mask(index: dict[str, int], labels: Iterable[str], unknown: type[Exception]) -> int:
    """The bitmask of the labels' positions in index; the first label not in
    it raises unknown(label)."""
    mask = 0
    for label in labels:
        try:
            mask |= 1 << index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise unknown(label) from None
    return mask


def _bits(mask: int) -> Iterator[int]:
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _remap_mask(mask: int, pos: dict[int, int]) -> int:
    out = 0
    for b in _bits(mask):
        out |= 1 << pos[b]
    return out


def _compact_key(facets: Iterable[int]) -> tuple[int, ...]:
    """Renumber the used vertex bits densely, preserving order."""
    facets = list(facets)
    used = 0
    for f in facets:
        used |= f
    pos = {b: i for i, b in enumerate(_bits(used))}
    return tuple(sorted(_remap_mask(f, pos) for f in facets))


def _faces_by_card(facets: Iterable[int]) -> list[list[int]]:
    """All faces grouped by cardinality; index c lists faces with c bits."""
    seen = {0}
    for f in facets:
        if f not in seen:
            stack = [f]
            seen.add(f)
            while stack:
                g = stack.pop()
                m = g
                while m:
                    b = m & -m
                    sub = g & ~b
                    if sub not in seen:
                        seen.add(sub)
                        stack.append(sub)
                    m &= m - 1
    grouped: list[list[int]] = [[] for _ in range(max(f.bit_count() for f in facets) + 1)]
    for f in sorted(seen):
        grouped[f.bit_count()].append(f)
    return grouped


@lru_cache(maxsize=64)
def _core_key(facets: tuple[int, ...]) -> tuple[int, ...]:
    """The compacted strong-collapse core of a facet antichain.

    Cached, so that the other fields of a complex reuse the first field's
    collapse.  Small, because those calls come close together: the fields
    of one sweep pair, or of the interval complexes of one poset.
    """
    return _compact_key(_strong_collapse(facets))


@lru_cache(maxsize=4096)
def _betti_masks(facets: tuple[int, ...], char: int) -> tuple[int, ...]:
    """Reduced Betti numbers (beta_{-1}, beta_0, ..., beta_dim) of a facet set,
    from the boundary ranks of all its faces; no collapse.

    Bounded, so that memory stays flat over a long sweep.  The library
    passes only strong-collapse cores, and few distinct ones recur: a whole
    `srposet sweep --max-elements 5` leaves 42 entries, and 7 elements 846.
    """
    grouped = _faces_by_card(facets)
    maxc = len(grouped) - 1
    nf = [len(g) for g in grouped]
    ranks = [0] * (maxc + 2)  # ranks[c] = rank of map from card c to card c-1
    for c in range(1, maxc + 1):
        ranks[c] = _boundary_rank(grouped[c - 1], grouped[c], char)
    return tuple(nf[c] - ranks[c] - ranks[c + 1] for c in range(maxc + 1))


def _boundary_rank(lower: list[int], upper: list[int], char: int) -> int:
    """Rank of the boundary map from card-c faces (upper) to card-(c-1), with
    rows {lower face mask: +-1}, or bitmasks over the positions in lower."""
    if char == 2:
        index = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = 0
            for b in _bits(f):
                row |= 1 << index[f & ~(1 << b)]
            rows.append(row)
        return rank_mod2(rows)
    rows = []
    for f in upper:
        row = {}
        sign = 1
        for b in _bits(f):
            row[f & ~(1 << b)] = sign
            sign = -sign
        rows.append(row)
    return rank_char0(rows) if char == 0 else _rank(rows, char)


def _strong_collapse(facets: tuple[int, ...]) -> tuple[int, ...]:
    """Delete dominated vertices until none remain; returns sorted facets.

    A vertex v is dominated when some other vertex lies in every facet
    containing v; deleting it is a deformation retract, so all reduced
    homology is preserved.  The core is unique up to isomorphism (Barmak and
    Minian, "Strong homotopy types, nerves and collapses", 2012).

    Worklist form, for an antichain of facets: each vertex is tested once,
    and again only after a vertex of its star was deleted, since deleting v
    changes no other vertex's facets.  Deleting v keeps the facets without v
    and adds f - v for each facet f containing v unless a kept facet covers
    it; these new faces need no check among themselves, because f - v inside
    g - v forces f inside g.  Once the facets share a vertex, the complex is
    a cone, whose core is a point: its lowest apex is returned at once.  A
    complex whose core is not a point never becomes a cone.
    """
    current = list(facets)
    todo = 0
    for f in current:
        todo |= f
    while todo:
        bit = todo & -todo
        todo ^= bit
        inter = common = ~0
        for f in current:
            common &= f
            if f & bit:
                inter &= f
        if common:
            return (common & -common,)  # a cone: it collapses to its apex
        if inter == bit:
            continue  # no other vertex lies in every facet containing v
        kept = [f for f in current if not f & bit]
        star = 0
        added = []
        for f in current:
            if f & bit:
                star |= f
                g = f ^ bit
                for h in kept:
                    if g & h == g:
                        break
                else:
                    added.append(g)
        current = kept + added
        todo |= star ^ bit
    return tuple(sorted(current))


def _closed_faces(facets: Sequence[int]) -> list[int]:
    """All intersections of nonempty sets of facets, by size and then by
    value, in one fold: each facet joins with its meets with the faces found
    so far.  The facets are listed, though the link pass stops below them."""
    closed: set[int] = set()
    for f in facets:
        closed.update(map(f.__and__, tuple(closed)))
        closed.add(f)
    return sorted(sorted(closed), key=int.bit_count)


# ----------------------------------------------------------------------
# JSON: {"vertices": [...], "facets": [[...], ...]}

def complex_to_json(k: SimplicialComplex) -> str:
    return json.dumps(
        {"vertices": list(k.vertices), "facets": k.facet_labels()}
    )


def _json_list(value, what: str, item: type = str) -> list:
    """A JSON value that must be a list of items (labels by default)."""
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        kind = {str: "strings", list: "lists", dict: "objects"}[item]
        raise ValueError(f"{what} must be a list of {kind}")
    return value


def complex_from_json(text: str) -> SimplicialComplex:
    data = json.loads(text)
    if not isinstance(data, dict) or "vertices" not in data or "facets" not in data:
        raise ValueError("complex JSON must have 'vertices' and 'facets' keys")
    facets = _json_list(data["facets"], "'facets'", list)
    return complex_from_facets(
        _json_list(data["vertices"], "'vertices'"),
        [_json_list(f, "each facet") for f in facets],
    )
