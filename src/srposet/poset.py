"""Finite posets: intervals, ideals, purity, order complexes and P (+) Q.

A poset is stored as a labelled element list together with the full strict
order relation, kept transitively closed.  Rows of the relation are bitmasks:
bit j of ``lt[i]`` means element i < element j.  All values are immutable;
every operation is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    NotAnIdealError,
    NotComparableError,
    UnknownLabelError,
)
from .simplicial import SimplicialComplex, _bits, _json_list, _remap_mask

STAR = "*"


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Formal bottom/top elements, accepted by interval operations but never
#: stored inside a Poset.
NEG_INF = _Sentinel("-inf")
POS_INF = _Sentinel("+inf")


@dataclass(frozen=True)
class Poset:
    """Finite poset on labelled elements with a transitively closed order."""

    elements: tuple[str, ...]
    lt: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element labels")
        if len(self.lt) != n:
            raise ValueError("relation size does not match element count")
        full = (1 << n) - 1
        for i, row in enumerate(self.lt):
            if row & ~full:
                raise ValueError("relation bit out of range")
            if (row >> i) & 1:
                raise CycleError(f"{self.elements[i]} < {self.elements[i]}")
        # closed + irreflexive implies antisymmetric, so no separate check.
        # Once j passes, lt[j] is skipped; complete by induction on |lt[i]|:
        # a skipped j' lies in lt[j], strictly smaller than lt[i] (no j), so
        # lt[j'] lies in lt[j], which lies in lt[i].
        for i in range(n):
            row = self.lt[i]
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                if self.lt[j] & ~row:
                    raise ValueError("relation is not transitively closed")
                m &= ~(self.lt[j] | (1 << j))

    @classmethod
    def _trusted(cls, elements: tuple[str, ...], lt: tuple[int, ...]) -> "Poset":
        """Skips __post_init__: for posets the engine derives from valid ones."""
        p = object.__new__(cls)
        object.__setattr__(p, "elements", elements)
        object.__setattr__(p, "lt", lt)
        return p

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        pairs = [
            f"{self.elements[i]}<{self.elements[j]}"
            for i, j in self.cover_pairs_idx()
        ]
        return f"Poset({list(self.elements)!r}, covers=[{', '.join(pairs)}])"

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise UnknownLabelError(label) from None

    def less(self, a: str, b: str) -> bool:
        """a < b in this poset."""
        return bool((self.lt[self.index(a)] >> self.index(b)) & 1)

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.less(a, b)

    def down_masks(self) -> tuple[int, ...]:
        """For each element, the bitmask of elements strictly below it.

        Built on the first call and kept on the instance, outside the
        dataclass fields, so equality, hashing and repr do not see it.
        """
        cols = self.__dict__.get("_down")
        if cols is None:
            cols = _transpose(self.lt)
            object.__setattr__(self, "_down", cols)
        return cols

    def cover_pairs_idx(self) -> list[tuple[int, int]]:
        """Hasse diagram as (lower, upper) index pairs."""
        covers = _cover_masks(self.lt, (1 << len(self.lt)) - 1)
        return [(i, j) for i, up in enumerate(covers) for j in _bits(up)]

    def minimal_idx(self) -> list[int]:
        above = 0
        for row in self.lt:
            above |= row
        return [i for i in range(len(self.elements)) if not (above >> i) & 1]

    def restrict(self, keep: Iterable[str]) -> "Poset":
        """Induced subposet on the given labels (kept in this poset's order)."""
        keep_set = set(keep)
        unknown = keep_set - set(self.elements)
        if unknown:
            raise UnknownLabelError(sorted(unknown)[0])
        idx = [i for i, e in enumerate(self.elements) if e in keep_set]
        return self._restrict_idx(idx)

    def _restrict_idx(self, idx: Sequence[int]) -> "Poset":
        pos = {g: k for k, g in enumerate(idx)}
        keep = sum(1 << i for i in idx)
        rows = tuple(_remap_mask(self.lt[i] & keep, pos) for i in idx)
        return Poset._trusted(tuple(self.elements[i] for i in idx), rows)


def poset_from_cover_relations(
    labels: Sequence[str], covers: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset as the transitive closure of cover relations.

    Raises CycleError if the closure would relate an element to itself
    (this also rejects any antisymmetry violation).
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate element labels")
    index = {e: i for i, e in enumerate(labels)}
    n = len(labels)
    rows = [0] * n
    indeg = [0] * n  # distinct covers into each element
    for a, b in covers:
        if a not in index:
            raise UnknownLabelError(a)
        if b not in index:
            raise UnknownLabelError(b)
        i, j = index[a], index[b]
        if not (rows[i] >> j) & 1:
            rows[i] |= 1 << j
            indeg[j] += 1
    # Kahn's algorithm: a topological order, short exactly when there is a cycle
    order = [i for i in range(n) if not indeg[i]]
    for i in order:
        for j in _bits(rows[i]):
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) < n:
        # name the first element that reaches itself, off the fast path
        for k in range(n):
            for i in range(n):
                if (rows[i] >> k) & 1:
                    rows[i] |= rows[k]
        i = next(i for i in range(n) if (rows[i] >> i) & 1)
        raise CycleError(f"closure relates {labels[i]} < {labels[i]}")
    for i in reversed(order):  # the rows above i are closed already
        for j in _bits(rows[i]):
            rows[i] |= rows[j]
    return Poset._trusted(labels, tuple(rows))


def is_pure(p: Poset) -> bool:
    """True iff all maximal chains of p have the same cardinality."""
    n = len(p)
    covers = _cover_masks(p.lt, (1 << n) - 1)
    # lengths of the maximal chains from each element, computed top down:
    # an element has fewer elements above it than anything below it
    lengths = [frozenset([1])] * n
    for x in sorted(range(n), key=lambda i: p.lt[i].bit_count()):
        if covers[x]:
            lengths[x] = frozenset(1 + l for y in _bits(covers[x]) for l in lengths[y])
    seen: set[int] = set()
    for x in p.minimal_idx():
        seen |= lengths[x]
        if len(seen) > 1:
            return False
    return True


def is_poset_ideal(p: Poset, subset: Iterable[str]) -> bool:
    """True iff the subset is downward closed in p."""
    return _is_closed(p.down_masks(), _subset_mask(p, subset))


def _ideal_mask(p: Poset, q: Iterable[str]) -> int:
    """The bitmask of the labels q, checked to be a poset ideal of p."""
    qmask = _subset_mask(p, q)
    if not _is_closed(p.down_masks(), qmask):
        raise NotAnIdealError("Q is not a poset ideal of P")
    return qmask


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The transposed relation: bit i of entry j iff bit j of rows[i]."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def _is_closed(reach: Sequence[int], mask: int) -> bool:
    """True iff reach[j] lies inside the mask for every j in it."""
    m = mask
    while m:
        low = m & -m
        if reach[low.bit_length() - 1] & ~mask:
            return False
        m ^= low
    return True


def _closed_masks(reach: Sequence[int]) -> list[int]:
    """Every mask over the len(reach) bits that _is_closed accepts."""
    return [s for s in range(1 << len(reach)) if _is_closed(reach, s)]


def _subset_mask(p: Poset, subset: Iterable[str]) -> int:
    mask = 0
    for label in subset:
        mask |= 1 << p.index(label)
    return mask


def open_interval(p: Poset, a, b) -> Poset:
    """The induced subposet on {z | a < z < b}.

    Endpoints may be elements of p or the sentinels NEG_INF / POS_INF;
    (NEG_INF, POS_INF) returns p itself.
    """
    n = len(p)
    full = (1 << n) - 1
    if a is NEG_INF:
        lower = full
    else:
        lower = p.lt[p.index(a)]
    if b is POS_INF:
        upper = full
    else:
        upper = p.down_masks()[p.index(b)]
    if a is not NEG_INF and b is not POS_INF:
        if not (p.lt[p.index(a)] >> p.index(b)) & 1:
            raise NotComparableError(f"{a} is not strictly below {b}")
    mask = lower & upper
    return p._restrict_idx([i for i in range(n) if (mask >> i) & 1])


def uplus(p: Poset, q: Iterable[str]) -> Poset:
    """The poset on P and a duplicated copy Q* of a poset ideal Q.

    The starred copy sits below its originals: x* < y* and x* < y follow the
    order of P (the latter for x <= y), and P keeps its own order.  Starred
    labels are the original labels suffixed with ``*``; input labels must not
    contain the marker.
    """
    return _uplus_mask(p, _ideal_mask(p, q))


def _uplus_mask(p: Poset, qmask: int) -> Poset:
    """uplus for the bitmask of a subset already known to be an ideal."""
    for e in p.elements:
        if STAR in e:
            raise ValueError(f"label {e!r} contains the reserved marker {STAR!r}")
    n = len(p)
    qidx = list(_bits(qmask))
    star_of = {x: n + k for k, x in enumerate(qidx)}
    labels = list(p.elements) + [p.elements[x] + STAR for x in qidx]
    rows = list(p.lt)
    for x in qidx:
        row = (1 << x) | p.lt[x]
        for y in _bits(p.lt[x] & qmask):
            row |= 1 << star_of[y]
        rows.append(row)
    return Poset._trusted(tuple(labels), tuple(rows))


def order_complex(p: Poset) -> SimplicialComplex:
    """The simplicial complex of chains of p; facets are maximal chains."""
    return SimplicialComplex._trusted(p.elements, _chain_facets(p.lt, (1 << len(p)) - 1))


def _cover_masks(lt: Sequence[int], mask: int) -> list[int]:
    """Covers in the order induced on a bitmask: entry i is row i minus the
    rows of the elements above i, all within the mask (0 outside it)."""
    covers = [0] * len(lt)
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        row = lt[i] & mask
        reach = 0
        t = row
        while t:
            j = (t & -t).bit_length() - 1
            reach |= lt[j]
            t &= ~(lt[j] | (1 << j))  # lt is closed: what is above j adds nothing
        covers[i] = row & ~reach
        m &= m - 1
    return covers


def _chain_facets(lt: Sequence[int], mask: int) -> tuple[int, ...]:
    """The maximal chains of the order induced on a bitmask, as sorted facet
    masks over the same bits; (0,) for the empty mask.

    Each maximal chain is one path up the Hasse diagram from a formal
    bottom, covered by the minimal elements, so no chain is found twice.
    """
    covers = _cover_masks(lt, mask)
    bottom = mask
    for up in covers:
        bottom &= ~up
    covers.append(bottom)
    stack = [(len(lt), 0)]
    chains = []
    while stack:
        x, chain = stack.pop()
        up = covers[x]
        if not up:
            chains.append(chain)
        while up:
            low = up & -up
            stack.append((low.bit_length() - 1, chain | low))
            up ^= low
    return tuple(sorted(chains))


def reduced_euler_char_poset(p: Poset) -> int:
    """Reduced Euler characteristic of the order complex of p.

    Sum of (-1)^(|chain|-1) over all chains; the empty chain contributes
    -1, so the empty poset has value -1.
    """
    return sum(_chain_signs(p.down_masks())) - 1


def _chain_signs(down_masks: Sequence[int]) -> tuple[int, ...]:
    """signs[i] = sum of (-1)^(|c|-1) over the chains c whose top is i,
    computed bottom up: such a chain is {i} or one topped by a j < i, plus i.

    The chains of a down-closed mask D are those topped in D, so chi~(D)
    is the sum of the signs over D, minus 1.  Every mask summed is
    down-closed: P, Q, the lower intervals (-inf, x) and their meets with Q.
    """
    signs = [0] * len(down_masks)
    for i in sorted(range(len(down_masks)), key=lambda i: down_masks[i].bit_count()):
        signs[i] = 1 - sum(signs[j] for j in _bits(down_masks[i]))
    return tuple(signs)


def opposite(p: Poset) -> Poset:
    """The poset with all relations reversed; an involution."""
    return Poset._trusted(p.elements, p.down_masks())


# ----------------------------------------------------------------------
# JSON round trips: {"elements": [...], "covers": [[a, b], ...]} and
# {"ideal": [...]}.

def poset_to_json(p: Poset) -> str:
    covers = [
        [p.elements[i], p.elements[j]] for i, j in sorted(p.cover_pairs_idx())
    ]
    return json.dumps({"elements": list(p.elements), "covers": covers})


def poset_from_json(text: str) -> Poset:
    data = json.loads(text)
    if not isinstance(data, dict) or "elements" not in data:
        raise ValueError("poset JSON must be an object with an 'elements' key")
    covers = _json_list(data.get("covers", []), "'covers'", list)
    elements = _json_list(data["elements"], "'elements'")
    pairs = [tuple(_json_list(pair, "each cover")) for pair in covers]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("each cover must be a pair of labels")
    return poset_from_cover_relations(elements, pairs)


def ideal_from_json(text: str) -> list[str]:
    data = json.loads(text)
    if not isinstance(data, dict) or "ideal" not in data:
        raise ValueError("ideal JSON must be an object with an 'ideal' key")
    return list(_json_list(data["ideal"], "'ideal'"))


# ----------------------------------------------------------------------
# Enumeration and sampling, for sweeps and property tests.

def enumerate_posets(labels: Sequence[str]) -> Iterator[Poset]:
    """All labelled posets on the given elements.

    Counts by size follow 1, 1, 3, 19, 219, 4231, 130023, ...
    """
    labels = tuple(labels)
    n = len(labels)

    def rec(m: int, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if m == n:
            yield rows
            return
        downs = _closed_masks(_transpose(rows))
        ups = _closed_masks(rows)
        # the new element may sit above i only if all of u is above i; that
        # also keeps d and u disjoint
        below = [sum(1 << i for i in range(m) if not u & ~rows[i]) for u in ups]
        for d in downs:
            for u, allowed in zip(ups, below):
                if d & ~allowed:
                    continue
                new_rows = tuple(
                    rows[i] | (1 << m) if (d >> i) & 1 else rows[i] for i in range(m)
                ) + (u,)
                yield from rec(m + 1, new_rows)

    for rows in rec(0, ()):
        yield Poset._trusted(labels, rows)


def random_poset(rng, labels: Sequence[str], edge_prob: float = 0.35) -> Poset:
    """A random labelled poset: random DAG on a shuffled order, then closure."""
    labels = list(labels)
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    covers = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                covers.append((labels[perm[a]], labels[perm[b]]))
    return poset_from_cover_relations(labels, covers)


def all_poset_ideals(p: Poset) -> Iterator[frozenset[str]]:
    """All poset ideals (down-sets) of p, the empty set and p included."""
    for s in _closed_masks(p.down_masks()):
        yield frozenset(p.elements[i] for i in _bits(s))


def random_poset_ideal(rng, p: Poset) -> frozenset[str]:
    """Downward closure of a random subset of p."""
    n = len(p)
    cols = p.down_masks()
    mask = 0
    for i in range(n):
        if rng.random() < 0.4:
            mask |= 1 << i
    closed = mask
    t = mask
    while t:
        j = (t & -t).bit_length() - 1
        closed |= cols[j]
        t &= t - 1
    # cols are full lower sets, so one pass closes downward
    return frozenset(p.elements[i] for i in _bits(closed))
