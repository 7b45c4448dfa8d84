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
from .simplicial import SimplicialComplex, _bits, _json_list

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
        # closed + irreflexive implies antisymmetric, so no separate check
        for i in range(n):
            row = self.lt[i]
            closure = row
            m = row
            while m:
                j = (m & -m).bit_length() - 1
                closure |= self.lt[j]
                m &= m - 1
            if closure != row:
                raise ValueError("relation is not transitively closed")

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
            down = [0] * len(self.elements)
            for i, row in enumerate(self.lt):
                for j in _bits(row):
                    down[j] |= 1 << i
            cols = tuple(down)
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
        rows = []
        for i in idx:
            row = 0
            m = self.lt[i]
            while m:
                j = (m & -m).bit_length() - 1
                if j in pos:
                    row |= 1 << pos[j]
                m &= m - 1
            rows.append(row)
        return Poset(tuple(self.elements[i] for i in idx), tuple(rows))


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
    for a, b in covers:
        if a not in index:
            raise UnknownLabelError(a)
        if b not in index:
            raise UnknownLabelError(b)
        rows[index[a]] |= 1 << index[b]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    for i in range(n):
        if (rows[i] >> i) & 1:
            raise CycleError(f"closure relates {labels[i]} < {labels[i]}")
    return Poset(labels, tuple(rows))


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


def _is_closed(reach: Sequence[int], mask: int) -> bool:
    """True iff reach[j] lies inside the mask for every j in it."""
    m = mask
    while m:
        low = m & -m
        if reach[low.bit_length() - 1] & ~mask:
            return False
        m ^= low
    return True


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
    qmask = _subset_mask(p, q)
    if not _is_closed(p.down_masks(), qmask):
        raise NotAnIdealError("subset is not downward closed")
    return _uplus_mask(p, qmask)


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
    return Poset(tuple(labels), tuple(rows))


def order_complex(p: Poset) -> SimplicialComplex:
    """The simplicial complex of chains of p; facets are maximal chains."""
    return SimplicialComplex(p.elements, _chain_facets(p.lt, (1 << len(p)) - 1))


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
            t &= t - 1
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
    n = len(p)
    return euler_char_restricted(p.down_masks(), (1 << n) - 1)


def euler_char_restricted(down_masks: Sequence[int], mask: int) -> int:
    """Reduced Euler characteristic of the induced subposet on a bitmask.

    signed[i] accumulates the signed count of chains with maximum i; a
    chain extending one that ends at j flips the sign.
    """
    order = sorted(_bits(mask), key=lambda i: (down_masks[i] & mask).bit_count())
    signed = {}
    total = -1
    for i in order:
        s = 1
        m = down_masks[i] & mask
        while m:
            j = (m & -m).bit_length() - 1
            s -= signed[j]
            m &= m - 1
        signed[i] = s
        total += s
    return total


def opposite(p: Poset) -> Poset:
    """The poset with all relations reversed; an involution."""
    return Poset(p.elements, p.down_masks())


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

    def closed_subsets(req: Sequence[int], m: int) -> list[int]:
        return [s for s in range(1 << m) if _is_closed(req, s)]

    def rec(m: int, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if m == n:
            yield rows
            return
        cols = [0] * m
        for i in range(m):
            t = rows[i]
            while t:
                j = (t & -t).bit_length() - 1
                cols[j] |= 1 << i
                t &= t - 1
        downs = closed_subsets(cols, m)
        ups = closed_subsets(rows, m)
        for d in downs:
            for u in ups:
                if d & u:
                    continue
                ok = True
                t = d
                while t and ok:
                    i = (t & -t).bit_length() - 1
                    if u & ~rows[i]:
                        ok = False
                    t &= t - 1
                if not ok:
                    continue
                new_rows = tuple(
                    rows[i] | (1 << m) if (d >> i) & 1 else rows[i] for i in range(m)
                ) + (u,)
                yield from rec(m + 1, new_rows)

    for rows in rec(0, ()):
        yield Poset(labels, rows)


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
    cols = p.down_masks()
    for s in range(1 << len(p)):
        if _is_closed(cols, s):
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
