"""Finite posets: intervals, ideals, purity, order complexes and P (+) Q.

A poset is stored as a labelled element list together with the full strict
order relation, kept transitively closed.  Rows of the relation are bitmasks:
bit j of ``lt[i]`` means element i < element j.  All values are immutable;
every operation is a pure function.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    NotAnIdealError,
    NotComparableError,
    UnknownLabelError,
)
from .simplicial import SimplicialComplex, _Value, _bits, _json_list, _label_mask, _remap_mask

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


class Poset(_Value):
    """Finite poset on labelled elements with a transitively closed order."""

    _fields = ("elements", "lt")

    def __init__(self, elements: Iterable[str], lt: Iterable[int]):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "lt", tuple(lt))
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
        # the closure check, whose covers are kept; closed + irreflexive is antisymmetric
        object.__setattr__(self, "_cover", _cover_masks(self.lt))
        object.__setattr__(self, "_down", None)

    @classmethod
    def _trusted(cls, elements: tuple[str, ...], lt: tuple[int, ...]) -> "Poset":
        """Skips the checks of __init__: for posets the engine derives from valid ones."""
        p = object.__new__(cls)
        object.__setattr__(p, "elements", elements)
        object.__setattr__(p, "lt", lt)
        # every instance gets the kept attributes at once, so CPython keeps
        # them in the instance's inline values instead of a per-instance dict
        object.__setattr__(p, "_cover", None)
        object.__setattr__(p, "_down", None)
        return p

    def _key(self) -> tuple:
        # a Poset keys the engine's caches, so its key is built without a loop
        return self.elements, self.lt

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        pairs = [f"{self.elements[i]}<{self.elements[j]}" for i, j in self.cover_pairs_idx()]
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
        fields `elements` and `lt`, so equality, hashing and repr do not
        see it.
        """
        cols = self._down
        if cols is None:
            cols = _transpose(self.lt)
            object.__setattr__(self, "_down", cols)
        return cols

    def _covers(self) -> list[int]:
        """_cover_masks(self.lt), kept on the instance as down_masks is."""
        covers = self._cover
        if covers is None:
            covers = _cover_masks(self.lt)
            object.__setattr__(self, "_cover", covers)
        return covers

    def cover_pairs_idx(self) -> list[tuple[int, int]]:
        """Hasse diagram as (lower, upper) index pairs."""
        return [(i, j) for i, up in enumerate(self._covers()) for j in _bits(up)]

    def minimal_idx(self) -> list[int]:
        above = 0
        for row in self.lt:
            above |= row
        return [i for i in range(len(self.elements)) if not (above >> i) & 1]

    def restrict(self, keep: Iterable[str]) -> "Poset":
        """Induced subposet on the given labels (kept in this poset's order)."""
        return self._restrict_idx(list(_bits(_subset_mask(self, keep))))

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
        i = _least_on_cycle(rows, sorted(set(range(n)) - set(order)))
        raise CycleError(f"closure relates {labels[i]} < {labels[i]}")
    for i in reversed(order):  # the rows above i are closed already
        for j in _bits(rows[i]):
            rows[i] |= rows[j]
    return Poset._trusted(labels, tuple(rows))


def _least_on_cycle(rows: Sequence[int], left: Iterable[int]) -> int:
    """The least index that reaches itself, among the elements Kahn's
    algorithm leaves over: Tarjan's strongly connected components, without
    recursion, so linear in the covers."""
    n = len(rows)
    num: dict[int, int] = {}  # visit order, then n once the component is done
    low: dict[int, int] = {}
    stack: list[int] = []
    least = n
    for root in left:
        work = [] if root in num else [(root, None)]
        while work:
            v, succ = work.pop()
            if succ is None:  # first visit
                num[v] = low[v] = len(num)
                stack.append(v)
                succ = _bits(rows[v])
            for w in succ:  # resumes after the last child visited
                if w not in num:
                    work += [(v, succ), (w, None)]
                    break
                low[v] = min(low[v], num[w])
            else:
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == num[v]:  # v roots a component: pop it
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        num[w] = n
                    if len(comp) > 1 or (rows[v] >> v) & 1:
                        least = min(least, *comp)
    return least


def is_pure(p: Poset) -> bool:
    """True iff all maximal chains of p have the same cardinality: iff the
    heights (_heights) rise by one along every cover and every maximal
    element has the top height.  Then a maximal chain ending at m has h(m)
    elements; and a pure p is graded."""
    heights = _heights(p)
    top = max(heights, default=0)
    return all(all(heights[y] == h + 1 for y in _bits(up)) if up else h == top
               for h, up in zip(heights, p._covers()))


def _heights(p: Poset, qmask: int = 0) -> list[int]:
    """heights[x]: the most elements of a chain of P (+) Q topped by x, Q
    the ideal qmask (P's own heights for qmask = 0).  Such a chain is
    y1* < ... < yk* < z1 < ... < x with yk <= z1: one element longer than
    the chain y1 < ... < yk <= z1 < ... < x of P at most, exactly when
    yk = z1, as c1* < c1 < ... < x is for c1 in Q.  So a height is a
    longest chain of P topped by x, its bottom counted twice if in Q.
    Pushed up the covers, from the elements with the most above them."""
    covers, heights = p._covers(), [0] * len(p)  # the most below x, till x is reached
    for x in sorted(range(len(p)), key=lambda x: p.lt[x].bit_count(), reverse=True):
        h = heights[x] = (heights[x] or qmask >> x & 1) + 1
        for y in _bits(covers[x]):
            heights[y] = max(heights[y], h)
    return heights


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
    """Every mask over the len(reach) bits that _is_closed accepts, in
    increasing order: the unions of the masks {j} | reach[j], folded in one
    j at a time, so `reach` must be transitively closed."""
    closed = {0}
    for j, row in enumerate(reach):
        closed.update(map((1 << j | row).__or__, tuple(closed)))
    return sorted(closed)


def _subset_mask(p: Poset, subset: Iterable[str]) -> int:
    return _label_mask({e: i for i, e in enumerate(p.elements)}, subset, UnknownLabelError)


def open_interval(p: Poset, a, b) -> Poset:
    """The induced subposet on {z | a < z < b}.

    Endpoints may be elements of p or the sentinels NEG_INF / POS_INF;
    (NEG_INF, POS_INF) returns p itself.
    """
    full = (1 << len(p)) - 1
    lower = full if a is NEG_INF else p.lt[p.index(a)]
    upper = full if b is POS_INF else p.down_masks()[p.index(b)]
    if a is not NEG_INF and b is not POS_INF and not (lower >> p.index(b)) & 1:
        raise NotComparableError(f"{a} is not strictly below {b}")
    return p._restrict_idx(list(_bits(lower & upper)))


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
    _reject_star(p)
    labels = p.elements + tuple(p.elements[x] + STAR for x in _bits(qmask))
    return Poset._trusted(labels, _uplus_rows(p.lt, qmask))


def _reject_star(p: Poset) -> None:
    """Raises ValueError if a label of p carries the marker of Q*."""
    for e in p.elements:
        if STAR in e:
            raise ValueError(f"label {e!r} contains the reserved marker {STAR!r}")


def _uplus_rows(lt: Sequence[int], qmask: int) -> tuple[int, ...]:
    """The relation rows of P (+) Q, Q the ideal qmask: P's rows lt, then
    one row for each x* (x in Q, in index order, so y* has index n plus
    the number of elements of Q before y): x, all of P above x, and the
    y* with x < y in Q.  No element of P lies below a star."""
    n = len(lt)
    rows = list(lt)
    m = qmask
    while m:
        low = m & -m
        up = lt[low.bit_length() - 1]
        row, t = low | up, up & qmask
        while t:
            y = t & -t
            row |= 1 << (n + (qmask & (y - 1)).bit_count())
            t ^= y
        rows.append(row)
        m ^= low
    return tuple(rows)


def order_complex(p: Poset) -> SimplicialComplex:
    """The simplicial complex of chains of p; facets are maximal chains."""
    facets = _chain_facets(p._covers(), (1 << len(p)) - 1)
    return SimplicialComplex._trusted(p.elements, facets)


def _cover_masks(lt: Sequence[int]) -> list[int]:
    """The covers of a strict order: entry i is row i minus the rows above
    it.  Also the closure check: raises if a row it visits leaves row i.
    Once j passes, lt[j] is skipped; complete by induction on |lt[i]|, in
    any visit order: a skipped j' lies in lt[j], strictly smaller than lt[i]
    (no j), so lt[j'] lies in lt[j], which lies in lt[i].  Visiting the
    lowest and the highest bit left in turn passes a chain in at most two
    steps a row, whichever way it is labelled."""
    covers = []
    for row in lt:
        reach, t, low = 0, row, True
        while t:
            j = (t & -t if low else t).bit_length() - 1
            low = not low
            if lt[j] & ~row:
                raise ValueError("relation is not transitively closed")
            reach |= lt[j]
            t &= ~(lt[j] | (1 << j))
        covers.append(row & ~reach)
    return covers


def _chain_facets(covers: Sequence[int], mask: int) -> tuple[int, ...]:
    """The maximal chains of a convex mask (an interval, a down-set, an
    up-set or all of P) as sorted facet masks; (0,) for the empty mask.
    Inside a convex set the covers are P's covers masked, so each maximal
    chain is one path up from an element no element of the mask covers."""
    bottom = mask
    for x in _bits(mask):
        bottom &= ~covers[x]
    stack = [(bottom, 0)]
    chains = []
    while stack:
        up, chain = stack.pop()
        if not up:
            chains.append(chain)
        while up:
            low = up & -up
            stack.append((covers[low.bit_length() - 1] & mask, chain | low))
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


def _poset_classes() -> Iterator[list[tuple[tuple[int, ...], int, list[tuple[int, ...]]]]]:
    """Level n = 0, 1, ... without end: each isomorphism class of posets on n
    elements as (canonical rows, |Aut|, generators of Aut), counted by OEIS
    A000112.  Level n adds a maximal element over one ideal per Aut-orbit to
    each class of level n - 1 (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998; Brinkmann and McKay, "Posets on up to 16
    points", Order 19, 2002)."""
    level = [((), 1, [])]
    while True:
        yield level
        found: dict[tuple[int, ...], tuple] = {}
        for lt, _, gens in level:
            top = 1 << len(lt)
            for d in _ideal_orbits(lt, gens):
                canon = _canonical([r | top if (d >> i) & 1 else r for i, r in enumerate(lt)] + [0])
                found.setdefault(canon[0], canon)
        level = list(found.values())


def _canonical(lt: Sequence[int]) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """The least relation tuple over the relabellings that keep refined
    colours in order, with |Aut| and generators of Aut as index maps on it.
    Colours (numbers of elements below and above, refined by the colours of
    those until stable) are invariant, so the least tuple is, and the
    relabellings reaching it differ by automorphisms.  Twins (the same
    elements below and above) swap, so they are placed in index order."""
    n = len(lt)
    down = _transpose(lt)
    colour: list = [(down[i].bit_count(), lt[i].bit_count()) for i in range(n)]
    while True:
        sig = [
            (colour[i], tuple(sorted(colour[j] for j in _bits(down[i]))),
             tuple(sorted(colour[j] for j in _bits(lt[i]))))
            for i in range(n)
        ]
        ranks = {s: r for r, s in enumerate(sorted(set(sig)))}
        if len(ranks) == len(set(colour)):
            break
        colour = [ranks[s] for s in sig]
    cells = sorted(colour)
    twin = [-1] * n  # the twin of next lower index, placed before i
    last: dict[tuple[int, int], tuple[int, int]] = {}
    swaps = 1  # k! for each class of k twins
    for i in range(n):
        twin[i], k = last.get((lt[i], down[i]), (-1, 0))
        last[(lt[i], down[i])] = (i, k + 1)
        swaps *= k + 1
    pos = [-1] * n

    def leaves(at: list[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        k = len(at)
        if k == n:
            yield tuple(_remap_mask(lt[i], pos) for i in at), tuple(pos)
            return
        for i in range(n):
            if colour[i] == cells[k] and pos[i] < 0 and (twin[i] < 0 or pos[twin[i]] >= 0):
                pos[i] = k
                yield from leaves(at + [i])
                pos[i] = -1

    (best, first), *rest = sorted(leaves([]))
    placed = sorted(range(n), key=first.__getitem__)  # the element first puts at each position
    gens = [tuple(other[i] for i in placed) for code, other in rest if code == best]
    order = (len(gens) + 1) * swaps
    for i in range(n):
        if twin[i] >= 0:
            g = list(range(n))
            g[first[i]], g[first[twin[i]]] = first[twin[i]], first[i]
            gens.append(tuple(g))
    return best, order, gens


def _ideal_orbits(lt: Sequence[int], gens: Sequence[Sequence[int]]) -> Counter[int]:
    """The least ideal of each orbit of the group generated by gens on the
    ideals of the poset with rows lt, counting the ideals in the orbit."""
    least: dict[int, int] = {}
    for q in _closed_masks(_transpose(lt)):  # increasing: an orbit is met at its least
        if q not in least:
            least[q] = q
            orbit = [q]
            for m in orbit:  # grows while read: the closure under gens
                for image in (_remap_mask(m, g) for g in gens):
                    if image not in least:
                        least[image] = q
                        orbit.append(image)
    return Counter(least.values())


def random_poset_ideal(rng, p: Poset) -> frozenset[str]:
    """Downward closure of a random subset of p."""
    cols = p.down_masks()
    mask = sum(1 << i for i in range(len(p)) if rng.random() < 0.4)
    for j in list(_bits(mask)):  # cols are full lower sets, so one pass closes
        mask |= cols[j]
    return frozenset(p.elements[i] for i in _bits(mask))
