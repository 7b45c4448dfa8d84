import random
import re
import sys
import time
from collections import Counter
from functools import lru_cache
from itertools import islice, permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from srposet import (
    GF2,
    NEG_INF,
    POS_INF,
    QQ,
    CycleError,
    NotAnIdealError,
    NotComparableError,
    UnknownLabelError,
    all_poset_ideals,
    depth_poset,
    enumerate_posets,
    euler_condition_Q,
    is_buchsbaum_poset,
    is_cohen_macaulay_poset,
    is_poset_ideal,
    is_pure,
    open_interval,
    opposite,
    order_complex,
    poset_from_cover_relations,
    poset_from_json,
    poset_to_json,
    random_poset,
    random_poset_ideal,
    reduced_euler_char_poset,
    rees_cm_report,
    uplus,
)
from srposet import poset as poset_module
from srposet.invariants import _interval_pass
from srposet.poset import (
    Poset,
    _canonical,
    _chain_facets,
    _chain_signs,
    _closed_masks,
    _cover_masks,
    _heights,
    _ideal_orbits,
    _poset_classes,
    _uplus_mask,
    _uplus_rows,
)
from srposet.simplicial import _bits

from oracles import brute_euler_poset, brute_maximal_chains, brute_uplus_rows, warshall_closure


def chain(*labels):
    return poset_from_cover_relations(labels, list(zip(labels, labels[1:])))


def antichain(*labels):
    return poset_from_cover_relations(labels, [])


DIAMOND = poset_from_cover_relations(
    ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
)


@st.composite
def small_posets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    labels = [f"e{i}" for i in range(n)]
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_poset(random.Random(seed), labels)


class TestConstruction:
    def test_single_cover(self):
        p = poset_from_cover_relations(["a", "b"], [("a", "b")])
        assert p.less("a", "b")
        assert not p.less("b", "a")

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            poset_from_cover_relations(["a", "b"], [("a", "b"), ("b", "a")])

    def test_transitivity_forced(self):
        p = poset_from_cover_relations(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        assert p.less("a", "d")

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            poset_from_cover_relations(["a"], [("a", "z")])

    def test_first_unknown_label_named(self):
        p = poset_from_cover_relations(["a", "b"], [("a", "b")])
        for check in (lambda q: is_poset_ideal(p, q), p.restrict):
            with pytest.raises(UnknownLabelError, match="^zz$"):
                check(["a", "zz", "aa"])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            poset_from_cover_relations(["a", "a"], [])

    def test_list_fields_become_tuples(self):
        p = Poset(["a", "b"], [2, 0])
        assert p == Poset(("a", "b"), (2, 0))
        assert hash(p) == hash(Poset(("a", "b"), (2, 0)))
        assert euler_condition_Q(p, ["a"])
        assert rees_cm_report(p, ["a"], QQ)["consistent"]

    def test_longer_cycle(self):
        with pytest.raises(CycleError):
            poset_from_cover_relations(
                ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]
            )


@st.composite
def irreflexive_relations(draw, max_n=7):
    """Rows of a random irreflexive relation, not necessarily closed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    return [
        draw(st.integers(min_value=0, max_value=(1 << n) - 1)) & ~(1 << i)
        for i in range(n)
    ]


def brute_closure(rows):
    """Transitive closure of a relation given by rows, pair by pair."""
    n = len(rows)
    rel = {(i, j) for i in range(n) for j in range(n) if (rows[i] >> j) & 1}
    while True:
        more = {(i, k) for i, j in rel for j2, k in rel if j == j2} - rel
        if not more:
            return [sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n)]
        rel |= more


class TestClosureCheck:
    @given(irreflexive_relations())
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_the_unclosed(self, rows):
        labels = tuple(f"e{i}" for i in range(len(rows)))
        if brute_closure(rows) == rows:
            assert Poset(labels, tuple(rows)).lt == tuple(rows)
        else:
            with pytest.raises(ValueError, match="not transitively closed"):
                Poset(labels, tuple(rows))

    @given(irreflexive_relations(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_covers_closed_or_cycle_named(self, rows, rng):
        labels = [f"e{i}" for i in range(len(rows))]
        covers = [(labels[i], labels[j]) for i, row in enumerate(rows) for j in _bits(row)]
        rng.shuffle(covers)
        closed = brute_closure(rows)
        loops = [i for i, row in enumerate(closed) if (row >> i) & 1]
        if loops:
            name = labels[loops[0]]
            with pytest.raises(CycleError, match=f"^closure relates {name} < {name}$"):
                poset_from_cover_relations(labels, covers)
        else:
            assert poset_from_cover_relations(labels, covers) == Poset(tuple(labels), tuple(closed))

    def test_self_cover_is_a_cycle(self):
        with pytest.raises(CycleError):
            poset_from_cover_relations(["a", "b"], [("a", "b"), ("b", "b")])

    @given(st.integers(min_value=1, max_value=14), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_cycle_named_as_by_warshall(self, n, rng):
        # self-covers included; the named label is the least on a cycle
        p = rng.random() * 0.3
        rows = [sum(1 << j for j in range(n) if rng.random() < p) for _ in range(n)]
        labels = [f"e{i}" for i in range(n)]
        covers = [(labels[i], labels[j]) for i, row in enumerate(rows) for j in _bits(row)]
        loops = [i for i, row in enumerate(warshall_closure(rows)) if (row >> i) & 1]
        if not loops:
            poset_from_cover_relations(labels, covers)
            return
        name = labels[loops[0]]
        with pytest.raises(CycleError, match=f"^closure relates {name} < {name}$"):
            poset_from_cover_relations(labels, covers)

    def test_long_cycle_rejected_fast(self):
        labels = [f"e{i}" for i in range(3000)]
        covers = list(zip(labels, labels[1:] + labels[:1]))
        start = time.process_time()
        with pytest.raises(CycleError, match="^closure relates e0 < e0$"):
            poset_from_cover_relations(labels, covers)
        assert time.process_time() - start < 0.1


# a maximal element below the top height: heights do rise by one along
# every cover, so a check of the covers alone misses it
SPLIT = poset_from_cover_relations(["a", "b", "c"], [("a", "b")])
# a cover that skips a height: both maxima have height 3 and every element
# lies on a 3-chain, so a check of the maxima alone misses the chain a1 < c2
CROSSED = poset_from_cover_relations(
    ["a1", "b1", "c1", "a2", "b2", "c2"],
    [("a1", "b1"), ("b1", "c1"), ("a2", "b2"), ("b2", "c2"), ("a1", "c2")],
)


class TestPurity:
    def test_chain_pure(self):
        assert is_pure(chain("a", "b", "c"))

    def test_mixed_heights_not_pure(self):
        assert not is_pure(SPLIT)

    def test_cover_skipping_a_height_not_pure(self):
        assert {len(c) for c in brute_maximal_chains(CROSSED)} == {2, 3}
        assert not is_pure(CROSSED)

    def test_empty_pure(self):
        assert is_pure(antichain())

    def test_diamond_pure(self):
        assert is_pure(DIAMOND)

    def test_long_chain_no_recursion_limit(self):
        n = 3000
        full = (1 << n) - 1
        rows = tuple(full & ~((1 << (i + 1)) - 1) for i in range(n))
        assert is_pure(Poset(tuple(f"e{i}" for i in range(n)), rows))

    def test_long_chain_from_shuffled_covers(self):
        labels = [f"e{i}" for i in range(3000)]
        covers = list(zip(labels, labels[1:]))
        random.Random(7).shuffle(covers)
        p = poset_from_cover_relations(labels, covers)
        assert p.less("e0", "e2999") and not p.less("e2999", "e0")
        assert is_pure(p)

    def test_long_chain_labelled_top_down_fast(self):
        # e2999 < ... < e0: each row's lowest bit is the top of the chain
        labels = [f"e{i}" for i in range(3000)]
        covers = list(zip(labels[1:], labels))
        start = time.process_time()
        p = poset_from_cover_relations(labels, covers)
        assert is_pure(p)
        assert time.process_time() - start < 0.2
        start = time.process_time()
        assert Poset(p.elements, p.lt) == p
        assert time.process_time() - start < 0.2
        assert p.less("e2999", "e0") and not p.less("e0", "e2999")

    def test_matches_maximal_chain_enumeration(self):
        # every labelled poset up to 5 elements, and seeded ones on 6
        labels = [f"e{i}" for i in range(6)]
        rng = random.Random(3)
        posets = [p for n in range(6) for p in enumerate_posets(labels[:n])]
        posets += [random_poset(rng, labels, edge_prob=rng.random()) for _ in range(60)]
        for p in posets:
            lengths = {len(c) for c in brute_maximal_chains(p)}
            assert is_pure(p) == (len(lengths) <= 1), p


class TestHeights:
    def test_uplus_heights_from_its_maximal_chains(self):
        """_heights(p, q)[x] is x's height in P (+) Q: the most elements of
        a maximal chain of P (+) Q through x that lie at or below x."""
        pairs = 0
        for n, level in zip(range(7), _poset_classes()):
            labels = tuple(f"e{i}" for i in range(n))
            for lt, _, gens in level:
                p = Poset(labels, lt)
                for qmask in _ideal_orbits(lt, gens):
                    up = _uplus_mask(p, qmask)
                    below = up.down_masks()
                    facets = order_complex(up).facets
                    expected = [max((f & (below[x] | 1 << x)).bit_count() for f in facets if f >> x & 1)
                                for x in range(n)]
                    assert _heights(p, qmask) == expected, (p, qmask)
                    pairs += 1
        assert pairs == 4870


class TestOpenInterval:
    def test_below_top(self):
        p = chain("a", "b", "c")
        assert open_interval(p, NEG_INF, "c").elements == ("a", "b")

    def test_above_bottom(self):
        p = chain("a", "b", "c")
        assert open_interval(p, "a", POS_INF).elements == ("b", "c")

    def test_diamond_interior(self):
        q = open_interval(DIAMOND, "a", "d")
        assert q.elements == ("b", "c")
        assert not q.less("b", "c") and not q.less("c", "b")

    def test_whole_poset(self):
        p = chain("a", "b")
        assert open_interval(p, NEG_INF, POS_INF) == p

    def test_not_comparable(self):
        with pytest.raises(NotComparableError):
            open_interval(antichain("a", "b"), "a", "b")

    def test_adjacent_is_empty(self):
        assert len(open_interval(chain("a", "b"), "a", "b")) == 0


class TestIdeals:
    def test_down_set(self):
        assert is_poset_ideal(chain("a", "b"), {"a"})

    def test_up_set_rejected(self):
        assert not is_poset_ideal(chain("a", "b"), {"b"})

    def test_empty_always(self):
        assert is_poset_ideal(DIAMOND, set())

    def test_ideal_enumeration_count(self):
        # down-sets of the diamond: {}, {a}, {ab}, {ac}, {abc}, {abcd}
        assert len(list(all_poset_ideals(DIAMOND))) == 6

    def test_long_chain_ideals_are_not_found_by_subset_search(self):
        # 25 ideals among 2^24 subsets
        p = chain(*(f"e{i}" for i in range(24)))
        start = time.process_time()
        ideals = list(all_poset_ideals(p))
        assert time.process_time() - start < 1.0
        assert len(ideals) == 25
        assert sorted(map(len, ideals)) == list(range(25))

    def test_closed_masks_match_subset_enumeration(self):
        # up-sets from lt, down-sets from down_masks(), both increasing
        rng = random.Random(41)
        for _ in range(200):
            p = random_poset(rng, "abcdefgh"[: rng.randint(0, 8)], edge_prob=rng.random())
            assert _closed_masks(p.lt) == _closed_masks_of(p.down_masks()), p
            assert _closed_masks(p.down_masks()) == _closed_masks_of(p.lt), p


class TestUplus:
    def test_single_element(self):
        u = uplus(poset_from_cover_relations(["x"], []), ["x"])
        assert set(u.elements) == {"x", "x*"}
        assert u.less("x*", "x")

    def test_empty_ideal_unchanged(self):
        p = DIAMOND
        assert uplus(p, []) == p

    def test_three_conditions(self):
        p = poset_from_cover_relations(["a", "b", "c"], [("a", "b"), ("a", "c")])
        u = uplus(p, ["a"])
        assert u.less("a*", "a") and u.less("a*", "b") and u.less("a*", "c")
        assert u.less("a", "b") and u.less("a", "c")
        assert not u.less("b", "c") and not u.less("c", "b")

    def test_not_an_ideal(self):
        with pytest.raises(NotAnIdealError):
            uplus(chain("a", "b"), ["b"])

    def test_reserved_marker_rejected(self):
        p = poset_from_cover_relations(["a*"], [])
        with pytest.raises(ValueError):
            uplus(p, [])

    def test_rows_match_definition(self):
        # the engine's rows of P (+) Q, and the labelled uplus's, against
        # the definition read through p.less, on every pair class up to six
        # elements
        pairs = 0
        for n, level in zip(range(7), _poset_classes()):
            labels = tuple(f"e{i}" for i in range(n))
            for lt, _, gens in level:
                p = Poset(labels, lt)
                for qmask in _ideal_orbits(lt, gens):
                    want = brute_uplus_rows(p, qmask)
                    assert list(_uplus_rows(lt, qmask)) == want, (p, qmask)
                    assert list(uplus(p, [labels[i] for i in _bits(qmask)]).lt) == want, (p, qmask)
                    pairs += 1
        assert pairs == 4870

    @given(small_posets(), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_restrictions_and_size(self, p, seed):
        rng = random.Random(seed)
        ideals = list(all_poset_ideals(p))
        q = ideals[rng.randrange(len(ideals))]
        u = uplus(p, q)
        assert len(u) == len(p) + len(q)
        assert u.restrict(p.elements) == p
        starred = [e for e in u.elements if e.endswith("*")]
        assert sorted(e[:-1] for e in starred) == sorted(q)
        sub = u.restrict(starred)
        orig = p.restrict(sorted(q))
        for x in q:
            assert u.less(x + "*", x)
            for y in q:
                assert sub.less(x + "*", y + "*") == orig.less(x, y)


class TestOrderComplex:
    def test_chain_gives_simplex(self):
        k = order_complex(chain("a", "b"))
        assert k.facet_labels() == [["a", "b"]]

    def test_antichain_gives_points(self):
        k = order_complex(antichain("a", "b"))
        assert sorted(map(tuple, k.facet_labels())) == [("a",), ("b",)]

    def test_diamond_facets(self):
        k = order_complex(DIAMOND)
        assert sorted(map(tuple, k.facet_labels())) == [("a", "b", "d"), ("a", "c", "d")]

    def test_empty_poset(self):
        k = order_complex(antichain())
        assert k.facets == (0,)

    @given(small_posets())
    @settings(max_examples=40, deadline=None)
    def test_facets_are_maximal_chains(self, p):
        k = order_complex(p)
        expected = brute_maximal_chains(p)
        if not any(expected):
            expected = set()
        got = {frozenset(f) for f in k.facet_labels()}
        if len(p) == 0:
            assert k.facets == (0,)
        else:
            assert got == expected


def brute_chain_facets(p, mask):
    """Maximal chains of the subposet on a mask, by subset enumeration,
    as sorted masks over p's bits."""
    sub = p.restrict(e for i, e in enumerate(p.elements) if (mask >> i) & 1)
    return tuple(sorted(
        sum(1 << p.index(e) for e in c) for c in brute_maximal_chains(sub)
    ))


def is_convex(p, mask):
    down = p.down_masks()
    return all(
        p.lt[i] & down[k] & ~mask == 0
        for i in range(len(p)) if (mask >> i) & 1
        for k in range(len(p)) if (mask >> k) & 1
    )


def interval_masks(p):
    """Every open interval of p as a mask, formal ends included."""
    full = (1 << len(p)) - 1
    up = (*p.lt, full)  # index -1: the formal bottom
    down = (*p.down_masks(), full)  # index len(p): the formal top
    return [up[a] & down[b] for a in range(-1, len(p)) for b in [*_bits(up[a]), len(p)]]


def brute_covers(p):
    """Entry i: the j with i < j and nothing strictly between them."""
    n = len(p)
    return [
        sum(1 << j for j in _bits(p.lt[i])
            if not any((p.lt[i] >> k) & (p.lt[k] >> j) & 1 for k in range(n)))
        for i in range(n)
    ]


class TestCoverMasks:
    def test_against_brute_covers(self):
        rng = random.Random(17)
        posets = [p for n in range(5) for p in enumerate_posets("abcd"[:n])]
        posets += [random_poset(rng, "abcdefgh"[: rng.randint(5, 8)]) for _ in range(60)]
        for p in posets:
            assert _cover_masks(p.lt) == brute_covers(p), p

    def test_unclosed_relation_rejected(self):
        # a < b < c without a < c
        with pytest.raises(ValueError, match="^relation is not transitively closed$"):
            _cover_masks((0b010, 0b100, 0))

    def test_one_pass_per_poset(self, monkeypatch):
        # the order complex and the interval test in two fields share P's covers
        passes = []
        walks = Counter()
        real = poset_module._cover_masks
        real_chains = poset_module._chain_facets
        for name, module in list(sys.modules.items()):  # every binding, as imported
            if name.startswith("srposet") and getattr(module, "_cover_masks", None) is real:
                monkeypatch.setattr(module, "_cover_masks", lambda lt: passes.append(lt) or real(lt))
            if name.startswith("srposet") and getattr(module, "_chain_facets", None) is real_chains:
                monkeypatch.setattr(
                    module, "_chain_facets", lambda c, mask: walks.update([mask]) or real_chains(c, mask)
                )
        _interval_pass.cache_clear()
        p = random_poset(random.Random(5), "abcdef")
        order_complex(p)
        walks.clear()
        # Cohen-Macaulay in two fields, then depth and Buchsbaum, walk the
        # chains of each interval at most once
        for field in (QQ, GF2):
            is_cohen_macaulay_poset(p, field)
        depth_poset(p, QQ)
        is_buchsbaum_poset(p, GF2)
        assert walks and max(walks.values()) == 1
        assert len(passes) == 1
        # a validated poset keeps the covers of its closure check
        is_pure(Poset(p.elements, p.lt))
        assert len(passes) == 2


class TestChainFacets:
    def test_empty_mask(self):
        assert _chain_facets(_cover_masks(DIAMOND.lt), 0) == (0,)
        assert _chain_facets([], 0) == (0,)

    def test_every_convex_mask_up_to_four_elements(self):
        for n in range(5):
            for p in enumerate_posets("abcd"[:n]):
                covers = _cover_masks(p.lt)
                for mask in range(1 << n):
                    if is_convex(p, mask):
                        assert _chain_facets(covers, mask) == brute_chain_facets(p, mask), (p, mask)

    def test_every_interval_on_five_to_eight_elements(self):
        rng = random.Random(31)
        for _ in range(60):
            p = random_poset(rng, "abcdefgh"[: rng.randint(5, 8)])
            covers = _cover_masks(p.lt)
            for mask in interval_masks(p):
                assert _chain_facets(covers, mask) == brute_chain_facets(p, mask), (p, mask)


class TestEulerChar:
    def test_empty(self):
        assert reduced_euler_char_poset(antichain()) == -1

    def test_two_antichain(self):
        assert reduced_euler_char_poset(antichain("a", "b")) == 1

    def test_unique_minimum_is_cone(self):
        assert reduced_euler_char_poset(DIAMOND) == 0

    @given(small_posets())
    @settings(max_examples=80, deadline=None)
    def test_matches_subset_enumeration(self, p):
        assert reduced_euler_char_poset(p) == brute_euler_poset(p)

    def test_chain_signs_give_chi_of_every_down_set(self):
        """chi~ of a down-set D is the sum of the chain signs over D, minus 1."""
        rng = random.Random(47)
        posets = [p for n in range(5) for p in enumerate_posets("abcd"[:n])]
        posets += [random_poset(rng, [f"e{i}" for i in range(rng.randint(5, 7))]) for _ in range(40)]
        for p in posets:
            signs = _chain_signs(p.down_masks())
            for d in all_poset_ideals(p):
                total = sum(signs[p.index(e)] for e in d) - 1
                assert total == brute_euler_poset(p.restrict(d)), (p, sorted(d))


class TestOpposite:
    def test_chain(self):
        p = opposite(chain("a", "b"))
        assert p.less("b", "a")

    def test_antichain_fixed(self):
        p = antichain("a", "b")
        assert opposite(p) == p

    @given(small_posets())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p):
        assert opposite(opposite(p)) == p


class TestStoredDownMasks:
    @staticmethod
    def columns(p):
        n = len(p)
        return tuple(
            sum(1 << i for i in range(n) if (p.lt[i] >> j) & 1) for j in range(n)
        )

    def test_same_tuple_on_every_call_and_equal_to_a_fresh_build(self):
        rng = random.Random(8)
        for _ in range(60):
            p = random_poset(rng, [f"e{i}" for i in range(rng.randint(0, 7))])
            keep = [i for i in range(len(p)) if rng.random() < 0.6]
            made = [p, p._restrict_idx(keep), uplus(p, random_poset_ideal(rng, p)), opposite(p)]
            for r in made:
                first = r.down_masks()
                assert r.down_masks() is first
                assert first == self.columns(r)

    def test_equality_hash_and_repr_unchanged(self):
        a, b = chain("a", "b", "c"), chain("a", "b", "c")
        before = (hash(a), repr(a))
        a.down_masks()
        assert a == b and b == a
        assert (hash(a), repr(a)) == before == (hash(b), repr(b))
        assert len({a, b}) == 1
        # the kept covers and down masks are not part of identity
        fresh = Poset._trusted(a.elements, a.lt)
        assert (fresh._cover, fresh._down) == (None, None) and a._down is not None
        assert fresh == a and hash(fresh) == hash(a) and repr(fresh) == repr(a)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 19), (4, 219), (5, 4231)])
    def test_labelled_poset_counts(self, n, count):
        labels = [chr(ord("a") + i) for i in range(n)]
        assert sum(1 for _ in enumerate_posets(labels)) == count

    def test_all_valid(self):
        for p in enumerate_posets(["a", "b", "c", "d"]):
            assert isinstance(p, Poset)


@lru_cache(maxsize=None)
def class_levels():
    """Levels 0..7 of the class generator, built once for the module."""
    return list(islice(_poset_classes(), 8))


def relabel(rows, perm):
    """The rows of the poset with element i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j] for j in _bits(row))
    return tuple(out)


def _closed_masks_of(lt):
    """The ideals of the poset with rows lt, by subset enumeration."""
    n = len(lt)
    return [s for s in range(1 << n)
            if all(not (lt[i] >> j) & 1 or (s >> i) & 1 for j in _bits(s) for i in range(n))]


class TestPosetClasses:
    def test_class_counts_follow_a000112(self):
        assert [len(level) for level in class_levels()] == [1, 1, 2, 5, 16, 63, 318, 2045]

    def test_labelled_counts_follow_a001035(self):
        counts = [sum(factorial(n) // order for _, order, _ in level)
                  for n, level in enumerate(class_levels())]
        assert counts == [1, 1, 3, 19, 219, 4231, 130023, 6129859]

    def test_automorphisms_and_ideal_orbits_by_brute_force(self):
        for n, level in enumerate(class_levels()[:6]):
            for lt, order, gens in level:
                auts = {perm for perm in permutations(range(n)) if relabel(lt, perm) == lt}
                assert len(auts) == order and set(gens) <= auts
                ideals = _closed_masks_of(lt)
                orbits = {frozenset(sum(1 << g[i] for i in _bits(q)) for g in auts) for q in ideals}
                assert _ideal_orbits(lt, gens) == {min(o): len(o) for o in orbits}

    def test_canonical_form_is_invariant(self):
        rng = random.Random(111)
        for _ in range(300):
            n = rng.randint(0, 6)
            p = random_poset(rng, [f"e{i}" for i in range(n)], edge_prob=rng.random())
            perm = list(range(n))
            rng.shuffle(perm)
            canon, order, _ = _canonical(p.lt)
            assert _canonical(relabel(p.lt, perm))[:2] == (canon, order)
            # the canonical rows are a relabelling of p
            assert canon in {relabel(p.lt, g) for g in permutations(range(n))}

    def test_weighted_pair_counts(self):
        per_level = [
            sum(factorial(n) // order * size for lt, order, gens in level
                for size in _ideal_orbits(lt, gens).values())
            for n, level in enumerate(class_levels()[:7])
        ]
        assert sum(per_level[:6]) == 48711
        assert per_level[6] == 2049550
        labelled = sum(
            1 for n in range(5) for p in enumerate_posets("abcd"[:n]) for _ in all_poset_ideals(p)
        )
        assert sum(per_level[:5]) == labelled == 1789


class TestJson:
    def test_round_trip(self):
        text = poset_to_json(DIAMOND)
        assert poset_from_json(text) == DIAMOND

    def test_covers_only(self):
        # the serialized covers are the Hasse diagram, not the closure
        text = poset_to_json(chain("a", "b", "c"))
        assert '["a", "c"]' not in text

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            poset_from_json('{"covers": []}')


@pytest.mark.parametrize("build, error, message", [
    (lambda: Poset(["a", "a"], [0, 0]), ValueError, "duplicate element labels"),
    (lambda: Poset(["a"], [0, 0]), ValueError, "relation size does not match element count"),
    (lambda: Poset(["a", "b"], [4, 0]), ValueError, "relation bit out of range"),
    (lambda: Poset(["a", "b"], [2, 2]), CycleError, "b < b"),
    (lambda: chain("a", "b").index("z"), UnknownLabelError, "z"),
], ids=["duplicate-labels", "relation-size", "bit-out-of-range", "x<x", "unknown-label"])
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
