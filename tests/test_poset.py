import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from srposet import (
    NEG_INF,
    POS_INF,
    CycleError,
    NotAnIdealError,
    NotComparableError,
    UnknownLabelError,
    all_poset_ideals,
    enumerate_posets,
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
    uplus,
)
from srposet.poset import Poset, _chain_facets, _chain_signs
from srposet.simplicial import _bits

from oracles import brute_euler_poset, brute_maximal_chains


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

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            poset_from_cover_relations(["a", "a"], [])

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


class TestPurity:
    def test_chain_pure(self):
        assert is_pure(chain("a", "b", "c"))

    def test_mixed_heights_not_pure(self):
        p = poset_from_cover_relations(["a", "b", "c"], [("a", "b")])
        assert not is_pure(p)

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

    @given(small_posets())
    @settings(max_examples=60, deadline=None)
    def test_matches_maximal_chain_enumeration(self, p):
        lengths = {len(c) for c in brute_maximal_chains(p)}
        assert is_pure(p) == (len(lengths) <= 1)


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


class TestChainFacets:
    def test_empty_mask(self):
        assert _chain_facets(DIAMOND.lt, 0) == (0,)
        assert _chain_facets((), 0) == (0,)

    def test_every_mask_up_to_four_elements(self):
        for n in range(5):
            for p in enumerate_posets("abcd"[:n]):
                for mask in range(1 << n):
                    assert _chain_facets(p.lt, mask) == brute_chain_facets(p, mask), (p, mask)

    def test_random_masks_on_five_to_eight_elements(self):
        rng = random.Random(31)
        non_convex = 0
        for _ in range(60):
            p = random_poset(rng, "abcdefgh"[: rng.randint(5, 8)])
            for _ in range(8):
                mask = rng.getrandbits(len(p))
                non_convex += not is_convex(p, mask)
                assert _chain_facets(p.lt, mask) == brute_chain_facets(p, mask), (p, mask)
        assert non_convex > 100


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
        assert [f.name for f in dataclasses.fields(Poset)] == ["elements", "lt"]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 19), (4, 219), (5, 4231)])
    def test_labelled_poset_counts(self, n, count):
        labels = [chr(ord("a") + i) for i in range(n)]
        assert sum(1 for _ in enumerate_posets(labels)) == count

    def test_all_valid(self):
        for p in enumerate_posets(["a", "b", "c", "d"]):
            assert isinstance(p, Poset)


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
