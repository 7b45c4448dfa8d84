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
from srposet.poset import Poset

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
