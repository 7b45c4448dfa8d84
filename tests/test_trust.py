"""The trust boundary: what the engine builds without validation would pass
the public validators.

Poset._trusted, SimplicialComplex._trusted and MonomialIdeal._trusted skip
the checks of __init__.  Here they are wrapped so that every result they give
is rebuilt through the public constructor, which must accept it and give an
equal object, with the same hash and repr; the functions that derive objects
inside the engine are then run on exhaustive and seeded inputs.
"""

from __future__ import annotations

import random

import pytest

from srposet import (
    GF2,
    MonomialIdeal,
    NEG_INF,
    POS_INF,
    QQ,
    all_poset_ideals,
    complex_from_facets,
    enumerate_posets,
    euler_condition_interval,
    hodge_quotient,
    ideal_from_generators,
    is_cohen_macaulay_poset,
    link,
    monomial_ideal_from_json,
    monomial_ideal_to_json,
    open_interval,
    opposite,
    order_complex,
    polarize,
    random_poset,
    random_poset_ideal,
    stanley_reisner_complex,
    uplus,
)
from srposet.detsym import a_dis_ideal_t2, build_minor_hodge_data, omega_ideal
from srposet.monomial import HodgeData, _core_ideal
from srposet.poset import Poset, _ideal_mask
from srposet.rees import _rees_facts
from srposet.simplicial import SimplicialComplex

from oracles import brute_chains, brute_euler_condition_interval, brute_faces


@pytest.fixture
def built(monkeypatch):
    """Every object the trusted constructors give, each checked against the
    public constructor; keyed by class."""
    seen = {Poset: [], SimplicialComplex: [], MonomialIdeal: []}
    for cls in seen:
        trusted = cls._trusted.__func__

        def checked(c, *fields, _trusted=trusted):
            obj = _trusted(c, *fields)
            kept = [getattr(obj, f) for f in c._fields]
            assert all(type(f) is tuple for f in kept)
            rebuilt = c(*kept)
            assert rebuilt == obj and hash(rebuilt) == hash(obj) and repr(rebuilt) == repr(obj)
            seen[c].append(obj)
            return obj

        monkeypatch.setattr(cls, "_trusted", classmethod(checked))
    return seen


def seeded_posets(seed, count, sizes=(5, 8)):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*sizes)
        labels = [f"e{i}" for i in range(n)]
        rng.shuffle(labels)
        yield rng, random_poset(rng, labels, edge_prob=rng.choice([0.2, 0.35, 0.6]))


def test_enumerated_posets(built):
    for n in range(5):
        assert sum(1 for _ in enumerate_posets("abcd"[:n])) == len(built[Poset])
        built[Poset].clear()


def test_derived_posets(built):
    for rng, p in seeded_posets(101, 40):
        assert built[Poset]  # random_poset itself
        elements = list(p.elements)
        p.restrict(rng.sample(elements, rng.randint(0, len(p))))
        for a in [NEG_INF, *elements]:
            for b in [POS_INF, *elements]:
                if a is NEG_INF or b is POS_INF or p.less(a, b):
                    open_interval(p, a, b)
        opposite(p)
        for _ in range(3):
            uplus(p, random_poset_ideal(rng, p))
        uplus(p, p.elements)
    assert len(built[Poset]) > 1000


def test_order_complexes_and_links(built):
    complexes = [order_complex(p) for n in range(5) for p in enumerate_posets("abcd"[:n])]
    complexes += [order_complex(p) for _, p in seeded_posets(102, 20, (5, 6))]
    rng = random.Random(103)
    for _ in range(60):
        verts = [f"v{i}" for i in range(rng.randint(1, 6))]
        facets = [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(rng.randint(1, 5))]
        complexes.append(complex_from_facets(verts, facets))
    for k in complexes:
        for face in brute_faces(k):
            link(k, face)
    assert len(built[SimplicialComplex]) > 1000


def test_complexes_from_facet_labels(built):
    # repeated, nested and empty facets, and vertices no facet covers
    rng = random.Random(107)
    for _ in range(200):
        verts = [f"v{i}" for i in range(rng.randint(0, 7))]
        facets = [rng.sample(verts, rng.randint(0, len(verts))) for _ in range(rng.randint(0, 6))]
        facets += rng.sample(facets, min(2, len(facets)))
        complex_from_facets(verts, facets)
    assert len(built[SimplicialComplex]) == 200


def test_interval_complexes(built):
    for _, p in seeded_posets(104, 60, (4, 7)):
        for field in (QQ, GF2):
            is_cohen_macaulay_poset(p, field)
    assert built[SimplicialComplex]


def test_stanley_reisner_complexes(built):
    # the complements of the minimal transversals are kept unminimalized
    rng = random.Random(106)
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(rng.randint(0, 6))]
        ideal = ideal_from_generators([f"x{i}" for i in range(n)], [g for g in gens if any(g)])
        stanley_reisner_complex.__wrapped__(ideal)  # past the cache
    assert len(built[SimplicialComplex]) == 300


def seeded_ideals(seed, count):
    """Ideals on one to six variables: powers, mixed degrees, unused
    variables and the zero ideal among them."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        gens = [
            tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n)) for _ in range(rng.randint(0, 6))
        ]
        yield ideal_from_generators([f"x{i}" for i in range(n)], [g for g in gens if any(g)])


def test_polarized_and_core_ideals(built):
    # one trusted build per polarization, and one per ideal with a variable
    # no generator uses; an ideal that uses every variable is its own core,
    # and so is every core
    ideals = [*seeded_ideals(108, 300), *(a_dis_ideal_t2(n) for n in range(3, 7))]
    dropping = 0
    for ideal in ideals:
        polarize(ideal)
        core = _core_ideal(ideal)
        zero_column = any(not any(g[v] for g in ideal.generators) for v in range(len(ideal.variables)))
        dropping += zero_column
        assert (core is ideal) != zero_column, ideal
        assert _core_ideal(core) is core, ideal
    assert 0 < dropping < len(ideals)
    assert len(built[MonomialIdeal]) == len(ideals) + dropping


def test_hodge_quotient_ideals(built):
    for n in (3, 4):
        data = build_minor_hodge_data(n)
        for t in range(1, n + 1):
            hodge_quotient(data, omega_ideal(data, t))
    for rng, p in seeded_posets(109, 60, (3, 6)):
        gens = [tuple(rng.choice([0, 0, 1, 2]) for _ in p.elements) for _ in range(rng.randint(0, 6))]
        sigma = ideal_from_generators(p.elements, [g for g in gens if any(g)])
        for _ in range(3):
            hodge_quotient(HodgeData(p, sigma), random_poset_ideal(rng, p))
    assert len(built[MonomialIdeal]) == 7 + 180


def test_input_never_reaches_the_trusted_ideal(monkeypatch):
    # ideals read from JSON, strings or generator lists are validated:
    # with the trusted constructor made to fail, they still build, and bad
    # exponents still raise
    def refuse(cls, *fields):
        raise AssertionError("input reached MonomialIdeal._trusted")

    ideals = list(seeded_ideals(110, 100))
    monkeypatch.setattr(MonomialIdeal, "_trusted", classmethod(refuse))
    for ideal in ideals:
        assert monomial_ideal_from_json(monomial_ideal_to_json(ideal)) == ideal
        assert MonomialIdeal(ideal.variables, ideal.generators) == ideal
    for doc in ('{"variables": ["x"], "generators": [{"x": -1}]}',
                '{"variables": ["x"], "generators": [{"x": 1.0}]}'):
        with pytest.raises(ValueError):
            monomial_ideal_from_json(doc)
    with pytest.raises(ValueError, match="^bad exponent vector$"):
        MonomialIdeal(["x", "y"], [(1, 0), (1.0, 0)])


class TestIntervalCondition:
    """The interval condition, read from per-poset data, against chains
    enumerated for each lower interval."""

    def test_every_pair_up_to_four_elements(self):
        for n in range(5):
            for p in enumerate_posets("abcd"[:n]):
                chains = brute_chains(p)
                for q in all_poset_ideals(p):
                    want = brute_euler_condition_interval(p, q, chains)
                    assert euler_condition_interval(p, q) == want
                    assert _rees_facts(p, _ideal_mask(p, q)).cond_interval == want

    def test_seeded_pairs_of_five_to_seven_elements(self):
        hits = 0
        for rng, p in seeded_posets(105, 200, (5, 7)):
            q = random_poset_ideal(rng, p)
            want = brute_euler_condition_interval(p, q)
            hits += want
            assert euler_condition_interval(p, q) == want
            assert _rees_facts(p, _ideal_mask(p, q)).cond_interval == want
        assert 0 < hits < 200
