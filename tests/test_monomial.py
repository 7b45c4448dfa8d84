import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from srposet import (
    GF2,
    QQ,
    FieldSpec,
    HodgeData,
    MonomialIdeal,
    NotAnIdealError,
    NotSquarefreeError,
    UnitIdealError,
    UnknownLabelError,
    a_dis_ideal_t2,
    colon_monomial,
    core_hodge,
    depth_monomial_quotient,
    dim_monomial_quotient,
    hodge_quotient,
    ideal_from_generators,
    ideal_from_strings,
    krull_dim_stanley_reisner,
    monomial_ideal_from_json,
    monomial_ideal_to_json,
    poset_from_cover_relations,
    polar_variable_name,
    polarize,
    radical_monomial,
    stanley_reisner_complex,
)
from srposet import monomial
from srposet.monomial import (
    _core_ideal,
    _minimal_generators,
    _minimal_transversals,
    _takayama_complexes,
)
from srposet.detsym import build_minor_hodge_data, omega_ideal

from oracles import depth_via_polarization, dim_via_radical, takayama_complexes_naive
from test_engine_reductions import naive_depth


def square_free(ideal):
    return ideal.is_squarefree()


@st.composite
def small_ideals(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    variables = tuple(f"x{i}" for i in range(n))
    n_gens = draw(st.integers(min_value=0, max_value=4))
    gens = []
    for _ in range(n_gens):
        g = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        if any(g):
            gens.append(g)
    return ideal_from_generators(variables, gens)


SECTION5_VARS = ("X12", "X13", "X22", "X23")


def section5_ideal():
    return ideal_from_strings(
        SECTION5_VARS,
        [
            [("X12", 2)],
            [("X12", 1), ("X13", 1)],
            [("X13", 2)],
            [("X13", 1), ("X22", 1)],
            [("X13", 1), ("X23", 1)],
            [("X23", 2)],
        ],
    )


class TestMinimalization:
    def test_divisible_generators_dropped(self):
        ideal = ideal_from_generators(("x", "y"), [(1, 0), (1, 1), (2, 0)])
        assert ideal.generators == ((1, 0),)

    def test_unit_swallows_everything(self):
        ideal = ideal_from_generators(("x",), [(0,), (3,)])
        assert ideal.is_unit() and len(ideal.generators) == 1

    def test_zero_ideal(self):
        ideal = ideal_from_generators(("x",), [])
        assert ideal.is_zero() and ideal.is_proper()

    @pytest.mark.parametrize("gens", [[(1.5, 0)], [(2.0, 1)], [(1, 0), (Fraction(1, 2), 2)], [(1, 0), (1.0, 0)]])
    def test_non_integer_exponents_rejected(self, gens):
        with pytest.raises(ValueError, match="^bad exponent vector$"):
            MonomialIdeal(["x", "y"], gens)
        with pytest.raises(ValueError, match="^bad exponent vector$"):
            ideal_from_strings(["x", "y"], [list(zip("xy", g)) for g in gens])

    def test_list_fields_become_tuples(self):
        ideal = MonomialIdeal(("x", "y"), ((1, 1),))
        assert MonomialIdeal(["x", "y"], [(1, 1)]) == ideal
        assert MonomialIdeal(("x", "y"), [[1, 1]]) == ideal
        k = stanley_reisner_complex(MonomialIdeal(["x", "y"], [(1, 1)]))
        assert k.facet_labels() == [["x"], ["y"]]

    def test_constructor_normalizes_as_ideal_from_generators(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 4)
            variables = tuple(f"x{i}" for i in range(n))
            gens = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(0, 6))]
            gens += rng.sample(gens, len(gens) // 2)  # duplicates
            rng.shuffle(gens)
            ideal = MonomialIdeal(variables, tuple(gens))
            assert ideal == ideal_from_generators(variables, gens), gens
            assert MonomialIdeal(variables, ideal.generators) == ideal

    def test_against_all_pairs_scan(self):
        def brute(gens):
            uniq = set(gens)
            return tuple(sorted(
                g for g in uniq
                if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in uniq)
            ))

        rng = random.Random(17)
        units = 0
        for trial in range(400):
            n = rng.randint(1, 6)
            gens = [tuple(rng.randint(0, 3) for _ in range(n))
                    for _ in range(rng.randint(0, 10))]
            gens += rng.sample(gens, len(gens) // 2)  # duplicates
            if trial % 8 == 0:
                gens.append((0,) * n)  # the unit ideal swallows the rest
            rng.shuffle(gens)
            got = _minimal_generators(gens)
            assert got == brute(gens), gens
            units += got == ((0,) * n,)
        assert units >= 50
        assert _minimal_generators([]) == ()

        # one degree: every quadratic family of Section 3, shuffled with
        # duplicates, is its own minimal set
        for n in (3, 4, 5, 6):
            quad = list(a_dis_ideal_t2(n).generators)
            gens = quad + rng.sample(quad, len(quad) // 2)
            rng.shuffle(gens)
            assert _minimal_generators(gens) == brute(gens) == tuple(sorted(quad)), n
        # gaps between the degrees: linear and cubic with no quadratic, or
        # quadratic and quartic, and the unit among higher degrees
        for trial in range(100):
            n = rng.randint(2, 5)
            degrees = rng.choice([(1, 3), (2, 4), (1, 4, 6), (0, 2, 5), (0, 3)])
            gens = []
            for _ in range(rng.randint(1, 8)):
                g = [0] * n
                for _ in range(rng.choice(degrees)):
                    g[rng.randrange(n)] += 1
                gens.append(tuple(g))
            gens += rng.sample(gens, len(gens) // 2)
            rng.shuffle(gens)
            assert _minimal_generators(gens) == brute(gens), gens
            if 0 in degrees and (0,) * n in gens:
                assert _minimal_generators(gens) == ((0,) * n,)

    def test_constructor_checks_exponent_vectors(self):
        with pytest.raises(ValueError):
            MonomialIdeal(("x", "y"), [(1, -1)])
        with pytest.raises(ValueError):
            MonomialIdeal(("x", "y"), [(1, 0, 0)])
        with pytest.raises(ValueError):
            MonomialIdeal(("x", "y"), [(1,)])
        assert MonomialIdeal((), ()).is_zero()
        assert MonomialIdeal((), [()]).is_unit()


class TestPolarize:
    def test_squarefree_fixed_point(self):
        ideal = ideal_from_generators(("x", "y"), [(1, 1)])
        result, aux = polarize(ideal)
        assert result == ideal and aux == 0

    def test_pure_square(self):
        ideal = ideal_from_generators(("x",), [(2,)])
        result, aux = polarize(ideal)
        assert aux == 1
        assert result.variables == ("x", polar_variable_name("x", 2))
        assert result.generators == ((1, 1),)

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            polarize(ideal_from_generators(("x",), [(0,)]))

    @given(small_ideals())
    @settings(max_examples=80, deadline=None)
    def test_polarization_squarefree_and_idempotent(self, ideal):
        if not ideal.is_proper():
            return
        result, aux = polarize(ideal)
        assert result.is_squarefree()
        again, aux2 = polarize(result)
        assert again == result and aux2 == 0
        assert len(result.variables) == len(ideal.variables) + aux

    @given(small_ideals())
    @settings(max_examples=80, deadline=None)
    def test_depolarization_recovers_generators(self, ideal):
        if not ideal.is_proper():
            return
        result, _ = polarize(ideal)
        base_index = {v: i for i, v in enumerate(ideal.variables)}

        def collapse(gen):
            e = [0] * len(ideal.variables)
            for var, k in zip(result.variables, gen):
                if k:
                    base = var.split("(")[0]
                    e[base_index[base]] += 1
            return tuple(e)

        assert sorted(collapse(g) for g in result.generators) == sorted(
            ideal.generators
        )


class TestRadical:
    def test_support_collapse(self):
        ideal = ideal_from_generators(("x", "y"), [(2, 1)])
        assert radical_monomial(ideal).generators == ((1, 1),)

    def test_squarefree_fixed(self):
        ideal = ideal_from_generators(("x", "y"), [(1, 0)])
        assert radical_monomial(ideal) == ideal

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            radical_monomial(ideal_from_generators(("x",), [(0,)]))

    @given(small_ideals())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_contains(self, ideal):
        if not ideal.is_proper():
            return
        rad = radical_monomial(ideal)
        assert radical_monomial(rad) == rad
        assert rad.contains_ideal(ideal)

    @given(small_ideals())
    @settings(max_examples=60, deadline=None)
    def test_every_generator_support_contains_a_radical_generator(self, ideal):
        if not ideal.is_proper():
            return
        rad = radical_monomial(ideal)
        for g in ideal.generators:
            support = tuple(1 if e else 0 for e in g)
            assert rad.contains_monomial(support)


class TestStanleyReisner:
    def test_zero_ideal_full_simplex(self):
        ideal = ideal_from_generators(("a", "b", "c"), [])
        k = stanley_reisner_complex(ideal)
        assert k.facet_labels() == [["a", "b", "c"]]

    def test_edge_ideal_two_points(self):
        ideal = ideal_from_generators(("a", "b"), [(1, 1)])
        k = stanley_reisner_complex(ideal)
        assert sorted(map(tuple, k.facet_labels())) == [("a",), ("b",)]

    def test_not_squarefree_rejected(self):
        with pytest.raises(NotSquarefreeError):
            stanley_reisner_complex(ideal_from_generators(("x",), [(2,)]))

    def test_variable_generator_makes_ghost(self):
        ideal = ideal_from_generators(("x", "y"), [(1, 0)])
        k = stanley_reisner_complex(ideal)
        assert k.facet_labels() == [["y"]]
        assert "x" in k.vertices

    @given(small_ideals())
    @settings(max_examples=60, deadline=None)
    def test_nonfaces_are_exactly_ideal_members(self, ideal):
        if not ideal.is_proper():
            return
        rad = radical_monomial(ideal)
        k = stanley_reisner_complex(rad)
        n = len(rad.variables)
        for mask in range(1 << n):
            exps = tuple((mask >> i) & 1 for i in range(n))
            labels = [rad.variables[i] for i in range(n) if (mask >> i) & 1]
            assert k.has_face(labels) == (not rad.contains_monomial(exps))


class TestMinimalTransversals:
    def test_against_subset_enumeration(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 7)
            edges = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 8))]
            hitting = [t for t in range(1 << n) if all(t & e for e in edges)]
            brute = {t for t in hitting if not any(s != t and s & t == s for s in hitting)}
            got = _minimal_transversals(edges)
            assert len(got) == len(brute) and set(got) == brute, edges


class TestColon:
    def test_square_by_variable(self):
        ideal = ideal_from_generators(("x",), [(2,)])
        by = ideal_from_generators(("x",), [(1,)])
        assert colon_monomial(ideal, by).generators == ((1,),)

    def test_coprime(self):
        ideal = ideal_from_generators(("x", "y", "z"), [(1, 1, 0)])
        by = ideal_from_generators(("x", "y", "z"), [(0, 0, 1)])
        assert colon_monomial(ideal, by) == ideal

    def test_section5_remark_identity(self):
        ideal = section5_ideal()
        maximal = ideal_from_strings(
            SECTION5_VARS, [[(v, 1)] for v in SECTION5_VARS]
        )
        expected = ideal_from_strings(
            SECTION5_VARS, [[("X12", 2)], [("X13", 1)], [("X23", 2)]]
        )
        assert colon_monomial(ideal, maximal) == expected

    def test_unit_divisor_returns_ideal(self):
        ideal = section5_ideal()
        unit = ideal_from_generators(SECTION5_VARS, [(0, 0, 0, 0)])
        assert colon_monomial(ideal, unit) == ideal

    @given(small_ideals(), small_ideals())
    @settings(max_examples=60, deadline=None)
    def test_colon_contains_ideal(self, a, b):
        if a.variables != b.variables:
            return
        result = colon_monomial(a, b)
        assert result.contains_ideal(a)


class TestDimDepth:
    def test_zero_ideal(self):
        ideal = ideal_from_generators(("x", "y", "z"), [])
        assert dim_monomial_quotient(ideal) == 3
        assert depth_monomial_quotient(ideal, QQ) == 3

    def test_unit_rejected(self):
        unit = ideal_from_generators(("x",), [(0,)])
        with pytest.raises(UnitIdealError):
            dim_monomial_quotient(unit)
        with pytest.raises(UnitIdealError):
            depth_monomial_quotient(unit, QQ)

    def test_whole_maximal_ideal(self):
        # k[x]/(x) = k: dimension and depth both 0
        ideal = ideal_from_generators(("x",), [(1,)])
        assert dim_monomial_quotient(ideal) == 0
        assert depth_monomial_quotient(ideal, QQ) == 0

    def test_section5_core_values(self):
        ideal = section5_ideal()
        assert dim_monomial_quotient(ideal) == 1
        for field in (QQ, GF2):
            assert depth_monomial_quotient(ideal, field) == 0

    @given(small_ideals())
    @settings(max_examples=50, deadline=None)
    def test_dim_via_polarization_cross_check(self, ideal):
        if not ideal.is_proper():
            return
        polarized, aux = polarize(ideal)
        k = stanley_reisner_complex(polarized)
        assert dim_monomial_quotient(ideal) == krull_dim_stanley_reisner(k) - aux


class TestDimRoutes:
    """dim_monomial_quotient, read off the generator supports, against the
    radical's Stanley-Reisner complex of tests/oracles.py."""

    def test_seeded_ideals(self):
        rng = random.Random(30)
        seen = dict.fromkeys(["zero", "unused", "powers", "degree one", "mixed", "forced"], 0)
        for _ in range(600):
            n = rng.randint(1, 7)
            gens = []
            for _ in range(rng.choice([0, 1, 2, 4, 6, 8])):
                g = [0] * n
                for _ in range(rng.choice([1, 1, 2, 2, 3, 4])):
                    g[rng.randrange(n)] += 1
                gens.append(tuple(g))
            ideal = ideal_from_generators([f"x{i}" for i in range(n)], gens)
            got = dim_monomial_quotient(ideal)
            assert got == dim_via_radical(ideal), ideal
            supports = [sum(1 << i for i, e in enumerate(g) if e) for g in ideal.generators]
            degrees = {sum(g) for g in ideal.generators}
            seen["zero"] += ideal.is_zero()
            seen["unused"] += len({i for g in ideal.generators for i, e in enumerate(g) if e}) < n
            seen["powers"] += not ideal.is_squarefree()
            seen["degree one"] += 1 in degrees
            seen["mixed"] += len(degrees) > 1
            seen["forced"] += any(s.bit_count() == 1 for s in supports) and got < n - 1
        assert min(seen.values()) >= 80, seen

    def test_section3_ideals_and_cores(self):
        for n in range(3, 8):
            ideal = a_dis_ideal_t2(n)
            core = _core_ideal(ideal)
            assert dim_monomial_quotient(ideal) == dim_via_radical(ideal) == n
            assert dim_monomial_quotient(core) == dim_via_radical(core) == n - 2

    def test_t3_minor_quotient(self):
        data = build_minor_hodge_data(5)
        sigma = hodge_quotient(data, omega_ideal(data, 3)).sigma
        for ideal in (sigma, _core_ideal(sigma)):
            assert dim_monomial_quotient(ideal) == dim_via_radical(ideal)
        assert dim_monomial_quotient(sigma) == 9


FIELDS3 = (QQ, GF2, FieldSpec(3))


class TestDepthRoutes:
    """depth_monomial_quotient (Takayama's formula, no polarization) against
    the polarization route, and against naive_depth, an all-faces loop
    independent of the link loop, where the polarized complex is small."""

    def test_section3_ideals_and_cores(self):
        for n in (3, 4, 5):
            ideal = a_dis_ideal_t2(n)
            for target in (ideal, _core_ideal(ideal)):
                for field in (QQ, GF2):
                    want = depth_via_polarization(target, field)
                    assert depth_monomial_quotient(target, field) == want, n

    def test_seeded_ideals(self):
        rng = random.Random(16)
        compared = naive = powers = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            ideal = ideal_from_generators([f"x{i}" for i in range(n)], gens)
            if not ideal.is_proper():
                continue
            powers += not ideal.is_squarefree()
            polarized, aux = polarize(ideal)
            k = stanley_reisner_complex(polarized)
            for field in FIELDS3:
                got = depth_monomial_quotient(ideal, field)
                assert got == depth_via_polarization(ideal, field), (ideal, field)
                compared += 1
                if len(k.vertices) <= 7:
                    assert got == naive_depth(k, field) - aux, (ideal, field)
                    naive += 1
        assert compared > 900 and naive > 850 and powers > 150, (compared, naive, powers)

    def test_unused_variables(self):
        # (x^2) in k[x, y]: on the used variable every Delta_b is {emptyset},
        # and the unused y adds one
        ideal = ideal_from_generators(("x", "y"), [(2, 0)])
        for field in FIELDS3:
            assert depth_monomial_quotient(ideal, field) == 1
            assert depth_via_polarization(ideal, field) == 1
        rng = random.Random(23)
        compared = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            unused = set(rng.sample(range(n), rng.randint(1, n - 1)))
            gens = [
                tuple(0 if j in unused else rng.randint(0, 2) for j in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            ideal = ideal_from_generators([f"x{i}" for i in range(n)], gens)
            if not ideal.is_proper():
                continue
            for field in FIELDS3:
                assert depth_monomial_quotient(ideal, field) == depth_via_polarization(ideal, field), (ideal, field)
                compared += 1
        assert compared > 300, compared

    def test_no_hang_on_five_variable_ideal(self):
        # the polarization route took more than 6 s of CPU here in
        # characteristic 2, and more than a minute in characteristics 0 and
        # 3, in the link loop on its polarized complex (15 vertices, 10 of
        # them auxiliary)
        ideal = ideal_from_generators(
            [f"x{i}" for i in range(5)],
            [(0, 3, 2, 3, 1), (1, 2, 3, 1, 2), (2, 0, 1, 1, 2), (2, 3, 0, 2, 3), (3, 1, 3, 0, 3)],
        )
        for field in FIELDS3:
            start = time.process_time()
            assert depth_monomial_quotient(ideal, field) == 2
            assert time.process_time() - start < 1.0, field


class TestTakayamaWalk:
    """The bitset walk against the tuple walk of tests/oracles.py: the same
    facet tuples in the same order."""

    def test_seeded_ideals(self):
        rng = random.Random(23)
        powers = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            ideal = _core_ideal(ideal_from_generators([f"x{i}" for i in range(n)], gens))
            if not ideal.is_proper():
                gens = [g for g in gens if any(g)]
                ideal = _core_ideal(ideal_from_generators([f"x{i}" for i in range(n)], gens))
            got = _takayama_complexes.__wrapped__(ideal.generators)
            assert got == takayama_complexes_naive(ideal.generators), ideal
            powers += not ideal.is_squarefree()
        assert powers > 300, powers

    def test_section3_cores(self, monkeypatch):
        # every walk of a Section 3 core is whole: its one Delta_b =
        # {emptyset} comes at the last leaf, and each leaf takes the minimal
        # transversals once
        cores = [_core_ideal(a_dis_ideal_t2(n)).generators for n in (3, 4, 5, 6, 7)]
        want = [takayama_complexes_naive(gens) for gens in cores]
        leaves = []

        def counted(edges):
            leaves[-1] += 1
            return _minimal_transversals(edges)

        monkeypatch.setattr(monomial, "_minimal_transversals", counted)
        for gens, complexes in zip(cores, want):
            leaves.append(0)
            got = _takayama_complexes.__wrapped__(gens)
            assert got == complexes and got[-1] == (0,), len(gens)
        assert leaves == [3, 8, 21, 55, 144]

    def test_symmetric_minor_cores(self, monkeypatch):
        # the cores of the discrete algebras of the symmetric t-minors at
        # (n, t) = (3, 3), (4, 3) and (4, 4), with exponents up to 2: each
        # leaf takes the minimal transversals once, and never over a
        # one-vertex nonface, which is forced
        cores = []
        for n, t in ((3, 3), (4, 3), (4, 4)):
            data = build_minor_hodge_data(n)
            cores.append(_core_ideal(hodge_quotient(data, omega_ideal(data, t)).sigma).generators)
        want = [takayama_complexes_naive(gens) for gens in cores]
        leaves = []

        def counted(edges):
            assert all(e.bit_count() > 1 for e in edges), edges
            leaves[-1] += 1
            return _minimal_transversals(edges)

        monkeypatch.setattr(monomial, "_minimal_transversals", counted)
        for gens, complexes in zip(cores, want):
            leaves.append(0)
            assert _takayama_complexes.__wrapped__(gens) == complexes, len(gens)
        assert leaves == [16, 213, 800]


class TestHodge:
    def test_core_empty_sigma(self):
        p = poset_from_cover_relations(["x", "y", "z"], [("x", "y")])
        data = HodgeData(p, ideal_from_generators(p.elements, []))
        core, regular = core_hodge(data)
        assert len(core.poset) == 0
        assert regular == ["x", "y", "z"]

    def test_core_single_generator(self):
        p = poset_from_cover_relations(["x", "y", "z"], [])
        sigma = ideal_from_generators(p.elements, [(1, 1, 0)])
        core, regular = core_hodge(HodgeData(p, sigma))
        assert core.poset.elements == ("x", "y")
        assert regular == ["z"]

    def test_quotient_by_ideal(self):
        p = poset_from_cover_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
        sigma = ideal_from_generators(p.elements, [(1, 0, 1), (0, 2, 0)])
        data = HodgeData(p, sigma)
        quotient = hodge_quotient(data, ["a"])
        assert quotient.poset.elements == ("b", "c")
        assert quotient.sigma.generators == ((2, 0),)

    def test_quotient_unknown_label(self):
        p = poset_from_cover_relations(["a", "b"], [("a", "b")])
        with pytest.raises(UnknownLabelError):
            hodge_quotient(HodgeData(p, ideal_from_generators(p.elements, [])), ["zz"])

    def test_quotient_not_an_ideal(self):
        p = poset_from_cover_relations(["a", "b"], [("a", "b")])
        with pytest.raises(NotAnIdealError):
            hodge_quotient(HodgeData(p, ideal_from_generators(p.elements, [])), ["b"])

    def test_sigma_must_match_poset(self):
        p = poset_from_cover_relations(["a"], [])
        with pytest.raises(ValueError):
            HodgeData(p, ideal_from_generators(("b",), []))


class TestJson:
    def test_round_trip(self):
        ideal = section5_ideal()
        assert monomial_ideal_from_json(monomial_ideal_to_json(ideal)) == ideal

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            monomial_ideal_from_json('{"variables": ["x"], "generators": [{"y": 1}]}')

    def test_unknown_variable_in_strings(self):
        # the same error as from JSON, not a bare KeyError
        message = "^unknown variable 'zz' in generator$"
        with pytest.raises(ValueError, match=message):
            ideal_from_strings(("x",), [[("x", 1), ("zz", 1)]])
        with pytest.raises(ValueError, match=message):
            monomial_ideal_from_json('{"variables": ["x"], "generators": [{"zz": 1}]}')

    @pytest.mark.parametrize("text", [
        '{"variables": "xy", "generators": []}',
        '{"variables": [1, 2], "generators": []}',
        '{"variables": ["x"], "generators": [5]}',
        '{"variables": ["x"], "generators": [{"x": null}]}',
    ])
    def test_wrong_json_types_rejected(self, text):
        with pytest.raises(ValueError):
            monomial_ideal_from_json(text)

    @pytest.mark.parametrize("exponent", ["true", "false", "1.0"])
    def test_exponent_must_be_an_integer(self, exponent):
        # JSON true is a Python bool, and bool is a subclass of int
        text = '{"variables": ["x"], "generators": [{"x": %s}]}' % exponent
        with pytest.raises(ValueError, match="^exponent of 'x' must be an integer$"):
            monomial_ideal_from_json(text)


XY = ideal_from_generators(["x", "y"], [(1, 0)])
YX = ideal_from_generators(["y", "x"], [(1, 0)])


@pytest.mark.parametrize("build, error, message", [
    (lambda: MonomialIdeal(["x", "x"], [(1, 0)]), ValueError, "duplicate variable names"),
    (lambda: XY.contains_ideal(YX), ValueError, "variable sets differ"),
    (lambda: colon_monomial(XY, YX), ValueError, "variable sets differ"),
    (
        lambda: polarize(ideal_from_generators(["x", "x(2)"], [(2, 0)])),
        ValueError,
        "polarization name collision: x(2)",
    ),
    (
        lambda: stanley_reisner_complex(ideal_from_generators(["x"], [(0,)])),
        UnitIdealError,
        "Stanley-Reisner complex needs a proper ideal",
    ),
    (
        lambda: monomial_ideal_from_json('{"generators": []}'),
        ValueError,
        "ideal JSON must have 'variables' and 'generators' keys",
    ),
], ids=["duplicate-variables", "contains-ideal", "colon", "polar-collision", "sr-unit", "json-no-variables"])
def test_validation_errors(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
