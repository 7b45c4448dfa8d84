import random

import pytest

from srposet import (
    GF2,
    QQ,
    a_dis_ideal_t2,
    build_minor_hodge_data,
    core_hodge,
    depth_monomial_quotient,
    dim_monomial_quotient,
    hodge_quotient,
    ideal_from_strings,
    is_poset_ideal,
    is_pure,
    krull_dim_stanley_reisner,
    omega_ideal,
    order_complex,
    polarize,
    reproduce_section3,
    section3_facets,
    stanley_reisner_complex,
    tuple_leq,
)
from srposet.detsym import _is_facet, check_cap
from srposet.monomial import _support, _takayama_complexes
from srposet.errors import CapExceededError

from oracles import depth_via_polarization


class TestTupleOrder:
    def test_longer_below_shorter(self):
        assert tuple_leq((1, 2), (1,))

    def test_entrywise(self):
        assert not tuple_leq((2,), (1,))
        assert tuple_leq((1,), (2,))

    def test_reflexive(self):
        for t in [(1,), (1, 3), (2, 4, 5)]:
            assert tuple_leq(t, t)

    def test_shorter_never_below_longer(self):
        assert not tuple_leq((1,), (1, 2))


class TestMinorData:
    def test_n1(self):
        data = build_minor_hodge_data(1)
        assert data.poset.elements == ("[1|1]",)
        assert data.sigma.is_zero()

    def test_n2_elements(self):
        data = build_minor_hodge_data(2)
        assert set(data.poset.elements) == {"[1|1]", "[1|2]", "[2|2]", "[1,2|1,2]"}

    def test_n2_sigma_is_single_square(self):
        data = build_minor_hodge_data(2)
        strings = data.sigma.generator_strings()
        assert strings == ["[1|2]^2"]

    def test_n3_size1_part_is_lex_chain(self):
        data = build_minor_hodge_data(3)
        size1 = [e for e in data.poset.elements if "," not in e]
        assert len(size1) == 6
        sub = data.poset.restrict(size1)
        assert is_pure(sub)
        assert krull_dim_stanley_reisner(order_complex(sub)) == 6
        # totally ordered: every pair comparable
        for a in size1:
            for b in size1:
                assert a == b or sub.less(a, b) or sub.less(b, a)


class TestOmega:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_omega_is_poset_ideal_for_all_t(self, n):
        data = build_minor_hodge_data(n)
        for t in range(1, n + 1):
            omega = omega_ideal(data, t)
            assert is_poset_ideal(data.poset, omega)

    def test_t1_is_everything(self):
        data = build_minor_hodge_data(2)
        assert omega_ideal(data, 1) == frozenset(data.poset.elements)

    def test_t_above_n_is_empty(self):
        data = build_minor_hodge_data(2)
        assert omega_ideal(data, 3) == frozenset()

    def test_n2_t2(self):
        data = build_minor_hodge_data(2)
        assert omega_ideal(data, 2) == {"[1,2|1,2]"}


class TestQuadraticIdeal:
    def test_n1_zero(self):
        assert a_dis_ideal_t2(1).is_zero()

    def test_n2_single_square(self):
        ideal = a_dis_ideal_t2(2)
        assert ideal.generator_strings() == ["X12^2"]

    def test_n3_core_matches_remark_ideal(self):
        ideal = a_dis_ideal_t2(3)
        expected = ideal_from_strings(
            ideal.variables,
            [
                [("X12", 2)],
                [("X12", 1), ("X13", 1)],
                [("X13", 2)],
                [("X13", 1), ("X22", 1)],
                [("X13", 1), ("X23", 1)],
                [("X23", 2)],
            ],
        )
        assert ideal == expected

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_absent_variables_are_corner_entries(self, n):
        ideal = a_dis_ideal_t2(n)
        absent = [
            v
            for i, v in enumerate(ideal.variables)
            if not any(g[i] for g in ideal.generators)
        ]
        assert absent == [f"X11", f"X{n}{n}"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_hodge_quotient_by_omega2(self, n):
        data = build_minor_hodge_data(n)
        quotient = hodge_quotient(data, omega_ideal(data, 2))
        ideal = a_dis_ideal_t2(n)
        # identify [i|j] with Xij
        renamed = {f"[{i}|{j}]": f"X{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)}
        assert [renamed[e] for e in quotient.poset.elements] == list(ideal.variables)
        assert quotient.sigma.generators == ideal.generators

    @pytest.mark.parametrize("n", [3, 4])
    def test_core_of_quotient_drops_corners(self, n):
        data = build_minor_hodge_data(n)
        quotient = hodge_quotient(data, omega_ideal(data, 2))
        core, regular = core_hodge(quotient)
        assert sorted(regular) == [f"[1|1]", f"[{n}|{n}]"]
        assert len(core.poset) == len(quotient.poset) - 2


def minor_ideal(n, t):
    """The discrete algebra's ideal of the symmetric t-minors: Sigma
    restricted to the bitableaux of size below t."""
    data = build_minor_hodge_data(n)
    return hodge_quotient(data, omega_ideal(data, t)).sigma


class TestSymmetricMinors:
    """Beyond the paper's t = 2: Kutz (Trans. AMS 194, 1974) gives the
    symmetric t-minor ring dimension (t - 1)(2n - t + 2)/2, and its discrete
    algebra keeps that dimension."""

    @pytest.mark.parametrize("n, t", [(3, 3), (4, 3), (4, 4), (5, 3)])
    def test_dimension(self, n, t):
        assert dim_monomial_quotient(minor_ideal(n, t)) == (t - 1) * (2 * n - t + 2) // 2

    @pytest.mark.parametrize("n, t, depth", [(3, 3, 4), (4, 3, 4), (4, 4, 6)])
    def test_depth(self, n, t, depth):
        ideal = minor_ideal(n, t)
        for field in (QQ, GF2):
            assert depth_monomial_quotient(ideal, field) == depth, field

    def test_depth_via_polarization_at_n3_t3(self):
        ideal = minor_ideal(3, 3)
        assert len(ideal.variables) == 12 and len(ideal.generators) == 21
        for field in (QQ, GF2):
            assert depth_via_polarization(ideal, field) == depth_monomial_quotient(ideal, field) == 4


class TestPolarizedIdeal:
    def test_n3_polarized_generators(self):
        from srposet import polarize

        ideal = a_dis_ideal_t2(3)
        polarized, aux = polarize(ideal)
        assert aux == 3
        got = set(polarized.generator_strings())
        assert got == {
            "X12*X12(2)",
            "X13*X13(2)",
            "X23*X23(2)",
            "X12*X13",
            "X13*X22",
            "X13*X23",
        }

    def test_facet_check_matches_complex(self):
        # the check on the generator supports against the facets of the
        # complex: its facets, each facet minus a vertex, and random masks
        # and subfaces
        rng = random.Random(46)
        for n in (3, 4, 5, 6):
            polarized = polarize(a_dis_ideal_t2(n))[0]
            facets = set(stanley_reisner_complex(polarized).facets)
            width = len(polarized.variables)
            supports = [_support(g) for g in polarized.generators]
            faces = facets | {f & ~(1 << v) for f in facets for v in range(width) if f >> v & 1}
            faces |= {rng.getrandbits(width) for _ in range(300)}
            faces |= {f & rng.getrandbits(width) for f in sorted(facets) for _ in range(3)}
            for face in faces:
                assert _is_facet(supports, width, face) == (face in facets), (n, face)


class TestReproduction:
    def test_n3(self):
        rep = reproduce_section3(3, QQ)
        assert (rep["dim"], rep["depth"], rep["core_dim"], rep["core_depth"]) == (3, 2, 1, 0)
        assert rep["facet_cards"] == [5, 6]
        assert rep["facets_verified"]
        assert rep["regular_pair"] == ["X11", "X33"]

    def test_n4(self):
        rep = reproduce_section3(4, GF2)
        assert (rep["dim"], rep["depth"], rep["core_dim"], rep["core_depth"]) == (4, 2, 2, 0)
        assert rep["facet_cards"] == [8, 10]
        assert rep["facets_verified"]

    def test_facet_card_formulas(self):
        for n in (3, 4, 5):
            a, b = section3_facets(n)
            assert len(a) == n * (n - 1) // 2 + 2
            assert len(b) == (n + 1) * n // 2

    def test_n_below_3_rejected(self):
        with pytest.raises(ValueError):
            reproduce_section3(2, QQ)

    def test_cap(self):
        check_cap(5)
        with pytest.raises(CapExceededError):
            check_cap(99)

    def test_dim_depth_gap_is_n_minus_2(self):
        for n in (3, 4):
            rep = reproduce_section3(n, QQ)
            assert rep["dim"] - rep["depth"] == n - 2
            assert rep["core_dim"] == n - 2 and rep["core_depth"] == 0

    def test_one_depth_walk_per_n(self):
        # the ideal and its core, in both fields, read one cached walk: the
        # core's generators are the ideal's on the variables they use
        _takayama_complexes.cache_clear()
        for n in (3, 4, 5, 6):
            for field in (QQ, GF2):
                reproduce_section3(n, field)
        info = _takayama_complexes.cache_info()
        assert (info.misses, info.hits) == (4, 12), info


@pytest.mark.parametrize("build, message", [
    (lambda: build_minor_hodge_data(0), "n must be positive"),
    (lambda: omega_ideal(build_minor_hodge_data(2), 0), "t must be positive"),
    (lambda: a_dis_ideal_t2(0), "n must be positive"),
], ids=["hodge-data", "omega", "a-dis"])
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
