import random
import re
import time
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from srposet import (
    GF2,
    QQ,
    BettiVector,
    FieldSpec,
    NotAFaceError,
    UnknownVertexError,
    complex_from_facets,
    complex_from_json,
    complex_to_json,
    is_equidimensional,
    is_pure,
    link,
    order_complex,
    random_poset,
    reduced_betti_numbers,
    reduced_euler_char_complex,
)

from srposet.simplicial import SimplicialComplex, _betti_masks, _is_prime

from oracles import (
    betti_via_snf,
    brute_euler_complex,
    cross_polytope_boundary,
    det_fraction,
    rank_fraction,
    rank_mod_prime,
    smith_normal_form_divisors,
)

RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def rp2():
    verts = [str(i) for i in range(6)]
    return complex_from_facets(verts, [[str(v) for v in f] for f in RP2_FACETS])


def triangle_boundary():
    return complex_from_facets("abc", [["a", "b"], ["b", "c"], ["c", "a"]])


def random_complex(rng, n_vertices):
    verts = [f"v{i}" for i in range(n_vertices)]
    n_facets = rng.randint(1, 6)
    facets = []
    for _ in range(n_facets):
        size = rng.randint(1, n_vertices)
        facets.append(rng.sample(verts, size))
    return complex_from_facets(verts, facets)


class TestConstruction:
    def test_containment_pruning(self):
        k = complex_from_facets("ab", [["a", "b"], ["b"]])
        assert k.facet_labels() == [["a", "b"]]

    def test_two_points(self):
        k = complex_from_facets("ab", [["a"], ["b"]])
        assert len(k.facets) == 2

    def test_list_fields_become_tuples(self):
        k = SimplicialComplex(["a", "b"], [1, 2])
        assert k == SimplicialComplex(("a", "b"), (1, 2))
        assert reduced_betti_numbers(k, QQ).values == {-1: 0, 0: 1}

    def test_empty_face_complex(self):
        k = complex_from_facets([], [[]])
        assert k.facets == (0,)
        assert k.dim() == -1

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            complex_from_facets("ab", [["z"]])

    def test_first_unknown_vertex_named(self):
        with pytest.raises(UnknownVertexError, match="^z$"):
            complex_from_facets("ab", [["a"], ["z", "y"]])
        k = complex_from_facets("ab", [["a", "b"]])
        with pytest.raises(UnknownVertexError, match="^z$"):
            k.face_mask(["a", "z", "y"])
        assert k.face_mask(["b"]) == 2

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="^duplicate vertex labels$"):
            complex_from_facets(["a", "b", "a"], [["a", "b"]])
        with pytest.raises(ValueError, match="^duplicate vertex labels$"):
            complex_from_facets("aa", [])

    def test_facets_must_be_sorted(self):
        k = SimplicialComplex(("a", "b", "c"), (1, 6))
        assert k == complex_from_facets("abc", [["b", "c"], ["a"]])
        with pytest.raises(ValueError, match="sorted"):
            SimplicialComplex(("a", "b", "c"), (6, 1))

    def test_isolated_vertex_requires_singleton(self):
        k = complex_from_facets("ab", [["a"]])
        assert k.has_face(["a"])
        assert not k.has_face(["b"])


class TestLink:
    def test_link_of_empty_is_identity(self):
        k = triangle_boundary()
        assert link(k, []) == k

    def test_link_in_cycle(self):
        k = triangle_boundary()
        l = link(k, ["a"])
        assert sorted(map(tuple, l.facet_labels())) == [("b",), ("c",)]

    def test_link_in_simplex(self):
        k = complex_from_facets("abc", [["a", "b", "c"]])
        l = link(k, ["a"])
        assert l.facet_labels() == [["b", "c"]]

    def test_not_a_face(self):
        with pytest.raises(NotAFaceError):
            link(triangle_boundary(), ["a", "b", "c"])


class TestEulerChar:
    def test_empty_face_complex(self):
        assert reduced_euler_char_complex(complex_from_facets([], [[]])) == -1

    def test_point(self):
        assert reduced_euler_char_complex(complex_from_facets("a", [["a"]])) == 0

    def test_triangle_boundary(self):
        # the empty face contributes -1, so the circle has chi~ = -1,
        # matching its reduced Betti numbers (0, 1)
        assert reduced_euler_char_complex(triangle_boundary()) == -1

    def test_random_against_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            k = random_complex(rng, rng.randint(1, 7))
            assert reduced_euler_char_complex(k) == brute_euler_complex(k)


class TestEquidimensional:
    def test_triangle_boundary(self):
        assert is_equidimensional(triangle_boundary())

    def test_mixed(self):
        assert not is_equidimensional(complex_from_facets("abc", [["a", "b"], ["c"]]))

    def test_matches_purity_of_order_complex(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(0, 7)
            p = random_poset(rng, [f"e{i}" for i in range(n)])
            assert is_equidimensional(order_complex(p)) == is_pure(p)


class TestBetti:
    def test_full_simplex_acyclic(self):
        k = complex_from_facets("abc", [["a", "b", "c"]])
        assert reduced_betti_numbers(k, QQ).total() == 0

    def test_triangle_boundary_circle(self):
        for field in (QQ, GF2, FieldSpec(5)):
            b = reduced_betti_numbers(triangle_boundary(), field)
            assert b[0] == 0 and b[1] == 1

    def test_empty_face_complex(self):
        b = reduced_betti_numbers(complex_from_facets([], [[]]), QQ)
        assert b[-1] == 1 and b.total() == 1

    def test_two_points(self):
        b = reduced_betti_numbers(complex_from_facets("ab", [["a"], ["b"]]), QQ)
        assert b[-1] == 0 and b[0] == 1

    def test_projective_plane(self):
        k = rp2()
        b0 = reduced_betti_numbers(k, QQ)
        assert b0.total() == 0
        b2 = reduced_betti_numbers(k, GF2)
        assert b2[1] == 1 and b2[2] == 1 and b2.total() == 2
        b3 = reduced_betti_numbers(k, FieldSpec(3))
        assert b3.total() == 0

    def test_betti_vector_equality_pads_degrees(self):
        assert BettiVector({0: 0, 1: 0}) == BettiVector({})
        assert BettiVector({1: 1}) != BettiVector({})

    def test_betti_vector_equality_reads_nonzero_entries(self):
        assert BettiVector({-1: 0, 0: 2, 3: 0}) == BettiVector({0: 2, 1: 0})
        assert BettiVector({0: 2}) != BettiVector({0: 2, 1: 1})
        assert BettiVector({0: 2, 1: 1}) != BettiVector({0: 2})
        assert BettiVector({0: 1}) != BettiVector({1: 1})

    def test_betti_vector_equality_with_other_types(self):
        b = BettiVector({0: 1})
        assert b.__eq__({0: 1}) is NotImplemented
        assert b != {0: 1} and b != 1

    def test_euler_poincare(self):
        rng = random.Random(23)
        for _ in range(25):
            k = random_complex(rng, rng.randint(1, 8))
            chi = reduced_euler_char_complex(k)
            for field in (QQ, GF2):
                assert reduced_betti_numbers(k, field).alternating_sum() == chi

    def test_against_snf_oracle(self):
        rng = random.Random(99)
        for _ in range(20):
            k = random_complex(rng, rng.randint(1, 7))
            for char in (0, 2, 3):
                got = reduced_betti_numbers(k, FieldSpec(char))
                expected = betti_via_snf(k, char)
                for d, v in expected.items():
                    assert got[d] == v, (k, char, d)


class TestFieldSpec:
    def test_primes_ok(self):
        FieldSpec(0)
        FieldSpec(2)
        FieldSpec(97)

    @pytest.mark.parametrize("bad", [1, 4, 6, -2, 9])
    def test_nonprime_rejected(self, bad):
        with pytest.raises(ValueError):
            FieldSpec(bad)

    @pytest.mark.parametrize("bad", [3.0, 7.5, float("nan"), None, "3", True, False])
    def test_non_int_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            FieldSpec(bad)


class TestPrimality:
    def test_matches_trial_division(self):
        def naive(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert all(_is_prime(n) == naive(n) for n in range(-3, 20000))

    def test_19_digit_prime_accepted_quickly(self):
        start = time.process_time()
        assert FieldSpec(1000000000000000003).characteristic == 1000000000000000003
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("bad", [
        561, 41041, 825265,  # Carmichael numbers
        3825123056546413051,  # strong pseudoprime to the first nine prime bases
        318665857834031151167461,  # ... and to the first twelve
    ])
    def test_pseudoprimes_rejected(self, bad):
        with pytest.raises(ValueError, match="0 or a prime"):
            FieldSpec(bad)


class TestExactRanks:
    @given(
        st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_bareiss_matches_fraction_gauss(self, rows):
        from srposet._exact import rank_char0

        assert rank_char0([dict(enumerate(row)) for row in rows]) == rank_fraction(rows)

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.sampled_from([2, 3, 5, 7]),
    )
    @settings(max_examples=100, deadline=None)
    def test_modp_consistency(self, rows, p):
        from srposet._exact import _rank, rank_mod2

        r = _rank([dict(enumerate(row)) for row in rows], p)
        if p == 2:
            bitrows = [
                sum(1 << j for j, x in enumerate(row) if x % 2) for row in rows
            ]
            assert rank_mod2(bitrows) == r
        assert r <= rank_fraction(rows)

    @given(st.data(), st.sampled_from([0, 3, 5, 7]))
    @settings(max_examples=150, deadline=None)
    def test_columns_are_keys(self, data, p):
        """Sparse rows keyed by large, non-contiguous ints, as boundary rows
        are keyed by face masks, with entries that vanish mod p."""
        keys = data.draw(st.lists(
            st.sets(st.integers(0, 60), min_size=1, max_size=8).map(lambda s: sum(1 << b for b in s)),
            min_size=1, max_size=7, unique=True,
        ))
        entry = st.one_of(st.integers(-9, 9), st.integers(-3, 3).map(lambda k: k * p))
        rows = data.draw(st.lists(st.dictionaries(st.sampled_from(keys), entry), min_size=1, max_size=7))
        from srposet._exact import _rank, rank_char0

        dense = [[row.get(j, 0) for j in sorted(keys)] for row in rows]
        if p == 0:
            assert rank_char0(rows) == rank_fraction(dense)
        else:
            assert _rank(rows, p) == rank_mod_prime(dense, p) <= rank_fraction(dense)

    def test_snf_oracle_on_dense_integer_matrices(self):
        """The Smith-form oracle on a dense 7 x 7 matrix on which reducing
        without re-pivoting grows entries past 12,000 bits, and on seeded
        dense square matrices: as many divisors as the rank, each dividing
        the next, with product |det|."""
        dense = [
            [15, 15, 0, 5, 0, 0, 0], [5, 10, 5, 0, -8, -7, 0], [-2, 0, -10, 5, 0, 0, 6],
            [0, 0, 0, 0, -9, 3, 0], [15, 0, 7, 0, 0, -5, 0], [-5, 0, -5, 15, 0, 0, -3],
            [0, 0, 0, 0, 0, -15, 0],
        ]
        rng = random.Random(61)
        cases = [dense] + [
            [[rng.choice([0, rng.randint(-20, 20)]) for _ in range(n)] for _ in range(n)]
            for n in [rng.randint(1, 8) for _ in range(60)]
        ]
        for rows in cases:
            divisors = smith_normal_form_divisors(rows)
            assert len(divisors) == rank_fraction(rows), rows
            assert all(b % a == 0 for a, b in zip(divisors, divisors[1:])), rows
            det = det_fraction(rows)
            assert prod(divisors) == abs(det) if len(divisors) == len(rows) else det == 0, rows
        assert smith_normal_form_divisors(dense) == [1, 1, 1, 1, 1, 45, 422550]


class TestLargeBoundaryRanks:
    """Boundary ranks of whole complexes, larger than the collapse leaves
    in the tests above, in characteristics 0, 2 and 3."""

    def test_seven_sphere(self):
        # 16 vertices and 256 facets; dense elimination took 11.7 s of CPU in
        # characteristic 3 and longer in characteristic 0
        k = complex_from_facets(*cross_polytope_boundary(8))
        for char in (0, 3):
            start = time.process_time()
            betti = reduced_betti_numbers(k, FieldSpec(char))
            assert time.process_time() - start < 3.0, char
            assert betti == BettiVector({7: 1}), char

    def test_betti_masks_against_snf_oracle(self):
        """_betti_masks (no collapse) on seeded complexes of 12 to 24
        triangles and tetrahedra on 8 to 10 vertices, and on joins of RP^2
        with a few points, whose 2-torsion makes the characteristics differ."""
        rng = random.Random(19)
        rp2_facets = [[f"r{v}" for v in f] for f in RP2_FACETS]
        complexes = []
        for _ in range(16):
            verts = [f"v{i}" for i in range(rng.randint(8, 10))]
            facets = [rng.sample(verts, rng.randint(3, 4)) for _ in range(rng.randint(12, 24))]
            complexes.append(complex_from_facets(verts, facets))
        for points in (2, 3):
            cone = [f"c{i}" for i in range(points)]
            verts = [f"r{v}" for v in range(6)] + cone
            complexes.append(complex_from_facets(verts, [f + [c] for f in rp2_facets for c in cone]))
        for k in complexes:
            for char in (0, 2, 3):
                got = _betti_masks(k.facets, char)
                assert dict(enumerate(got, -1)) == betti_via_snf(k, char), (k, char)


class TestJson:
    def test_round_trip(self):
        k = triangle_boundary()
        assert complex_from_json(complex_to_json(k)) == k

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            complex_from_json('{"vertices": []}')


@pytest.mark.parametrize("vertices, facets, message", [
    (["x", "x"], [1], "duplicate vertex labels"),
    (["x"], [], "a complex has at least the empty face; use facets=(0,)"),
    (["x"], [2], "facet bit out of range"),
], ids=["duplicate-vertices", "no-facets", "bit-out-of-range"])
def test_validation_errors(vertices, facets, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SimplicialComplex(vertices, facets)
