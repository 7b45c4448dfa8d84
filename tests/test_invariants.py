import random

import pytest

from srposet import (
    GF2,
    QQ,
    EmptyComplexError,
    FieldSpec,
    complex_from_facets,
    complex_report,
    depth_poset,
    depth_stanley_reisner,
    enumerate_posets,
    is_buchsbaum_complex,
    is_buchsbaum_poset,
    is_cohen_macaulay_complex,
    is_cohen_macaulay_poset,
    is_equidimensional,
    is_pure,
    krull_dim_stanley_reisner,
    order_complex,
    poset_from_cover_relations,
    random_poset,
)
from srposet import invariants

from oracles import determinantal_poset, face_poset, interval_cm
from test_simplicial import rp2


def chain(*labels):
    return poset_from_cover_relations(labels, list(zip(labels, labels[1:])))


def two_disjoint_edges():
    return complex_from_facets("abcd", [["a", "b"], ["c", "d"]])


class TestCohenMacaulayComplex:
    def test_full_simplex(self):
        k = complex_from_facets("abcd", [["a", "b", "c", "d"]])
        assert is_cohen_macaulay_complex(k, QQ)

    def test_two_disjoint_edges(self):
        assert not is_cohen_macaulay_complex(two_disjoint_edges(), QQ)

    def test_projective_plane_char_dependence(self):
        k = rp2()
        assert is_cohen_macaulay_complex(k, QQ)
        assert not is_cohen_macaulay_complex(k, GF2)

    def test_empty_face_complex(self):
        assert is_cohen_macaulay_complex(complex_from_facets([], [[]]), QQ)


class TestCohenMacaulayPoset:
    def test_chain(self):
        assert is_cohen_macaulay_poset(chain("a", "b", "c"), QQ)

    def test_antichain_of_two(self):
        assert is_cohen_macaulay_poset(
            poset_from_cover_relations(["a", "b"], []), QQ
        )

    def test_disjoint_two_chains(self):
        p = poset_from_cover_relations(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert not is_cohen_macaulay_poset(p, QQ)

    def test_empty_poset(self):
        assert is_cohen_macaulay_poset(poset_from_cover_relations([], []), QQ)

    def test_matches_complex_route(self):
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(0, 6)
            p = random_poset(rng, [f"e{i}" for i in range(n)])
            for field in (QQ, GF2):
                assert is_cohen_macaulay_poset(p, field) == is_cohen_macaulay_complex(
                    order_complex(p), field
                ), p


class TestIntervalOracle:
    """The interval test against an oracle that builds each interval as a
    labelled poset and reads its homology by Smith normal form."""

    FIELDS = (QQ, GF2, FieldSpec(3))

    def test_every_poset_up_to_four_elements(self):
        for n in range(5):
            for p in enumerate_posets("abcd"[:n]):
                for field in self.FIELDS:
                    assert is_cohen_macaulay_poset(p, field) == interval_cm(p, field.characteristic), p

    def test_random_posets_on_five_to_seven_elements(self):
        rng = random.Random(43)
        for _ in range(40):
            p = random_poset(rng, "abcdefg"[: rng.randint(5, 7)])
            for field in self.FIELDS:
                assert is_cohen_macaulay_poset(p, field) == interval_cm(p, field.characteristic), p


class TestBuchsbaum:
    def test_two_disjoint_edges(self):
        assert is_buchsbaum_complex(two_disjoint_edges(), QQ)

    def test_not_pure(self):
        k = complex_from_facets("abc", [["a", "b"], ["c"]])
        assert not is_buchsbaum_complex(k, QQ)

    def test_cm_implies_buchsbaum(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 6)
            verts = [f"v{i}" for i in range(n)]
            facets = [rng.sample(verts, rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
            k = complex_from_facets(verts, facets)
            for field in (QQ, GF2):
                cm = is_cohen_macaulay_complex(k, field)
                bbm = is_buchsbaum_complex(k, field)
                if cm:
                    assert bbm
                if bbm:
                    assert is_equidimensional(k)

    def test_projective_plane_buchsbaum_char2(self):
        # vertex links of a triangulated closed surface are circles, so it
        # is Buchsbaum even where it fails to be CM
        assert is_buchsbaum_complex(rp2(), GF2)


class TestDepthAndDim:
    def test_full_simplex(self):
        k = complex_from_facets("abcde", [list("abcde")])
        assert depth_stanley_reisner(k, QQ) == 5
        assert krull_dim_stanley_reisner(k) == 5

    def test_two_points(self):
        k = complex_from_facets("ab", [["a"], ["b"]])
        assert depth_stanley_reisner(k, QQ) == 1

    def test_two_disjoint_edges(self):
        assert depth_stanley_reisner(two_disjoint_edges(), QQ) == 1
        assert krull_dim_stanley_reisner(two_disjoint_edges()) == 2

    def test_empty_complex_raises(self):
        with pytest.raises(EmptyComplexError):
            depth_stanley_reisner(complex_from_facets([], [[]]), QQ)

    def test_dim_of_empty_face_complex(self):
        assert krull_dim_stanley_reisner(complex_from_facets([], [[]])) == 0

    def test_depth_at_most_dim_equality_iff_cm(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(1, 7)
            verts = [f"v{i}" for i in range(n)]
            facets = [rng.sample(verts, rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
            k = complex_from_facets(verts, facets)
            for field in (QQ, GF2):
                depth = depth_stanley_reisner(k, field)
                dim = krull_dim_stanley_reisner(k)
                assert depth <= dim
                assert (depth == dim) == is_cohen_macaulay_complex(k, field)

    def test_facet_gap_bound(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(2, 7)
            verts = [f"v{i}" for i in range(n)]
            facets = [rng.sample(verts, rng.randint(1, n)) for _ in range(rng.randint(2, 5))]
            k = complex_from_facets(verts, facets)
            cards = sorted(f.bit_count() for f in k.facets)
            if len(cards) < 2:
                continue
            gap = cards[-1] - cards[0]
            assert krull_dim_stanley_reisner(k) - depth_stanley_reisner(k, QQ) >= gap

    def test_projective_plane_depth(self):
        # char 2 turns the middle cohomology on, dropping the depth
        assert depth_stanley_reisner(rp2(), QQ) == 3
        assert depth_stanley_reisner(rp2(), GF2) == 2

    def test_ghost_vertex(self):
        # vertex listed but not a face: the face ring quotients it away
        k = complex_from_facets("ab", [["b"]])
        assert krull_dim_stanley_reisner(k) == 1
        assert depth_stanley_reisner(k, QQ) == 1


class TestPosetRoute:
    """depth_poset and is_buchsbaum_poset, read off the interval pass,
    against the link loop on the order complex (complex_report)."""

    FIELDS = (QQ, GF2)

    @staticmethod
    def assert_matches_link_route(p, field):
        rep = complex_report(order_complex(p), field)
        assert depth_poset(p, field) == rep["depth"], (p, field)
        assert is_buchsbaum_poset(p, field) == rep["buchsbaum"], (p, field)
        assert is_cohen_macaulay_poset(p, field) == rep["cm"], (p, field)

    def test_every_poset_up_to_five_elements(self):
        for n in range(6):
            for p in enumerate_posets("abcde"[:n]):
                for field in self.FIELDS:
                    self.assert_matches_link_route(p, field)

    def test_seeded_posets_on_six_to_ten_elements(self):
        rng = random.Random(67)
        for _ in range(300):
            p = random_poset(rng, "abcdefghij"[: rng.randint(6, 10)])
            for field in self.FIELDS:
                self.assert_matches_link_route(p, field)

    def test_face_poset_of_projective_plane(self):
        # the barycentric subdivision of RP^2: 2-torsion drops the depth in char 2
        p = face_poset(rp2())
        for field, depth in ((QQ, 3), (GF2, 2), (FieldSpec(3), 3)):
            assert depth_poset(p, field) == depth
            assert is_buchsbaum_poset(p, field)
            self.assert_matches_link_route(p, field)

    def test_acyclic_intervals_neither_walked_nor_read(self, monkeypatch):
        walked, read = [], []
        real_chains, real_betti = invariants._chain_facets, invariants.reduced_betti_numbers
        monkeypatch.setattr(invariants, "_chain_facets", lambda c, m: walked.append(m) or real_chains(c, m))
        monkeypatch.setattr(invariants, "reduced_betti_numbers", lambda k, f: read.append(k) or real_betti(k, f))
        # every interval of a chain is a cone on its least element
        assert depth_poset(chain("a", "b", "c", "d", "e"), QQ) == 5
        assert not walked and not read
        # the N poset is no cone, but its order complex, a path, collapses to a point
        n_poset = poset_from_cover_relations("wxyz", [("w", "y"), ("w", "z"), ("x", "z")])
        assert depth_poset(n_poset, QQ) == 2
        assert walked == [0b1111] and not read


class TestDeterminantalPosets:
    """Gamma_t(m x n) is a distributive lattice: pure, Cohen-Macaulay in
    every field, of depth = dim = (t - 1)(m + n - t + 1).  A wrong value
    here is an engine bug."""

    @pytest.mark.parametrize("m, n, t, size", [(3, 3, 3, 18), (3, 4, 3, 30), (4, 4, 3, 52)])
    def test_poset_route(self, m, n, t, size):
        p = determinantal_poset(m, n, t)
        dim = (t - 1) * (m + n - t + 1)
        assert len(p) == size and is_pure(p)
        assert krull_dim_stanley_reisner(order_complex(p)) == dim
        for field in (QQ, GF2):
            assert is_cohen_macaulay_poset(p, field)
            assert depth_poset(p, field) == dim
            assert is_buchsbaum_poset(p, field)

    @pytest.mark.parametrize("m, n, t", [(3, 3, 3), (3, 4, 3)])
    def test_link_route_agrees(self, m, n, t):
        p = determinantal_poset(m, n, t)
        for field in (QQ, GF2):
            rep = complex_report(order_complex(p), field)
            assert rep["cm"] and rep["depth"] == rep["dim"] == (t - 1) * (m + n - t + 1)


class TestEulerPoincareCrossModule:
    def test_poset_euler_char_equals_alternating_betti_sum(self):
        from srposet import reduced_betti_numbers, reduced_euler_char_poset

        rng = random.Random(53)
        for _ in range(80):
            n = rng.randint(0, 7)
            p = random_poset(rng, [f"e{i}" for i in range(n)])
            chi = reduced_euler_char_poset(p)
            delta = order_complex(p)
            for field in (QQ, GF2, FieldSpec(5)):
                assert reduced_betti_numbers(delta, field).alternating_sum() == chi, p

    def test_exhaustive_up_to_four_elements(self):
        from srposet import (
            enumerate_posets,
            reduced_betti_numbers,
            reduced_euler_char_poset,
        )

        for n in range(5):
            for p in enumerate_posets([chr(ord("a") + i) for i in range(n)]):
                chi = reduced_euler_char_poset(p)
                delta = order_complex(p)
                for field in (QQ, GF2):
                    assert reduced_betti_numbers(delta, field).alternating_sum() == chi

    def test_implication_chain_on_enumerated_posets(self):
        from srposet import enumerate_posets

        for n in range(5):
            for p in enumerate_posets([chr(ord("a") + i) for i in range(n)]):
                delta = order_complex(p)
                for field in (QQ, GF2):
                    cm = is_cohen_macaulay_complex(delta, field)
                    bbm = is_buchsbaum_complex(delta, field)
                    if cm:
                        assert bbm
                    if bbm:
                        assert is_equidimensional(delta)


class TestReport:
    def test_keys_and_values(self):
        rep = complex_report(two_disjoint_edges(), QQ)
        assert rep == {
            "dim": 2,
            "depth": 1,
            "cm": False,
            "buchsbaum": True,
            "field": {"char": 0},
        }

    def test_empty_face_complex_report(self):
        rep = complex_report(complex_from_facets([], [[]]), FieldSpec(3))
        assert rep["dim"] == 0 and rep["depth"] == 0 and rep["cm"]
