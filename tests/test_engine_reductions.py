"""Direct validation of the two engine reductions against naive loops.

The invariant engines only visit faces that are intersections of facets and
strong-collapse every link before computing ranks.  Both steps are claimed
to be exact; these tests recompute depth/CM/Buchsbaum with a naive
all-faces loop (library link + raw Betti numbers, no collapse, no closure
restriction) and require equality on random complexes.
"""

import random
from itertools import combinations

import pytest

from srposet import (
    GF2,
    QQ,
    FieldSpec,
    SimplicialComplex,
    complex_from_facets,
    depth_stanley_reisner,
    is_buchsbaum_complex,
    is_cohen_macaulay_complex,
    is_cohen_macaulay_poset,
    is_equidimensional,
    link,
    order_complex,
    random_poset,
    reduced_betti_numbers,
)
from srposet import invariants
from srposet.detsym import _section3_fixed
from srposet.invariants import _link_cores
from srposet.poset import NEG_INF, POS_INF, open_interval
from srposet.simplicial import (
    _betti_masks,
    _closed_faces,
    _compact_key,
    _link_facets,
    _minimalize_facets,
    _strong_collapse,
)

from oracles import restart_strong_collapse
from test_simplicial import rp2


def all_faces(k):
    faces = set()
    for facet in k.facet_labels():
        for r in range(len(facet) + 1):
            faces.update(frozenset(c) for c in combinations(facet, r))
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def raw_betti(k, field):
    """{degree: beta} for degrees -1..dim k, from the boundary ranks of all
    faces of k; no collapse."""
    betti = _betti_masks(_compact_key(k.facets), field.characteristic)
    return {d - 1: b for d, b in enumerate(betti)}


def jmin_raw(k, field):
    betti = raw_betti(k, field)
    degrees = [d for d in sorted(betti) if betti[d]]
    return degrees[0] if degrees else None


def naive_depth(k, field):
    best = None
    for face in all_faces(k):
        lk = link(k, face)
        j = jmin_raw(lk, field)
        if j is None:
            continue
        candidate = len(face) + 1 + j
        if best is None or candidate < best:
            best = candidate
    return best


def naive_is_cm(k, field):
    for face in all_faces(k):
        lk = link(k, face)
        d = lk.dim()
        betti = raw_betti(lk, field)
        if any(betti[i] for i in range(-1, d)):
            return False
    return True


def naive_is_buchsbaum(k, field):
    if not is_equidimensional(k):
        return False
    for face in all_faces(k):
        if not face:
            continue
        lk = link(k, face)
        d = lk.dim()
        betti = raw_betti(lk, field)
        if any(betti[i] for i in range(-1, d)):
            return False
    return True


def random_complex(rng, n_vertices):
    verts = [f"v{i}" for i in range(n_vertices)]
    facets = [
        rng.sample(verts, rng.randint(1, n_vertices))
        for _ in range(rng.randint(1, 6))
    ]
    return complex_from_facets(verts, facets)


def test_depth_matches_naive_all_faces_loop():
    rng = random.Random(2)
    for _ in range(60):
        k = random_complex(rng, rng.randint(1, 7))
        for field in (QQ, GF2):
            assert depth_stanley_reisner(k, field) == naive_depth(k, field), k


def test_cm_matches_naive_all_faces_loop():
    rng = random.Random(3)
    for _ in range(60):
        k = random_complex(rng, rng.randint(1, 7))
        for field in (QQ, GF2):
            assert is_cohen_macaulay_complex(k, field) == naive_is_cm(k, field), k


def test_buchsbaum_matches_naive_all_faces_loop():
    rng = random.Random(4)
    for _ in range(60):
        k = random_complex(rng, rng.randint(1, 7))
        for field in (QQ, GF2):
            assert is_buchsbaum_complex(k, field) == naive_is_buchsbaum(k, field), k


def random_order_complexes(seed, count=40):
    # order complexes of posets with a unique minimum or maximum are cones,
    # which the depth loop strips before visiting any link
    rng = random.Random(seed)
    labels = "abcdef"
    return [
        order_complex(random_poset(rng, labels[: rng.randint(5, 6)]))
        for _ in range(count)
    ]


def test_depth_matches_naive_on_order_complexes():
    for k in random_order_complexes(6):
        for field in (QQ, GF2):
            assert depth_stanley_reisner(k, field) == naive_depth(k, field), k


def test_cm_matches_naive_on_order_complexes():
    for k in random_order_complexes(7):
        for field in (QQ, GF2):
            assert is_cohen_macaulay_complex(k, field) == naive_is_cm(k, field), k


def test_buchsbaum_matches_naive_on_order_complexes():
    for k in random_order_complexes(8):
        for field in (QQ, GF2):
            assert is_buchsbaum_complex(k, field) == naive_is_buchsbaum(k, field), k


def test_strong_collapse_preserves_betti_numbers():
    rng = random.Random(5)
    for _ in range(80):
        k = random_complex(rng, rng.randint(1, 8))
        core = _strong_collapse(k.facets)
        for char in (0, 2, 3):
            raw = _betti_masks(_compact_key(k.facets), char)
            collapsed = _betti_masks(_compact_key(core), char)
            padded = collapsed + (0,) * (len(raw) - len(collapsed))
            assert padded == raw, (k, char)


def random_antichain(rng, max_vertices=10):
    n = rng.randint(1, max_vertices)
    return _minimalize_facets(
        [rng.getrandbits(n) for _ in range(rng.randint(1, 8))]
    )


def _shape(facets):
    used = 0
    for f in facets:
        used |= f
    return used.bit_count(), sorted(f.bit_count() for f in facets)


def test_strong_collapse_matches_restart_oracle():
    # the core is unique up to isomorphism: same homology, same vertex count
    # and facet sizes as the restart-scan collapse, and nothing left to delete
    rng = random.Random(11)
    for _ in range(2000):
        facets = random_antichain(rng)
        core = _strong_collapse(facets)
        expected = restart_strong_collapse(facets)
        assert _shape(core) == _shape(expected), facets
        assert _strong_collapse(core) == core, facets
        for char in (0, 2, 3):
            got = _betti_masks(_compact_key(core), char)
            want = _betti_masks(_compact_key(expected), char)
            width = max(len(got), len(want))
            assert (got + (0,) * (width - len(got))
                    == want + (0,) * (width - len(want))), (facets, char)


def test_link_facets_need_no_minimalizing_on_antichains():
    rng = random.Random(12)
    complexes = [random_antichain(rng) for _ in range(300)]
    complexes += [_section3_fixed(n)["polarized"][0].facets for n in (3, 4, 5)]
    for facets in complexes:
        for sigma in _closed_faces(facets):
            got = tuple(sorted(_link_facets(facets, sigma)))
            want = _minimalize_facets(
                [f & ~sigma for f in facets if f & sigma == sigma]
            )
            assert got == want, (facets, sigma)


def _complex_of(facets):
    used = 0
    for f in facets:
        used |= f
    return SimplicialComplex(
        tuple(f"v{i}" for i in range(used.bit_length())), tuple(sorted(facets))
    )


def test_reduced_betti_numbers_match_raw_kernel():
    # the collapsed route must give every degree -1..dim, including the
    # zeros above the dimension of the core
    rng = random.Random(14)
    complexes = [_complex_of(random_antichain(rng)) for _ in range(300)]
    complexes += [_complex_of((0,)), _complex_of((0b1111,)), rp2()]
    complexes += [
        order_complex(random_poset(rng, "abcdefg"[: rng.randint(0, 7)]))
        for _ in range(100)
    ]
    for k in complexes:
        for field in (QQ, GF2, FieldSpec(3)):
            assert reduced_betti_numbers(k, field).values == raw_betti(k, field), (k, field)


def naive_is_cm_poset(p, field):
    """The interval criterion on raw Betti numbers of every open interval."""
    points = [NEG_INF, *p.elements, POS_INF]
    for a in points[:-1]:
        for b in points[1:]:
            if a is NEG_INF or b is POS_INF or p.less(a, b):
                interval = order_complex(open_interval(p, a, b))
                betti = raw_betti(interval, field)
                if any(betti[d] for d in range(-1, interval.dim())):
                    return False
    return True


def test_interval_test_matches_raw_kernel():
    # the interval test reads collapsed Betti numbers, as the link test
    # does; this oracle ranks the uncollapsed interval complexes instead
    rng = random.Random(17)
    for _ in range(150):
        p = random_poset(rng, "abcdefg"[: rng.randint(0, 7)])
        for field in (QQ, GF2):
            assert is_cohen_macaulay_poset(p, field) == naive_is_cm_poset(p, field), p


def _check_warm_calls(k):
    # char 2 before char 0, and Buchsbaum (nonempty faces only) before depth,
    # so each call replays a scan that another field or question started
    for field in (GF2, QQ):
        assert is_buchsbaum_complex(k, field) == naive_is_buchsbaum(k, field), k
        if k.facets != (0,):
            assert depth_stanley_reisner(k, field) == naive_depth(k, field), k
        assert is_cohen_macaulay_complex(k, field) == naive_is_cm(k, field), k


def test_warm_link_cores_match_naive_loops():
    _link_cores.cache_clear()
    rng = random.Random(13)
    for _ in range(150):
        _check_warm_calls(_complex_of(random_antichain(rng, 8)))
    for k in random_order_complexes(14):
        _check_warm_calls(k)
    # a bowtie (vertex c has a disconnected link) beside a triangle: the
    # depth loop stops at the empty face, the complex being disconnected;
    # Buchsbaum then needs the vertex links that this scan never reached
    k = complex_from_facets("abcdefgh", ["abc", "cde", "fgh"])
    _link_cores.cache_clear()
    assert depth_stanley_reisner(k, QQ) == naive_depth(k, QQ) == 1
    assert is_buchsbaum_complex(k, QQ) is naive_is_buchsbaum(k, QQ) is False
    assert _link_cores.cache_info().hits == 1


def test_interrupted_scan_is_not_replayed(monkeypatch):
    # interrupt the scan at each of its collapses in turn; the next call
    # must not take the part computed before the interrupt for the whole
    calls = []
    stop_at = [None]

    def collapse(facets):
        if len(calls) == stop_at[0]:
            raise KeyboardInterrupt
        calls.append(facets)
        return _strong_collapse(facets)

    monkeypatch.setattr(invariants, "_strong_collapse", collapse)
    rng = random.Random(16)
    interrupts = 0
    for _ in range(60):
        k = _complex_of(random_antichain(rng, 8))
        if k.facets == (0,):
            continue
        want = naive_depth(k, QQ)
        _link_cores.cache_clear()
        calls.clear()
        assert depth_stanley_reisner(k, QQ) == want, k
        collapses = len(calls)
        for at in range(collapses):
            _link_cores.cache_clear()
            calls.clear()
            stop_at[0] = at
            with pytest.raises(KeyboardInterrupt):
                depth_stanley_reisner(k, QQ)
            stop_at[0] = None
            assert depth_stanley_reisner(k, QQ) == want, (k, at)
        interrupts += collapses
    assert interrupts > 10, interrupts


def _stripped_key(facets):
    common = facets[0]
    for f in facets:
        common &= f
    return _compact_key([f & ~common for f in facets])


def test_section3_ideal_and_core_share_one_scan():
    for n in (3, 4, 5):
        fixed = _section3_fixed(n)
        full, core = fixed["polarized"][0], fixed["core_polarized"][0]
        assert _stripped_key(full.facets) == _stripped_key(core.facets), n
        _link_cores.cache_clear()
        depth_stanley_reisner(full, GF2)
        depth_stanley_reisner(core, QQ)
        info = _link_cores.cache_info()
        assert (info.misses, info.hits) == (1, 1), n
