"""Exact homology and the combinatorial ring criteria.

The face ring of a simplicial complex is Cohen-Macaulay exactly when every
link has reduced homology concentrated in top degree (Reisner); Buchsbaum
relaxes this to nonempty faces plus equidimensionality; the depth is the
first degree where some link homology turns on (Hochster).  All of it is
characteristic-sensitive, and all arithmetic here is exact.

Run:  python demos/02_homology_and_ring_criteria.py
"""

from itertools import combinations

from srposet import (
    GF2,
    QQ,
    FieldSpec,
    complex_from_facets,
    Poset,
    complex_report,
    depth_poset,
    depth_stanley_reisner,
    is_buchsbaum_complex,
    is_buchsbaum_poset,
    is_cohen_macaulay_complex,
    is_cohen_macaulay_poset,
    krull_dim_stanley_reisner,
    link,
    order_complex,
    poset_from_cover_relations,
    reduced_betti_numbers,
)

# A hollow triangle is a circle: one loop, any field.
circle = complex_from_facets("abc", [["a", "b"], ["b", "c"], ["c", "a"]])
print("circle Betti over Q:", reduced_betti_numbers(circle, QQ).values)
print("link of a vertex:", link(circle, ["a"]).facet_labels())

# The 6-vertex triangulation of the real projective plane is the classic
# characteristic-dependent example: acyclic over Q, but with 2-torsion.
rp2 = complex_from_facets(
    [str(i) for i in range(6)],
    [
        ["0", "1", "4"], ["0", "1", "5"], ["0", "2", "3"], ["0", "2", "4"],
        ["0", "3", "5"], ["1", "2", "3"], ["1", "2", "5"], ["1", "3", "4"],
        ["2", "4", "5"], ["3", "4", "5"],
    ],
)
for field in (QQ, GF2, FieldSpec(3)):
    print(f"RP^2 Betti, char {field.characteristic}:",
          reduced_betti_numbers(rp2, field).values)

# Its face ring is Cohen-Macaulay over Q but not over F_2, and the depth
# drops accordingly (dimension stays 3).
for field in (QQ, GF2):
    print(f"RP^2 report, char {field.characteristic}:", complex_report(rp2, field))

# Two disjoint edges: pure, vertex links are points (so Buchsbaum), but
# the complex is disconnected, so depth 1 < dim 2 and not Cohen-Macaulay.
two_edges = complex_from_facets("abcd", [["a", "b"], ["c", "d"]])
print("two disjoint edges:",
      "cm:", is_cohen_macaulay_complex(two_edges, QQ),
      "buchsbaum:", is_buchsbaum_complex(two_edges, QQ),
      "dim:", krull_dim_stanley_reisner(two_edges),
      "depth:", depth_stanley_reisner(two_edges, QQ))

# For posets there is an equivalent interval criterion: every open
# interval (with formal endpoints allowed) has order-complex homology
# only in top degree.  Both routes agree, here on a non-CM example.
two_chains = poset_from_cover_relations(
    ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]
)
print("disjoint 2-chains CM via intervals:",
      is_cohen_macaulay_poset(two_chains, QQ))
print("disjoint 2-chains CM via links:   ",
      is_cohen_macaulay_complex(order_complex(two_chains), QQ))

# The same interval pass gives the depth (Hochster's formula, with the link
# of a chain read as a join of intervals) and the Buchsbaum test (pure, and
# every interval but the whole poset Cohen-Macaulay) without building the
# order complex.  The face poset of RP^2 subdivides it, so it inherits its
# characteristic dependence.
faces = sorted(
    {frozenset(c) for f in rp2.facet_labels() for r in (1, 2, 3) for c in combinations(f, r)},
    key=lambda f: (len(f), sorted(f)),
)
face_poset = Poset(
    tuple(",".join(sorted(f)) for f in faces),
    tuple(sum(1 << j for j, g in enumerate(faces) if f < g) for f in faces),
)
for field in (QQ, GF2):
    print(f"face poset of RP^2, char {field.characteristic}:",
          "depth", depth_poset(face_poset, field),
          "buchsbaum", is_buchsbaum_poset(face_poset, field),
          "vs links:", complex_report(order_complex(face_poset), field)["depth"])
print("disjoint 2-chains depth via intervals:", depth_poset(two_chains, QQ),
      "buchsbaum:", is_buchsbaum_poset(two_chains, QQ))
