"""Monomial ideals: polarization, radical, colon, and a depth-collapse family.

The star example is the quadratic ideal in the entries of a generic
symmetric n x n matrix generated by X_ij X_kl whenever j > k and l > i.
Its quotient has dimension n but depth only 2, and stripping the two free
variables X_11, X_nn leaves a core of dimension n-2 and depth 0: the gap
between dimension and depth grows without bound in a family whose
"straightened" origin is Cohen-Macaulay.

Run:  python demos/03_polarization_and_depth.py
"""

from srposet import (
    GF2,
    QQ,
    a_dis_ideal_t2,
    build_minor_hodge_data,
    colon_monomial,
    core_hodge,
    depth_monomial_quotient,
    depth_stanley_reisner,
    dim_monomial_quotient,
    hodge_quotient,
    ideal_from_strings,
    omega_ideal,
    polarize,
    radical_monomial,
    reproduce_section3,
    stanley_reisner_complex,
)

# Polarization replaces x^d by x * x(2) * ... * x(d); the result is
# squarefree and differences of matched variables form a regular
# sequence, so dim - depth is preserved.
ideal = ideal_from_strings(("x", "y"), [[("x", 2)], [("x", 1), ("y", 1)]])
polarized, aux = polarize(ideal)
print("polarize (x^2, xy):", polarized.generator_strings(), "aux:", aux)
print("radical:", radical_monomial(ideal).generator_strings())

# The quadratic symmetric-matrix ideal for n = 3, spelled out.
quad = a_dis_ideal_t2(3)
print("n=3 generators:", quad.generator_strings())
print("dim:", dim_monomial_quotient(quad), "depth:", depth_monomial_quotient(quad, QQ))

# Its core (drop X11, X33, which appear in no generator), colon the
# maximal ideal: a single primary component pops out, exactly.
core_vars = ("X12", "X13", "X22", "X23")
core = ideal_from_strings(
    core_vars,
    [
        [("X12", 2)], [("X12", 1), ("X13", 1)], [("X13", 2)],
        [("X13", 1), ("X22", 1)], [("X13", 1), ("X23", 1)], [("X23", 2)],
    ],
)
maximal = ideal_from_strings(core_vars, [[(v, 1)] for v in core_vars])
print("core colon maximal ideal:",
      colon_monomial(core, maximal).generator_strings())
print("core dim:", dim_monomial_quotient(core),
      "core depth:", depth_monomial_quotient(core, GF2))

# The whole story in one call, for n = 3, 4, 5: dimension n, depth 2,
# core dimension n-2, core depth 0, and the polarized complex really has
# facets of the two announced sizes.
for n in (3, 4, 5):
    rep = reproduce_section3(n, QQ)
    print(f"n={n}:", {k: rep[k] for k in
                      ("dim", "depth", "core_dim", "core_depth",
                       "facet_cards", "facets_verified")})

# Where the ideal comes from: the poset of equal-size bitableaux
# [alpha|beta] with alpha <= beta, governed by quadratic incomparability
# relations; quotienting by the tuples of size >= 2 leaves exactly the
# quadratic ideal above (after renaming [i|j] to Xij).
data = build_minor_hodge_data(3)
print("bitableau poset size:", len(data.poset),
      "relations:", len(data.sigma.generators))
small = hodge_quotient(data, omega_ideal(data, 2))
print("after killing size >= 2:", small.poset.elements)
core_data, regular = core_hodge(small)
print("core drops:", regular)

# Beyond the paper's t = 2: quotienting by the bitableaux of size >= t
# gives the discrete algebra of the symmetric t-minors, of dimension
# (t-1)(2n-t+2)/2 (Kutz, 1974).  At t = 3 the depth is no longer 2.
for n in (3, 4):
    minor_data = build_minor_hodge_data(n)
    minors = hodge_quotient(minor_data, omega_ideal(minor_data, 3)).sigma
    print(f"t=3 n={n}:", {"dim": dim_monomial_quotient(minors),
                          "depth char 0": depth_monomial_quotient(minors, QQ),
                          "depth char 2": depth_monomial_quotient(minors, GF2)})

# The polarized complex itself is available for inspection.
polarized3, aux3 = polarize(quad)
complex3 = stanley_reisner_complex(polarized3)
print("polarized complex:", len(complex3.vertices), "vertices,",
      len(complex3.facets), "facets; sizes",
      sorted({f.bit_count() for f in complex3.facets}))

# depth_monomial_quotient never polarizes: it takes the least depth of the
# Stanley-Reisner rings of the radicals of I : x^b (Takayama's formula).
# Polarization gives the same number: the aux extra variables form a
# regular sequence, so the polarized depth exceeds it by exactly aux.
polarized_depth = depth_stanley_reisner(complex3, QQ)
print("polarized depth", polarized_depth, "- aux", aux3, "=",
      polarized_depth - aux3, "= depth", depth_monomial_quotient(quad, QQ))
