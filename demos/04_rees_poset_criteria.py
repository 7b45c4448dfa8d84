"""When does duplicating an ideal preserve the Cohen-Macaulay property?

For a poset P with a poset ideal Q, the duplicated poset P (+) Q generates
the Rees construction of the discrete algebra along Q.  Three detectors
coincide:

  * vanishing of chi~({y in Q | y < x}) for every x outside Q (and x = inf),
  * vanishing of chi~((-inf, x)_P) over the same range,
  * vanishing of the top-mu coefficient of the bigraded Hilbert-series
    numerator (the a-invariant test), expanded exactly over Z.

And for Cohen-Macaulay P with a nonempty proper ideal Q, the duplicated
poset is Cohen-Macaulay exactly when the a-invariant is negative.

Run:  python demos/04_rees_poset_criteria.py
"""

import warnings

from srposet import (
    GF2,
    QQ,
    a_invariant_negative,
    all_poset_ideals,
    enumerate_posets,
    euler_condition_Q,
    euler_condition_interval,
    g_dis_numerator_mu_top,
    g_dis_numerator_mu_top_via_lower_sets,
    is_cohen_macaulay_poset,
    order_complex,
    poset_from_cover_relations,
    rees_cm_report,
    uplus,
)

# A chain with its minimum duplicated: everything holds.
chain = poset_from_cover_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
report = rees_cm_report(chain, ["a"], QQ)
print("chain, Q={a}:", {k: report[k] for k in
                        ("cm_P", "cm_uplus", "a_negative",
                         "cond_Q", "cond_interval", "consistent")})

# A two-point antichain with one point duplicated: P is Cohen-Macaulay,
# but the condition fails (the set below b inside Q is empty, chi~ = -1),
# the numerator is a single monomial, and P (+) Q is indeed not CM.
antichain = poset_from_cover_relations(["a", "b"], [])
print("antichain numerator:", g_dis_numerator_mu_top(antichain, ["a"]))
print("same via lower-set rewrite:",
      g_dis_numerator_mu_top_via_lower_sets(antichain, ["a"]))
print("a-invariant negative:", a_invariant_negative(antichain, ["a"]))
up = uplus(antichain, ["a"])
print("P (+) Q facets:", order_complex(up).facet_labels(),
      "-> CM:", is_cohen_macaulay_poset(up, QQ))

# Unique minimal element: every ideal works (each lower set is a cone).
diamond = poset_from_cover_relations(
    ["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")]
)
for q in all_poset_ideals(diamond):
    if q and len(q) < 4:
        assert a_invariant_negative(diamond, q)
print("unique-minimum poset: a-invariant negative for all proper ideals")

# Degenerate ideals are reported, not asserted.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    degenerate = rees_cm_report(chain, [], GF2)
print("Q = {}: degenerate:", degenerate["degenerate"],
      "consistent:", degenerate["consistent"])

# A miniature sweep: every poset on four labelled elements, every ideal,
# both characteristics; the three detectors and the biconditional never
# disagree.
pairs = 0
for p in enumerate_posets(["a", "b", "c", "d"]):
    for q in all_poset_ideals(p):
        assert euler_condition_Q(p, q) == euler_condition_interval(p, q)
        if not q:
            continue
        a_neg = a_invariant_negative(p, q)
        assert a_neg == euler_condition_Q(p, q)
        for field in (QQ, GF2):
            if len(q) < len(p) and is_cohen_macaulay_poset(p, field):
                cm_up = is_cohen_macaulay_poset(uplus(p, q), field)
                assert cm_up == a_neg
        pairs += 1
print(f"mini-sweep clean on {pairs} (poset, nonempty ideal) pairs")
