"""srposet: exact combinatorial invariants of posets, simplicial complexes
and monomial ideals.

Cohen-Macaulay/Buchsbaum/purity tests, Stanley-Reisner depth from link
homology, monomial-ideal polarization, and the duplicated-ideal (Rees)
poset construction P (+) Q with its Euler-characteristic criteria.
"""

from .errors import (
    CapExceededError,
    CycleError,
    DegenerateQWarning,
    EmptyComplexError,
    EmptyQError,
    NotAFaceError,
    NotAnIdealError,
    NotComparableError,
    NotSquarefreeError,
    SRPosetError,
    UnitIdealError,
    UnknownLabelError,
    UnknownVertexError,
)
from .poset import (
    NEG_INF,
    POS_INF,
    Poset,
    all_poset_ideals,
    enumerate_posets,
    ideal_from_json,
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
from .simplicial import (
    GF2,
    QQ,
    BettiVector,
    FieldSpec,
    SimplicialComplex,
    complex_from_facets,
    complex_from_json,
    complex_to_json,
    is_equidimensional,
    link,
    reduced_betti_numbers,
    reduced_euler_char_complex,
)
from .invariants import (
    complex_report,
    depth_poset,
    depth_stanley_reisner,
    is_buchsbaum_complex,
    is_buchsbaum_poset,
    is_cohen_macaulay_complex,
    is_cohen_macaulay_poset,
    krull_dim_stanley_reisner,
)
from .monomial import (
    HodgeData,
    MonomialIdeal,
    colon_monomial,
    core_hodge,
    depth_monomial_quotient,
    dim_monomial_quotient,
    hodge_quotient,
    ideal_from_generators,
    ideal_from_json as monomial_ideal_from_json,
    ideal_from_strings,
    ideal_to_json as monomial_ideal_to_json,
    polar_variable_name,
    polarize,
    radical_monomial,
    stanley_reisner_complex,
)
from .rees import (
    IntPolynomial,
    a_invariant_negative,
    euler_condition_Q,
    euler_condition_interval,
    g_dis_numerator_mu_top,
    g_dis_numerator_mu_top_via_lower_sets,
    rees_cm_report,
)
from .detsym import (
    a_dis_ideal_t2,
    build_minor_hodge_data,
    omega_ideal,
    reproduce_section3,
    section3_facets,
    tuple_leq,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
