"""Rees-construction criteria for a poset P with a poset ideal Q.

Three equivalent detectors of a negative a-invariant of the associated
graded ring of the discrete algebra: the top-mu coefficient of the
Hilbert-series numerator, expanded exactly (g_dis_numerator_mu_top); the
same coefficient from Euler characteristics of lower sets of Q
(g_dis_numerator_mu_top_via_lower_sets); and the vanishing of those
(euler_condition_Q, equivalent to euler_condition_interval).

Public functions check Q at entry (poset._ideal_mask).  _rees_facts
takes that mask, or a sweep's orbit mask, and gathers what a pair needs in
any field (the Q condition through euler_condition_Q, the one Q check of a
sweep pair; P (+) Q as relation rows, poset._uplus_rows, never a labelled
Poset); _violations lists the properties the pair breaks, and
_cm_reports (rees_cm_report, the uplus command) reports them.  Both ask
the interval test (is_cohen_macaulay_poset) whether P is Cohen-Macaulay,
and decide P (+) Q once for every field from P's chi~ and the chain
heights of P and P (+) Q (_uplus_cm; poset._heights pushes them up the
covers), with no interval pass of P (+) Q.  For Lemmas 6.5/6.6 they
peel Q* off the rows of P (+) Q as beat points (_peels), which builds no
order complex and reads no homology.  Every chi~ sums one sign vector per poset
(poset._chain_signs).  Only the two numerators list all chains
(_all_chains, the faces of the order complex).  Inside, a numerator is a
dict of chain coefficients: for each chain b outside Q, the nonzero
coefficient of L^(Q u b) * prod(1 - L) over the rest outside Q.  The
direct route adds up chain signs, the lower-set rewrite reads one chi~,
per b.  Each expanded image has its own leading monomial L^(Q u b), so the
sweep compares and tests the dicts unexpanded; only the public
g_dis_numerator_mu_top* expand them (_polynomial, one subset Moebius
transform outside Q: Bjoerklund, Husfeldt, Kaski and Koivisto, "Fourier
meets Moebius: fast subset convolution", STOC 2007).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache

from .errors import DegenerateQWarning, EmptyQError
from .invariants import is_cohen_macaulay_poset
from .poset import Poset, _chain_signs, _heights, _ideal_mask, _reject_star, _uplus_rows, order_complex
from .simplicial import FieldSpec, _Value, _bits, _faces_by_card


class IntPolynomial(_Value):
    """Multivariate polynomial with arbitrary-precision integer coefficients.

    Terms map exponent tuples to nonzero coefficients; not hashable.
    """

    _fields = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: dict[tuple[int, ...], int]):
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "IntPolynomial(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.variables, e) if k)
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return f"IntPolynomial({' + '.join(parts)})"


_DEGENERATE = "Q is empty or all of P; the biconditional is not asserted"


# What a pair (P, Q) gives whatever the field; Q is checked at entry.  The
# numerator is the dict of chain coefficients, None when Q is empty; rows
# is the relation of P (+) Q (poset._uplus_rows), with no labels.
_ReesFacts = namedtuple("_ReesFacts", "qmask cond_q cond_interval numerator rows")


def _nonempty_mask(p: Poset, q: Iterable[str]) -> int:
    qmask = _ideal_mask(p, q)
    if not qmask:
        raise EmptyQError("Q must be nonempty")
    return qmask


def _rees_facts(p: Poset, qmask: int) -> _ReesFacts:
    return _ReesFacts(
        qmask,
        euler_condition_Q(p, [p.elements[i] for i in _bits(qmask)]),
        _interval_vanishes(p, qmask),
        _numerator(p, qmask) if qmask else None,
        _uplus_rows(p.lt, qmask),
    )


# What the pairs of one poset P share, whatever Q: poset._chain_signs of P,
# the mask of the x with chi~((-inf, x)) != 0, chi~(P), the index of P's
# unique minimal element (None if it has none), and the heights of its
# elements (poset._heights).
_PosetFacts = namedtuple("_PosetFacts", "signs nonzero chi least heights")


def _chi(signs: tuple[int, ...], mask: int) -> int:
    """chi~ of a down-closed mask, from the chain signs of its poset."""
    total = -1
    while mask:
        low = mask & -mask
        total += signs[low.bit_length() - 1]
        mask ^= low
    return total


@lru_cache(maxsize=16)
def _poset_facts(p: Poset) -> _PosetFacts:
    """Cached, so that the pairs of one poset share its Euler data."""
    cols = p.down_masks()
    signs = _chain_signs(cols)
    nonzero = sum(1 << x for x, down in enumerate(cols) if _chi(signs, down))
    least = cols.index(0) if cols.count(0) == 1 else None
    return _PosetFacts(signs, nonzero, sum(signs) - 1, least, _heights(p))


@lru_cache(maxsize=16)
def _all_chains(p: Poset) -> tuple[int, ...]:
    """Bitmasks of all chains of p, the empty one included: the faces of its
    order complex.  Cached per poset."""
    return tuple(c for level in _faces_by_card(order_complex(p).facets) for c in level)


def _interval_vanishes(p: Poset, qmask: int) -> bool:
    """chi~((-inf, x)_P) = 0 for every x in (P u {inf}) \\ Q."""
    facts = _poset_facts(p)
    return facts.chi == 0 and not facts.nonzero & ~qmask


def euler_condition_Q(p: Poset, q: Iterable[str]) -> bool:
    """True iff chi~({y in Q | y < x}) = 0 for every x in (P u {inf}) \\ Q."""
    qmask = _ideal_mask(p, q)
    cols = p.down_masks()
    signs = _poset_facts(p).signs
    if _chi(signs, qmask):
        return False
    outside = ((1 << len(p)) - 1) & ~qmask
    while outside:
        low = outside & -outside
        if _chi(signs, cols[low.bit_length() - 1] & qmask):
            return False
        outside ^= low
    return True


def euler_condition_interval(p: Poset, q: Iterable[str]) -> bool:
    """True iff chi~((-inf, x)_P) = 0 for every x in (P u {inf}) \\ Q."""
    return _interval_vanishes(p, _ideal_mask(p, q))


def _polynomial(p: Poset, qmask: int, coeffs: dict[int, int]) -> IntPolynomial:
    """The expanded numerator of the chain coefficients coeffs (see above).

    Expanding is the subset Moebius transform over the coordinates outside
    Q, acc[s] = sum over b in s of (-1)^|s - b| coeffs[b], one coordinate
    at a time; zero entries pass nothing on, so only nonzero ones are stored.
    """
    rest = ((1 << len(p)) - 1) & ~qmask
    acc = dict(coeffs)
    for i in _bits(rest):
        bit = 1 << i
        for s, c in list(acc.items()):
            if c and not s & bit:
                acc[s | bit] = acc.get(s | bit, 0) - c
    bits = range(len(p))
    return IntPolynomial(p.elements, {tuple([(qmask | s) >> i & 1 for i in bits]): c for s, c in acc.items()})


def g_dis_numerator_mu_top(p: Poset, q: Iterable[str]) -> IntPolynomial:
    """Top-mu coefficient of the multigraded Hilbert-series numerator of the
    associated graded ring of k[P]/(incomparable products) along Q.

    Each chain sigma of P contributes
    prod_{x in sigma} L_x * prod_{x in Q \\ sigma} (-L_x)
    * prod_{x not in sigma u Q} (1 - L_x),
    summed exactly over the integers.
    """
    qmask = _nonempty_mask(p, q)
    return _polynomial(p, qmask, _numerator(p, qmask))


def _numerator(p: Poset, qmask: int) -> dict[int, int]:
    # the chains sigma with sigma - Q = b share the factor
    # prod_{Q u b} L * prod_{rest - b} (1 - L): add up their signs per b
    rest = ((1 << len(p)) - 1) & ~qmask
    acc: dict[int, int] = {}
    for sigma in _all_chains(p):
        b = sigma & rest
        acc[b] = acc.get(b, 0) + (-1 if (qmask & ~sigma).bit_count() % 2 else 1)
    return {b: c for b, c in acc.items() if c}


def g_dis_numerator_mu_top_via_lower_sets(p: Poset, q: Iterable[str]) -> IntPolynomial:
    """The same coefficient, re-assembled from Euler characteristics of
    lower sets of Q: (-1)^(|Q|+1) * prod_{Q} L * sum over chains tau
    disjoint from Q of chi~({y in Q | y < min tau}) * prod_{tau} L *
    prod_{rest}(1 - L)."""
    qmask = _nonempty_mask(p, q)
    return _polynomial(p, qmask, _lower_set_numerator(p, qmask))


def _lower_set_numerator(p: Poset, qmask: int) -> dict[int, int]:
    full = (1 << len(p)) - 1
    cols = p.down_masks()
    signs = _poset_facts(p).signs
    lead = -1 if (qmask.bit_count() + 1) % 2 else 1
    acc: dict[int, int] = {}
    for tau in _all_chains(p):
        if tau & qmask:
            continue
        # {y in Q | y < min tau}; min(empty u {inf}) = inf gives all of Q
        low = full
        for i in _bits(tau):
            if not (cols[i] & tau):
                low = cols[i]
                break
        c = _chi(signs, low & qmask)
        if c:
            acc[tau] = lead * c
    return acc


def a_invariant_negative(p: Poset, q: Iterable[str]) -> bool:
    """True iff the top-mu numerator coefficient vanishes identically."""
    return not _numerator(p, _nonempty_mask(p, q))


def rees_cm_report(p: Poset, q: Iterable[str], field: FieldSpec) -> dict:
    """Cohen-Macaulay/a-invariant report for the pair (P, Q).

    ``consistent`` asserts that the pair violates none of the properties
    the sweep checks (_violations): among them, the agreement of the
    Euler-characteristic conditions with a-invariant negativity and, when P
    is Cohen-Macaulay, of the Cohen-Macaulay property of P (+) Q with
    a-invariant negativity.  For Q empty or Q = P the hypotheses of the
    biconditional fail: the
    flags are still reported, consistency is not asserted (None), and a
    DegenerateQWarning is emitted.
    """
    qmask = _ideal_mask(p, q)
    _reject_star(p)  # as uplus(p, q) would
    report = _cm_reports(p, _rees_facts(p, qmask), [field])[0]
    if report["degenerate"]:
        warnings.warn(_DEGENERATE, DegenerateQWarning, stacklevel=2)
    return report


def _cm_reports(p: Poset, facts: _ReesFacts, fields: list[FieldSpec]) -> list[dict]:
    """rees_cm_report in each field, from the facts of one pair; no warning."""
    degenerate = facts.qmask == 0 or facts.qmask == (1 << len(p)) - 1
    per_field = _field_data(p, fields)
    cm_up = any(cm_p for _, cm_p in per_field) and _uplus_cm(p, facts)
    failed = set() if degenerate else {char for _, char in _violations(p, facts, per_field)}
    return [{
        "schema_version": 1,
        "field": {"char": f.characteristic},
        "cm_P": cm_p,
        "cm_uplus": cm_p and cm_up,
        "a_negative": None if facts.numerator is None else not facts.numerator,
        "cond_Q": facts.cond_q,
        "cond_interval": facts.cond_interval,
        "degenerate": degenerate,
        "consistent": None if degenerate else not failed & {None, f.characteristic},
    } for f, cm_p in per_field]


def _field_data(p: Poset, fields: list[FieldSpec]) -> list[tuple[FieldSpec, bool]]:
    """(field, Cohen-Macaulayness of P) in each field."""
    return [(f, is_cohen_macaulay_poset(p, f)) for f in fields]


def _peels(rows: tuple[int, ...], n: int, mask: int) -> bool:
    """True iff the starred elements of mask (indices n and up: Q* in
    the rows of P (+) Q) can be deleted one by one, each a beat point of
    what is left: its up-set in the mask has exactly one minimal element.
    Each deletion is a strong deformation retraction of the order complex
    (Stong, "Finite topological spaces", Trans. AMS 123, 1966; Barmak and
    Minian, "Strong homotopy types, nerves and collapses", 2012).  A pass
    tries the highest index first; passes repeat while they delete
    something.
    """
    while mask >> n:
        before = mask
        stars = mask >> n << n
        while stars:
            x = stars.bit_length() - 1
            stars ^= 1 << x
            # the minimal elements of the up-set: clear what lies above each
            # one left; what lies above a cleared one is cleared already
            above = t = rows[x] & mask
            while t:
                low = t & -t
                up = rows[low.bit_length() - 1]
                above &= ~up
                t &= ~(up | low)
            if above and not above & (above - 1):
                mask ^= 1 << x
        if mask == before:
            return False
    return True


def _uplus_cm(p: Poset, facts: _ReesFacts) -> bool:
    """Whether P (+) Q is Cohen-Macaulay in the fields where P is (in no
    other is it); one answer for every field, with no interval pass.

    Let P be Cohen-Macaulay over k.  The intervals (a, b) of P (+) Q with a
    in P are P's, and (x*, y*), (-inf, y*) copy P's (x, y), (-inf, y).  The
    rest have a in {-inf} u Q* and b in P u {+inf}.  A monotone map f of
    such an interval I into itself with f <= id or f >= id makes I homotopy
    equivalent to f(I) (Quillen, "Homotopy properties of the poset of
    nontrivial p-subgroups of a group", Adv. Math. 28, 1978, 1.3):
    - (x*, b), b not in Q: z* -> z leaves {z | x <= z < b}, a cone on x;
    - (-inf, b), b in Q: z -> z* leaves {z* | z <= b}, a cone on b*;
    - (-inf, b), b not in Q: z -> z* (z in Q) leaves a copy of P's (-inf, b).
    (x*, b) with b in Q is the proper part of [x, b] x {0 < 1}, the
    suspension of P's (x, b) (Walker, "Canonical homeomorphisms of
    posets", Europ. J. Combin. 9, 1988), so it passes as P's does.  Left
    are (-inf, b), b not in Q or +inf.  P's has homology in its dimension
    alone, so it is acyclic iff its chi~, the same in every field, is 0;
    else P (+) Q's passes iff it has that dimension too: iff b is as high
    in P (+) Q as in P (for +inf: the longest chains are as long).

    Conversely, if P fails over k at (a, b) with a in P, so does P (+) Q;
    at (-inf, y), y in Q, P (+) Q fails at (-inf, y*); at (-inf, b), b not
    in Q or +inf, P (+) Q's (-inf, b) is homotopy equivalent to P's and of
    no smaller dimension, so it too has homology below its top degree.
    """
    pf = _poset_facts(p)
    check = pf.nonzero & ~facts.qmask
    if not (check or pf.chi):
        return True
    up = _heights(p, facts.qmask)
    return all(up[b] == pf.heights[b] for b in _bits(check)) and not (
        pf.chi and max(up, default=0) > max(pf.heights, default=0))


def _violations(p: Poset, facts: _ReesFacts, per_field) -> Iterator[tuple[str, int | None]]:
    """The properties the pair (P, Q) violates, lazily and in a fixed order,
    as (kind, characteristic or None if field-independent); next() gives
    the first.  per_field is _field_data(P, fields).  Checked: the Euler
    conditions, both numerators and a-invariant negativity agree; Lemmas
    6.5/6.6; and, for P Cohen-Macaulay, Theorem 6.3 and the a-invariant
    biconditional, on P (+) Q's Cohen-Macaulayness from _uplus_cm.

    Each maximal y* of Q* has the one upper cover y, so Q* peels off as
    beat points (_peels): Delta(P (+) Q) retracts onto Delta(P), and, for P
    with unique minimum m, P (+) Q - m* onto P, a cone on m.  A peel
    certifies its lemma in every field; a failed peel is the violation.
    """
    qmask = facts.qmask
    if facts.cond_q != facts.cond_interval:
        yield "euler-conditions-disagree", None
    if qmask:
        a_neg = not facts.numerator
        if facts.numerator != _lower_set_numerator(p, qmask):
            yield "numerator-routes-disagree", None
        if a_neg != facts.cond_q:
            yield "a-invariant-vs-euler", None
    least = _poset_facts(p).least
    rows, n = facts.rows, len(p)
    full = (1 << len(rows)) - 1
    if not _peels(rows, n, full):
        yield "uplus-does-not-peel", None
    # P's minimum m lies in Q, and m* is least in P (+) Q: it follows P
    # and the stars of the elements of Q before m
    if least is not None and qmask:
        star = n + (qmask & ((1 << least) - 1)).bit_count()
        if not _peels(rows, n, full & ~(1 << star)):
            yield "deleted-star-does-not-peel", None
    cm_up = any(cm_p for _, cm_p in per_field) and _uplus_cm(p, facts)
    for f, cm_p in per_field:
        char = f.characteristic
        if cm_p and facts.cond_interval and not cm_up:
            yield "interval-condition-but-not-cm", char
        if cm_p and least is not None and not cm_up:
            yield "unique-min-but-not-cm", char
        if cm_p and qmask and qmask.bit_count() < len(p) and cm_up != a_neg:
            yield "biconditional-fails", char
