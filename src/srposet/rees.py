"""Rees-construction criteria for a poset P with a poset ideal Q.

Three equivalent detectors of the negativity of the a-invariant of the
associated graded ring of the discrete algebra:

* the top-mu coefficient of the bigraded Hilbert-series numerator,
  expanded exactly over the integers (g_dis_numerator_mu_top);
* the same coefficient re-assembled from reduced Euler characteristics
  of lower sets of Q (g_dis_numerator_mu_top_via_lower_sets);
* the vanishing of those Euler characteristics themselves
  (euler_condition_Q), equivalent to euler_condition_interval.

rees_cm_report packages the detectors with the Cohen-Macaulay tests of P
and of P (+) Q.

The public functions check Q at their entry and then work on its bitmask.
_rees_facts checks Q once and gathers what a pair needs whatever the
field: both Euler conditions, the direct numerator and P (+) Q.  The
report, the uplus command and the sweep read it.  The chains of P, chi~(P)
and the x with chi~((-inf, x)) nonzero are computed once per poset (a
small cache keyed by the poset), so the interval condition is one mask
test.  The direct numerator adds up the chain signs for each sigma u Q and
then applies one subset Moebius transform over the coordinates outside Q
(Bjoerklund, Husfeldt, Kaski and Koivisto, "Fourier meets Moebius: fast
subset convolution", STOC 2007).  The lower-set rewrite keeps its own
chain-by-chain expansion, so the routes stay independent.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import DegenerateQWarning, EmptyQError, NotAnIdealError
from .invariants import is_cohen_macaulay_complex
from .poset import (
    Poset,
    _is_closed,
    _subset_mask,
    _uplus_mask,
    euler_char_restricted,
    order_complex,
)
from .simplicial import FieldSpec, _bits


class IntPolynomial:
    """Multivariate polynomial with arbitrary-precision integer coefficients.

    Terms map exponent tuples to nonzero coefficients.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: dict[tuple[int, ...], int]):
        self.variables = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.variables != other.variables:
            raise ValueError("variable sets differ")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.variables, terms)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "IntPolynomial(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e)
                if k
            )
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return f"IntPolynomial({' + '.join(parts)})"


class _ReesFacts(NamedTuple):
    """What a pair (P, Q) gives whatever the field, with Q checked once."""

    qmask: int
    cond_q: bool
    cond_interval: bool
    numerator: IntPolynomial | None  # None when Q is empty
    uplus: Poset


def _validated_masks(p: Poset, q: Iterable[str]) -> int:
    qmask = _subset_mask(p, q)
    if not _is_closed(p.down_masks(), qmask):
        raise NotAnIdealError("Q is not a poset ideal of P")
    return qmask


def _nonempty_mask(p: Poset, q: Iterable[str]) -> int:
    qmask = _validated_masks(p, q)
    if not qmask:
        raise EmptyQError("Q must be nonempty")
    return qmask


def _rees_facts(p: Poset, q: Iterable[str]) -> _ReesFacts:
    qmask = _validated_masks(p, q)
    return _ReesFacts(
        qmask,
        _euler_vanishes(p.down_masks(), qmask),
        _interval_vanishes(p, qmask),
        _numerator(p, qmask) if qmask else None,
        _uplus_mask(p, qmask),
    )


class _PosetFacts(NamedTuple):
    """What the pairs of one poset P share, whatever Q."""

    chains: tuple[int, ...]  # bitmasks of all chains, the empty one included
    nonzero: int  # mask of the x with chi~((-inf, x)) != 0
    chi: int  # chi~(P)


@lru_cache(maxsize=16)
def _poset_facts(p: Poset) -> _PosetFacts:
    """Cached, so that the pairs of one poset share its chains and Euler data."""
    n = len(p)
    cols = p.down_masks()
    nonzero = sum(1 << x for x in range(n) if euler_char_restricted(cols, cols[x]))
    order = sorted(range(n), key=lambda i: cols[i].bit_count())
    chains = [0]
    ending: dict[int, list[int]] = {}
    for i in order:
        mine = [1 << i]
        for j in _bits(cols[i]):
            mine.extend(c | (1 << i) for c in ending[j])
        ending[i] = mine
        chains.extend(mine)
    return _PosetFacts(tuple(chains), nonzero, euler_char_restricted(cols, (1 << n) - 1))


def _euler_vanishes(cols: tuple[int, ...], qmask: int) -> bool:
    """chi~({y in Q | y < x}) = 0 for every x in (P u {inf}) \\ Q."""
    outside = ((1 << len(cols)) - 1) & ~qmask
    return all(
        euler_char_restricted(cols, cols[x] & qmask) == 0 for x in _bits(outside)
    ) and euler_char_restricted(cols, qmask) == 0


def _interval_vanishes(p: Poset, qmask: int) -> bool:
    """chi~((-inf, x)_P) = 0 for every x in (P u {inf}) \\ Q."""
    facts = _poset_facts(p)
    return facts.chi == 0 and not facts.nonzero & ~qmask


def euler_condition_Q(p: Poset, q: Iterable[str]) -> bool:
    """True iff chi~({y in Q | y < x}) = 0 for every x in (P u {inf}) \\ Q."""
    qmask = _validated_masks(p, q)
    return _euler_vanishes(p.down_masks(), qmask)


def euler_condition_interval(p: Poset, q: Iterable[str]) -> bool:
    """True iff chi~((-inf, x)_P) = 0 for every x in (P u {inf}) \\ Q."""
    return _interval_vanishes(p, _validated_masks(p, q))


def _polynomial(p: Poset, acc: dict[int, int]) -> IntPolynomial:
    """The polynomial with coefficient acc[m] on the squarefree monomial m."""
    bits = range(len(p))
    return IntPolynomial(
        p.elements,
        {tuple([m >> i & 1 for i in bits]): c for m, c in acc.items() if c},
    )


def g_dis_numerator_mu_top(p: Poset, q: Iterable[str]) -> IntPolynomial:
    """Top-mu coefficient of the multigraded Hilbert-series numerator of the
    associated graded ring of k[P]/(incomparable products) along Q.

    Each chain sigma of P contributes
    prod_{x in sigma} L_x * prod_{x in Q \\ sigma} (-L_x)
    * prod_{x not in sigma u Q} (1 - L_x),
    summed exactly over the integers.
    """
    return _numerator(p, _nonempty_mask(p, q))


def _numerator(p: Poset, qmask: int) -> IntPolynomial:
    # The chains with one union sigma u Q = Q u b share the factor
    # prod_{Q u b} L * prod_{rest - b} (1 - L), so first add up their signs
    # per b; expanding the products is then the subset Moebius transform
    # over the coordinates outside Q, acc[s] = sum over b in s of
    # (-1)^|s - b| acc[b], one coordinate at a time.  Zero entries pass
    # nothing on, so only the nonzero ones are stored.
    rest = ((1 << len(p)) - 1) & ~qmask
    acc: dict[int, int] = {}
    for sigma in _poset_facts(p).chains:
        b = sigma & rest
        acc[b] = acc.get(b, 0) + (-1 if (qmask & ~sigma).bit_count() % 2 else 1)
    for i in _bits(rest):
        bit = 1 << i
        for s, c in list(acc.items()):
            if c and not s & bit:
                acc[s | bit] = acc.get(s | bit, 0) - c
    return _polynomial(p, {qmask | s: c for s, c in acc.items()})


def g_dis_numerator_mu_top_via_lower_sets(p: Poset, q: Iterable[str]) -> IntPolynomial:
    """The same coefficient, re-assembled from Euler characteristics of
    lower sets of Q: (-1)^(|Q|+1) * prod_{Q} L * sum over chains tau
    disjoint from Q of chi~({y in Q | y < min tau}) * prod_{tau} L *
    prod_{rest}(1 - L)."""
    qmask = _nonempty_mask(p, q)
    full = (1 << len(p)) - 1
    cols = p.down_masks()
    chi_of: dict[int, int] = {}
    lead = -1 if (qmask.bit_count() + 1) % 2 else 1
    acc: dict[int, int] = {}
    for tau in _poset_facts(p).chains:
        if tau & qmask:
            continue
        # {y in Q | y < min tau}; min(empty u {inf}) = inf gives all of Q
        low = full
        for i in _bits(tau):
            if not (cols[i] & tau):
                low = cols[i]
                break
        low &= qmask
        c = chi_of.get(low)
        if c is None:
            c = chi_of[low] = euler_char_restricted(cols, low)
        if c == 0:
            continue
        c *= lead
        base = tau | qmask
        rest = full & ~base
        t = rest
        while True:
            key = base | t
            acc[key] = acc.get(key, 0) + (-c if t.bit_count() % 2 else c)
            if t == 0:
                break
            t = (t - 1) & rest
    return _polynomial(p, acc)


def a_invariant_negative(p: Poset, q: Iterable[str]) -> bool:
    """True iff the top-mu numerator coefficient vanishes identically."""
    return g_dis_numerator_mu_top(p, q).is_zero()


def rees_cm_report(p: Poset, q: Iterable[str], field: FieldSpec) -> dict:
    """Cohen-Macaulay/a-invariant report for the pair (P, Q).

    ``consistent`` asserts the agreement of the Euler-characteristic
    conditions with a-invariant negativity and, when P is Cohen-Macaulay,
    of the Cohen-Macaulay property of P (+) Q with a-invariant negativity.
    For Q empty or Q = P the hypotheses of the biconditional fail: the
    flags are still reported, consistency is not asserted (None), and a
    DegenerateQWarning is emitted.
    """
    return _cm_reports(p, _rees_facts(p, q), [field])[0]


def _cm_reports(p: Poset, facts: _ReesFacts, fields: list[FieldSpec]) -> list[dict]:
    """rees_cm_report in each field, from the facts of one pair; the order
    complexes are built once for all fields."""
    degenerate = facts.qmask == 0 or facts.qmask == (1 << len(p)) - 1
    if degenerate:
        warnings.warn(
            "Q is empty or all of P; the biconditional is not asserted",
            DegenerateQWarning,
            stacklevel=3,
        )
    a_neg = None if facts.numerator is None else facts.numerator.is_zero()
    delta_p = order_complex(p)
    delta_up = order_complex(facts.uplus)
    reports = []
    for field in fields:
        cm_p = is_cohen_macaulay_complex(delta_p, field)
        cm_uplus = is_cohen_macaulay_complex(delta_up, field)
        if degenerate:
            consistent = None
        else:
            consistent = (
                facts.cond_q == facts.cond_interval == a_neg
                and (not cm_p or cm_uplus == a_neg)
            )
        reports.append({
            "schema_version": 1,
            "field": {"char": field.characteristic},
            "cm_P": cm_p,
            "cm_uplus": cm_uplus,
            "a_negative": a_neg,
            "cond_Q": facts.cond_q,
            "cond_interval": facts.cond_interval,
            "degenerate": degenerate,
            "consistent": consistent,
        })
    return reports
