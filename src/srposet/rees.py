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
"""

from __future__ import annotations

import warnings
from typing import Iterable

from .errors import DegenerateQWarning, EmptyQError, NotAnIdealError
from .invariants import is_cohen_macaulay_complex
from .poset import (
    Poset,
    _subset_mask,
    euler_char_restricted,
    is_poset_ideal,
    order_complex,
    uplus,
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

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.variables != other.variables:
            raise ValueError("variable sets differ")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return IntPolynomial(self.variables, terms)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.variables != other.variables:
            raise ValueError("variable sets differ")
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return IntPolynomial(self.variables, terms)

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


def _validated_masks(p: Poset, q: Iterable[str]) -> int:
    qmask = _subset_mask(p, q)
    if not is_poset_ideal(p, [p.elements[i] for i in _bits(qmask)]):
        raise NotAnIdealError("Q is not a poset ideal of P")
    return qmask


def _all_chain_masks(p: Poset) -> list[int]:
    """Bitmasks of all chains of p, the empty chain included."""
    n = len(p)
    cols = p.down_masks()
    order = sorted(range(n), key=lambda i: cols[i].bit_count())
    chains = [0]
    ending: dict[int, list[int]] = {}
    for i in order:
        mine = [1 << i]
        m = cols[i]
        while m:
            j = (m & -m).bit_length() - 1
            mine.extend(c | (1 << i) for c in ending[j])
            m &= m - 1
        ending[i] = mine
        chains.extend(mine)
    return chains


def euler_condition_Q(p: Poset, q: Iterable[str]) -> bool:
    """True iff chi~({y in Q | y < x}) = 0 for every x in (P u {inf}) \\ Q."""
    qmask = _validated_masks(p, q)
    cols = p.down_masks()
    n = len(p)
    for x in range(n):
        if (qmask >> x) & 1:
            continue
        if euler_char_restricted(cols, cols[x] & qmask) != 0:
            return False
    return euler_char_restricted(cols, qmask) == 0


def euler_condition_interval(p: Poset, q: Iterable[str]) -> bool:
    """True iff chi~((-inf, x)_P) = 0 for every x in (P u {inf}) \\ Q."""
    qmask = _validated_masks(p, q)
    cols = p.down_masks()
    n = len(p)
    for x in range(n):
        if (qmask >> x) & 1:
            continue
        if euler_char_restricted(cols, cols[x]) != 0:
            return False
    return euler_char_restricted(cols, (1 << n) - 1) == 0


def _terms_from_mask_coeffs(n: int, acc: dict[int, int]) -> dict[tuple[int, ...], int]:
    out = {}
    for mask, c in acc.items():
        if c:
            out[tuple((mask >> i) & 1 for i in range(n))] = c
    return out


def g_dis_numerator_mu_top(p: Poset, q: Iterable[str]) -> IntPolynomial:
    """Top-mu coefficient of the multigraded Hilbert-series numerator of the
    associated graded ring of k[P]/(incomparable products) along Q.

    Expanded exactly over the integers by direct summation over the chains
    of P: each chain sigma contributes
    prod_{x in sigma} L_x * prod_{x in Q \\ sigma} (-L_x)
    * prod_{x not in sigma u Q} (1 - L_x).
    """
    qmask = _validated_masks(p, q)
    if not qmask:
        raise EmptyQError("Q must be nonempty")
    n = len(p)
    full = (1 << n) - 1
    acc: dict[int, int] = {}
    for sigma in _all_chain_masks(p):
        base = sigma | qmask
        sign = -1 if (qmask & ~sigma).bit_count() % 2 else 1
        rest = full & ~base
        # expand prod over rest of (1 - L): subsets t with sign (-1)^|t|
        t = rest
        while True:
            s = -sign if t.bit_count() % 2 else sign
            key = base | t
            acc[key] = acc.get(key, 0) + s
            if t == 0:
                break
            t = (t - 1) & rest
    return IntPolynomial(p.elements, _terms_from_mask_coeffs(n, acc))


def g_dis_numerator_mu_top_via_lower_sets(p: Poset, q: Iterable[str]) -> IntPolynomial:
    """The same coefficient, re-assembled from Euler characteristics of
    lower sets of Q: (-1)^(|Q|+1) * prod_{Q} L * sum over chains tau
    disjoint from Q of chi~({y in Q | y < min tau}) * prod_{tau} L *
    prod_{rest}(1 - L)."""
    qmask = _validated_masks(p, q)
    if not qmask:
        raise EmptyQError("Q must be nonempty")
    n = len(p)
    full = (1 << n) - 1
    cols = p.down_masks()
    sub = p._restrict_idx([i for i in range(n) if not (qmask >> i) & 1])
    outer_map = [p.index(e) for e in sub.elements]
    chi_cache: dict[int, int] = {}

    def chi(mask: int) -> int:
        got = chi_cache.get(mask)
        if got is None:
            got = euler_char_restricted(cols, mask)
            chi_cache[mask] = got
        return got

    lead = -1 if (qmask.bit_count() + 1) % 2 else 1
    acc: dict[int, int] = {}
    for tau_sub in _all_chain_masks(sub):
        tau = 0
        for j in _bits(tau_sub):
            tau |= 1 << outer_map[j]
        # {y in Q | y < min tau}; min(empty u {inf}) = inf gives all of Q
        low = full
        for i in _bits(tau):
            if not (cols[i] & tau):
                low = cols[i]
                break
        c = chi(low & qmask)
        if c == 0:
            continue
        base = tau | qmask
        rest = full & ~base
        t = rest
        while True:
            s = -c if t.bit_count() % 2 else c
            key = base | t
            acc[key] = acc.get(key, 0) + lead * s
            if t == 0:
                break
            t = (t - 1) & rest
    return IntPolynomial(p.elements, _terms_from_mask_coeffs(n, acc))


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
    qset = frozenset(q)
    qmask = _validated_masks(p, qset)
    degenerate = qmask == 0 or qmask == (1 << len(p)) - 1
    if degenerate:
        warnings.warn(
            "Q is empty or all of P; the biconditional is not asserted",
            DegenerateQWarning,
            stacklevel=2,
        )
    uplus_poset = uplus(p, qset)
    cm_p = is_cohen_macaulay_complex(order_complex(p), field)
    cm_uplus = is_cohen_macaulay_complex(order_complex(uplus_poset), field)
    cond_q = euler_condition_Q(p, qset)
    cond_interval = euler_condition_interval(p, qset)
    a_neg = a_invariant_negative(p, qset) if qmask else None
    if degenerate:
        consistent = None
    else:
        consistent = (
            cond_q == cond_interval == a_neg
            and (not cm_p or cm_uplus == a_neg)
        )
    return {
        "schema_version": 1,
        "field": {"char": field.characteristic},
        "cm_P": cm_p,
        "cm_uplus": cm_uplus,
        "a_negative": a_neg,
        "cond_Q": cond_q,
        "cond_interval": cond_interval,
        "degenerate": degenerate,
        "consistent": consistent,
    }
