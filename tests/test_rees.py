import random
import warnings

import pytest

from srposet import (
    GF2,
    QQ,
    DegenerateQWarning,
    EmptyQError,
    IntPolynomial,
    NotAnIdealError,
    UnknownLabelError,
    a_invariant_negative,
    all_poset_ideals,
    enumerate_posets,
    euler_condition_Q,
    euler_condition_interval,
    g_dis_numerator_mu_top,
    g_dis_numerator_mu_top_via_lower_sets,
    poset_from_cover_relations,
    random_poset,
    random_poset_ideal,
    rees_cm_report,
    uplus,
)
from srposet import rees
from srposet.rees import _rees_facts

from oracles import direct_numerator


def chain(*labels):
    return poset_from_cover_relations(labels, list(zip(labels, labels[1:])))


def antichain(*labels):
    return poset_from_cover_relations(labels, [])


class TestIntPolynomial:
    def test_zero_normalization(self):
        p = IntPolynomial(("x",), {(1,): 0})
        assert p.is_zero()

    def test_arithmetic(self):
        x = IntPolynomial(("x", "y"), {(1, 0): 1})
        y = IntPolynomial(("x", "y"), {(0, 1): 1})
        assert (x + y) + (-y) == x
        assert (x + (-x)).is_zero()


class TestEulerConditions:
    def test_unique_minimum_true(self):
        p = chain("x0", "b")
        assert euler_condition_Q(p, ["x0"])
        assert euler_condition_interval(p, ["x0"])

    def test_antichain_false(self):
        p = antichain("a", "b")
        assert not euler_condition_Q(p, ["a"])
        assert not euler_condition_interval(p, ["a"])

    def test_q_equals_p_reduces_to_chi_of_q(self):
        p = antichain("a", "b")
        # only x = infinity remains: condition is chi~(P) = 0, which fails
        # for a two-point antichain (chi~ = 1)
        assert not euler_condition_Q(p, ["a", "b"])
        p2 = chain("a", "b")
        assert euler_condition_Q(p2, ["a", "b"])

    def test_empty_q_nonempty_p_false(self):
        p = chain("a", "b")
        assert not euler_condition_interval(p, [])
        assert not euler_condition_Q(p, [])

    def test_not_an_ideal(self):
        with pytest.raises(NotAnIdealError):
            euler_condition_Q(chain("a", "b"), ["b"])

    def test_no_chain_list(self, monkeypatch):
        """The Euler conditions, and the report when Q is empty, never list
        the chains of P; a 40-element chain has 2^40 of them."""

        def refuse(p):
            raise AssertionError("listed all chains")

        monkeypatch.setattr(rees, "_all_chains", refuse)
        labels = [f"e{i:02d}" for i in range(40)]
        long_chain = chain(*labels)
        assert euler_condition_Q(long_chain, labels[:3])
        assert euler_condition_interval(long_chain, labels[:3])
        p = antichain("a", "b")
        assert not euler_condition_Q(p, ["a"])
        assert not euler_condition_interval(p, ["a"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateQWarning)
            report = rees_cm_report(chain("a", "b"), [], QQ)
        assert report["a_negative"] is None and report["cm_P"]


class TestNumerator:
    def test_singleton_zero(self):
        p = poset_from_cover_relations(["x"], [])
        assert g_dis_numerator_mu_top(p, ["x"]).is_zero()

    def test_antichain_value(self):
        p = antichain("a", "b")
        poly = g_dis_numerator_mu_top(p, ["a"])
        assert poly.terms == {(1, 1): -1}

    def test_chain_cancels(self):
        p = chain("a", "b")
        assert g_dis_numerator_mu_top(p, ["a"]).is_zero()

    def test_empty_q_rejected(self):
        with pytest.raises(EmptyQError):
            g_dis_numerator_mu_top(chain("a", "b"), [])
        with pytest.raises(EmptyQError):
            g_dis_numerator_mu_top_via_lower_sets(chain("a", "b"), [])

    def test_three_routes_small_enumeration(self):
        for n in range(1, 5):
            labels = [chr(ord("a") + i) for i in range(n)]
            from srposet import enumerate_posets

            for p in enumerate_posets(labels):
                for q in all_poset_ideals(p):
                    if not q:
                        continue
                    direct = g_dis_numerator_mu_top(p, q)
                    rewritten = g_dis_numerator_mu_top_via_lower_sets(p, q)
                    assert direct == rewritten, (p, sorted(q))
                    assert direct.is_zero() == euler_condition_Q(p, q), (p, sorted(q))

    def test_a_invariant_examples(self):
        p = poset_from_cover_relations(["x"], [])
        assert a_invariant_negative(p, ["x"])
        assert not a_invariant_negative(antichain("a", "b"), ["a"])
        diamond = poset_from_cover_relations(
            ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        for q in all_poset_ideals(diamond):
            if q:
                assert a_invariant_negative(diamond, q)  # unique minimum


class TestReport:
    def test_chain_all_true(self):
        r = rees_cm_report(chain("a", "b", "c"), ["a"], QQ)
        assert r["cm_P"] and r["cm_uplus"] and r["a_negative"]
        assert r["cond_Q"] and r["cond_interval"] and r["consistent"]
        assert not r["degenerate"]

    def test_antichain_consistent_but_not_cm(self):
        r = rees_cm_report(antichain("a", "b"), ["a"], GF2)
        assert r["cm_P"] and not r["cm_uplus"] and r["a_negative"] is False
        assert r["consistent"]

    def test_empty_q_degenerate(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = rees_cm_report(chain("a", "b"), [], QQ)
        assert any(issubclass(w.category, DegenerateQWarning) for w in caught)
        assert r["degenerate"] and r["consistent"] is None
        assert r["a_negative"] is None

    def test_q_equals_p_degenerate(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = rees_cm_report(chain("a", "b"), ["a", "b"], QQ)
        assert any(issubclass(w.category, DegenerateQWarning) for w in caught)
        assert r["degenerate"] and r["consistent"] is None
        assert r["a_negative"] is True

    def test_non_cm_p_still_consistent_on_euler_legs(self):
        p = poset_from_cover_relations(
            ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]
        )
        r = rees_cm_report(p, ["a"], QQ)
        assert not r["cm_P"]
        assert r["consistent"]  # only the Euler legs are asserted


class TestRandomizedEquivalences:
    def test_lemma_equivalences_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 7)
            p = random_poset(rng, [f"e{i}" for i in range(n)])
            q = random_poset_ideal(rng, p)
            assert euler_condition_Q(p, q) == euler_condition_interval(p, q)
            if q:
                assert a_invariant_negative(p, q) == euler_condition_Q(p, q)


class TestNumeratorOracle:
    """The Moebius-transform numerator against a chain-by-chain expansion
    that shares no code with the library."""

    def test_every_pair_up_to_four_elements(self):
        for n in range(1, 5):
            labels = [chr(ord("a") + i) for i in range(n)]
            for p in enumerate_posets(labels):
                for q in all_poset_ideals(p):
                    if q:
                        got = g_dis_numerator_mu_top(p, q).terms
                        assert got == direct_numerator(p, q), (p, sorted(q))

    def test_random_pairs_five_to_seven_elements(self):
        rng = random.Random(606)
        for _ in range(300):
            p = random_poset(rng, [f"e{i}" for i in range(rng.randint(5, 7))])
            q = random_poset_ideal(rng, p)
            if not q:
                top = rng.choice(p.elements)
                q = frozenset(e for e in p.elements if p.leq(e, top))
            got = g_dis_numerator_mu_top(p, q).terms
            assert got == direct_numerator(p, q), (p, sorted(q))


class TestReesFacts:
    def test_facts_match_public_functions(self):
        rng = random.Random(31)
        for _ in range(200):
            p = random_poset(rng, [f"e{i}" for i in range(rng.randint(0, 6))])
            q = random_poset_ideal(rng, p)
            facts = _rees_facts(p, q)
            assert facts.qmask == sum(1 << p.index(e) for e in q)
            assert facts.cond_q == euler_condition_Q(p, q)
            assert facts.cond_interval == euler_condition_interval(p, q)
            if q:
                assert facts.numerator == g_dis_numerator_mu_top(p, q)
            else:
                assert facts.numerator is None
            assert facts.uplus == uplus(p, q)

    def test_facts_check_q(self):
        with pytest.raises(NotAnIdealError):
            _rees_facts(chain("a", "b"), ["b"])
        with pytest.raises(UnknownLabelError):
            _rees_facts(chain("a", "b"), ["zz"])
