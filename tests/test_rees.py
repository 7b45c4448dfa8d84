import random
import warnings
from collections import Counter

import pytest

from srposet import (
    GF2,
    QQ,
    BettiVector,
    DegenerateQWarning,
    EmptyQError,
    FieldSpec,
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
    is_cohen_macaulay_complex,
    is_cohen_macaulay_poset,
    order_complex,
    poset_from_cover_relations,
    random_poset,
    random_poset_ideal,
    reduced_betti_numbers,
    rees_cm_report,
    uplus,
)
from srposet import invariants, rees
from srposet.poset import Poset, _ideal_mask, _ideal_orbits, _poset_classes, _uplus_mask, _uplus_rows
from srposet.rees import (
    _all_chains,
    _cm_reports,
    _field_data,
    _lower_set_numerator,
    _numerator,
    _polynomial,
    _rees_facts,
    _uplus_cm,
    _violations,
)

from oracles import brute_chains, direct_numerator, face_poset
from test_simplicial import rp2


def chain(*labels):
    return poset_from_cover_relations(labels, list(zip(labels, labels[1:])))


def antichain(*labels):
    return poset_from_cover_relations(labels, [])


def uplus_of(p, facts):
    """P (+) Q labelled from the rows of the facts of (P, Q); Poset checks
    that they are a closed strict order."""
    stars = [p.elements[i] + "*" for i in range(len(p)) if (facts.qmask >> i) & 1]
    return Poset([*p.elements, *stars], facts.rows)


class TestIntPolynomial:
    def test_zero_normalization(self):
        p = IntPolynomial(("x",), {(1,): 0})
        assert p.is_zero()


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
        # one warning, with the message the CLI reports, pointing at the caller
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (DegenerateQWarning, "Q is empty or all of P; the biconditional is not asserted", __file__)
        ]
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

    def test_order_complex_of_uplus_built_once(self, monkeypatch):
        sizes = []
        real = rees.order_complex
        monkeypatch.setattr(rees, "order_complex", lambda p: sizes.append(len(p)) or real(p))
        diamond = poset_from_cover_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        facts = _rees_facts(diamond, 0b1)
        assert all(r["consistent"] for r in _cm_reports(diamond, facts, [QQ, GF2]))
        # Lemmas 6.5 and 6.6 are checked by the peel alone: when it fails, the
        # pair is inconsistent in every field, and P (+) Q is still never built
        monkeypatch.setattr(rees, "_peels", lambda rows, n, mask: False)
        assert [r["consistent"] for r in _cm_reports(diamond, facts, [QQ, GF2])] == [False, False]
        assert rees_cm_report(diamond, ["a"], QQ)["consistent"] is False
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateQWarning)
            rees_cm_report(diamond, [], QQ)
            rees_cm_report(diamond, "abcd", QQ)
        assert sizes.count(5) == 0


class TestBeatPointPeel:
    """_peels deletes Q* from the rows of P (+) Q as beat points; the order
    complexes of the labelled P (+) Q and of P (+) Q - m* are the oracle."""

    def test_every_pair_class_up_to_six_elements(self):
        fields = [QQ, GF2]
        classes = stars = 0
        for n, level in zip(range(7), _poset_classes()):
            labels = tuple(chr(ord("a") + i) for i in range(n))
            for lt, _, gens in level:
                p = Poset(labels, lt)
                betti_p = [reduced_betti_numbers(order_complex(p), f) for f in fields]
                unique_min = len(p.minimal_idx()) == 1
                for qmask in _ideal_orbits(lt, gens):
                    rows = _uplus_rows(lt, qmask)
                    up = _uplus_mask(p, qmask)
                    full = (1 << len(rows)) - 1
                    assert rees._peels(rows, n, full), (p, qmask)
                    assert [reduced_betti_numbers(order_complex(up), f) for f in fields] == betti_p
                    if unique_min and qmask:
                        (least,) = up.minimal_idx()
                        assert rees._peels(rows, n, full & ~(1 << least)), (p, qmask)
                        deleted = order_complex(up._restrict_idx([i for i in range(len(up)) if i != least]))
                        assert all(reduced_betti_numbers(deleted, f) == BettiVector({}) for f in fields)
                        stars += 1
                    classes += 1
        assert (classes, stars) == (4870, 708)

    def test_starred_minimum_from_p(self, monkeypatch):
        # _violations deletes m* at the index it reads off P and Q, with no
        # pass over P (+) Q's rows; the labelled P (+) Q's one minimal
        # element is the oracle, on all 708 pairs up to six elements where
        # P has a unique minimum and Q is nonempty.  Each pair is also
        # checked with its indices reversed, so that m is not P's first
        # element and m* not the first star
        deleted = []
        real = rees._peels

        def record(rows, n, mask):
            full = (1 << len(rows)) - 1
            if mask != full:
                deleted.append(full & ~mask)
            return real(rows, n, mask)

        monkeypatch.setattr(rees, "_peels", record)
        fields = [QQ, GF2]
        pairs = Counter()
        for n, level in zip(range(7), _poset_classes()):
            labels = tuple(chr(ord("a") + i) for i in range(n))

            def flip(mask):
                return sum(1 << (n - 1 - i) for i in range(n) if (mask >> i) & 1)

            for lt, _, gens in level:
                for qmask in _ideal_orbits(lt, gens):
                    for rows, q in ((lt, qmask), (tuple(flip(r) for r in reversed(lt)), flip(qmask))):
                        p = Poset(labels, rows)
                        deleted.clear()
                        failure = next(_violations(p, _rees_facts(p, q), _field_data(p, fields)), None)
                        assert failure is None, (p, q)
                        if len(p.minimal_idx()) == 1 and q:
                            (least,) = _uplus_mask(p, q).minimal_idx()
                            assert deleted == [1 << least], (p, q)
                            pairs[least > n] += 1
                        else:
                            assert deleted == [], (p, q)
        assert sum(pairs.values()) == 2 * 708 and pairs[True] > 0

    def test_peel_keeps_what_is_not_a_beat_point(self):
        # c* < a and c* < b: the path a - c* - b is contractible, the antichain
        # {a, b} is not, so deleting c* would change the homology
        up = Poset(["a", "b", "c*"], [0, 0, 0b011])
        assert not rees._peels(up.lt, 2, 0b111)
        betti = [reduced_betti_numbers(order_complex(x), QQ) for x in (up, antichain("a", "b"))]
        assert betti[0] != betti[1]
        # one upper cover: c* < a only
        assert rees._peels(Poset(["a", "b", "c*"], [0, 0, 0b001]).lt, 2, 0b111)
        # a maximal starred element has no upper cover
        assert not rees._peels(Poset(["a", "z*"], [0, 0]).lt, 1, 0b11)
        # only starred elements are deleted: with d above a and b, deleting b,
        # a beat point of P, would leave c* the one upper cover a
        assert not rees._peels(Poset(["a", "b", "d", "c*"], [0b100, 0b100, 0, 0b111]).lt, 3, 0b1111)

    def test_passes_repeat_while_they_delete(self):
        # a* < b*, indexed upwards: the first pass (highest index first)
        # deletes b* (upper cover b) and then a* (upper cover a); indexed the
        # other way round, a* waits for a second pass
        assert rees._peels(_uplus_rows(chain("a", "b").lt, 0b11), 2, 0b1111)
        flipped = Poset(["a", "b", "b*", "a*"], [0b10, 0, 0b10, 0b111])
        assert rees._peels(flipped.lt, 2, 0b1111)


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
            # Lemmas 6.5/6.6: Q* peels off the rows of P (+) Q, and, for P
            # with unique minimum, off P (+) Q - m*
            qmask = _ideal_mask(p, q)
            rows = _uplus_rows(p.lt, qmask)
            full = (1 << len(rows)) - 1
            assert rees._peels(rows, n, full), (p, sorted(q))
            if q and len(p.minimal_idx()) == 1:
                (least,) = uplus(p, q).minimal_idx()
                assert rees._peels(rows, n, full & ~(1 << least)), (p, sorted(q))


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


class TestMaskKernels:
    """The chain list and the mask-keyed numerators against independent routes."""

    def test_all_chains_match_brute_force(self):
        rng = random.Random(18)
        posets = [p for n in range(5) for p in enumerate_posets([chr(ord("a") + i) for i in range(n)])]
        posets += [random_poset(rng, [f"e{i}" for i in range(rng.randint(5, 7))]) for _ in range(60)]
        for p in posets:
            chains = _all_chains(p)
            expected = {sum(1 << p.index(e) for e in c) for c in brute_chains(p)}
            assert len(chains) == len(set(chains)) and set(chains) == expected, p

    def test_a_invariant_negative_matches_numerator(self):
        for n in range(1, 5):
            for p in enumerate_posets([chr(ord("a") + i) for i in range(n)]):
                for q in all_poset_ideals(p):
                    if q:
                        assert a_invariant_negative(p, q) == g_dis_numerator_mu_top(p, q).is_zero(), (p, sorted(q))

    def test_chain_coefficients_agree_and_vanish_with_euler_condition(self):
        # the expansion is one-to-one, so the sweep compares the two routes'
        # chain coefficients and tests the direct ones for emptiness
        rng = random.Random(20)
        pairs = [
            (p, q)
            for n in range(1, 5)
            for p in enumerate_posets([chr(ord("a") + i) for i in range(n)])
            for q in all_poset_ideals(p)
        ]
        for _ in range(300):
            p = random_poset(rng, [f"e{i}" for i in range(rng.randint(5, 7))])
            pairs.append((p, random_poset_ideal(rng, p)))
        for p, q in pairs:
            if q:
                qmask = _ideal_mask(p, q)
                direct = _numerator(p, qmask)
                assert direct == _lower_set_numerator(p, qmask), (p, sorted(q))
                assert (not direct) == euler_condition_Q(p, q), (p, sorted(q))


class TestReesFacts:
    def test_facts_match_public_functions(self):
        rng = random.Random(31)
        for _ in range(200):
            p = random_poset(rng, [f"e{i}" for i in range(rng.randint(0, 6))])
            q = random_poset_ideal(rng, p)
            facts = _rees_facts(p, _ideal_mask(p, q))
            assert facts.qmask == sum(1 << p.index(e) for e in q)
            assert facts.cond_q == euler_condition_Q(p, q)
            assert facts.cond_interval == euler_condition_interval(p, q)
            if q:
                assert _polynomial(p, facts.qmask, facts.numerator) == g_dis_numerator_mu_top(p, q)
            else:
                assert facts.numerator is None
            assert facts.rows == uplus(p, q).lt

    def test_q_checked_at_public_entry(self):
        # _rees_facts trusts its mask; the public report checks Q first
        with pytest.raises(NotAnIdealError):
            rees_cm_report(chain("a", "b"), ["b"], QQ)
        with pytest.raises(UnknownLabelError):
            rees_cm_report(chain("a", "b"), ["zz"], QQ)

    def test_starred_label_rejected_after_q_check(self):
        # P (+) Q names x* for each x in Q, so a label that carries the
        # marker is refused, by the report as by uplus; a Q that is not an
        # ideal is reported first
        p = chain("a*", "b")
        message = r"^label 'a\*' contains the reserved marker '\*'$"
        for call in (lambda q: uplus(p, q), lambda q: rees_cm_report(p, q, QQ)):
            for q in ([], ["a*"], ["a*", "b"]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DegenerateQWarning)
                    with pytest.raises(ValueError, match=message):
                        call(q)
            with pytest.raises(NotAnIdealError):
                call(["b"])


class TestPosetRouteOracle:
    """The report's Cohen-Macaulay flags come from the interval pass on P and
    from _uplus_cm on P (+) Q; the link loop on their order complexes is the
    oracle."""

    def test_every_pair_class_up_to_six_elements(self):
        fields = [QQ, GF2, FieldSpec(3)]
        classes = 0
        for n, level in zip(range(7), _poset_classes()):
            labels = tuple(chr(ord("a") + i) for i in range(n))
            for lt, _, gens in level:
                p = Poset(labels, lt)
                delta = order_complex(p)
                cm_p = [is_cohen_macaulay_complex(delta, f) for f in fields]
                for qmask in _ideal_orbits(lt, gens):
                    facts = _rees_facts(p, qmask)
                    delta_up = order_complex(uplus_of(p, facts))
                    for f, cm, report in zip(fields, cm_p, _cm_reports(p, facts, fields)):
                        assert report["cm_P"] == cm, (p, qmask, f)
                        assert report["cm_uplus"] == is_cohen_macaulay_complex(delta_up, f), (p, qmask, f)
                    classes += 1
        assert classes == 4870


class TestUplusRoute:
    """_uplus_cm decides P (+) Q once for every field, from P's chi~ and
    chain heights: P (+) Q is Cohen-Macaulay exactly where P is and the
    route holds.  The interval test on P (+) Q is the oracle."""

    fields = [QQ, GF2, FieldSpec(3)]

    def route(self, p, facts):
        ok = _uplus_cm(p, facts)
        return [cm_p and ok for _, cm_p in _field_data(p, self.fields)]

    def oracle(self, p, facts):
        return [is_cohen_macaulay_poset(uplus_of(p, facts), f) for f in self.fields]

    def test_every_pair_class_up_to_six_elements(self):
        # P not Cohen-Macaulay included: there P (+) Q is not either
        checks = 0
        for n, level in zip(range(7), _poset_classes()):
            labels = tuple(chr(ord("a") + i) for i in range(n))
            for lt, _, gens in level:
                p = Poset(labels, lt)
                for qmask in _ideal_orbits(lt, gens):
                    facts = _rees_facts(p, qmask)
                    assert self.route(p, facts) == self.oracle(p, facts), (p, qmask)
                    checks += len(self.fields)
        assert checks == 14610

    def test_dimension_from_the_uplus_interval(self):
        # P = {a, b} is Cohen-Macaulay of dimension 0; {a* < a, b} has
        # H~_0 != 0 in dimension 1.  (-inf, +inf) is a copy of P up to
        # homotopy, of dimension 0 in P: the dimension must be read in
        # P (+) Q
        p = antichain("a", "b")
        assert all(cm_p for _, cm_p in _field_data(p, self.fields))
        facts = _rees_facts(p, _ideal_mask(p, ["a"]))
        assert reduced_betti_numbers(order_complex(uplus_of(p, facts)), QQ) == BettiVector({0: 1})
        assert not _uplus_cm(p, facts)
        assert self.route(p, facts) == [False] * 3 == self.oracle(p, facts)

    def test_top_in_q_is_not_a_copy(self):
        # (-inf, a) of {a* < a} is the point a*, a cone; P's (-inf, a) is
        # empty, with homology in degree -1.  Reading P's (-inf, a) for it,
        # as for (-inf, b) with b outside Q, would fail P (+) Q
        p = chain("a")
        facts = _rees_facts(p, 0b1)
        assert _uplus_cm(p, facts)
        assert self.route(p, facts) == [True] * 3 == self.oracle(p, facts)

    def test_fields_told_apart(self):
        # the face poset of the 6-vertex RP^2 is Cohen-Macaulay over QQ but
        # not over GF2.  With Q = P the interval condition holds, so
        # P (+) Q must follow P in each field, whichever field comes first
        p = face_poset(rp2())
        assert len(p) == 31
        facts = _rees_facts(p, (1 << len(p)) - 1)
        up = uplus(p, p.elements)
        for fields, want in (([QQ, GF2], [True, False]), ([GF2, QQ], [False, True])):
            reports = _cm_reports(p, facts, fields)
            assert [r["cm_P"] for r in reports] == want
            assert [r["cm_uplus"] for r in reports] == want
            assert want == [is_cohen_macaulay_poset(up, f) for f in fields]
            assert next(_violations(p, facts, _field_data(p, fields)), None) is None

    def test_no_pass_of_uplus(self):
        # uplus and rees_cm_report build P's interval pass, never P (+) Q's
        p = poset_from_cover_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        invariants._interval_pass.cache_clear()
        reports = _cm_reports(p, _rees_facts(p, 0b11), [QQ, GF2])
        assert [r["cm_P"] for r in reports] == [True, True]
        assert invariants._interval_pass.cache_info().currsize == 1
