import json
import sys
import time

import pytest

from srposet import GF2, QQ, cli, invariants, poset_from_cover_relations, poset_to_json, rees
from srposet import poset as poset_module
from srposet.cli import main
from srposet.invariants import _interval_pass, _link_cores
from srposet.poset import Poset, _canonical
from srposet.simplicial import _betti_masks, _core_key

from oracles import cross_polytope_boundary, determinantal_poset, labelled_sweep


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "elements": ["a", "b", "c"],
        "covers": [["a", "b"], ["b", "c"]],
    }))
    return str(path)


@pytest.fixture
def two_chains_file(tmp_path):
    path = tmp_path / "twochains.json"
    path.write_text(json.dumps({
        "elements": ["a", "b", "c", "d"],
        "covers": [["a", "b"], ["c", "d"]],
    }))
    return str(path)


@pytest.fixture
def antichain_file(tmp_path):
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps({"elements": ["a", "b"], "covers": []}))
    return str(path)


def ideal_file(tmp_path, labels, name="ideal.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"ideal": labels}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheckPoset:
    def test_chain(self, capsys, chain_file):
        code, rep = run_json(capsys, ["check-poset", chain_file, "--json"])
        assert code == 0
        assert rep["pure"] and rep["dim"] == 3
        for f in rep["fields"]:
            assert f["cm"] and f["depth"] == 3
        assert {f["char"] for f in rep["fields"]} == {0, 2}

    def test_two_disjoint_chains(self, capsys, two_chains_file):
        code, rep = run_json(capsys, ["check-poset", two_chains_file, "--json"])
        assert code == 0
        for f in rep["fields"]:
            assert not f["cm"] and f["buchsbaum"]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            main(["check-poset", str(bad)])
        assert err.value.code == 2
        assert "line" in capsys.readouterr().err

    def test_char_flag(self, capsys, chain_file):
        code, rep = run_json(capsys, ["check-poset", chain_file, "--json", "--char", "3"])
        assert code == 0
        assert [f["char"] for f in rep["fields"]] == [3]

    def test_bad_char_exits_2(self, capsys, chain_file):
        with pytest.raises(SystemExit) as err:
            main(["check-poset", chain_file, "--char", "4"])
        assert err.value.code == 2
        assert "characteristic" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"elements": "abc"},
        {"elements": [1, 2]},
        {"elements": ["a", "b"], "covers": [5]},
    ])
    def test_non_string_labels_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as err:
            main(["check-poset", str(path)])
        assert err.value.code == 2
        assert "must be a list of" in capsys.readouterr().err

    @pytest.mark.parametrize("cover", [["a", "b", "a"], ["a"], []])
    def test_wrong_length_cover_exits_2(self, tmp_path, capsys, cover):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "covers": [cover]}))
        with pytest.raises(SystemExit) as err:
            main(["check-poset", str(path)])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            "error: bad poset: each cover must be a pair of labels\n"
        )

    def test_19_digit_prime_char(self, capsys, chain_file):
        code, rep = run_json(
            capsys, ["check-poset", chain_file, "--json", "--char", "1000000000000000003"]
        )
        assert code == 0
        assert [f["char"] for f in rep["fields"]] == [1000000000000000003]

    def test_char_above_prime_bound_exits_2(self, capsys, chain_file):
        with pytest.raises(SystemExit) as err:
            main(["check-poset", chain_file, "--char", "3317044064679887385961981"])
        assert err.value.code == 2
        assert "characteristic must be below" in capsys.readouterr().err

    def test_text_output_deterministic(self, capsys, chain_file):
        main(["check-poset", chain_file])
        first = capsys.readouterr().out
        main(["check-poset", chain_file])
        assert capsys.readouterr().out == first

    def test_determinantal_poset(self, capsys, tmp_path):
        """Gamma_3(4 x 4): 52 elements, 2,640 maximal chains, Cohen-Macaulay
        of depth 12 in both fields, from the interval pass with cold caches;
        the link loop on its order complex takes over 40 s per field."""
        path = tmp_path / "gamma.json"
        path.write_text(poset_to_json(determinantal_poset(4, 4, 3)))
        for cache in (_betti_masks, _core_key, _interval_pass):
            cache.cache_clear()
        start = time.process_time()
        code, rep = run_json(capsys, ["check-poset", str(path), "--json", "--char", "0", "--char", "2"])
        assert time.process_time() - start < 2.0
        assert code == 0
        assert rep["elements"] == 52 and rep["pure"] and rep["dim"] == 12
        assert [(f["char"], f["cm"], f["buchsbaum"], f["depth"]) for f in rep["fields"]] == [
            (0, True, True, 12), (2, True, True, 12)
        ]


class TestCheckComplexAndHomology:
    @pytest.fixture
    def circle_file(self, tmp_path):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "facets": [["a", "b"], ["b", "c"], ["c", "a"]],
        }))
        return str(path)

    def test_check_complex(self, capsys, circle_file):
        code, rep = run_json(capsys, ["check-complex", circle_file, "--json"])
        assert code == 0
        assert rep["equidimensional"] and rep["dim"] == 2
        assert rep["euler_char"] == -1

    def test_homology(self, capsys, circle_file):
        code, rep = run_json(capsys, ["homology", circle_file, "--json"])
        assert code == 0
        for f in rep["fields"]:
            assert f["betti"]["1"] == 1

    def test_huge_simplex(self, capsys, tmp_path):
        """A 40-vertex simplex has 2^40 faces; its Euler characteristic is
        read off the strong-collapse core."""
        vertices = [f"v{i}" for i in range(40)]
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"vertices": vertices, "facets": [vertices]}))
        start = time.process_time()
        code, rep = run_json(capsys, ["check-complex", str(path), "--json"])
        assert time.process_time() - start < 1.0
        assert code == 0
        assert rep["euler_char"] == 0 and rep["dim"] == 40

    @pytest.mark.parametrize("char", ["0", "2", "3"])
    def test_six_sphere(self, capsys, tmp_path, char):
        """The boundary of the 7-dimensional cross-polytope (14 vertices,
        128 facets, no dominated vertex), each command from cold caches.
        Dense elimination took 14.6 s and 13.6 s of CPU in characteristic 0."""
        vertices, facets = cross_polytope_boundary(7)
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps({"vertices": vertices, "facets": facets}))
        for command in ("homology", "check-complex"):
            for cache in (_betti_masks, _core_key, _link_cores):
                cache.cache_clear()
            start = time.process_time()
            code, rep = run_json(capsys, [command, str(path), "--json", "--char", char])
            assert time.process_time() - start < 2.0, command
            assert code == 0
            (field,) = rep["fields"]
            if command == "homology":
                assert field["betti"] == {str(d): int(d == 6) for d in range(-1, 7)}
            else:
                assert field["cm"] and field["depth"] == 7

    @pytest.mark.parametrize("doc", [
        {"vertices": "abc", "facets": [["a"]]},
        {"vertices": ["a"], "facets": "a"},
        {"vertices": ["a"], "facets": [[1]]},
    ])
    def test_non_string_labels_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as err:
            main(["check-complex", str(path)])
        assert err.value.code == 2
        assert "error: bad complex" in capsys.readouterr().err

    def test_unknown_vertex_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": ["a"], "facets": [["z"]]}))
        with pytest.raises(SystemExit) as err:
            main(["check-complex", str(path)])
        assert err.value.code == 2


@pytest.mark.parametrize("command", ["check-poset", "check-complex", "homology", "uplus"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, chain_file, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    # for uplus the nested file is the ideal, read after a valid poset
    argv = [command, chain_file, str(deep)] if command == "uplus" else [command, str(deep)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "Traceback" not in err_text
    lines = err_text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestUplus:
    def test_chain_with_minimum(self, capsys, tmp_path, chain_file):
        code, rep = run_json(
            capsys,
            ["uplus", chain_file, ideal_file(tmp_path, ["a"]), "--json"],
        )
        assert code == 0
        for f in rep["fields"]:
            assert f["consistent"] and f["a_negative"]
        assert sorted(rep["uplus"]["elements"]) == ["a", "a*", "b", "c"]

    def test_antichain_a_negative_false(self, capsys, tmp_path, antichain_file):
        code, rep = run_json(
            capsys,
            ["uplus", antichain_file, ideal_file(tmp_path, ["a"]), "--json"],
        )
        assert code == 0  # consistent: biconditional holds (both false)
        for f in rep["fields"]:
            assert f["a_negative"] is False and f["cm_uplus"] is False

    def test_empty_ideal_degenerate_warning(self, capsys, tmp_path, chain_file):
        code, rep = run_json(
            capsys,
            ["uplus", chain_file, ideal_file(tmp_path, []), "--json"],
        )
        assert code == 0
        assert rep["fields"][0]["degenerate"]
        assert rep["fields"][0]["consistent"] is None
        assert "warnings" in rep

    def test_not_an_ideal_exits_2(self, capsys, tmp_path, chain_file):
        code = main(["uplus", chain_file, ideal_file(tmp_path, ["b"]), "--json"])
        assert code == 2

    @pytest.mark.parametrize("labels", [[1], "a"])
    def test_non_string_ideal_exits_2(self, capsys, tmp_path, chain_file, labels):
        with pytest.raises(SystemExit) as err:
            main(["uplus", chain_file, ideal_file(tmp_path, labels), "--json"])
        assert err.value.code == 2
        assert "must be a list of" in capsys.readouterr().err

    def test_unknown_label_exits_2(self, capsys, tmp_path, chain_file):
        code = main(["uplus", chain_file, ideal_file(tmp_path, ["zz"]), "--json"])
        assert code == 2

    def test_starred_label_exits_2(self, capsys, tmp_path):
        path = tmp_path / "starred.json"
        path.write_text(json.dumps({"elements": ["a*", "b"], "covers": [["a*", "b"]]}))
        code = main(["uplus", str(path), ideal_file(tmp_path, ["a*"]), "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: label 'a*' contains the reserved marker '*'\n"

    def test_starred_label_after_ideal_check(self, capsys, tmp_path):
        # a Q that is not an ideal is reported first, as by uplus
        path = tmp_path / "starred.json"
        path.write_text(json.dumps({"elements": ["a*", "b"], "covers": [["a*", "b"]]}))
        code = main(["uplus", str(path), ideal_file(tmp_path, ["b"]), "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Q is not a poset ideal of P\n"


class TestDetsym:
    def test_n3(self, capsys):
        code, rep = run_json(capsys, ["detsym", "--n", "3", "--json", "--char", "0"])
        assert code == 0
        assert rep["dim"] == 3 and rep["core_dim"] == 1
        assert rep["fields"][0]["depth"] == 2
        assert rep["fields"][0]["core_depth"] == 0
        assert rep["facets_verified"]

    def test_n4_values(self, capsys):
        code, rep = run_json(capsys, ["detsym", "--n", "4", "--json", "--char", "2"])
        assert code == 0
        assert rep["dim"] == 4 and rep["core_dim"] == 2
        assert rep["facet_cards"] == [8, 10]

    def test_cap_exceeded(self, capsys):
        assert main(["detsym", "--n", "99"]) == 2

    def test_n6_within_default_cap(self, capsys):
        code, rep = run_json(
            capsys, ["detsym", "--n", "6", "--json", "--char", "0", "--char", "2"]
        )
        assert code == 0
        assert rep["dim"] == 6 and rep["core_dim"] == 4
        assert rep["fields"] == [
            {"char": 0, "depth": 2, "core_depth": 0},
            {"char": 2, "depth": 2, "core_depth": 0},
        ]

    def test_n7_within_default_cap(self, capsys):
        code, rep = run_json(
            capsys, ["detsym", "--n", "7", "--json", "--char", "0", "--char", "2"]
        )
        assert code == 0
        assert (rep["dim"], rep["core_dim"], rep["aux_vars"]) == (7, 5, 21)
        assert rep["fields"] == [
            {"char": 0, "depth": 2, "core_depth": 0},
            {"char": 2, "depth": 2, "core_depth": 0},
        ]
        assert rep["facet_cards"] == [23, 28]
        assert rep["facets_verified"] is True
        assert rep["regular_pair"] == ["X11", "X77"]

    def test_n8_beyond_default_cap(self, capsys):
        assert main(["detsym", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=8 exceeds the cap 7\n"

    def test_n_too_small(self, capsys):
        assert main(["detsym", "--n", "2"]) == 2

    def test_t_other_than_2_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detsym", "--n", "3", "--t", "3"])
        assert exc.value.code == 2


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code = main(["sweep", "--max-elements", "3", "--char", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep ok" in out

    def test_zero_elements_vacuous(self, capsys):
        code = main(["sweep", "--max-elements", "0"])
        assert code == 0

    @pytest.mark.parametrize("cap", ["9", "-1"])
    def test_cap(self, capsys, cap):
        assert main(["sweep", "--max-elements", cap]) == 2

    def test_one_q_check_per_pair(self, monkeypatch, capsys):
        # the sweep passes each orbit's mask in; _rees_facts reads the Q
        # condition through the public euler_condition_Q, which checks Q
        # once, the empty Q included: one check per pair class
        real = rees._ideal_mask
        checked = []
        monkeypatch.setattr(rees, "_ideal_mask", lambda p, q: checked.append(list(q)) or real(p, q))
        assert main(["sweep", "--max-elements", "4"]) == 0
        assert len(checked) == 132

    def test_no_labelled_uplus_on_sweep_path(self, monkeypatch, capsys):
        # the pair loop keeps P (+) Q as relation rows; only the uplus
        # command and the public uplus label it
        def refuse(p, qmask):
            raise AssertionError("built a labelled P (+) Q")

        real = poset_module._uplus_mask
        for name, module in list(sys.modules.items()):  # every binding, as imported
            if name.startswith("srposet") and getattr(module, "_uplus_mask", None) is real:
                monkeypatch.setattr(module, "_uplus_mask", refuse)
        assert main(["sweep", "--max-elements", "5"]) == 0
        out = capsys.readouterr().out
        assert out == "sweep ok: 48711 (poset, ideal) pairs up to 5 elements, characteristics [0, 2]\n"

    def test_no_polynomial_on_sweep_path(self, monkeypatch, capsys):
        # the sweep compares the numerators as term-mask dicts; only the
        # public numerator functions build an IntPolynomial
        def refuse(p, terms):
            raise AssertionError("built an IntPolynomial")

        monkeypatch.setattr(rees, "_polynomial", refuse)
        assert main(["sweep", "--max-elements", "4"]) == 0
        out = capsys.readouterr().out
        assert out == "sweep ok: 1789 (poset, ideal) pairs up to 4 elements, characteristics [0, 2]\n"
        antichain = poset_from_cover_relations(["a", "b"], [])
        assert not rees.a_invariant_negative(antichain, ["a"])
        assert rees.a_invariant_negative(poset_from_cover_relations(["a", "b"], [("a", "b")]), ["a"])

    def test_failure_is_reported(self, monkeypatch, capsys):
        # if every P counted as Cohen-Macaulay, P (+) Q would be judged on the
        # premise that each interval (-inf, b) of P has homology in its top
        # degree alone; for P = {a, b < c} it does not, and the a-invariant
        # biconditional must break
        monkeypatch.setattr(rees, "is_cohen_macaulay_poset", lambda p, f: True)
        code = main(["sweep", "--max-elements", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL biconditional-fails: ")
        assert len(out.splitlines()) == 1


class TestPosetRoute:
    """The sweep, uplus and rees_cm_report decide whether P and P (+) Q are
    Cohen-Macaulay through the interval pass, never the link loop."""

    def test_link_loop_not_reached(self, monkeypatch, capsys, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("link loop reached")

        monkeypatch.setattr(invariants, "_link_depth", refuse)
        assert main(["sweep", "--max-elements", "4"]) == 0
        assert capsys.readouterr().out.startswith("sweep ok: 1789 ")
        diamond = poset_from_cover_relations("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        path = tmp_path / "diamond.json"
        path.write_text(poset_to_json(diamond))
        code, rep = run_json(capsys, ["uplus", str(path), ideal_file(tmp_path, ["a"]), "--json"])
        assert code == 0
        assert all(f["cm_P"] and f["cm_uplus"] and f["consistent"] for f in rep["fields"])
        report = rees.rees_cm_report(diamond, ["a"], GF2)
        assert report["cm_uplus"] and report["consistent"]


class TestSweepFailures:
    """Each failure kind is reported once, as the first line and the only one."""

    @staticmethod
    def sweep_fails(capsys, kind):
        code = main(["sweep", "--max-elements", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith(f"FAIL {kind}: ")
        assert len(out.splitlines()) == 1

    @staticmethod
    def patch_facts(monkeypatch, change):
        """The sweep reads change(facts) for the facts of each pair."""
        real = cli._rees_facts
        monkeypatch.setattr(cli, "_rees_facts", lambda p, qmask: change(real(p, qmask)))

    def test_numerator_routes_disagree(self, monkeypatch, capsys):
        real = rees._lower_set_numerator
        monkeypatch.setattr(
            rees, "_lower_set_numerator", lambda p, qmask: {m: -c for m, c in real(p, qmask).items()}
        )
        self.sweep_fails(capsys, "numerator-routes-disagree")

    def test_euler_conditions_disagree(self, monkeypatch, capsys):
        self.patch_facts(monkeypatch, lambda facts: facts._replace(cond_interval=not facts.cond_interval))
        self.sweep_fails(capsys, "euler-conditions-disagree")

    def test_deleted_star_not_acyclic(self, monkeypatch, capsys):
        # a deleted star that is not acyclic does not peel: stand in for one by
        # failing only the peel of P (+) Q - m*, the one mask short of all of P (+) Q
        real = rees._peels
        monkeypatch.setattr(
            rees, "_peels", lambda rows, n, mask: mask == (1 << len(rows)) - 1 and real(rows, n, mask)
        )
        self.sweep_fails(capsys, "deleted-star-does-not-peel")

    def test_cone_that_does_not_peel(self, monkeypatch, capsys):
        # a new maximal c* above the least element m* only: P (+) Q is still a
        # cone on m*, so its Betti numbers are P's, but c* is not a beat point
        def above_least(facts):
            above = 0
            for row in facts.rows:
                above |= row
            least = [i for i in range(len(facts.rows)) if not (above >> i) & 1]
            if len(least) != 1:
                return facts
            rows = [*facts.rows, 0]
            rows[least[0]] |= 1 << len(facts.rows)
            return facts._replace(rows=Poset([str(i) for i in range(len(rows))], rows).lt)

        self.patch_facts(monkeypatch, above_least)
        self.sweep_fails(capsys, "uplus-does-not-peel")

    def test_a_invariant_vs_euler(self, monkeypatch, capsys):
        # both Euler flags flipped still agree with each other, not with the numerator
        self.patch_facts(
            monkeypatch, lambda facts: facts._replace(cond_q=not facts.cond_q, cond_interval=not facts.cond_interval)
        )
        self.sweep_fails(capsys, "a-invariant-vs-euler")

    def test_betti_not_preserved(self, monkeypatch, capsys):
        # an isolated z*: the order complex of P (+) Q gains a component, and
        # z* is not a beat point, so the peel fails
        def isolated_star(facts):
            return facts._replace(rows=facts.rows + (0,))

        self.patch_facts(monkeypatch, isolated_star)
        self.sweep_fails(capsys, "uplus-does-not-peel")

    def test_interval_condition_but_not_cm(self, monkeypatch, capsys):
        # P itself keeps its Cohen-Macaulayness; P (+) Q with Q nonempty loses it
        real = rees._uplus_cm
        monkeypatch.setattr(rees, "_uplus_cm", lambda p, facts: not facts.qmask and real(p, facts))
        self.sweep_fails(capsys, "interval-condition-but-not-cm")

    def test_unique_min_but_not_cm(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_field_data", lambda p, fields: [(f, True) for f in fields])
        monkeypatch.setattr(rees, "_uplus_cm", lambda p, facts: False)
        self.sweep_fails(capsys, "unique-min-but-not-cm")


class TestClassSweep:
    """The sweep checks one pair per isomorphism class of (P, Q) and weights
    it back to the number of labelled pairs it stands for."""

    def test_agrees_with_labelled_sweep(self, capsys):
        pairs, failure = labelled_sweep(4, [QQ, GF2])
        assert (pairs, failure) == (1789, None)
        assert main(["sweep", "--max-elements", "4"]) == 0
        assert capsys.readouterr().out == (
            "sweep ok: 1789 (poset, ideal) pairs up to 4 elements, characteristics [0, 2]\n"
        )

    def test_six_elements(self, capsys):
        assert main(["sweep", "--max-elements", "6", "--char", "2"]) == 0
        assert capsys.readouterr().out.startswith("sweep ok: 2098261 (poset, ideal) pairs ")

    def test_failure_on_one_class(self, monkeypatch, capsys):
        # the N poset: a < c > b < d
        n_poset = poset_from_cover_relations("abcd", [("a", "c"), ("b", "c"), ("b", "d")])
        target = _canonical(n_poset.lt)[0]
        real = rees._rees_facts
        flipped_on = []

        def flipped(p, qmask):
            facts = real(p, qmask)
            if _canonical(p.lt)[0] != target:
                return facts
            flipped_on.append(p)
            return facts._replace(cond_interval=not facts.cond_interval)

        monkeypatch.setattr(cli, "_rees_facts", flipped)
        monkeypatch.setattr(rees, "_rees_facts", flipped)
        code = main(["sweep", "--max-elements", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert len(flipped_on) == 1
        assert out == f"FAIL euler-conditions-disagree: P={flipped_on[0]!r} Q=[] []\n"
        # the labelled sweep fails on a labelled copy of the same class
        _, (p, q, failure) = labelled_sweep(5, [QQ, GF2])
        assert failure == ("euler-conditions-disagree", None)
        assert _canonical(p.lt)[0] == target and q == []
