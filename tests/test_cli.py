import json
import time

import pytest

from srposet import BettiVector, cli
from srposet.cli import main


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

    @pytest.mark.parametrize("cap", ["7", "-1"])
    def test_cap(self, capsys, cap):
        assert main(["sweep", "--max-elements", cap]) == 2

    def test_failure_is_reported(self, monkeypatch, capsys):
        # if every P counted as Cohen-Macaulay, so would every P (+) Q, and
        # the a-invariant biconditional must break
        monkeypatch.setattr(cli, "is_cohen_macaulay_complex", lambda k, f: True)
        code = main(["sweep", "--max-elements", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL biconditional-fails: ")
        assert len(out.splitlines()) == 1


class TestSweepFailures:
    """Each failure kind is reported once, as the first line and the only one."""

    @staticmethod
    def sweep_fails(capsys, kind):
        code = main(["sweep", "--max-elements", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith(f"FAIL {kind}: ")
        assert len(out.splitlines()) == 1

    def test_numerator_routes_disagree(self, monkeypatch, capsys):
        real = cli.g_dis_numerator_mu_top_via_lower_sets
        monkeypatch.setattr(cli, "g_dis_numerator_mu_top_via_lower_sets", lambda p, q: -real(p, q))
        self.sweep_fails(capsys, "numerator-routes-disagree")

    def test_euler_conditions_disagree(self, monkeypatch, capsys):
        real = cli._rees_facts

        def flipped(p, q):
            facts = real(p, q)
            return facts._replace(cond_interval=not facts.cond_interval)

        monkeypatch.setattr(cli, "_rees_facts", flipped)
        self.sweep_fails(capsys, "euler-conditions-disagree")

    def test_deleted_star_not_acyclic(self, monkeypatch, capsys):
        # an acyclic complex no longer matches the zero vector it is compared with
        monkeypatch.setattr(cli, "BettiVector", lambda values: BettiVector({-1: 1}))
        self.sweep_fails(capsys, "deleted-star-not-acyclic")
