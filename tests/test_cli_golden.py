"""Golden CLI corpus: every command's exit code, stdout and stderr on a fixed
set of inputs, compared byte for byte with tests/data/cli_golden.json.

Each case stores its input files, so the corpus does not depend on the
library's random generators.  In argv and in the recorded output, the
temporary directory the files are written to reads ``<tmp>``.  To record the
file again (only when a change of output is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import pathlib
import random
import sys
import tempfile

import pytest

from srposet.cli import main
from srposet.poset import poset_from_cover_relations, poset_to_json, random_poset, random_poset_ideal

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
TMP = "<tmp>"


def run_case(case: dict, tmp: pathlib.Path) -> dict:
    """Write the case's files into tmp, run the CLI in-process, and return
    its exit code and output with tmp replaced by the placeholder."""
    for name, text in case["files"].items():
        (tmp / name).write_text(text, encoding="utf-8")
    argv = [a.replace(TMP, str(tmp)) for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "code": code,
        "stdout": out.getvalue().replace(str(tmp), TMP),
        "stderr": err.getvalue().replace(str(tmp), TMP),
    }


def _corpus() -> list[dict]:
    """The cases to record: names, input files and argv."""
    cases = []

    def add(name, argv, **files):
        cases.append({"name": name, "argv": argv, "files": files})

    rng = random.Random(20261018)
    chain = poset_from_cover_relations("abc", [("a", "b"), ("b", "c")])
    posets = [random_poset(rng, "abcde"[:n]) for n in (2, 3, 3, 4, 4, 5, 5)] + [chain]
    for k, p in enumerate(posets):
        doc = poset_to_json(p)
        ideals = {"valid": sorted(random_poset_ideal(rng, p)), "empty": [], "full": list(p.elements)}
        above = sorted({p.elements[j] for _, j in p.cover_pairs_idx()})
        if above:
            ideals["not-ideal"] = above[:1]
        for kind, q in ideals.items():
            ideal = json.dumps({"ideal": q})
            for flags in ([], ["--json", "--char", "3"]):
                tag = "json3" if flags else "text"
                add(f"uplus-{k}-{kind}-{tag}", ["uplus", f"{TMP}/p.json", f"{TMP}/q.json", *flags],
                    **{"p.json": doc, "q.json": ideal})

    complexes = [
        json.dumps({"vertices": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"], ["c", "a"]]}),
        json.dumps({"vertices": ["a", "b", "c", "d"], "facets": [["a", "b", "c"], ["a", "b"], ["c", "d"]]}),
        json.dumps({"vertices": ["a", "b"], "facets": []}),
    ]
    inputs = {
        "check-poset": [poset_to_json(p) for p in posets[5:]],
        "check-complex": complexes,
        "homology": complexes,
    }
    for command, docs in inputs.items():
        for k, doc in enumerate(docs):
            for flags in ([], ["--json"]):
                tag = "json" if flags else "text"
                add(f"{command}-{k}-{tag}", [command, f"{TMP}/in.json", *flags], **{"in.json": doc})

    for n in (3, 4, 5):
        add(f"detsym-{n}", ["detsym", "--n", str(n)])
    for n in (6, 7):
        add(f"detsym-{n}", ["detsym", "--n", str(n)])
        add(f"detsym-{n}-json", ["detsym", "--n", str(n), "--json"])
    for n in (0, 4, 5, 6):
        add(f"sweep-{n}", ["sweep", "--max-elements", str(n)])

    cycle = json.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"], ["c", "a"]]})
    add("bad-cycle", ["check-poset", f"{TMP}/in.json"], **{"in.json": cycle})
    unknown = json.dumps({"elements": ["a", "b"], "covers": [["a", "z"]]})
    add("bad-unknown-cover", ["check-poset", f"{TMP}/in.json"], **{"in.json": unknown})
    add("bad-unknown-vertex", ["homology", f"{TMP}/in.json"],
        **{"in.json": json.dumps({"vertices": ["a"], "facets": [["a", "z"]]})})
    add("bad-unknown-ideal", ["uplus", f"{TMP}/p.json", f"{TMP}/q.json"],
        **{"p.json": poset_to_json(chain), "q.json": json.dumps({"ideal": ["a", "zz"]})})
    add("bad-json", ["check-complex", f"{TMP}/in.json"], **{"in.json": '{"vertices": ["a"],'})
    add("bad-missing-file", ["homology", f"{TMP}/missing.json"])
    return cases


def record() -> None:
    cases = _corpus()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case.update(run_case(case, pathlib.Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _cases() -> list[dict]:
    if not GOLDEN.exists():  # while recording; otherwise the one case fails
        return [{"name": "missing"}]
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_golden(case, tmp_path):
    assert "argv" in case, f"{GOLDEN} is missing"
    got = run_case(case, tmp_path)
    assert got == {key: case[key] for key in ("code", "stdout", "stderr")}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
