"""Fuzz the file-reading commands with small malformed JSON documents.

Whatever a poset, ideal or complex file holds, the CLI answers with an exit
code of 0, 1 or 2 and never with a traceback.  The documents have at most 8
distinct labels and nest at most 4 levels deep; they mix the keys of the
real formats with wrong types, repeated and unknown labels, labels with the
reserved star marker, and truncated text.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from srposet.cli import main

LABELS = ["a", "b", "c", "d", "e", "a*", "", "1"]
KEYS = ["elements", "covers", "ideal", "vertices", "facets", "x"]
SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(LABELS)


def values(depth):
    """JSON values nested at most `depth` levels deep."""
    if depth == 0:
        return SCALARS
    inner = values(depth - 1)
    return (
        SCALARS
        | st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)
    )


@st.composite
def documents(draw, kinds, names):
    """A document of one of the kinds on the given labels, each part now and
    then dropped or replaced by another value; sometimes truncated."""
    kind = draw(st.sampled_from(kinds))
    if kind == "any":
        doc = draw(values(3))
    else:
        label = st.sampled_from(names or LABELS)
        # covers mostly run from an earlier label to a later one, so that
        # some posets are valid; the rest are cycles or wrong lengths
        ordered = st.lists(label, min_size=2, max_size=2).map(
            lambda c: sorted(c, key=lambda v: names.index(v) if v in names else -1))
        parts = {
            "poset": {"elements": st.just(names),
                      "covers": st.lists(ordered | st.lists(label, max_size=3), max_size=5)},
            "ideal": {"ideal": st.lists(label, max_size=4)},
            "complex": {"vertices": st.just(names),
                        "facets": st.lists(st.lists(label, max_size=4), max_size=5)},
        }[kind]
        doc = {}
        for key, part in parts.items():
            spoil = draw(st.integers(0, 9))  # 0 is drawn most often
            if spoil < 9:
                doc[key] = draw(values(2) if spoil == 8 else part)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 9:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def file_pairs(draw):
    """A poset or complex document and an ideal document on the same labels,
    with repeated labels now and then."""
    names = draw(st.lists(st.sampled_from(LABELS), max_size=8, unique=True))
    if names and draw(st.integers(0, 9)) == 9:
        names.append(draw(st.sampled_from(names)))
    first = draw(documents(["poset", "complex", "any"], names))
    second = draw(documents(["ideal", "ideal", "any"], names))  # mostly an ideal
    return first, second


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(files=file_pairs(), as_json=st.booleans())
def test_malformed_files_exit_cleanly(tmp_path, files, as_json):
    first, second = files
    a, b = tmp_path / "first.json", tmp_path / "second.json"
    a.write_text(first)
    b.write_text(second)
    flag = ["--json"] if as_json else []
    for argv in (
        ["check-poset", str(a)],
        ["check-complex", str(a)],
        ["homology", str(a)],
        ["uplus", str(a), str(b)],
    ):
        code, err = run(argv + flag)
        assert code in (0, 1, 2), (argv, first, second)
        assert "Traceback" not in err, (argv, first, second)
