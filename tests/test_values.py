"""The value classes: equality, hashing, repr, immutability and copying.

Poset, SimplicialComplex, FieldSpec, MonomialIdeal and HodgeData are
immutable and compared and hashed by their public fields; IntPolynomial is
compared by its fields too, and BettiVector with missing degrees read as
zero; neither is hashable.  Importing the package loads neither
`dataclasses` nor `typing`.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest

import srposet
from srposet import (
    QQ,
    BettiVector,
    FieldSpec,
    HodgeData,
    IntPolynomial,
    MonomialIdeal,
    Poset,
    SimplicialComplex,
    complex_from_facets,
    ideal_from_generators,
    poset_from_cover_relations,
    reduced_betti_numbers,
)


def chain(*labels):
    return poset_from_cover_relations(labels, list(zip(labels, labels[1:])))


def examples():
    """(value, an equal value built apart, a value of the class that differs)."""
    ideal = ideal_from_generators(["x", "y"], [(2, 0), (1, 1)])
    return [
        (chain("a", "b", "c"), Poset(["a", "b", "c"], [6, 4, 0]), chain("a", "c", "b")),
        (
            complex_from_facets(["x", "y", "z"], [["x", "y"], ["z"]]),
            SimplicialComplex(["x", "y", "z"], [3, 4]),
            complex_from_facets(["x", "y", "z"], [["x", "y", "z"]]),
        ),
        (FieldSpec(2), FieldSpec(characteristic=2), FieldSpec(3)),
        (ideal, MonomialIdeal(["x", "y"], [[1, 1], [2, 0], [3, 0]]), ideal_from_generators(["x", "y"], [(1, 0)])),
        (
            HodgeData(chain("x", "y"), ideal),
            HodgeData(sigma=MonomialIdeal(("x", "y"), ((1, 1), (2, 0))), poset=chain("x", "y")),
            HodgeData(chain("x", "y"), ideal_from_generators(["x", "y"], [(1, 0)])),
        ),
        (BettiVector({-1: 0, 0: 1}), BettiVector({0: 1}), BettiVector({0: 2})),
        (
            IntPolynomial(("x", "y"), {(1, 0): 2, (0, 1): -1}),
            IntPolynomial(variables=["x", "y"], terms={(0, 1): -1, (1, 0): 2, (1, 1): 0}),
            IntPolynomial(("y", "x"), {(1, 0): 2, (0, 1): -1}),
        ),
    ]


IDS = ["Poset", "SimplicialComplex", "FieldSpec", "MonomialIdeal", "HodgeData", "BettiVector", "IntPolynomial"]
UNHASHABLE = (BettiVector, IntPolynomial)


@pytest.mark.parametrize("case", range(len(IDS)), ids=IDS)
def test_equal_exactly_when_class_and_fields_match(case):
    value, same, other = examples()[case]
    assert value == same and same == value and not value != same
    assert value != other and other != value
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(same)
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("case", range(len(IDS)), ids=IDS)
def test_other_types_not_implemented(case):
    value = examples()[case][0]
    for foreign in (None, 0, "x", (), object()):
        assert value.__eq__(foreign) is NotImplemented
        assert value != foreign
    for other_case in examples():
        if type(other_case[0]) is not type(value):
            assert value.__eq__(other_case[0]) is NotImplemented


def test_same_fields_other_class_unequal():
    p, k = Poset(["a"], [0]), SimplicialComplex(["a"], [0])
    assert (p.elements, p.lt) == (k.vertices, k.facets)
    assert p != k and k != p


def test_reprs():
    ideal = ideal_from_generators(["x", "y"], [(2, 0), (1, 1)])
    k = complex_from_facets(["x", "y", "z"], [["x", "y"], ["z"]])
    assert repr(chain("a", "b", "c")) == "Poset(['a', 'b', 'c'], covers=[a<b, b<c])"
    assert repr(k) == "SimplicialComplex(['x', 'y', 'z'], [['x', 'y'], ['z']])"
    assert repr(FieldSpec(2)) == "FieldSpec(characteristic=2)"
    assert repr(QQ) == repr(FieldSpec()) == "FieldSpec(characteristic=0)"
    assert repr(ideal) == "MonomialIdeal(['x', 'y'], ['x*y', 'x^2'])"
    assert repr(HodgeData(chain("x", "y"), ideal)) == (
        "HodgeData(poset=Poset(['x', 'y'], covers=[x<y]), "
        "sigma=MonomialIdeal(['x', 'y'], ['x*y', 'x^2']))"
    )
    assert repr(BettiVector({-1: 0, 0: 1})) == "BettiVector(values={-1: 0, 0: 1})"
    assert repr(reduced_betti_numbers(k, QQ)) == "BettiVector(values={-1: 0, 0: 1, 1: 0})"
    assert repr(IntPolynomial(("x", "y"), {(1, 0): 2, (0, 1): -1, (2, 1): 1})) == (
        "IntPolynomial(-1*y + 2*x + 1*x^2*y)"
    )
    assert repr(IntPolynomial(("x",), {})) == repr(IntPolynomial(("x",), {(1,): 0})) == "IntPolynomial(0)"


def test_keyword_construction():
    assert Poset(elements=["a", "b"], lt=[2, 0]) == chain("a", "b")
    assert SimplicialComplex(vertices=["x"], facets=[1]) == complex_from_facets(["x"], [["x"]])
    assert FieldSpec() == QQ and FieldSpec(characteristic=0) == QQ
    assert MonomialIdeal(variables=["x"], generators=[[1]]) == ideal_from_generators(["x"], [(1,)])
    assert BettiVector(values={0: 1})[0] == 1


@pytest.mark.parametrize("case", range(len(IDS)), ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(case):
    value = examples()[case][0]
    before = repr(value)
    for name in type(value)._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("case", range(len(IDS)), ids=IDS)
def test_pickle_and_deepcopy_round_trip(case):
    value = examples()[case][0]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


def test_round_trip_keeps_poset_caches_working():
    p = chain("a", "b", "c")
    p.down_masks()
    twin = pickle.loads(pickle.dumps(p))
    assert twin.down_masks() == p.down_masks() and twin.cover_pairs_idx() == p.cover_pairs_idx()


def test_betti_vector_unhashable():
    with pytest.raises(TypeError):
        hash(BettiVector({0: 1}))


def test_import_loads_no_dataclasses_inspect_or_typing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(srposet.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import srposet, srposet.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
