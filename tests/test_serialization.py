import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from diskflow.angles import conformal_class_of
from diskflow.errors import finite_vector
from diskflow.serialization import (
    angle_system_to_dict,
    class_spec_from_dict,
    class_spec_to_dict,
    dumps_canonical,
    mesh_from_dict,
    structure_from_dict,
    structure_to_dict,
    trials_csv,
)
from diskflow.uniformize import assemble_structure
from oracles import angle_system_from_dict, dumps_canonical_recursive, mesh_to_dict


def test_canonical_json_is_valid_json_and_sorted():
    s = dumps_canonical({"b": [1.5, 2], "a": {"y": None, "x": True}})
    assert json.loads(s) == {"b": [1.5, 2], "a": {"y": None, "x": True}}
    assert s.index('"a"') < s.index('"b"')


def test_float_formatting_roundtrips_exactly():
    vals = [np.pi, 1 / 3, 1e-17, 12345.6789, -np.e]
    s = dumps_canonical(vals)
    assert json.loads(s) == vals


def test_angle_system_roundtrip(symmetric_g2_system):
    data = json.loads(dumps_canonical(angle_system_to_dict(symmetric_g2_system)))
    x = angle_system_from_dict(data)
    assert x.complex == symmetric_g2_system.complex
    assert np.array_equal(x.psi, symmetric_g2_system.psi)


def test_class_spec_roundtrip(canonical24_system):
    spec = conformal_class_of(canonical24_system)
    data = json.loads(dumps_canonical(class_spec_to_dict(spec)))
    spec2 = class_spec_from_dict(data)
    assert spec2.complex == spec.complex
    assert np.array_equal(spec2.psi_edge, spec.psi_edge)


def test_mesh_roundtrip(cone14_mesh):
    data = json.loads(dumps_canonical(mesh_to_dict(cone14_mesh)))
    mesh = mesh_from_dict(data)
    assert np.array_equal(mesh.lengths, cone14_mesh.lengths)
    assert np.array_equal(mesh.curvature, cone14_mesh.curvature)


def test_structure_roundtrip(symmetric_g2_system):
    st = assemble_structure(symmetric_g2_system)
    data = json.loads(dumps_canonical(structure_to_dict(st)))
    st2 = structure_from_dict(data)
    assert np.array_equal(st2.edge_lengths, st.edge_lengths)
    assert np.array_equal(st2.circumradii, st.circumradii)
    assert st2.complex == st.complex


@pytest.mark.parametrize(
    "values, shape, message",
    [
        ([1.0, [1], 2.0], 3, "value at edge 1 is not a number ([1])"),
        ([1.0, {}, 2.0], 3, "value at edge 1 is not a number ({})"),
        ([1.0, "x", 2.0], 3, "value at edge 1 is not a number ('x')"),
        ([1.0, 10**400, 2.0], 3, "value at edge 1 is not a number (1000"),
        ([[1.0, 2.0, 3.0], [1.0, [1], 3.0]], (2, 3), "value at edge 4 is not a number ([1])"),
        ([[1.0, 2.0, 3.0], [1.0, 2.0]], (2, 3), "expected shape (2, 3), one value per edge, got (2,)"),
        ([1.0, [1], 2.0], 5, "expected shape (5,), one value per edge, got (3,)"),
    ],
    ids=["list", "dict", "string", "huge-int", "list-in-a-row", "ragged-rows", "short-and-nested"],
)
def test_finite_vector_names_the_first_value_that_is_not_a_number(values, shape, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        finite_vector(values, shape, "edge")


def test_trials_csv_shape():
    from diskflow.estimators import TrialRecord

    recs = [TrialRecord(0, 10, 16, 2.0), TrialRecord(1, 11, 18, 1.5)]
    text = trials_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "trial,n,F,estimator"
    assert lines[1] == "0,10,16,2"
    assert len(lines) == 3


# leaves of every kind the writer accepts; floats include nan, inf and -0.0
_floats = st.floats(allow_nan=True, allow_infinity=True)
_ints = st.integers(min_value=-(2**80), max_value=2**80)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    _floats,
    st.text(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
)
_arrays = st.one_of(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.int32]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
    ),
    hnp.arrays(np.float64, st.integers(0, 20), elements=_floats),
)
# the two fast paths' shapes: float lists and nested int lists like a gluing
_fast = st.one_of(
    st.lists(_floats),
    st.lists(st.lists(st.lists(_ints, max_size=2), max_size=2)),
    st.lists(st.one_of(_ints, st.booleans())),
)
_values = st.recursive(
    st.one_of(_leaves, _arrays, _fast),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_json_matches_recursive_oracle(value):
    assert dumps_canonical(value) == dumps_canonical_recursive(value)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.float16]),
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
))
def test_float_arrays_of_any_rank_match_the_recursive_oracle(a):
    assert dumps_canonical({"a": a}) == dumps_canonical_recursive({"a": a})


def test_canonical_json_of_payloads_matches_recursive_oracle(symmetric_g2_system, cone14_mesh):
    st_ = assemble_structure(symmetric_g2_system)
    for payload in (
        structure_to_dict(st_),
        angle_system_to_dict(symmetric_g2_system),
        class_spec_to_dict(conformal_class_of(symmetric_g2_system)),
        mesh_to_dict(cone14_mesh),
    ):
        assert dumps_canonical(payload) == dumps_canonical_recursive(payload)
