"""Tests for the canonical matrix JSON wire format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinv import load_matrix, matrix_from_dict, matrix_to_dict, save_matrix

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_known_encoding():
    d = matrix_to_dict(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert d == {"rows": 2, "cols": 2, "data": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    data=st.data(),
)
def test_round_trip_exact(rows, cols, data):
    values = data.draw(
        st.lists(st.tuples(finite, finite), min_size=rows * cols, max_size=rows * cols)
    )
    m = np.array([complex(re, im) for re, im in values]).reshape(rows, cols)
    back = matrix_from_dict(matrix_to_dict(m))
    assert np.array_equal(back, m)


def test_round_trip_through_json_text():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    text = json.dumps(matrix_to_dict(m))
    assert np.array_equal(matrix_from_dict(json.loads(text)), m)


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "must be an object"),
        ({"rows": 2, "cols": 2}, "missing keys"),
        ({"rows": 0, "cols": 2, "data": []}, "positive integers"),
        ({"rows": 2, "cols": 2, "data": [[1, 0]]}, "length rows"),
        ({"rows": 1, "cols": 1, "data": [[1]]}, "pair"),
        ({"rows": 1, "cols": 1, "data": [[1, "x"]]}, None),
        ({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]}, "not finite"),
        ({"rows": 1, "cols": 1, "data": [[float("inf"), 0]]}, "not finite"),
        ({"rows": 1, "cols": 1, "data": [[10**400, 0]]}, "not finite"),
        ({"rows": True, "cols": True, "data": [[1, 0]]}, "positive integers"),
        ({"rows": 1, "cols": 2, "data": [[1, 0], [None, 0]]}, r"data\[1\]"),
        ({"rows": 1, "cols": 2, "data": [[1, 0], ["1.5", 0]]}, r"data\[1\]"),
        ({"rows": 1, "cols": 2, "data": [[1, 0], [0, True]]}, r"data\[1\]"),
    ],
)
def test_rejects_malformed(obj, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_dict(obj)


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        load_matrix(path)
