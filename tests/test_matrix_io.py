"""Tests for the canonical matrix JSON wire format."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinv import load_matrix, matrix_from_dict, matrix_to_dict, save_matrix
from mpinv.matrix_io import _SLOT, dumps

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_known_encoding():
    d = matrix_to_dict(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert d == {"rows": 2, "cols": 2, "data": [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}


@settings(max_examples=60)
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
        ({"rows": 1, "cols": 2, "data": [(1, 0), (2,)]}, r"^data\[1\] must be a \[re, im\] pair$"),
        ({"rows": 1, "cols": 2, "data": [(1, 0), (0, "x")]},
         r"^data\[1\] must hold two numbers, got \(0, 'x'\)$"),
        ({"rows": 1, "cols": 2, "data": [(1, 0), [1, 2, 3]]}, r"^data\[1\] must be a \[re, im\] pair$"),
        ({"rows": 1, "cols": 2, "data": [[5e-324, 0], [0, -10**400]]}, r"^data\[1\] is not finite$"),
        ({"rows": 1, "cols": 3, "data": [[2**63 + 1, 0], [1, None], [float("nan"), 0]]},
         r"^data\[1\] must hold two numbers, got \[1, None\]$"),
        ({"rows": 1, "cols": 1, "data": [5]}, r"^data\[0\] must be a \[re, im\] pair$"),
    ],
)
def test_rejects_malformed(obj, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_dict(obj)


@pytest.mark.parametrize(
    "data",
    [
        [(1.5, -2), (0, 3)],
        [[2**53 + 1, 0], [0, 2**53 + 1]],
        [[2**63 + 1, -(2**63 + 1)], [2**64, 1]],
        [[-10**308, 10**308], [1, 1]],
        [[-0, -0.0], [-0.0, -0]],
        [[5e-324, -5e-324], [-0.0, 0.0]],
        [[1.7976931348623157e308, -2.2250738585072014e-308], [0.1, 1.5]],
    ],
)
def test_parses_like_complex(data):
    # Bit for bit, signed zeros included.
    expected = np.array([complex(re, im) for re, im in data]).reshape(1, 2)
    assert matrix_from_dict({"rows": 1, "cols": 2, "data": data}).tobytes() == expected.tobytes()


def test_dumps_matches_indented_json():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = complex(-0.0, 5e-324)
    report = {
        "matrices": [matrix_to_dict(m), {"name": "x", "m": matrix_to_dict(m.T[:1])}],
        "empty": {"rows": 2, "cols": 0, "data": []},
        "data": [[1.0, float("nan")], [float("inf"), -float("inf")]],
        "not_pairs": {"data": [[1, 2.0], [3.0]]},
        "tuple": ({"data": [[0.5, 1e300]]}, 2),
        "keys": {1: None, 2.5: True, False: "s"},
        "top": 1e-7,
    }
    for obj in (matrix_to_dict(m), report, [report, []], {}, [], 3.0, "data"):
        assert dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_survives_a_string_that_spells_its_marker():
    from mpinv.matrix_io import _SLOT

    obj = {_SLOT: _SLOT, "m": matrix_to_dict(np.eye(2))}
    assert dumps(obj) == json.dumps(obj, indent=2)


def _as_dicts(obj):
    """``obj`` with each ndarray swapped for its ``matrix_to_dict`` form."""
    if isinstance(obj, np.ndarray):
        return matrix_to_dict(obj)
    if isinstance(obj, dict):
        return {k: _as_dicts(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_dicts(v) for v in obj]
    return obj


_RNG = np.random.default_rng(5)
_M = _RNG.standard_normal((6, 7)) + 1j * _RNG.standard_normal((6, 7))
_EXTREMES = np.array([[complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0)],
                      [complex(-1.7976931348623157e308, -5e-324), complex(0.0, -0.0)]])


@pytest.mark.parametrize(
    "m",
    [_M[:1, :1], _M[:1], _M[:, :1], _M[:, :0], _M[:0], np.asfortranarray(_M),
     _M[:, 4:], _M.T[:, 2:], np.asfortranarray(_M)[:, 3:], _M[::2, ::3], _EXTREMES,
     _EXTREMES.real],
    ids=["1x1", "1xn", "nx1", "nx0", "0xn", "f_ordered", "column_slice",
         "transposed_slice", "f_ordered_slice", "strided", "extremes", "real"],
)
def test_dumps_of_arrays_matches_indented_json_of_their_dicts(m):
    obj = {"m": m, "nested": [{"data": m, "k": 1}, (m, -0.0)], "scalar": 5e-324}
    for o in (m, obj, [obj, m]):
        assert dumps(o) == json.dumps(_as_dicts(o), indent=2)


def test_empty_factor_writes_empty_data():
    assert matrix_to_dict(np.zeros((3, 0))) == {"rows": 3, "cols": 0, "data": []}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_dumps_refuses_a_non_finite_array_as_matrix_to_dict_does(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValueError) as expected:
        matrix_to_dict(m)
    with pytest.raises(ValueError) as got:
        dumps({"m": m})
    assert str(got.value) == str(expected.value)


def test_dumps_places_saved_text(tmp_path):
    m = _M[:2, :3]
    text = save_matrix(m, tmp_path / "m.json")
    d = matrix_to_dict(m)
    assert dumps({"m": text, "k": [text]}) == json.dumps({"m": d, "k": [d]}, indent=2)
    # A string that spells the slot marker sends dumps down its json path.
    obj = {_SLOT: _SLOT, "m": m, "t": text}
    assert dumps(obj) == json.dumps({_SLOT: _SLOT, "m": d, "t": d}, indent=2)


def test_save_matrix_writes_indented_json(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 2)) - 1j * rng.standard_normal((5, 2))
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_dict(m), indent=2) + "\n"


def test_one_indented_json_writer():
    # The wire text has one writer, matrix_io.dumps: no other module may
    # call json.dump or json.dumps with indent.
    src = Path(__file__).resolve().parents[1] / "src" / "mpinv"
    counts = {}
    for p in src.glob("*.py"):
        counts[p.name] = sum(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and any(k.arg == "indent" for k in node.keywords)
            for node in ast.walk(ast.parse(p.read_text()))
        )
    assert counts.pop("matrix_io.py") >= 1
    assert not any(counts.values()), counts


def test_cli_builds_no_pair_lists():
    # Answers and fuzz records hold their matrices as arrays until
    # matrix_io.dumps or as_dict() writes them, so no module but matrix_io
    # calls matrix_to_dict, and only __init__ re-exports it.
    src = Path(__file__).resolve().parents[1] / "src" / "mpinv"
    for p in src.glob("*.py"):
        nodes = list(ast.walk(ast.parse(p.read_text())))
        called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                  for n in nodes if isinstance(n, ast.Call)}
        imported = {a.name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                    for a in n.names}
        assert p.name == "matrix_io.py" or "matrix_to_dict" not in called, p.name
        assert p.name == "__init__.py" or "matrix_to_dict" not in imported, p.name


def test_as_dict_is_defined_once():
    # Every answer describes itself in report(); as_dict() is its one
    # JSON-ready form, defined on the base class all of them share.
    src = Path(__file__).resolve().parents[1] / "src" / "mpinv"
    defs = [p.name for p in src.glob("*.py") for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.FunctionDef) and n.name == "as_dict"]
    assert defs == ["core.py"]


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        load_matrix(path)
