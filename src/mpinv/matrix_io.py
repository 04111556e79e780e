"""Canonical JSON wire format for matrices.

A matrix is serialized as ``{"rows": m, "cols": n, "data": [[re, im], ...]}``
with ``data`` row-major of length ``m * n``; an n-by-0 or 0-by-n factor
writes ``"data": []``.  Parsing rejects wrong lengths, entries that are
not JSON numbers (booleans included), non-finite values and empty
shapes.

``dumps`` is the one writer of the wire text.  It takes complex ndarrays
where matrix dicts go, renders each from one flat float list, and returns
exactly ``json.dumps(_json_ready(obj), indent=2)``; ``_json_ready`` puts
each array in its ``matrix_to_dict`` form, as ``as_dict()`` returns it.
"""

from __future__ import annotations

import cmath
import json
from itertools import chain, repeat

import numpy as np

from .core import as_matrix

__all__ = ["matrix_to_dict", "matrix_from_dict", "load_matrix", "save_matrix", "dumps"]

_NUMBER = (int, float)
_PAIR = (list, tuple)


def _matrix(m) -> np.ndarray:
    """``as_matrix``, letting through the empty factors of a decomposition."""
    a = np.asarray(m, dtype=np.complex128)
    return a if a.ndim == 2 and a.size == 0 else as_matrix(a)


def matrix_to_dict(m) -> dict:
    """Serialize a matrix to the canonical JSON-ready dict."""
    a = _matrix(m)
    flat = a.ravel()
    data = np.column_stack([flat.real, flat.imag]).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def _entries(data):
    """``data`` as one float64 array of (re, im) values, or None if any
    entry is malformed.  Checks run over all entries at once."""
    if not all(map(isinstance, data, repeat(_PAIR))) or set(map(len, data)) != {2}:
        return None
    flat = list(chain.from_iterable(data))
    # Exact types: JSON numbers parse to int or float, and bool is an int.
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return values if np.isfinite(values).all() else None


def _raise_first_bad_entry(data):
    """Raise the ``ValueError`` that names the first entry ``_entries``
    rejected."""
    for i, pair in enumerate(data):
        if not isinstance(pair, _PAIR) or len(pair) != 2:
            raise ValueError(f"data[{i}] must be a [re, im] pair")
        re, im = pair
        if type(re) not in _NUMBER or type(im) not in _NUMBER:
            raise ValueError(f"data[{i}] must hold two numbers, got {pair!r}")
        try:
            z = complex(re, im)
        except OverflowError:
            raise ValueError(f"data[{i}] is not finite") from None
        if not cmath.isfinite(z):
            raise ValueError(f"data[{i}] is not finite")


def matrix_from_dict(obj) -> np.ndarray:
    """Parse the canonical dict form back into a complex matrix.

    Each entry parses to the bits of ``complex(re, im)``, signed zeros
    included; an error names the first malformed entry.
    """
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    missing = {"rows", "cols", "data"} - obj.keys()
    if missing:
        raise ValueError(f"matrix JSON missing keys: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(
            f"data must be a list of length rows*cols = {rows * cols}, "
            f"got {len(data) if isinstance(data, list) else type(data).__name__}"
        )
    values = _entries(data)
    if values is None:
        _raise_first_bad_entry(data)
    return values.view(np.complex128).reshape(rows, cols)


class _Text(str):
    """A matrix's wire text at indent 0; ``dumps`` places it as the matrix."""


def _render(m) -> _Text:
    """``json.dumps(matrix_to_dict(m), indent=2)``, built from one flat
    float list."""
    a = _matrix(m)
    head = '{\n  "rows": %d,\n  "cols": %d,\n  "data": ' % a.shape
    if a.size == 0:
        return _Text(head + "[]\n}")
    # re, im alternate; each pair closes and the next opens after an im.
    seps = [",\n      ", "\n    ],\n    [\n      "] * a.size
    seps[-1] = "\n    ]\n  ]\n}"
    values = map(float.__repr__, a.ravel().view(np.float64).tolist())
    return _Text(head + "[\n    [\n      " + "".join(chain.from_iterable(zip(values, seps))))


def _replace_matrices(obj, f):
    """A copy of ``obj`` with each matrix (an ndarray, or a ``_Text``) ``v``
    replaced by ``f(v)``, in the order json encodes them."""
    if isinstance(obj, (np.ndarray, _Text)):
        return f(obj)
    if isinstance(obj, dict):
        return {key: _replace_matrices(value, f) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_replace_matrices(value, f) for value in obj]
    return obj


def _json_ready(obj):
    """``obj`` with each matrix array as its ``matrix_to_dict`` form."""
    return _replace_matrices(obj, matrix_to_dict)


# Stands in for each matrix while json encodes the rest.
_SLOT = "\x00mpinv-matrix-data\x00"
_SLOT_JSON = json.dumps(_SLOT)


def dumps(obj) -> str:
    """Exactly ``json.dumps(_json_ready(obj), indent=2)`` for any acyclic
    ``obj``, each matrix rendered once by ``_render`` instead of by the
    pure-Python encoder that ``indent`` selects.  A matrix's text is
    rendered at indent 0 and re-indented where it lands."""
    texts = []

    def take(m):
        texts.append(m if isinstance(m, _Text) else _render(m))
        return _SLOT

    parts = json.dumps(_replace_matrices(obj, take), indent=2).split(_SLOT_JSON)
    if len(parts) != len(texts) + 1:  # a string in obj spells the slot marker
        rendered = iter(texts)
        return json.dumps(_replace_matrices(obj, lambda m: json.loads(next(rendered))), indent=2)
    out = [parts[0]]
    for text, before, after in zip(texts, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        out += [text.replace("\n", "\n" + " " * (len(line) - len(line.lstrip(" ")))), after]
    return "".join(out)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON ({exc})") from exc
        except RecursionError:  # the decoder recurses once per nested array
            raise ValueError(f"{path}: malformed JSON (nesting too deep)") from None
    return matrix_from_dict(obj)


def save_matrix(m, path) -> str:
    """Write ``m``'s wire text and a newline to ``path``; return the text,
    which ``dumps`` places as it would ``m``."""
    text = _render(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return text
