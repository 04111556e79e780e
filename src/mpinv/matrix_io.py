"""Canonical JSON wire format for matrices.

A matrix is serialized as ``{"rows": m, "cols": n, "data": [[re, im], ...]}``
with ``data`` row-major of length ``m * n``.  Parsing rejects wrong
lengths, entries that are not JSON numbers (booleans included) and
non-finite values.  ``dumps`` is the one writer of the wire text: it
returns exactly ``json.dumps(obj, indent=2)``.
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


def matrix_to_dict(m) -> dict:
    """Serialize a matrix to the canonical JSON-ready dict."""
    a = as_matrix(m)
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


# Stands in for each matrix ``data`` list while json encodes the rest.
_SLOT = "\x00mpinv-matrix-data\x00"
_SLOT_JSON = json.dumps(_SLOT)


def _with_slots(obj, slots):
    """A copy of ``obj`` in which every non-empty list of float pairs
    held under a ``"data"`` key is moved to ``slots`` and replaced by
    ``_SLOT``, in the order json encodes them."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key == "data" and _is_float_pairs(value):
                slots.append(value)
                out[key] = _SLOT
            else:
                out[key] = _with_slots(value, slots)
        return out
    if isinstance(obj, _PAIR):
        return [_with_slots(v, slots) for v in obj]
    return obj


def _is_float_pairs(value) -> bool:
    return (
        type(value) is list
        and len(value) > 0
        and set(map(type, value)) == {list}
        and set(map(len, value)) == {2}
        and set(map(type, chain.from_iterable(value))) == {float}
    )


def _render_pairs(data, indent: str) -> str:
    """``json.dumps(data, indent=2)`` for a list of float pairs whose
    opening bracket sits on a line indented by ``indent``."""
    outer = "\n" + indent + "  "
    inner = outer + "  "
    reprs = map(float.__repr__, chain.from_iterable(data))
    pairs = map(("," + inner).join, zip(reprs, reprs))
    body = (outer + "]," + outer + "[" + inner).join(pairs)
    # json spells the non-finite floats NaN, Infinity and -Infinity;
    # no finite repr contains an "n".
    body = body.replace("nan", "NaN").replace("inf", "Infinity")
    return "[" + outer + "[" + inner + body + outer + "]\n" + indent + "]"


def dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)`` for any acyclic ``obj``, with
    each matrix ``data`` list rendered in bulk instead of by the
    pure-Python encoder that ``indent`` selects."""
    slots = []
    skeleton = json.dumps(_with_slots(obj, slots), indent=2)
    parts = skeleton.split(_SLOT_JSON)
    if len(parts) != len(slots) + 1:  # a string in obj spells the slot marker
        return json.dumps(obj, indent=2)
    out = [parts[0]]
    for data, before, after in zip(slots, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        out += [_render_pairs(data, " " * (len(line) - len(line.lstrip(" ")))), after]
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


def save_matrix(m, path) -> None:
    text = dumps(matrix_to_dict(m))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
