"""Canonical JSON wire format for matrices.

A matrix is serialized as ``{"rows": m, "cols": n, "data": [[re, im], ...]}``
with ``data`` row-major of length ``m * n``.  Parsing rejects wrong
lengths, entries that are not JSON numbers (booleans included) and
non-finite values.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

from .core import as_matrix

__all__ = ["matrix_to_dict", "matrix_from_dict", "load_matrix", "save_matrix"]

_NUMBER = (int, float)


def matrix_to_dict(m) -> dict:
    """Serialize a matrix to the canonical JSON-ready dict."""
    a = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_dict(obj) -> np.ndarray:
    """Parse the canonical dict form back into a complex matrix."""
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
    entries = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"data[{i}] must be a [re, im] pair")
        re, im = pair
        # Exact types: JSON numbers parse to int or float, and bool is an int.
        if type(re) not in _NUMBER or type(im) not in _NUMBER:
            raise ValueError(f"data[{i}] must hold two numbers, got {pair!r}")
        try:
            z = complex(re, im)
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError(f"data[{i}] is not finite") from None
        if not cmath.isfinite(z):
            raise ValueError(f"data[{i}] is not finite")
        entries[i] = z
    return entries.reshape(rows, cols)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON ({exc})") from exc
    return matrix_from_dict(obj)


def save_matrix(m, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(m), fh, indent=2)
        fh.write("\n")
