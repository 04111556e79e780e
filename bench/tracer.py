"""Spans around the public functions of the eight mpinv modules.

``Tracer.install`` wraps every public function of ``src/mpinv`` (the
functions each module lists in ``__all__``) and rebinds the wrapper
wherever an mpinv module holds the original under any name, so calls
between modules are caught as well as calls from the benchmark.
``uninstall`` puts the originals back. Nothing in the library changes.

Each call records one span in flat in-memory arrays: name, start, end,
parent span and operation id, plus whether it raised. ``summary``
turns the spans of one pass into per-layer figures; a layer's self
time is its span time minus the time its child spans cover. ``save``
writes the spans out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("core", "pinv", "reverse_order", "mp_hermitian", "isometry", "harness",
           "matrix_io", "cli")

# Seeded input generators; ``harness.generate.ms_per_op`` is the time in
# the outermost of these per operation.
GENERATORS = frozenset({
    "harness.generate_regular", "harness.generate_rol_pair", "harness.rol_negative_pair",
    "harness.mbekhta_gap_pair", "harness.nonnormal_mph_fixture",
    "harness.nonhermitian_partial_isometry_fixture", "mp_hermitian.generate_mp_hermitian",
    "isometry.random_partial_isometry", "isometry.random_hermitian_partial_isometry",
    "isometry.matrix_with_singular_values", "isometry.generate_special",
})

COUNTED = ("core.svd", "core.frobenius_norm", "core.as_matrix", "pinv.pinv")
SELF_TIMED = (
    "core.svd", "core.frobenius_norm", "core.as_matrix", "pinv.pinv", "pinv.penrose_residuals",
    "reverse_order.full_report",
    "mp_hermitian.is_mp_hermitian", "mp_hermitian.algebraic_mph_check",
    "mp_hermitian.mph_subspace_check", "mp_hermitian.mph_decompose",
    "isometry.classify", "isometry.norm_conorm_check", "isometry.normal_mph_check",
    "isometry.is_partial_isometry", "cli.main",
)
INCLUSIVE_TIMED = ("matrix_io.load_matrix", "matrix_io.save_matrix", "matrix_io.matrix_to_dict")


def public_functions() -> list:
    """(span name, function) for every public function of the modules."""
    found = []
    for short in MODULES:
        mod = importlib.import_module(f"mpinv.{short}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found.append((f"{short}.{attr}", fn))
    return found


class Tracer:
    """Records spans while installed; see the module docstring."""

    # ``pinv.numpy_ratio`` re-times this function on its first inputs.
    CAPTURE = "pinv.pinv"
    CAPTURE_LIMIT = 256

    def __init__(self):
        self.targets = public_functions()
        self.names = [name for name, _ in self.targets]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.raised = array("b")
        self.op_id = -1
        self.captured = []  # first arguments of the first CAPTURE calls
        self._stack = []
        self._wrappers = {id(fn): self._wrap(i, fn) for i, (_, fn) in enumerate(self.targets)}
        self._originals = {id(fn): fn for _, fn in self.targets}
        self._patched = []

    def _wrap(self, nid, fn):
        start, end, name, parent, op, raised = (
            self.start, self.end, self.name, self.parent, self.op, self.raised)
        stack = self._stack
        capture = nid == self.index[self.CAPTURE]
        captured, limit = self.captured, self.CAPTURE_LIMIT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            raised.append(0)
            end.append(0.0)
            if capture and len(captured) < limit:
                captured.append(args[0])
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()

        wrapper.bench_traced = True
        return wrapper

    @staticmethod
    def _mpinv_modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "mpinv" or n.startswith("mpinv."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod in self._mpinv_modules():
            for attr, value in list(vars(mod).items()):
                if self._originals.get(id(value)) is value:
                    setattr(mod, attr, self._wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def wrappers_present(self) -> int:
        """Wrapped functions still bound in any mpinv module."""
        return sum(1 for mod in self._mpinv_modules() for value in vars(mod).values()
                   if getattr(value, "bench_traced", False))

    def mark(self) -> int:
        return len(self.start)

    def summary(self, lo: int, hi: int, n_ops: int) -> dict:
        """Per-layer figures of the spans recorded in [lo, hi) over n_ops operations."""
        n = hi - lo
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy()
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        op = np.frombuffer(self.op, dtype=np.int64)[lo:hi].copy()
        raised = np.frombuffer(self.raised, dtype=np.int8)[lo:hi].copy()
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)

        ix = self.index
        is_gen = np.isin(name, [ix[g] for g in GENERATORS])
        is_iso = np.array([nm.startswith("isometry.") for nm in self.names])[name]
        is_fr = name == ix["reverse_order.full_report"]
        # Parents precede their children, so one forward sweep settles
        # which spans sit under a full_report, an isometry call or a generator.
        parents = parent.tolist()
        marks = [is_fr.tolist(), is_iso.tolist(), is_gen.tolist()]
        under = [[False] * n for _ in marks]
        for i, p in enumerate(parents):
            if p >= 0:
                for mark, below in zip(marks, under):
                    below[i] = below[p] or mark[p]
        under_fr, under_iso, under_gen = (np.array(u, dtype=bool) for u in under)

        is_pinv = name == ix["pinv.pinv"]
        is_svd = name == ix["core.svd"]
        per_op = 1.0 / n_ops
        out = {}
        for nm in COUNTED:
            out[f"{nm}.calls_per_op"] = calls[ix[nm]] * per_op
        for nm in SELF_TIMED:
            out[f"{nm}.self_ms_per_op"] = self_s[ix[nm]] * 1e3 * per_op
        for nm in INCLUSIVE_TIMED:
            out[f"{nm}.ms_per_op"] = incl_s[ix[nm]] * 1e3 * per_op
        n_fr = int(is_fr.sum())
        out["reverse_order.pinv_calls_per_pair"] = (
            int((is_pinv & under_fr).sum()) / n_fr if n_fr else 0.0)
        iso_ops = np.unique(op[is_iso]).size
        out["isometry.svd_calls_per_matrix"] = (
            int((is_svd & under_iso).sum()) / iso_ops if iso_ops else 0.0)
        n_pinv = int(is_pinv.sum())
        out["pinv.certify_reject_share"] = (
            int((is_pinv & (raised == 1)).sum()) / n_pinv if n_pinv else 0.0)
        out["harness.generate.ms_per_op"] = float(dur[is_gen & ~under_gen].sum()) * 1e3 * per_op
        out["spans"] = n
        out["calls"] = {self.names[i]: int(c) for i, c in enumerate(calls) if c}
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            raised=np.frombuffer(self.raised, dtype=np.int8),
            names=np.array(json.dumps(self.names)),
        )
