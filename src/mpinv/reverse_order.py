"""Reverse-order-law conditions for the pseudoinverse of a product.

``(a b)^+ = b^+ a^+`` fails in general.  This module evaluates the
catalog of necessary-and-sufficient conditions for it, built from the
projection-flavored intermediates

    p = b b^+,   q = a^+ (a^+)*,   r = b b*,   s = a^+ a,

their pseudoinverses, taken in the closed forms ``q^+ = a* a`` and
``r^+ = (b b*)^+ = (b^+)* b^+``, and the weaker generalized-inverse
criterion that uses ``p`` with ``s`` in place of ``q``.  A pair costs
three SVDs, of ``a``, ``b`` and ``ab``; a square pair stacks them and
certifies all three with one ``pinv`` call.

Each condition is one row of a table: a tuple of equations, each side a
product of named workspace matrices, scored by ``core``'s residual rule
against the product of each side's operand norms.  The table is compiled
once into generated Python code that forms each distinct product once
per pair.  A square pair whose widest level fits in a 64 KiB stack
(n <= 14) runs level by level: the products of one level are one stacked
numpy call, and so are the norms of its equations; any other pair runs
one product at a time, in the table's order, freeing each after its last
use.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConditionReport,
    Tolerance,
    adjoint,
    as_matrix,
    frobenius_norm,
    frobenius_norms,
    _scaled,
    _stack,
    _width,
)
from .pinv import pinv

__all__ = [
    "ConditionId",
    "RolIntermediates",
    "rol_intermediates",
    "evaluate_condition",
    "full_report",
    "MP_ROL_CONDITIONS",
    "MBEKHTA_CONDITIONS",
]


class ConditionId(str, Enum):
    """Tags for every reverse-order-law condition in the catalog."""

    G1 = "G1"
    G2 = "G2"
    G3 = "G3"
    G4 = "G4"
    G5 = "G5"
    MBEKHTA_GI = "MBEKHTA_GI"
    MBEKHTA_COMM = "MBEKHTA_COMM"
    MBEKHTA_IDEM = "MBEKHTA_IDEM"
    T31_II = "T31_II"
    T31_III = "T31_III"
    T32_II = "T32_II"
    T32_III = "T32_III"
    T33_II = "T33_II"
    T33_III = "T33_III"
    T34_II = "T34_II"
    T34_III = "T34_III"
    R35_COMM = "R35_COMM"
    R35_DAG_COMM = "R35_DAG_COMM"
    ROL_DIRECT = "ROL_DIRECT"


# The strictly weaker criterion that b^+ a^+ is a generalized inverse of
# ab, and the conditions equivalent to (ab)^+ = b^+ a^+ itself.
MBEKHTA_CONDITIONS = tuple(c for c in ConditionId if c.startswith("MBEKHTA_"))
MP_ROL_CONDITIONS = tuple(c for c in ConditionId if c not in MBEKHTA_CONDITIONS)


@dataclass(frozen=True)
class RolIntermediates:
    """The projection-flavored products derived from a pair (a, b).

    All six matrices are n-by-n (for a m-by-n, b n-by-k) and hermitian;
    p and s are orthogonal projections.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    q_dag: np.ndarray
    r_dag: np.ndarray

    def __post_init__(self):
        names = ("p", "q", "r", "s", "q_dag", "r_dag")
        ms = [getattr(self, name) for name in names]
        # The six m* - m, then the six m, formed and normed _width at a time
        # (all twelve in one frobenius_norms call up to n = 18).
        parts = itertools.chain((adjoint(m) - m for m in ms), ms)
        width, norms = _width(len(ms[0])), []
        while chunk := list(itertools.islice(parts, width)):
            norms += frobenius_norms(_stack(chunk))
        for name, gap, norm in zip(names, norms, norms[6:]):
            herm = _scaled(gap, norm)
            if herm > 1e-9:
                raise ValueError(f"intermediate {name} is not hermitian ({herm:.3e})")


class _Comm(NamedTuple):
    """The commutator ``x y - y x``, used as one factor of a product."""

    x: str
    y: str


class _Workspace:
    """Every matrix the catalog reads, with its norm, computed once per pair.

    ``pinv`` runs on ``a``, ``b`` and, unless ``with_ab`` is False, ``ab``,
    in that order; each run of equal shapes in that order (all three for a
    square pair) is one stack and one ``pinv`` call, so the first matrix
    that fails still raises its own error.  ``ab`` is formed in its slot
    of the stack, and the norms of the three and of their pseudoinverses
    are the ones their certificates computed.  ``q^+`` and ``r^+`` take
    their closed forms ``a* a`` and ``(b^+)* b^+``.  The six products
    ``p q r s a*a r^+`` are stacked matmuls of ``width`` slices each, whose
    norms are one ``frobenius_norms`` call.
    """

    def __init__(self, a, b, tol: Tolerance, with_ab: bool = True):
        a = as_matrix(a, "a")
        b = as_matrix(b, "b")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"product ab undefined: a is {a.shape}, b is {b.shape}")
        (m, n), k = a.shape, b.shape[1]
        # Slices per stacked product.  A rectangular pair's products differ in
        # shape, and where n is 1 numpy multiplies by BLAS vector kernels
        # whose rounding depends on the layout that a stack copy changes.
        self.width = _width(n) if m == n == k > 1 else 1
        shapes = {"a": a.shape, "b": b.shape, "ab": (m, k)}
        self.mats, self.norms, self.ranks = {}, {}, {}
        for shape, run in itertools.groupby(("a", "b", "ab")[: 3 if with_ab else 2],
                                            shapes.__getitem__):
            self._certify(a, b, tuple(run), shape, tol)
        a, b, a_dag, b_dag = (self.mats[n] for n in ("a", "b", "a_dag", "b_dag"))
        ah, bh, adh, bdh = adjoint(a), adjoint(b), adjoint(a_dag), adjoint(b_dag)
        products = (("p", b, b_dag), ("q", a_dag, adh), ("r", b, bh), ("s", a_dag, a),
                    ("aa", ah, a), ("r_dag", bdh, b_dag))
        for lo in range(0, len(products), self.width):
            names, xs, ys = zip(*products[lo:lo + self.width])
            stack = np.matmul(_stack(xs), _stack(ys))
            self.mats.update(zip(names, stack))
            self.norms.update(zip(names, frobenius_norms(stack)))
        # An adjoint has the norm of its matrix, and q^+ is a* a itself.
        for name, m, of in (("ah", ah, "a"), ("bh", bh, "b"), ("adh", adh, "a_dag"),
                            ("bdh", bdh, "b_dag"), ("q_dag", self.mats["aa"], "aa")):
            self.mats[name] = m
            self.norms[name] = self.norms[of]

    def _certify(self, a, b, names: tuple, shape: tuple, tol: Tolerance):
        """Stack the matrices ``names`` (of ``a``, ``b``, ``ab``) of one shape and
        certify them with one ``pinv`` call; keep each matrix, its pseudoinverse,
        their norms and its rank, and drop the factorizations on return."""
        stack = np.empty((len(names), *shape), dtype=np.complex128)
        for name, slot in zip(names, stack):
            if name == "ab":
                # ab is formed before a and b certify; if it overflows, the
                # refusal of a, b or ab says so, without a numpy warning first.
                with np.errstate(over="ignore", invalid="ignore"):
                    np.matmul(a, b, out=slot)
            else:
                slot[...] = a if name == "a" else b
        for name, slot, result in zip(names, stack, pinv(stack, tol)):
            self.mats[name], self.mats[name + "_dag"] = slot, result.pinv
            self.norms[name], self.norms[name + "_dag"] = result.residuals.norms
            self.ranks[name] = result.rank

    def intermediates(self) -> RolIntermediates:
        return RolIntermediates(**{
            name: self.mats[name] for name in ("p", "q", "r", "s", "q_dag", "r_dag")
        })


def _flat(factors) -> tuple:
    """The workspace names in a product or equation, left to right."""
    return tuple(n for f in factors for n in ((f,) if isinstance(f, str) else _flat(f)))


def _level(op, arena, x, y, lo: int, hi: int):
    """The steps of one level and kind: ``op`` of the arena's slices ``x`` and
    ``y``, two index arrays, as one stacked call into its slices ``lo:hi``."""
    op(arena[x], arena[y], out=arena[lo:hi])


def _norms(arena, lhs, rhs) -> list:
    """The norms of ``arena[lhs[i]] - arena[rhs[i]]`` for each ``rhs[i]``, then of
    each further ``arena[lhs[i]]``, from one ``frobenius_norms`` call."""
    stack = arena[lhs]
    np.subtract(stack[:len(rhs)], arena[rhs], out=stack[:len(rhs)])
    return frobenius_norms(stack)


class _Program:
    """Catalog rows compiled to generated functions of straight-line code.

    Slots ``0 .. len(leaves) - 1`` hold workspace matrices; instruction
    ``i`` of ``code``, ``(op, x, y, factors, level)``, fills slot
    ``len(leaves) + i``.  A step (``op`` a matmul or a commutator's
    subtraction) holds ``op(slot x, slot y)``; no two steps are alike, so
    each product is formed once, left to right with nested factors first,
    as the table writes it.  An equation (``op`` None) holds its residual;
    ``factors`` are the operand names of each side, whose norm products
    scale it.  Leaves are on level 0 and an instruction is one level above
    its highest operand, so no instruction reads another of its level.

    ``run`` has two generated functions, whose text is ``sources[True]``
    (also ``source``) and ``sources[False]``.  When the workspace's
    ``width`` holds the widest level, every matrix lives in one stack, the
    arena, and the instructions run level by level: the steps of one kind
    are one stacked call into the arena (``_level``), and the equations'
    norms one ``frobenius_norms`` call (``_norms``).  Otherwise each
    instruction runs alone, in the table's order, and each matrix is
    deleted after its last reader.  Norm products and the scale rule stay
    scalar.  Both functions look their helpers up in this module's globals
    at each call.
    """

    def __init__(self, rows: dict):
        self.leaves = list(dict.fromkeys(n for row in rows.values() for n in _flat(row)))
        slot = {name: i for i, name in enumerate(self.leaves)}
        code = []

        def emit(op, x, y, factors=None):
            key = (op, x, y, factors)  # a tuple, so never equal to a name
            if key not in slot:
                slot[key] = len(slot)
                code.append(key)
            return slot[key]

        def side(factors):
            out = None
            for f in factors:
                if isinstance(f, _Comm):
                    x, y = slot[f.x], slot[f.y]
                    f = emit(operator.sub, emit(operator.matmul, x, y),
                             emit(operator.matmul, y, x))
                else:
                    f = slot[f] if isinstance(f, str) else side(f)
                out = f if out is None else emit(operator.matmul, out, f)
            return out

        self.rows = {cond: tuple(
            emit(None, side(lhs), side(rhs), None if row is _DIRECT else (_flat(lhs), _flat(rhs)))
            for lhs, rhs in row) for cond, row in rows.items()}
        level = [0] * len(self.leaves)
        for _, x, y, _ in code:
            level.append(1 + max(level[s] for s in (x, y) if s is not None))
        self.code = [(*c, lv) for c, lv in zip(code, level[len(self.leaves):])]
        self.widest = max(Counter((op, lv) for op, *_, lv in self.code).values())
        namespace, self.sources, self._runs = {}, {}, {}
        for whole in (True, False):
            self.sources[whole], index = self._generate(slot, whole)
            exec(compile(self.sources[whole], "<reverse_order._Program>", "exec"), globals(),
                 namespace)
            self._runs[whole] = namespace.pop("run"), index
        self.source = self.sources[True]

    def _generate(self, slot: dict, whole: bool) -> tuple:
        """The text of ``run(mats, norms, index)``, which returns each row's worst
        residual, in row order, and the index arrays it gathers arena slices by."""
        code, chunks = dict(enumerate(self.code, len(self.leaves))), {}
        for i, (op, *_, lv) in sorted(code.items(), key=lambda c: c[1][-1] if whole else 0):
            chunks.setdefault((lv, op) if whole else i, []).append(i)
        pos, index = {i: i for i in range(len(self.leaves))}, []

        def ref(slots):  # an index array of the arena slices of slots
            index.append(np.array([pos[s] for s in slots], dtype=np.intp))
            return f"index[{len(index) - 1}]"

        def norm(names):
            return " * ".join(f"n{slot[name]}" for name in names)

        lines = ["def run(mats, norms, index):"]
        read = {slot[n] for *_, factors, _ in self.code if factors for f in factors for n in f}
        lines += [f"    n{i} = norms[{self.leaves[i]!r}]" for i in sorted(read)]
        if whole:
            size = len(self.leaves) + sum(op is not None for op, *_ in self.code)
            lines.append(f"    A = np.empty(({size}, *mats['a'].shape), np.complex128)")
        lines += [f"    {f'A[{i}]' if whole else f'v{i}'} = mats.pop({name!r})"
                  for i, name in enumerate(self.leaves)]
        last = {s: i for i, (_, x, y, *_) in code.items() for s in (x, y)}
        for chunk in chunks.values():
            ops = [code[i] for i in chunk]
            op, xs, ys = ops[0][0], [c[1] for c in ops], [c[2] for c in ops]
            if op is not None and whole:
                lo = len(pos)
                pos.update((i, len(pos)) for i in chunk)
                ufunc = "np.matmul" if op is operator.matmul else "np.subtract"
                lines.append(f"    _level({ufunc}, A, {ref(xs)}, {ref(ys)}, {lo}, {len(pos)})")
            elif op is not None:
                lines.append(f"    v{chunk[0]} = v{xs[0]} {'@' if op is operator.matmul else '-'} "
                             f"v{ys[0]}")
            else:
                # The differences first, then each one-sided lhs and both sides
                # of the law itself, which is scored by its sides' own norms.
                pairs = [(x, y) for x, y in zip(xs, ys) if y is not None]
                singles = [s for _, x, y, f, _ in ops if None in (y, f) for s in (x, y)
                           if s is not None]
                lines.append("    d = " + (
                    f"_norms(A, {ref([x for x, _ in pairs] + singles)}, "
                    f"{ref([y for _, y in pairs])})" if whole else "(" + "".join(
                        [f"frobenius_norm(v{x} - v{y}), " for x, y in pairs]
                        + [f"frobenius_norm(v{s}), " for s in singles]) + ")"))
                diffs, norms = iter(range(len(pairs))), itertools.count(len(pairs))
                for i, (_, x, y, factors, _) in zip(chunk, ops):
                    if factors is None:
                        args = f"d[{next(diffs)}], d[{next(norms)}], d[{next(norms)}]"
                    elif y is None:
                        args = f"d[{next(norms)}], {norm(factors[0])}"
                    else:
                        args = f"d[{next(diffs)}], {norm(factors[0])}, {norm(factors[1])}"
                    lines.append(f"    v{i} = _scaled({args})")
            dead = [] if whole else sorted(s for s in set(xs + ys) - {None} if last[s] == chunk[-1])
            if dead:
                lines.append("    del " + ", ".join(f"v{s}" for s in dead))
        worst = (f"max({', '.join(f'v{i}' for i in eqs)})" if len(eqs) > 1 else f"v{eqs[0]}"
                 for eqs in self.rows.values())
        lines.append(f"    return ({', '.join(worst)},)")
        return "\n".join(lines) + "\n", tuple(index)

    def run(self, w: _Workspace) -> dict:
        """Each row's worst residual; takes ``w.mats``, to free each after its last reader."""
        run, index = self._runs[w.width > 1 and w.width >= self.widest]
        return dict(zip(self.rows, run(w.mats, w.norms, index)))


# ROL_DIRECT is the law itself, scored by ``distance``: by its sides' own norms.
_DIRECT = ((("ab_dag",), ("b_dag", "a_dag")),)

# Each condition is a tuple of equations ``(lhs, rhs)``, each side a
# product of factors: a workspace name, a ``_Comm``, or a parenthesized
# tuple of factors.  An equation is scored by ``residual(lhs - rhs,
# ||lhs||, ||rhs||)``, each norm being the product of its side's operand
# norms; ``rhs`` () means ``lhs = 0``.  The generalized-inverse
# condition MBEKHTA_COMM pairs p = b b^+ with s = a^+ a.  The rows run in
# this order: those reading ab and ab^+ first, the q^+, r^+ family last,
# and rows sharing products side by side, so few matrices are alive at once.
_CONDITIONS = {
    ConditionId.G5: ((("s", "b"), ("b", "ab_dag", "ab")),
                     (("p", "ah"), ("ah", "ab", "ab_dag"))),
    ConditionId.MBEKHTA_GI: ((("ab", ("b_dag", "a_dag"), "ab"), ("ab",)),),
    ConditionId.G1: _DIRECT,
    ConditionId.ROL_DIRECT: _DIRECT,
    ConditionId.T32_II: ((("b_dag", _Comm("q", "p"), "ah"), ()),
                         (("b_dag", _Comm("s", "r"), "ah"), ())),
    ConditionId.G3: (((_Comm("s", "r"),), ()),
                     ((_Comm("aa", "p"),), ())),
    ConditionId.T32_III: ((("p", "q", "p", "s"), ("p", "q")),
                          (("p", "s", "r", "s"), ("r", "s"))),
    ConditionId.R35_COMM: (((_Comm("p", "q"),), ()),
                           ((_Comm("r", "s"),), ())),
    ConditionId.T31_II: ((("a", _Comm("p", "q"), "bdh"), ()),
                         (("a", _Comm("r", "s"), "bdh"), ())),
    ConditionId.G2: ((("s", "r", "ah"), ("r", "ah")),
                     (("p", ("aa", "b")), ("aa", "b"))),
    ConditionId.MBEKHTA_COMM: ((("a", _Comm("p", "s"), "b"), ()),),
    ConditionId.T31_III: ((("s", "p", ("q", "p")), ("q", "p")),
                          (("s", "r", "s", "p"), ("s", "r"))),
    ConditionId.MBEKHTA_IDEM: (((("s", "p"), ("s", "p")), ("s", "p")),),
    ConditionId.T33_III: ((("p", "q_dag", "p", "s"), ("p", "q_dag")),
                          (("p", "s", ("r_dag", "s")), ("r_dag", "s"))),
    ConditionId.G4: ((("s", "r", "aa", "p"), ("r", "aa")),),
    ConditionId.T34_III: ((("s", "p", ("q_dag", "p")), ("q_dag", "p")),
                          (("s", "r_dag", "s", "p"), ("s", "r_dag"))),
    ConditionId.T33_II: ((("bh", _Comm("q_dag", "p"), "a_dag"), ()),
                         (("bh", _Comm("s", "r_dag"), "a_dag"), ())),
    ConditionId.R35_DAG_COMM: (((_Comm("q_dag", "p"),), ()),
                               ((_Comm("r_dag", "s"),), ())),
    ConditionId.T34_II: ((("adh", _Comm("p", "q_dag"), "b"), ()),
                         (("adh", _Comm("r_dag", "s"), "b"), ())),
}
_PROGRAM = _Program(_CONDITIONS)
_REPORT_ORDER = tuple((cond, cond.value) for cond in ConditionId)
_ROW_PROGRAMS = {cond: _Program({cond: row}) for cond, row in _CONDITIONS.items()}


def rol_intermediates(a, b, tol: Tolerance = DEFAULT_TOL) -> RolIntermediates:
    """Compute p, q, r, s and the pseudoinverses of q and r for (a, b).

    None of them reads ``ab``, so only ``a`` and ``b`` are certified.
    """
    return _Workspace(a, b, tol, with_ab=False).intermediates()


def evaluate_condition(a, b, condition: ConditionId, tol: Tolerance = DEFAULT_TOL):
    """Evaluate one catalog condition on the pair (a, b).

    Returns ``(verdict, residual)`` where the verdict is
    ``residual <= tol.eq_tol``.  For two-equation conditions the
    residual is the max over the pair.  ``ab`` is certified only for the
    conditions that read ``ab`` or its pseudoinverse (G1, G5, MBEKHTA_GI
    and ROL_DIRECT), so a refusal of ``pinv(ab)`` refuses only those.
    """
    condition = ConditionId(condition)
    program = _ROW_PROGRAMS[condition]
    with_ab = not {"ab", "ab_dag"}.isdisjoint(program.leaves)
    res = program.run(_Workspace(a, b, tol, with_ab))[condition]
    return (res <= tol.eq_tol, float(res))


def full_report(a, b, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the whole catalog on (a, b), recording pinv ranks too."""
    w = _Workspace(a, b, tol)
    report = ConditionReport(tolerance_used=tol)
    residuals = _PROGRAM.run(w)
    for cond, name in _REPORT_ORDER:
        report.add(name, residuals[cond])
    report.ranks = w.ranks
    return report
