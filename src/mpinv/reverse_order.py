"""Reverse-order-law conditions for the pseudoinverse of a product.

``(a b)^+ = b^+ a^+`` fails in general.  This module evaluates the
catalog of necessary-and-sufficient conditions for it, built from the
projection-flavored intermediates

    p = b b^+,   q = a^+ (a^+)*,   r = b b*,   s = a^+ a,

their pseudoinverses, taken in the closed forms ``q^+ = a* a`` and
``r^+ = (b b*)^+ = (b^+)* b^+``, and the weaker generalized-inverse
criterion that uses ``p`` with ``s`` in place of ``q``.  A pair costs
three SVD-backed ``pinv`` calls, for ``a``, ``b`` and ``ab``.

Each condition is one row of a table: a tuple of equations, each side a
product of named workspace matrices, scored by ``core.residual`` against
the product of each side's operand norms.  The table is compiled once
into straight-line code that forms each distinct product once per pair.
"""

from __future__ import annotations

import math
import operator
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
    distance,
    frobenius_norm,
    residual,
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
        for name in ("p", "q", "r", "s", "q_dag", "r_dag"):
            m = getattr(self, name)
            herm = residual(adjoint(m) - m, frobenius_norm(m))
            if herm > 1e-9:
                raise ValueError(f"intermediate {name} is not hermitian ({herm:.3e})")


class _Comm(NamedTuple):
    """The commutator ``x y - y x``, used as one factor of a product."""

    x: str
    y: str


class _Workspace:
    """Every matrix the catalog reads, with its norm, computed once per pair.

    ``q^+`` and ``r^+`` take their closed forms ``a* a`` and
    ``(b^+)* b^+``, so ``pinv`` runs only on ``a``, ``b`` and ``ab``.
    """

    def __init__(self, a, b, tol: Tolerance):
        a = as_matrix(a, "a")
        b = as_matrix(b, "b")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"product ab undefined: a is {a.shape}, b is {b.shape}")
        ra = pinv(a, tol)
        rb = pinv(b, tol)
        ab = a @ b
        rab = pinv(ab, tol)
        self.ranks = {"a": ra.rank, "b": rb.rank, "ab": rab.rank}
        a_dag, b_dag = ra.pinv, rb.pinv
        ah, bh, adh, bdh = adjoint(a), adjoint(b), adjoint(a_dag), adjoint(b_dag)
        aa = ah @ a
        self.mats = {
            "a": a, "b": b, "ab": ab, "a_dag": a_dag, "b_dag": b_dag, "ab_dag": rab.pinv,
            "p": b @ b_dag, "q": a_dag @ adh, "r": b @ bh, "s": a_dag @ a,
            "aa": aa, "r_dag": bdh @ b_dag,
        }
        self.norms = {name: frobenius_norm(m) for name, m in self.mats.items()}
        # An adjoint has the norm of its matrix, and q^+ is a* a itself.
        for name, m, of in (("ah", ah, "a"), ("bh", bh, "b"), ("adh", adh, "a_dag"),
                            ("bdh", bdh, "b_dag"), ("q_dag", aa, "aa")):
            self.mats[name] = m
            self.norms[name] = self.norms[of]

    def intermediates(self) -> RolIntermediates:
        return RolIntermediates(**{
            name: self.mats[name] for name in ("p", "q", "r", "s", "q_dag", "r_dag")
        })


def _flat(factors) -> tuple:
    """The workspace names in a product or equation, left to right."""
    return tuple(n for f in factors for n in ((f,) if isinstance(f, str) else _flat(f)))


class _Program:
    """Catalog rows compiled to straight-line code over the workspace matrices.

    Slots ``0 .. len(leaves) - 1`` hold workspace matrices; instruction
    ``i`` of ``code``, ``(op, x, y, factors, dead)``, fills the next slot
    and then drops the slots in ``dead``, whose last reader it is.  A step
    (``op`` a matmul or a commutator's subtraction) holds ``op(slot x,
    slot y)``; no two steps are alike, so each product is formed once, left
    to right with nested factors first, as the table writes it.  An
    equation (``op`` None) holds its residual; ``factors`` are the operand
    names of each side, whose norm products scale it.
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
        last = {s: i for i, (_, x, y, _) in enumerate(code) for s in (x, y)}
        self.code = [(*c, tuple(s for s in {c[1], c[2]} - {None} if last[s] == i))
                     for i, c in enumerate(code)]

    def run(self, w: _Workspace) -> dict:
        """Each row's worst residual; takes ``w.mats``, to free each after its last reader."""
        v = [w.mats.pop(name) for name in self.leaves]
        for op, x, y, factors, dead in self.code:
            v.append(op(v[x], v[y]) if op else
                     _score(w.norms, v[x], None if y is None else v[y], factors))
            for s in dead:
                v[s] = None
        return {cond: max(v[i] for i in eqs) for cond, eqs in self.rows.items()}


def _score(norms, lhs, rhs, factors) -> float:
    """The residual of ``lhs = rhs`` (``lhs = 0`` for ``rhs`` None); see ``_CONDITIONS``."""
    if factors is None:
        return distance(lhs, rhs)
    ln = math.prod(map(norms.__getitem__, factors[0]))
    if rhs is None:
        return residual(lhs, ln)
    return residual(lhs - rhs, ln, math.prod(map(norms.__getitem__, factors[1])))


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
_ROW_PROGRAMS = {cond: _Program({cond: row}) for cond, row in _CONDITIONS.items()}


def rol_intermediates(a, b, tol: Tolerance = DEFAULT_TOL) -> RolIntermediates:
    """Compute p, q, r, s and the pseudoinverses of q and r for (a, b)."""
    return _Workspace(a, b, tol).intermediates()


def evaluate_condition(a, b, condition: ConditionId, tol: Tolerance = DEFAULT_TOL):
    """Evaluate one catalog condition on the pair (a, b).

    Returns ``(verdict, residual)`` where the verdict is
    ``residual <= tol.eq_tol``.  For two-equation conditions the
    residual is the max over the pair.
    """
    condition = ConditionId(condition)
    res = _ROW_PROGRAMS[condition].run(_Workspace(a, b, tol))[condition]
    return (res <= tol.eq_tol, float(res))


def full_report(a, b, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the whole catalog on (a, b), recording pinv ranks too."""
    w = _Workspace(a, b, tol)
    report = ConditionReport(tolerance_used=tol)
    residuals = _PROGRAM.run(w)
    for cond in ConditionId:
        report.add(cond.value, residuals[cond])
    report.ranks = w.ranks
    return report
