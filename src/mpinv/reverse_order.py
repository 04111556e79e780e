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
product of named workspace matrices.  An equation is scored by
``core.residual`` against the product of each side's operand norms.
"""

from __future__ import annotations

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


# Conditions equivalent to (ab)^+ = b^+ a^+ itself.
MP_ROL_CONDITIONS = (
    ConditionId.G1,
    ConditionId.G2,
    ConditionId.G3,
    ConditionId.G4,
    ConditionId.G5,
    ConditionId.T31_II,
    ConditionId.T31_III,
    ConditionId.T32_II,
    ConditionId.T32_III,
    ConditionId.T33_II,
    ConditionId.T33_III,
    ConditionId.T34_II,
    ConditionId.T34_III,
    ConditionId.R35_COMM,
    ConditionId.R35_DAG_COMM,
    ConditionId.ROL_DIRECT,
)

# The strictly weaker criterion: b^+ a^+ is a generalized inverse of ab.
MBEKHTA_CONDITIONS = (
    ConditionId.MBEKHTA_GI,
    ConditionId.MBEKHTA_COMM,
    ConditionId.MBEKHTA_IDEM,
)


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

    def product(self, factors, norm=1.0):
        """The left-to-right product of ``factors`` and the running norm product.

        A factor is a workspace name, a ``_Comm``, or a tuple of factors
        multiplied first; the norm product runs over the flattened list.
        """
        out = None
        for f in factors:
            if isinstance(f, _Comm):
                x, y = self.mats[f.x], self.mats[f.y]
                m, norm = x @ y - y @ x, norm * self.norms[f.x] * self.norms[f.y]
            elif isinstance(f, tuple):
                m, norm = self.product(f, norm)
            else:
                m, norm = self.mats[f], norm * self.norms[f]
            out = m if out is None else out @ m
        return out, norm

    def score(self, lhs, rhs) -> float:
        """The residual of ``lhs = rhs``, or of ``lhs = 0`` when ``rhs`` is None."""
        lm, ln = self.product(lhs)
        if rhs is None:
            return residual(lm, ln)
        rm, rn = self.product(rhs)
        return residual(lm - rm, ln, rn)

    def evaluate(self, row) -> float:
        """The residual of one catalog row, the worst over its equations."""
        return row(self) if callable(row) else max(self.score(*eq) for eq in row)


def _cond_rol_direct(w):
    return distance(w.mats["ab_dag"], w.mats["b_dag"] @ w.mats["a_dag"])


# Each condition is ``_cond_rol_direct`` or a tuple of equations
# ``(lhs, rhs)``, each side a product for ``_Workspace.product``.  An
# equation is scored by ``residual(lhs - rhs, ||lhs||, ||rhs||)``, each
# norm being the product of its side's operand norms; ``rhs`` None means
# ``lhs = 0``.  The generalized-inverse condition MBEKHTA_COMM pairs
# p = b b^+ with s = a^+ a.
_CONDITIONS = {
    ConditionId.G1: _cond_rol_direct,
    ConditionId.G2: ((("s", "r", "ah"), ("r", "ah")),
                     (("p", ("aa", "b")), ("aa", "b"))),
    ConditionId.G3: (((_Comm("s", "r"),), None),
                     ((_Comm("aa", "p"),), None)),
    ConditionId.G4: ((("s", "r", "aa", "p"), ("r", "aa")),),
    ConditionId.G5: ((("s", "b"), ("b", "ab_dag", "ab")),
                     (("p", "ah"), ("ah", "ab", "ab_dag"))),
    ConditionId.MBEKHTA_GI: ((("ab", ("b_dag", "a_dag"), "ab"), ("ab",)),),
    ConditionId.MBEKHTA_COMM: ((("a", _Comm("p", "s"), "b"), None),),
    ConditionId.MBEKHTA_IDEM: (((("s", "p"), ("s", "p")), ("s", "p")),),
    ConditionId.T31_II: ((("a", _Comm("p", "q"), "bdh"), None),
                         (("a", _Comm("r", "s"), "bdh"), None)),
    ConditionId.T31_III: ((("s", "p", ("q", "p")), ("q", "p")),
                          (("s", "r", "s", "p"), ("s", "r"))),
    ConditionId.T32_II: ((("b_dag", _Comm("q", "p"), "ah"), None),
                         (("b_dag", _Comm("s", "r"), "ah"), None)),
    ConditionId.T32_III: ((("p", "q", "p", "s"), ("p", "q")),
                          (("p", "s", "r", "s"), ("r", "s"))),
    ConditionId.T33_II: ((("bh", _Comm("q_dag", "p"), "a_dag"), None),
                         (("bh", _Comm("s", "r_dag"), "a_dag"), None)),
    ConditionId.T33_III: ((("p", "q_dag", "p", "s"), ("p", "q_dag")),
                          (("p", "s", ("r_dag", "s")), ("r_dag", "s"))),
    ConditionId.T34_II: ((("adh", _Comm("p", "q_dag"), "b"), None),
                         (("adh", _Comm("r_dag", "s"), "b"), None)),
    ConditionId.T34_III: ((("s", "p", ("q_dag", "p")), ("q_dag", "p")),
                          (("s", "r_dag", "s", "p"), ("s", "r_dag"))),
    ConditionId.R35_COMM: (((_Comm("p", "q"),), None),
                           ((_Comm("r", "s"),), None)),
    ConditionId.R35_DAG_COMM: (((_Comm("q_dag", "p"),), None),
                               ((_Comm("r_dag", "s"),), None)),
    ConditionId.ROL_DIRECT: _cond_rol_direct,
}


def rol_intermediates(a, b, tol: Tolerance = DEFAULT_TOL) -> RolIntermediates:
    """Compute p, q, r, s and the pseudoinverses of q and r for (a, b)."""
    return _Workspace(a, b, tol).intermediates()


def evaluate_condition(a, b, condition: ConditionId, tol: Tolerance = DEFAULT_TOL):
    """Evaluate one catalog condition on the pair (a, b).

    Returns ``(verdict, residual)`` where the verdict is
    ``residual <= tol.eq_tol``.  For two-equation conditions the
    residual is the max over the pair.
    """
    res = _Workspace(a, b, tol).evaluate(_CONDITIONS[ConditionId(condition)])
    return (res <= tol.eq_tol, float(res))


def full_report(a, b, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the whole catalog on (a, b), recording pinv ranks too."""
    w = _Workspace(a, b, tol)
    report = ConditionReport(tolerance_used=tol)
    residuals = {}  # G1 and ROL_DIRECT share one row; evaluate it once
    for cond in ConditionId:
        row = _CONDITIONS[cond]
        if row not in residuals:
            residuals[row] = w.evaluate(row)
        report.add(cond.value, residuals[row])
    report.ranks = w.ranks
    return report
