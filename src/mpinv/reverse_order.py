"""Reverse-order-law conditions for the pseudoinverse of a product.

``(a b)^+ = b^+ a^+`` fails in general.  This module evaluates the
catalog of necessary-and-sufficient conditions for it, built from the
projection-flavored intermediates

    p = b b^+,   q = a^+ (a^+)*,   r = b b*,   s = a^+ a,

their pseudoinverses ``q^+ = a* a`` and ``r^+ = (b b*)^+``, and the
weaker generalized-inverse criterion that uses ``p`` with ``s`` in
place of ``q``.  Every condition is scored with a residual normalized
by the product of its operand norms, so verdicts are stable under
rescaling of ``a`` or ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConditionReport,
    Tolerance,
    adjoint,
    as_matrix,
    frobenius_norm,
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
            herm = frobenius_norm(adjoint(m) - m) / max(1.0, frobenius_norm(m))
            if herm > 1e-9:
                raise ValueError(f"intermediate {name} is not hermitian ({herm:.3e})")


class _Workspace:
    """Everything evaluate_condition needs, computed once per pair."""

    def __init__(self, a, b, tol: Tolerance):
        self.a = as_matrix(a, "a")
        self.b = as_matrix(b, "b")
        if self.a.shape[1] != self.b.shape[0]:
            raise ValueError(
                f"product ab undefined: a is {self.a.shape}, b is {self.b.shape}"
            )
        self.tol = tol
        self.ah = adjoint(self.a)
        self.bh = adjoint(self.b)
        ra = pinv(self.a, tol)
        rb = pinv(self.b, tol)
        self.a_dag = ra.pinv
        self.b_dag = rb.pinv
        self.rank_a = ra.rank
        self.rank_b = rb.rank
        self.adh = adjoint(self.a_dag)
        self.bdh = adjoint(self.b_dag)
        self.ab = self.a @ self.b
        rab = pinv(self.ab, tol)
        self.ab_dag = rab.pinv
        self.rank_ab = rab.rank

        self.p = self.b @ self.b_dag
        self.q = self.a_dag @ self.adh
        self.r = self.b @ self.bh
        self.s = self.a_dag @ self.a
        self.q_dag = pinv(self.q, tol).pinv
        self.r_dag = pinv(self.r, tol).pinv
        self.aa = self.ah @ self.a

        n = frobenius_norm
        self.na = n(self.a)
        self.nb = n(self.b)
        self.nad = n(self.a_dag)
        self.nbd = n(self.b_dag)
        self.nab = n(self.ab)
        self.nabd = n(self.ab_dag)
        self.np_ = n(self.p)
        self.nq = n(self.q)
        self.nr = n(self.r)
        self.ns = n(self.s)
        self.nqd = n(self.q_dag)
        self.nrd = n(self.r_dag)
        self.naa = n(self.aa)

    def intermediates(self) -> RolIntermediates:
        return RolIntermediates(
            p=self.p, q=self.q, r=self.r, s=self.s,
            q_dag=self.q_dag, r_dag=self.r_dag,
        )


def _zero(expr, operand_norms) -> float:
    """Residual of a one-sided condition ``expr = 0``."""
    prod = 1.0
    for v in operand_norms:
        prod *= v
    return frobenius_norm(expr) / max(1.0, prod)


def _eq(lhs, rhs, lhs_norms, rhs_norms) -> float:
    """Residual of ``lhs = rhs`` with operand-product scaling on both sides."""
    pl = 1.0
    for v in lhs_norms:
        pl *= v
    pr = 1.0
    for v in rhs_norms:
        pr *= v
    return frobenius_norm(lhs - rhs) / max(1.0, pl, pr)


def _cmp(lhs, rhs) -> float:
    """Residual for comparing two already-computed quantities."""
    return frobenius_norm(lhs - rhs) / max(
        1.0, frobenius_norm(lhs), frobenius_norm(rhs)
    )


def _cond_rol_direct(w):
    return _cmp(w.ab_dag, w.b_dag @ w.a_dag)


def _cond_g2(w):
    e1 = _eq(w.s @ w.r @ w.ah, w.r @ w.ah, (w.ns, w.nr, w.na), (w.nr, w.na))
    aab = w.aa @ w.b
    e2 = _eq(w.p @ aab, aab, (w.np_, w.naa, w.nb), (w.naa, w.nb))
    return max(e1, e2)


def _cond_g3(w):
    e1 = _zero(w.s @ w.r - w.r @ w.s, (w.ns, w.nr))
    e2 = _zero(w.aa @ w.p - w.p @ w.aa, (w.naa, w.np_))
    return max(e1, e2)


def _cond_g4(w):
    return _eq(
        w.s @ w.r @ w.aa @ w.p, w.r @ w.aa,
        (w.ns, w.nr, w.naa, w.np_), (w.nr, w.naa),
    )


def _cond_g5(w):
    e1 = _eq(
        w.s @ w.b, w.b @ w.ab_dag @ w.ab,
        (w.ns, w.nb), (w.nb, w.nabd, w.nab),
    )
    e2 = _eq(
        w.p @ w.ah, w.ah @ w.ab @ w.ab_dag,
        (w.np_, w.na), (w.na, w.nab, w.nabd),
    )
    return max(e1, e2)


def _cond_mbekhta_gi(w):
    bdad = w.b_dag @ w.a_dag
    return _eq(
        w.ab @ bdad @ w.ab, w.ab,
        (w.nab, w.nbd, w.nad, w.nab), (w.nab,),
    )


def _cond_mbekhta_comm(w):
    # Here the generalized-inverse convention applies: the commuting
    # pair is p = b b^+ with s = a^+ a.
    return _zero(w.a @ (w.p @ w.s - w.s @ w.p) @ w.b, (w.na, w.np_, w.ns, w.nb))


def _cond_mbekhta_idem(w):
    sp = w.s @ w.p
    return _eq(sp @ sp, sp, (w.ns, w.np_, w.ns, w.np_), (w.ns, w.np_))


def _cond_t31_ii(w):
    e1 = _zero(w.a @ (w.p @ w.q - w.q @ w.p) @ w.bdh, (w.na, w.np_, w.nq, w.nbd))
    e2 = _zero(w.a @ (w.r @ w.s - w.s @ w.r) @ w.bdh, (w.na, w.nr, w.ns, w.nbd))
    return max(e1, e2)


def _cond_t31_iii(w):
    qp = w.q @ w.p
    e1 = _eq(w.s @ w.p @ qp, qp, (w.ns, w.np_, w.nq, w.np_), (w.nq, w.np_))
    e2 = _eq(w.s @ w.r @ w.s @ w.p, w.s @ w.r, (w.ns, w.nr, w.ns, w.np_), (w.ns, w.nr))
    return max(e1, e2)


def _cond_t32_ii(w):
    e1 = _zero(w.b_dag @ (w.q @ w.p - w.p @ w.q) @ w.ah, (w.nbd, w.nq, w.np_, w.na))
    e2 = _zero(w.b_dag @ (w.s @ w.r - w.r @ w.s) @ w.ah, (w.nbd, w.ns, w.nr, w.na))
    return max(e1, e2)


def _cond_t32_iii(w):
    pq = w.p @ w.q
    e1 = _eq(pq @ w.p @ w.s, pq, (w.np_, w.nq, w.np_, w.ns), (w.np_, w.nq))
    e2 = _eq(w.p @ w.s @ w.r @ w.s, w.r @ w.s, (w.np_, w.ns, w.nr, w.ns), (w.nr, w.ns))
    return max(e1, e2)


def _cond_t33_ii(w):
    e1 = _zero(
        w.bh @ (w.q_dag @ w.p - w.p @ w.q_dag) @ w.a_dag,
        (w.nb, w.nqd, w.np_, w.nad),
    )
    e2 = _zero(
        w.bh @ (w.s @ w.r_dag - w.r_dag @ w.s) @ w.a_dag,
        (w.nb, w.ns, w.nrd, w.nad),
    )
    return max(e1, e2)


def _cond_t33_iii(w):
    pqd = w.p @ w.q_dag
    e1 = _eq(pqd @ w.p @ w.s, pqd, (w.np_, w.nqd, w.np_, w.ns), (w.np_, w.nqd))
    rds = w.r_dag @ w.s
    e2 = _eq(w.p @ w.s @ rds, rds, (w.np_, w.ns, w.nrd, w.ns), (w.nrd, w.ns))
    return max(e1, e2)


def _cond_t34_ii(w):
    e1 = _zero(
        w.adh @ (w.p @ w.q_dag - w.q_dag @ w.p) @ w.b,
        (w.nad, w.np_, w.nqd, w.nb),
    )
    e2 = _zero(
        w.adh @ (w.r_dag @ w.s - w.s @ w.r_dag) @ w.b,
        (w.nad, w.nrd, w.ns, w.nb),
    )
    return max(e1, e2)


def _cond_t34_iii(w):
    qdp = w.q_dag @ w.p
    e1 = _eq(w.s @ w.p @ qdp, qdp, (w.ns, w.np_, w.nqd, w.np_), (w.nqd, w.np_))
    srd = w.s @ w.r_dag
    e2 = _eq(srd @ w.s @ w.p, srd, (w.ns, w.nrd, w.ns, w.np_), (w.ns, w.nrd))
    return max(e1, e2)


def _cond_r35_comm(w):
    e1 = _zero(w.p @ w.q - w.q @ w.p, (w.np_, w.nq))
    e2 = _zero(w.r @ w.s - w.s @ w.r, (w.nr, w.ns))
    return max(e1, e2)


def _cond_r35_dag_comm(w):
    e1 = _zero(w.q_dag @ w.p - w.p @ w.q_dag, (w.nqd, w.np_))
    e2 = _zero(w.r_dag @ w.s - w.s @ w.r_dag, (w.nrd, w.ns))
    return max(e1, e2)


_CONDITION_FUNCS = {
    ConditionId.G1: _cond_rol_direct,
    ConditionId.G2: _cond_g2,
    ConditionId.G3: _cond_g3,
    ConditionId.G4: _cond_g4,
    ConditionId.G5: _cond_g5,
    ConditionId.MBEKHTA_GI: _cond_mbekhta_gi,
    ConditionId.MBEKHTA_COMM: _cond_mbekhta_comm,
    ConditionId.MBEKHTA_IDEM: _cond_mbekhta_idem,
    ConditionId.T31_II: _cond_t31_ii,
    ConditionId.T31_III: _cond_t31_iii,
    ConditionId.T32_II: _cond_t32_ii,
    ConditionId.T32_III: _cond_t32_iii,
    ConditionId.T33_II: _cond_t33_ii,
    ConditionId.T33_III: _cond_t33_iii,
    ConditionId.T34_II: _cond_t34_ii,
    ConditionId.T34_III: _cond_t34_iii,
    ConditionId.R35_COMM: _cond_r35_comm,
    ConditionId.R35_DAG_COMM: _cond_r35_dag_comm,
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
    w = _Workspace(a, b, tol)
    res = _CONDITION_FUNCS[ConditionId(condition)](w)
    return (res <= tol.eq_tol, float(res))


def full_report(a, b, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the whole catalog on (a, b), recording pinv ranks too."""
    w = _Workspace(a, b, tol)
    report = ConditionReport(tolerance_used=tol)
    residuals = {}  # G1 and ROL_DIRECT share one function; run it once
    for cond in ConditionId:
        func = _CONDITION_FUNCS[cond]
        if func not in residuals:
            residuals[func] = func(w)
        report.add(cond.value, residuals[func])
    report.ranks = {"a": w.rank_a, "b": w.rank_b, "ab": w.rank_ab}
    return report
