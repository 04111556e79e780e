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
against the product of each side's operand norms, or, for the law
itself, against its sides' own norms (scale None).  ``core._Program``
compiles the table once and runs it on the workspace: a square pair
whose widest level fits in a 64 KiB stack (n <= 14) runs level by level,
the products of one level being one stacked numpy call and the norms of
all its equations one or two more; any other pair runs one product at a
time, in the table's order, freeing each after its last use.
"""

from __future__ import annotations

import itertools
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
    frobenius_norms,
    residual,
    _Comm,
    _Program,
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
        for name in ("p", "q", "r", "s", "q_dag", "r_dag"):
            m = getattr(self, name)
            herm = residual(adjoint(m) - m, frobenius_norm(m))
            if herm > 1e-9:
                raise ValueError(f"intermediate {name} is not hermitian ({herm:.3e})")


class _Workspace:
    """Every matrix the catalog reads, with its norm, computed once per pair.

    ``pinv`` runs on ``a``, ``b`` and, unless ``with_ab`` is False, ``ab``,
    in that order; each run of equal shapes in that order (all three for a
    square pair) is one stack and one ``pinv`` call, so the first matrix
    that fails still raises its own error.  ``ab`` is formed in its slot
    of the stack, and the norms of the three and of their pseudoinverses
    are the ones their certificates computed.  ``q^+`` and ``r^+`` take
    their closed forms ``a* a`` and ``(b^+)* b^+``.  The six products
    ``p q r s a*a r^+`` are stacked matmuls of ``width`` slices each (one
    at a time for a pair that is not square, of ``width`` 0), with one
    ``frobenius_norms`` call per stack; ``width`` also picks the plan.
    """

    def __init__(self, a, b, tol: Tolerance, with_ab: bool = True):
        a = as_matrix(a, "a")
        b = as_matrix(b, "b")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"product ab undefined: a is {a.shape}, b is {b.shape}")
        (m, n), k = a.shape, b.shape[1]
        # Slices per stacked product.  A rectangular pair's products differ in
        # shape, or have a dimension 1, where numpy's BLAS vector kernels round
        # by the layout that a stack copy changes; a 1-by-1 slice has one layout.
        self.width = _width(n) if m == n == k else 0
        shapes = {"a": a.shape, "b": b.shape, "ab": (m, k)}
        self.mats, self.norms, self.ranks = {}, {}, {}
        for shape, run in itertools.groupby(("a", "b", "ab")[: 3 if with_ab else 2],
                                            shapes.__getitem__):
            self._certify(a, b, tuple(run), shape, tol)
        a, b, a_dag, b_dag = (self.mats[n] for n in ("a", "b", "a_dag", "b_dag"))
        ah, bh, adh, bdh = adjoint(a), adjoint(b), adjoint(a_dag), adjoint(b_dag)
        products = (("p", b, b_dag), ("q", a_dag, adh), ("r", b, bh), ("s", a_dag, a),
                    ("aa", ah, a), ("r_dag", bdh, b_dag))
        step = self.width or 1
        for lo in range(0, len(products), step):
            names, xs, ys = zip(*products[lo:lo + step])
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


# ROL_DIRECT is the law itself, scored by ``distance``: by its sides' own norms.
_DIRECT = ((("ab_dag",), ("b_dag", "a_dag"), None),)

# Each condition is a tuple of equations ``(lhs, rhs)``, each side a
# product of factors: a workspace name, a ``_Comm``, or a parenthesized
# tuple of factors (see ``core._Program``).  An equation is scored by
# ``residual(lhs - rhs, ||lhs||, ||rhs||)``, each norm being the product
# of its side's operand norms; ``rhs`` () means ``lhs = 0``.  The generalized-inverse
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
    mats = _Workspace(a, b, tol, with_ab=False).mats
    return RolIntermediates(*map(mats.get, ("p", "q", "r", "s", "q_dag", "r_dag")))


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
    w = _Workspace(a, b, tol, with_ab)
    res = program.run(w.mats, w.norms, w.width)[condition]
    return (res <= tol.eq_tol, float(res))


def full_report(a, b, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the whole catalog on (a, b), recording pinv ranks too."""
    w = _Workspace(a, b, tol)
    report = ConditionReport(tolerance_used=tol)
    residuals = _PROGRAM.run(w.mats, w.norms, w.width)
    for cond, name in _REPORT_ORDER:
        report.add(name, residuals[cond])
    report.ranks = w.ranks
    return report
