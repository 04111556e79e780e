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
product of the workspace's leaves and of the table's definitions
(``_DEFS``), scored by ``core``'s residual rule against the product of
each side's operand norms, or, for the law itself, against its sides' own
norms (scale None).  ``core._Program`` compiles the table once and runs it
on the leaves, in ``_LEAVES`` order: level by level in stacked calls for a
square pair up to n = 15, else one product at a time.
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
    residual,
    _ARENA_N,
    _Comm,
    _Program,
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
        for name, m in vars(self).items():
            herm = residual(adjoint(m) - m, frobenius_norm(m))
            if herm > 1e-9:
                raise ValueError(f"intermediate {name} is not hermitian ({herm:.3e})")


class _Workspace:
    """The catalog's leaves and their norms, once per pair, in ``_LEAVES`` order.

    ``pinv`` certifies ``a``, ``b`` and, unless ``with_ab`` is False, ``ab``, each run of
    equal shapes as one stack (its first failing matrix raises its own error), and
    gives their norms; an adjoint has its matrix's.  A square pair up to n =
    ``_ARENA_N`` writes each leaf once, into one ``(10, n, n)`` block, whose head
    ``pinv`` certifies in place and whose four adjoints are one ``conj`` call; any
    other pair keeps one array per leaf, which the walk frees after its last reader.
    """

    def __init__(self, a, b, tol: Tolerance, with_ab: bool = True):
        a, b = as_matrix(a, "a"), as_matrix(b, "b")
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"product ab undefined: a is {a.shape}, b is {b.shape}")
        n, names, size = a.shape[0], _LEAVES[: 3 if with_ab else 2], len(_LEAVES)
        shapes = {"a": a.shape, "b": b.shape, "ab": (n, b.shape[1])}
        block = a.shape == b.shape == (n, n) and n <= _ARENA_N
        self.leaves = np.empty((size, n, n), np.complex128) if block else [None] * size
        self.norms, self.ranks = [None] * size, {}
        for shape, run in [((n, n), names)] if block else itertools.groupby(names, shapes.get):
            run = tuple(run)  # a block holds one run, at its head
            stack = self.leaves[:len(run)] if block else np.empty((len(run), *shape), complex)
            for name, slot in zip(run, stack):
                if name == "ab":
                    # ab is formed before a and b certify; if it overflows, the
                    # refusal of a, b or ab says so, without a numpy warning first.
                    with np.errstate(over="ignore", invalid="ignore"):
                        np.matmul(a, b, out=slot)
                else:
                    slot[...] = a if name == "a" else b
            for name, slot, result in zip(run, stack, pinv(stack, tol)):
                at, dag = _AT[name], _AT[name + "_dag"]
                self.leaves[at], self.leaves[dag] = slot, result.pinv
                self.norms[at], self.norms[dag] = result.residuals.norms
                self.ranks[name] = result.rank
        if block:
            np.conj(self.leaves.take(_FROM, axis=0).swapaxes(1, 2), out=self.leaves[_AH:])
        else:
            self.leaves[_AH:] = [adjoint(self.leaves[i]) for i in _FROM]
        self.norms[_AH:] = [self.norms[i] for i in _FROM]

    def operands(self, program: _Program) -> tuple:
        """``program``'s leaves and their norms, in its ``leaves`` order."""
        at = [_AT[name] for name in program.leaves]
        leaves = (self.leaves.take(at, axis=0) if type(self.leaves) is np.ndarray
                  else [self.leaves[i] for i in at])
        return leaves, [self.norms[i] for i in at]


# p, q, r, s, q^+ and r^+ (see above) and a* a, each a product of two leaves;
# aa and q_dag are one product, formed once.
_DEFS = {"p": ("b", "b_dag"), "q": ("a_dag", "adh"), "r": ("b", "bh"), "s": ("a_dag", "a"),
         "aa": ("ah", "a"), "q_dag": ("ah", "a"), "r_dag": ("bdh", "b_dag")}

# ROL_DIRECT is the law itself, scored by ``distance``: by its sides' own norms.
_DIRECT = ((("ab_dag",), ("b_dag", "a_dag"), None),)

# Each condition is a tuple of equations ``(lhs, rhs)``, each side a
# product of factors: a leaf or ``_DEFS`` name, a ``_Comm``, or a parenthesized
# tuple of factors (see ``core._Program``).  An equation is scored by
# ``residual(lhs - rhs, ||lhs||, ||rhs||)``, each norm being the product
# of its side's operand norms; ``rhs`` () means ``lhs = 0``.  The generalized-inverse
# condition MBEKHTA_COMM pairs p = b b^+ with s = a^+ a.  A definition is formed
# where a row first reads it, so the rows run in the order that keeps fewest
# matrices alive at once one product at a time: 18 at most (see the tests).
_CONDITIONS = {
    ConditionId.MBEKHTA_GI: ((("ab", ("b_dag", "a_dag"), "ab"), ("ab",)),),
    ConditionId.G1: _DIRECT,
    ConditionId.G5: ((("s", "b"), ("b", "ab_dag", "ab")),
                     (("p", "ah"), ("ah", "ab", "ab_dag"))),
    ConditionId.R35_COMM: (((_Comm("p", "q"),), ()),
                           ((_Comm("r", "s"),), ())),
    ConditionId.T31_II: ((("a", _Comm("p", "q"), "bdh"), ()),
                         (("a", _Comm("r", "s"), "bdh"), ())),
    ConditionId.MBEKHTA_IDEM: (((("s", "p"), ("s", "p")), ("s", "p")),),
    ConditionId.T31_III: ((("s", "p", ("q", "p")), ("q", "p")),
                          (("s", "r", "s", "p"), ("s", "r"))),
    ConditionId.T32_II: ((("b_dag", _Comm("q", "p"), "ah"), ()),
                         (("b_dag", _Comm("s", "r"), "ah"), ())),
    ConditionId.T32_III: ((("p", "q", "p", "s"), ("p", "q")),
                          (("p", "s", "r", "s"), ("r", "s"))),
    ConditionId.MBEKHTA_COMM: ((("a", _Comm("p", "s"), "b"), ()),),
    ConditionId.G2: ((("s", "r", "ah"), ("r", "ah")),
                     (("p", ("aa", "b")), ("aa", "b"))),
    ConditionId.T34_III: ((("s", "p", ("q_dag", "p")), ("q_dag", "p")),
                          (("s", "r_dag", "s", "p"), ("s", "r_dag"))),
    ConditionId.T34_II: ((("adh", _Comm("p", "q_dag"), "b"), ()),
                         (("adh", _Comm("r_dag", "s"), "b"), ())),
    ConditionId.G4: ((("s", "r", "aa", "p"), ("r", "aa")),),
    ConditionId.R35_DAG_COMM: (((_Comm("q_dag", "p"),), ()),
                               ((_Comm("r_dag", "s"),), ())),
    ConditionId.T33_III: ((("p", "q_dag", "p", "s"), ("p", "q_dag")),
                          (("p", "s", ("r_dag", "s")), ("r_dag", "s"))),
    ConditionId.T33_II: ((("bh", _Comm("q_dag", "p"), "a_dag"), ()),
                         (("bh", _Comm("s", "r_dag"), "a_dag"), ())),
    ConditionId.G3: (((_Comm("s", "r"),), ()),
                     ((_Comm("aa", "p"),), ())),
    ConditionId.ROL_DIRECT: _DIRECT,
}
# The stack pinv certifies, the pseudoinverses, and the adjoints of those at _FROM.
_LEAVES = ("a", "b", "ab", "a_dag", "b_dag", "ab_dag", "ah", "bh", "adh", "bdh")
_PROGRAM = _Program(_CONDITIONS, _DEFS, _LEAVES)
_AT = {name: i for i, name in enumerate(_PROGRAM.leaves)}
_AH, _FROM = _AT["ah"], [_AT[name] for name in ("a", "b", "a_dag", "b_dag")]
_REPORT_ORDER = tuple((cond, cond.value) for cond in ConditionId)
_ROW_PROGRAMS = {cond: _Program({cond: row}, _DEFS) for cond, row in _CONDITIONS.items()}


def rol_intermediates(a, b, tol: Tolerance = DEFAULT_TOL) -> RolIntermediates:
    """Compute p, q, r, s and the pseudoinverses of q and r for (a, b).

    None of them reads ``ab``, so only ``a`` and ``b`` are certified.
    """
    leaf = dict(zip(_PROGRAM.leaves, _Workspace(a, b, tol, with_ab=False).leaves))
    return RolIntermediates(*(np.matmul(*map(leaf.get, _DEFS[name]))
                              for name in ("p", "q", "r", "s", "q_dag", "r_dag")))


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
    w = _Workspace(a, b, tol, with_ab=not {"ab", "ab_dag"}.isdisjoint(program.leaves))
    res = program.run(*w.operands(program))[condition]
    return (res <= tol.eq_tol, float(res))


def full_report(a, b, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the whole catalog on (a, b), recording pinv ranks too."""
    w = _Workspace(a, b, tol)
    report = ConditionReport(tolerance_used=tol)
    residuals = _PROGRAM.run(w.leaves, w.norms)
    for cond, name in _REPORT_ORDER:
        report.add(name, residuals[cond])
    report.ranks = w.ranks
    return report
