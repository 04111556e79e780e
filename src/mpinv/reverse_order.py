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
once into two plans, plain data that form each distinct product once per
pair, and into index arrays that score all equations in one array call.
A square pair whose widest level fits in a 64 KiB stack (n <= 14) runs
level by level: the products of one level are one stacked numpy call,
and the norms of all its equations take one or two more; any other pair
runs one product at a time, in the table's order, freeing each after its
last use.
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
    residual,
    _scaled_array,
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
    ``p q r s a*a r^+`` are stacked matmuls of ``width`` slices each (one
    for a pair that is not ``square``), with one ``frobenius_norms`` call
    per stack; ``square`` and ``width`` also pick ``_Program``'s plan.
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
        self.square = m == n == k
        self.width = _width(n) if self.square else 1
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


def _flat(factors) -> tuple:
    """The workspace names in a product or equation, left to right."""
    return tuple(n for f in factors for n in ((f,) if isinstance(f, str) else _flat(f)))


class _Program:
    """Catalog rows compiled to two plans of plain data, run by ``run``.

    Slots ``0 .. len(leaves) - 1`` hold workspace matrices; instruction
    ``i`` of ``code``, ``(op, x, y, factors, level)``, fills slot
    ``len(leaves) + i``.  A step (``op`` a matmul or a commutator's
    subtraction) holds ``op(slot x, slot y)``; no two steps are alike, so
    each product is formed once, left to right with nested factors first,
    as the table writes it.  An equation (``op`` None) scores ``x - y``
    (``x`` if ``y`` is None) against the norm products of ``factors``, each
    side's operand names, or if None against its sides' own norms.  Leaves
    are on level 0, an instruction one level above its highest operand.

    A square pair whose ``width`` holds the widest level runs in the arena,
    one stack of every matrix: each level and kind of step is one stacked
    call (``_levels``), and the equations' norms are ``frobenius_norms``
    calls of at most ``width`` slices.  Any other pair runs ``_walk``, one
    instruction at a time in the table's order, dropping each matrix after
    its last reader.  Both fill one list of norms, which ``run`` scores
    through index arrays: the side products (``_sides``), one
    ``_scaled_array`` call for every equation (``_scores``) and one
    ``np.maximum.reduce`` for every row's worst (``_worst``).
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
        self._plan(slot)

    def _plan(self, slot: dict):
        """Build the arena plan (``_levels``, ``_gather``, ``_minus``), the plan
        of one instruction at a time (``_walk``) and the scoring both share."""
        base, code = len(self.leaves), dict(enumerate(self.code, len(self.leaves)))
        equations = {i: c[1:4] for i, c in code.items() if c[0] is None}  # (x, y, factors)
        # The norms each equation takes, as (x, y) with y None for x alone (the
        # law itself is also scored by its sides' own norms), and their places
        # in the list of norms: after the leaves', the differences first.
        takes = {i: [(x, y)] if factors is not None else [(x, y), (x, None), (y, None)]
                 for i, (x, y, factors) in equations.items()}
        at = {job: base + k for k, job in enumerate(dict.fromkeys(sorted(
            (job for jobs in takes.values() for job in jobs), key=lambda job: job[1] is None)))}
        steps = sorted((lv, op is operator.sub, i, x, y)
                       for i, (op, x, y, _, lv) in code.items() if op is not None)
        pos = np.arange(base + len(code), dtype=np.intp)  # each slot's arena slice, once filled
        self._levels, self._size = [], base
        for (_, sub), group in itertools.groupby(steps, key=lambda step: step[:2]):
            *_, out, xs, ys = map(list, zip(*group))
            lo = self._size
            self._size += len(out)
            pos[out] = range(lo, self._size)
            self._levels.append((np.subtract if sub else np.matmul, pos[xs], pos[ys],
                                 lo, self._size))
        self._gather = pos[[x for x, _ in at]]
        self._minus = pos[[y for _, y in at if y is not None]]
        walk = [entry for i, (op, x, y, *_) in code.items() for entry in (
            [(op, x, y, i)] if op is not None else [(None, *job, at[job]) for job in takes[i]])]
        last = {s: k for k, (_, x, y, _) in enumerate(walk) for s in (x, y)}
        self._walk = [(op, x, y, out, tuple(s for s in sorted({x, y} - {None}) if last[s] == k))
                      for k, (op, x, y, out) in enumerate(walk)]
        one, products = base + len(at), {}  # one array: the norms, 1.0 at one, side products

        def scale(names):
            if len(names) == 1:
                return slot[names[0]]
            return products.setdefault(names, one + 1 + len(products))

        scores = []
        for x, y, factors in equations.values():
            # The law is scaled by its sides' own norms; () is the side of x = 0.
            sides = ([scale(f) for f in factors if f] if factors
                     else [at[(x, None)], at[(y, None)]])
            scores.append([at[(x, y)], *sides, *[one] * (2 - len(sides))])
        self._scores = np.array(scores, np.intp).T  # the rows d, s1, s2 of _scaled_array
        # Each side's factors, left to right, padded to the widest with the exact 1.0.
        self._sides = np.full((max(map(len, products), default=1), len(products)), one, np.intp)
        for k, names in enumerate(products):
            self._sides[:len(names), k] = [slot[n] for n in names]
        place, most = {i: k for k, i in enumerate(equations)}, max(map(len, self.rows.values()))
        self._worst = np.array([[place[i] for i in (eqs * most)[:most]]  # rows padded by repeats
                                for eqs in self.rows.values()], np.intp).T

    def run(self, w: _Workspace) -> dict:
        """Each row's worst residual; takes ``w.mats``, to free each after its last reader."""
        mats, norms = w.mats, [w.norms[name] for name in self.leaves]
        if w.square and w.width >= self.widest:
            arena = np.empty((self._size, *mats["a"].shape), np.complex128)
            for i, name in enumerate(self.leaves):
                arena[i] = mats.pop(name)
            for ufunc, x, y, lo, hi in self._levels:
                ufunc(arena[x], arena[y], out=arena[lo:hi])
            for lo in range(0, len(self._gather), w.width):
                stack, minus = arena[self._gather[lo:lo + w.width]], self._minus[lo:lo + w.width]
                np.subtract(stack[:len(minus)], arena[minus], out=stack[:len(minus)])
                norms += frobenius_norms(stack)
        else:
            v = [mats.pop(name) for name in self.leaves] + [None] * len(self.code)
            norms += [None] * len(self._gather)
            for op, x, y, out, dead in self._walk:
                if op is None:
                    norms[out] = frobenius_norm(v[x] if y is None else v[x] - v[y])
                else:
                    v[out] = op(v[x], v[y])
                for s in dead:
                    v[s] = None
        norms = np.array(norms + [1.0])
        sides, *factors = norms[self._sides]
        with np.errstate(over="ignore", invalid="ignore"):  # as math.prod: inf, 0 * inf nan
            for factor in factors:
                sides *= factor
        scores = _scaled_array(*np.concatenate((norms, sides))[self._scores])
        return dict(zip(self.rows, np.maximum.reduce(scores[self._worst]).tolist()))


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
