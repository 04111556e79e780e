"""The identity compiler: ``_Program`` compiles a table of equations once, to the plain
data ``leaves``, ``code`` and ``rows``, and its ``run`` scores them by ``core``'s norms and
residual rule, which it looks up in ``core`` at call time, so a patch there reaches it."""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import core


class _Comm(NamedTuple):
    """The commutator ``x y - y x``, used as one factor of a product."""

    x: str
    y: str


def _flat(factors) -> tuple:
    """The leaf names in a product or equation, left to right."""
    return tuple(n for f in factors for n in ((f,) if isinstance(f, str) else _flat(f)))


# A program whose widest level holds at most _WALK_WIDEST steps walks; any other
# runs in the arena on square leaves up to n = _ARENA_N, where _width(n) >= 18
# slices hold the catalog's widest level.  Given one block of leaves, ``run`` on the
# catalog rows of widest 4 read 0.90-0.96x the walk's time up to n = 14, 1.06-1.20x
# at n 20-32, and 1.2-1.5x on rows of widest 1 and 2 (BENCH_leaf_block.json).
_WALK_WIDEST = 2
_ARENA_N = 15


class _Program:
    """Rows of equations ``(lhs, rhs[, scale])`` compiled to two plans of plain data.

    Each side is a product of factors: a name, a ``_Comm``, or a tuple of
    factors; ``rhs`` () means ``lhs = 0``.  ``scale`` holds one tuple of
    names per side, whose norm product scales the residual (by default the
    side's operand names), or None for the sides' own norms.  A name in
    ``defs`` stands for its product of other names, compiled where it is first
    read, its norm taken where a scale first reads it.  The leaves are the
    names read that ``defs`` does not define, in ``order`` if given, else as
    first read, in slots ``0 .. len(leaves) - 1``; instruction ``i`` of
    ``code``, ``(op, x, y, factors, level)``, fills slot ``len(leaves) + i``.
    A step (``op`` a matmul or a commutator's subtraction) holds ``op(slot x,
    slot y)``; no two steps are alike, so each product is formed once, left to
    right with nested factors first.  An equation (``op`` None) scores ``x -
    y`` (``x`` if ``y`` is None) against its scale ``factors``.  Leaves are on
    level 0, an instruction one level above its highest operand.

    ``run(leaves, norms)`` takes both in ``leaves`` order.  A program whose
    widest level holds more than ``_WALK_WIDEST`` steps runs leaves of one
    n-by-n shape, n <= ``_ARENA_N``, in the arena: one stack of every matrix,
    whose head is the leaves, copied in one assignment, each level and kind of
    step one stacked call (``_levels``) on operands gathered with ``take``, and
    the norms ``frobenius_norms`` calls of at most ``_width(n)`` slices.  Any
    other run takes ``_walk``, one instruction at a time in the table's order,
    dropping each matrix after its last reader.  Both fill one list of norms,
    which ``run`` scores through index arrays: the side products (``_sides``),
    if any, one ``_scaled_array`` call for every equation (``_scores``) and,
    where a row has two equations, one ``np.maximum.reduce`` for every row's
    worst (``_worst``).
    """

    def __init__(self, rows: dict, defs: dict | None = None, order: tuple = ()):
        defs = defs or {}
        rows = {key: [(lhs, rhs, *scale) if scale else (lhs, rhs, (_flat(lhs), _flat(rhs)))
                      for lhs, rhs, *scale in row] for key, row in rows.items()}

        def reads(factors):  # the leaf names behind factors, through the definitions
            return [n for f in _flat(factors) for n in (reads(defs[f]) if f in defs else [f])]

        self.leaves = list(dict.fromkeys(n for row in rows.values() for lhs, rhs, scale in row
                                         for n in reads((lhs, rhs, scale or ()))))
        self.leaves.sort(key=(order or tuple(self.leaves)).index)  # first read by default
        slot = {name: i for i, name in enumerate(self.leaves)}
        code = []

        def emit(op, x, y, factors=None):
            key = (op, x, y, factors)  # a tuple, so never equal to a name
            if key not in slot:
                slot[key] = len(self.leaves) + len(code)
                code.append(key)
            return slot[key]

        def ref(name):  # a definition is compiled where it is first read
            return slot[name] if name in slot else slot.setdefault(name, side(defs[name]))

        def side(factors):
            out = None
            for f in factors:
                if isinstance(f, _Comm):
                    x, y = ref(f.x), ref(f.y)
                    f = emit(operator.sub, emit(operator.matmul, x, y),
                             emit(operator.matmul, y, x))
                else:
                    f = ref(f) if isinstance(f, str) else side(f)
                out = f if out is None else emit(operator.matmul, out, f)
            return out

        self.rows = {key: tuple(emit(None, side(lhs), side(rhs), scale) for lhs, rhs, scale in row)
                     for key, row in rows.items()}
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
        # The norms each equation takes first, as (x, y) with y None for x alone: its
        # own, its sides' for scale None, and those of the definitions its scale reads;
        # and their places in the list of norms: after the leaves', the differences first.
        takes, taken = {}, set()
        for i, (x, y, factors) in equations.items():
            jobs = [(x, y), *([(x, None), (y, None)] if factors is None else
                              [(slot[n], None) for n in _flat(factors) if slot[n] >= base])]
            takes[i] = [job for job in dict.fromkeys(jobs) if job not in taken]
            taken.update(takes[i])
        at = {job: base + k for k, job in enumerate(sorted(
            (job for jobs in takes.values() for job in jobs), key=lambda job: job[1] is None))}
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

        def scale(names):  # the place of a side's norm product
            places = tuple(slot[n] if slot[n] < base else at[(slot[n], None)] for n in names)
            return places[0] if len(places) == 1 else products.setdefault(
                places, one + 1 + len(products))

        scores = []
        for x, y, factors in equations.values():
            # () is the side of x = 0, and reads 1.0.
            sides = ([scale(f) for f in factors if f] if factors is not None
                     else [at[(x, None)], at[(y, None)]])
            scores.append([at[(x, y)], *sides, *[one] * (2 - len(sides))])
        self._scores = np.array(scores, np.intp).T  # the rows d, s1, s2 of _scaled_array
        # Each side's factors, left to right, padded to the widest with the exact 1.0.
        self._sides = np.full((max(map(len, products), default=1), len(products)), one, np.intp)
        for k, places in enumerate(products):
            self._sides[:len(places), k] = places
        place, most = {i: k for k, i in enumerate(equations)}, max(map(len, self.rows.values()))
        self._worst = np.array([[place[i] for i in (eqs * most)[:most]]  # rows padded by repeats
                                for eqs in self.rows.values()], np.intp).T

    def run(self, leaves, norms) -> dict:
        """Each row's worst residual, from the leaves and their norms in ``self.leaves``
        order: an ``(N, n, n)`` block, or a list that ``run`` empties, to free each leaf."""
        base, n, norms = len(self.leaves), len(leaves[0]), [*norms]
        # Leaves that are not all of one square shape have products that differ in shape,
        # or have a dimension 1, where numpy's BLAS vector kernels round by the layout
        # that a stack copy changes; a 1-by-1 slice has one layout.  A block is square.
        if self.widest > _WALK_WIDEST and n <= _ARENA_N and (
                type(leaves) is not list or all(m.shape == (n, n) for m in leaves)):
            width = core._width(n)
            arena = np.empty((self._size, n, n), np.complex128)
            arena[:base] = leaves
            # Every gather is a take: it copies the same slices, C-ordered, as arena[idx],
            # in 0.9-2.1 us against 2.7-3.7 us (n 2-12), where a small pair's 12 level
            # gathers cost about as much as its 64 stacked products.
            for ufunc, x, y, lo, hi in self._levels:
                ufunc(arena.take(x, axis=0), arena.take(y, axis=0), out=arena[lo:hi])
            for lo in range(0, len(self._gather), width):
                stack = arena.take(self._gather[lo:lo + width], axis=0)
                minus = arena.take(self._minus[lo:lo + width], axis=0)
                np.subtract(stack[:len(minus)], minus, out=stack[:len(minus)])
                norms += core.frobenius_norms(stack)
        else:
            v = [*leaves, *[None] * len(self.code)]
            if type(leaves) is list:
                leaves.clear()
            norms += [None] * len(self._gather)
            for op, x, y, out, dead in self._walk:
                if op is None:
                    norms[out] = core.frobenius_norm(v[x] if y is None else v[x] - v[y])
                else:
                    v[out] = op(v[x], v[y])
                for s in dead:
                    v[s] = None
        norms = np.array(norms + [1.0])
        if self._sides.shape[1]:  # each side's factors multiplied left to right, as math.prod
            with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf nan
                norms = np.concatenate((norms, np.multiply.reduce(norms[self._sides])))
        scores = core._scaled_array(*norms[self._scores])[self._worst]
        worst = np.maximum.reduce(scores) if len(scores) > 1 else scores[0]
        return dict(zip(self.rows, worst.tolist()))
