"""Two readers of the identity compiler's plain data, ``leaves``, ``code`` and ``rows``:
a degree check of every shipped program, and a reference interpreter that every
shipped program must match bit for bit."""

import importlib
import math
import operator

import numpy as np
import pytest

from mpinv import adjoint, frobenius_norm, generate_regular, pinv_matrix
from mpinv import core
from mpinv import reverse_order as ro
from mpinv.core import DEFAULT_TOL
from mpinv.program import _Program

pinv_module = importlib.import_module("mpinv.pinv")

# Each leaf's degree in a (or x, of degree -1 in a) and in b.
DEGREE = {"a": (1, 0), "ah": (1, 0), "a_dag": (-1, 0), "adh": (-1, 0), "x": (-1, 0),
          "xh": (-1, 0), "b": (0, 1), "bh": (0, 1), "b_dag": (0, -1), "bdh": (0, -1),
          "ab": (1, 1), "ab_dag": (-1, -1)}

# The recorded exceptions: the eight formulation identities have sides of one
# degree, but each is scaled by ||a|| and ||x||, of degrees +1 and -1 in a.  Scaling
# each side by the norm product of its operands, as the catalog does, empties this set.
INHOMOGENEOUS = set(pinv_module._IDENTITIES)

# Every module-level program, with the table it was compiled from and its definitions.
PROGRAMS = {"catalog": (ro._PROGRAM, ro._CONDITIONS, ro._DEFS),
            **{c.value: (p, ro._CONDITIONS, ro._DEFS) for c, p in ro._ROW_PROGRAMS.items()},
            "formulations": (pinv_module._PROGRAM, pinv_module._FORMULATIONS, {}),
            **{f.value: (p, pinv_module._FORMULATIONS, {})
               for f, p in pinv_module._ONE_PROGRAMS.items()}}


def _degree(names, defs) -> tuple:
    """The degree of a product of names, a definition being its product."""
    parts = [_degree(defs[n], defs) if n in defs else DEGREE[n] for n in names]
    return tuple(map(sum, zip(*parts))) if parts else (0, 0)


def inhomogeneous(program, defs) -> set:
    """The slots of ``program``'s equations (and subtractions) whose operands, sides or
    non-empty scale sides are not all of one degree, read off ``program.code``."""
    degree, bad = [DEGREE[n] for n in program.leaves], set()
    for slot, (op, x, y, factors, _) in enumerate(program.code, len(program.leaves)):
        if op is operator.matmul:
            degree.append(tuple(map(operator.add, degree[x], degree[y])))
            continue
        sides = {degree[x], *([] if y is None else [degree[y]])}
        sides.update(_degree(side, defs) for side in factors or () if side)
        if len(sides) > 1:
            bad.add(slot)
        degree.append(degree[x])
    return bad


class TestDegrees:
    def test_every_shipped_equation_is_homogeneous_but_the_recorded_ones(self):
        flagged = {}
        for name, (program, table, defs) in PROGRAMS.items():
            want = {slot for key, slots in program.rows.items()
                    for slot, equation in zip(slots, table[key]) if equation in INHOMOGENEOUS}
            assert inhomogeneous(program, defs) == want, name
            flagged[name] = sum(slot in want for slots in program.rows.values() for slot in slots)
        # All 31 catalog equations are homogeneous, in the catalog and in its 19 rows.
        assert sum(op is None for op, *_ in ro._PROGRAM.code) == 31
        assert not any(flagged[name] for name in ("catalog", *(c.value for c in ro.ConditionId)))
        # The 8 formulation identities fill 20 places of the 12 rows, compiled together
        # or one row at a time.
        assert len(inhomogeneous(pinv_module._PROGRAM, {})) == 8
        assert flagged["formulations"] == 20
        assert sum(flagged[f.value] for f in pinv_module.FormulationId) == 20

    def test_a_wrong_equation_is_flagged(self):
        for row in (((("a",), ("b",)),), ((("q",), ("s",)),),
                    ((("a", "x"), ("x", "a"), (("a",), ("x",))),)):
            program = _Program({"wrong": row}, ro._DEFS)
            assert inhomogeneous(program, ro._DEFS) == set(program.rows["wrong"]), row


def _value(program, slot, leaves):
    """The matrix in ``slot``, formed from the leaves alone, left to right, sharing nothing."""
    if slot < len(program.leaves):
        return leaves[slot]
    op, x, y, *_ = program.code[slot - len(program.leaves)]
    return op(_value(program, x, leaves), _value(program, y, leaves))


def _product(names, mats, defs):
    out = None
    for n in names:
        m = _product(defs[n], mats, defs) if n in defs else mats[n]
        out = m if out is None else out @ m
    return out


def reference(program, defs, leaves, norms) -> dict:
    """Each row's worst residual, each equation scored alone by ``core._scaled``."""
    mats, norm = dict(zip(program.leaves, leaves)), dict(zip(program.leaves, norms))

    def side_norm(names):
        return math.prod(norm[n] if n in norm else frobenius_norm(_product([n], mats, defs))
                         for n in names)

    worst = {}
    for key, slots in program.rows.items():
        scores = []
        for slot in slots:
            _, x, y, factors, _ = program.code[slot - len(program.leaves)]
            lhs = _value(program, x, leaves)
            rhs = None if y is None else _value(program, y, leaves)
            d = frobenius_norm(lhs if rhs is None else lhs - rhs)
            sides = ([frobenius_norm(lhs), frobenius_norm(rhs)] if factors is None
                     else [side_norm(side) for side in factors if side])
            scores.append(core._scaled(d, *sides))
        worst[key] = max(scores)
    return worst


def _pairs():
    """Square pairs in the arena (n = 1, 4, 15) and in the walk (n = 16, 20),
    rectangular pairs and pairs with a dimension of 1, rank-deficient and scaled."""
    rng = np.random.default_rng(811)
    shapes = [(n, n, n) for n in (1, 4, 15, 16, 20)]
    shapes += [(2, 3, 4), (5, 3, 2), (1, 4, 1), (4, 1, 3), (1, 1, 5), (3, 2, 1)]
    for m, n, k in shapes:
        for deficit, scale in ((0, 1.0), (1, 2.0 ** -37)):
            yield (scale * generate_regular(m, n, max(1, min(m, n) - deficit), seed=rng),
                   generate_regular(n, k, max(1, min(n, k) - deficit), seed=rng))


def _bits(scores: dict) -> dict:
    return {key: float(r).hex() for key, r in scores.items()}


@pytest.mark.parametrize("a, b", list(_pairs()))
def test_every_program_matches_the_reference_interpreter(a, b):
    w = ro._Workspace(a, b, DEFAULT_TOL)
    x = pinv_matrix(a)
    mats = {"a": a, "x": x, "ah": adjoint(a), "xh": adjoint(x)}
    na, nx = frobenius_norm(a), frobenius_norm(x)
    norms = {"a": na, "x": nx, "ah": na, "xh": nx}
    for name, (program, _, defs) in PROGRAMS.items():
        if "x" in program.leaves:  # a formulation program, run as formulation_residual runs it
            want = reference(program, defs, [mats[n] for n in program.leaves],
                             [norms[n] for n in program.leaves])
            got = pinv_module._formulation_residuals(a, x, program)
        else:
            want = reference(program, defs, *w.operands(program))
            got = program.run(*w.operands(program))
        assert _bits(got) == _bits(want), (name, a.shape, b.shape)
