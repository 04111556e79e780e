"""Tests for the reverse-order-law condition catalog."""

import importlib
import math
import operator
import sys
import tracemalloc
import types
import warnings
from collections import Counter

import numpy as np
import pytest

from mpinv import (
    EPS,
    MBEKHTA_CONDITIONS,
    MP_ROL_CONDITIONS,
    ConditionId,
    PenroseResidualError,
    RolIntermediates,
    adjoint,
    evaluate_condition,
    frobenius_norm,
    full_report,
    generate_regular,
    generate_rol_pair,
    haar_unitary,
    matrix_with_singular_values,
    mbekhta_gap_pair,
    pinv,
    pinv_matrix,
    rol_intermediates,
    rol_negative_pair,
)
from mpinv import core
from mpinv import reverse_order as ro
from mpinv.core import DEFAULT_TOL, distance, residual

pinv_module = importlib.import_module("mpinv.pinv")

HOLDING_A = np.diag([1.0, 0.0]).astype(complex)
HOLDING_B = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
FAILING_A = np.diag([1.0, 0.0]).astype(complex)
FAILING_B = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
WITNESS_A = np.diag([1.0, 0.0]).astype(complex)
WITNESS_B = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


class TestIntermediates:
    def test_identity_pair(self):
        inter = rol_intermediates(np.eye(2), np.eye(2))
        for name in ("p", "q", "r", "s", "q_dag", "r_dag"):
            assert np.allclose(getattr(inter, name), np.eye(2), atol=1e-14)

    def test_diagonal_arithmetic(self):
        inter = rol_intermediates(np.diag([2.0, 0.0]), np.eye(2))
        assert np.allclose(inter.s, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(inter.q, np.diag([0.25, 0.0]), atol=1e-14)
        assert np.allclose(inter.r, np.eye(2), atol=1e-14)
        assert np.allclose(inter.p, np.eye(2), atol=1e-14)

    def test_q_dag_equals_gram(self):
        # Dual route: pinv of q must reproduce a* a, and pinv of r must
        # reproduce (b^+)* b^+.
        rng = np.random.default_rng(73)
        for _ in range(40):
            a = generate_regular(4, 4, int(rng.integers(1, 5)), seed=rng)
            b = generate_regular(4, 4, int(rng.integers(1, 5)), seed=rng)
            inter = rol_intermediates(a, b)
            gram = adjoint(a) @ a
            assert frobenius_norm(inter.q_dag - gram) <= 1e-9 * max(1.0, frobenius_norm(gram))
            bd = pinv_matrix(b)
            alt = adjoint(bd) @ bd
            assert frobenius_norm(inter.r_dag - alt) <= 1e-9 * max(1.0, frobenius_norm(alt))

    def test_closed_forms_match_pinv(self):
        # q^+ = a* a and r^+ = (b^+)* b^+ are built in closed form; the
        # SVD route must agree to the accuracy a pseudoinverse of
        # condition number kappa(q) = kappa(a)^2 <= 1e6 allows, on
        # rectangular, rank-deficient and 2^k-scaled factors.
        rng = np.random.default_rng(107)
        for _ in range(200):
            m, n, k = (int(v) for v in rng.integers(1, 7, size=3))
            kappa = float(rng.choice([1.0, 1e1, 1e2, 1e3]))
            factors = []
            for shape in ((m, n), (n, k)):
                sv = np.geomspace(1.0, 1.0 / kappa, int(rng.integers(1, min(shape) + 1)))
                scale = 2.0 ** int(rng.integers(-30, 31))
                factors.append(scale * matrix_with_singular_values(sv, shape, rng))
            inter = rol_intermediates(*factors)
            for x, x_dag in ((inter.q, inter.q_dag), (inter.r, inter.r_dag)):
                err = frobenius_norm(pinv_matrix(x) - x_dag)
                assert err <= 100 * EPS * kappa**2 * frobenius_norm(x_dag), (kappa, factors)

    def test_projections_idempotent(self):
        rng = np.random.default_rng(79)
        for _ in range(40):
            m, n, k = rng.integers(1, 7, size=3)
            a = generate_regular(m, n, int(rng.integers(0, min(m, n) + 1)), seed=rng)
            b = generate_regular(n, k, int(rng.integers(0, min(n, k) + 1)), seed=rng)
            inter = rol_intermediates(a, b)
            assert frobenius_norm(inter.p @ inter.p - inter.p) <= 1e-12 * max(1.0, frobenius_norm(inter.p))
            assert frobenius_norm(inter.s @ inter.s - inter.s) <= 1e-12 * max(1.0, frobenius_norm(inter.s))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="undefined"):
            rol_intermediates(np.eye(2), np.eye(3))

    def test_definitions_match_reference_bit_for_bit(self):
        # Each intermediate is its product in ro._DEFS, byte for byte the
        # workspace's former stacked products: square, rectangular (a
        # dimension 1 too), F-ordered and 2^k-scaled pairs.
        rng = np.random.default_rng(211)
        pairs = [(generate_regular(n, n, max(1, n - 1), seed=rng),
                  generate_regular(n, n, n, seed=rng)) for n in range(1, 21)]
        for m, n, k in ((1, 3, 2), (3, 1, 3), (4, 4, 1), (1, 1, 4), (2, 5, 3), (6, 4, 5)):
            pairs.append((generate_regular(m, n, min(m, n), seed=rng),
                          generate_regular(n, k, min(n, k), seed=rng)))
        pairs += [(np.asfortranarray(a), np.asfortranarray(b)) for a, b in pairs[::3]]
        pairs += [(2.0 ** e * a, 2.0 ** -e * b) for e in (37, -37, 200, -200)
                  for a, b in pairs[::5]]
        for a, b in pairs:
            got, ref = rol_intermediates(a, b), _reference_workspace(a, b, with_ab=False).mats
            for name in ("p", "q", "r", "s", "q_dag", "r_dag"):
                assert getattr(got, name).tobytes() == ref[name].tobytes(), (a.shape, b.shape, name)

    def test_intermediates_must_be_hermitian(self):
        inter = rol_intermediates(np.eye(2), np.eye(2))
        shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        fields = {name: getattr(inter, name) for name in ("p", "q", "r", "s", "q_dag", "r_dag")}
        with pytest.raises(ValueError, match=r"^intermediate r is not hermitian \(1\.414e\+00\)$"):
            RolIntermediates(**{**fields, "r": shift})


class TestEvaluateCondition:
    def test_holding_pair(self):
        verdict, residual = evaluate_condition(HOLDING_A, HOLDING_B, ConditionId.ROL_DIRECT)
        assert verdict and residual <= 1e-12
        # Frozen: (ab)^+ = b^+ a^+ = [[0,0],[1,0]] here.
        expected = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(pinv_matrix(HOLDING_A @ HOLDING_B), expected, atol=1e-13)
        assert np.allclose(pinv_matrix(HOLDING_B) @ pinv_matrix(HOLDING_A), expected, atol=1e-13)

    def test_failing_pair(self):
        verdict, residual = evaluate_condition(FAILING_A, FAILING_B, ConditionId.ROL_DIRECT)
        assert not verdict and residual > 1e-3
        # Frozen: the two sides disagree by a factor of two in (1,1).
        assert np.allclose(pinv_matrix(FAILING_A @ FAILING_B), np.diag([1.0, 0.0]), atol=1e-13)
        got = pinv_matrix(FAILING_B) @ pinv_matrix(FAILING_A)
        assert np.allclose(got, np.array([[0.5, 0.0], [0.0, 0.0]]), atol=1e-13)

    def test_unitary_left_factor_all_theorem_conditions(self):
        rng = np.random.default_rng(83)
        a = haar_unitary(4, rng)
        b = generate_regular(4, 4, 3, seed=rng)
        for cond in (
            ConditionId.T31_II, ConditionId.T31_III,
            ConditionId.T32_II, ConditionId.T32_III,
            ConditionId.T33_II, ConditionId.T33_III,
            ConditionId.T34_II, ConditionId.T34_III,
        ):
            verdict, residual = evaluate_condition(a, b, cond)
            assert verdict, (cond, residual)
        assert evaluate_condition(a, b, ConditionId.ROL_DIRECT)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="undefined"):
            evaluate_condition(np.eye(2), np.eye(3), ConditionId.G1)


class TestFullReport:
    def test_identity_pair_all_true(self):
        report = full_report(np.eye(3), np.eye(3))
        assert report.all_true()
        assert max(report.residuals.values()) <= 1e-14
        assert report.ranks == {"a": 3, "b": 3, "ab": 3}

    def test_failing_pair_all_mp_conditions_false(self):
        report = full_report(FAILING_A, FAILING_B)
        for cond in MP_ROL_CONDITIONS:
            assert report.verdicts[cond.value] is False, cond
        # The generalized-inverse trio still agrees internally.
        trio = {report.verdicts[c.value] for c in MBEKHTA_CONDITIONS}
        assert len(trio) == 1

    def test_holding_pair_all_true(self):
        report = full_report(HOLDING_A, HOLDING_B)
        assert report.all_true()

    def test_ranks_recorded(self):
        report = full_report(FAILING_A, FAILING_B)
        assert report.ranks == {"a": 1, "b": 1, "ab": 1}


class TestMbekhtaGap:
    def test_witness_pair(self):
        # b^+ a^+ is a generalized inverse of ab without being its
        # pseudoinverse: the weaker trio holds, the catalog fails.
        report = full_report(WITNESS_A, WITNESS_B)
        for cond in MBEKHTA_CONDITIONS:
            assert report.verdicts[cond.value] is True, cond
        assert report.verdicts[ConditionId.ROL_DIRECT.value] is False

    def test_witness_generator_family(self):
        rng = np.random.default_rng(89)
        for n in (2, 3, 5, 8):
            a, b = mbekhta_gap_pair(n, rng)
            report = full_report(a, b)
            assert report.verdicts[ConditionId.MBEKHTA_GI.value] is True
            assert report.verdicts[ConditionId.ROL_DIRECT.value] is False


class TestEquivalenceSweep:
    def test_catalog_agreement(self):
        # Every Moore-Penrose condition must agree with ROL_DIRECT and
        # the generalized-inverse trio must agree internally, across
        # random pairs and all constructed families.
        rng = np.random.default_rng(97)
        pairs = []
        for _ in range(120):
            n = int(rng.integers(1, 9))
            pairs.append(generate_rol_pair(n, "random", rng))
        for _ in range(30):
            n = int(rng.integers(1, 9))
            pairs.append(generate_rol_pair(n, "forced_unitary", rng))
            pairs.append(generate_rol_pair(n, "forced_pinv", rng))
        for _ in range(20):
            n = int(rng.integers(2, 9))
            pairs.append(rol_negative_pair(n, rng))
            pairs.append(mbekhta_gap_pair(n, rng))
        for a, b in pairs:
            report = full_report(a, b)
            rol = report.verdicts[ConditionId.ROL_DIRECT.value]
            for cond in MP_ROL_CONDITIONS:
                assert report.verdicts[cond.value] == rol, (
                    cond, report.residuals[cond.value], a, b,
                )
            gi = report.verdicts[ConditionId.MBEKHTA_GI.value]
            for cond in MBEKHTA_CONDITIONS:
                assert report.verdicts[cond.value] == gi, (cond, a, b)

    def test_implication_chain_residuals(self):
        # Whenever the commutator condition holds, the projection
        # identities hold with at most a 10x residual inflation.
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            mode = ("forced_unitary", "forced_pinv")[int(rng.integers(0, 2))]
            a, b = generate_rol_pair(n, mode, rng)
            report = full_report(a, b)
            if report.verdicts[ConditionId.T31_II.value]:
                assert report.residuals[ConditionId.T31_III.value] <= 10 * 1e-9


def _reference_product(w, factors, norm=1.0):
    """The catalog's tree-walking evaluator, kept as the reference: the
    left-to-right product of ``factors`` and its running norm product."""
    out = None
    for f in factors:
        if isinstance(f, ro._Comm):
            x, y = w.mats[f.x], w.mats[f.y]
            m, norm = x @ y - y @ x, norm * w.norms[f.x] * w.norms[f.y]
        elif isinstance(f, tuple):
            m, norm = _reference_product(w, f, norm)
        else:
            m, norm = w.mats[f], norm * w.norms[f]
        out = m if out is None else out @ m
    return out, norm


def _reference_workspace(a, b, with_ab=True):
    """The workspace as it formed p, q, r, s, a* a and r^+ itself, kept as the
    reference for ``ro._DEFS``: stacked matmuls of as many slices as the arena's
    width (one at a time for a pair that is not square), one ``frobenius_norms``
    call per stack, and q^+ being a* a, matrix and norm.  Its leaves and norms
    are named, in dicts ``mats`` and ``norms``."""
    ws = ro._Workspace(a, b, DEFAULT_TOL, with_ab)
    w = types.SimpleNamespace(mats=dict(zip(ro._PROGRAM.leaves, ws.leaves)),
                              norms=dict(zip(ro._PROGRAM.leaves, ws.norms)))
    (m, n), k = w.mats["a"].shape, w.mats["b"].shape[1]
    a, b, a_dag, b_dag, ah, bh, adh, bdh = map(w.mats.get, (
        "a", "b", "a_dag", "b_dag", "ah", "bh", "adh", "bdh"))
    products = (("p", b, b_dag), ("q", a_dag, adh), ("r", b, bh), ("s", a_dag, a),
                ("aa", ah, a), ("r_dag", bdh, b_dag))
    step = core._width(n) if m == n == k else 1
    for lo in range(0, len(products), step):
        names, xs, ys = zip(*products[lo:lo + step])
        stack = np.matmul(core._stack(xs), core._stack(ys))
        w.mats.update(zip(names, stack))
        w.norms.update(zip(names, core.frobenius_norms(stack)))
    w.mats["q_dag"], w.norms["q_dag"] = w.mats["aa"], w.norms["aa"]
    return w


def _reference_row(w, row):
    if row is ro._DIRECT:
        return distance(w.mats["ab_dag"], w.mats["b_dag"] @ w.mats["a_dag"])
    worst = []
    for lhs, rhs in row:
        lm, ln = _reference_product(w, lhs)
        if not rhs:
            worst.append(residual(lm, ln))
        else:
            rm, rn = _reference_product(w, rhs)
            worst.append(residual(lm - rm, ln, rn))
    return max(worst)


def _seeded_pairs(seed, count):
    """Square, rectangular, rank-deficient and 2^k-scaled pairs."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n, k = (int(v) for v in rng.integers(1, 7, size=3))
        if i % 4 == 0:
            m = n = k
        factors = []
        for shape in ((m, n), (n, k)):
            rank = int(rng.integers(1, min(shape) + 1))
            sv = np.geomspace(1.0, 1e-3, rank)
            factors.append(2.0 ** int(rng.integers(-40, 41) if i % 2 else 0)
                           * matrix_with_singular_values(sv, shape, rng))
        yield factors


def _width_pairs():
    """Square pairs on both sides of each change of stack width (the arena
    up to n = 15; the reference's six products in one stack up to n = 26; a
    square pair's three certificates in one stack up to n = 36, two up to
    n = 45), rectangular pairs, and pairs scaled by 2^k."""
    rng = np.random.default_rng(163)
    for n in (1, 2, 12, 14, 15, 16, 20, 21, 24, 26, 27, 36, 37, 45, 46, 47, 48):
        yield generate_regular(n, n, n, seed=rng), generate_regular(n, n, max(1, n - 1), seed=rng)
        yield (2.0 ** 37 * generate_regular(n, n, max(1, n - 2), seed=rng),
               2.0 ** -45 * generate_regular(n, n, n, seed=rng))
    for m, n, k in ((2, 3, 4), (5, 5, 2), (1, 4, 4), (4, 4, 1), (3, 1, 3), (13, 15, 14)):
        yield (generate_regular(m, n, min(m, n), seed=rng),
               generate_regular(n, k, min(n, k), seed=rng))


def _bits(x):
    return float(x).hex()


def _run(program, w):
    """``program`` run on the workspace ``w``, as ``evaluate_condition`` runs a row,
    or on the named leaves of a reference workspace, listed in the program's order."""
    if isinstance(w, ro._Workspace):
        return program.run(*w.operands(program))
    return program.run([w.mats[n] for n in program.leaves], [w.norms[n] for n in program.leaves])


class TestCompiledProgram:
    def steps(self, program):
        return [(op, x, y) for op, x, y, _, _ in program.code if op is not None]

    def test_each_product_is_formed_once(self):
        steps = self.steps(ro._PROGRAM)
        assert len(set(steps)) == len(steps)
        assert len({(x, y) for op, x, y in steps if op is operator.matmul}) == len(
            [s for s in steps if s[0] is operator.matmul])

    def test_matmul_count_is_the_distinct_prefix_count(self):
        # Count products by their spelled-out expression, independently
        # of the compiler: every left-to-right prefix of every side, and
        # x y and y x of every commutator.
        spelled = []

        def name(n):  # a definition is spelled out as its product
            return side(ro._DEFS[n]) if n in ro._DEFS else n

        def side(factors):
            out = None
            for f in factors:
                if isinstance(f, ro._Comm):
                    x, y = name(f.x), name(f.y)
                    spelled.extend([f"({x}@{y})", f"({y}@{x})"])
                    f = f"[{x},{y}]"
                else:
                    f = name(f) if isinstance(f, str) else side(f)
                if out is not None:
                    out = f"({out}@{f})"
                    spelled.append(out)
                else:
                    out = f
            return out

        for row in {id(r): r for r in ro._CONDITIONS.values()}.values():
            for lhs, rhs, *_ in row:
                side(lhs)
                side(rhs)
        matmuls = [s for s in self.steps(ro._PROGRAM) if s[0] is operator.matmul]
        # The table spells 202 matmuls: 103 in the equation rows, b^+ a^+ for
        # ROL_DIRECT and a definition's product at each of its 98 reads.  64
        # are distinct: a* a is both aa and q^+, so [aa, p] and [q^+, p] are
        # one commutator.
        assert len(spelled) == 202
        assert len(matmuls) == len(set(spelled)) == 64

    def test_commutator_and_product_compile_to_different_steps(self):
        # _Comm("s", "r") == ("s", "r") as tuples; the compiler must not
        # confuse the commutator s r - r s with the product s r.
        program = ro._Program({"comm": (((ro._Comm("s", "r"),), ()),),
                               "prod": ((("s", "r"), ()),)})
        (comm,), (prod,) = program.rows["comm"], program.rows["prod"]
        assert comm != prod
        base = len(program.leaves)
        ops = {slot: program.code[slot - base][0] for slot in (comm, prod)}
        lhs = {slot: program.code[slot - base][1] for slot in (comm, prod)}
        assert ops[comm] is None and ops[prod] is None
        assert program.code[lhs[comm] - base][0] is operator.sub
        assert program.code[lhs[prod] - base][0] is operator.matmul
        assert program.code[lhs[comm] - base][1] == lhs[prod]  # s r is shared

    def test_program_matches_reference_evaluator(self):
        for a, b in _seeded_pairs(151, 40):
            w = _reference_workspace(a, b)
            ref = {c: _reference_row(w, row) for c, row in ro._CONDITIONS.items()}
            got = _run(ro._PROGRAM, w)  # takes w's leaves
            assert {c: _bits(r) for c, r in got.items()} == {
                c: _bits(r) for c, r in ref.items()}

    def test_program_matches_reference_where_norm_products_overflow(self):
        # Scaled by up to 2^+-300, a side's norm product or a difference's norm
        # overflows, and the array rule scores those equations inf as _scaled does.
        rng = np.random.default_rng(173)
        worst = Counter()
        for a, b in _seeded_pairs(179, 60):
            a, b = (2.0 ** int(rng.integers(-300, 301)) * m for m in (a, b))
            with np.errstate(all="ignore"):
                try:
                    w = _reference_workspace(a, b)
                except PenroseResidualError:
                    continue
                ref = {c: _reference_row(w, row) for c, row in ro._CONDITIONS.items()}
                got = _run(ro._PROGRAM, w)
            assert {c: _bits(r) for c, r in got.items()} == {
                c: _bits(r) for c, r in ref.items()}, (a.shape, b.shape)
            square = a.shape[0] == a.shape[1] == b.shape[1]
            worst[square, max(got.values()) == np.inf] += 1
        assert worst[True, True] and worst[False, True], worst

    def test_scoring_adds_no_warning_where_norm_products_overflow(self):
        # math.prod overflowed to inf, and took 0 * inf to nan, without a
        # warning; so do the array side products, in the arena and one at a time.
        for a, b in ((np.eye(3), np.eye(3)), (np.ones((2, 3)), np.ones((3, 1)))):
            w = ro._Workspace(a, b, DEFAULT_TOL)
            w.norms = [(1e300, 0.0, math.inf)[k % 3] for k in range(len(w.norms))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _run(ro._PROGRAM, w)
            assert math.inf in got.values() and not any(map(math.isnan, got.values()))

    def test_a_row_of_three_equations_reads_all_three(self):
        # Each row takes the worst of all its equations, however many it has.
        g5, gi = ro._CONDITIONS[ConditionId.G5], ro._CONDITIONS[ConditionId.MBEKHTA_GI]
        rows = {ConditionId.G5: g5 + gi, ConditionId.G3: ro._CONDITIONS[ConditionId.G3]}
        program, third_worst = ro._Program(rows, ro._DEFS), 0
        for a, b in _seeded_pairs(191, 40):
            w = _reference_workspace(a, b)
            ref = {c: _reference_row(w, row) for c, row in rows.items()}
            third_worst += _reference_row(w, gi) > _reference_row(w, g5)
            got = _run(program, w)  # takes w's matrices
            assert {c: _bits(r) for c, r in got.items()} == {c: _bits(r) for c, r in ref.items()}
        assert third_worst

    def test_program_matches_reference_at_every_width(self):
        for a, b in _width_pairs():
            w = _reference_workspace(a, b)
            mats = w.mats
            ah, bdh = adjoint(mats["a"]), adjoint(mats["b_dag"])
            alone = {"p": mats["b"] @ mats["b_dag"], "q": mats["a_dag"] @ adjoint(mats["a_dag"]),
                     "r": mats["b"] @ adjoint(mats["b"]), "s": mats["a_dag"] @ mats["a"],
                     "aa": ah @ mats["a"], "r_dag": bdh @ mats["b_dag"]}
            for name, m in alone.items():
                assert mats[name].tobytes() == m.tobytes(), (a.shape, b.shape, name)
                assert _bits(w.norms[name]) == _bits(frobenius_norm(m)), (a.shape, name)
            ref = {c: _reference_row(w, row) for c, row in ro._CONDITIONS.items()}
            got = full_report(a, b).residuals
            assert {c.value: _bits(r) for c, r in ref.items()} == {
                c: _bits(r) for c, r in got.items()}, (a.shape, b.shape)

    def test_evaluate_condition_matches_full_report_at_every_width(self):
        for a, b in _width_pairs():
            report = full_report(a, b)
            for cond in ConditionId:
                verdict, res = evaluate_condition(a, b, cond)
                assert _bits(res) == _bits(report.residuals[cond.value]), (a.shape, cond)
                assert verdict == report.verdicts[cond.value], cond

    def test_evaluate_condition_matches_full_report(self):
        for a, b in _seeded_pairs(157, 24):
            report = full_report(a, b)
            for cond in ConditionId:
                verdict, res = evaluate_condition(a, b, cond)
                assert _bits(res) == _bits(report.residuals[cond.value]), cond
                assert verdict == report.verdicts[cond.value], cond

    def test_each_slot_is_dropped_after_its_last_reader(self):
        # One instruction at a time, each matrix is set to None by the entry
        # that reads it last, and by no other; each step fills its own slot,
        # in program order, and each norm of an equation its own place.
        program = ro._PROGRAM
        base = len(program.leaves)
        walk = program._walk
        last = {s: k for k, (_, x, y, _, _) in enumerate(walk) for s in (x, y) if s is not None}
        dropped = [(s, k) for k, (*_, dead) in enumerate(walk) for s in dead]
        assert dict(dropped) == last and len(dropped) == len(last)
        assert [out for op, *_, out, _ in walk if op is not None] == [
            i for i, c in enumerate(program.code, base) if c[0] is not None]
        norms = sorted(out for op, *_, out, _ in walk if op is None)
        assert norms == list(range(base, base + 38))

    def test_one_at_a_time_walk_holds_at_most_18_matrices(self):
        # One instruction at a time, the leaves are alive from the start, each
        # product from its step to its last reader, and a difference while its
        # norm is taken.  Definitions are formed where a row first reads them,
        # so the order of ro._CONDITIONS sets this peak; the report's memory
        # follows it (test_full_report_peak_memory_at_n48).
        program = ro._PROGRAM
        live = peak = len(program.leaves)
        for op, x, y, out, dead in program._walk:
            live += op is not None
            peak = max(peak, live + (op is None and y is not None))
            live -= len(dead)
        assert peak <= 18

    def test_levels(self):
        # The 64 distinct products fall on 5 levels, the definitions first,
        # the 9 commutator subtractions on 1, and the 31 equations on 5.
        levels = Counter((op, level) for op, *_, level in ro._PROGRAM.code)
        assert {lv: c for (op, lv), c in levels.items() if op is operator.matmul} == {
            1: 9, 2: 18, 3: 13, 4: 15, 5: 9}
        assert {lv: c for (op, lv), c in levels.items() if op is operator.sub} == {3: 9}
        equations = {lv: c for (op, lv), c in levels.items() if op is None}
        assert sum(equations.values()) == 31 and len(equations) <= 5
        assert ro._PROGRAM.widest == 18
        for op, x, y, _, level in ro._PROGRAM.code:
            operands = [s - len(ro._PROGRAM.leaves) for s in (x, y)
                        if s is not None and s >= len(ro._PROGRAM.leaves)]
            assert level == 1 + max((ro._PROGRAM.code[s][-1] for s in operands), default=0)

    def test_stacked_calls_of_one_report(self, monkeypatch):
        # One norm call for the 38 norms of the equations and definitions up
        # to n = 10 and two at n = 11 and 12 (33 and 28 slices each at most),
        # one for the certificate of a, b and ab (its four differences, the
        # three matrices and their pseudoinverses: six stacks of one slice
        # length, 41 KiB at n = 12), and no norm of one matrix alone.
        calls = Counter()
        for module, name in ((pinv_module, "frobenius_norms"), (core, "frobenius_norms"),
                             (core, "frobenius_norm"), (ro, "frobenius_norm")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name, **kwargs:
                                calls.update([name]) or real(*args, **kwargs))
        rng = np.random.default_rng(4)
        for n, equation_calls in ((4, 1), (11, 2), (12, 2)):
            calls.clear()
            a, b = generate_regular(n, n, n - 1, seed=rng), generate_regular(n, n, n, seed=rng)
            full_report(a, b)
            assert calls == {"frobenius_norms": equation_calls + 1}, n

    def test_arena_plan_fills_each_step_slice_once(self):
        # The 73 steps fill the arena's slices base .. base + 72 in 6 stacked
        # calls, one per level and kind, each reading only slices filled
        # before it; the equations and definitions gather 38 slices, and the
        # first 16 of them are differences.
        program = ro._Program(ro._CONDITIONS, ro._DEFS)
        base = len(program.leaves)
        filled = [i for *_, lo, hi in program._levels for i in range(lo, hi)]
        assert filled == list(range(base, base + 73)) and program._size == base + 73
        for _, x, y, lo, _ in program._levels:
            assert max(x.max(), y.max()) < lo
        assert (len(program._gather), len(program._minus)) == (38, 16)
        calls = []
        program._levels = [(lambda x, y, out, ufunc=ufunc: calls.append((ufunc, len(out)))
                            or ufunc(x, y, out=out), *rest) for ufunc, *rest in program._levels]
        rng = np.random.default_rng(5)
        a, b = generate_regular(4, 4, 3, seed=rng), generate_regular(4, 4, 4, seed=rng)
        got = _run(program, ro._Workspace(a, b, DEFAULT_TOL))
        assert calls == [(np.matmul, 9), (np.matmul, 18), (np.matmul, 13), (np.subtract, 9),
                         (np.matmul, 15), (np.matmul, 9)]
        assert got == _run(ro._PROGRAM, ro._Workspace(a, b, DEFAULT_TOL))

    def test_each_equation_is_scaled_once(self, monkeypatch):
        # Both plans score the 31 equations of a report by one call of the
        # array rule, in the arena, one at a time and for a rectangular pair.
        seen = []
        monkeypatch.setattr(core, "_scaled_array", lambda *args, real=core._scaled_array:
                            seen.append(args) or real(*args))
        rng = np.random.default_rng(11)
        pairs = [(np.eye(n), np.eye(n)) for n in (1, 2, 48)]
        pairs.append((generate_regular(3, 4, 3, seed=rng), generate_regular(4, 2, 2, seed=rng)))
        for a, b in pairs:
            seen.clear()
            full_report(a, b)
            assert [[len(v) for v in args] for args in seen] == [[31] * 3], a.shape

    def test_leaves_are_read_by_place_in_any_order(self, monkeypatch):
        # The same rows in reverse order read their leaves in another order.
        # Handed its leaves by place, from program.leaves, that program scores
        # every row bit for bit as the catalog does: in the arena (square
        # pairs up to n = _ARENA_N, 1-by-1 included) and in the walk (square
        # pairs above it, and rectangular pairs).
        program = ro._Program(dict(reversed(ro._CONDITIONS.items())), ro._DEFS)
        assert program.leaves != ro._PROGRAM.leaves
        assert sorted(program.leaves) == sorted(ro._PROGRAM.leaves)
        stacked = []
        real = core.frobenius_norms
        monkeypatch.setattr(core, "frobenius_norms", lambda *s: stacked.append(1) or real(*s))
        rng = np.random.default_rng(239)
        shapes = [(n, n, n) for n in (1, 2, 4, 9, core._ARENA_N, core._ARENA_N + 1, 20)]
        shapes += [(2, 3, 4), (4, 4, 1), (1, 3, 1), (5, 2, 5)]
        for m, n, k in shapes:
            for scale in (1.0, 2.0 ** 41):
                a = scale * generate_regular(m, n, max(1, min(m, n) - 1), seed=rng)
                b = generate_regular(n, k, min(n, k), seed=rng)
                stacked.clear()
                got = program.run(*ro._Workspace(a, b, DEFAULT_TOL).operands(program))
                arena = bool(stacked)
                want = ro._PROGRAM.run(*ro._Workspace(a, b, DEFAULT_TOL).operands(ro._PROGRAM))
                assert arena == (m == n == k <= core._ARENA_N), (m, n, k)
                assert {c: _bits(r) for c, r in got.items()} == {
                    c: _bits(r) for c, r in want.items()}, (m, n, k)
                assert {c.value: _bits(r) for c, r in got.items()} == {
                    c: _bits(r) for c, r in full_report(a, b).residuals.items()}, (m, n, k)

    def test_one_by_one_pairs_take_the_arena(self, monkeypatch):
        # A 1-by-1 slice has one layout, so a 1-by-1 pair runs in the arena,
        # bit for bit the reference; a rectangular pair never does, even
        # for a row whose widest level is one step.
        alone = Counter()  # the norms the compiled program takes of one matrix alone
        real = core.frobenius_norm
        monkeypatch.setattr(core, "frobenius_norm", lambda m: (
            sys._getframe(1).f_code is core._Program.run.__code__ and alone.update([m.shape]))
            or real(m))
        rng = np.random.default_rng(167)
        assert core._width(1) >= ro._PROGRAM.widest
        for i in range(60):
            a, b = (complex(*rng.standard_normal(2)) * 2.0 ** int(rng.integers(-60, 61))
                    * np.ones((1, 1)) * (i % 7 != 0) for _ in range(2))
            w = _reference_workspace(a, b)
            ref = {c: _reference_row(w, row) for c, row in ro._CONDITIONS.items()}
            got = _run(ro._PROGRAM, w)
            assert {c: _bits(r) for c, r in got.items()} == {c: _bits(r) for c, r in ref.items()}
        assert not alone
        assert ro._ROW_PROGRAMS[ConditionId.MBEKHTA_GI].widest == 1
        a, b = generate_regular(1, 2, 1, seed=rng), generate_regular(2, 1, 1, seed=rng)
        evaluate_condition(a, b, ConditionId.MBEKHTA_GI)
        assert alone == {(1, 1): 1}


# Peak traced allocation of one full_report on this 48x48 pair before the
# catalog was compiled: 745,744-748,088 bytes over repeated calls (numpy
# 2.4, Python 3.11).  Keeping every intermediate alive raised it by a
# third; the compiled program frees each slot after its last reader.
HEAD_PEAK_48 = 748_088


def test_full_report_peak_memory_at_n48():
    rng = np.random.default_rng(48)
    a = generate_regular(48, 48, 48, seed=rng)
    b = generate_regular(48, 48, 48, seed=rng)
    full_report(b, a)  # first-call allocations are not the report's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        full_report(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * HEAD_PEAK_48, peak


class TestStackedWorkspace:
    def test_overflowing_ab_raises_the_refusal_of_a_or_b_first(self):
        # pinv certifies a, b and ab in that order, as one stack: when ab
        # is not finite, a or b has a norm that overflows, and its own
        # refusal is raised, not the non-finite entries of ab.
        # Forming ab early adds no numpy warning to those of the refusal.
        huge = np.diag([1e250, 1.0]).astype(complex)
        large = np.diag([1e100, 1.0]).astype(complex)
        for a, b in ((huge, large), (large, huge)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(a @ b).all()
            with pytest.warns(RuntimeWarning) as alone_warnings:
                with pytest.raises(PenroseResidualError) as alone:
                    pinv(huge)
            with pytest.warns(RuntimeWarning) as report_warnings:
                with pytest.raises(PenroseResidualError) as report:
                    full_report(a, b)
            assert str(report.value) == str(alone.value)
            assert ({str(w.message) for w in report_warnings}
                    == {str(w.message) for w in alone_warnings})

    def test_refused_ab_refuses_only_the_conditions_that_read_it(self):
        rng = np.random.default_rng(0)
        a = matrix_with_singular_values([1.0, 1e-6, 1e-6], (3, 3), rng)
        b = matrix_with_singular_values([1.0, 1e-6, 1e-6], (3, 3), rng)
        with pytest.raises(PenroseResidualError):
            pinv(a @ b)
        reads_ab = {ConditionId.G1, ConditionId.G5, ConditionId.MBEKHTA_GI,
                    ConditionId.ROL_DIRECT}
        assert reads_ab == {c for c, p in ro._ROW_PROGRAMS.items()
                            if {"ab", "ab_dag"} & set(p.leaves)}
        for cond in ConditionId:
            if cond in reads_ab:
                with pytest.raises(PenroseResidualError):
                    evaluate_condition(a, b, cond)
            else:
                verdict, res = evaluate_condition(a, b, cond)
                assert np.isfinite(res)
        with pytest.raises(PenroseResidualError):
            full_report(a, b)
        rol_intermediates(a, b)  # p, q, r, s read no ab either

    def test_block_holds_each_leaf_once_bit_for_bit(self, monkeypatch):
        # A square pair up to n = _ARENA_N writes its leaves into one block, whose
        # head is the very stack pinv certifies; any other pair keeps one array
        # per leaf.  Either way each leaf is, bit for bit, a, b, ab, the
        # pseudoinverses pinv returns for them, or an adjoint of one of those.
        stacks = []
        real_pinv = ro.pinv
        monkeypatch.setattr(ro, "pinv", lambda m, tol: stacks.append(m) or real_pinv(m, tol))
        rng = np.random.default_rng(241)
        for m, n, k in ((1, 1, 1), (3, 3, 3), (core._ARENA_N,) * 3, (core._ARENA_N + 1,) * 3,
                        (3, 3, 2), (2, 4, 3)):
            a = 2.0 ** -33 * generate_regular(m, n, min(m, n), seed=rng)
            b = generate_regular(n, k, max(1, min(n, k) - 1), seed=rng)
            stacks.clear()
            w = ro._Workspace(a, b, DEFAULT_TOL)
            block = m == n == k <= core._ARENA_N
            assert isinstance(w.leaves, np.ndarray) == block, (m, n, k)
            if block:
                assert len(stacks) == 1 and stacks[0].base is w.leaves
                assert stacks[0].__array_interface__ == w.leaves[:3].__array_interface__
            leaf = dict(zip(ro._PROGRAM.leaves, w.leaves))
            norm = dict(zip(ro._PROGRAM.leaves, w.norms))
            want = {"a": a, "b": b, "ab": a @ b}
            for name, x in list(want.items()):
                result = pinv(x)
                want[name + "_dag"] = result.pinv
                assert (_bits(norm[name]), _bits(norm[name + "_dag"])) == tuple(
                    map(_bits, result.residuals.norms)), name
            for h, of in (("ah", "a"), ("bh", "b"), ("adh", "a_dag"), ("bdh", "b_dag")):
                want[h] = adjoint(want[of])
                assert _bits(norm[h]) == _bits(norm[of]), h
            assert set(leaf) == set(want)
            for name, x in want.items():
                assert leaf[name].shape == x.shape, (m, n, k, name)
                assert leaf[name].tobytes() == x.tobytes(), (m, n, k, name)

    def test_rectangular_pairs_stack_equal_shapes(self, monkeypatch):
        calls = []
        real_pinv = ro.pinv
        monkeypatch.setattr(ro, "pinv", lambda m, tol: calls.append(m.shape) or real_pinv(m, tol))
        rng = np.random.default_rng(233)
        for (m, n, k), shapes in (((3, 3, 3), [(3, 3, 3)]),
                                  ((2, 3, 4), [(1, 2, 3), (1, 3, 4), (1, 2, 4)]),
                                  ((3, 3, 2), [(1, 3, 3), (2, 3, 2)]),
                                  ((2, 3, 3), [(1, 2, 3), (1, 3, 3), (1, 2, 3)])):
            calls.clear()
            a = generate_regular(m, n, min(m, n), seed=rng)
            b = generate_regular(n, k, min(n, k), seed=rng)
            report = full_report(a, b)
            assert calls == shapes
            assert report.ranks == {"a": min(m, n), "b": min(n, k), "ab": min(m, n, k)}
