"""Tests for the reverse-order-law condition catalog."""

import numpy as np
import pytest

from mpinv import (
    EPS,
    MBEKHTA_CONDITIONS,
    MP_ROL_CONDITIONS,
    ConditionId,
    adjoint,
    evaluate_condition,
    frobenius_norm,
    full_report,
    generate_regular,
    generate_rol_pair,
    haar_unitary,
    matrix_with_singular_values,
    mbekhta_gap_pair,
    pinv_matrix,
    rol_intermediates,
    rol_negative_pair,
)

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
