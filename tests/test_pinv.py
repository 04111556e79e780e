"""Tests for the pseudoinverse, its residuals, and the formulation catalog."""

import numpy as np
import pytest

from mpinv import (
    FormulationId,
    PenroseResidualError,
    PenroseResiduals,
    Tolerance,
    adjoint,
    approx_eq,
    formulation_holds,
    formulation_residual,
    frobenius_norm,
    generate_regular,
    involution_laws_check,
    numerical_rank,
    penrose_residuals,
    pinv,
    pinv_matrix,
    svd,
)

ALL_FORMULATIONS = list(FormulationId)


def ridge_limit_pinv(a, deltas=(1e-6, 1e-8, 1e-10)):
    """Oracle: a^+ as the Tikhonov limit (a*a + d I)^-1 a*, d -> 0.

    Uses plain linear solves, no SVD, so it is independent of the
    implementation path it checks.
    """
    a = np.asarray(a, dtype=complex)
    ah = adjoint(a)
    gram = ah @ a
    eye = np.eye(a.shape[1])
    estimates = [np.linalg.solve(gram + d * eye, ah) for d in deltas]
    assert frobenius_norm(estimates[-1] - estimates[-2]) <= 1e-5 * max(
        1.0, frobenius_norm(estimates[-1])
    ), "ridge iteration did not settle"
    return estimates[-1]


class TestPinv:
    def test_diagonal_reciprocal(self):
        assert np.allclose(pinv_matrix(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(pinv_matrix(np.eye(4)), np.eye(4), atol=1e-14)

    def test_zero_matrix_transposed_shape(self):
        result = pinv(np.zeros((3, 2)))
        assert result.pinv.shape == (2, 3)
        assert np.array_equal(result.pinv, np.zeros((2, 3)))
        assert result.rank == 0

    def test_shift_against_ridge_oracle(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        expected = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        oracle = ridge_limit_pinv(a)
        assert np.allclose(oracle, expected, atol=1e-6)
        assert np.allclose(pinv_matrix(a), expected, atol=1e-12)

    def test_random_against_ridge_oracle(self):
        rng = np.random.default_rng(41)
        for i in range(25):
            m, n = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.5, sv_high=2.0, seed=rng)
            assert np.allclose(pinv_matrix(a), ridge_limit_pinv(a), atol=1e-5)

    def test_rank_matches_input(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m, n = rng.integers(1, 13, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.5, sv_high=2.0, seed=rng)
            result = pinv(a)
            assert result.rank == r
            assert numerical_rank(svd(result.pinv)) == r

    def test_construction_guard_trips_on_impossible_tolerance(self):
        a = generate_regular(5, 5, 4, seed=2)
        tight = Tolerance(eq_tol=np.finfo(np.float64).eps)
        with pytest.raises(PenroseResidualError) as err:
            pinv(a, tight)
        assert err.value.residuals.max() > 0


    def test_subnormal_singular_values_refused_as_overflow(self):
        # 1/5e-324 is inf: refused as an overflow, not as a bad argument.
        with np.errstate(all="ignore"), pytest.raises(PenroseResidualError,
                                                      match="overflows") as err:
            pinv(np.diag([5e-324, 5e-324]))
        assert err.value.residuals.max() == np.inf


class TestPenroseResiduals:
    def test_identity_all_zero(self):
        res = penrose_residuals(np.eye(3), np.eye(3))
        assert (res.r1, res.r2, res.r3, res.r4) == (0.0, 0.0, 0.0, 0.0)

    def test_pinv_pairs_within_tolerance(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            m, n = rng.integers(1, 17, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.25, sv_high=4.0, seed=rng)
            assert penrose_residuals(a, pinv_matrix(a)).max() <= 1e-9

    def test_detects_wrong_candidate(self):
        res = penrose_residuals(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        assert res.r2 > 0
        assert res.r1 == res.r3 == res.r4 == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            penrose_residuals(np.eye(2), np.eye(3))

    def test_overflowed_norm_fails_closed(self):
        # ||a||_F overflows, so the absolute r1 of 0.5 must not scale to 0.
        with np.errstate(all="ignore"):
            res = penrose_residuals(np.diag([1e200, 1.0]), np.diag([1e-200, 0.5]))
        assert res.absolute[0] == 0.5
        assert (res.r1, res.r2, res.r3, res.r4) == (np.inf,) * 4
        assert not res.within()

    def test_max_keeps_nan(self):
        res = PenroseResiduals(0.0, float("nan"), 0.0, 0.0)
        assert np.isnan(res.max()) and not res.within()

    def test_uniqueness_under_perturbation(self):
        # Any perturbation of the pseudoinverse at or above 10x the
        # equality threshold must break at least one Penrose equation.
        rng = np.random.default_rng(53)
        tol = Tolerance()
        for _ in range(30):
            m, n = rng.integers(1, 9, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.8, sv_high=1.25, seed=rng)
            x = pinv_matrix(a)
            for k in range(100):
                size = 10 ** rng.uniform(-8, -1)  # relative, >= 10 * eq_tol
                delta = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
                delta *= size * frobenius_norm(x) / frobenius_norm(delta)
                assert penrose_residuals(a, x + delta).max() > tol.eq_tol


class TestFormulations:
    def test_identity_satisfies_all(self):
        for fid in ALL_FORMULATIONS:
            assert formulation_holds(np.eye(3), np.eye(3), fid)

    def test_pinv_satisfies_p24_iii(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.5, sv_high=2.0, seed=rng)
            assert formulation_holds(a, pinv_matrix(a), FormulationId.P24_III)

    def test_detects_wrong_candidate(self):
        a = np.diag([1.0, 0.0])
        x = np.diag([1.0, 1.0])
        assert not formulation_holds(a, x, FormulationId.P24_II)

    def test_equivalence_sweep(self):
        # The exact pseudoinverse satisfies all twelve formulations;
        # a 1e-3 relative perturbation falsifies every one of them.
        rng = np.random.default_rng(61)
        for _ in range(300):
            m, n = rng.integers(1, 17, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.5, sv_high=2.0, seed=rng)
            x = pinv_matrix(a)
            x_bad = (1.0 + 1e-3) * x
            for fid in ALL_FORMULATIONS:
                assert formulation_holds(a, x, fid)
                assert not formulation_holds(a, x_bad, fid)

    def test_residual_dimension_mismatch(self):
        with pytest.raises(ValueError):
            formulation_residual(np.eye(2), np.eye(3), FormulationId.P21_I)


class TestInvolutionLaws:
    def test_identity(self):
        report = involution_laws_check(np.eye(3))
        assert report.all_true()
        assert all(v == 0.0 for v in report.residuals.values())

    def test_zero_matrix(self):
        assert involution_laws_check(np.zeros((2, 3))).all_true()

    def test_random_rank_deficient(self):
        a = generate_regular(8, 5, 3, seed=67)
        report = involution_laws_check(a)
        assert report.all_true()
        assert max(report.residuals.values()) <= 1e-9

    def test_sweep_with_projections(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            m, n = rng.integers(1, 13, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.25, sv_high=4.0, seed=rng)
            x = pinv_matrix(a)
            assert involution_laws_check(a).all_true()
            # a a^+ and a^+ a are their own pseudoinverses.
            for proj in (a @ x, x @ a):
                assert approx_eq(pinv_matrix(proj), proj)
