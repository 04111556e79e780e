"""Tests for conorm, partial isometries, and classification."""

import numpy as np
import pytest

from mpinv import (
    adjoint,
    classify,
    conorm,
    generate_regular,
    generate_special,
    gram_projection_residual,
    haar_unitary,
    hermitian_residual,
    is_partial_isometry,
    matrix_with_singular_values,
    nonhermitian_partial_isometry_fixture,
    nonnormal_mph_fixture,
    norm_conorm_check,
    normal_mph_check,
    normality_residual,
    operator_norm,
    pinv_matrix,
    random_hermitian_partial_isometry,
    random_partial_isometry,
    svd,
)

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
INVOLUTION = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)


class TestConorm:
    def test_diagonal(self):
        assert conorm(np.diag([3.0, 2.0, 0.0])) == pytest.approx(2.0, abs=1e-14)

    def test_unitary(self):
        q = haar_unitary(4, np.random.default_rng(2))
        assert conorm(q) == pytest.approx(1.0, abs=1e-12)

    def test_prescribed_singular_values(self):
        a = matrix_with_singular_values([5.0, 3.0, 0.5], (6, 4), seed=3)
        assert conorm(a) == pytest.approx(0.5, abs=1e-12)
        # Cross-check against the reciprocal of the pseudoinverse norm.
        assert conorm(a) * operator_norm(pinv_matrix(a)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix_is_an_error(self):
        with pytest.raises(ValueError, match="undefined for the zero element"):
            conorm(np.zeros((2, 2)))


class TestStructureResiduals:
    def test_finite_values_keep_their_divisor(self):
        rng = np.random.default_rng(8)
        for scale in (2.0**-30, 1.0, 3e5):
            m = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            na = np.linalg.norm(m)
            assert hermitian_residual(m) == np.linalg.norm(m - m.conj().T) / na
            assert normality_residual(m) == (
                np.linalg.norm(m @ m.conj().T - m.conj().T @ m) / (na * na))

    def test_hermitian_overflow_fails_closed(self):
        # ||a||_F overflows; the sqrt(2) difference must not scale to 0.
        with np.errstate(all="ignore"):
            assert hermitian_residual([[1e200, 1], [0, 1e200]]) == np.inf

    def test_normality_overflow_fails_closed(self):
        # The products overflow to NaN; that must not read as a pass.
        with np.errstate(all="ignore"):
            assert normality_residual([[1e200, 1], [0, 1e200]]) == np.inf
            # ||a||_F is finite here but its square, the divisor, is not.
            assert normality_residual(np.diag([1e154, 1e154])) == np.inf


class TestPartialIsometry:
    def test_shift(self):
        assert is_partial_isometry(SHIFT)

    def test_scaled_projection_rejected(self):
        assert not is_partial_isometry(np.diag([2.0, 0.0]))

    def test_zero_matrix_by_convention(self):
        assert is_partial_isometry(np.zeros((2, 3)))

    def test_adjoint_agreement(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                a = random_partial_isometry(n, int(rng.integers(0, n + 1)), rng)
            else:
                a = generate_regular(n, n, int(rng.integers(0, n + 1)), seed=rng)
            assert is_partial_isometry(a) == is_partial_isometry(adjoint(a))

    def test_gram_cross_validation(self):
        rng = np.random.default_rng(137)
        for _ in range(100):
            m, n = rng.integers(1, 9, size=2)
            if rng.random() < 0.5:
                k = min(m, n)
                a = matrix_with_singular_values(np.ones(int(rng.integers(0, k + 1))), (m, n), rng)
            else:
                a = generate_regular(m, n, int(rng.integers(0, min(m, n) + 1)), seed=rng)
            flag = is_partial_isometry(a)
            assert (gram_projection_residual(a, "left") <= 1e-9) == flag
            assert (gram_projection_residual(a, "right") <= 1e-9) == flag


class TestNormConormCheck:
    def test_shift_both_sides_true(self):
        report = norm_conorm_check(SHIFT)
        assert report.verdicts["partial_isometry"]
        assert report.verdicts["unit_norm_and_conorm"]
        assert report.verdicts["consistent"]

    def test_diagonal_both_sides_false(self):
        report = norm_conorm_check(np.diag([1.0, 0.5]))
        assert not report.verdicts["partial_isometry"]
        assert not report.verdicts["unit_norm_and_conorm"]
        assert report.verdicts["consistent"]

    def test_random_partial_isometries(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_partial_isometry(n, int(rng.integers(1, n + 1)), rng)
            report = norm_conorm_check(a)
            assert report.verdicts["partial_isometry"]
            assert report.verdicts["unit_norm_and_conorm"]
            assert report.verdicts["consistent"]

    def test_zero_matrix_is_an_error(self):
        with pytest.raises(ValueError, match="zero"):
            norm_conorm_check(np.zeros((3, 3)))


class TestNormalMphCheck:
    def test_sign_diagonal_both_true(self):
        report = normal_mph_check(np.diag([1.0, -1.0, 0.0]))
        assert report.verdicts["normal_mp_hermitian"]
        assert report.verdicts["hermitian_partial_isometry"]
        assert report.verdicts["consistent"]

    def test_nonnormal_involution_both_false(self):
        # Oracle by direct Gram products: a a* and a* a differ.
        a = INVOLUTION
        assert np.allclose(a @ adjoint(a), [[2.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(adjoint(a) @ a, [[1.0, 1.0], [1.0, 2.0]])
        report = normal_mph_check(a)
        assert not report.verdicts["normal_mp_hermitian"]
        assert not report.verdicts["hermitian_partial_isometry"]
        assert report.verdicts["consistent"]

    def test_shift_both_false(self):
        report = normal_mph_check(SHIFT)
        assert not report.verdicts["normal_mp_hermitian"]
        assert not report.verdicts["hermitian_partial_isometry"]
        assert report.verdicts["consistent"]

    def test_three_fixture_families(self):
        rng = np.random.default_rng(149)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            herm = random_hermitian_partial_isometry(n, (1, 1, n - 2), rng)
            rep = normal_mph_check(herm)
            assert rep.verdicts["normal_mp_hermitian"] and rep.verdicts["consistent"]

            nonnormal = nonnormal_mph_fixture(n, rng)
            rep = normal_mph_check(nonnormal)
            assert not rep.verdicts["normal_mp_hermitian"]
            assert not rep.verdicts["hermitian_partial_isometry"]
            assert rep.verdicts["consistent"]

            nonherm = nonhermitian_partial_isometry_fixture(n, rng)
            rep = normal_mph_check(nonherm)
            assert not rep.verdicts["normal_mp_hermitian"]
            assert not rep.verdicts["hermitian_partial_isometry"]
            assert rep.verdicts["consistent"]

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            normal_mph_check(np.zeros((2, 3)))


class TestClassify:
    def test_sign_diagonal(self):
        report = classify(np.diag([1.0, -1.0, 0.0]))
        assert report.regular
        assert report.hermitian and report.normal
        assert report.partial_isometry and report.mp_hermitian
        assert report.rank == 2
        assert report.op_norm == pytest.approx(1.0, abs=1e-14)
        assert report.conorm == pytest.approx(1.0, abs=1e-14)

    def test_zero_matrix(self):
        report = classify(np.zeros((2, 2)))
        assert report.conorm is None
        assert report.rank == 0
        assert report.partial_isometry  # 0^+ = 0 = 0*
        assert report.mp_hermitian

    def test_rectangular(self):
        report = classify(np.ones((2, 3)))
        assert not report.hermitian and not report.normal and not report.mp_hermitian
        assert report.rank == 1

    @pytest.mark.parametrize(
        "a, record",
        [
            (
                np.zeros((2, 2)),
                {"regular": True, "hermitian": True, "normal": True,
                 "partial_isometry": True, "mp_hermitian": True,
                 "op_norm": 0.0, "pinv_norm": 0.0, "conorm": None, "rank": 0},
            ),
            (
                np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
                {"regular": True, "hermitian": False, "normal": False,
                 "partial_isometry": False, "mp_hermitian": False,
                 "op_norm": 2.0, "pinv_norm": 1.0, "conorm": 1.0, "rank": 2},
            ),
        ],
        ids=["zero_2x2", "rectangular_2x3"],
    )
    def test_record_format(self, a, record):
        out = classify(a).as_dict()
        assert list(out.items()) == list(record.items())
        assert [type(v) for v in out.values()] == [type(v) for v in record.values()]

    def test_conorm_pinv_norm_reciprocal(self):
        rng = np.random.default_rng(151)
        for _ in range(100):
            m, n = rng.integers(1, 9, size=2)
            r = int(rng.integers(1, min(m, n) + 1))
            a = generate_regular(m, n, r, sv_low=0.25, sv_high=4.0, seed=rng)
            report = classify(a)
            assert abs(report.conorm * report.pinv_norm - 1.0) <= 1e-9

    def test_partial_isometry_forces_unit_norms(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_partial_isometry(n, int(rng.integers(1, n + 1)), rng)
            report = classify(a)
            assert report.partial_isometry
            assert abs(report.op_norm - 1.0) <= 1e-9
            assert abs(report.conorm - 1.0) <= 1e-9


class TestGenerators:
    def test_hermitian_partial_isometry_passes_check(self):
        a = random_hermitian_partial_isometry(3, (1, 1, 1), seed=8)
        report = normal_mph_check(a)
        assert report.verdicts["normal_mp_hermitian"]
        assert report.verdicts["hermitian_partial_isometry"]

    def test_partial_isometry_singular_values(self):
        a = random_partial_isometry(4, 2, seed=9)
        assert np.allclose(svd(a).sigma, [1.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_unit_scalar(self):
        a = matrix_with_singular_values([1.0], (1, 1), seed=10)
        assert abs(abs(a[0, 0]) - 1.0) <= 1e-12

    def test_prescribed_values_land_exactly(self):
        sv = [2.5, 1.0, 0.25]
        a = matrix_with_singular_values(sv, (5, 4), seed=11)
        assert np.allclose(svd(a).sigma[:3], sv, atol=1e-12)
        assert np.allclose(svd(a).sigma[3:], 0.0, atol=1e-12)

    def test_determinism(self):
        assert np.array_equal(
            random_partial_isometry(5, 3, 12), random_partial_isometry(5, 3, 12)
        )

    def test_dispatcher(self):
        a = generate_special("partial_isometry", 4, 1, rank=2)
        assert is_partial_isometry(a)
        b = generate_special("hermitian_partial_isometry", 4, 1, inertia=(2, 1, 1))
        assert is_partial_isometry(b) and np.allclose(b, adjoint(b))
        c = generate_special("prescribed_singular_values", 4, 1, singular_values=[3.0, 1.0])
        assert conorm(c) == pytest.approx(1.0, abs=1e-12)

    def test_dispatcher_errors(self):
        with pytest.raises(ValueError, match="needs rank"):
            generate_special("partial_isometry", 4, 1)
        with pytest.raises(ValueError, match="unknown kind"):
            generate_special("whatever", 4, 1)
        with pytest.raises(ValueError, match="inertia"):
            random_hermitian_partial_isometry(3, (1, 1, 2), seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            matrix_with_singular_values([-1.0], (2, 2), seed=0)
