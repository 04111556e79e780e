"""Tests for MPH detection, subspace structure, decomposition, generation."""

import numpy as np
import pytest

from mpinv import (
    MphDecomposition,
    NotMpHermitianError,
    PenroseResidualError,
    SubspaceBasis,
    Tolerance,
    adjoint,
    algebraic_mph_check,
    annihilator_spectrum_check,
    approx_eq,
    classify,
    frobenius_norm,
    generate_mp_hermitian,
    generate_regular,
    haar_unitary,
    is_mp_hermitian,
    matrix_with_singular_values,
    mph_decompose,
    mph_subspace_check,
    numerical_rank,
    pinv,
    svd,
)
from mpinv import core
from mpinv.core import distance

SIGNS_3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
INVOLUTION_2 = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
SHIFT_2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestIsMpHermitian:
    def test_sign_diagonal(self):
        assert is_mp_hermitian(SIGNS_3)

    def test_scaled_diagonal_rejected(self):
        assert not is_mp_hermitian(np.diag([2.0, 0.0]))

    def test_nonnormal_involution(self):
        assert is_mp_hermitian(INVOLUTION_2)

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            is_mp_hermitian(np.zeros((2, 3)))

    def test_stack_gives_each_slice_its_own_verdict(self, monkeypatch):
        # One SVD call factors the stack, and each verdict is its slice's alone.
        rng = np.random.default_rng(41)
        svd_calls = []
        for name in ("_lapack_svd", "_lapack_svdvals"):
            monkeypatch.setattr(core, name, lambda m, real=getattr(core, name):
                                svd_calls.append(1) or real(m))
        verdicts = set()
        for n in range(1, 9):
            for tol in (Tolerance(), Tolerance(eq_tol=1e-14)):
                a = generate_mp_hermitian(n, int(rng.integers(0, n + 1)), rng)
                powers = [a, a @ a, generate_regular(n, n, n, seed=rng), adjoint(a) @ a]
                want = [is_mp_hermitian(m, tol) for m in powers]
                for stack in (np.array(powers), [m.tolist() for m in powers]):
                    svd_calls.clear()
                    got = is_mp_hermitian(stack, tol)
                    assert len(svd_calls) == 1
                    assert got == want
                verdicts.update(got)
        assert verdicts == {True, False}

    def test_stack_raises_the_error_of_its_first_refused_slice(self):
        rng = np.random.default_rng(43)
        good = generate_mp_hermitian(3, 2, rng)
        refused = matrix_with_singular_values([1.0, 1e-12, 1e-12], (3, 3), rng)
        with pytest.raises(PenroseResidualError) as alone:
            is_mp_hermitian(refused)
        with pytest.raises(PenroseResidualError) as stacked:
            is_mp_hermitian(np.array([good, refused, np.eye(3)]))
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(ValueError, match="square"):
            is_mp_hermitian(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            is_mp_hermitian(np.array([good, np.full((3, 3), np.nan)]))


class TestAlgebraicCheck:
    def test_sign_diagonal(self):
        assert algebraic_mph_check(SIGNS_3)

    def test_involution(self):
        assert algebraic_mph_check(INVOLUTION_2)

    def test_nilpotent(self):
        assert not algebraic_mph_check(SHIFT_2)

    def test_agreement_with_definition(self):
        rng = np.random.default_rng(103)
        for _ in range(400):
            n = int(rng.integers(1, 13))
            if rng.random() < 0.4:
                a = generate_mp_hermitian(n, int(rng.integers(0, n + 1)), rng)
            else:
                a = generate_regular(n, n, int(rng.integers(0, n + 1)), seed=rng)
            assert algebraic_mph_check(a) == is_mp_hermitian(a)


class TestAnnihilatorCheck:
    def test_sign_diagonal(self):
        assert annihilator_spectrum_check(np.diag([1.0, -1.0, 0.0, 1.0]))

    def test_scaled_identity(self):
        assert not annihilator_spectrum_check(2.0 * np.eye(2))

    def test_generated_fixture(self):
        a = generate_mp_hermitian(6, 3, 42)
        assert annihilator_spectrum_check(a)


class TestSubspaceCheck:
    def test_sign_diagonal_all_true(self):
        report = mph_subspace_check(SIGNS_3)
        assert report.all_true()

    def test_involution_all_true(self):
        assert mph_subspace_check(INVOLUTION_2).all_true()

    def test_shift_range_mismatch(self):
        report = mph_subspace_check(SHIFT_2)
        assert report.verdicts["range_equal"] is False
        assert not report.all_true()

    def test_conjunction_matches_definition(self):
        rng = np.random.default_rng(107)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            if rng.random() < 0.4:
                a = generate_mp_hermitian(n, int(rng.integers(0, n + 1)), rng)
            else:
                a = generate_regular(n, n, int(rng.integers(0, n + 1)), seed=rng)
            assert mph_subspace_check(a).all_true() == is_mp_hermitian(a)

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            mph_subspace_check(np.zeros((2, 3)))


class TestDecompose:
    def test_sign_diagonal(self):
        dec = mph_decompose(SIGNS_3)
        assert dec.h2.dim == 2 and dec.h1.dim == 1
        assert np.allclose(dec.h2.projector(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert np.allclose(dec.h1.projector(), np.diag([0.0, 0.0, 1.0]), atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(dec.t2))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)

    def test_identity_degenerate_null_space(self):
        dec = mph_decompose(np.eye(3))
        assert dec.h1.dim == 0 and dec.h2.dim == 3
        assert np.allclose(dec.t2, np.eye(3), atol=1e-12)

    def test_embedded_involution_round_trip(self):
        # Plant 0 (+) T2 under a random unitary; recovery must be
        # similar to T2 (same trace and determinant) and reconstruct.
        rng = np.random.default_rng(109)
        q = haar_unitary(5, rng)
        planted = np.zeros((5, 5), dtype=complex)
        planted[3:, 3:] = INVOLUTION_2
        a = q @ planted @ adjoint(q)
        dec = mph_decompose(a)
        assert dec.h2.dim == 2
        assert dec.involution_residual <= 1e-9
        assert dec.orthogonality_residual <= 1e-9
        assert dec.reconstruction_residual <= 1e-9
        assert abs(np.trace(dec.t2)) <= 1e-9          # trace of T2 is 0
        assert abs(np.linalg.det(dec.t2) + 1) <= 1e-9  # det of T2 is -1

    def test_round_trip_generated(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            k = int(rng.integers(0, n + 1))
            a = generate_mp_hermitian(n, k, rng)
            dec = mph_decompose(a)
            assert dec.h1.dim + dec.h2.dim == n
            assert dec.h2.dim == k
            recon = dec.h2.columns @ dec.t2 @ adjoint(dec.h2.columns)
            assert frobenius_norm(recon - a) <= 1e-9 * max(1.0, frobenius_norm(a))

    def test_rejects_non_mph(self):
        with pytest.raises(NotMpHermitianError) as err:
            mph_decompose(np.diag([2.0, 0.0]))
        assert err.value.residual > 1e-3

    def test_bases_must_be_orthonormal(self):
        with pytest.raises(ValueError,
                           match=r"^basis columns are not orthonormal \(1\.000e\+00\)$"):
            SubspaceBasis(np.array([[1.0], [1.0]]))  # a column of length sqrt(2)
        assert SubspaceBasis(np.eye(3)[:, :2]).dim == 2

    @pytest.mark.parametrize("field, message", [
        ("orthogonality_residual", r"^null/range bases not orthogonal \(2\.000e-09\)$"),
        ("involution_residual", r"^restriction is not an involution \(2\.000e-09\)$"),
    ])
    def test_decomposition_refuses_a_failed_certificate(self, field, message):
        fields = dict(h1=SubspaceBasis(np.eye(2)[:, 1:]), h2=SubspaceBasis(np.eye(2)[:, :1]),
                      t2=np.eye(1), orthogonality_residual=0.0, involution_residual=0.0,
                      reconstruction_residual=0.0)
        MphDecomposition(**fields)
        with pytest.raises(ValueError, match=message):
            MphDecomposition(**{**fields, field: 2e-9})

    def test_refusal_agrees_with_detection_at_the_boundary(self):
        # eq_tol set to the exact ||a^+ - a|| residual of a slightly
        # scaled MPH matrix: the residual and the approx_eq product form
        # straddle the budget, so every caller must decide by one rule.
        for seed in range(300):
            a = generate_mp_hermitian(3, 2, seed) * (1 + (1 + seed % 7) * 1e-11)
            tol = Tolerance(eq_tol=distance(pinv(a).pinv, a))
            try:
                mph_decompose(a, tol)
                decomposed = True
            except NotMpHermitianError:
                decomposed = False
            assert decomposed == is_mp_hermitian(a, tol) == classify(a, tol).mp_hermitian, seed


class TestGenerator:
    def test_rank_zero_is_zero_matrix(self):
        assert np.array_equal(generate_mp_hermitian(3, 0, 5), np.zeros((3, 3)))

    def test_forced_plus_signs_give_involution(self):
        a = generate_mp_hermitian(4, 4, 11, plus_count=4)
        assert np.allclose(a @ a, np.eye(4), atol=1e-12)

    def test_example_fixture(self):
        a = generate_mp_hermitian(6, 3, 42)
        assert is_mp_hermitian(a)
        assert numerical_rank(svd(a)) == 3

    def test_deterministic(self):
        assert np.array_equal(generate_mp_hermitian(7, 4, 9), generate_mp_hermitian(7, 4, 9))

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            generate_mp_hermitian(3, 4, 0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"cond_cap": 0.5}, "^cond_cap must be at least 1$"),
        ({"plus_count": 4}, r"^plus_count=4 must be in \[0, 3\]$"),
        ({"plus_count": -1}, r"^plus_count=-1 must be in \[0, 3\]$"),
    ])
    def test_rejects_bad_cond_cap_and_plus_count(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            generate_mp_hermitian(4, 3, 0, **kwargs)

    def test_power_and_adjoint_closure(self):
        rng = np.random.default_rng(127)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(0, n + 1))
            a = generate_mp_hermitian(n, k, rng)
            assert is_mp_hermitian(adjoint(a))
            power = a
            for _exponent in range(2, 6):
                power = power @ a
                assert is_mp_hermitian(power)

    def test_mixed_signs_present(self):
        # Rank >= 2 cores carry both +1 and -1 eigenvalues, so the
        # trace stays strictly below the rank.
        for seed in range(10):
            a = generate_mp_hermitian(6, 4, seed)
            assert abs(np.trace(a).real) <= 4 - 2 + 1e-6

    def test_double_pinv_fixture(self):
        a = generate_mp_hermitian(5, 3, 21)
        from mpinv import pinv_matrix

        assert approx_eq(pinv_matrix(a), a)
