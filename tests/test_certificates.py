"""Each answer is certified once, by the certificate of what it returns.

``svd`` answers with factors, so it checks them (unitarity and the
reconstruction of its input).  ``pinv`` answers with ``a^+``, the one
solution of the four Penrose equations, so its Penrose residuals are its
certificate and the SVD behind it is not checked again.  The tests below
corrupt the factors LAPACK returns, by far more than rounding, and show
that both certificates still refuse them; then they pin which calls run
the factor checks (``core._verify``) on their input.
"""

import numpy as np
import pytest

from mpinv import (
    PenroseResidualError,
    SvdConvergenceError,
    classify,
    conorm,
    core,
    full_report,
    generate_mp_hermitian,
    generate_regular,
    matrix_with_singular_values,
    mph_decompose,
    mph_subspace_check,
    norm_conorm_check,
    operator_norm,
    pinv,
    pinv_matrix,
    save_matrix,
    svd,
)
from mpinv import cli, core, isometry

RNG = np.random.default_rng(307)
# Well separated singular values, so that a corrupted sigma stays ordered.
BAD = matrix_with_singular_values([3.0, 2.0, 1.0], (4, 3), RNG)
WORSE = matrix_with_singular_values([3.0, 2.0, 1.0], (4, 3), RNG)
GOOD = matrix_with_singular_values([3.0, 2.0, 1.0], (4, 3), RNG)


def _scale_first_column_of_u(u, s):
    u[:, 0] *= 1 + 1e-6


def _scale_second_singular_value(u, s):
    s[1] *= 1 + 1e-6


@pytest.fixture(params=[
    (_scale_first_column_of_u, ValueError, "^u is not unitary to working precision$"),
    (_scale_second_singular_value, SvdConvergenceError,
     r"^SVD reconstruction residual \S+ exceeds tolerance$"),
], ids=["u", "sigma"])
def corrupted(request, monkeypatch):
    """``core._lapack_svd`` with the factors of BAD and WORSE corrupted, slice by
    slice in a stack; returns the error and message ``svd`` owes them."""
    corrupt, error, message = request.param
    real_svd = core._lapack_svd

    def corrupting_svd(m):
        u, s, vh = real_svd(m)
        parts = zip(*(x if np.ndim(m) == 3 else x[None] for x in (m, u, s)))
        for part, ui, si in parts:
            if np.array_equal(part, BAD) or np.array_equal(part, WORSE):
                corrupt(ui, si)
        return u, s, vh

    monkeypatch.setattr(core, "_lapack_svd", corrupting_svd)
    return error, message


class TestCorruptedFactors:
    def test_pinv_refuses_them_by_its_residuals(self, corrupted):
        with pytest.raises(PenroseResidualError) as refused:
            pinv(BAD)
        assert 1e-9 < refused.value.residuals.max() < 1e-5
        with pytest.raises(PenroseResidualError):
            pinv_matrix(BAD)
        assert pinv(GOOD).residuals.max() < 1e-14

    def test_pinv_of_a_stack_refuses_the_first_corrupted_slice(self, corrupted):
        with pytest.raises(PenroseResidualError) as alone:
            pinv(BAD)
        with pytest.raises(PenroseResidualError) as stacked:
            pinv(np.stack([GOOD, BAD, WORSE]))
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.residuals == alone.value.residuals

    def test_svd_refuses_them_by_its_factor_checks(self, corrupted):
        error, message = corrupted
        with pytest.raises(error, match=message):
            svd(BAD)
        with pytest.raises(error, match=message):
            svd(np.stack([GOOD, BAD]))
        svd(GOOD)


@pytest.fixture
def verified(monkeypatch):
    """``count(a)`` is the number of times the factor checks ran on ``a``
    since the fixture started, ``count()`` the number of checked matrices;
    an ``(N, m, n)`` stack is N of them."""
    seen = []
    real_verify = core._verify

    def recording_verify(a, f):
        seen.extend(a if a.ndim == 3 else [a])
        return real_verify(a, f)

    for module in (core, isometry):  # the modules that call it
        monkeypatch.setattr(module, "_verify", recording_verify)

    def count(a=None):
        if a is None:
            return len(seen)
        a = np.asarray(a, dtype=np.complex128)
        return sum(1 for m in seen if m.shape == a.shape and np.array_equal(m, a))

    return count


REGULAR = generate_regular(5, 5, 3, seed=2)
MPH = generate_mp_hermitian(5, 3, 2)


class TestOneCertificatePerAnswer:
    @pytest.mark.parametrize("call", [
        lambda: pinv(REGULAR),
        lambda: pinv(np.stack([REGULAR, MPH])),
        lambda: pinv_matrix(REGULAR),
        lambda: full_report(REGULAR, MPH),
        lambda: norm_conorm_check(REGULAR),
        lambda: mph_decompose(MPH),
    ], ids=["pinv", "pinv_stack", "pinv_matrix", "full_report", "norm_conorm_check",
            "mph_decompose"])
    def test_penrose_certified_answers_do_not_check_the_factors(self, verified, call):
        call()
        assert verified() == 0

    def test_classify_checks_only_the_factors_of_the_pseudoinverse(self, verified):
        # Its own pinv is certified by the residuals; operator_norm(a^+)
        # answers with a singular value, so that SVD is checked.
        classify(REGULAR)
        assert verified(REGULAR) == 0
        assert verified() == 1

    @pytest.mark.parametrize("call, a", [
        (svd, REGULAR),
        (conorm, REGULAR),
        (operator_norm, REGULAR),
        (mph_subspace_check, MPH),
    ], ids=["svd", "conorm", "operator_norm", "mph_subspace_check"])
    def test_factor_answers_check_the_factors_once(self, verified, call, a):
        call(a)
        assert verified(a) == 1 and verified() == 1

    def test_cli_classify_checks_the_input_and_the_pseudoinverse_once(self, verified,
                                                                      tmp_path, capsys):
        # The subspace check reads the factors of pinv(a) as bases, so they are
        # checked once; operator_norm(a^+) checks the factors of a^+.
        path = tmp_path / "a.json"
        save_matrix(MPH, path)
        assert cli.main(["classify", "--in", str(path)]) == 0
        capsys.readouterr()
        assert verified(MPH) == 1 and verified(pinv(MPH).pinv) == 1 and verified() == 2
