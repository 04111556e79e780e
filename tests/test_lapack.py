"""The LAPACK boundary: ``core``'s ``_lapack_*`` kernels.

Each kernel calls a numpy-internal gufunc, so each is pinned bit for bit to
the public numpy function it stands for, on every layout and shape the
package can hand it, and on its error paths: a numpy release that renames
or changes those gufuncs fails here.  The guard keeps every SVD, QR and
inverse of the package behind these four kernels.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from mpinv import core, haar_unitary
from mpinv.core import SvdConvergenceError

SRC = Path(__file__).resolve().parents[1] / "src" / "mpinv"


def _layouts(a):
    """Fresh copies of ``a`` in C order, in F order and as a strided view of a
    larger array."""
    big = np.zeros((*a.shape[:-2], 2 * a.shape[-2], 3 * a.shape[-1]), np.complex128)
    big[..., ::2, ::3] = a
    return [a.copy(order="C"), a.copy(order="F"), big[..., ::2, ::3]]


def _operands():
    """Random complex matrices and stacks, 1-by-n and n-by-1, rank-deficient,
    and each scaled by 2^k: (id, array)."""
    rng = np.random.default_rng(20130814)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    bases = {"square": gauss(5, 5), "tall": gauss(6, 3), "wide": gauss(3, 6),
             "1xn": gauss(1, 4), "nx1": gauss(4, 1), "1x1": gauss(1, 1),
             "rank_2": gauss(5, 2) @ gauss(2, 5), "stack": gauss(3, 4, 4),
             "tall_stack": gauss(2, 5, 3), "rank_1_stack": gauss(3, 4, 1) @ gauss(3, 1, 4)}
    return [(f"{name}*2^{k}", a * 2.0 ** k) for name, a in bases.items() for k in (0, -60, 30)]


OPERANDS = _operands()
SQUARE = [(name, a) for name, a in OPERANDS
          if a.shape[-1] == a.shape[-2] and not name.startswith("rank")]


def _same(got, want):
    """Bit for bit: dtype, shape and bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, a", OPERANDS, ids=[name for name, _ in OPERANDS])
class TestKernelsAreNumpys:
    def test_svd(self, name, a):
        want = np.linalg.svd(a)
        for x in _layouts(a):
            for got, ref in zip(core._lapack_svd(x), want):
                _same(got, ref)

    def test_svdvals(self, name, a):
        want = np.linalg.svd(a, compute_uv=False)
        for x in _layouts(a):
            _same(core._lapack_svdvals(x), want)

    def test_qr(self, name, a):
        q, r = np.linalg.qr(a)
        for x in _layouts(a):
            got_q, got_d = core._lapack_qr(x)
            _same(got_q, q)
            _same(got_d, np.diagonal(r, axis1=-2, axis2=-1).copy())


@pytest.mark.parametrize("name, a", SQUARE, ids=[name for name, _ in SQUARE])
def test_inv(name, a):
    want = np.linalg.inv(a)
    for x in _layouts(a):
        _same(core._lapack_inv(x), want)


def test_only_qr_overwrites_its_operand():
    a = OPERANDS[0][1]
    for kernel in (core._lapack_svd, core._lapack_svdvals, core._lapack_inv):
        x = a.copy()
        kernel(x)
        _same(x, a)


@pytest.mark.parametrize("n", [1, 4])
def test_qr_of_the_zero_count_stack(n):
    # haar_unitary(n, rng, 0) factors an empty (0, n, n) stack.
    g = np.random.default_rng(241).standard_normal((0, 2, n, n))
    a = g[:, 0] + 1j * g[:, 1]
    q, r = np.linalg.qr(a)
    got_q, got_d = core._lapack_qr(a.copy())
    _same(got_q, q)
    _same(got_d, np.diagonal(r, axis1=-2, axis2=-1).copy())
    assert haar_unitary(n, np.random.default_rng(241), 0).shape == (0, n, n)


def _linalg_error(call):
    with pytest.raises(np.linalg.LinAlgError) as raised:
        call()
    return str(raised.value)


class TestErrorPaths:
    NAN = np.full((3, 3), np.nan, np.complex128)

    def test_svd_of_nan_does_not_converge(self):
        state = np.geterr(), np.geterrcall()
        for kernel, public in ((core._lapack_svd, np.linalg.svd),
                               (core._lapack_svdvals,
                                lambda a: np.linalg.svd(a, compute_uv=False))):
            assert (_linalg_error(lambda: kernel(self.NAN))
                    == _linalg_error(lambda: public(self.NAN)) == "SVD did not converge")
        assert (np.geterr(), np.geterrcall()) == state

    def test_factor_names_the_matrix_as_before(self):
        with pytest.raises(SvdConvergenceError) as raised:
            core._factor(self.NAN)
        numpys = _linalg_error(lambda: np.linalg.svd(self.NAN))
        assert str(raised.value) == f"SVD did not converge for a 3x3 matrix: {numpys}"
        assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)

    def test_singular_inverse(self):
        zero = np.zeros((3, 3), np.complex128)
        assert (_linalg_error(lambda: core._lapack_inv(zero))
                == _linalg_error(lambda: np.linalg.inv(zero)) == "Singular matrix")


KERNELS = {"_lapack_svd", "_lapack_svdvals", "_lapack_qr", "_lapack_inv"}


def test_one_lapack_boundary():
    # No module but core calls numpy's svd, qr or inv or reads its gufuncs, and
    # inside core only the kernels do, beside the import that binds them; each
    # kernel has the one caller the package factors through.
    lapack = re.compile(r"(^|\.)linalg\.(svd|qr|inv)$|_umath_linalg")
    users, callers = set(), {}
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, (ast.Attribute, ast.Name)):
                    names = [ast.unparse(node)]
                else:
                    names = []
                if any(lapack.search(name) for name in names):
                    users.add(where)
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func).rpartition(".")[2]
                    if called in KERNELS:
                        callers.setdefault(called, set()).add(where)
    assert users == {("core.py", "<module>"), *(("core.py", k) for k in KERNELS)}, users
    assert callers == {
        "_lapack_svd": {("core.py", "_factor")},
        "_lapack_svdvals": {("mp_hermitian.py", "_subspace_report")},
        "_lapack_qr": {("core.py", "_haar_columns")},
        "_lapack_inv": {("mp_hermitian.py", "generate_mp_hermitian")},
    }, callers
