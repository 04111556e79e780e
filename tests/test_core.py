"""Tests for the matrix substrate: adjoint, SVD, rank, norms, comparison."""

import ast
import dataclasses
import importlib
import itertools
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction

from mpinv import (
    EPS,
    FuzzReport,
    PenroseResidualError,
    SvdFactorization,
    Tolerance,
    adjoint,
    algebraic_mph_check,
    annihilator_spectrum_check,
    approx_eq,
    as_matrix,
    frobenius_norm,
    generate_mp_hermitian,
    generate_regular,
    haar_unitary,
    hermitian_residual,
    is_mp_hermitian,
    matrix_with_singular_values,
    mph_decompose,
    mph_subspace_check,
    normal_mph_check,
    normality_residual,
    numerical_rank,
    operator_norm,
    pinv,
    pinv_matrix,
    run_trial,
    svd,
)
from mpinv import core
from mpinv.core import (SvdConvergenceError, _check_order, _check_unitary, _scaled,
                        _scaled_array, _verify, distance, frobenius_norms, ratio, residual,
                        residual_scale)

SRC = Path(__file__).resolve().parents[1] / "src" / "mpinv"


def exact_rank_fractions(int_matrix):
    """Oracle: rank over the rationals by Gaussian elimination."""
    rows = [[Fraction(int(v)) for v in row] for row in int_matrix]
    rank = 0
    col = 0
    n_rows, n_cols = len(rows), len(rows[0])
    while rank < n_rows and col < n_cols:
        pivot = next((i for i in range(rank, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n_rows):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def sigma_max_2x2_charpoly(a):
    """Oracle: largest singular value of a 2x2 via the characteristic
    polynomial of the hermitian Gram matrix a* a."""
    g = adjoint(a) @ a
    tr = g[0, 0].real + g[1, 1].real
    det = (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
    lam_max = (tr + np.sqrt(tr * tr - 4.0 * det)) / 2.0
    return float(np.sqrt(lam_max))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        eye = np.eye(2, dtype=complex)
        assert np.array_equal(adjoint(eye), eye)

    def test_scalar_conjugation(self):
        assert np.array_equal(adjoint(np.array([[1j]])), np.array([[-1j]]))

    def test_conjugate_transpose(self):
        a = np.array([[1 + 1j, 2], [0, 3 - 1j]])
        expected = np.array([[1 - 1j, 0], [2, 3 + 1j]])
        assert np.array_equal(adjoint(a), expected)

    def test_involution_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, n = rng.integers(1, 9, size=2)
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            assert np.array_equal(adjoint(adjoint(a)), a)

    def test_product_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m, k, n = rng.integers(1, 17, size=3)
            x = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
            y = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            lhs = adjoint(x @ y)
            rhs = adjoint(y) @ adjoint(x)
            assert frobenius_norm(lhs - rhs) <= 1e-12 * max(1.0, frobenius_norm(lhs))


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[complex(0, np.inf)]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix([1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="positive"):
            as_matrix(np.zeros((0, 3)))

    def test_stack_only_when_asked(self):
        with pytest.raises(ValueError, match="must be 2-D, got ndim=3"):
            as_matrix(np.zeros((2, 2, 2)))
        assert as_matrix(np.ones((2, 2, 2)), stack=True).shape == (2, 2, 2)
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(np.full((2, 2, 2), np.inf), stack=True)


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 2.0]))
        assert np.allclose(f.sigma, [3.0, 2.0])

    def test_zero_matrix(self):
        f = svd(np.zeros((2, 3)))
        assert np.array_equal(f.sigma, [0.0, 0.0])

    def test_nilpotent_shift(self):
        f = svd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(f.sigma, [1.0, 0.0], atol=1e-15)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        f1, f2 = svd(a), svd(a)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)

    def test_invariants_random_sweep(self):
        # Unitarity, reconstruction, and ordering over a large random
        # corpus of complex Gaussian matrices up to 32x32.
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            m, n = rng.integers(1, 33, size=2)
            a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
            f = svd(a)
            assert frobenius_norm(adjoint(f.u) @ f.u - np.eye(m)) <= 1e-12 * m
            assert frobenius_norm(adjoint(f.v) @ f.v - np.eye(n)) <= 1e-12 * n
            assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
            err = frobenius_norm(f.reconstruct() - a)
            assert err <= 1e-12 * max(1.0, frobenius_norm(a))

    def test_factorization_validation(self):
        with pytest.raises(ValueError, match="unitary"):
            _check_unitary(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex),
                           np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="non-increasing"):
            _check_order(np.array([0.5, 1.0]))

    # Explicit ids, so that each case keeps the name test records know it by.
    @pytest.mark.parametrize("u, sigma, v, match", [
        pytest.param(np.eye(2), [1.0, -0.5], np.eye(2), "non-negative",
                     id="u4-sigma4-v4-non-negative"),
        pytest.param(np.eye(2), [1.0, 0.5], np.array([[1.0, 1e-6], [0.0, 1.0]]),
                     "v is not unitary", id="u5-sigma5-v5-v is not unitary"),
    ])
    def test_each_validation_branch_fires(self, u, sigma, v, match):
        # With test_factorization_validation, every ValueError branch of the
        # factor checks, run in the order _factor and _verify run them.
        with pytest.raises(ValueError, match=match):
            _check_order(np.array(sigma))
            _check_unitary(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex))

    def test_sigma_predicates_match_diff_reference(self):
        # The ordering test reads sigma[1:] > sigma[:-1] in place of
        # np.diff(sigma) > 0; both pass NaN and agree on inf, -0.0 and
        # subnormals.
        specials = [0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, np.inf, np.nan, -1.0]
        rng = np.random.default_rng(137)
        for _ in range(400):
            sigma = rng.choice(specials, size=3)
            with np.errstate(invalid="ignore"):  # inf - inf in the reference
                expect = bool(np.any(sigma < 0) or np.any(np.diff(sigma) > 0))
            try:
                _check_order(sigma)
                raised = False
            except ValueError:
                raised = True
            assert raised == expect, sigma

    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (64,), (65,), (300,), (1, 5), (2, 8),
                                       (3, 21), (3, 22), (4, 2), (4, 16), (6, 8), (64, 48)])
    def test_order_check_matches_diff_reference_on_every_path(self, shape):
        # Up to 64 values in at most 3 rows, sigma is decided from one tolist,
        # any other in numpy; both agree with np.diff along each row, on
        # vectors and stacks on each side of that crossover, on ordered rows
        # (the list path's pass) and on rows with specials in random places.
        specials = [0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, np.inf, -np.inf, np.nan, -1.0, 1e308]
        rng = np.random.default_rng(157)
        for trial in range(120):
            sigma = -np.sort(-rng.random(shape) * 10.0 ** rng.integers(-300, 300), axis=-1)
            if trial % 4 == 1:
                sigma = rng.choice(specials, size=shape)
            elif trial % 4 > 1:
                k = int(rng.integers(1, 4))
                sigma[tuple(rng.integers(0, d, size=k) for d in shape)] = rng.choice(specials, k)
            if trial % 8 == 3:  # an ordered row of specials: inf first, zeros last
                sigma = np.sort(np.abs(np.nan_to_num(sigma, nan=0.0)), axis=-1)[..., ::-1]
            with np.errstate(invalid="ignore"):  # inf - inf in the reference
                expect = bool(np.any(sigma < 0) or np.any(np.diff(sigma, axis=-1) > 0))
            try:
                _check_order(sigma)
                raised = False
            except ValueError:
                raised = True
            assert raised == expect, sigma

    def test_unitarity_threshold_matches_eye_reference(self):
        # ||u* u - I||_F > 1e-12 m, with I subtracted in place, must
        # decide exactly as the version that builds np.eye(m).
        rng = np.random.default_rng(139)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            u = haar_unitary(m, rng)
            u = u + 10.0 ** rng.uniform(-14, -10) * rng.standard_normal((m, m))
            expect = frobenius_norm(adjoint(u) @ u - np.eye(m)) > 1e-12 * m
            try:
                _check_unitary(u, np.eye(m, dtype=complex))
                raised = False
            except ValueError:
                raised = True
            assert raised == expect, m


class TestStackedSvd:
    def test_slices_factor_bit_for_bit_as_alone(self):
        rng = np.random.default_rng(241)
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(1, 9, size=2))
            ms = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                  for _ in range(int(rng.integers(1, 5)))]
            f = svd(np.stack(ms))
            for i, a in enumerate(ms):
                alone = svd(a)
                for name in ("u", "sigma", "v"):
                    x, y = getattr(f[i], name), getattr(alone, name)
                    assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
                assert f[i].reconstruct().tobytes() == alone.reconstruct().tobytes()

    def test_construction_checks_every_slice_in_order(self):
        # svd's checks: the ordering of the whole stack, then each slice's
        # unitarity and reconstruction in turn.
        eye = np.stack([np.eye(2, dtype=complex)] * 3)
        sigma = np.array([[1.0, 0.5], [1.0, 0.5], [0.5, 1.0]])
        a = SvdFactorization(eye, sigma, eye).reconstruct()
        v = eye.copy()
        v[1, 0, 1] = 1e-6
        a[2, 0, 0] += 1.0
        # Slice 1 fails unitarity before slice 2 fails the reconstruction.
        with pytest.raises(ValueError, match="v is not unitary"):
            _verify(a, SvdFactorization(eye, sigma, v))
        with pytest.raises(SvdConvergenceError, match="reconstruction"):
            _verify(a, SvdFactorization(eye, sigma, eye))
        with pytest.raises(ValueError, match="non-increasing"):
            _check_order(sigma)

    def test_slicing_a_checked_stack_does_not_check_again(self, monkeypatch):
        from mpinv import core

        f = svd(np.stack([np.eye(2), np.diag([2.0, 1.0])]))
        checks = []  # the unitarity check forms u* u and v* v
        monkeypatch.setattr(core, "adjoint", lambda w: checks.append(w) or adjoint(w))
        part = f[1]
        assert checks == [] and np.array_equal(part.sigma, [2.0, 1.0])
        with pytest.raises(TypeError, match="stack"):
            part[0]

    def test_one_checking_path(self):
        # A factorization is built by its constructor alone, and the unitarity
        # check runs only inside _verify, the check behind svd.
        callers = set()
        for path in SRC.glob("*.py"):
            source = path.read_text()
            assert "object.__new__" not in source, path.name
            for fn in ast.walk(ast.parse(source)):
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and ast.unparse(node.func) == "_check_unitary"
                    for node in ast.walk(fn)
                ):
                    callers.add((path.name, fn.name))
        assert callers == {("core.py", "_verify")}, callers

    def test_one_analysis_per_matrix(self):
        # Outside core and pinv, a matrix is factored, certified and checked
        # only by the analysis that every isometry and MPH check reads.
        callers = set()
        for path in SRC.glob("*.py"):
            if path.name in ("core.py", "pinv.py"):
                continue
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                        "_factor", "_certified", "_verify"
                    ):
                        callers.add((path.name, getattr(top, "name", "<module>")))
        assert callers == {("isometry.py", "_Analysis")}, callers

    def test_one_identity_compiler(self):
        # Only program's compiler scores an identity table, and each table is
        # compiled once, at import: no function compiles a plan per call.
        # Stacked calls are made by that compiler and by pinv's stacked
        # certificate only, so no module regrows a stacking path beside it.
        # A call is matched by the last part of its dotted name.
        calls = {"_scaled_array": set(), "_Program": set()}
        stacking = {"frobenius_norms", "_stack", "_width"}
        stackers = set()
        for path in SRC.glob("*.py"):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if not isinstance(node, ast.Call):
                        continue
                    name = ast.unparse(node.func).rpartition(".")[2]
                    if name in calls:
                        calls[name].add((path.name, getattr(top, "name", "<module>")))
                    if name in stacking:
                        stackers.add(path.name)
        assert calls == {"_scaled_array": {("program.py", "_Program")},
                         "_Program": {("pinv.py", "<module>"),
                                      ("reverse_order.py", "<module>")}}, calls
        assert stackers == {"pinv.py", "program.py"}, stackers

    def test_core_stays_below_the_compiler(self):
        # The compiler imports core, never the reverse, and its plan's
        # constants live beside it alone.
        imports = [ast.unparse(node) for node in ast.walk(ast.parse((SRC / "core.py").read_text()))
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert imports and not [line for line in imports if "program" in line], imports
        defined = {name: set() for name in ("_ARENA_N", "_WALK_WIDEST")}
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id in defined:
                            defined[target.id].add(path.name)
        assert defined == {"_ARENA_N": {"program.py"}, "_WALK_WIDEST": {"program.py"}}, defined

    def test_one_refusal_order(self):
        # Only slicewise_errors decides what a refused stack raises: no other
        # function of the checking modules catches a refusal to order it itself.
        refusals = {"PenroseResidualError", "SvdConvergenceError", "RuntimeError",
                    "Exception", "BaseException"}
        catchers = set()
        for name in ("core", "pinv", "isometry", "mp_hermitian", "reverse_order"):
            for top in ast.parse((SRC / f"{name}.py").read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.ExceptHandler) and (node.type is None or refusals & {
                            n.attr if isinstance(n, ast.Attribute) else n.id
                            for n in ast.walk(node.type)
                            if isinstance(n, (ast.Attribute, ast.Name))}):
                        catchers.add((name, getattr(top, "name", "<module>")))
        assert catchers == {("core", "slicewise_errors")}, catchers


def _raised(call):
    """The exception ``call`` raises, or None."""
    try:
        with np.errstate(all="ignore"):
            call()
    except Exception as exc:
        return exc
    return None


class TestSlicewiseErrors:
    """A refused stack, given as an array or as nested lists, raises exactly
    what its first failing slice raises alone: type, message and residuals."""

    @staticmethod
    def slices():
        rng = np.random.default_rng(239)
        return {"good": generate_regular(2, 2, 2, seed=rng),
                "refused": matrix_with_singular_values([1.0, 1e-12], (2, 2), rng),
                "overflow": np.diag([5e-324, 5e-324]).astype(complex),
                "nan": np.full((2, 2), np.nan, dtype=complex)}

    @pytest.mark.parametrize("entry", [pinv, is_mp_hermitian])
    @pytest.mark.parametrize("order", [("good", "refused", "overflow"),
                                       ("good", "overflow", "refused"),
                                       ("good", "refused", "nan")])
    def test_stack_raises_its_first_failing_slice_error(self, entry, order):
        slices = self.slices()
        ms = [slices[name] for name in order]
        want = _raised(lambda: entry(ms[1]))
        assert isinstance(want, PenroseResidualError)
        for stack in (np.stack(ms), [m.tolist() for m in ms]):
            got = _raised(lambda: entry(stack))
            assert type(got) is type(want) and str(got) == str(want)
            assert got.residuals == want.residuals

    @pytest.mark.parametrize("entry", [pinv, is_mp_hermitian, svd])
    def test_ragged_list_raises_numpy_error(self, entry):
        ragged = [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]]
        want = _raised(lambda: np.asarray(ragged, dtype=np.complex128))
        got = _raised(lambda: entry(ragged))
        assert type(got) is type(want) is ValueError and str(got) == str(want)


class TestFrobeniusNorm:
    @staticmethod
    def cases():
        rng = np.random.default_rng(131)
        z = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        yield "c_order", z
        yield "f_order", np.asfortranarray(z)
        yield "strided", z[::2, 1::2]
        yield "adjoint", adjoint(z)
        yield "real", z.real.copy()
        yield "real_view", z.imag
        yield "real_f_order", np.asfortranarray(z.real)
        yield "int", rng.integers(-9, 10, size=(4, 3))
        yield "one_by_one", np.array([[3.0 - 4.0j]])
        yield "one_by_one_real", np.array([[-2.5]])
        yield "zero", np.zeros((3, 2), dtype=complex)
        yield "overflow", np.full((3, 3), 1e200 + 1e200j)
        yield "overflow_real", np.full((2, 2), 1e300)
        yield "nan", np.array([[1.0, np.nan], [0.0, 2.0j]])
        yield "nan_real", np.array([[np.nan, 1.0]])
        yield "inf", np.array([[np.inf, 1.0j]])
        yield "complex64", z.astype(np.complex64)
        yield "float32", z.real.astype(np.float32)
        yield "list", [[1.0, 2.0], [3.0, 4.0]]

    def test_bit_identical_to_numpy_norm(self):
        for name, m in self.cases():
            with np.errstate(over="ignore"):
                got, want = frobenius_norm(m), float(np.linalg.norm(m))
            assert type(got) is float, name
            assert struct.pack("<d", got) == struct.pack("<d", want), (name, got, want)

    def test_adjoint_has_the_same_norm_bit_for_bit(self):
        # isometry._Analysis decides a^+ = a* on ||a||_F, for any layout of a.
        rng = np.random.default_rng(137)
        for _ in range(200):
            rows, cols = (int(v) for v in rng.integers(1, 10, size=2))
            z = rng.standard_normal((2 * rows, 2 * cols)) + 1j * rng.standard_normal(
                (2 * rows, 2 * cols))
            for m in (z, np.asfortranarray(z), z[::2, 1::2], z.T, z[1::2, ::2].T):
                assert frobenius_norm(adjoint(m)) == frobenius_norm(m)

    def test_overflow_and_nan_reach_the_caller(self):
        with np.errstate(over="ignore"):
            assert frobenius_norm(np.full((2, 2), 1e200)) == np.inf
        assert np.isnan(frobenius_norm(np.array([[np.nan]], dtype=complex)))


class TestFrobeniusNorms:
    @staticmethod
    def stacks():
        rng = np.random.default_rng(139)
        for rows in range(1, 65):
            cols = int(rng.integers(1, 65))
            z = rng.standard_normal((4, rows, cols)) + 1j * rng.standard_normal((4, rows, cols))
            z[1] *= 1e154  # the squares overflow: inf
            z[2, 0, -1] = np.nan
            yield "c_order", z
            yield "f_order", adjoint(z)
            yield "fortran_batch_of_one", np.asfortranarray(z[3])[None]
            yield "strided", z[:, ::2, ::-1]
        yield "one_by_one", np.array([[[3.0 - 4.0j]], [[1e154 + 0j]]])

    @staticmethod
    def same(x, y):
        return struct.pack("<d", x) == struct.pack("<d", y) or math.isnan(x) and math.isnan(y)

    def test_each_slice_is_frobenius_norm_bit_for_bit(self):
        seen = []
        for name, stack in self.stacks():
            with np.errstate(over="ignore", invalid="ignore"):
                got = frobenius_norms(stack)
                want = [frobenius_norm(m) for m in stack]
            assert all(type(v) is float for v in got), name
            assert len(got) == len(want) and all(map(self.same, got, want)), (name, stack.shape)
            seen += got
        assert any(map(math.isinf, seen)) and any(map(math.isnan, seen))

    def test_every_stack_kind_is_read_bit_for_bit(self, monkeypatch):
        # The certificate's shapes of a stack of m-by-n matrices, C- and
        # F-ordered, strided and of one slice, with overflowing and NaN
        # slices, one call each: a stack of C- or F-ordered slices is one
        # stacked call, and a slice alone (36 KiB at 48-by-48) is never copied.
        stacked, real = [], core._dot_norms
        monkeypatch.setattr(core, "_dot_norms", lambda x: stacked.append(x) or real(x))
        rng = np.random.default_rng(149)

        def z(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for m, n in ((2, 3), (3, 1), (1, 1), (5, 5), (12, 12), (20, 20), (7, 4), (48, 48)):
            stacks = [z(3, m, n), adjoint(z(3, m, n)), z(3, m, m), z(2, n, 2 * n)[:, :, ::2],
                      z(1, m, n), np.asfortranarray(z(n, m)), z(3, n, m), z(2, n, m)]
            stacks[0][1] *= 1e154  # the squares overflow: inf
            stacks[2][0, 0, -1] = np.nan
            for stack in stacks:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = frobenius_norms(stack)
                    want = [frobenius_norm(s) for s in (stack if stack.ndim == 3 else [stack])]
                assert len(got) == len(want) and all(map(self.same, got, want)), (m, n, stack.shape)
                assert all(type(v) is float for v in got)
        assert stacked and all(len(x) > 1 for x in stacked)

    def test_a_matrix_is_a_batch_of_one(self):
        z = np.asfortranarray(np.arange(12.0).reshape(3, 4) * (1 + 2j))
        assert frobenius_norms(z) == [frobenius_norm(z)] == frobenius_norms(z[None])


class TestNumericalRank:
    def test_exact_zero_tail(self):
        assert numerical_rank(svd(np.diag([3.0, 2.0, 0.0]))) == 2

    @pytest.mark.parametrize("shape", [(3, 1, 1), (2, 3, 3)])
    def test_stack_factorization_is_refused_in_one_line(self, shape):
        f = svd(np.ones(shape))
        with pytest.raises(ValueError, match=r"^a stack's factorization f has one rank per "
                                             r"slice; index it as f\[i\]$"):
            numerical_rank(f)
        assert [numerical_rank(f[i]) for i in range(shape[0])] == [1] * shape[0]

    def test_zero_matrix(self):
        assert numerical_rank(svd(np.zeros((2, 2)))) == 0

    def test_tiny_singular_value_below_cutoff(self):
        assert numerical_rank(svd(np.diag([1.0, 1e-18]))) == 1

    def test_against_exact_rational_rank(self):
        # Integer fixtures with rank known by exact elimination.
        rng = np.random.default_rng(5)
        for _ in range(60):
            m, n = rng.integers(1, 9, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            left = rng.integers(-3, 4, size=(m, r))
            right = rng.integers(-3, 4, size=(r, n))
            fixture = left @ right if r else np.zeros((m, n), dtype=int)
            assert numerical_rank(svd(fixture.astype(complex))) == exact_rank_fractions(fixture)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            m, n = rng.integers(1, 9, size=2)
            r = int(rng.integers(0, min(m, n) + 1))
            sv = rng.uniform(0.5, 2.0, size=r)
            a = np.zeros((m, n), dtype=complex)
            if r:
                a = (haar_unitary(m, rng)[:, :r] * sv) @ adjoint(haar_unitary(n, rng)[:, :r])
            before = numerical_rank(svd(a))
            rotated = haar_unitary(m, rng) @ a @ haar_unitary(n, rng)
            assert numerical_rank(svd(rotated)) == before == r

    def test_rank_tol_factor(self):
        f = svd(np.diag([1.0, 1e-13]))
        assert numerical_rank(f, Tolerance(rank_tol_factor=1.0)) == 2
        assert numerical_rank(f, Tolerance(rank_tol_factor=1e4)) == 1


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 2.0, 0.0])) == pytest.approx(3.0, abs=1e-14)

    def test_unitary(self):
        q = haar_unitary(2, np.random.default_rng(1))
        assert operator_norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_against_charpoly_oracle(self):
        a = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
        got = operator_norm(a)
        assert 1.6 < got < 1.7
        assert got == pytest.approx(sigma_max_2x2_charpoly(a), abs=1e-12)

    def test_random_2x2_against_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert operator_norm(a) == pytest.approx(sigma_max_2x2_charpoly(a), rel=1e-12)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            m, n = rng.integers(1, 17, size=2)
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            assert operator_norm(adjoint(a)) == pytest.approx(operator_norm(a), rel=1e-12)


class TestApproxEq:
    def test_identity(self):
        assert approx_eq(np.eye(3), np.eye(3))

    def test_below_threshold(self):
        eye = np.eye(3)
        assert approx_eq(eye, eye + 1e-15 * np.ones((3, 3)))

    def test_not_equal(self):
        assert not approx_eq(np.eye(3), 2 * np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            approx_eq(np.eye(2), np.eye(3))

    def test_scale_relative(self):
        big = 1e12 * np.eye(2)
        assert approx_eq(big, big + 1.0)  # 1e-12 relative perturbation


class TestResidualRule:
    def test_scale_is_largest_norm_floored_at_one(self):
        assert residual_scale() == 1.0
        assert residual_scale(0.0, 0.25) == 1.0
        assert residual_scale(3.0, 0.5, 7.0) == 7.0

    def test_residual_is_relative_above_one_absolute_below(self):
        d = np.array([[3.0, 4.0]])
        assert residual(d) == 5.0
        assert residual(d, 0.1, 0.2) == 5.0
        assert residual(d, 10.0, 2.5) == 0.5

    def test_distance_uses_both_norms(self):
        x = 8.0 * np.eye(2)
        y = np.zeros((2, 2))
        assert distance(x, y) == 1.0
        assert distance(y, x) == 1.0
        assert distance(1e-3 * x, y) == frobenius_norm(1e-3 * x)

    def test_distance_agrees_with_approx_eq_away_from_threshold(self):
        big = 1e12 * np.eye(2)
        for x, y in ((big, big + 1.0), (np.eye(3), 2 * np.eye(3))):
            assert (distance(x, y) <= Tolerance().eq_tol) == approx_eq(x, y)

    def test_non_finite_norm_fails_closed(self):
        # diag(1e200, 1e200) overflows frobenius_norm; an infinite scale
        # must not turn its residuals into 0.
        big = np.diag([1e200, 1e200]).astype(complex)
        with np.errstate(all="ignore"):
            assert residual(np.ones((2, 2)), frobenius_norm(big)) == np.inf
            assert residual(np.zeros((2, 2)), np.inf * 0.0) == np.inf
            assert distance(big, big) == np.inf
            assert not approx_eq(big, big)

    def test_floor_lives_only_in_core(self):
        # The scalar floor max((1.0, ...)) and the array floor np.maximum(..., 1.0),
        # also when spelled np.fmax(1.0, s) or _max((1.0, ...)).
        floors = (re.compile(r"max\(\(?1\.0\b"), re.compile(r"(?:maximum|fmax)\(.*\b1\.0\b"))
        counts = {p.name: [len(f.findall(p.read_text())) for f in floors] for p in SRC.glob("*.py")}
        assert counts.pop("core.py") == [1, 1]  # residual_scale and _scaled_array
        assert not any(map(any, counts.values())), counts

    def test_array_rule_is_the_scalar_rule_bit_for_bit(self):
        with np.errstate(over="ignore"):
            values = [0.0, 5e-324, 0.5, 1.0, 1.5, 1e300, 1e300 * 1e300, math.inf, math.nan,
                      3e-200 * 7e-200, 3.0 * 7e300 * 1e10]
        d, s1, s2 = np.array(list(itertools.product(values, repeat=3))).T
        got = _scaled_array(d, s1, s2)
        assert [v.hex() for v in got.tolist()] == [
            _scaled(*args).hex() for args in zip(d.tolist(), s1.tolist(), s2.tolist())]
        # A missing side reads 1.0.
        assert [v.hex() for v in _scaled_array(d, s1, np.ones_like(d)).tolist()] == [
            _scaled(*args).hex() for args in zip(d.tolist(), s1.tolist())]

    def test_array_rule_fast_path_is_the_scalar_rule_bit_for_bit(self):
        # When every element is finite, _scaled_array skips the mask; finite
        # values whose sums or products overflow take that path too.  A -inf or
        # NaN anywhere, or +inf, takes the masked path.  Neither path warns.
        rng = np.random.default_rng(163)
        finite = [rng.uniform(0, 3, (3, 40)), 10.0 ** rng.uniform(-320, 308, (3, 40)),
                  np.full((3, 7), 1.7e308), np.array([[0.0, 5e-324, 1e308], [1e308] * 3,
                                                      [1e-310, 1.0, 1.5]])]
        cases = [*finite]
        for bad in (-math.inf, math.nan, math.inf):
            for row in range(3):  # d, then each side
                for x in finite:
                    x = x.copy()
                    x[row, int(rng.integers(0, x.shape[1]))] = bad
                    cases.append(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, s1, s2 in cases:
                got = _scaled_array(d, s1, s2)
                assert [v.hex() for v in got.tolist()] == [
                    _scaled(*args).hex() for args in zip(d.tolist(), s1.tolist(), s2.tolist())]

    def test_ratio_is_plain_division_on_finite_values(self):
        rng = np.random.default_rng(17)
        pairs = [(0.0, 1.0), (5.0, 1.0), (1e-300, 1e300), (1e300, 1e-300)]
        pairs += zip(rng.uniform(0, 1e3, 50).tolist(), rng.uniform(1, 1e3, 50).tolist())
        for d, scale in pairs:
            assert ratio(d, scale).hex() == (d / scale).hex()

    @pytest.mark.parametrize(
        "d, scale",
        [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
         (0.0, math.inf), (math.inf, math.inf)],
    )
    def test_ratio_fails_closed(self, d, scale):
        assert ratio(d, scale) == math.inf


SQUARE_ONLY = (
    hermitian_residual,
    normality_residual,
    normal_mph_check,
    is_mp_hermitian,
    algebraic_mph_check,
    annihilator_spectrum_check,
    mph_subspace_check,
    mph_decompose,
)


class TestSquareRule:
    @pytest.mark.parametrize("check", SQUARE_ONLY, ids=lambda f: f.__name__)
    def test_non_square_input_is_refused_in_one_wording(self, check):
        with pytest.raises(ValueError) as info:
            check(np.ones((2, 3)))
        assert str(info.value) == "a must be square, got shape (2, 3)"

    def test_square_rule_lives_only_in_core(self):
        # core.as_square is the one place that refuses a non-square input.
        raisers = {}
        for path in SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"
                    and "square" in ast.unparse(node.exc)
                ):
                    raisers.setdefault(path.name, []).append(node.lineno)
        assert "core.py" in raisers
        assert set(raisers) == {"core.py"}, raisers


def test_no_module_runs_code_built_from_text():
    # Every program in the package is written out in its source: none is
    # generated as text and run through exec, eval or compile.
    calls = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert calls == [], calls


class TestPlanChoice:
    def test_each_shipped_program_takes_its_plan(self, monkeypatch):
        # On square leaves that the arena holds, the twelve formulations
        # (widest level 8), the reverse-order catalog (18) and each condition
        # of widest 4 run in the arena, whose norms are frobenius_norms calls;
        # a program of one formulation or condition of widest 1 or 2 walks.
        pinv_module = importlib.import_module("mpinv.pinv")
        ro = importlib.import_module("mpinv.reverse_order")
        stacked = []
        real = core.frobenius_norms
        monkeypatch.setattr(core, "frobenius_norms", lambda *s: stacked.append(1) or real(*s))
        rng = np.random.default_rng(5)
        a, b = generate_regular(4, 4, 3, seed=rng), generate_regular(4, 4, 4, seed=rng)
        x, w = pinv_matrix(a), ro._Workspace(a, b, Tolerance())
        programs = {"formulations": pinv_module._PROGRAM, "catalog": ro._PROGRAM,
                    **{f.value: p for f, p in pinv_module._ONE_PROGRAMS.items()},
                    **{c.value: p for c, p in ro._ROW_PROGRAMS.items()}}
        arena, widest = set(), {}
        for name, program in programs.items():
            stacked.clear()
            if "x" in program.leaves:
                pinv_module._formulation_residuals(a, x, program)
            else:
                program.run(*w.operands(program))
            if stacked:
                arena.add(name)
            else:
                widest[program.widest] = widest.get(program.widest, 0) + 1
        assert arena == {"formulations", "catalog", *(
            c.value for c, p in ro._ROW_PROGRAMS.items() if p.widest == 4)}
        assert len(arena) == 16 and widest == {1: 7, 2: 10}
        assert core._width(4) >= ro._PROGRAM.widest

    def test_arena_gathers_only_through_take(self):
        # Inside _Program.run the arena is subscripted with basic slices
        # only: every gather of its operands is an arena.take call.
        run = next(node for node in ast.walk(ast.parse((SRC / "program.py").read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == "run")
        subscripts = [node for node in ast.walk(run) if isinstance(node, ast.Subscript)
                      and ast.unparse(node.value) == "arena"]
        assert subscripts and all(isinstance(node.slice, ast.Slice) for node in subscripts), [
            ast.unparse(node) for node in subscripts]
        assert any(isinstance(node, ast.Call) and ast.unparse(node.func) == "arena.take"
                   for node in ast.walk(run))


class TestReportEquality:
    """Answers holding arrays compare by their ``as_dict()`` and are not hashable."""

    @staticmethod
    def _answers():
        tol = Tolerance(eq_tol=6e-16)
        a = generate_regular(4, 3, 2, seed=3)
        m = generate_mp_hermitian(4, 2, seed=8)
        records = run_trial("penrose", 555, 7, 6, tol)
        return {"pinv": (pinv(a), "pinv"), "mph": (mph_decompose(m), "t2"),
                "failure": (records[0], "matrices"),
                "fuzz": (FuzzReport("penrose", 12, records, 0.5), "failures")}

    @pytest.mark.parametrize("kind", ["pinv", "mph", "failure", "fuzz"])
    def test_equal_calls_compare_equal(self, kind):
        (x, _), (y, _) = self._answers()[kind], self._answers()[kind]
        assert x == y and not x != y and x is not y
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)

    @pytest.mark.parametrize("kind", ["pinv", "mph", "failure", "fuzz"])
    def test_one_changed_entry_is_unequal(self, kind):
        x, name = self._answers()[kind]
        if kind == "fuzz":
            first = x.failures[0]
            changed = [dataclasses.replace(first, matrices=_nudged(first.matrices)),
                       *x.failures[1:]]
        else:
            changed = _nudged(getattr(x, name))
        assert x != dataclasses.replace(x, **{name: changed})
        assert x != x.as_dict()


def _nudged(value):
    """A copy of an array, or of a dict of arrays, with its first entry changed."""
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _nudged(value[first])}
    value = value.copy()
    value.flat[0] += 2.0 ** -40
    return value


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.rank_tol_factor == 1.0 and t.eq_tol == 1e-9

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            Tolerance(rank_tol_factor=0.0)

    def test_rejects_sub_eps_eq_tol(self):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=EPS / 10)


class TestHaarUnitary:
    def test_unitarity_and_determinism(self):
        q1 = haar_unitary(8, np.random.default_rng(99))
        q2 = haar_unitary(8, np.random.default_rng(99))
        assert np.array_equal(q1, q2)
        assert frobenius_norm(adjoint(q1) @ q1 - np.eye(8)) <= 1e-13

    @staticmethod
    def one_draw(n, rng):
        """The construction of one unitary, one 2-D QR call each, as a reference."""
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = np.diagonal(r).copy()
        d[d == 0] = 1.0
        return q * (d / np.abs(d))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_stack_is_the_sequential_draws(self, count):
        # Each slice of a stack is bit for bit the unitary that a draw in a
        # row makes, alone or by the reference, and the generator is left in
        # the same state.
        for seed in range(20):
            for n in range(1, 13):
                stacked, alone, ref = (np.random.default_rng([seed, n]) for _ in range(3))
                got = haar_unitary(n, stacked, count)
                want = [haar_unitary(n, alone) for _ in range(count)]
                assert got.shape == (count, n, n)
                assert [q.tobytes() for q in got] == [q.tobytes() for q in want]
                assert want[0].shape == (n, n) and want[0].flags.c_contiguous
                assert [q.tobytes() for q in want] == [
                    self.one_draw(n, ref).tobytes() for _ in range(count)]
                assert (stacked.bit_generator.state == alone.bit_generator.state
                        == ref.bit_generator.state)

    GUARD = core._THIN_HAAR_MAX_N

    @pytest.mark.parametrize("n", [GUARD, GUARD + 1])
    @pytest.mark.parametrize("count", [None, 2, 3])
    def test_columns_are_the_unitarys_leading_columns(self, n, count):
        # Factoring only the columns read changes none of their bits, nor the
        # generator state, at the bound and one past it.
        for k in (1, 32, 33, n - 1):
            cols, full = (np.random.default_rng([n, k]) for _ in range(2))
            got = core._haar_columns(n, k, cols, count)
            want = haar_unitary(n, full, count)[..., :k]
            assert got.shape == want.shape == ((n, k) if count is None else (count, n, k))
            assert got.tobytes() == want.tobytes()
            assert cols.bit_generator.state == full.bit_generator.state

    @pytest.mark.parametrize("draw, shapes", [
        (lambda n: core._haar_columns(n, 5, 0), [(1, GUARD, 5)]),
        (lambda n: core._haar_columns(n, 5, 0, 3), [(3, GUARD, 5)]),
        (lambda n: core._haar_columns(n, n, 0, 2), [(2, GUARD, GUARD)]),
        (lambda n: haar_unitary(n, 0), [(1, GUARD, GUARD)]),
        (lambda n: core._haar_columns(n + 1, 5, 0, 2), [(2, GUARD + 1, GUARD + 1)]),
        (lambda n: matrix_with_singular_values([2.0, 1.0], (n, n), 0), [(2, GUARD, 2)]),
        (lambda n: matrix_with_singular_values([1.0], (17, n + 1), 0),
         [(1, 17, 1), (1, GUARD + 1, GUARD + 1)]),
        (lambda n: generate_mp_hermitian(n, 4, 0), [(2, 4, 4), (1, GUARD, 4)]),
        (lambda n: generate_mp_hermitian(n + 1, 4, 0), [(2, 4, 4), (1, GUARD + 1, GUARD + 1)]),
    ])
    def test_qr_factors_only_the_columns_read(self, monkeypatch, draw, shapes):
        # Below full rank and up to the bound, QR sees only the k columns a
        # generator reads; at full rank or past the bound, the whole square.
        seen, real = [], core._lapack_qr
        monkeypatch.setattr(core, "_lapack_qr", lambda a: seen.append(a.shape) or real(a))
        draw(self.GUARD)
        assert seen == shapes

    def test_zero_count_is_an_empty_stack(self):
        # Zero draws in a row: an empty stack, and the generator untouched.
        rng = np.random.default_rng(241)
        state = rng.bit_generator.state
        got = haar_unitary(4, rng, 0)
        assert got.shape == (0, 4, 4) and got.dtype == np.complex128
        assert rng.bit_generator.state == state
