"""Tests for the pseudoinverse, its residuals, and the formulation catalog."""

import importlib
import math

import numpy as np
import pytest

from mpinv import (
    FormulationId,
    PenroseResidualError,
    PenroseResiduals,
    SvdConvergenceError,
    Tolerance,
    adjoint,
    approx_eq,
    formulation_holds,
    formulation_residual,
    frobenius_norm,
    generate_regular,
    involution_laws_check,
    matrix_with_singular_values,
    numerical_rank,
    operator_norm,
    penrose_residuals,
    pinv,
    pinv_matrix,
    svd,
)
from mpinv import core
from mpinv.core import residual

pinv_module = importlib.import_module("mpinv.pinv")

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

    def test_table_matches_reference_evaluator(self):
        # The compiled table, run on all twelve rows and on one row at a time,
        # is bit for bit the per-equation evaluator it replaced.
        seen, plans = set(), set()
        pairs = list(_formulation_pairs())
        for k, (a, x) in enumerate(pairs):
            with np.errstate(all="ignore"):
                ref = _reference_formulations(a, x)
                got = pinv_module._formulation_residuals(*pinv_module._operands(a, x))
                if k % 5 == 0:
                    assert {f: formulation_residual(a, x, f).hex() for f in FormulationId} == {
                        f: r.hex() for f, r in ref.items()}, (a.shape, a.strides)
            assert list(got) == list(FormulationId)
            assert {f: r.hex() for f, r in got.items()} == {
                f: r.hex() for f, r in ref.items()}, (a.shape, a.strides)
            seen.update(math.inf if r == math.inf else r <= 1e-9 for r in got.values())
            n = a.shape[0]
            plans.add(a.shape == x.shape and n <= 22)  # the arena holds the widest level
        assert len(pairs) >= 2000 and seen == {True, False, math.inf} and plans == {True, False}


# The formulation catalog's per-equation evaluator, kept as the reference:
# the eight equations as functions of (a, x, a*, x*) returning (lhs, rhs), and each
# formulation as the indices of its one or two equations.
_REFERENCE_EQUATIONS = (
    lambda a, x, ah, xh: (a, xh @ ah @ a),
    lambda a, x, ah, xh: (a, a @ ah @ xh),
    lambda a, x, ah, xh: (x, x @ xh @ ah),
    lambda a, x, ah, xh: (x, ah @ xh @ x),
    lambda a, x, ah, xh: (ah, ah @ a @ x),
    lambda a, x, ah, xh: (xh, xh @ x @ a),
    lambda a, x, ah, xh: (ah, x @ a @ ah),
    lambda a, x, ah, xh: (xh, a @ x @ xh),
)
_REFERENCE_ROWS = {
    FormulationId.P21_I: (0,),
    FormulationId.P21_II: (1,),
    FormulationId.P21_III: (2,),
    FormulationId.P21_IV: (3,),
    FormulationId.P22_II: (0, 3),
    FormulationId.P22_III: (1, 2),
    FormulationId.R23_II: (4, 5),
    FormulationId.R23_III: (6, 7),
    FormulationId.P24_II: (6, 2),
    FormulationId.P24_III: (1, 7),
    FormulationId.P24_IV: (4, 3),
    FormulationId.P24_V: (0, 5),
}


def _reference_formulations(a, x):
    """Each formulation's worst residual, scaled by ``||a||_F`` and ``||x||_F``."""
    ah, xh = adjoint(a), adjoint(x)
    na, nx = frobenius_norm(a), frobenius_norm(x)
    res = [residual(lhs - rhs, na, nx) for lhs, rhs in (
        eq(a, x, ah, xh) for eq in _REFERENCE_EQUATIONS)]
    return {f: max((0.0, *map(res.__getitem__, eqs))) for f, eqs in _REFERENCE_ROWS.items()}


def _layout(m, k):
    """``m`` as it is, F-ordered, or with negative strides."""
    return (m, np.asfortranarray(m), np.flip(m).copy()[::-1, ::-1])[k]


def _formulation_pairs():
    """About 2,100 (a, x) pairs: square a with n = 1-22 (the arena) and n =
    23-30 (one instruction at a time), rectangular a up to 22 with dimension 1
    among them, in three layouts, scaled by 2^k, each with x = a^+, (1 + 1e-3) a^+
    and a random matrix."""
    rng = np.random.default_rng(197)
    for i in range(700):
        if i % 25 == 0:
            m = n = 23 + i // 25 % 8
        else:
            m, n = (int(v) for v in rng.integers(1, 23, size=2))
            m = n if i % 2 else m
        a0 = generate_regular(m, n, int(rng.integers(1, min(m, n) + 1)), seed=rng)
        k = (0, 0, 37, -37, 520, -520)[int(rng.integers(0, 6))]
        x0 = 2.0 ** -k * pinv_matrix(a0)
        random = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        for x in (x0, (1.0 + 1e-3) * x0, random):
            yield _layout(2.0 ** k * a0, i % 3), _layout(x, i % 3)


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


def _stack_inputs(rng, count):
    """Equal-shape matrices: zero, 1x1, rank-deficient, 2^k-scaled, and
    condition numbers up to 1e12 (which pinv may refuse)."""
    m, n = (int(v) for v in rng.integers(1, 9, size=2))
    if count % 5 == 0:
        m = n = 1
    ms = []
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            ms.append(np.zeros((m, n), dtype=complex))
        elif kind == 1:
            ms.append(generate_regular(m, n, int(rng.integers(0, min(m, n) + 1)), seed=rng))
        else:
            rank = int(rng.integers(1, min(m, n) + 1))
            sv = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 12), rank)
            scale = 2.0 ** int(rng.integers(-60, 61)) if kind == 3 else 1.0
            ms.append(scale * matrix_with_singular_values(sv, (m, n), rng))
    return ms


def _outcome(call):
    try:
        return call()
    except PenroseResidualError as exc:
        return exc


def _assert_same_result(got, want):
    assert got.rank == want.rank
    for x, y in ((got.pinv, want.pinv), (got.factorization.u, want.factorization.u),
                 (got.factorization.sigma, want.factorization.sigma),
                 (got.factorization.v, want.factorization.v)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert got.residuals == want.residuals
    assert got.residuals.norms == want.residuals.norms


def _layouts(ms):
    """``(stack, its slices)`` for matrices of one shape in four layouts: C order,
    F order (whose slices are neither C- nor F-ordered), every stride negative,
    and nested lists, read as C order."""
    c = np.stack(ms)
    f = np.asfortranarray(c)
    negative = np.stack([m[::-1, ::-1] for m in ms[::-1]])[::-1, ::-1, ::-1]
    return [(c, list(c)), (f, list(f)), (negative, list(negative)),
            ([m.tolist() for m in ms], list(c))]


def _certified_alike(stack, slices):
    """Assert that ``pinv(stack)`` gives each slice's result alone, bit for bit, or
    raises the first refused slice's error and message; return True if it refused."""
    got, want = _outcome(lambda: pinv(stack)), []
    for m in slices:
        want.append(_outcome(lambda: pinv(m)))
        if isinstance(want[-1], Exception):
            assert isinstance(got, PenroseResidualError), got
            assert str(got) == str(want[-1])
            return True
    assert len(got) == len(slices)
    for g, w in zip(got, want):
        _assert_same_result(g, w)
    return False


class TestStackedPinv:
    def test_each_slice_is_bit_identical_to_its_scalar_call(self):
        rng = np.random.default_rng(211)
        refused = certified = 0
        for count in range(300):
            ms = _stack_inputs(rng, count)
            # The stack as given, then as a Fortran-ordered array, whose
            # slices are neither C- nor F-ordered, then as nested lists.
            fstack = np.asfortranarray(np.stack(ms))
            for stack, alone in ((np.stack(ms), ms), (fstack, list(fstack)),
                                 ([m.tolist() for m in ms], ms)):
                got = _outcome(lambda: pinv(stack))
                want = []
                for m in alone:
                    want.append(_outcome(lambda: pinv(m)))
                    if isinstance(want[-1], Exception):
                        break
                if isinstance(want[-1], Exception):
                    # The first refused slice raises its own error and message.
                    assert isinstance(got, PenroseResidualError), got
                    assert str(got) == str(want[-1])
                    refused += 1
                    continue
                assert isinstance(got, list) and len(got) == len(ms)
                for g, w in zip(got, want):
                    _assert_same_result(g, w)
                certified += len(ms)
        assert refused > 10 and certified > 300

    def test_first_failing_slice_raises_its_scalar_error(self):
        rng = np.random.default_rng(223)
        good = generate_regular(3, 3, 3, seed=rng)
        bad = np.full((3, 3), np.nan, dtype=complex)
        refused = matrix_with_singular_values([1.0, 1e-12, 1e-12], (3, 3), rng)
        with pytest.raises(PenroseResidualError) as alone:
            pinv(refused)
        for form in (np.stack, lambda ms: [m.tolist() for m in ms]):
            with pytest.raises(PenroseResidualError) as stacked:
                pinv(form([good, refused, bad]))
            assert str(stacked.value) == str(alone.value)
            with pytest.raises(ValueError, match="^a contains non-finite entries$"):
                pinv(form([good, bad, refused]))

    def test_a_refusal_comes_before_a_later_overflow(self):
        # Slices are certified in order: a slice refused by its residuals
        # raises before a later slice whose pseudoinverse would overflow,
        # and an overflow before a later refusal.
        rng = np.random.default_rng(233)
        good = generate_regular(2, 2, 2, seed=rng)
        refused = matrix_with_singular_values([1.0, 1e-12], (2, 2), rng)
        overflows = np.diag([5e-324, 5e-324]).astype(complex)
        for stack, first in (([good, refused, overflows], refused),
                             ([good, overflows, refused], overflows)):
            with np.errstate(all="ignore"):
                with pytest.raises(PenroseResidualError) as alone:
                    pinv(first)
                with pytest.raises(PenroseResidualError) as stacked:
                    pinv(np.stack(stack))
            assert str(stacked.value) == str(alone.value)

    def test_linalg_error_is_attributed_to_its_slice(self, monkeypatch):
        # LAPACK names no slice; a stack that fails is factored slice by
        # slice, so the refusal of an earlier slice still comes first.
        rng = np.random.default_rng(227)
        good = generate_regular(3, 3, 3, seed=rng)
        diverges = generate_regular(3, 3, 3, seed=rng)
        refused = matrix_with_singular_values([1.0, 1e-12, 1e-12], (3, 3), rng)
        real_svd = core._lapack_svd

        def flaky_svd(m):
            if any(np.array_equal(part, diverges) for part in np.reshape(m, (-1, 3, 3))):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(m)

        monkeypatch.setattr(core, "_lapack_svd", flaky_svd)
        with pytest.raises(SvdConvergenceError, match="^SVD did not converge for a 3x3"):
            pinv(np.stack([good, diverges, refused]))
        with pytest.raises(PenroseResidualError):
            pinv(np.stack([good, refused, diverges]))
        with pytest.raises(SvdConvergenceError):
            svd(np.stack([good, diverges]))

    def test_two_dimensional_input_stays_one_result(self):
        a = generate_regular(3, 2, 2, seed=229)
        result = pinv(a)
        assert not isinstance(result, list) and result.pinv.shape == (2, 3)
        assert result.residuals.norms == (frobenius_norm(a), frobenius_norm(result.pinv))

    def test_one_matrix_shorthands_refuse_a_stack(self):
        for shorthand in (pinv_matrix, operator_norm):
            with pytest.raises(ValueError, match="must be 2-D, got ndim=3"):
                shorthand(np.ones((2, 2, 2)))

    def test_stack_shapes_are_validated(self):
        with pytest.raises(ValueError, match="2-D or 3-D"):
            pinv(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="positive dimensions"):
            pinv(np.zeros((0, 2, 2)))

    @pytest.mark.parametrize("shape, ranks", [
        # Across the certificate's chunks: 28 slices of 12 by 12 fit one, and
        # a slice from n = 46 is a chunk of its own.
        ((12, 12), [int(r) for r in np.random.default_rng(5).integers(0, 13, 30)]),
        ((12, 9), [int(r) for r in np.random.default_rng(6).integers(0, 10, 30)]),
        ((20, 20), [20, 7, 20]), ((48, 48), [48, 48, 13]), ((48, 20), [20, 0, 20]),
        # Runs of equal rank that change mid-stack.
        ((3, 3), [3, 3, 1, 1, 3, 0]), ((4, 3), [3, 3, 1, 1, 3, 0]), ((3, 5), [0, 2, 2, 3]),
        # Shapes where numpy's vector kernels depend on the layout.
        ((1, 1), [1, 0, 1, 1]), ((5, 1), [1, 0, 1, 1]), ((1, 5), [1, 1, 0, 1]),
    ], ids=lambda v: "x".join(map(str, v)) if type(v) is tuple else f"N{len(v)}")
    def test_chunks_rank_runs_and_layouts_are_bit_identical(self, shape, ranks):
        rng = np.random.default_rng(len(ranks) * shape[0] * shape[1])
        ms = [generate_regular(*shape, r, seed=rng) for r in ranks]
        for stack, slices in _layouts(ms):
            assert not _certified_alike(stack, slices)
        if min(shape) > 1:  # a refused last slice, in the last chunk, raises its own message
            ms[-1] = matrix_with_singular_values([1.0] + [1e-12] * (min(shape) - 1), shape, rng)
            for stack, slices in _layouts(ms):
                assert _certified_alike(stack, slices)
