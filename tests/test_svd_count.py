"""Each public call, CLI command and fuzz trial factors each input matrix once.

The SVD kernels of ``core``'s LAPACK boundary, ``_lapack_svd`` and
``_lapack_svdvals``, are wrapped to count the factorizations whose
argument is bit-for-bit the input matrix; each slice of a stacked call
counts as one factorization.  SVDs of derived matrices (the
pseudoinverse behind ``classify``'s ``pinv_norm`` cross-check, the
stacked bases of ``mph_subspace_check``) are not counted, except where
a test counts every factorization: ``full_report``, ``evaluate_condition``
and ``mpinv classify``.  An ``isometry`` or ``mph`` fuzz trial factors
each matrix it draws once, through one ``isometry._Analysis``; a draw
bit-equal to its adjoint or to a power is skipped, as the trial checks
those as matrices of their own.  ``mpinv classify`` computes each
structure residual once, and ``mpinv conorm`` computes neither.
"""

import functools
from collections import Counter

import numpy as np
import pytest

from mpinv import (
    ConditionId,
    adjoint,
    classify,
    conorm,
    evaluate_condition,
    full_report,
    generate_mp_hermitian,
    generate_regular,
    is_mp_hermitian,
    is_partial_isometry,
    mph_decompose,
    mph_subspace_check,
    norm_conorm_check,
    run_trial,
    save_matrix,
)
from mpinv import core, harness, isometry
from mpinv.cli import main
from mpinv.isometry import CONORM_UNDEFINED

REGULAR = generate_regular(5, 5, 3, seed=2)
MPH = generate_mp_hermitian(5, 3, 2)
HERMITIAN = np.diag([1.0, -1.0, 0.0, 2.0]).astype(complex)


@pytest.fixture
def svd_calls_on(monkeypatch):
    """``count(a)`` is the number of factorizations of ``a`` since the fixture
    started, ``count()`` the number of all factorizations; an ``(N, m, n)``
    stack is N of them."""
    seen = []

    def counting(real):
        def kernel(m):
            m = np.array(m, copy=True)
            seen.extend(m if m.ndim == 3 else [m])
            return real(m)
        return kernel

    for name in ("_lapack_svd", "_lapack_svdvals"):
        monkeypatch.setattr(core, name, counting(getattr(core, name)))

    def count(a=None):
        if a is None:
            return len(seen)
        a = np.asarray(a, dtype=np.complex128)
        return sum(1 for m in seen if m.shape == a.shape and np.array_equal(m, a))

    return count


@pytest.mark.parametrize(
    "func, a",
    [(classify, REGULAR), (norm_conorm_check, REGULAR), (mph_decompose, MPH),
     (is_mp_hermitian, MPH), (mph_subspace_check, MPH), (is_partial_isometry, REGULAR),
     (conorm, REGULAR)],
    ids=["classify", "norm_conorm_check", "mph_decompose", "is_mp_hermitian",
         "mph_subspace_check", "is_partial_isometry", "conorm"],
)
def test_library_call_factors_input_once(svd_calls_on, func, a):
    func(a)
    assert svd_calls_on(a) == 1


def test_full_report_runs_three_svds(svd_calls_on):
    # pinv of a, b and ab; q^+ and r^+ have closed forms.
    full_report(REGULAR, MPH)
    assert svd_calls_on() == 3


@pytest.mark.parametrize("command, a", [
    ("conorm", REGULAR),
    ("decompose", MPH),
    ("classify", REGULAR),
    ("classify", HERMITIAN),  # hermitian, so normal_mph_check reads a^+ too
])
def test_cli_command_factors_input_once(svd_calls_on, tmp_path, capsys, command, a):
    path = tmp_path / "a.json"
    save_matrix(a, path)
    assert main([command, "--in", str(path)]) == 0
    capsys.readouterr()
    assert svd_calls_on(a) == 1


@pytest.fixture
def residual_calls(monkeypatch):
    """The number of times each structure residual was computed since the fixture
    started.  ``isometry._Analysis`` computes both, so the tap replaces its two
    cached properties; the counts keep the public functions' names."""
    calls = Counter()
    for attr, name in (("hermitian", "hermitian_residual"),
                       ("normality", "normality_residual")):
        real = getattr(isometry._Analysis, attr).func
        tap = functools.cached_property(
            lambda self, name=name, real=real: calls.update([name]) or real(self))
        tap.__set_name__(isometry._Analysis, attr)
        monkeypatch.setattr(isometry._Analysis, attr, tap)
    return calls


def test_residual_tap_sees_each_computation(residual_calls):
    # A public call computes its residual once; an analysis read twice, once.
    isometry.hermitian_residual(HERMITIAN)
    isometry.normality_residual(REGULAR)
    assert residual_calls == {"hermitian_residual": 1, "normality_residual": 1}
    analysis = isometry._Analysis(HERMITIAN, isometry.DEFAULT_TOL)
    analysis.normal_mph(), analysis.classification()  # each reads both residuals
    assert residual_calls == {"hermitian_residual": 2, "normality_residual": 2}


@pytest.mark.parametrize("a", [REGULAR, MPH, HERMITIAN], ids=["regular", "mph", "hermitian"])
def test_cli_classify_runs_three_svds_and_each_residual_once(svd_calls_on, residual_calls,
                                                             tmp_path, capsys, a):
    # pinv(a), operator_norm(a^+) and the sigma of [col | null] for direct_sum.
    path = tmp_path / "a.json"
    save_matrix(a, path)
    assert main(["classify", "--in", str(path)]) == 0
    capsys.readouterr()
    assert svd_calls_on() == 3
    assert residual_calls == {"hermitian_residual": 1, "normality_residual": 1}


def test_cli_conorm_runs_neither_residual(residual_calls, tmp_path, capsys):
    # It reports the conorm, sigma[0] and ||a^+|| only.
    path = tmp_path / "a.json"
    save_matrix(HERMITIAN, path)
    assert main(["conorm", "--in", str(path)]) == 0
    capsys.readouterr()
    assert residual_calls == {}


@pytest.fixture
def drawn(monkeypatch):
    """The matrices each fuzz trial draws, in draw order: the isometry input
    and the mph suite's MPH ``a`` and regular ``b``."""
    seen = []

    def recording(real, pick):
        def record(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(pick(out))
            return out
        return record

    monkeypatch.setattr(harness, "_draw", recording(harness._draw, lambda out: out[0]))
    for name in ("generate_mp_hermitian", "generate_regular"):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name), lambda m: m))
    return seen


def _repeated_by_the_trial(m):
    """True if ``m`` is bit-equal to its adjoint or to a power up to m^5 (the
    zero matrix, say)."""
    power, others = m, [adjoint(m)]
    for _ in range(4):
        power = power @ m
        others.append(power)
    return any(np.array_equal(m, other) for other in others)


@pytest.mark.parametrize("suite", ["isometry", "mph"])
def test_fuzz_trial_factors_each_drawn_matrix_once(svd_calls_on, drawn, suite):
    for i in range(100):
        assert run_trial(suite, 3, i, 8) == []
    counts = [svd_calls_on(m) for m in drawn if not _repeated_by_the_trial(m)]
    assert len(counts) >= 100 and set(counts) == {1}


@pytest.mark.parametrize("condition, factorizations", [
    (ConditionId.G3, 2),  # reads neither ab nor ab^+: a and b only
    (ConditionId.G1, 3),  # (ab)^+ = b^+ a^+ needs ab too
])
def test_evaluate_condition_factors_only_what_its_row_reads(svd_calls_on, condition,
                                                            factorizations):
    evaluate_condition(REGULAR, MPH, condition)
    assert svd_calls_on() == factorizations


def test_cli_conorm_of_zero_refuses_in_one_line_after_one_svd(svd_calls_on, tmp_path,
                                                              capsys):
    a = np.zeros((2, 3), dtype=complex)
    path = tmp_path / "a.json"
    save_matrix(a, path)
    assert main(["conorm", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {CONORM_UNDEFINED}\n"
    assert svd_calls_on(a) == 1
