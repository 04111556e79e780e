"""Each public call factors its input matrix at most once.

``numpy.linalg.svd`` is wrapped to count the factorizations whose
argument is bit-for-bit the input matrix; each slice of a stacked call
counts as one factorization.  SVDs of derived matrices (the
pseudoinverse behind ``classify``'s ``pinv_norm`` cross-check, the
stacked bases of ``mph_subspace_check``) are not counted.  For
``full_report`` every factorization is counted.
"""

import numpy as np
import pytest

from mpinv import (
    ConditionId,
    classify,
    evaluate_condition,
    full_report,
    generate_mp_hermitian,
    generate_regular,
    mph_decompose,
    norm_conorm_check,
    save_matrix,
)
from mpinv.cli import main
from mpinv.isometry import CONORM_UNDEFINED

REGULAR = generate_regular(5, 5, 3, seed=2)
MPH = generate_mp_hermitian(5, 3, 2)


@pytest.fixture
def svd_calls_on(monkeypatch):
    """``count(a)`` is the number of factorizations of ``a`` since the fixture
    started, ``count()`` the number of all factorizations; an ``(N, m, n)``
    stack is N of them."""
    seen = []
    real_svd = np.linalg.svd

    def counting_svd(m, *args, **kwargs):
        m = np.array(m, copy=True)
        seen.extend(m if m.ndim == 3 else [m])
        return real_svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)

    def count(a=None):
        if a is None:
            return len(seen)
        a = np.asarray(a, dtype=np.complex128)
        return sum(1 for m in seen if m.shape == a.shape and np.array_equal(m, a))

    return count


@pytest.mark.parametrize(
    "func, a",
    [(classify, REGULAR), (norm_conorm_check, REGULAR), (mph_decompose, MPH)],
    ids=["classify", "norm_conorm_check", "mph_decompose"],
)
def test_library_call_factors_input_once(svd_calls_on, func, a):
    func(a)
    assert svd_calls_on(a) == 1


def test_full_report_runs_three_svds(svd_calls_on):
    # pinv of a, b and ab; q^+ and r^+ have closed forms.
    full_report(REGULAR, MPH)
    assert svd_calls_on() == 3


@pytest.mark.parametrize("command, a", [("conorm", REGULAR), ("decompose", MPH)])
def test_cli_command_factors_input_once(svd_calls_on, tmp_path, capsys, command, a):
    path = tmp_path / "a.json"
    save_matrix(a, path)
    assert main([command, "--in", str(path)]) == 0
    capsys.readouterr()
    assert svd_calls_on(a) == 1


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
