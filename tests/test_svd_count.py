"""Each public call factors its input matrix at most once.

``numpy.linalg.svd`` is wrapped to count the calls whose argument is
bit-for-bit the input matrix; SVDs of derived matrices (the
pseudoinverse behind ``classify``'s ``pinv_norm`` cross-check, the
stacked bases of ``mph_subspace_check``) are not counted.  For
``full_report`` every SVD is counted.
"""

import numpy as np
import pytest

from mpinv import (
    classify,
    full_report,
    generate_mp_hermitian,
    generate_regular,
    mph_decompose,
    norm_conorm_check,
    save_matrix,
)
from mpinv.cli import main

REGULAR = generate_regular(5, 5, 3, seed=2)
MPH = generate_mp_hermitian(5, 3, 2)


@pytest.fixture
def svd_calls_on(monkeypatch):
    """``count(a)`` is the number of SVDs of ``a`` since the fixture started,
    ``count()`` the number of all SVDs."""
    seen = []
    real_svd = np.linalg.svd

    def counting_svd(m, *args, **kwargs):
        seen.append(np.array(m, copy=True))
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
