"""Each equation of the formulation catalog and each structure residual is
evaluated once per candidate.

The twelve formulations are built from eight equations.  A ``formulations``
fuzz trial scores the twelve on ``(a, x)`` and on ``(a, x_bad)`` with one
evaluator call each, so each call validates its operands once and evaluates
each of the eight equations once: 16 evaluations and at most 5 ``as_matrix``
calls from ``pinv`` per trial (one for ``pinv(a)``, two per candidate).  A
single ``formulation_residual`` pays for its own one or two equations only.
``isometry._Analysis`` computes the structure residuals from the matrix it
validated, so an ``isometry`` trial validates no matrix again through
``isometry.as_square``.  It decides ``a^+ = a*`` and ``a^+ = a`` by
``approx_eq``'s rule on the norms its Penrose certificate holds, and reads
``||a^+||`` off checked factors of ``a^+``, so no ``isometry`` or ``mph`` trial
and no ``mpinv classify`` or ``mpinv conorm`` request calls ``approx_eq`` or
``operator_norm`` or validates a matrix the analysis built.
"""

import contextlib
import importlib
import io
import pkgutil
from collections import Counter

import numpy as np
import pytest

from mpinv import (FormulationId, formulation_residual, generate_regular, pinv_matrix, run_trial,
                   save_matrix)
import mpinv
from mpinv import core, isometry
from mpinv.cli import main

pinv_module = importlib.import_module("mpinv.pinv")

A = generate_regular(4, 3, 2, seed=5)
X = pinv_matrix(A)


@pytest.fixture
def equations(monkeypatch):
    """The indices into ``pinv._EQUATIONS`` evaluated since the fixture started."""
    seen = []
    monkeypatch.setattr(pinv_module, "_EQUATIONS", tuple(
        lambda *ops, i=i, real=real: seen.append(i) or real(*ops)
        for i, real in enumerate(pinv_module._EQUATIONS)))
    return seen


@pytest.fixture
def validations(monkeypatch):
    """The number of ``as_matrix`` calls made by ``pinv`` since the fixture started."""
    calls = []
    real = pinv_module.as_matrix
    monkeypatch.setattr(pinv_module, "as_matrix",
                        lambda *args, **kwargs: calls.append(args[1:]) or real(*args, **kwargs))
    return calls


def test_formulations_trial_evaluates_each_equation_once_per_candidate(equations,
                                                                       validations):
    for i in range(300):
        del equations[:], validations[:]
        assert run_trial("formulations", 3, i, 8) == []
        assert sorted(equations) == sorted(2 * list(range(8)))
        assert len(validations) <= 5


@pytest.mark.parametrize("fid", list(FormulationId), ids=lambda fid: fid.value)
def test_one_formulation_evaluates_only_its_equations(equations, validations, fid):
    formulation_residual(A, X, fid)
    assert len(equations) == (1 if fid.value.startswith("P21_") else 2)
    assert len(equations) == len(set(equations))
    assert validations == [("a",), ("x",)]


def test_catalog_call_matches_one_formulation_at_a_time():
    rng = np.random.default_rng(11)
    for m, n, r in [(1, 1, 1), (3, 5, 2), (6, 4, 4), (8, 8, 3)]:
        a = generate_regular(m, n, r, seed=rng)
        for x in (pinv_matrix(a), (1.0 + 1e-3) * pinv_matrix(a), rng.normal(size=(n, m))):
            got = pinv_module._formulation_residuals(*pinv_module._operands(a, x))
            want = [formulation_residual(a, x, fid) for fid in FormulationId]
            assert np.array_equal(got, want) and len(got) == 12


def test_operands_are_validated_before_the_formulation_id():
    with pytest.raises(ValueError, match="x must have shape"):
        formulation_residual(np.eye(2), np.eye(3), "no such formulation")
    with pytest.raises(ValueError, match="not a valid FormulationId"):
        formulation_residual(np.eye(2), np.eye(2), "no such formulation")


@pytest.fixture
def square_validations(monkeypatch):
    """The number of ``isometry.as_square`` calls since the fixture started."""
    calls = []
    real = isometry.as_square
    monkeypatch.setattr(isometry, "as_square", lambda *args: calls.append(1) or real(*args))
    return calls


def test_isometry_trial_validates_no_matrix_twice(square_validations):
    for i in range(300):
        assert run_trial("isometry", 3, i, 8) == []
    assert square_validations == []
    # The tap does see a call where one happens.
    isometry.normality_residual(np.eye(3))
    assert square_validations == [1]


MODULES = [importlib.import_module(f"mpinv.{info.name}")
           for info in pkgutil.iter_modules(mpinv.__path__)]


@pytest.fixture
def core_calls(monkeypatch):
    """The number of calls of each of five ``core`` functions since the fixture
    started, from every module, ``core`` included, that binds the function."""
    calls = Counter()
    for name in ("as_matrix", "frobenius_norm", "frobenius_norms", "approx_eq", "operator_norm"):
        real = getattr(core, name)

        def tap(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, tap)
    return calls


@pytest.mark.parametrize("suite, per_trial", [
    # At 300 trials each: as_matrix 24.0 and 9.60, approx_eq 7.0 and 2.36,
    # operator_norm 0 and 0.88 per trial before the analysis decided its own
    # equalities, and frobenius_norm 111.02 per mph trial; frobenius_norm 27.5
    # per isometry trial before norm_conorm read the analysis's ||a^+ - a*||_F
    # (one norm fewer on each of the 263 trials of nonzero rank).  No trial
    # takes a stacked norm: each certificate here is of one matrix.
    ("mph", {"as_matrix": 10.0, "frobenius_norm": 97.02}),
    ("isometry", {"as_matrix": 4.0, "frobenius_norm": 7987 / 300}),  # 26.62
])
def test_analysis_trials_validate_no_matrix_the_analysis_built(core_calls, suite, per_trial):
    for i in range(300):
        assert run_trial(suite, 3, i, 8) == []
    assert {name: count / 300 for name, count in core_calls.items()} == per_trial


@pytest.mark.parametrize("command, counts", [
    # Before: as_matrix 5, frobenius_norm 35, approx_eq 2 and operator_norm 1
    # (classify); as_matrix 1 and operator_norm 1 (conorm).
    ("classify", {"frobenius_norm": 31}),
    ("conorm", {"frobenius_norm": 10}),
])
def test_cli_request_validates_no_matrix(core_calls, tmp_path, command, counts):
    # load_matrix builds its matrix without as_matrix.
    path = tmp_path / "a.json"
    save_matrix(generate_regular(5, 5, 3, seed=2), path)
    core_calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--in", str(path)]) == 0
    assert core_calls == counts


def test_core_call_tap_sees_each_call(core_calls):
    core.approx_eq(np.eye(2), np.eye(2))
    core.operator_norm(np.eye(2))
    # approx_eq takes three norms, and operator_norm's factor checks four.
    assert core_calls == {"approx_eq": 1, "operator_norm": 1, "as_matrix": 3,
                          "frobenius_norm": 3 + 4}
