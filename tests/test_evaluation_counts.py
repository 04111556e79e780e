"""Each equation of the formulation catalog and each structure residual is
evaluated once per candidate.

The twelve formulations are built from eight equations.  A ``formulations``
fuzz trial scores the twelve on ``(a, x)`` and on ``(a, x_bad)`` with one
run of the compiled table each, so each run validates its operands once and
scores each of the eight equations once: 16 equations and at most 5
``as_matrix`` calls from ``pinv`` per trial (one for ``pinv(a)``, two per
candidate).  A single ``formulation_residual`` runs a one-row table, and
pays for its own one or two equations only.
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

from mpinv import (FormulationId, formulation_residual, generate_regular, pinv, pinv_matrix,
                   run_trial, save_matrix)
import mpinv
from mpinv import core, isometry
from mpinv.cli import main

pinv_module = importlib.import_module("mpinv.pinv")

A = generate_regular(4, 3, 2, seed=5)
X = pinv_matrix(A)


@pytest.fixture
def equations(monkeypatch):
    """The number of equations each run of a compiled table has scored since the
    fixture started: one ``core._scaled_array`` call per run scores each of them."""
    seen = []
    real = core._scaled_array
    monkeypatch.setattr(core, "_scaled_array", lambda d, *sides: seen.append(len(d))
                        or real(d, *sides))
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
        assert equations == [8, 8]
        assert len(validations) <= 5
    # The eight equations are distinct instructions of the compiled table.
    assert sum(op is None for op, *_ in pinv_module._PROGRAM.code) == 8


@pytest.mark.parametrize("fid", list(FormulationId), ids=lambda fid: fid.value)
def test_one_formulation_evaluates_only_its_equations(equations, validations, fid):
    formulation_residual(A, X, fid)
    assert equations == [1 if fid.value.startswith("P21_") else 2]
    assert validations == [("a",), ("x",)]


def test_catalog_call_matches_one_formulation_at_a_time():
    rng = np.random.default_rng(11)
    for m, n, r in [(1, 1, 1), (3, 5, 2), (6, 4, 4), (8, 8, 3)]:
        a = generate_regular(m, n, r, seed=rng)
        for x in (pinv_matrix(a), (1.0 + 1e-3) * pinv_matrix(a), rng.normal(size=(n, m))):
            got = pinv_module._formulation_residuals(*pinv_module._operands(a, x))
            want = {fid: formulation_residual(a, x, fid) for fid in FormulationId}
            assert list(got) == list(FormulationId)
            assert {f: r.hex() for f, r in got.items()} == {f: r.hex() for f, r in want.items()}


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


def _tap(monkeypatch, names) -> Counter:
    """The number of calls of each of the ``core`` functions ``names`` from now on,
    from every module, ``core`` included, that binds the function."""
    calls = Counter()
    for name in names:
        real = getattr(core, name)

        def tap(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, tap)
    return calls


@pytest.fixture
def core_calls(monkeypatch):
    """The number of calls of each of five ``core`` functions since the fixture started."""
    return _tap(monkeypatch,
                ("as_matrix", "frobenius_norm", "frobenius_norms", "approx_eq", "operator_norm"))


@pytest.mark.parametrize("suite, per_trial", [
    # At 300 trials each: as_matrix 24.0 and 9.60, approx_eq 7.0 and 2.36,
    # operator_norm 0 and 0.88 per trial before the analysis decided its own
    # equalities, and frobenius_norm 111.02 per mph trial; frobenius_norm 27.5
    # per isometry trial before norm_conorm read the analysis's ||a^+ - a*||_F
    # (one norm fewer on each of the 263 trials of nonzero rank).  An mph
    # trial certifies a^2 .. a^5 as one stack, with one stacked norm call
    # for their six norms each: as_matrix 10.0 and frobenius_norm 97.02 per
    # trial while each power was certified alone.  It certifies a, a* and
    # a^2 .. a^5 as one validated stack and forms a^2 and a^3 once: as_matrix
    # 7.0 and frobenius_norm 73.02 while a, a* and the powers took three
    # certificates, and 61.02 before the algebraic check skipped the a^2
    # hermitian test where a^3 != a (on 224 random b), and 59.53 while the
    # trial took distance(a, a^3) twice.  No isometry trial takes a stacked
    # norm: each certificate there is of one matrix.
    ("mph", {"as_matrix": 3.0, "frobenius_norm": 16958 / 300, "frobenius_norms": 1.0}),
    ("isometry", {"as_matrix": 4.0, "frobenius_norm": 7987 / 300}),  # 26.62
])
def test_analysis_trials_validate_no_matrix_the_analysis_built(core_calls, suite, per_trial):
    for i in range(300):
        assert run_trial(suite, 3, i, 8) == []
    assert {name: count / 300 for name, count in core_calls.items()} == per_trial


@pytest.mark.parametrize("count", range(1, 7))
def test_stack_certificate_takes_one_norm_call(monkeypatch, count):
    # A C-ordered (N, n, n) stack within one certificate chunk takes the six
    # norms of every slice in one stacked dot, whatever N is, and the norm
    # of no matrix alone.
    rng = np.random.default_rng(count)
    for n in (1, 2, 7, 12):
        stack = np.stack([generate_regular(n, n, int(rng.integers(0, n + 1)), seed=rng)
                          for _ in range(count)])
        calls = _tap(monkeypatch, ("frobenius_norm", "frobenius_norms", "_dot_norms"))
        assert len(pinv(stack)) == count
        assert calls == {"frobenius_norms": 1, "_dot_norms": 1}, n
        monkeypatch.undo()


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
