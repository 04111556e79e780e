"""Pin the bytes of ``mpinv classify`` and ``mpinv conorm``.

Both commands run over a seeded sweep of inputs: regular, MPH,
hermitian partial isometries, rectangular matrices, and inputs the
command refuses (a zero matrix for ``conorm``, a pseudoinverse that
fails its certificate, malformed files, a bad flag).  The SHA-256
digest of every ``(command, exit code, stdout, stderr)`` in sweep order
must match the value recorded below, so a refactor of either command
keeps its output, its refusals and their order byte for byte.
"""

import hashlib
import json

import numpy as np

from mpinv import (
    generate_mp_hermitian,
    generate_regular,
    matrix_with_singular_values,
    nonnormal_mph_fixture,
    random_hermitian_partial_isometry,
    random_partial_isometry,
    save_matrix,
)
from mpinv.cli import main

COMMANDS = ("classify", "conorm")

DIGEST = "d7978658d4cbe6bf2e8ec3ee671650247bbe9504204db3ee8a92c236b61c0412"


def _matrices():
    for seed in (0, 5, 9):
        for n, r in ((1, 1), (3, 2), (4, 4), (5, 3)):
            yield generate_regular(n, n, r, sv_low=0.25, sv_high=4.0, seed=seed)
        for m, n, r in ((2, 3, 2), (4, 2, 1), (3, 5, 3)):
            yield generate_regular(m, n, r, seed=seed)
        for n, k in ((2, 1), (3, 2), (4, 4), (5, 3)):
            yield generate_mp_hermitian(n, k, seed)
        yield nonnormal_mph_fixture(4, seed)
        for inertia in ((1, 1, 0), (2, 1, 1), (0, 2, 3)):
            yield random_hermitian_partial_isometry(sum(inertia), inertia, seed)
        yield random_partial_isometry(4, 2, seed)
        yield 1e3 * generate_regular(3, 3, 3, seed=seed)
        # Refused by pinv: its Penrose residuals exceed eq_tol at kappa = 1e12.
        yield matrix_with_singular_values([1.0, 1e-12], (3, 3), seed)
    yield np.diag([1.0, -1.0, 0.0, 2.0]).astype(complex)
    yield np.zeros((2, 3), dtype=complex)
    yield np.zeros((3, 3), dtype=complex)


MALFORMED = (
    "not json",
    '{"rows": 2, "cols": 2}',
    '{"rows": 1, "cols": 1, "data": [[NaN, 0.0]]}',
    '{"rows": 1, "cols": 2, "data": [[1.0, 0.0]]}',
)


def _requests():
    """``(file text or matrix, extra flags)`` in sweep order."""
    for i, a in enumerate(_matrices()):
        yield a, ()
        if i % 4 == 0:
            yield a, ("--tol", "1e-6", "--rank-tol-factor", "1e6")
    for text in MALFORMED:
        yield text, ()
    yield np.eye(2, dtype=complex), ("--tol", "0")


def cli_digest(tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for i, (payload, flags) in enumerate(_requests()):
        path = f"in{i}.json"
        if isinstance(payload, str):
            (tmp_path / path).write_text(payload)
        else:
            save_matrix(payload, path)
        for command in COMMANDS:
            code = main([command, "--in", path, *flags])
            out, err = capsys.readouterr()
            h.update(json.dumps([command, code, out, err]).encode())
    return h.hexdigest()


def test_classify_and_conorm_output_digest(tmp_path, monkeypatch, capsys):
    assert cli_digest(tmp_path, monkeypatch, capsys) == DIGEST
