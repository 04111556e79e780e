"""Exit-code and output-schema tests for the command-line interface."""

import json

import numpy as np
import pytest

import mpinv.cli
from mpinv import (
    FuzzConfig,
    Tolerance,
    classify,
    full_report,
    fuzz,
    generate_mp_hermitian,
    generate_regular,
    matrix_from_dict,
    matrix_to_dict,
    mph_decompose,
    mph_subspace_check,
    normal_mph_check,
    penrose_residuals,
    pinv,
    random_hermitian_partial_isometry,
    save_matrix,
)
from mpinv.cli import main

DIAG_2_0 = {"rows": 2, "cols": 2, "data": [[2, 0], [0, 0], [0, 0], [0, 0]]}
SIGNS = np.diag([1.0, -1.0, 0.0]).astype(complex)
FAILING_A = np.diag([1.0, 0.0]).astype(complex)
FAILING_B = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)


@pytest.fixture
def write_json(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        if isinstance(obj, dict):
            path.write_text(json.dumps(obj))
        else:
            save_matrix(obj, path)
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPinvCommand:
    def test_diagonal_example(self, write_json, capsys):
        path = write_json("a.json", DIAG_2_0)
        code, out, err = run_cli(capsys, "pinv", "--in", path)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["rank"] == 1
        x = matrix_from_dict(payload["pinv"])
        assert np.allclose(x, np.diag([0.5, 0.0]))
        assert max(payload["residuals"][k] for k in ("r1", "r2", "r3", "r4")) <= 1e-9

    def test_out_file_round_trip(self, write_json, capsys, tmp_path):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        path = write_json("a.json", a)
        out_path = tmp_path / "x.json"
        code, _, _ = run_cli(capsys, "pinv", "--in", path, "--out", str(out_path))
        assert code == 0
        x = matrix_from_dict(json.loads(out_path.read_text()))
        assert penrose_residuals(a, x).max() <= 1e-9


class TestRolCommand:
    def test_failing_pair(self, write_json, capsys):
        pa = write_json("a.json", FAILING_A)
        pb = write_json("b.json", FAILING_B)
        code, out, _ = run_cli(capsys, "rol", "--a", pa, "--b", pb)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["ROL_DIRECT"] is False
        for tag in ("T31_II", "T31_III", "T32_II", "T32_III",
                    "T33_II", "T33_III", "T34_II", "T34_III",
                    "G1", "G2", "G3", "G4", "G5", "R35_COMM", "R35_DAG_COMM"):
            assert payload["verdicts"][tag] is False, tag
        assert payload["ranks"] == {"a": 1, "b": 1, "ab": 1}

    def test_dimension_mismatch_exit_1(self, write_json, capsys):
        pa = write_json("a.json", np.eye(2, dtype=complex))
        pb = write_json("b.json", np.eye(3, dtype=complex))
        code, out, err = run_cli(capsys, "rol", "--a", pa, "--b", pb)
        assert code == 1 and out == ""
        assert "error:" in err and err.count("\n") == 1


class TestClassifyCommand:
    def test_sign_diagonal(self, write_json, capsys):
        path = write_json("a.json", SIGNS)
        code, out, _ = run_cli(capsys, "classify", "--in", path)
        assert code == 0
        payload = json.loads(out)
        for flag in ("hermitian", "normal", "partial_isometry", "mp_hermitian"):
            assert payload[flag] is True, flag
        assert payload["conorm"] == pytest.approx(1.0, abs=1e-12)
        assert payload["subspace_check"]["verdicts"]["range_equal"] is True
        assert payload["normal_mph_check"]["verdicts"]["consistent"] is True

    def test_rectangular_skips_square_checks(self, write_json, capsys):
        path = write_json("a.json", np.ones((2, 3), dtype=complex))
        code, out, _ = run_cli(capsys, "classify", "--in", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["subspace_check"] is None
        assert payload["normal_mph_check"] is None


class TestDecomposeCommand:
    def test_mph_input(self, write_json, capsys):
        path = write_json("a.json", SIGNS)
        code, out, _ = run_cli(capsys, "decompose", "--in", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["orthogonality_residual"] <= 1e-9
        assert payload["involution_residual"] <= 1e-9
        t2 = matrix_from_dict(payload["t2"])
        assert np.allclose(t2 @ t2, np.eye(2), atol=1e-12)

    def test_non_mph_exit_1(self, write_json, capsys):
        path = write_json("a.json", np.diag([2.0, 0.0]).astype(complex))
        code, out, err = run_cli(capsys, "decompose", "--in", path)
        assert code == 1 and "not Moore-Penrose hermitian" in err


class TestConormCommand:
    def test_diagonal(self, write_json, capsys):
        path = write_json("a.json", np.diag([3.0, 2.0, 0.0]).astype(complex))
        code, out, _ = run_cli(capsys, "conorm", "--in", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["conorm"] == pytest.approx(2.0, abs=1e-12)
        assert payload["op_norm"] == pytest.approx(3.0, abs=1e-12)
        assert payload["pinv_norm"] == pytest.approx(0.5, abs=1e-12)

    def test_zero_matrix_exit_1(self, write_json, capsys):
        path = write_json("a.json", np.zeros((2, 2), dtype=complex))
        code, _, err = run_cli(capsys, "conorm", "--in", path)
        assert code == 1 and "undefined" in err


class TestFuzzCommand:
    def test_clean_run_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "fuzz", "--suite", "penrose", "--trials", "10",
            "--max-dim", "4", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials_run"] == 10 and payload["failures"] == []

    def test_findings_exit_2(self, capsys):
        # Machine-epsilon tolerance turns rounding into findings.
        code, out, _ = run_cli(
            capsys, "fuzz", "--suite", "penrose", "--trials", "10",
            "--max-dim", "4", "--seed", "1", "--tol", "2.3e-16",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["failures"]
        record = payload["failures"][0]
        assert {"suite", "seed", "trial_index", "condition_pair"} <= record.keys()

    def test_zero_trials_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "fuzz", "--suite", "all", "--trials", "0",
        )
        assert code == 1 and "trials" in err


class TestGenCommand:
    def test_regular_fixture(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "gen", "--kind", "regular", "--rows", "4", "--cols", "3",
            "--rank", "2", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        m = matrix_from_dict(json.loads(out_path.read_text()))
        assert m.shape == (4, 3)

    def test_mph_fixture_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "mph", "--dim", "5", "--rank", "3", "--seed", "4")
        assert code == 0
        from mpinv import is_mp_hermitian

        assert is_mp_hermitian(matrix_from_dict(json.loads(out)))

    def test_gen_deterministic(self, capsys):
        args = ["gen", "--kind", "partial_isometry", "--dim", "4", "--rank", "2", "--seed", "5"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_prescribed_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "prescribed_singular_values", "--dim", "3",
            "--singular-values", "2.0,1.0", "--seed", "6",
        )
        assert code == 0
        from mpinv import svd

        sigma = svd(matrix_from_dict(json.loads(out))).sigma
        assert np.allclose(sigma, [2.0, 1.0, 0.0], atol=1e-12)

    def test_missing_params_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "mph", "--dim", "4")
        assert code == 1 and "rank" in err

    @pytest.mark.parametrize("n, inertia", [(5, (2, 1, 2)), (3, (0, 3, 0)), (1, (0, 0, 1))])
    def test_hermitian_partial_isometry_stdout(self, capsys, n, inertia):
        code, out, err = run_cli(capsys, "gen", "--kind", "hermitian_partial_isometry",
                                 "--dim", str(n), "--inertia", ",".join(map(str, inertia)),
                                 "--seed", "7")
        assert code == 0 and err == ""
        assert json.loads(out) == matrix_to_dict(random_hermitian_partial_isometry(n, inertia, 7))

    @pytest.mark.parametrize("inertia", ["1,1", "1,x,1", "1,2,3,4", ""])
    def test_malformed_inertia_exit_1(self, capsys, inertia):
        code, out, err = run_cli(capsys, "gen", "--kind", "hermitian_partial_isometry",
                                 "--dim", "3", "--inertia", inertia)
        assert code == 1 and out == ""
        assert err == "error: inertia must be three comma-separated integers\n"

    @pytest.mark.parametrize("inertia", ["+-1,1,1", "--1,1,1", "1,+-1,1"])
    def test_inertia_takes_at_most_one_sign(self, capsys, inertia):
        # "=" keeps argparse from reading "--1,1,1" as an option.
        args = ("gen", "--kind", "hermitian_partial_isometry", "--dim", "3")
        code, out, err = run_cli(capsys, *args, f"--inertia={inertia}")
        assert code == 1 and out == ""
        assert err == "error: inertia must be three comma-separated integers\n"
        assert run_cli(capsys, *args, "--inertia=+1,1, +1") == run_cli(
            capsys, *args, "--inertia=1,1,1")

    @pytest.mark.parametrize("values", ["", "1,x"])
    def test_malformed_singular_values_exit_1(self, capsys, values):
        code, out, err = run_cli(capsys, "gen", "--kind", "prescribed_singular_values",
                                 "--dim", "3", "--singular-values", values)
        assert code == 1 and out == ""
        assert err == "error: singular values must be comma-separated numbers\n"

    def test_missing_inertia_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--kind", "hermitian_partial_isometry",
                                 "--dim", "3")
        assert code == 1 and out == ""
        assert err == "error: hermitian_partial_isometry needs inertia\n"

    def test_round_trip_gen_pinv(self, capsys, tmp_path):
        fixture = tmp_path / "a.json"
        inverse = tmp_path / "x.json"
        assert run_cli(capsys, "gen", "--kind", "regular", "--dim", "5",
                       "--rank", "3", "--seed", "8", "--out", str(fixture))[0] == 0
        assert run_cli(capsys, "pinv", "--in", str(fixture), "--out", str(inverse))[0] == 0
        a = matrix_from_dict(json.loads(fixture.read_text()))
        x = matrix_from_dict(json.loads(inverse.read_text()))
        assert penrose_residuals(a, x).max() <= 1e-9


class TestErrorPaths:
    def test_malformed_json_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        code, out, err = run_cli(capsys, "pinv", "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_wrong_data_length_exit_1(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]]}))
        code, _, err = run_cli(capsys, "pinv", "--in", str(path))
        assert code == 1 and "length" in err

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": True, "cols": True, "data": [[1, 0]]},
            {"rows": 1, "cols": 1, "data": [[None, 0]]},
            {"rows": 1, "cols": 1, "data": [["1.5", 0]]},
            {"rows": 1, "cols": 1, "data": [[True, 0]]},
        ],
    )
    def test_non_numeric_entries_exit_1(self, capsys, write_json, obj):
        code, out, err = run_cli(capsys, "pinv", "--in", write_json("bad.json", obj))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "pinv", "--in", "/nonexistent/a.json")
        assert code == 1 and "error:" in err

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "pinv", "--bogus", "x")
        assert code == 1 and "error:" in err

    def test_unknown_command_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_non_finite_rejected(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[1e999, 0]]}))
        code, _, err = run_cli(capsys, "pinv", "--in", str(path))
        assert code == 1 and "finite" in err

    @pytest.mark.parametrize("command", ["pinv", "classify", "conorm"])
    def test_refused_certification_exit_1(self, capsys, write_json, command):
        # At machine-epsilon tolerance pinv refuses to certify this matrix.
        path = write_json("a.json", generate_regular(4, 3, 3, seed=0))
        code, out, err = run_cli(capsys, command, "--in", path, "--tol", "2.3e-16")
        assert code == 1 and out == ""
        assert err.startswith("error: pseudoinverse residuals") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # a numpy warning would print its own lines
    @pytest.mark.parametrize(
        "command, diagonal",
        [
            ("classify", [1e200, 1e200]),
            ("pinv", [1e-300, 1e-300]),
            ("pinv", [5e-324, 5e-324]),
            ("rol", [1e200, 1.0]),
        ],
        ids=["classify_overflow", "pinv_overflow", "pinv_subnormal", "rol_overflow"],
    )
    def test_non_finite_arithmetic_refused_in_one_line(self, capsys, write_json, command,
                                                       diagonal):
        # Norms and products overflow or underflow here; the verdicts
        # must fail closed.
        path = write_json("a.json", np.diag(diagonal).astype(complex))
        args = ["--a", path, "--b", path] if command == "rol" else ["--in", path]
        code, out, err = run_cli(capsys, command, *args)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_subnormal_pinv_names_the_overflow(self, capsys, write_json):
        # 1/5e-324 is inf; the refusal must say so, not blame an argument
        # the caller never passed.
        path = write_json("a.json", np.diag([5e-324, 5e-324]).astype(complex))
        code, out, err = run_cli(capsys, "pinv", "--in", path)
        assert code == 1 and out == ""
        assert err.startswith("error: pseudoinverse overflows") and err.count("\n") == 1
        assert "x contains" not in err

    def test_svd_failure_exit_1(self, capsys, write_json, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("SVD did not converge")

        path = write_json("a.json", np.eye(2, dtype=complex))
        monkeypatch.setattr(mpinv.core, "_lapack_svd", no_convergence)
        code, out, err = run_cli(capsys, "pinv", "--in", path)
        assert code == 1 and out == ""
        assert err.startswith("error: SVD did not converge") and err.count("\n") == 1

    def test_deep_nesting_exit_1(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "pinv", "--in", str(path))
        assert code == 1 and out == ""
        assert "nesting too deep" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "regular", "--sv-high", "inf"],
            ["--kind", "regular", "--rows", "0", "--cols", "2", "--dim", "3"],
            ["--kind", "regular", "--cols", "0"],
            ["--kind", "prescribed_singular_values", "--singular-values", "1", "--rows", "0"],
        ],
        ids=["infinite_sv_high", "zero_rows", "zero_cols", "prescribed_zero_rows"],
    )
    def test_gen_bad_values_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_pinv_out_directory_exit_1(self, capsys, write_json, tmp_path):
        path = write_json("a.json", A)
        code, out, err = run_cli(capsys, "pinv", "--in", path, "--out", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_broken_stdout_exit_1(self, capsys, write_json, monkeypatch):
        class BrokenPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        path = write_json("a.json", A)
        monkeypatch.setattr("sys.stdout", BrokenPipe())
        code = main(["pinv", "--in", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: [Errno 32] Broken pipe\n"

    def test_help_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0 and "pinv" in out


def _classify_dict(a):
    out = classify(a).as_dict()
    out["subspace_check"] = mph_subspace_check(a).as_dict()
    out["normal_mph_check"] = normal_mph_check(a).as_dict()
    return out


def _conorm_dict(a):
    report = classify(a)
    return {"conorm": report.conorm, "op_norm": report.op_norm,
            "pinv_norm": report.pinv_norm}


A = generate_regular(4, 3, 2, seed=11) * (1 - 0.5j)
SQUARE = generate_regular(5, 5, 3, seed=12)
MPH = generate_mp_hermitian(5, 3, 13)


class TestWireFormat:
    """stdout and written files are ``json.dumps(..., indent=2)`` byte for byte."""

    @pytest.mark.parametrize(
        "argv, matrices, reference",
        [
            (["pinv"], [A], lambda: pinv(A).as_dict()),
            (["rol"], [A, A.T], lambda: full_report(A, A.T).as_dict()),
            (["classify"], [SQUARE], lambda: _classify_dict(SQUARE)),
            (["classify"], [A], lambda: {**classify(A).as_dict(), "subspace_check": None,
                                         "normal_mph_check": None}),
            (["conorm"], [A], lambda: _conorm_dict(A)),
            (["decompose"], [MPH], lambda: mph_decompose(MPH).as_dict()),
            (["decompose"], [SIGNS[:2, :2]], lambda: mph_decompose(SIGNS[:2, :2]).as_dict()),
            (["decompose"], [np.zeros((2, 2))], lambda: mph_decompose(np.zeros((2, 2))).as_dict()),
        ],
        ids=["pinv", "rol", "classify", "classify_rectangular", "conorm", "decompose",
             "decompose_empty_h1", "decompose_empty_h2"],
    )
    def test_stdout_matches_indented_json(self, capsys, write_json, argv, matrices, reference):
        paths = [write_json(f"{i}.json", m) for i, m in enumerate(matrices)]
        flags = ["--a", paths[0], "--b", paths[1]] if argv == ["rol"] else ["--in", paths[0]]
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 0 and err == ""
        assert out == json.dumps(reference(), indent=2) + "\n"

    def test_gen_stdout_and_file_match_indented_json(self, capsys, tmp_path):
        args = ["gen", "--kind", "regular", "--rows", "6", "--cols", "4", "--seed", "3"]
        code, out, _ = run_cli(capsys, *args)
        reference = json.dumps(matrix_to_dict(generate_regular(6, 4, 4, seed=3)), indent=2)
        assert code == 0 and out == reference + "\n"
        path = tmp_path / "m.json"
        assert run_cli(capsys, *args, "--out", str(path))[0] == 0
        assert path.read_text() == reference + "\n"

    def test_pinv_out_file_matches_indented_json(self, capsys, write_json, tmp_path):
        path = tmp_path / "x.json"
        assert run_cli(capsys, "pinv", "--in", write_json("a.json", A), "--out", str(path))[0] == 0
        assert path.read_text() == json.dumps(matrix_to_dict(pinv(A).pinv), indent=2) + "\n"

    def test_fuzz_failure_records_match_indented_json(self, capsys):
        # At eq_tol 2.3e-16 every suite finds records, some holding matrices.
        code, out, err = run_cli(capsys, "fuzz", "--suite", "all", "--trials", "10",
                                 "--seed", "3", "--tol", "2.3e-16")
        config = FuzzConfig(suite="all", trials=10, max_dim=8, seed=3,
                            tolerance=Tolerance(eq_tol=2.3e-16))
        reference = fuzz(config).as_dict()
        assert code == 2 and err == ""
        assert any(record["matrices"] for record in reference["failures"])
        reference["elapsed"] = json.loads(out)["elapsed"]
        assert out == json.dumps(reference, indent=2) + "\n"


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out_file"])
def test_pinv_renders_x_once(capsys, write_json, tmp_path, monkeypatch, out):
    path = write_json("a.json", A)
    calls = []

    def spy(m):
        calls.append(m.shape)
        return render(m)

    render = mpinv.matrix_io._render
    monkeypatch.setattr(mpinv.matrix_io, "_render", spy)
    flags = ["--out", str(tmp_path / "x.json")] if out else []
    for _ in range(2):
        code, stdout, _ = run_cli(capsys, "pinv", "--in", path, *flags)
        assert code == 0 and stdout == json.dumps(pinv(A).as_dict(), indent=2) + "\n"
    assert calls == [A.shape[::-1]] * 2


GEN_ARGS = ["gen", "--kind", "regular", "--dim", "3", "--seed", "2"]


def _gen_stdout():
    """What ``main(GEN_ARGS)`` prints."""
    return json.dumps(matrix_to_dict(generate_regular(3, 3, 3, seed=2)), indent=2) + "\n"


@pytest.mark.parametrize("argv, code", [(["gen", "--kind", "regular", "--dim", "2"], 0),
                                         (["gen", "--bogus"], 1)], ids=["ok", "unknown_flag"])
def test_entry_exits_with_mains_code(capsys, monkeypatch, argv, code):
    monkeypatch.setattr("sys.argv", ["mpinv", *argv])
    with pytest.raises(SystemExit) as exit_:
        mpinv.cli.entry()
    assert exit_.value.code == code
    out, err = capsys.readouterr()
    assert (out != "", err != "") == (code == 0, code == 1)


class TestParserReuse:
    """One parser serves every call in a process and carries nothing over."""

    def test_parser_is_built_once(self):
        assert mpinv.cli._build_parser() is mpinv.cli._build_parser()

    def test_tolerance_resets_to_default(self, capsys, write_json, monkeypatch):
        seen = []

        def spy(a, tol):
            seen.append(tol.eq_tol)
            return pinv(a, tol)

        monkeypatch.setattr(mpinv.cli, "pinv", spy)
        path = write_json("a.json", A)
        assert run_cli(capsys, "pinv", "--in", path, "--tol", "1e-6")[0] == 0
        assert run_cli(capsys, "pinv", "--in", path)[0] == 0
        assert seen == [1e-6, 1e-9]

    def test_out_does_not_stick(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, *GEN_ARGS, "--out", str(path))
        assert code == 0 and out == "" and path.exists()
        path.unlink()
        code, out, _ = run_cli(capsys, *GEN_ARGS)
        assert code == 0 and out == _gen_stdout()
        assert not path.exists()

    @pytest.mark.parametrize("first", [["--help"], ["pinv", "--bogus", "x"], ["gen"]],
                             ids=["help", "bad_flag", "missing_kind"])
    def test_valid_call_after_early_exit(self, capsys, first):
        assert main(first) in (0, 1)
        capsys.readouterr()
        code, out, err = run_cli(capsys, *GEN_ARGS)
        assert code == 0 and err == "" and out == _gen_stdout()
