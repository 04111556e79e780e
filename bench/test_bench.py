"""Self-tests of the benchmark: oracles, trace wrappers, seeded inputs.

Run from the repository root with ``python3 -m pytest bench``.
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

pinv_mod = importlib.import_module("mpinv.pinv")
ro = importlib.import_module("mpinv.reverse_order")


def _items(workload, seed, indices, workdir):
    specs = workload.plan(seed)
    return [workload.build(seed, i, specs[i], workdir) for i in indices]


# ---- each oracle rejects a known-bad output ----------------------------


def test_rol_oracle_rejects_flipped_rol_direct(tmp_path):
    wl = workloads.RolCorpus()
    item = _items(wl, 1, [1], tmp_path)[0]  # index 1 is a forced_unitary pair
    report = wl.run(item)
    assert wl.check(item, report, None).ok
    report.verdicts["ROL_DIRECT"] = not report.verdicts["ROL_DIRECT"]
    outcome = wl.check(item, report, None)
    assert not outcome.ok and not outcome.known


def test_rol_oracle_blames_scaled_pairs_only_as_known(tmp_path):
    wl = workloads.RolCorpus()
    specs = wl.plan(1)
    scaled = next(i for i, s in enumerate(specs) if s[2] and s[3] != 0)
    item = _items(wl, 1, [scaled], tmp_path)[0]
    report = wl.run(item)
    report.verdicts["ROL_DIRECT"] = not report.verdicts["ROL_DIRECT"]
    assert wl.check(item, report, None).known


def test_certify_oracle_rejects_rank_off_by_one(tmp_path):
    wl = workloads.CertifySweep()
    specs = wl.plan(1)
    well = next(i for i, s in enumerate(specs) if s[3] < 4.0)
    item = _items(wl, 1, [well], tmp_path)[0]
    result = wl.run(item)
    assert wl.check(item, result, None).ok
    bad = dataclasses.replace(result, rank=result.rank + 1)
    outcome = wl.check(item, bad, None)
    assert not outcome.ok and not outcome.known


@pytest.mark.parametrize("name", ["rol_corpus", "certify_sweep", "cli_requests"])
def test_refusal_is_a_known_failure(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    item = _items(wl, 1, [0], tmp_path)[0]
    error = pinv_mod.PenroseResidualError("refused", None)
    outcome = wl.check(item, None, error)
    assert not outcome.ok and outcome.known
    outcome = wl.check(item, None, ValueError("other"))
    assert not outcome.ok and not outcome.known


def test_cli_oracle_rejects_nonzero_exit(tmp_path):
    wl = workloads.CliRequests()
    for item in _items(wl, 1, range(len(workloads.CLI_KINDS)), tmp_path):
        output = wl.run(item)
        assert wl.check(item, output, None).ok, item["kind"]
        outcome = wl.check(item, (1, "", "error: boom\n"), None)
        assert not outcome.ok and not outcome.known


def test_cli_oracle_rejects_wrong_rank(tmp_path):
    wl = workloads.CliRequests()
    item = _items(wl, 1, [0], tmp_path)[0]  # index 0 is a pinv --out request
    code, stdout, stderr = wl.run(item)
    payload = json.loads(stdout)
    payload["rank"] += 1
    assert not wl.check(item, (code, json.dumps(payload), stderr), None).ok


def test_fuzz_oracle_rejects_trial_failure(tmp_path):
    wl = workloads.FuzzCampaign()
    item = _items(wl, 1, [0], tmp_path)[0]
    assert wl.check(item, wl.run(item), None).ok
    failure = importlib.import_module("mpinv.harness").TrialFailure(
        suite="penrose", seed=1, trial_index=0, condition_pair="x", residuals={}, matrices={})
    assert not wl.check(item, [failure], None).ok
    assert not wl.check(item, [failure], None).known
    refusal = dataclasses.replace(
        failure, condition_pair=workloads.REFUSAL_RECORD + "residuals exceed eq_tol")
    outcome = wl.check(item, [refusal], None)
    assert not outcome.ok and outcome.known


# ---- trace wrappers ------------------------------------------------------


def test_install_rebinds_every_alias_and_uninstall_restores():
    original = pinv_mod.pinv
    spans = tracing.Tracer()
    spans.install()
    try:
        assert spans.wrappers_present() > 0
        assert ro.pinv is not original and ro.pinv.bench_traced
        assert importlib.import_module("mpinv").pinv.bench_traced
    finally:
        spans.uninstall()
    assert spans.wrappers_present() == 0
    assert ro.pinv is original and pinv_mod.pinv is original


class _Spy(workloads.Workload):
    """Records, per operation, whether it ran against traced functions."""

    name = "spy"
    tag = 9
    corpus = 3
    trace_ops = 3

    def __init__(self):
        self.seen = []

    def plan(self, seed):
        return [None] * self.corpus

    def build(self, seed, index, spec, workdir):
        return {"index": index, "a": np.eye(2) * (index + 1)}

    def run(self, item):
        self.seen.append(bool(getattr(ro.pinv, "bench_traced", False)))
        return ro.full_report(item["a"], item["a"])

    def check(self, item, output, error):
        return workloads.Outcome(error is None, ("ok",))


def test_wrappers_are_removed_before_every_untraced_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    spy = _Spy()
    order = np.arange(spy.corpus)
    ledger, values, extra = bench_run.traced(spy, 0, 0.0, order, spy.plan(0))
    n = spy.trace_ops
    assert spy.seen == ([False] * n + [True] * n) * extra["trace_rounds"]
    assert extra["wrappers_left"] == 0 and extra["counts_repeat"]
    assert values["reverse_order.pinv_calls_per_pair"] >= 1
    assert ledger.failed == 0


def test_self_times_add_up_to_root_spans():
    spans = tracing.Tracer()
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    spans.install()
    try:
        ro.full_report(a, a)
    finally:
        spans.uninstall()
    summary = spans.summary(0, spans.mark(), 1)
    start = np.frombuffer(spans.start)
    end = np.frombuffer(spans.end)
    root = np.frombuffer(spans.parent, dtype=np.int64) == -1
    total_ms = float((end - start)[root].sum()) * 1e3
    assert summary["reverse_order.full_report.self_ms_per_op"] <= total_ms
    assert summary["calls"]["reverse_order.full_report"] == 1


def test_ledger_counts_documented_defects_apart_from_failures():
    wl = workloads.RolCorpus()
    ledger = bench_run.Ledger(wl, 1)
    ledger.record(0, workloads.Outcome(True, ("ok",)))
    ledger.record(1, workloads.Outcome(False, ("bad",), known=True))
    assert (ledger.attempted, ledger.failed, ledger.known) == (2, 0, 1)
    assert ledger.unexpected == []
    ledger.record(2, workloads.Outcome(False, ("bad",), note="new"))
    assert (ledger.attempted, ledger.failed, ledger.known) == (3, 1, 1)
    assert ledger.unexpected == [(2, "new")]
    assert [f[2] for f in ledger.first_failures()] == [1, 2]


# ---- seeded inputs -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_yields_identical_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]()
    assert wl.plan(7) == wl.plan(7)
    indices = [0, 1, 2, 3, 4, wl.corpus - 1]
    dirs = [tmp_path / "x", tmp_path / "y", tmp_path / "z"]
    for d in dirs:
        d.mkdir()
    first, second, other = (_items(wl, s, indices, d) for s, d in zip((7, 7, 8), dirs))
    for x, y in zip(first, second):
        assert x.keys() == y.keys()
        for key, value in x.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, y[key]), key
            else:
                assert value == y[key] or key in ("argv", "out"), key
    for path in sorted(p.name for p in dirs[0].iterdir()):
        assert (dirs[0] / path).read_bytes() == (dirs[1] / path).read_bytes()

    def content(items):
        return [(k, v.tobytes() if isinstance(v, np.ndarray) else v)
                for item in items for k, v in sorted(item.items()) if k not in ("argv", "out")]

    assert content(first) != content(other)


def test_rol_corpus_scales_a_quarter_of_pairs_in_every_family():
    specs = workloads.RolCorpus().plan(3)
    scaled = [s for s in specs if s[2]]
    assert len(scaled) * 4 == len(specs)
    assert {s[0] for s in scaled} == set(workloads.ROL_SOURCES)


def test_certify_sweep_reaches_kappa_1e12():
    specs = workloads.CertifySweep().plan(3)
    assert max(s[3] for s in specs) > 11.9


# ---- the benchmark refuses to run without the program ------------------------


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rol_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_scaling_cancels_a_uniformly_slow_host():
    host = bench_run.HostSpeed()
    lat = np.array([1e-3, 2e-3, 3e-3])
    host.times = [bench_run.PROBE_REFERENCE_S] * 3
    assert np.allclose(host.scaled(lat), lat)
    host.times = [2 * bench_run.PROBE_REFERENCE_S] * 3
    assert np.allclose(host.scaled(2 * lat), lat)
