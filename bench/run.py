"""mpinv benchmark: closed-loop workloads with oracles, plus a traced run.

Run from the repository root:

    python3 bench/run.py --workload rol_corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
prints the per-layer metrics from spans around the library's public
functions. ``--replay I`` rebuilds operation I of the seed's corpus,
runs it once and prints the oracle's verdict. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. bench/README.md explains the
workloads and the metrics.
"""

import os

# BLAS must be pinned before numpy is first imported: with two threads on
# a two-core machine the figures measure the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, thread_time  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402  (imports mpinv only when a Tracer is made)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "mpinv-bench"

SETUP_REPEATS = 5
SETUP_PROBES = 20
# Typical time of ``HostSpeed.probe`` on the reference host, a 2-core
# x86-64 VM shared with other tenants (numpy 2.4, OpenBLAS 0.3.31, one
# BLAS thread). Time metrics are scaled by it over the probe times
# measured around each operation; see bench/README.md.
PROBE_REFERENCE_S = 1.3e-4
MIN_OPS = 1000  # p99 needs at least ten samples beyond it
MAX_TRACE_SPANS = 1_000_000  # about 40 MB of spans in memory
SUITES = ("penrose", "formulations", "rol", "mph", "isometry")

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms", "ok_share": "share",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def import_program():
    """Import mpinv from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mpinv" / "__init__.py").is_file():
        sys.exit(f"error: no mpinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpinv

    if Path(mpinv.__file__).resolve().parent != SRC / "mpinv":
        sys.exit(f"error: imported mpinv from {mpinv.__file__}, not from {SRC}")
    return mpinv


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


class Ledger:
    """Oracle outcomes of a run: counts, replayable failures, digest.

    ``failed`` counts operations that failed outside the documented
    defect classes of bench/README.md; any such failure also makes the
    run incorrect. ``known`` counts the documented defects (wrong
    verdicts on 2^k-scaled pairs, ``PenroseResidualError`` refusals),
    which ``ok_share`` reports as measured.

    The digest hashes the first outcome of every corpus item in index
    order, so it depends on the seed and the program, not on how many
    operations the time allowed. A later visit to the same item must
    reproduce the first outcome.
    """

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.first = [None] * workload.corpus
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unexpected = []
        self.failed_items = set()
        self.nondeterministic = 0

    def record(self, index, outcome, counted=True):
        if counted and not outcome.ok:
            if outcome.known:
                self.known += 1
            else:
                self.failed += 1
        self.attempted += counted
        if not outcome.ok:
            self.failed_items.add(index)
            if not outcome.known and len(self.unexpected) < 5:
                self.unexpected.append((index, outcome.note))
        prev = self.first[index]
        if prev is None:
            self.first[index] = outcome.key
        elif prev != outcome.key:
            self.nondeterministic += 1

    def unvisited(self):
        return [i for i, key in enumerate(self.first) if key is None]

    def digest(self):
        text = json.dumps(self.first, default=str, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def first_failures(self, count=5):
        return [(self.workload.name, self.seed, i) for i in sorted(self.failed_items)[:count]]


class HostSpeed:
    """A fixed numpy probe, timed next to every operation.

    The probe does not touch mpinv, so its time tracks how fast the
    shared host runs at that moment, not how fast the program is.
    """

    WINDOW = 11  # probes averaged around each operation

    def __init__(self):
        rng = np.random.default_rng(20130814)
        self.matrices = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                         for _ in range(2)]
        self.times = []

    def _work(self):
        for m in self.matrices:
            u, s, vh = np.linalg.svd(m)
            x = (vh.conj().T / s) @ u.conj().T
            float(np.linalg.norm(m @ x @ m - m))

    def probe(self):
        # The untimed first pass reloads the caches the operation just
        # evicted, so the timed pass sees the host, not the program's
        # memory footprint.
        self._work()
        t0 = thread_time()
        self._work()
        self.times.append(thread_time() - t0)

    def scaled(self, latencies):
        """Latencies on the reference host: operation i is scaled by the
        reference probe time over the mean of the probes around it."""
        n, half = len(self.times), self.WINDOW // 2
        sums = np.concatenate([[0.0], np.cumsum(self.times)])
        lo = np.maximum(np.arange(n) - half, 0)
        hi = np.minimum(np.arange(n) + half + 1, n)
        local = (sums[hi] - sums[lo]) / (hi - lo)
        return np.asarray(latencies) * (PROBE_REFERENCE_S / local)


def attempt(workload, item):
    """Run one operation; returns (output, error, seconds).

    The seconds are CPU time of this thread, which runs all of the
    operation (BLAS is pinned to it). Unlike wall time they leave out
    the stalls when the host takes the CPU away, which reached 45 ms
    for a single 2 ms call.
    """
    t0 = thread_time()
    try:
        output, error = workload.run(item), None
    except Exception as exc:  # an operation that raises is a failed operation
        output, error = None, exc
    return output, error, thread_time() - t0


def set_up(workload, seed, repeats, host=None):
    """Generate the corpus, write its files and warm up, ``repeats`` times.

    The warm-up runs the first items in index order, not in the timed
    order, so its cost is the same for every seed: a seeded pick of ten
    ``cli_requests`` items ranged from a few small requests to several
    40 ms ones.

    Returns the last corpus, its work directory and every set-up time.
    ``host``, if given, is probed ``SETUP_PROBES`` times after each repeat.
    """
    times, items, workdir = [], None, None
    for _ in range(repeats):
        if workdir is not None:
            shutil.rmtree(workdir)
        items = None  # free the previous corpus before building the next
        t0 = thread_time()
        workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
        try:
            items = workload.setup(seed, workdir)
            for item in items[: workload.warmup]:
                attempt(workload, item)
        except BaseException:
            shutil.rmtree(workdir)
            raise
        times.append(thread_time() - t0)
        for _ in range(SETUP_PROBES if host else 0):
            host.probe()
    return items, workdir, times


def closed_loop(workload, items, order, ledger, seconds, host):
    """One client issuing operations back to back, in whole passes.

    Every pass visits each corpus item once. A new pass starts only if
    it should end within ``seconds``, so each item gets the same number
    of visits and no seed's run leans on a partial pass; passes continue
    until at least ``MIN_OPS`` operations are done. The host probe runs
    just before each operation and the oracle just after it, both
    untimed. Returns per-operation latencies.
    """
    latencies = []
    hard_stop = max(3 * seconds, seconds + 60)
    begin = perf_counter()
    while True:
        start = perf_counter()
        for idx in order:
            host.probe()
            output, error, dt = attempt(workload, items[idx])
            latencies.append(dt)
            ledger.record(idx, workload.check(items[idx], output, error))
            if perf_counter() - begin >= hard_stop:
                return latencies
        now = perf_counter()
        if len(latencies) >= MIN_OPS and now - begin + (now - start) > seconds:
            return latencies


def finish_digest(workload, items, ledger):
    """Visit, untimed, the corpus items the timed loop never reached."""
    for idx in ledger.unvisited():
        output, error, _ = attempt(workload, items[idx])
        ledger.record(idx, workload.check(items[idx], output, error), counted=False)


def end_to_end(workload, seed, seconds, order):
    setup_host, loop_host = HostSpeed(), HostSpeed()
    items, workdir, setup_times = set_up(workload, seed, SETUP_REPEATS, setup_host)
    ledger = Ledger(workload, seed)
    try:
        lat = closed_loop(workload, items, order.tolist(), ledger, seconds, loop_host)
        finish_digest(workload, items, ledger)
    finally:
        shutil.rmtree(workdir)
    p50, p99 = np.percentile(lat, [50, 99])
    raw = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": p50 * 1e3,
        "op_p99_ms": p99 * 1e3,
        "setup_s": statistics.median(setup_times),
    }
    # Times on the reference host. A program that gets 20% slower still
    # reads 20% slower; a host that runs 20% slow slows the probes too.
    scaled = loop_host.scaled(lat)
    s50, s99 = np.percentile(scaled, [50, 99])
    values = {
        "ops_per_s": len(scaled) / scaled.sum(),
        "op_p50_ms": s50 * 1e3,
        "op_p99_ms": s99 * 1e3,
        "ok_share": (ledger.attempted - ledger.failed - ledger.known) / ledger.attempted,
        # Each set-up is scaled by the probes taken right after it.
        "setup_s": statistics.median(
            t * PROBE_REFERENCE_S
            / statistics.median(setup_host.times[i * SETUP_PROBES:(i + 1) * SETUP_PROBES])
            for i, t in enumerate(setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "ops_per_s": len(lat), "op_p50_ms": len(lat), "op_p99_ms": len(lat),
        "ok_share": ledger.attempted, "setup_s": len(setup_times), "peak_rss_mb": 1,
    }
    extra = {
        "unscaled": raw,
        "host_probe_median_ms": statistics.median(loop_host.times) * 1e3,
        "samples_beyond_p99": int(np.count_nonzero(scaled > s99)),
        "setup_times_s": setup_times,
    }
    metrics = {name: {"value": float(v), "unit": END_TO_END_UNITS[name]}
               for name, v in values.items()}
    return ledger, metrics, samples, extra


def traced(workload, seed, seconds, order, specs):
    """Alternate untraced and traced passes over a fixed subset of the corpus.

    Counts come from the first traced pass and must repeat exactly in
    every later one; times are medians over the passes.
    """
    items, workdir, _ = set_up(workload, seed, 1)
    subset = [int(i) for i in order[: workload.trace_ops]]
    ledger = Ledger(workload, seed)
    spans = tracing.Tracer()
    rounds, suite_time, suite_ops = [], dict.fromkeys(SUITES, 0.0), dict.fromkeys(SUITES, 0)
    io_bytes = np.zeros(3)
    begin = perf_counter()
    try:
        while len(rounds) < 2 or (perf_counter() - begin < seconds
                                  and spans.mark() < MAX_TRACE_SPANS):
            if spans.wrappers_present():
                raise RuntimeError("trace wrappers left installed before an untraced pass")
            untraced_s = 0.0
            for idx in subset:
                output, error, dt = attempt(workload, items[idx])
                untraced_s += dt
                ledger.record(idx, workload.check(items[idx], output, error))
                if "suite" in items[idx]:
                    suite_time[items[idx]["suite"]] += dt
                    suite_ops[items[idx]["suite"]] += 1
                if not rounds and error is None:
                    io_bytes += workload.op_bytes(items[idx], output)
            spans.install()
            lo, traced_s = spans.mark(), 0.0
            try:
                for idx in subset:
                    spans.op_id = idx
                    output, error, dt = attempt(workload, items[idx])
                    traced_s += dt
                    ledger.record(idx, workload.check(items[idx], output, error))
            finally:
                spans.op_id = -1
                spans.uninstall()
            rounds.append((untraced_s, traced_s, spans.summary(lo, spans.mark(), len(subset))))

        # Generation of the same subset, traced on its own so that its
        # library calls do not count as calls per operation.
        gen_dir = tempfile.mkdtemp(prefix=f"{workload.name}-gen-", dir=WORK)
        spans.install()
        lo = spans.mark()
        try:
            for idx in subset:
                spans.op_id = idx
                workload.build(seed, idx, specs[idx], gen_dir)
        finally:
            spans.op_id = -1
            spans.uninstall()
            shutil.rmtree(gen_dir)
        generation = spans.summary(lo, spans.mark(), len(subset))
        numpy_ratio = time_against_numpy(spans.captured)
        spans.save(WORK / f"spans-{workload.name}-seed{seed}.npz")
    finally:
        spans.uninstall()
        shutil.rmtree(workdir)

    first = rounds[0][2]
    counts_repeat = all(r[2]["calls"] == first["calls"] for r in rounds)
    values = {}
    for key, value in first.items():
        if key.endswith("ms_per_op"):
            values[key] = statistics.median(r[2][key] for r in rounds)
        elif key not in ("spans", "calls"):
            values[key] = value  # counts and ratios of counts repeat exactly
    values["harness.generate.ms_per_op"] = (
        generation["harness.generate.ms_per_op"]
        + statistics.median(r[2]["harness.generate.ms_per_op"] for r in rounds))
    values["pinv.numpy_ratio"] = numpy_ratio
    for suite in SUITES:
        values[f"harness.run_trial.{suite}.trials_per_s"] = (
            suite_ops[suite] / suite_time[suite] if suite_ops[suite] else 0.0)
    per_op = io_bytes / len(subset)
    values["matrix_io.bytes_in_per_op"] = per_op[0]
    values["matrix_io.bytes_out_per_op"] = per_op[1]
    values["cli.stdout_bytes_per_op"] = per_op[2]
    values["trace.overhead_share"] = statistics.median(1.0 - u / t for u, t, _ in rounds)
    extra = {
        "trace_rounds": len(rounds),
        "ops_per_pass": len(subset),
        "counts_repeat": counts_repeat,
        "calls_per_pass": first["calls"],
        "spans": sum(r[2]["spans"] for r in rounds) + generation["spans"],
        "wrappers_left": spans.wrappers_present(),
    }
    return ledger, values, extra


def time_against_numpy(inputs, repeats=5):
    """Median ratio of mpinv ``pinv`` time to ``np.linalg.pinv`` time on
    the same inputs (the first pinv calls of the traced pass)."""
    if not inputs:
        return 0.0
    pinv = importlib.import_module("mpinv.pinv").pinv

    def total(fn):
        t0 = thread_time()
        for a in inputs:
            try:
                fn(a)
            except Exception:  # refusals are timed like any other call
                pass
        return thread_time() - t0

    return statistics.median(total(pinv) / total(np.linalg.pinv) for _ in range(repeats))


def per_layer_units(benchmark_file):
    with open(benchmark_file, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def replay(workload, seed, index):
    specs = workload.plan(seed)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-replay-", dir=WORK)
    try:
        item = workload.build(seed, index, specs[index], workdir)
        output, error, dt = attempt(workload, item)
        outcome = workload.check(item, output, error)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({"workload": workload.name, "seed": seed, "op_index": index,
                      "spec": list(specs[index]), "ms": dt * 1e3, "ok": outcome.ok,
                      "known_defect": outcome.known, "note": outcome.note,
                      "key": outcome.key}, default=str))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, metavar="OP_INDEX")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.replay is not None:
        replay(workload, args.seed, args.replay)
        return 0

    env = environment()
    if env["blas_threads"] not in (None, 1):
        sys.exit(f"error: BLAS runs {env['blas_threads']} threads; the benchmark needs 1")
    order = np.random.default_rng(
        np.random.SeedSequence([args.seed, workload.tag, 0xC0FFEE])).permutation(workload.corpus)
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "unit": workload.unit, "loop": "closed, 1 client, 1 process",
              "environment": env}

    if args.trace == 0:
        ledger, metrics, samples, extra = end_to_end(workload, args.seed, args.seconds, order)
        for name, m in metrics.items():
            unscaled = extra["unscaled"].get(name)
            note = "" if unscaled is None else f", unscaled {unscaled:.6g}"
            print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']} "
                  f"(samples: {samples[name]}{note})")
        report.update(samples=samples, **extra)
        correct = not ledger.unexpected and not ledger.nondeterministic
    else:
        specs = workload.plan(args.seed)
        ledger, values, extra = traced(workload, args.seed, args.seconds, order, specs)
        units = per_layer_units(ROOT / "BENCHMARK.json")
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
        report.update(extra)
        correct = (not ledger.unexpected and not ledger.nondeterministic
                   and extra["counts_repeat"] and extra["wrappers_left"] == 0)

    report.update(
        digest=ledger.digest(),
        known_defects=ledger.known,
        failed_share=(ledger.failed + ledger.known) / ledger.attempted,
        first_failures=ledger.first_failures(),
        unexpected_failures=ledger.unexpected,
        nondeterministic_outcomes=ledger.nondeterministic,
    )
    print("report " + json.dumps(report, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
