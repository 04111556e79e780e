"""The four benchmark workloads: seeded inputs, the operation, the oracle.

Each workload turns a seed into a fixed corpus of inputs. ``plan`` draws
the per-item parameters for the whole corpus from one generator, with
the cost-driving parameters (sizes, condition numbers) stratified or on
a fixed grid, so that two seeds give corpora of nearly equal cost. ``build`` makes the
matrices of one item from its own ``(seed, tag, index)`` generator, so
any item can be rebuilt alone for replay. ``run`` is the timed
operation. ``check`` is the oracle: it judges the output with numpy
and json only, never with mpinv, and returns an ``Outcome``.

The workloads call mpinv through module attributes (``ro.full_report``
rather than an imported name) so that the tracer's rebinding of those
attributes also catches the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

# The package namespace re-exports a function named ``pinv`` over the
# submodule of that name, so submodules are fetched by import path.
cli, harness, isometry, mp_hermitian, pinv_mod, ro = (
    importlib.import_module(f"mpinv.{name}")
    for name in ("cli", "harness", "isometry", "mp_hermitian", "pinv", "reverse_order")
)

EPS = float(np.finfo(np.float64).eps)
# The library's default equality threshold; the oracles accept what the
# library itself promises at that threshold.
EQ_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """The oracle's judgement of one operation.

    ``key`` is what the digest hashes: verdicts, ranks, exit codes.
    ``known`` marks a failure that falls in a defect class documented
    in bench/README.md (wrong verdicts on 2^k-scaled pairs, refusals by
    ``PenroseResidualError``); any other failure makes the run
    incorrect.
    """

    ok: bool
    key: tuple
    known: bool = False
    note: str = ""


def refused(error) -> bool:
    """A ``pinv`` refusal: the known defect class of ROADMAP item 1."""
    return isinstance(error, pinv_mod.PenroseResidualError)


def plan_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def item_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(index)]))


def _strata(rng, count: int) -> np.ndarray:
    """``count`` points in [0, 1), one in each of ``count`` equal strata,
    in random order (one column of a Latin hypercube)."""
    return (rng.permutation(count) + rng.random(count)) / count


def _spread(u, lo: int, hi: int) -> np.ndarray:
    """Map stratified points in [0, 1) onto the integers lo..hi."""
    return lo + np.floor(u * (hi - lo + 1)).astype(int)


# ---- numpy reference helpers (the oracles' independent arithmetic) ----


def np_pinv(a):
    """Pseudoinverse with the library's rank cutoff ``s_max * max(m, n) * eps``."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cut = (s[0] if s.size else 0.0) * max(a.shape) * EPS
    keep = s > cut
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def _rel(x, y) -> float:
    scale = max(np.linalg.norm(x), np.linalg.norm(y))
    return float(np.linalg.norm(x - y) / scale) if scale > 0 else 0.0


def rol_holds(a, b) -> bool:
    """Reverse order law decided by numpy: ``(ab)^+ = b^+ a^+``.

    The constructed pairs either satisfy the law to rounding error or
    miss it by O(1), so a 1e-6 threshold separates them with room on
    both sides.
    """
    return _rel(np_pinv(a @ b), np_pinv(b) @ np_pinv(a)) <= 1e-6


def matrix_dict(m) -> dict:
    """The canonical JSON form (see mpinv.matrix_io), written independently."""
    flat = np.asarray(m, dtype=np.complex128).ravel()
    data = np.column_stack([flat.real, flat.imag]).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def dict_matrix(obj) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=np.float64).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def write_matrix(m, path) -> int:
    text = json.dumps(matrix_dict(m), separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    unit = ""
    tag = 0
    corpus = 0  # items in one seed's corpus
    warmup = 0  # items run once, untimed, at the end of set-up
    trace_ops = 0  # items in one traced pass

    def plan(self, seed: int) -> list:
        raise NotImplementedError

    def build(self, seed: int, index: int, spec, workdir) -> dict:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output, error) -> Outcome:
        raise NotImplementedError

    def setup(self, seed: int, workdir) -> list:
        return [self.build(seed, i, s, workdir) for i, s in enumerate(self.plan(seed))]

    def op_bytes(self, item, output) -> tuple:
        """(bytes read, bytes written, stdout bytes) by one operation."""
        return (0, 0, 0)


# ---- rol_corpus -------------------------------------------------------

ROL_SOURCES = ("random", "forced_unitary", "forced_pinv", "diagonal", "negative", "mbekhta_gap")
ROL_EXPECTED = {"forced_unitary": True, "forced_pinv": True, "diagonal": True, "negative": False}
MP_IDS = tuple(c.value for c in ro.MP_ROL_CONDITIONS)
GI_IDS = tuple(c.value for c in ro.MBEKHTA_CONDITIONS)
ALL_IDS = tuple(c.value for c in ro.ConditionId)


def _rol_pair(source, n, rng):
    if source == "diagonal":
        entries = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        entries[rng.random(n) < 0.3] = 0.0
        return np.diag(entries), np.diag(entries[::-1].copy())
    if source == "negative":
        return harness.rol_negative_pair(n, rng)
    if source == "mbekhta_gap":
        return harness.mbekhta_gap_pair(n, rng)
    return harness.generate_rol_pair(n, source, rng)


def rol_verdict_check(source, report, truth) -> list:
    """Oracle for one full catalog report; returns the list of problems.

    The 16 Moore-Penrose conditions must agree with ROL_DIRECT, the
    generalized-inverse trio with MBEKHTA_GI, and ROL_DIRECT with the
    pair's known truth: by construction for the constructed families,
    by numpy for random pairs.
    """
    v = report["verdicts"]
    rol = v["ROL_DIRECT"]
    problems = [f"mp:{c}" for c in MP_IDS if v[c] != rol]
    problems += [f"gi:{c}" for c in GI_IDS if v[c] != v["MBEKHTA_GI"]]
    if rol != truth:
        problems.append(f"rol_direct:{rol}")
    if source == "mbekhta_gap" and not v["MBEKHTA_GI"]:
        problems.append("mbekhta_gap_witness")
    return problems


class RolCorpus(Workload):
    """``full_report`` on pre-generated pairs, n in [1, 12].

    The sources cycle through the acceptance-criterion-3 families. Every
    fourth cycle of six is rescaled by an exact 2^k, k in [-40, 40], so
    a quarter of the pairs are scaled and every family is among them.
    Exact power-of-two scaling cannot change whether the law holds.
    """

    name = "rol_corpus"
    unit = "pair"
    tag = 1
    corpus = 2400
    warmup = 60
    trace_ops = 240

    def plan(self, seed):
        rng = plan_rng(seed, self.tag)
        per_source = self.corpus // len(ROL_SOURCES)
        sizes = {s: _strata(rng, per_source) for s in ROL_SOURCES}
        specs = []
        for i in range(self.corpus):
            source = ROL_SOURCES[i % len(ROL_SOURCES)]
            lo = 2 if source in ("negative", "mbekhta_gap") else 1
            n = int(_spread(sizes[source][i // len(ROL_SOURCES)], lo, 12))
            scaled = (i // len(ROL_SOURCES)) % 4 == 3
            k = int(rng.integers(-40, 41)) if scaled else 0
            specs.append((source, n, scaled, k))
        return specs

    def build(self, seed, index, spec, workdir):
        source, n, scaled, k = spec
        a, b = _rol_pair(source, n, item_rng(seed, self.tag, index))
        if scaled:
            a, b = a * 2.0**k, b * 2.0**k
        return {"index": index, "source": source, "n": n, "scaled": scaled, "k": k,
                "a": a, "b": b}

    def run(self, item):
        return ro.full_report(item["a"], item["b"])

    def truth(self, item) -> bool:
        if item["source"] in ROL_EXPECTED:
            return ROL_EXPECTED[item["source"]]
        if item["source"] == "mbekhta_gap":
            return False
        if "truth" not in item:
            scale = 2.0 ** -item["k"]
            item["truth"] = rol_holds(item["a"] * scale, item["b"] * scale)
        return item["truth"]

    def check(self, item, output, error):
        scaled = item["k"] != 0
        if error is not None:
            return Outcome(False, ("raised", type(error).__name__), scaled or refused(error),
                           f"{type(error).__name__}: {error}")
        report = output.as_dict()
        problems = rol_verdict_check(item["source"], report, self.truth(item))
        bits = "".join("1" if report["verdicts"][c] else "0" for c in ALL_IDS)
        ranks = tuple(report["ranks"][s] for s in ("a", "b", "ab"))
        return Outcome(not problems, (bits, ranks), scaled, ",".join(problems))


# ---- certify_sweep ----------------------------------------------------

class CertifySweep(Workload):
    """One ``pinv(a)`` per operation on rectangular matrices.

    m, n in [1, 64], rank r in [1, min(m, n)]. The singular values span
    a condition number log-uniform in [1, 1e12] (stratified), times an
    exact 2^k, k in [-40, 40].
    """

    name = "certify_sweep"
    unit = "matrix"
    tag = 2
    corpus = 1500
    warmup = 60
    trace_ops = 400

    def plan(self, seed):
        rng = plan_rng(seed, self.tag)
        ms = _spread(_strata(rng, self.corpus), 1, 64)
        ns = _spread(_strata(rng, self.corpus), 1, 64)
        log_kappa = 12.0 * _strata(rng, self.corpus)
        specs = []
        for m, n, lk in zip(ms, ns, log_kappa):
            r = int(rng.integers(1, min(m, n) + 1))
            k = int(rng.integers(-40, 41))
            specs.append((int(m), int(n), r, float(lk), k))
        return specs

    def build(self, seed, index, spec, workdir):
        m, n, r, log_kappa, k = spec
        rng = item_rng(seed, self.tag, index)
        inner = np.sort(rng.uniform(-log_kappa, 0.0, size=max(r - 2, 0)))[::-1]
        exps = np.concatenate([[0.0], inner, [-log_kappa]])[:r]
        sv = 10.0 ** exps * 2.0**k
        a = isometry.matrix_with_singular_values(sv, (m, n), rng)
        return {"index": index, "m": m, "n": n, "rank": r, "log_kappa": log_kappa,
                "k": k, "a": a}

    def run(self, item):
        return pinv_mod.pinv(item["a"])

    def check(self, item, output, error):
        if error is not None:
            return Outcome(False, ("raised", type(error).__name__), refused(error),
                           f"{type(error).__name__} at log10(kappa)={item['log_kappa']:.2f}"
                           f", k={item['k']}")
        problems = []
        if output.pinv.shape != (item["n"], item["m"]):
            problems.append(f"shape {output.pinv.shape}")
        if output.rank != item["rank"]:
            problems.append(f"rank {output.rank} != {item['rank']}")
        return Outcome(not problems, ("ok", output.rank), False, ",".join(problems))


# ---- fuzz_campaign ----------------------------------------------------

FUZZ_SUITES = ("penrose", "formulations", "rol", "mph", "isometry")
REFUSAL_RECORD = "trial_exception:PenroseResidualError:"


class FuzzCampaign(Workload):
    """``run_trial`` cycling through the five suites at max_dim 8.

    Inputs are generated inside each trial from (trial seed, trial
    index); the trial seed is derived from the workload seed.
    """

    name = "fuzz_campaign"
    unit = "trial"
    tag = 3
    corpus = 2500
    warmup = 100
    trace_ops = 250
    max_dim = 8

    def plan(self, seed):
        trial_seed = int(plan_rng(seed, self.tag).integers(0, 2**63))
        return [(FUZZ_SUITES[i % len(FUZZ_SUITES)], trial_seed, i) for i in range(self.corpus)]

    def build(self, seed, index, spec, workdir):
        suite, trial_seed, trial_index = spec
        return {"index": index, "suite": suite, "seed": trial_seed, "trial": trial_index}

    def run(self, item):
        return harness.run_trial(item["suite"], item["seed"], item["trial"], self.max_dim)

    def check(self, item, output, error):
        if error is not None:
            return Outcome(False, ("raised", type(error).__name__), False, str(error))
        pairs = tuple(sorted(f.condition_pair for f in output))
        # run_trial records a pinv refusal as "penrose_system" (penrose
        # suite) or as a trial exception (the other suites).
        known = all(p == "penrose_system" or p.startswith(REFUSAL_RECORD) for p in pairs)
        return Outcome(not pairs, (item["suite"], pairs), known, ",".join(pairs))


# ---- cli_requests -----------------------------------------------------

CLI_KINDS = ("pinv", "classify", "conorm", "decompose", "rol")
GOLDEN = (5**0.5 - 1) / 2
CLI_ROL_SOURCES = ("forced_unitary", "forced_pinv", "negative", "mbekhta_gap", "random")


class CliRequests(Workload):
    """In-process ``mpinv.cli.main`` calls on JSON files, n in [2, 48].

    The mix cycles ``pinv --out``, ``classify``, ``conorm``,
    ``decompose`` (on MPH inputs) and ``rol``; each kind's sizes run
    over one fixed grid on [2, 48], ranks over a fixed spread of
    fractions of the size, and the seed draws the matrices and the order.
    """

    name = "cli_requests"
    unit = "request"
    tag = 4
    corpus = 250
    warmup = 10
    trace_ops = 100

    def plan(self, seed):
        per_kind = self.corpus // len(CLI_KINDS)
        # One fixed grid of sizes and ranks for every seed: with only a
        # few dozen requests of each kind, the largest few set p99, so
        # their cost must not depend on the seed. The cost follows the
        # rank too (decompose at n = 44 takes 24 ms at rank 1 and 43 ms
        # at rank 44), and seeded ranks moved p99 by 10% between seeds.
        grid = [2 + round(j * 46 / (per_kind - 1)) for j in range(per_kind)]
        specs = []
        for i in range(self.corpus):
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            j = i // len(CLI_KINDS)
            n = grid[j]
            rows = grid[per_kind - 1 - j] if kind == "pinv" else n
            # Golden-ratio steps spread the rank fractions evenly over (0, 1).
            fraction = ((j + 1) * GOLDEN + (i % len(CLI_KINDS)) / len(CLI_KINDS)) % 1.0
            rank = 1 + int(fraction * min(rows, n))
            source = CLI_ROL_SOURCES[j % len(CLI_ROL_SOURCES)] if kind == "rol" else None
            specs.append((kind, rows, n, rank, source))
        return specs

    def build(self, seed, index, spec, workdir):
        kind, rows, n, rank, source = spec
        rng = item_rng(seed, self.tag, index)
        item = {"index": index, "kind": kind, "rows": rows, "n": n, "rank": rank,
                "source": source, "bytes_in": 0}

        def put(name, m):
            path = os.path.join(workdir, f"{index}_{name}.json")
            item["bytes_in"] += write_matrix(m, path)
            item[name] = m
            return path

        if kind == "rol":
            a, b = _rol_pair(source, n, rng)
            item["argv"] = ["rol", "--a", put("a", a), "--b", put("b", b)]
        elif kind == "decompose":
            m = mp_hermitian.generate_mp_hermitian(n, rank, rng)
            item["argv"] = ["decompose", "--in", put("a", m)]
        else:
            m = harness.generate_regular(rows, n, rank, seed=rng)
            item["argv"] = [kind, "--in", put("a", m)]
            if kind == "pinv":
                item["out"] = os.path.join(workdir, f"{index}_out.json")
                item["argv"] += ["--out", item["out"]]
        return item

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item["argv"]))
        return code, out.getvalue(), err.getvalue()

    def op_bytes(self, item, output):
        written = os.path.getsize(item["out"]) if item["kind"] == "pinv" else 0
        return item["bytes_in"], written, len(output[1].encode())

    def check(self, item, output, error):
        if error is not None:
            return Outcome(False, ("raised", type(error).__name__), refused(error), str(error))
        code, stdout, stderr = output
        if code != 0:
            return Outcome(False, ("exit", code), False, stderr.strip()[:200])
        try:
            payload = json.loads(stdout)
            problems = getattr(self, "_check_" + item["kind"])(item, payload)
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(False, ("unparsable", code), False, f"{type(exc).__name__}: {exc}")
        summary = (payload.get("rank"), payload.get("partial_isometry"),
                   tuple(sorted((payload.get("verdicts") or {}).items())))
        return Outcome(not problems, ("exit", code, item["kind"], summary), False,
                       ",".join(problems))

    def _check_pinv(self, item, payload):
        problems = []
        if payload["rank"] != item["rank"]:
            problems.append(f"rank {payload['rank']} != {item['rank']}")
        with open(item["out"], encoding="utf-8") as fh:
            x = dict_matrix(json.load(fh))
        if _rel(x, np_pinv(item["a"])) > 1e-6:
            problems.append("written pinv differs from numpy")
        if _rel(x, dict_matrix(payload["pinv"])) != 0.0:
            problems.append("written pinv differs from printed pinv")
        return problems

    def _spectrum_checks(self, item, payload):
        s = np.linalg.svd(item["a"], compute_uv=False)
        r = item["rank"]
        problems = []
        if abs(payload["op_norm"] - s[0]) > 1e-9 * s[0]:
            problems.append("op_norm")
        if abs(payload["conorm"] - s[r - 1]) > 1e-9 * s[0]:
            problems.append("conorm")
        if abs(payload["pinv_norm"] * s[r - 1] - 1.0) > 1e-6:
            problems.append("pinv_norm")
        return problems

    def _check_classify(self, item, payload):
        problems = self._spectrum_checks(item, payload)
        if payload["rank"] != item["rank"]:
            problems.append(f"rank {payload['rank']} != {item['rank']}")
        return problems

    def _check_conorm(self, item, payload):
        return self._spectrum_checks(item, payload)

    def _check_decompose(self, item, payload):
        h2 = dict_matrix(payload["h2"])
        t2 = dict_matrix(payload["t2"])
        problems = []
        if h2.shape[1] != item["rank"]:
            problems.append(f"range dim {h2.shape[1]} != {item['rank']}")
        if _rel(h2 @ t2 @ h2.conj().T, item["a"]) > EQ_TOL:
            problems.append("mph round trip")
        return problems

    def _check_rol(self, item, payload):
        source = item["source"]
        if source in ROL_EXPECTED or source == "mbekhta_gap":
            truth = ROL_EXPECTED.get(source, False)
        else:
            if "truth" not in item:
                item["truth"] = rol_holds(item["a"], item["b"])
            truth = item["truth"]
        return rol_verdict_check(source, payload, truth)


WORKLOADS = {w.name: w for w in (RolCorpus, CertifySweep, FuzzCampaign, CliRequests)}
