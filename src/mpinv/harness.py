"""Seeded random instance generation and fuzz campaigns.

Every identity in the package is an exact theorem, so the harness's
job is to hammer each equivalence with random and adversarial
instances and report any verdict disagreement as a replayable failure
record.  Each trial derives its own RNG from (seed, trial_index), so
trials are order-independent and any failure can be replayed in
isolation with ``run_trial``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    as_rng,
    frobenius_norm,
    haar_unitary,
    residual,
)
from .isometry import (
    gram_projection_residual,
    is_partial_isometry,
    matrix_with_singular_values,
    norm_conorm_check,
    normal_mph_check,
    operator_norm,
    random_hermitian_partial_isometry,
    random_partial_isometry,
)
from .matrix_io import matrix_to_dict
from .mp_hermitian import (
    algebraic_mph_check,
    annihilator_spectrum_check,
    generate_mp_hermitian,
    is_mp_hermitian,
    mph_decompose,
    mph_subspace_check,
)
from .pinv import FormulationId, PenroseResidualError, formulation_residual, pinv
from .reverse_order import (
    MBEKHTA_CONDITIONS,
    MP_ROL_CONDITIONS,
    ConditionId,
    full_report,
)

__all__ = [
    "FuzzSuite",
    "FuzzConfig",
    "FuzzReport",
    "TrialFailure",
    "generate_regular",
    "generate_rol_pair",
    "rol_negative_pair",
    "mbekhta_gap_pair",
    "nonnormal_mph_fixture",
    "nonhermitian_partial_isometry_fixture",
    "fuzz",
    "run_trial",
]

_SEED_MASK = (1 << 64) - 1


class FuzzSuite(str, Enum):
    PENROSE = "penrose"
    FORMULATIONS = "formulations"
    ROL = "rol"
    MPH = "mph"
    ISOMETRY = "isometry"
    ALL = "all"


@dataclass(frozen=True)
class FuzzConfig:
    suite: FuzzSuite
    trials: int
    max_dim: int
    seed: int
    tolerance: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "suite", FuzzSuite(self.suite))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (1 <= self.max_dim <= 64):
            raise ValueError("max_dim must be in [1, 64]")


@dataclass(frozen=True)
class TrialFailure:
    suite: str
    seed: int
    trial_index: int
    condition_pair: str
    residuals: dict
    matrices: dict

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trial_index": self.trial_index,
            "condition_pair": self.condition_pair,
            "residuals": dict(self.residuals),
            "matrices": dict(self.matrices),
        }


@dataclass
class FuzzReport:
    suite: str
    trials_run: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials_run": self.trials_run,
            "failures": [f.as_dict() for f in self.failures],
            "elapsed": self.elapsed,
        }


def generate_regular(m, n, r, sv_low=0.5, sv_high=2.0, seed=0) -> np.ndarray:
    """Seeded m-by-n matrix with exactly r singular values in [sv_low, sv_high].

    The values are drawn uniformly, then ``matrix_with_singular_values``
    builds the matrix from the same stream; rank 0 gives the zero
    matrix.  Deterministic per argument tuple.
    """
    if not (0 <= r <= min(m, n)):
        raise ValueError(f"rank r={r} must be in [0, {min(m, n)}]")
    if r > 0 and not (0 < sv_low <= sv_high < math.inf):
        raise ValueError("need 0 < sv_low <= sv_high < inf")
    rng = as_rng(seed)
    sv = rng.uniform(sv_low, sv_high, size=r) if r else ()
    return matrix_with_singular_values(sv, (m, n), rng)


class RolPairMode(str, Enum):
    FORCED_UNITARY = "forced_unitary"
    FORCED_PINV = "forced_pinv"
    RANDOM = "random"


def _mixed_rank(rng, dim) -> int:
    # Uniform over 0..dim with the rank-0 probability floored at 5%.
    if rng.random() < 0.05:
        return 0
    return int(rng.integers(0, dim + 1))


def generate_rol_pair(n, mode, seed):
    """Seeded (a, b) pair of n-by-n matrices for reverse-order testing.

    forced_unitary and forced_pinv construct pairs where the reverse
    order law provably holds (unitary a; b = a^+, making ab a hermitian
    projection); random draws two independent regular matrices with
    mixed ranks.
    """
    mode = RolPairMode(mode)
    rng = as_rng(seed)
    if mode is RolPairMode.FORCED_UNITARY:
        a = haar_unitary(n, rng)
        b = generate_regular(n, n, _mixed_rank(rng, n), seed=rng)
    elif mode is RolPairMode.FORCED_PINV:
        a = generate_regular(n, n, _mixed_rank(rng, n), seed=rng)
        b = pinv(a).pinv
    else:
        a = generate_regular(n, n, _mixed_rank(rng, n), seed=rng)
        b = generate_regular(n, n, _mixed_rank(rng, n), seed=rng)
    return a, b


def _padded(base, n):
    """The 2-by-2 ``base`` in the top-left corner of an n-by-n zero matrix."""
    padded = np.zeros((n, n), dtype=np.complex128)
    padded[:2, :2] = base
    return padded


def _rotated_pair(a0, b0, n, seed):
    """``(u a0 v*, v b0 w*)`` for padded 2-by-2 bases and seeded Haar u, v, w.

    The shared v makes the product ``u a0 b0 w*`` a rotation of the base
    product, so every catalog residual of the base pair carries over.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = as_rng(seed)
    u, v, w = (haar_unitary(n, rng) for _ in range(3))
    return u @ _padded(a0, n) @ adjoint(v), v @ _padded(b0, n) @ adjoint(w)


def _rotated_similarity(base, n, seed):
    """``q base q*`` for a padded 2-by-2 base and a seeded Haar q."""
    if n < 2:
        raise ValueError("need n >= 2")
    q = haar_unitary(n, as_rng(seed))
    return q @ _padded(base, n) @ adjoint(q)


def rol_negative_pair(n, seed):
    """Pair with every Moore-Penrose reverse-order condition false.

    Built from the base pair a = diag(1, 0), b = [[1, 0], [1, 0]]
    (where (ab)^+ and b^+ a^+ differ by a factor of 2), zero-padded to
    size n and rotated by matched unitaries, which leaves all catalog
    residuals unchanged.  Needs n >= 2.
    """
    return _rotated_pair([[1, 0], [0, 0]], [[1, 0], [1, 0]], n, seed)


def mbekhta_gap_pair(n, seed):
    """Pair where b^+ a^+ is a generalized inverse of ab but not its
    pseudoinverse: the generalized-inverse trio holds while every
    Moore-Penrose condition fails.  Base: a = diag(1, 0), b = [[1, 1], [0, 1]].
    """
    return _rotated_pair([[1, 0], [0, 0]], [[1, 1], [0, 1]], n, seed)


def nonnormal_mph_fixture(n, seed):
    """MPH but not normal: [[1, 1], [0, -1]] padded and rotated. n >= 2."""
    return _rotated_similarity([[1, 1], [0, -1]], n, seed)


def nonhermitian_partial_isometry_fixture(n, seed):
    """Partial isometry but not hermitian: the unit shift, padded and
    rotated. n >= 2."""
    return _rotated_similarity([[0, 1], [0, 0]], n, seed)


def _jsonable(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    return v


def _trial_penrose(rng, max_dim, tol, fail):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    r = _mixed_rank(rng, min(m, n))
    a = generate_regular(m, n, r, sv_low=0.25, sv_high=4.0, seed=rng)
    try:
        result = pinv(a, tol)
    except PenroseResidualError as exc:
        fail("penrose_system", exc.residuals.as_dict(), {"a": a})
        return
    x = result.pinv
    if not result.residuals.within(tol):
        fail("penrose_system", result.residuals.as_dict(), {"a": a, "x": x})

    res = residual(pinv(x, tol).pinv - a, frobenius_norm(a))
    if res > tol.eq_tol:
        fail("double_pinv_identity", {"residual": res}, {"a": a})

    res = residual(pinv(adjoint(a), tol).pinv - adjoint(x), frobenius_norm(x))
    if res > tol.eq_tol:
        fail("adjoint_pinv_commute", {"residual": res}, {"a": a})

    for name, proj in (("left", x @ a), ("right", a @ x)):
        res = residual(pinv(proj, tol).pinv - proj, frobenius_norm(proj))
        if res > tol.eq_tol:
            fail(f"projection_self_pinv_{name}", {"residual": res}, {"a": a})


def _trial_formulations(rng, max_dim, tol, fail):
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    r = int(rng.integers(1, min(m, n) + 1))
    a = generate_regular(m, n, r, sv_low=0.5, sv_high=2.0, seed=rng)
    x = pinv(a, tol).pinv
    # The exact pseudoinverse satisfies all twelve formulations; a
    # multiplicative perturbation of relative size 1e-3 breaks every
    # equation in each of them.
    x_bad = (1.0 + 1e-3) * x
    for fid in FormulationId:
        res = formulation_residual(a, x, fid)
        if res > tol.eq_tol:
            fail(f"formulation_true:{fid.value}", {"residual": res}, {"a": a, "x": x})
        res_bad = formulation_residual(a, x_bad, fid)
        if res_bad <= tol.eq_tol:
            fail(
                f"formulation_perturbed:{fid.value}",
                {"residual": res_bad},
                {"a": a, "x": x_bad},
            )


_ROL_SOURCES = (
    "random",
    "random",
    "random",
    "forced_unitary",
    "forced_pinv",
    "diagonal",
    "negative",
    "mbekhta_gap",
)


def _random_diagonal(n, rng):
    entries = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    entries[rng.random(n) < 0.3] = 0.0
    return np.diag(entries)


def _trial_rol(rng, max_dim, tol, fail):
    n = int(rng.integers(1, max_dim + 1))
    source = _ROL_SOURCES[int(rng.integers(0, len(_ROL_SOURCES)))]
    if n < 2 and source in ("negative", "mbekhta_gap"):
        source = "random"
    if source == "diagonal":
        a, b = _random_diagonal(n, rng), _random_diagonal(n, rng)
    elif source == "negative":
        a, b = rol_negative_pair(n, rng)
    elif source == "mbekhta_gap":
        a, b = mbekhta_gap_pair(n, rng)
    else:
        a, b = generate_rol_pair(n, source, rng)

    report = full_report(a, b, tol)
    verdicts = report.verdicts

    # Each family of conditions must agree with its anchor.
    for family, anchor, conditions in (
        ("rol_equivalence", ConditionId.ROL_DIRECT.value, MP_ROL_CONDITIONS),
        ("mbekhta_equivalence", ConditionId.MBEKHTA_GI.value, MBEKHTA_CONDITIONS),
    ):
        disagree = [c.value for c in conditions if verdicts[c.value] != verdicts[anchor]]
        if disagree:
            fail(
                f"{family}:" + ",".join(disagree),
                {c: report.residuals[c] for c in disagree + [anchor]},
                {"a": a, "b": b},
            )
    rol = verdicts[ConditionId.ROL_DIRECT.value]
    gi = verdicts[ConditionId.MBEKHTA_GI.value]

    # One direction of the chain, on its own looser budget.
    if verdicts[ConditionId.T31_II.value]:
        res = report.residuals[ConditionId.T31_III.value]
        if res > 10 * tol.eq_tol:
            fail("t31_ii_implies_iii", {"residual": res}, {"a": a, "b": b})

    expected = {
        "forced_unitary": True,
        "forced_pinv": True,
        "diagonal": True,
        "negative": False,
    }.get(source)
    if expected is not None and rol != expected:
        fail(
            f"constructed_{source}_rol_{expected}",
            {"ROL_DIRECT": report.residuals[ConditionId.ROL_DIRECT.value]},
            {"a": a, "b": b},
        )
    if source == "mbekhta_gap" and not (gi and not rol):
        fail(
            "mbekhta_gap_witness",
            {
                "MBEKHTA_GI": report.residuals[ConditionId.MBEKHTA_GI.value],
                "ROL_DIRECT": report.residuals[ConditionId.ROL_DIRECT.value],
            },
            {"a": a, "b": b},
        )


def _trial_mph(rng, max_dim, tol, fail):
    n = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(0, n + 1))
    a = generate_mp_hermitian(n, k, rng)

    if not is_mp_hermitian(a, tol):
        fail("generated_mph_detected", {}, {"a": a})
        return
    if not algebraic_mph_check(a, tol):
        fail("mph_algebraic_agreement", {}, {"a": a})
    if not annihilator_spectrum_check(a, tol):
        fail("mph_annihilator", {}, {"a": a})
    if not is_mp_hermitian(adjoint(a), tol):
        fail("mph_adjoint_closure", {}, {"a": a})
    power = a
    for exponent in (2, 3, 4, 5):
        power = power @ a
        if not is_mp_hermitian(power, tol):
            fail(f"mph_power_closure:{exponent}", {}, {"a": a})
    sub = mph_subspace_check(a, tol)
    if not sub.all_true():
        fail("mph_subspace_conjunction", sub.residuals, {"a": a})
    dec = mph_decompose(a, tol)
    if dec.reconstruction_residual > tol.eq_tol:
        fail(
            "mph_decompose_roundtrip",
            {"reconstruction": dec.reconstruction_residual},
            {"a": a},
        )

    # Random (generically non-MPH) matrix: the three detection routes
    # must agree with each other.
    m = int(rng.integers(1, max_dim + 1))
    b = generate_regular(m, m, _mixed_rank(rng, m), sv_low=0.5, sv_high=2.0, seed=rng)
    flags = (
        is_mp_hermitian(b, tol),
        algebraic_mph_check(b, tol),
        mph_subspace_check(b, tol).all_true(),
    )
    if len(set(flags)) != 1:
        fail(
            "mph_detection_agreement",
            {"pinv_def": flags[0], "algebraic": flags[1], "subspace": flags[2]},
            {"a": b},
        )


_ISOMETRY_SOURCES = (
    "random",
    "random",
    "hermitian_pi",
    "nonnormal_mph",
    "nonhermitian_pi",
    "random_pi",
    "prescribed",
)


def _trial_isometry(rng, max_dim, tol, fail):
    n = int(rng.integers(1, max_dim + 1))
    source = _ISOMETRY_SOURCES[int(rng.integers(0, len(_ISOMETRY_SOURCES)))]
    if n < 2 and source in ("nonnormal_mph", "nonhermitian_pi"):
        source = "random"

    expected_sides = None
    if source == "hermitian_pi":
        plus = int(rng.integers(1, n + 1))
        minus = int(rng.integers(0, n - plus + 1))
        a = random_hermitian_partial_isometry(n, (plus, minus, n - plus - minus), rng)
        expected_sides = True
    elif source == "nonnormal_mph":
        a = nonnormal_mph_fixture(n, rng)
        expected_sides = False
    elif source == "nonhermitian_pi":
        a = nonhermitian_partial_isometry_fixture(n, rng)
        expected_sides = False
    elif source == "random_pi":
        a = random_partial_isometry(n, int(rng.integers(1, n + 1)), rng)
    elif source == "prescribed":
        r = int(rng.integers(1, n + 1))
        sv = rng.uniform(0.25, 4.0, size=r)
        a = matrix_with_singular_values(sv, (n, n), rng)
    else:
        a = generate_regular(
            n, n, _mixed_rank(rng, n), sv_low=0.25, sv_high=4.0, seed=rng
        )

    result = pinv(a, tol)
    rank = result.rank
    if rank > 0:
        c = float(result.factorization.sigma[rank - 1])
        pinv_norm = operator_norm(result.pinv)
        if abs(c * pinv_norm - 1.0) > tol.eq_tol:
            fail(
                "conorm_pinv_norm_reciprocal",
                {"conorm": c, "pinv_norm": pinv_norm},
                {"a": a},
            )
        prop = norm_conorm_check(a, tol)
        if not prop.verdicts["consistent"]:
            fail("norm_conorm_consistency", prop.residuals, {"a": a})

    theo = normal_mph_check(a, tol)
    if not theo.verdicts["consistent"]:
        fail("normal_mph_consistency", theo.residuals, {"a": a})
    if expected_sides is not None and theo.verdicts["normal_mp_hermitian"] != expected_sides:
        fail(
            f"normal_mph_expected_{expected_sides}",
            theo.residuals,
            {"a": a},
        )

    pi = is_partial_isometry(a, tol)
    if pi != is_partial_isometry(adjoint(a), tol):
        fail("partial_isometry_adjoint_agreement", {}, {"a": a})
    gram = {side: gram_projection_residual(a, side) for side in ("left", "right")}
    if len({pi, gram["left"] <= tol.eq_tol, gram["right"] <= tol.eq_tol}) != 1:
        fail("partial_isometry_gram_agreement", gram, {"a": a})


_TRIAL_BODIES = {
    FuzzSuite.PENROSE: _trial_penrose,
    FuzzSuite.FORMULATIONS: _trial_formulations,
    FuzzSuite.ROL: _trial_rol,
    FuzzSuite.MPH: _trial_mph,
    FuzzSuite.ISOMETRY: _trial_isometry,
}


def trial_rng(seed, trial_index) -> np.random.Generator:
    """Per-trial generator derived from (seed, trial_index) only."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & _SEED_MASK, int(trial_index)])
    )


def run_trial(suite, seed, trial_index, max_dim, tol: Tolerance = DEFAULT_TOL):
    """Run one fuzz trial; returns the list of TrialFailure records.

    Replaying a failure is exactly this call with the recorded
    arguments.
    """
    suite = FuzzSuite(suite)
    if suite is FuzzSuite.ALL:
        raise ValueError("run_trial needs a concrete suite, not 'all'")
    rng = trial_rng(seed, trial_index)
    failures = []

    def fail(pair, residuals, matrices):
        failures.append(
            TrialFailure(
                suite=suite.value,
                seed=int(seed),
                trial_index=int(trial_index),
                condition_pair=pair,
                residuals={k: _jsonable(v) for k, v in residuals.items()},
                matrices={k: matrix_to_dict(v) for k, v in matrices.items()},
            )
        )

    try:
        _TRIAL_BODIES[suite](rng, max_dim, tol, fail)
    except (ValueError, RuntimeError) as exc:
        # Failures are data, not errors: an exception inside a trial
        # becomes a replayable record like any other finding.
        fail(f"trial_exception:{type(exc).__name__}:{exc}", {}, {})
    return failures


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Run a fuzz campaign; failures are data in the report, not errors."""
    start = time.perf_counter()
    if config.suite is FuzzSuite.ALL:
        suites = [s for s in FuzzSuite if s is not FuzzSuite.ALL]
    else:
        suites = [config.suite]
    failures = []
    trials_run = 0
    for suite in suites:
        for trial_index in range(config.trials):
            failures.extend(
                run_trial(suite, config.seed, trial_index, config.max_dim, config.tolerance)
            )
            trials_run += 1
    failures.sort(key=lambda f: (f.suite, f.trial_index))
    return FuzzReport(
        suite=config.suite.value,
        trials_run=trials_run,
        failures=failures,
        elapsed=time.perf_counter() - start,
    )
