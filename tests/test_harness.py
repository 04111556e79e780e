"""Tests for generators, fuzz campaigns, and replay determinism."""

import hashlib
import json

import numpy as np
import pytest

from mpinv import (
    ConditionId,
    FuzzConfig,
    PenroseResidualError,
    Tolerance,
    adjoint,
    evaluate_condition,
    frobenius_norm,
    fuzz,
    generate_regular,
    generate_rol_pair,
    harness,
    is_mp_hermitian,
    isometry,
    mbekhta_gap_pair,
    nonhermitian_partial_isometry_fixture,
    nonnormal_mph_fixture,
    numerical_rank,
    pinv,
    rol_negative_pair,
    run_trial,
    svd,
)

SUITES = ["penrose", "formulations", "rol", "mph", "isometry"]


class TestGenerateRegular:
    def test_full_rank_unit_values_is_unitary(self):
        a = generate_regular(2, 2, 2, sv_low=1.0, sv_high=1.0, seed=4)
        assert np.allclose(adjoint(a) @ a, np.eye(2), atol=1e-12)

    def test_rank_zero_is_zero(self):
        assert np.array_equal(generate_regular(4, 3, 0, seed=1), np.zeros((4, 3)))

    def test_rank_and_spectrum_window(self):
        a = generate_regular(5, 4, 2, sv_low=0.5, sv_high=2.0, seed=7)
        f = svd(a)
        assert numerical_rank(f) == 2
        kept = f.sigma[:2]
        assert np.all(kept >= 0.5 - 1e-12) and np.all(kept <= 2.0 + 1e-12)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            generate_regular(3, 3, 4, seed=0)
        with pytest.raises(ValueError):
            generate_regular(3, 3, 2, sv_low=0.0, sv_high=1.0, seed=0)

    def test_deterministic_per_arguments(self):
        a = generate_regular(6, 5, 3, seed=99)
        b = generate_regular(6, 5, 3, seed=99)
        assert np.array_equal(a, b)


class TestGenerateRolPair:
    def test_forced_unitary_satisfies_rol(self):
        for seed in range(20):
            a, b = generate_rol_pair(4, "forced_unitary", seed)
            assert evaluate_condition(a, b, ConditionId.ROL_DIRECT)[0]

    def test_forced_pinv_satisfies_rol(self):
        for seed in range(20):
            a, b = generate_rol_pair(4, "forced_pinv", seed)
            assert evaluate_condition(a, b, ConditionId.ROL_DIRECT)[0]

    def test_random_mode_hits_both_verdicts(self):
        verdicts = set()
        for seed in range(300):
            a, b = generate_rol_pair(2, "random", seed)
            verdicts.add(evaluate_condition(a, b, ConditionId.ROL_DIRECT)[0])
            if len(verdicts) == 2:
                break
        assert verdicts == {True, False}

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            generate_rol_pair(3, "bogus", 0)


class TestFuzz:
    @pytest.mark.parametrize("suite", SUITES)
    def test_suites_clean_at_default_tolerance(self, suite):
        report = fuzz(FuzzConfig(suite=suite, trials=60, max_dim=6, seed=314))
        assert report.trials_run == 60
        assert report.failures == []
        assert report.elapsed > 0

    def test_all_runs_every_suite(self):
        report = fuzz(FuzzConfig(suite="all", trials=5, max_dim=4, seed=2))
        assert report.trials_run == 5 * len(SUITES)
        assert report.failures == []

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            FuzzConfig(suite="all", trials=0, max_dim=4, seed=0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="max_dim"):
            FuzzConfig(suite="rol", trials=1, max_dim=65, seed=0)

    def test_report_round_trips_to_json(self):
        report = fuzz(FuzzConfig(suite="penrose", trials=3, max_dim=4, seed=5))
        parsed = json.loads(json.dumps(report.as_dict()))
        assert parsed["suite"] == "penrose"
        assert parsed["trials_run"] == 3


class TestReplayDeterminism:
    def test_identical_reports_bit_for_bit(self):
        config = FuzzConfig(suite="all", trials=10, max_dim=6, seed=911)
        first = fuzz(config).as_dict()
        second = fuzz(config).as_dict()
        first.pop("elapsed")
        second.pop("elapsed")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_trial_rng_is_order_independent(self):
        # Trial 7 alone must equal trial 7 inside a longer campaign.  At these
        # tolerances it finds a pinv refusal (rol) and records that hold the
        # trial's matrix (penrose).
        for suite, eq_tol in (("rol", 3e-16), ("penrose", 6e-16)):
            tol = Tolerance(eq_tol=eq_tol)
            alone = run_trial(suite, 555, 7, 6, tol)
            campaign = fuzz(FuzzConfig(suite=suite, trials=12, max_dim=6, seed=555,
                                       tolerance=tol))
            assert alone, suite
            assert alone == [f for f in campaign.failures if f.trial_index == 7]

    def test_failures_replay_exactly(self):
        # An impossibly tight tolerance turns ordinary rounding into
        # findings; every record must replay bit-for-bit from
        # (suite, seed, trial_index) alone.
        tight = Tolerance(eq_tol=float(np.finfo(np.float64).eps))
        config = FuzzConfig(suite="penrose", trials=20, max_dim=5, seed=77, tolerance=tight)
        report = fuzz(config)
        assert report.failures, "tight tolerance should produce findings"
        for record in report.failures[:5]:
            replayed = run_trial(
                record.suite, record.seed, record.trial_index, 5, tight
            )
            matches = [f for f in replayed if f.condition_pair == record.condition_pair]
            assert matches, record.condition_pair
            assert matches[0].as_dict() == record.as_dict()

    def test_failure_records_sorted_by_trial(self):
        tight = Tolerance(eq_tol=float(np.finfo(np.float64).eps))
        report = fuzz(FuzzConfig(suite="penrose", trials=10, max_dim=5, seed=7, tolerance=tight))
        indices = [f.trial_index for f in report.failures]
        assert indices == sorted(indices)

    @staticmethod
    def refused_trial(monkeypatch, trial_index):
        """The condition pairs of mph trial ``trial_index`` of seed 1 at eq_tol
        3e-16, the shape of each matrix the trial validates, in order, and the
        refusal each of its six matrices meets when certified alone."""
        shapes, drawn = [], []
        real_square, real_draw = harness.as_square, harness.generate_mp_hermitian
        monkeypatch.setattr(harness, "as_square", lambda m, *args, **kwargs:
                            shapes.append(np.shape(m)) or real_square(m, *args, **kwargs))
        monkeypatch.setattr(harness, "generate_mp_hermitian",
                            lambda *args: drawn.append(real_draw(*args)) or drawn[-1])
        tol = Tolerance(eq_tol=3e-16)
        pairs = [r.condition_pair for r in run_trial("mph", 1, trial_index, 8, tol)]
        (a,) = drawn
        a2 = a @ a
        a3 = a2 @ a
        a4 = a3 @ a
        alone = []
        for m in (a, adjoint(a), a2, a3, a4, a4 @ a):
            try:
                pinv(m, tol)
                alone.append(None)
            except PenroseResidualError as exc:
                alone.append(f"trial_exception:PenroseResidualError:{exc}")
        return pairs, shapes, alone

    @pytest.mark.parametrize("trial_index, closures", [(6, [2]), (341, [2, 3])])
    def test_refused_power_keeps_the_records_before_it(self, monkeypatch, trial_index,
                                                       closures):
        # At eq_tol 3e-16 these mph trials of seed 1 find their first powers
        # not MPH before pinv refuses the next one.  a, a* and a^2 .. a^5 are
        # certified as one stack; when it refuses, each is validated and
        # certified alone, in the trial's order, up to the refused one, so the
        # closure records come first and the refusal ends the trial with its
        # own message, as it did when each power was certified alone.
        pairs, shapes, alone = self.refused_trial(monkeypatch, trial_index)
        *found, refusal = pairs
        assert found == [f"mph_power_closure:{k}" for k in closures]
        assert refusal.startswith("trial_exception:PenroseResidualError:pseudoinverse residuals")
        n = shapes[0][-1]
        replayed = 3 + len(closures)  # a, a*, the powers not MPH and the refused one
        assert shapes == [(6, n, n)] + [(n, n)] * replayed
        assert alone[:replayed] == [None] * (replayed - 1) + [refusal]

    def test_refused_adjoint_keeps_the_records_before_it(self, monkeypatch):
        # At eq_tol 3e-16, mph trial 2597 of seed 1 finds a^3 != a before pinv
        # refuses a*; the replay stops there, after a and a*.
        pairs, shapes, alone = self.refused_trial(monkeypatch, 2597)
        *found, refusal = pairs
        assert found == ["mph_algebraic_agreement", "mph_annihilator"]
        n = shapes[0][-1]
        assert shapes == [(6, n, n), (n, n), (n, n)]
        assert alone[:2] == [None, refusal]

    def test_run_trial_rejects_all(self):
        with pytest.raises(ValueError, match="concrete suite"):
            run_trial("all", 0, 0, 4)


class TestFailureRecordDigest:
    # Recorded at commit 5a1ccee. At these tolerances the reports hold
    # trial-exception, rol_equivalence, mbekhta_equivalence and
    # partial_isometry_gram_agreement records among others, so every path
    # that builds a TrialFailure is pinned, residual floats and matrices
    # included. A deliberate change updates the digest and says why in
    # CHANGES.md.
    DIGEST = "a683fd18432bfdc0c47477b920ce0f94a51897aa99d4f2cea8772f4886588edf"

    def test_reports_are_bit_identical(self):
        h = hashlib.sha256()
        for suite in SUITES:
            for eq_tol in (3e-16, 5e-16):
                config = FuzzConfig(
                    suite=suite, trials=150, max_dim=8, seed=3,
                    tolerance=Tolerance(eq_tol=eq_tol),
                )
                report = fuzz(config).as_dict()
                report.pop("elapsed")
                h.update(json.dumps(report).encode())
        assert h.hexdigest() == self.DIGEST


class TestMphTrialStack:
    def test_each_slice_answers_as_its_matrix_alone(self, monkeypatch):
        # An mph trial certifies a, a* and a^2 .. a^5 as one stack.  a and the
        # powers have the certificate and pseudoinverse of their matrix alone,
        # bit for bit.  The a* slice is a C-ordered copy of the F-ordered
        # adjoint(a), and a norm sums in memory order, so its certificate may
        # differ in the last bits; its verdict is the one of adjoint(a) alone.
        stacks = []
        real = isometry._Analysis.stack

        def spy(ms, tol):
            stacks.append((ms, real(ms, tol)))
            return stacks[-1][1]

        monkeypatch.setattr(isometry._Analysis, "stack", staticmethod(spy))
        for i in range(300):
            del stacks[:]
            assert run_trial("mph", 3, i, 8) == []
            ((ms, analyses),) = stacks
            assert len(ms) == 6 and np.array_equal(ms[1], adjoint(ms[0]))
            for j in (0, 2, 3, 4, 5):
                stacked, alone = analyses[j].result, pinv(ms[j])
                assert stacked.residuals == alone.residuals
                assert stacked.pinv.tobytes() == alone.pinv.tobytes()
                assert stacked.rank == alone.rank
            assert analyses[1].mp_hermitian == is_mp_hermitian(adjoint(ms[0]))


class TestMphRecordDigest:
    # Recorded at commit ff32d0d. 900 mph trials whose reports hold power
    # closure, adjoint closure, algebraic, annihilator, subspace and
    # decomposition records and pinv refusals, so the order in which a
    # trial certifies a, a* and a^2 .. a^5 and writes its records is pinned.
    DIGEST = "ee3f93e757b3a49954f43c59ecd6d4a33d42734700143f0a206a45a25e6be740"

    def test_reports_are_bit_identical(self):
        h = hashlib.sha256()
        for eq_tol in (3e-16, 1e-15, 1e-13):
            config = FuzzConfig(suite="mph", trials=300, max_dim=8, seed=4,
                                tolerance=Tolerance(eq_tol=eq_tol))
            report = fuzz(config).as_dict()
            report.pop("elapsed")
            h.update(json.dumps(report).encode())
        assert h.hexdigest() == self.DIGEST


class TestTrialInputDigest:
    # Recorded at commit 4653260. Every (a, b) that a `rol` trial hands to
    # full_report and every a that an `isometry` trial analyses, passing
    # trials included. max_dim 1 and 2 reach the n < 2 fallbacks of both
    # suites.
    DIGEST = "bfffab6cbe24a971beefbcd17020a2552f717765f2a357b411cca138b0d8fe32"

    def test_trial_inputs_are_bit_identical(self, monkeypatch):
        h = hashlib.sha256()

        def tapped(func):
            def tap(*args, **kwargs):
                for m in args:
                    if isinstance(m, np.ndarray):
                        m = np.ascontiguousarray(m)
                        h.update(repr(m.shape).encode())
                        h.update(m.tobytes())
                return func(*args, **kwargs)
            return tap

        monkeypatch.setattr(harness, "full_report", tapped(harness.full_report))
        monkeypatch.setattr(harness, "_Analysis", tapped(harness._Analysis))
        for suite in ("rol", "isometry"):
            for max_dim in (1, 2, 8):
                for trial_index in range(200):
                    run_trial(suite, 5, trial_index, max_dim)
        assert h.hexdigest() == self.DIGEST


class TestFixtureGenerators:
    def test_regular_spectrum_cross_check(self):
        # Conorm of a generated matrix sits inside the requested window.
        a = generate_regular(5, 4, 2, sv_low=0.5, sv_high=2.0, seed=7)
        sig = svd(a).sigma
        assert 0.5 - 1e-12 <= sig[1] <= 2.0 + 1e-12

    def test_pair_generator_deterministic(self):
        a1, b1 = generate_rol_pair(5, "random", 31)
        a2, b2 = generate_rol_pair(5, "random", 31)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


class TestPaddedSizeRule:
    @pytest.mark.parametrize(
        "fixture",
        [rol_negative_pair, mbekhta_gap_pair, nonnormal_mph_fixture,
         nonhermitian_partial_isometry_fixture],
    )
    def test_n1_refused_before_any_draw(self, fixture):
        rng = np.random.default_rng(17)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            fixture(1, rng)
        assert rng.bit_generator.state == before
