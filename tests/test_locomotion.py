import math
from dataclasses import replace

import pytest

from skipsim.gait import AsymmetryNoise, GaitConfig
from skipsim.locomotion import (LocomotionMode, Model, RobotParams,
                                ScenarioSegment, TrialSpec, hop_displacement,
                                run_batch, run_trial, scenario_heterogeneous)
from skipsim.springtail import (EngagedAngleModel, TailConfig, latch_energy,
                                strike_sequence)
from skipsim.stats import FailureMode
from skipsim.terrain import Material, SubstrateParams, moisture_response

PERFECT = SubstrateParams(skip_efficiency=1.0, crawl_traction=1.0,
                          tail_slips=False, excavates=False, entangles=False)


class TestHopDisplacement:
    def test_reference_hop(self):
        robot = RobotParams()
        d = hop_displacement(25.5e-3, robot, PERFECT)
        v0 = 25.5e-3 / robot.mass
        assert v0 == pytest.approx(0.91, rel=2e-3)
        assert d == pytest.approx(v0 ** 2 / robot.gravity, rel=1e-12)
        assert d == pytest.approx(0.084, abs=1e-3)

    def test_slipping_tail_transfers_nothing(self):
        slipping = replace(PERFECT, tail_slips=True)
        assert hop_displacement(25.5e-3, RobotParams(), slipping) == 0.0

    def test_ballistic_scaling(self):
        d1 = hop_displacement(10e-3, RobotParams(), PERFECT)
        d2 = hop_displacement(20e-3, RobotParams(), PERFECT)
        assert d2 / d1 == pytest.approx(4.0, rel=1e-12)

    def test_rejects_nonpositive_impulse(self):
        with pytest.raises(ValueError):
            hop_displacement(0.0, RobotParams(), PERFECT)


class TestRunTrial:
    def test_skip_on_grass_matches_calibration(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=30.0,
                         seed=0)
        result = run_trial(spec)
        assert result.failure is FailureMode.NONE
        assert result.mean_velocity * 100 == pytest.approx(5.38, abs=0.5)

    def test_crawl_on_dry_sand_excavates(self):
        for seed in range(5):
            spec = TrialSpec(LocomotionMode.SYNC_CRAWL, Material.UNIFORM_SAND,
                             moisture=0.0, duration=30.0, seed=seed)
            result = run_trial(spec)
            assert result.failure is FailureMode.EXCAVATION
            assert result.mean_velocity == 0.0

    def test_jammed_tail_below_threshold(self):
        # seed 14 yields no strikes at all in the jam regime
        tail = TailConfig(free_length=15e-3)
        spec = TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=10.0,
                         seed=14)
        result = run_trial(spec, Model(tail=tail))
        assert result.displacement < 0.10
        assert result.failure is FailureMode.BELOW_THRESHOLD

    def test_clay_slip_is_a_hard_failure(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.BENTONITE_CLAY,
                         moisture=0.8, duration=30.0, seed=0)
        result = run_trial(spec)
        assert result.failure is FailureMode.TAIL_SLIP
        assert result.displacement == 0.0

    def test_pitch_over_truncates_rigid_skipping(self):
        robot = RobotParams(pitch_speed_limit=0.5)
        spec = TrialSpec(LocomotionMode.SKIP, Material.RIGID, duration=30.0,
                         seed=0)
        result = run_trial(spec, Model(robot=robot))
        assert result.failure is FailureMode.PITCH_OVER
        # motion stops at the first over-limit strike
        assert result.displacement < run_trial(spec).displacement

    def test_exactly_one_failure_label(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.UNIFORM_SAND,
                         moisture=0.15, duration=30.0, seed=1)
        result = run_trial(spec)
        assert isinstance(result.failure, FailureMode)

    def test_per_strike_displacement_non_negative(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.UNIFORM_SAND,
                         moisture=0.1, duration=30.0, seed=2)
        result = run_trial(spec)
        xs = [p.x for p in result.trajectory.poses]
        assert all(b >= a for a, b in zip(xs, xs[1:]))


class TestRunBatch:
    def test_zero_noise_batch_has_zero_std(self):
        angle_model = EngagedAngleModel(lower=0.5, upper=0.5)
        gait = GaitConfig(noise=AsymmetryNoise.zero())
        spec = TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=30.0)
        _, summary = run_batch(spec, 3, 0,
                               Model(angle_model=angle_model, gait=gait))
        assert summary.std_velocity == 0.0

    def test_summary_mean_recomputed_independently(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.NONUNIFORM_SAND,
                         duration=30.0)
        results, summary = run_batch(spec, 3, 5)
        velocities = [r.effective_velocity for r in results]
        assert summary.mean_velocity == pytest.approx(
            sum(velocities) / len(velocities), rel=1e-12)

    def test_batch_deterministic(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=30.0)
        _, a = run_batch(spec, 3, 7)
        _, b = run_batch(spec, 3, 7)
        assert a == b

    def test_single_trial_std_zero(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=30.0)
        _, summary = run_batch(spec, 1, 0)
        assert summary.std_velocity == 0.0
        assert summary.n_trials == 1


class TestOrderingAndDominance:
    def test_substrate_ordering_across_seed_triples(self):
        conditions = [(Material.GRASS, 0.0), (Material.NONUNIFORM_SAND, 0.0),
                      (Material.BENTONITE_CLAY, 0.3333),
                      (Material.UNIFORM_SAND, 0.0)]
        for base in range(0, 30, 3):
            means = []
            for material, moisture in conditions:
                spec = TrialSpec(LocomotionMode.SKIP, material, moisture,
                                 duration=30.0)
                _, summary = run_batch(spec, 3, base)
                means.append(summary.mean_velocity)
            assert means[0] > means[1] > means[2] > means[3]

    @pytest.mark.parametrize("material", [Material.UNIFORM_SAND,
                                          Material.BENTONITE_CLAY])
    def test_skipping_beats_crawling_on_deformable_beds(self, material):
        grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3] \
            if material is Material.UNIFORM_SAND else [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        best = {}
        for mode in LocomotionMode:
            best[mode] = max(
                run_batch(TrialSpec(mode, material, m, 30.0), 3, 0)[1].mean_velocity
                for m in grid)
        assert best[LocomotionMode.SKIP] > best[LocomotionMode.SYNC_CRAWL]
        assert best[LocomotionMode.SKIP] > best[LocomotionMode.ASYNC_CRAWL]

    def test_takeoff_energy_within_latched_energy(self):
        tail = TailConfig()
        robot = RobotParams()
        limit = latch_energy(tail)
        conditions = [(Material.GRASS, 0.0), (Material.UNIFORM_SAND, 0.15),
                      (Material.BENTONITE_CLAY, 0.2), (Material.RIGID, 0.0),
                      (Material.NONUNIFORM_SAND, 0.0)]
        for material, moisture in conditions:
            substrate = moisture_response(material, moisture)
            for seed in range(10):
                for event in strike_sequence(tail, duration=10.0, seed=seed):
                    v0 = substrate.skip_efficiency * event.impulse / robot.mass
                    assert 0.5 * robot.mass * v0 ** 2 <= limit


class TestScenario:
    def test_default_two_segment_run(self):
        segments = [ScenarioSegment(Material.GRASS, LocomotionMode.SKIP, 12.0),
                    ScenarioSegment(Material.RIGID, LocomotionMode.SYNC_CRAWL, 6.0)]
        trajectory, switches = scenario_heterogeneous(segments, seed=0)
        assert trajectory.duration() == pytest.approx(18.0)
        assert len(switches) == 1
        assert switches[0].time == pytest.approx(12.0)
        assert switches[0].material is Material.RIGID

    def test_single_segment_equals_plain_trial(self):
        segment = ScenarioSegment(Material.GRASS, LocomotionMode.SKIP, 10.0)
        trajectory, switches = scenario_heterogeneous([segment], seed=3)
        direct = run_trial(TrialSpec(LocomotionMode.SKIP, Material.GRASS,
                                     duration=10.0, seed=3))
        assert switches == []
        assert trajectory.poses == direct.trajectory.poses

    def test_displacement_adds_across_segments(self):
        segments = [ScenarioSegment(Material.GRASS, LocomotionMode.SKIP, 12.0),
                    ScenarioSegment(Material.RIGID, LocomotionMode.SYNC_CRAWL, 6.0)]
        gait = GaitConfig(noise=AsymmetryNoise.zero())
        trajectory, _ = scenario_heterogeneous(segments, 0, Model(gait=gait))
        seg1 = run_trial(TrialSpec(LocomotionMode.SKIP, Material.GRASS,
                                   duration=12.0, seed=0), Model(gait=gait))
        seg2 = run_trial(TrialSpec(LocomotionMode.SYNC_CRAWL, Material.RIGID,
                                   duration=6.0, seed=1), Model(gait=gait))
        # noise-free straight-line segments: net displacements add exactly
        assert trajectory.net_displacement() == pytest.approx(
            seg1.displacement + seg2.displacement, rel=1e-12)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_heterogeneous([])


class TestTrialPurity:
    def test_batch_equals_individual_trials(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.NONUNIFORM_SAND,
                         duration=30.0)
        results, _ = run_batch(spec, 3, 11)
        for k, batched in enumerate(results):
            solo = run_trial(TrialSpec(spec.mode, spec.material, spec.moisture,
                                       spec.duration, seed=11 + k))
            assert solo.mean_velocity == batched.mean_velocity
            assert solo.failure is batched.failure
