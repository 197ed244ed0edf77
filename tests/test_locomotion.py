import math
from dataclasses import replace

import numpy as np
import pytest

from skipsim.errors import FieldError
from skipsim.gait import AsymmetryNoise, GaitConfig
from skipsim.locomotion import (MAX_SKIP_SPEED, MAX_TRIAL_S, LocomotionMode,
                                Model, RobotParams, TrialSpec, Units,
                                build_units,
                                check_skip_speed, hop_displacement,
                                run_batch, run_trial, scenario_heterogeneous,
                                skip_scale, trial_outcomes, unit_path)
from skipsim.springtail import (EngagedAngleModel, TailConfig,
                                half_sine_impulse, latch_energy,
                                strike_sequence, unlatch_force)
from skipsim.stats import FailureMode
from skipsim.terrain import (CrawlCurve, Material, SkipCurve, SubstrateParams,
                             default_curves, moisture_response)

PERFECT = SubstrateParams(skip_efficiency=1.0, crawl_traction=1.0,
                          tail_slips=False, excavates=False)


class TestHopDisplacement:
    def test_reference_hop(self):
        robot = RobotParams()
        d = hop_displacement(25.5e-3, robot)
        v0 = 25.5e-3 / robot.mass
        assert v0 == pytest.approx(0.91, rel=2e-3)
        assert d == pytest.approx(v0 ** 2 / robot.gravity, rel=1e-12)
        assert d == pytest.approx(0.084, abs=1e-3)

    def test_slipping_tail_transfers_nothing(self):
        slipping = replace(PERFECT, tail_slips=True)
        assert skip_scale(PERFECT) == 1.0
        assert skip_scale(slipping) == 0.0

    def test_skip_efficiency_scales_the_hop_by_its_square(self):
        half = replace(PERFECT, skip_efficiency=0.5)
        assert skip_scale(half) == 0.25

    @pytest.mark.parametrize("model", [
        Model(robot=RobotParams(mass=1e-100)),
        Model(robot=RobotParams(mass=5e-324)),
        Model(robot=RobotParams(gravity=1e-300)),
        Model(tail=TailConfig(youngs_modulus=1e-320)),
        Model(tail=TailConfig(width=1e-320)),
        Model(tail=TailConfig(housing_radius=1e200, thickness=1e150))],
        ids=["mass-1e-100", "mass-subnormal", "gravity",
             "youngs-modulus-subnormal", "width-subnormal", "thickness-huge"])
    def test_a_skip_too_fast_or_at_rest_is_refused_naming_what_it_read(
            self, model):
        """A hop that overflows, an E*I that underflows to a zero force and
        a t^3 that overflows to an inf/inf force are each a FieldError."""
        check_skip_speed(Model())
        with pytest.raises(FieldError) as refused:
            check_skip_speed(model)
        assert set(refused.value.fields) == {
            "mass", "launch_angle", "gravity", "youngs_modulus", "width",
            "thickness", "housing_radius", "upper", "lower", "pulse_width",
            "motor_speed"}

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_the_top_skip_speed_checked_is_that_of_the_hop_helpers(
            self, factor):
        """The mass whose hop, by the helpers a trial hops with, carries the
        strongest strike's skip at `factor` times the bound is refused only
        past it."""
        model = Model()
        force = unlatch_force(model.tail, model.angle_model.lower)
        impulse = half_sine_impulse(force, model.tail.pulse_width)
        speed = hop_displacement(impulse, model.robot) * model.tail.motor_speed
        mass = model.robot.mass * math.sqrt(speed / (factor * MAX_SKIP_SPEED))
        light = replace(model, robot=RobotParams(mass=mass))
        if factor > 1.0:
            with pytest.raises(FieldError):
                check_skip_speed(light)
        else:
            check_skip_speed(light)

    def test_ballistic_scaling(self):
        d1 = hop_displacement(10e-3, RobotParams())
        d2 = hop_displacement(20e-3, RobotParams())
        assert d2 / d1 == pytest.approx(4.0, rel=1e-12)

    def test_rejects_nonpositive_impulse(self):
        with pytest.raises(ValueError):
            hop_displacement(0.0, RobotParams())


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
        xs = result.trajectory.poses[:, 0].tolist()
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
        outcomes, summary = run_batch(spec, 3, 5)
        velocities = [d / spec.duration if f is FailureMode.NONE else 0.0
                      for d, f in zip(outcomes.displacement.tolist(),
                                      outcomes.failure)]
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
                for impulse in strike_sequence(tail, duration=10.0,
                                               seed=seed).impulse:
                    v0 = substrate.skip_efficiency * impulse / robot.mass
                    assert 0.5 * robot.mass * v0 ** 2 <= limit


SCENARIO = [TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=12.0),
            TrialSpec(LocomotionMode.SYNC_CRAWL, Material.RIGID, duration=6.0,
                      seed=1)]


class TestScenario:
    def test_default_two_segment_run(self):
        trajectory, starts = scenario_heterogeneous(SCENARIO)
        assert trajectory.duration() == pytest.approx(18.0)
        assert starts == [pytest.approx(12.0)]

    def test_single_segment_equals_plain_trial(self):
        spec = TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=10.0,
                         seed=3)
        trajectory, starts = scenario_heterogeneous([spec])
        assert starts == []
        assert (trajectory.poses.tolist()
                == run_trial(spec).trajectory.poses.tolist())

    def test_displacement_adds_across_segments(self):
        model = Model(gait=GaitConfig(noise=AsymmetryNoise.zero()))
        trajectory, _ = scenario_heterogeneous(SCENARIO, model)
        seg1, seg2 = (run_trial(spec, model) for spec in SCENARIO)
        # noise-free straight-line segments: net displacements add exactly
        assert trajectory.net_displacement() == pytest.approx(
            seg1.displacement + seg2.displacement, rel=1e-12)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_heterogeneous([])


class TestTrialPurity:
    @pytest.mark.parametrize("mode", list(LocomotionMode),
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("material, moisture", [
        (Material.NONUNIFORM_SAND, 0.0), (Material.UNIFORM_SAND, 0.0),
        (Material.BENTONITE_CLAY, 0.9), (Material.RIGID, 0.0)])
    def test_batch_equals_individual_trials(self, mode, material, moisture):
        """Rigid ground at a low pitch speed limit pitches over, dry sand
        excavates and wet clay slips."""
        model = Model(robot=RobotParams(pitch_speed_limit=0.6))
        spec = TrialSpec(mode, material, moisture, duration=30.0)
        outcomes, _ = run_batch(spec, 3, 11, model)
        for k, (displacement, failure) in enumerate(zip(
                outcomes.displacement.tolist(), outcomes.failure)):
            solo = run_trial(TrialSpec(spec.mode, spec.material, spec.moisture,
                                       spec.duration, seed=11 + k), model)
            assert repr(solo.displacement) == repr(displacement)
            assert solo.mean_velocity == displacement / spec.duration
            assert solo.failure is failure


def _units(reach, impulses=()):
    """Units of one unit path per `reach`; the first path's strikes, if
    any, are `impulses` after reaches 0, 1, 2, ... m."""
    hop = np.arange(len(impulses))
    return Units(np.array(reach, dtype=float),
                 np.zeros(len(impulses), dtype=np.int64), hop,
                 np.array(impulses, dtype=float), hop.astype(float))


FIRM = SubstrateParams(skip_efficiency=1.0, crawl_traction=1.0,
                       tail_slips=False, excavates=False)


class TestTrialOutcomes:
    """The failure rules, stated once in `trial_outcomes`."""

    @pytest.mark.parametrize("mode", list(LocomotionMode),
                             ids=lambda m: m.value)
    def test_threshold_rule(self, mode):
        """At scale 1 a trial under 0.10 m fails, one of exactly 0.10 m
        succeeds."""
        reach = [0.0, 0.099, np.nextafter(0.10, 0.0), 0.10, 0.5]
        got = trial_outcomes(_units(reach), mode, Material.GRASS, FIRM,
                             RobotParams())
        assert got.displacement.tolist() == reach
        assert got.failure == [FailureMode.BELOW_THRESHOLD] * 3 + [
            FailureMode.NONE] * 2

    @pytest.mark.parametrize("mode, substrate, failure", [
        (LocomotionMode.SYNC_CRAWL, replace(FIRM, excavates=True),
         FailureMode.EXCAVATION),
        (LocomotionMode.ASYNC_CRAWL, replace(FIRM, excavates=True),
         FailureMode.EXCAVATION),
        (LocomotionMode.SKIP, replace(FIRM, tail_slips=True),
         FailureMode.TAIL_SLIP),
    ], ids=["sync-excavation", "async-excavation", "tail-slip"])
    def test_hard_failures_dominate_and_go_nowhere(self, mode, substrate,
                                                   failure):
        got = trial_outcomes(_units([0.05, 0.5]), mode, Material.GRASS,
                             substrate, RobotParams())
        assert got.displacement.tolist() == [0.0, 0.0]
        assert got.failure == [failure, failure]

    @pytest.mark.parametrize("material", [Material.RIGID, Material.GRASS])
    def test_rigid_ground_stops_at_the_first_strike_over_the_limit(
            self, material):
        """Takeoff speed J/m at skip efficiency 1: the third strike is the
        first over 1.5 m/s, and it outranks a tail slip. Off rigid ground
        no strike pitches over."""
        robot = RobotParams(mass=1.0, pitch_speed_limit=1.5)
        units = _units([9.0], [1.0, 1.5, 2.0, 3.0])
        for slips in (False, True):
            got = trial_outcomes(units, LocomotionMode.SKIP, material,
                                 replace(FIRM, tail_slips=slips), robot)
            if material is Material.RIGID:
                assert got.failure == [FailureMode.PITCH_OVER]
                assert got.displacement.tolist() == [0.0 if slips else 2.0]
                assert got.stop.tolist() == [2]
            else:
                assert got.stop.tolist() == [-1]
                assert got.failure == [
                    FailureMode.TAIL_SLIP if slips else FailureMode.NONE]

    @pytest.mark.parametrize("seed", range(5))
    def test_skip_units_keep_the_running_maxima(self, seed):
        """A skip path keeps each strike whose impulse tops every earlier
        one, with the reach of the hops before it."""
        (_, impulses, reach), _ = unit_path(LocomotionMode.SKIP, Model(),
                                            60.0, seed)
        units = build_units([TrialSpec(LocomotionMode.SKIP, Material.RIGID,
                                       duration=60.0)], seed, 1,
                            Model())[LocomotionMode.SKIP, 60.0]
        want = [k for k, j in enumerate(impulses.tolist())
                if all(j > i for i in impulses[:k].tolist())]
        assert units.hop.tolist() == want
        assert units.impulse.tolist() == impulses[want].tolist()
        assert units.before.tolist() == reach[want].tolist()
        assert units.reach.tolist() == [reach[-1]]


# A skip trial reads neither the crawl curve nor the excavation threshold;
# a crawl trial reads neither the skip curve nor the slip moisture.
OTHER_GAIT = {
    "skip": dict(crawl=CrawlCurve(cap=0.05, rise_mid=0.5, rise_width=0.3,
                                  decay=2.0), excavation_traction=0.5),
    "crawl": dict(skip=SkipCurve(floor=0.05, peak=0.7, center=0.6,
                                 width=0.3), slip_moisture=None),
}


class TestTrialSubstrate:
    """A trial reads only its own gait's part of the substrate, the premise
    of calibrate's loss building only the curve each target reads."""

    @pytest.mark.parametrize("mode", list(LocomotionMode),
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("material, moisture", [
        (Material.UNIFORM_SAND, 0.0), (Material.UNIFORM_SAND, 0.15),
        (Material.BENTONITE_CLAY, 0.3333), (Material.BENTONITE_CLAY, 0.9),
        (Material.GRASS, 0.0), (Material.RIGID, 0.0)])
    def test_other_gaits_curve_changes_nothing(self, mode, material,
                                               moisture):
        gait = "skip" if mode is LocomotionMode.SKIP else "crawl"
        shipped = default_curves(material)
        changed = replace(shipped, **OTHER_GAIT[gait])
        substrate = moisture_response(material, moisture, shipped)
        moved = moisture_response(material, moisture, changed)
        assert moved != substrate  # the change reaches the substrate...
        for seed in range(3):
            spec = TrialSpec(mode, material, moisture, duration=30.0,
                             seed=seed)
            base = run_trial(spec, Model(responses={material: shipped}))
            other = run_trial(spec, Model(responses={material: changed}))
            assert (repr(other.trajectory.poses.tolist())
                    == repr(base.trajectory.poses.tolist()))
            assert other.failure is base.failure  # ...but not the trial


class TestTrialDuration:
    def test_longest_trial_is_accepted(self):
        assert TrialSpec(LocomotionMode.SKIP, Material.GRASS,
                         duration=MAX_TRIAL_S).duration == MAX_TRIAL_S

    @pytest.mark.parametrize("duration", [
        0.0, -1.0, math.nan, math.nextafter(MAX_TRIAL_S, math.inf), 1e308])
    def test_out_of_range_rejected(self, duration):
        with pytest.raises(ValueError, match="duration must lie in"):
            TrialSpec(LocomotionMode.SKIP, Material.GRASS, duration=duration)
