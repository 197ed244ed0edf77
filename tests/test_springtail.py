import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from skipsim.springtail import (MAX_STRIKES, MAX_TRACE_SAMPLES,
                                EngagedAngleModel, LengthRegime,
                                RegimeThresholds, StrikeSequence, TailConfig,
                                area_moment, effective_length,
                                half_sine_impulse, latch_deflection,
                                latch_energy, length_regime, revolutions,
                                stored_energy, strike_sequence, strike_trace,
                                tip_stiffness, trace_samples, unlatch_force)
from skipsim.stats import detect_peaks


@pytest.fixture
def config():
    return TailConfig()


def strikes(times, forces=None):
    """A StrikeSequence at `times`, of 1 N each unless `forces` is given."""
    forces = np.ones(len(times)) if forces is None else forces
    return StrikeSequence(time=times, peak_force=forces,
                          impulse=np.zeros(len(times)),
                          engaged_angle=np.full(len(times), 0.5))


def full(trace):
    """Every sample of a synthesized trace, 0.0 where it stores none."""
    samples = np.zeros(trace.n_samples)
    samples[trace.indices] = trace.samples
    return samples


def columns(events):
    return [events.time, events.peak_force, events.impulse,
            events.engaged_angle]


def column_bytes(events):
    return [column.tobytes() for column in columns(events)]


class TestClosedForm:
    def test_area_moment_reference_blade(self):
        # 10 mm x 0.10 mm blade
        assert area_moment(10e-3, 0.10e-3) == pytest.approx(8.33e-16, rel=1e-3)

    def test_area_moment_hand_value(self):
        expected = 5e-3 * (0.20e-3) ** 3 / 12.0
        assert area_moment(5e-3, 0.20e-3) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(3.333e-15, rel=1e-3)

    @pytest.mark.parametrize("w,t", [(0.0, 1e-4), (1e-2, 0.0), (-1e-2, 1e-4)])
    def test_area_moment_rejects_degenerate(self, w, t):
        with pytest.raises(ValueError):
            area_moment(w, t)

    def test_tip_stiffness_25mm(self):
        k = tip_stiffness(200e9, area_moment(10e-3, 0.10e-3), 25e-3)
        expected = 3.0 * 200e9 * 8.3333333333e-16 / 0.025 ** 3
        assert k == pytest.approx(expected, rel=1e-9)
        assert k == pytest.approx(32.0, rel=1e-3)

    def test_tip_stiffness_engaged_segment(self):
        k = tip_stiffness(200e9, 8.33e-16, 8.64e-3)
        expected = 3.0 * 200e9 * 8.33e-16 / 0.00864 ** 3
        assert k == pytest.approx(expected, rel=1e-12)
        assert k == pytest.approx(775.0, rel=2e-3)

    def test_tip_stiffness_cubic_scaling(self):
        k1 = tip_stiffness(200e9, 8.33e-16, 20e-3)
        k2 = tip_stiffness(200e9, 8.33e-16, 40e-3)
        assert k1 / k2 == pytest.approx(8.0, rel=1e-12)

    def test_tip_stiffness_rejects_zero_length(self):
        with pytest.raises(ValueError):
            tip_stiffness(200e9, 8.33e-16, 0.0)

    def test_latch_deflection_values(self):
        assert latch_deflection(8.64e-3, 11e-3) == pytest.approx(
            0.00864 ** 2 / 0.022, rel=1e-12)
        assert latch_deflection(8.64e-3, 11e-3) == pytest.approx(3.39e-3, rel=2e-3)
        # L equal to R gives R/2
        assert latch_deflection(11e-3, 11e-3) == pytest.approx(5.5e-3, rel=1e-12)

    def test_latch_deflection_vanishes_with_length(self):
        assert latch_deflection(1e-9, 11e-3) < 1e-16
        with pytest.raises(ValueError):
            latch_deflection(0.0, 11e-3)

    def test_effective_length_table_rows(self):
        assert effective_length(11e-3, math.pi / 4) == pytest.approx(8.64e-3, rel=1e-3)
        assert effective_length(11e-3, math.pi / 6) == pytest.approx(5.76e-3, rel=1e-3)

    def test_effective_length_rejects_zero_angle(self):
        with pytest.raises(ValueError):
            effective_length(11e-3, 0.0)


class TestUnlatchForce:
    @pytest.mark.parametrize("deg,predicted", [(45, 2.6), (30, 3.9), (20, 5.9)])
    def test_predicted_force_rows(self, config, deg, predicted):
        force = unlatch_force(config, math.radians(deg))
        assert abs(force - predicted) <= 0.05

    def test_force_length_product_identity(self, config):
        const = (3.0 * config.youngs_modulus * config.second_moment
                 / (2.0 * config.housing_radius))
        for theta in np.linspace(0.05, config.housing_arc - 0.05, 200):
            product = unlatch_force(config, theta) * effective_length(
                config.housing_radius, theta)
            assert product == pytest.approx(const, rel=1e-12)
        assert abs(const - 2.27e-2) <= 5e-5  # printed 3-significant-figure value

    def test_strictly_decreasing_in_angle(self, config):
        thetas = np.linspace(math.radians(5), math.radians(260), 400)
        forces = [unlatch_force(config, t) for t in thetas]
        assert all(a > b for a, b in zip(forces, forces[1:]))

    def test_thickness_cubic_law(self, config):
        doubled = TailConfig(thickness=config.thickness * 2.0)
        ratio = unlatch_force(doubled, 0.5) / unlatch_force(config, 0.5)
        assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_rejects_out_of_range_angles(self, config):
        with pytest.raises(ValueError):
            unlatch_force(config, 0.0)
        with pytest.raises(ValueError):
            unlatch_force(config, -0.1)
        with pytest.raises(ValueError):
            unlatch_force(config, config.housing_arc)


class TestStoredEnergy:
    def test_matches_half_k_delta_squared(self, config):
        for theta in (0.2, 0.5, 1.0, 2.0):
            length = effective_length(config.housing_radius, theta)
            k = tip_stiffness(config.youngs_modulus, config.second_moment, length)
            delta = latch_deflection(length, config.housing_radius)
            assert stored_energy(config, theta) == pytest.approx(
                0.5 * k * delta ** 2, rel=1e-12)

    def test_reference_magnitude(self, config):
        assert stored_energy(config, math.pi / 4) == pytest.approx(4.45e-3, rel=5e-3)

    def test_strictly_increasing_in_angle(self, config):
        thetas = np.linspace(0.05, 2.0, 100)
        energies = [stored_energy(config, t) for t in thetas]
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_vanishes_at_small_engagement(self, config):
        assert stored_energy(config, 1e-9) < 1e-9

    def test_latch_energy_dominates_engaged_energy(self, config):
        # full conformation stores more than any engaged segment at release
        for theta in np.linspace(0.05, 2.0, 50):
            assert stored_energy(config, theta) < latch_energy(config)


class TestLengthRegime:
    def test_nominal_choice(self):
        assert length_regime(25e-3) is LengthRegime.NOMINAL

    def test_boundaries_closed(self):
        thresholds = RegimeThresholds()
        assert length_regime(thresholds.jam_below, thresholds) is LengthRegime.NOMINAL
        assert length_regime(thresholds.roll_above, thresholds) is LengthRegime.NOMINAL

    def test_extremes(self):
        assert length_regime(15e-3) is LengthRegime.JAM
        assert length_regime(35e-3) is LengthRegime.ROLL


class TestStrikeSequence:
    def test_nominal_count_10s(self, config):
        events = strike_sequence(config, duration=10.0, seed=0)
        assert len(events) == 10
        assert events.time.tolist() == pytest.approx(
            [k + 1.0 for k in range(10)])

    def test_zero_duration_empty(self, config):
        events = strike_sequence(config, duration=0.0, seed=0)
        assert len(events) == 0
        assert [c.size for c in columns(events)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_forces_bounded_by_angle_model(self, config, seed):
        model = EngagedAngleModel()
        events = strike_sequence(config, model, duration=10.0, seed=seed)
        f_hi = unlatch_force(config, model.lower)
        f_lo = unlatch_force(config, model.upper)
        assert np.all((f_lo <= events.peak_force) & (events.peak_force <= f_hi))
        assert np.all((model.lower <= events.engaged_angle)
                      & (events.engaged_angle <= model.upper))
        assert events.impulse == pytest.approx(
            2.0 * events.peak_force * config.pulse_width / math.pi, rel=1e-12)

    def test_jam_count_expectation(self, config):
        counts = [len(strike_sequence(config, regime=LengthRegime.JAM,
                                      duration=10.0, seed=s))
                  for s in range(100)]
        assert abs(sum(counts) / len(counts) - 3.0) <= 1.0

    def test_roll_attenuates_forces(self, config):
        nominal = strike_sequence(config, duration=10.0, seed=7)
        rolled = strike_sequence(config, regime=LengthRegime.ROLL,
                                 duration=10.0, seed=7)
        assert len(rolled) == len(nominal)
        assert rolled.peak_force == pytest.approx(0.5 * nominal.peak_force,
                                                  rel=1e-12)

    def test_deterministic_given_seed(self, config):
        a = strike_sequence(config, duration=10.0, seed=42)
        b = strike_sequence(config, duration=10.0, seed=42)
        assert column_bytes(a) == column_bytes(b)

    def test_truncated_normal_model_stays_in_bounds(self, config):
        model = EngagedAngleModel(kind="truncated_normal",
                                  lower=math.radians(20),
                                  upper=math.radians(45))
        events = strike_sequence(config, model, duration=10.0, seed=3)
        assert np.all((model.lower <= events.engaged_angle)
                      & (events.engaged_angle <= model.upper))

    def test_degenerate_angle_model_is_noise_free(self, config):
        model = EngagedAngleModel(lower=0.5, upper=0.5)
        a = strike_sequence(config, model, duration=10.0, seed=1)
        b = strike_sequence(config, model, duration=10.0, seed=99)
        assert a.peak_force.tolist() == b.peak_force.tolist()


class TestStrikeTrace:
    def test_single_pulse_impulse_quadrature(self):
        config = TailConfig()
        events = strike_sequence(config, EngagedAngleModel(lower=0.5, upper=0.5),
                                 duration=1.0, seed=0)
        assert len(events) == 1
        trace = strike_trace(events, 2000.0, config.pulse_width)
        sampled = np.trapezoid(full(trace), dx=1.0 / trace.sample_rate)
        assert sampled == pytest.approx(events.impulse[0], rel=1e-2)

    def test_analytic_pulse_impulse(self):
        assert half_sine_impulse(4.0, 0.010) == pytest.approx(25.5e-3, rel=2e-3)

    def test_zero_events_all_zero(self):
        trace = strike_trace(strikes([]), 2000.0, 0.010)
        assert trace.samples.size == 0
        assert full(trace).tobytes() == np.zeros(21).tobytes()

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError):
            strike_trace(strikes([]), 100.0, 0.010)

    def test_round_trip_peak_count(self):
        config = TailConfig()
        events = strike_sequence(config, duration=10.0, seed=5)
        trace = strike_trace(events, 2000.0, config.pulse_width)
        peaks = detect_peaks(trace, threshold=1.0, min_separation=0.3)
        assert peaks.count == len(events)

    def test_a_default_hour_stores_its_pulse_samples_only(self, config):
        """A 3600 s recording at 2 kHz spans 7,200,021 samples (57.6 MB of
        float64) but stores at most a few more than its pulse samples per
        strike, and synthesizing it peaks at a fraction of the dense
        trace's bytes."""
        events = strike_sequence(config, duration=3600.0, seed=0)
        strike_trace(events, 2000.0, config.pulse_width)  # imports settle
        tracemalloc.start()
        try:
            trace = strike_trace(events, 2000.0, config.pulse_width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pulse = round(config.pulse_width * 2000.0)
        assert trace.n_samples == 7_200_021
        assert trace.samples.size <= (pulse + 3) * len(events) == 82_800
        assert peak < 16 << 20


class TestValidation:
    def test_config_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TailConfig(thickness=12e-3)  # thicker than the housing radius
        with pytest.raises(ValueError):
            TailConfig(housing_arc=7.0)
        with pytest.raises(ValueError):
            TailConfig(free_length=60e-3)  # cannot conform to the arc

    def test_angle_model_validation(self):
        with pytest.raises(ValueError):
            EngagedAngleModel(lower=0.5, upper=0.2)
        with pytest.raises(ValueError):
            EngagedAngleModel(kind="gamma")

    def test_sequence_rejects_model_wider_than_arc(self):
        config = TailConfig()
        model = EngagedAngleModel(lower=0.3, upper=config.housing_arc + 0.1)
        with pytest.raises(ValueError):
            strike_sequence(config, model, duration=1.0, seed=0)


def oracle_sample(model, rng):
    """One engaged angle, drawn on its own."""
    if model.lower == model.upper:
        return model.lower
    if model.kind == "uniform":
        return float(rng.uniform(model.lower, model.upper))
    mean = model.mean if model.mean is not None else 0.5 * (model.lower + model.upper)
    spread = (model.spread if model.spread is not None
              else 0.25 * (model.upper - model.lower))
    if spread == 0.0:
        return float(min(max(mean, model.lower), model.upper))
    for _ in range(1000):
        draw = rng.normal(mean, spread)
        if model.lower <= draw <= model.upper:
            return float(draw)
    return float(min(max(mean, model.lower), model.upper))


def oracle_strike_sequence(config, model, regime, duration, seed, thresholds):
    """The strikes revolution by revolution, each priced in scalar
    arithmetic: its columns (time, peak_force, impulse, engaged_angle)."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(int(math.floor(config.motor_speed * duration))):
        if (regime is LengthRegime.JAM
                and rng.random() >= thresholds.jam_strike_prob):
            continue
        theta = oracle_sample(model, rng)
        length = config.housing_radius * theta
        force = (3.0 * config.youngs_modulus * config.second_moment
                 / (2.0 * config.housing_radius * length))
        if regime is LengthRegime.ROLL:
            force *= thresholds.roll_attenuation
        rows.append(((k + 1) / config.motor_speed, force,
                     2.0 * force * config.pulse_width / math.pi, theta))
    return [np.array([row[i] for row in rows], dtype=float) for i in range(4)]


ANGLE_MODELS = {
    "uniform": EngagedAngleModel(),
    "truncated-normal": EngagedAngleModel(kind="truncated_normal"),
    # most draws land outside [lower, upper] and are retried
    "truncated-normal-wide": EngagedAngleModel(
        kind="truncated_normal", mean=0.2, spread=2.0),
    # every draw misses, so each angle falls back to the clamped mean
    "truncated-normal-miss": EngagedAngleModel(
        kind="truncated_normal", lower=0.5, upper=0.5 + 1e-12, mean=0.3,
        spread=1e-9),
    "truncated-normal-no-spread": EngagedAngleModel(
        kind="truncated_normal", spread=0.0),
    "point": EngagedAngleModel(lower=0.5, upper=0.5),
    "point-truncated-normal": EngagedAngleModel(
        kind="truncated_normal", lower=0.5, upper=0.5),
}
# 0 and 0.5 s hold no revolution at 1 rev/s; 12.5 s and 1.3 rev/s hold
# fractional revolution counts
DURATIONS = (0.0, 0.5, 1.0, 12.5, 30.0)


class TestStrikeSequenceMatchesLoop:
    """The array draw and force law give every column byte for byte as
    drawing and pricing one revolution at a time does."""

    @pytest.mark.parametrize("regime", list(LengthRegime))
    @pytest.mark.parametrize("model", ANGLE_MODELS.values(),
                             ids=ANGLE_MODELS.keys())
    @pytest.mark.parametrize("motor_speed", [1.0, 1.3])
    def test_columns_match_the_loop(self, regime, model, motor_speed):
        config = TailConfig(motor_speed=motor_speed)
        thresholds = RegimeThresholds()
        for seed in range(6):
            for duration in DURATIONS:
                got = strike_sequence(config, model, regime, duration, seed,
                                      thresholds)
                want = oracle_strike_sequence(config, model, regime, duration,
                                              seed, thresholds)
                assert column_bytes(got) == [c.tobytes() for c in want]
                assert len(got) == len(want[0])

    @pytest.mark.parametrize("model", ANGLE_MODELS.values(),
                             ids=ANGLE_MODELS.keys())
    @pytest.mark.parametrize("size", [0, 1, 7])
    def test_sample_uses_the_stream_as_scalar_draws(self, model, size):
        for seed in range(4):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            angles = model.sample(rng, size)
            want = [oracle_sample(model, oracle_rng) for _ in range(size)]
            assert angles.dtype == np.float64
            assert angles.tobytes() == np.array(want, dtype=float).tobytes()
            # the stream stands where `size` scalar draws leave it
            assert rng.random() == oracle_rng.random()

    def test_nominal_uniform_draws_in_one_call(self, config, monkeypatch):
        calls = []
        make = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = make(seed)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def spied(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return spied

        monkeypatch.setattr(np.random, "default_rng", Spy)
        events = strike_sequence(config, EngagedAngleModel(), duration=300.0,
                                 seed=0)
        assert len(events) == 300
        assert calls == ["uniform"]

    def test_len_is_the_strike_count(self, config):
        for seed in range(10):
            jammed = strike_sequence(config, regime=LengthRegime.JAM,
                                     duration=30.0, seed=seed)
            assert len(jammed) == jammed.time.size
            assert {c.size for c in columns(jammed)} == {len(jammed)}
        assert len(strikes([0.5, 1.5, 2.5])) == 3

    def test_columns_are_read_only_float_copies(self, config):
        events = strike_sequence(config, duration=10.0, seed=0)
        for name in ("time", "peak_force", "impulse", "engaged_angle"):
            column = getattr(events, name)
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 1.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(events, name, column)
        given = np.array([1.0, 2.0])
        made = strikes(given)
        given[0] = 9.0
        assert made.time.tolist() == [1.0, 2.0]

    def test_columns_must_be_one_long_vector_each(self):
        with pytest.raises(ValueError, match="1-D and of one length"):
            strikes([1.0, 2.0], forces=[1.0])
        with pytest.raises(ValueError, match="1-D and of one length"):
            StrikeSequence(time=[[1.0]], peak_force=[[1.0]], impulse=[[0.0]],
                           engaged_angle=[[0.5]])


class TestForceLawOnArrays:
    """Each element of an array result is the scalar result bit for bit,
    and the scalar checks hold over the whole array."""

    def test_elements_equal_scalar_results(self, config):
        thetas = np.random.default_rng(0).uniform(0.05, config.housing_arc
                                                  - 0.05, 200)
        forces = unlatch_force(config, thetas)
        assert forces.tobytes() == np.array(
            [unlatch_force(config, float(t)) for t in thetas]).tobytes()
        assert effective_length(config.housing_radius, thetas).tobytes() == \
            np.array([effective_length(config.housing_radius, float(t))
                      for t in thetas]).tobytes()
        assert half_sine_impulse(forces, config.pulse_width).tobytes() == \
            np.array([half_sine_impulse(float(f), config.pulse_width)
                      for f in forces]).tobytes()

    def test_checks_cover_every_element(self, config):
        with pytest.raises(ValueError, match="engaged_angle must be positive"):
            unlatch_force(config, np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="smaller than the housing arc"):
            unlatch_force(config, np.array([0.5, config.housing_arc]))
        with pytest.raises(ValueError, match="must be positive"):
            effective_length(config.housing_radius, np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="must be positive"):
            half_sine_impulse(np.array([1.0, 0.0]), 0.010)
        assert unlatch_force(config, np.empty(0)).size == 0


class TestStrikeLimit:
    # 64 s: the rate that reaches the limit is exact in binary, as is its
    # product with the duration
    OVER = (MAX_STRIKES + 1) / 64.0

    def test_revolutions_at_the_limit(self):
        assert revolutions(MAX_STRIKES / 64.0, 64.0) == MAX_STRIKES
        assert revolutions(math.nextafter(self.OVER, 0.0), 64.0) == MAX_STRIKES
        for speed, duration in ((self.OVER, 64.0), (math.inf, 1.0),
                                (math.nan, 1.0), (1.0, 1e308)):
            with pytest.raises(ValueError, match=(
                    f"would take over {MAX_STRIKES} strikes$")):
                revolutions(speed, duration)

    @pytest.mark.parametrize("regime", list(LengthRegime))
    def test_one_over_is_refused_before_drawing(self, monkeypatch, regime):
        def no_draw(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="would take over"):
            strike_sequence(TailConfig(motor_speed=self.OVER), regime=regime,
                            duration=64.0)


class TestStrikeTraceTimes:
    @pytest.mark.parametrize("times", [[math.nan, 1.0], [1.0, math.nan],
                                       [math.inf], [-math.inf, 1.0]],
                             ids=["nan-first", "nan-last", "inf", "minus-inf"])
    def test_non_finite_time_is_refused(self, times):
        with pytest.raises(ValueError, match="^strike times must be finite$"):
            strike_trace(strikes(times), 2000.0, 0.010)

    @pytest.mark.parametrize("far", [-1e300, -5e305, -1.7e308])
    def test_strike_far_before_zero_writes_nothing(self, far):
        got = strike_trace(strikes([far, 1.0]), 2000.0, 0.010)
        want = strike_trace(strikes([1.0]), 2000.0, 0.010)
        assert full(got).tobytes() == full(want).tobytes()

    @pytest.mark.parametrize("far", [1e306, 1e10, 4194.294])
    def test_a_trace_over_the_limit_is_refused_before_allocating(self, far):
        """A strike at 1e306 s once overflowed int(), one at 1e10 s asked
        for 2e13 samples, and one at 4194.294 s at 2 kHz needs one sample
        more than the limit; each is one ValueError, with nothing
        allocated."""
        events = strikes(np.array([1.0, far]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    "^duration is too long at sample_rate: a .* s trace at "
                    f"2000 Hz would take over "
                    f"{MAX_TRACE_SAMPLES} samples$")):
                strike_trace(events, 2000.0, 0.010)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_trace_samples_at_the_limit(self):
        # 2048 Hz: both durations are exact in binary, as are their products
        rate = 2048.0
        assert trace_samples((MAX_TRACE_SAMPLES - 1) / rate,
                             rate) == MAX_TRACE_SAMPLES
        with pytest.raises(ValueError, match="would take over"):
            trace_samples((MAX_TRACE_SAMPLES - 0.5) / rate, rate)
        with pytest.raises(ValueError, match="would take over"):
            trace_samples(math.inf, rate)

    def test_trace_ends_a_pulse_after_the_last_strike(self):
        assert strike_trace(strikes([1.0]), 2000.0, 0.010).n_samples == 2021
        # strikes all before time zero leave one pulse width of trace
        assert strike_trace(strikes([-3.0]), 2000.0, 0.010).n_samples == 21
