import math

import numpy as np
import pytest

from skipsim.springtail import (EngagedAngleModel, LengthRegime,
                                RegimeThresholds, TailConfig, area_moment,
                                effective_length, half_sine_impulse,
                                latch_deflection, latch_energy, length_regime,
                                stored_energy, strike_sequence, strike_trace,
                                tip_stiffness, unlatch_force)
from skipsim.stats import detect_peaks


@pytest.fixture
def config():
    return TailConfig()


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
        assert [e.time for e in events] == pytest.approx(
            [k + 1.0 for k in range(10)])

    def test_zero_duration_empty(self, config):
        assert strike_sequence(config, duration=0.0, seed=0) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_forces_bounded_by_angle_model(self, config, seed):
        model = EngagedAngleModel()
        events = strike_sequence(config, model, duration=10.0, seed=seed)
        f_hi = unlatch_force(config, model.lower)
        f_lo = unlatch_force(config, model.upper)
        for e in events:
            assert f_lo <= e.peak_force <= f_hi
            assert model.lower <= e.engaged_angle <= model.upper
            assert e.impulse == pytest.approx(
                2.0 * e.peak_force * config.pulse_width / math.pi, rel=1e-12)

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
        for a, b in zip(nominal, rolled):
            assert b.peak_force == pytest.approx(0.5 * a.peak_force, rel=1e-12)

    def test_deterministic_given_seed(self, config):
        a = strike_sequence(config, duration=10.0, seed=42)
        b = strike_sequence(config, duration=10.0, seed=42)
        assert a == b

    def test_truncated_normal_model_stays_in_bounds(self, config):
        model = EngagedAngleModel(kind="truncated_normal",
                                  lower=math.radians(20),
                                  upper=math.radians(45))
        events = strike_sequence(config, model, duration=10.0, seed=3)
        assert all(model.lower <= e.engaged_angle <= model.upper
                   for e in events)

    def test_degenerate_angle_model_is_noise_free(self, config):
        model = EngagedAngleModel(lower=0.5, upper=0.5)
        a = strike_sequence(config, model, duration=10.0, seed=1)
        b = strike_sequence(config, model, duration=10.0, seed=99)
        assert [e.peak_force for e in a] == [e.peak_force for e in b]


class TestStrikeTrace:
    def test_single_pulse_impulse_quadrature(self):
        config = TailConfig()
        events = strike_sequence(config, EngagedAngleModel(lower=0.5, upper=0.5),
                                 duration=1.0, seed=0)
        assert len(events) == 1
        trace = strike_trace(events, 2000.0, config.pulse_width)
        sampled = np.trapezoid(trace.samples, dx=1.0 / trace.sample_rate)
        assert sampled == pytest.approx(events[0].impulse, rel=1e-2)

    def test_analytic_pulse_impulse(self):
        assert half_sine_impulse(4.0, 0.010) == pytest.approx(25.5e-3, rel=2e-3)

    def test_zero_events_all_zero(self):
        trace = strike_trace([], 2000.0, 0.010)
        assert np.all(trace.samples == 0.0)

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError):
            strike_trace([], 100.0, 0.010)

    def test_round_trip_peak_count(self):
        config = TailConfig()
        events = strike_sequence(config, duration=10.0, seed=5)
        trace = strike_trace(events, 2000.0, config.pulse_width)
        peaks = detect_peaks(trace, threshold=1.0, min_separation=0.3)
        assert peaks.count == len(events)


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
