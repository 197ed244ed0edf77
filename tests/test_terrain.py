import numpy as np
import pytest

from skipsim.terrain import (MOISTURE_MAX, Material, default_curves,
                             moisture_response)

GRID = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)


class TestMoistureResponse:
    def test_uniform_sand_skip_peaks_at_calibrated_moisture(self):
        values = {m: moisture_response(Material.UNIFORM_SAND, m).skip_efficiency
                  for m in GRID}
        argmax = max(values, key=values.get)
        assert argmax == pytest.approx(0.15, abs=0.011)

    def test_clay_slips_when_saturated(self):
        for m in (0.8, 0.9, 1.0):
            params = moisture_response(Material.BENTONITE_CLAY, m)
            assert params.tail_slips
            assert params.skip_efficiency == 0.0
        assert not moisture_response(Material.BENTONITE_CLAY, 0.79).tail_slips

    def test_dry_sand_excavates_crawling_but_skipping_moves(self):
        params = moisture_response(Material.UNIFORM_SAND, 0.0)
        assert params.excavates
        assert params.skip_efficiency > 0.0

    def test_moisture_domain_enforced(self):
        with pytest.raises(ValueError):
            moisture_response(Material.UNIFORM_SAND, -0.01)
        with pytest.raises(ValueError):
            moisture_response(Material.UNIFORM_SAND, MOISTURE_MAX + 0.01)
        # the domain extends past full saturation for clay
        moisture_response(Material.BENTONITE_CLAY, 1.2)

    def test_rigid_ignores_moisture_exactly(self):
        baseline = moisture_response(Material.RIGID, 0.0)
        for m in GRID:
            assert moisture_response(Material.RIGID, m) == baseline

    def test_grass_barely_crawls(self):
        params = moisture_response(Material.GRASS, 0.0)
        assert params.crawl_traction < 0.05
        assert default_curves(Material.GRASS).crawl.cap == 0.02

    def test_grass_never_excavates(self):
        assert not moisture_response(Material.GRASS, 0.0).excavates

    def test_deterministic(self):
        a = moisture_response(Material.BENTONITE_CLAY, 0.4)
        b = moisture_response(Material.BENTONITE_CLAY, 0.4)
        assert a == b


class TestCurveProperties:
    @pytest.mark.parametrize("material", list(Material))
    def test_efficiencies_stay_in_unit_interval(self, material):
        response = default_curves(material)
        for m in np.arange(0.0, MOISTURE_MAX + 1e-9, 0.01):
            assert 0.0 <= response.skip_efficiency(m) <= 1.0
            assert 0.0 <= response.crawl_traction(m) <= 1.0

    @pytest.mark.parametrize("material", [Material.UNIFORM_SAND,
                                          Material.BENTONITE_CLAY])
    def test_skip_curve_unimodal(self, material):
        response = default_curves(material)
        values = [response.skip_efficiency(m) for m in GRID]
        maxima = sum(
            1 for i in range(1, len(values) - 1)
            if values[i] > values[i - 1] and values[i] >= values[i + 1])
        assert maxima == 1

    def test_nonuniform_floor_above_uniform_floor(self):
        uniform = default_curves(Material.UNIFORM_SAND)
        nonuniform = default_curves(Material.NONUNIFORM_SAND)
        assert nonuniform.skip_efficiency(0.0) > uniform.skip_efficiency(0.0)
