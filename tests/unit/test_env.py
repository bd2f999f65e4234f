"""Unit tests for light environments."""

import bisect

import numpy as np
import pytest

from repro.env.indoor import ArtificialLighting, OccupancyLighting, WindowDaylight
from repro.env.outdoor import ClearSkySun, CloudField
from repro.env.profiles import (
    HOURS,
    CompositeProfile,
    ConstantProfile,
    NoisyProfile,
    PiecewiseProfile,
    SampledProfile,
    ScaledProfile,
    StepProfile,
)
from repro.env.scenarios import office_desk_24h, outdoor_day, semi_mobile_24h, step_change
from repro.errors import ModelParameterError


class TestBasicProfiles:
    def test_constant(self):
        p = ConstantProfile(500.0)
        assert p(0.0) == 500.0
        assert p(1e6) == 500.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ModelParameterError):
            ConstantProfile(-1.0)

    def test_piecewise_interpolates(self):
        p = PiecewiseProfile([(0.0, 0.0), (10.0, 100.0)])
        assert p(5.0) == pytest.approx(50.0)
        assert p(-5.0) == 0.0  # holds first level
        assert p(20.0) == 100.0  # holds last level

    def test_piecewise_rejects_unordered(self):
        with pytest.raises(ModelParameterError):
            PiecewiseProfile([(1.0, 0.0), (0.5, 1.0)])

    def test_step_profile_holds_levels(self):
        p = StepProfile([(10.0, 100.0), (20.0, 300.0)], initial=5.0)
        assert p(0.0) == 5.0
        assert p(10.0) == 100.0
        assert p(19.9) == 100.0
        assert p(25.0) == 300.0

    def test_composition_adds(self):
        p = ConstantProfile(100.0) + ConstantProfile(50.0)
        assert p(0.0) == 150.0

    def test_scaling(self):
        p = 0.5 * ConstantProfile(100.0)
        assert isinstance(p, ScaledProfile)
        assert p(0.0) == 50.0

    def test_noise_reproducible(self):
        base = ConstantProfile(1000.0)
        a = NoisyProfile(base, relative_sigma=0.1, seed=7)
        b = NoisyProfile(base, relative_sigma=0.1, seed=7)
        times = np.linspace(0, 1000, 50)
        assert [a(t) for t in times] == [b(t) for t in times]

    def test_memoised_noise_matches_direct_draws_bitwise(self):
        # The bucket draws are memoised process-wide; the walk must read
        # exactly what a freshly seeded generator gives, warm or cold.
        base = ConstantProfile(1000.0)
        seed, sigma, tau = 11, 0.1, 30.0
        p = NoisyProfile(base, relative_sigma=sigma, correlation_time=tau, seed=seed)

        def direct(t):
            position = t / tau
            bucket = int(np.floor(position))
            frac = position - bucket
            lo, hi = (
                float(np.random.default_rng((seed * 1_000_003 + b) & 0x7FFFFFFF).standard_normal())
                for b in (bucket, bucket + 1)
            )
            return 1000.0 * max(0.0, 1.0 + sigma * ((1.0 - frac) * lo + frac * hi))

        times = np.arange(0.0, 3600.0, 7.3)
        cold = [p(t) for t in times]
        warm = [p(t) for t in times]
        assert cold == warm == [direct(t) for t in times]

    def test_memoised_cloud_draws_match_direct_draws_bitwise(self):
        # CloudField's dwell and state draws are memoised process-wide;
        # a fresh field must read exactly what freshly seeded generators
        # give, warm or cold.
        seed, fraction, mean = 5, 0.4, 300.0
        base = ConstantProfile(1000.0)

        def draw_state(index):
            rng = np.random.default_rng((seed * 7_368_787 + index) & 0x7FFFFFFF)
            return bool(rng.random() < fraction)

        def draw_dwell(index):
            rng = np.random.default_rng((seed * 15_485_863 + index) & 0x7FFFFFFF)
            return float(rng.exponential(mean))

        def direct(t):
            bounds, states = [0.0], [draw_state(0)]
            while bounds[-1] <= t + 20.0:
                index = len(bounds)
                bounds.append(bounds[-1] + draw_dwell(index))
                states.append(draw_state(index))
            i = bisect.bisect_right(bounds, t) - 1
            now = 0.25 if states[i] else 1.0
            until = bounds[i + 1] - t
            if until < 20.0:
                blend = until / 20.0
                nxt = 0.25 if states[i + 1] else 1.0
                return 1000.0 * (blend * now + (1.0 - blend) * nxt)
            return 1000.0 * now

        times = np.arange(0.0, 7200.0, 13.7)
        cold = [CloudField(base, fraction, mean, seed=seed)(t) for t in times]
        field = CloudField(base, fraction, mean, seed=seed)
        warm = [field(t) for t in times]
        assert cold == warm == [direct(t) for t in times]

    def test_noise_different_seeds_differ(self):
        base = ConstantProfile(1000.0)
        a = NoisyProfile(base, relative_sigma=0.1, seed=1)
        b = NoisyProfile(base, relative_sigma=0.1, seed=2)
        assert a(123.0) != b(123.0)

    def test_noise_never_negative(self):
        p = NoisyProfile(ConstantProfile(10.0), relative_sigma=2.0, seed=3)
        assert all(p(t) >= 0.0 for t in np.linspace(0, 5000, 200))

    def test_sampled_profile(self):
        s = SampledProfile(ConstantProfile(42.0), duration=10.0, dt=1.0)
        assert len(s) == 11
        assert np.all(s.values == 42.0)

    def test_sampled_map(self):
        s = SampledProfile(ConstantProfile(2.0), duration=4.0, dt=1.0)
        doubled = s.map(lambda v: 2.0 * v)
        assert np.all(doubled.values == 4.0)
        assert np.all(s.values == 2.0)  # original untouched


class TestIndoorBlocks:
    def test_artificial_schedule(self):
        lights = ArtificialLighting(level=400.0, on_hour=8.0, off_hour=20.0, warmup_seconds=0.0)
        assert lights(7.9 * HOURS) == 0.0
        assert lights(12.0 * HOURS) == 400.0
        assert lights(20.1 * HOURS) == 0.0

    def test_artificial_warmup_ramp(self):
        lights = ArtificialLighting(level=400.0, on_hour=8.0, off_hour=20.0, warmup_seconds=100.0)
        assert lights(8.0 * HOURS + 50.0) == pytest.approx(200.0)

    def test_artificial_wraps_past_midnight(self):
        lights = ArtificialLighting(level=100.0, on_hour=22.0, off_hour=26.0, warmup_seconds=0.0)
        assert lights(23.0 * HOURS) == 100.0
        assert lights(1.0 * HOURS) == 100.0
        assert lights(3.0 * HOURS) == 0.0

    def test_window_daylight_peaks_at_solar_noon(self):
        window = WindowDaylight(peak_lux=1000.0, sunrise_hour=6.0, sunset_hour=18.0, transmission=1.0)
        noon = window(12.0 * HOURS)
        assert noon == pytest.approx(1000.0)
        assert window(5.0 * HOURS) == 0.0
        assert window(9.0 * HOURS) < noon

    def test_occupancy_intervals(self):
        occ = OccupancyLighting([(9.0, 12.0, 300.0), (13.0, 17.0, 350.0)])
        assert occ(10.0 * HOURS) == 300.0
        assert occ(12.5 * HOURS) == 0.0
        assert occ(14.0 * HOURS) == 350.0

    def test_occupancy_rejects_overlap(self):
        with pytest.raises(ModelParameterError):
            OccupancyLighting([(9.0, 12.0, 300.0), (11.0, 14.0, 350.0)])


class TestOutdoorBlocks:
    def test_sun_zero_at_night(self):
        sun = ClearSkySun(sunrise_hour=6.0, sunset_hour=20.0)
        assert sun(3.0 * HOURS) == 0.0
        assert sun(22.0 * HOURS) == 0.0

    def test_sun_peaks_at_noon(self):
        sun = ClearSkySun(sunrise_hour=6.0, sunset_hour=18.0)
        noon = sun(12.0 * HOURS)
        assert noon > sun(8.0 * HOURS)
        assert noon > sun(16.0 * HOURS)
        assert noon > 30000.0  # tens of klux at 55 deg elevation

    def test_clouds_attenuate(self):
        sun = ClearSkySun()
        cloudy = CloudField(sun, cloudy_fraction=1.0, cloud_transmission=0.25, seed=5)
        t = 12.0 * HOURS
        assert cloudy(t) == pytest.approx(0.25 * sun(t), rel=0.05)

    def test_clear_fraction_passes_through(self):
        sun = ClearSkySun()
        clear = CloudField(sun, cloudy_fraction=0.0, seed=5)
        t = 12.0 * HOURS
        assert clear(t) == pytest.approx(sun(t), rel=1e-9)

    def test_cloud_field_reproducible(self):
        sun = ClearSkySun()
        a = CloudField(sun, cloudy_fraction=0.5, seed=9)
        b = CloudField(sun, cloudy_fraction=0.5, seed=9)
        times = np.linspace(8 * HOURS, 16 * HOURS, 100)
        assert [a(t) for t in times] == [b(t) for t in times]


class TestScenarios:
    def test_desk_dark_at_night_lit_by_day(self):
        desk = office_desk_24h()
        assert desk(2.0 * HOURS) == 0.0
        assert desk(12.0 * HOURS) > 200.0

    def test_desk_lights_off_step_exists(self):
        desk = office_desk_24h()
        before = desk(20.9 * HOURS)
        after = desk(21.2 * HOURS)
        assert before > after + 100.0

    def test_semi_mobile_lunch_excursion(self):
        mobile = semi_mobile_24h()
        indoor = mobile(11.0 * HOURS)
        outdoor = mobile(12.5 * HOURS)
        assert outdoor > 5.0 * indoor

    def test_outdoor_day_shape(self):
        day = outdoor_day()
        assert day(1.0 * HOURS) == 0.0
        assert day(12.0 * HOURS) > 1000.0

    def test_step_change_profile(self):
        p = step_change(200.0, 2000.0, step_time=100.0)
        assert p(50.0) == pytest.approx(200.0)
        assert p(200.0) == pytest.approx(2000.0)
