"""Outdoor lighting building blocks: clear-sky sun and cloud cover."""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.env.profiles import HOURS, LightProfile
from repro.errors import ModelParameterError
from repro.units import FULL_SUN_LUX


class ClearSkySun(LightProfile):
    """Clear-sky horizontal illuminance from solar elevation.

    A simple solar-geometry model: elevation follows a sinusoid between
    sunrise and sunset peaking at ``max_elevation_deg``; illuminance is
    ``FULL_SUN_LUX * sin(elevation)`` with an airmass-flavoured
    correction that suppresses low-sun output, matching the sharp
    morning rise of measured horizontal lux.

    Args:
        sunrise_hour: local sunrise, hours.
        sunset_hour: local sunset, hours.
        max_elevation_deg: solar elevation at local noon, degrees.
        turbidity: atmospheric extinction multiplier (1 = very clear).
    """

    def __init__(
        self,
        sunrise_hour: float = 6.0,
        sunset_hour: float = 20.0,
        max_elevation_deg: float = 55.0,
        turbidity: float = 1.0,
    ):
        if sunset_hour <= sunrise_hour:
            raise ModelParameterError("sunset must be after sunrise")
        if not 0.0 < max_elevation_deg <= 90.0:
            raise ModelParameterError(
                f"max_elevation_deg must be in (0, 90], got {max_elevation_deg!r}"
            )
        if turbidity < 1.0:
            raise ModelParameterError(f"turbidity must be >= 1, got {turbidity!r}")
        self.sunrise = sunrise_hour * HOURS
        self.sunset = sunset_hour * HOURS
        self.max_elevation = math.radians(max_elevation_deg)
        self.turbidity = turbidity

    def elevation(self, t: float) -> float:
        """Solar elevation (radians) at time ``t``; negative below horizon."""
        day_t = t % (24.0 * HOURS)
        if not self.sunrise <= day_t <= self.sunset:
            return -0.1
        phase = (day_t - self.sunrise) / (self.sunset - self.sunrise)
        return self.max_elevation * math.sin(math.pi * phase)

    def lux(self, t: float) -> float:
        elevation = self.elevation(t)
        if elevation <= 0.0:
            return 0.0
        sin_e = math.sin(elevation)
        # Kasten-Young-flavoured airmass extinction.
        airmass = 1.0 / max(sin_e, 0.02)
        extinction = math.exp(-0.09 * self.turbidity * (airmass - 1.0))
        return FULL_SUN_LUX * sin_e * extinction


@functools.lru_cache(maxsize=1 << 16)
def _cloud_state(seed: int, index: int, cloudy_fraction: float) -> bool:
    """Whether :class:`CloudField` dwell ``index`` is cloudy.

    A pure function of its arguments, memoised process-wide like
    :func:`repro.env.profiles._unit_noise`: seeding a generator costs
    more than the rest of a light-walk step, and every run of a scenario
    walks the same dwells.
    """
    rng = np.random.default_rng((seed * 7_368_787 + index) & 0x7FFFFFFF)
    return bool(rng.random() < cloudy_fraction)


@functools.lru_cache(maxsize=1 << 16)
def _cloud_dwell(seed: int, index: int, mean_dwell: float) -> float:
    """Length of :class:`CloudField` dwell ``index``, seconds (memoised
    like :func:`_cloud_state`)."""
    rng = np.random.default_rng((seed * 15_485_863 + index) & 0x7FFFFFFF)
    return float(rng.exponential(mean_dwell))


class CloudField(LightProfile):
    """Cloud attenuation over a base profile (seeded random telegraph).

    Cloud cover alternates between clear and cloudy with exponential
    dwell times; transitions are smoothed over ``edge_seconds``.  All
    randomness is hash-seeded per event index so records reproduce.

    Args:
        base: the clear-sky profile to attenuate.
        cloudy_fraction: long-run fraction of time under cloud, 0..1.
        mean_dwell: mean dwell time of each state, seconds.
        cloud_transmission: illuminance factor under cloud (diffuse).
        edge_seconds: transition smoothing, seconds.
        seed: RNG seed.
    """

    def __init__(
        self,
        base: LightProfile,
        cloudy_fraction: float = 0.3,
        mean_dwell: float = 600.0,
        cloud_transmission: float = 0.25,
        edge_seconds: float = 20.0,
        seed: int = 0,
    ):
        if not 0.0 <= cloudy_fraction <= 1.0:
            raise ModelParameterError(f"cloudy_fraction must be in [0,1], got {cloudy_fraction!r}")
        if mean_dwell <= 0.0:
            raise ModelParameterError(f"mean_dwell must be positive, got {mean_dwell!r}")
        if not 0.0 < cloud_transmission <= 1.0:
            raise ModelParameterError(
                f"cloud_transmission must be in (0,1], got {cloud_transmission!r}"
            )
        self.base = base
        self.cloudy_fraction = cloudy_fraction
        self.mean_dwell = mean_dwell
        self.cloud_transmission = cloud_transmission
        self.edge_seconds = max(1e-6, edge_seconds)
        self.seed = seed
        self._boundaries: list[float] = [0.0]
        self._states: list[bool] = [_cloud_state(seed, 0, cloudy_fraction)]

    def _extend_to(self, t: float) -> None:
        while self._boundaries[-1] <= t:
            index = len(self._boundaries)
            dwell = _cloud_dwell(self.seed, index, self.mean_dwell)
            self._boundaries.append(self._boundaries[-1] + dwell)
            self._states.append(_cloud_state(self.seed, index, self.cloudy_fraction))

    def _attenuation(self, t: float) -> float:
        self._extend_to(t + self.edge_seconds)
        import bisect

        i = bisect.bisect_right(self._boundaries, t) - 1
        factor_now = self.cloud_transmission if self._states[i] else 1.0
        # Smooth across the upcoming boundary.
        if i + 1 < len(self._boundaries):
            until = self._boundaries[i + 1] - t
            if until < self.edge_seconds:
                factor_next = self.cloud_transmission if self._states[i + 1] else 1.0
                blend = until / self.edge_seconds
                return blend * factor_now + (1.0 - blend) * factor_next
        return factor_now

    def lux(self, t: float) -> float:
        base = self.base(t)
        if base <= 0.0:
            return 0.0
        return base * self._attenuation(t)
