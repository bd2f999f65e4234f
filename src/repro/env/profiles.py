"""Composable illuminance profiles.

A profile is a callable ``lux(t)`` (t in seconds).  Profiles compose by
addition (mixed lighting — the paper's desk sees artificial *and*
natural light), scaling (blinds, window transmission), and noise
(seeded, reproducible).  :class:`SampledProfile` turns a profile into a
fixed-rate record, which is what the Eq. (2) sampling-error analysis
consumes.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.errors import ModelParameterError

HOURS = 3600.0
"""Seconds per hour, for readable profile definitions."""


class LightProfile:
    """Base class: a time-dependent illuminance in lux.

    Subclasses implement :meth:`lux`.  Instances are callable and
    support ``+`` (superposition) and ``*`` (scalar attenuation).
    """

    def lux(self, t: float) -> float:
        """Illuminance (lux) at time ``t`` seconds."""
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return max(0.0, self.lux(t))

    def __add__(self, other: "LightProfile") -> "CompositeProfile":
        return CompositeProfile([self, other])

    def __mul__(self, factor: float) -> "ScaledProfile":
        return ScaledProfile(self, factor)

    __rmul__ = __mul__


class ConstantProfile(LightProfile):
    """A fixed illuminance — the bench condition for Table I rows.

    Args:
        level: illuminance, lux.
    """

    def __init__(self, level: float):
        if level < 0.0:
            raise ModelParameterError(f"level must be >= 0, got {level!r}")
        self.level = level

    def lux(self, t: float) -> float:
        return self.level

    def __repr__(self) -> str:
        return f"ConstantProfile({self.level:g} lux)"


class PiecewiseProfile(LightProfile):
    """Linear interpolation through (time, lux) breakpoints.

    Before the first breakpoint the first level holds; after the last,
    the last level holds.

    Args:
        points: sequence of (time_seconds, lux) pairs, strictly
            increasing in time.
    """

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 1:
            raise ModelParameterError("need at least one breakpoint")
        times = [p[0] for p in points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ModelParameterError("breakpoint times must be strictly increasing")
        if any(p[1] < 0.0 for p in points):
            raise ModelParameterError("lux values must be >= 0")
        self._times = times
        self._levels = [p[1] for p in points]

    def lux(self, t: float) -> float:
        return float(np.interp(t, self._times, self._levels))

    def __repr__(self) -> str:
        return f"PiecewiseProfile({len(self._times)} points)"


class StepProfile(LightProfile):
    """Piecewise-*constant* profile: holds each level until the next time.

    Args:
        steps: sequence of (time_seconds, lux); level holds from its
            time until the next entry's time.  Before the first entry
            the level is ``initial``.
    """

    def __init__(self, steps: Sequence[Tuple[float, float]], initial: float = 0.0):
        if not steps:
            raise ModelParameterError("need at least one step")
        times = [s[0] for s in steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ModelParameterError("step times must be strictly increasing")
        self._times = times
        self._levels = [s[1] for s in steps]
        self._initial = initial

    def lux(self, t: float) -> float:
        index = bisect.bisect_right(self._times, t) - 1
        if index < 0:
            return self._initial
        return self._levels[index]


class CompositeProfile(LightProfile):
    """Sum of component profiles (superposed light sources)."""

    def __init__(self, components: List[LightProfile]):
        if not components:
            raise ModelParameterError("need at least one component")
        self.components = list(components)

    def lux(self, t: float) -> float:
        return sum(c(t) for c in self.components)

    def __add__(self, other: LightProfile) -> "CompositeProfile":
        return CompositeProfile(self.components + [other])


class ScaledProfile(LightProfile):
    """A profile attenuated by a constant factor (blinds, distance)."""

    def __init__(self, base: LightProfile, factor: float):
        if factor < 0.0:
            raise ModelParameterError(f"factor must be >= 0, got {factor!r}")
        self.base = base
        self.factor = factor

    def lux(self, t: float) -> float:
        return self.factor * self.base(t)


@functools.lru_cache(maxsize=1 << 16)
def _unit_noise(seed: int, bucket: int) -> float:
    """The standard-normal draw of one :class:`NoisyProfile` bucket.

    A pure function of ``(seed, bucket)``; memoised process-wide because
    seeding a generator costs more than the rest of a light-walk step,
    and every run of a scenario walks the same buckets.
    """
    rng = np.random.default_rng((seed * 1_000_003 + bucket) & 0x7FFFFFFF)
    return float(rng.standard_normal())


class NoisyProfile(LightProfile):
    """Multiplicative band-limited noise on a base profile.

    Reproducible: noise is a hash-seeded value per ``correlation_time``
    bucket, linearly interpolated between buckets, so the same seed
    gives the same 24-hour record every run.

    Args:
        base: underlying profile.
        relative_sigma: standard deviation as a fraction of the base level.
        correlation_time: noise bucket width, seconds.
        seed: RNG seed.
    """

    def __init__(
        self,
        base: LightProfile,
        relative_sigma: float = 0.02,
        correlation_time: float = 30.0,
        seed: int = 0,
    ):
        if relative_sigma < 0.0:
            raise ModelParameterError(f"relative_sigma must be >= 0, got {relative_sigma!r}")
        if correlation_time <= 0.0:
            raise ModelParameterError(f"correlation_time must be positive, got {correlation_time!r}")
        self.base = base
        self.relative_sigma = relative_sigma
        self.correlation_time = correlation_time
        self.seed = seed

    def lux(self, t: float) -> float:
        base = self.base(t)
        if base <= 0.0 or self.relative_sigma == 0.0:
            return base
        position = t / self.correlation_time
        bucket = math.floor(position)
        frac = position - bucket
        lo = _unit_noise(self.seed, bucket)
        hi = _unit_noise(self.seed, bucket + 1)
        noise = (1.0 - frac) * lo + frac * hi
        return base * max(0.0, 1.0 + self.relative_sigma * noise)


class SampledProfile:
    """A profile evaluated onto a uniform grid — a recorded light log.

    This is the object the Sec. II-B analysis operates on: the paper's
    24-hour logs were discrete records, and Eq. (2) is defined over
    samples.

    Args:
        profile: the continuous profile to record.
        duration: record length, seconds.
        dt: sample interval, seconds.
    """

    def __init__(self, profile: Callable[[float], float], duration: float, dt: float = 1.0):
        if duration <= 0.0 or dt <= 0.0:
            raise ModelParameterError("duration and dt must be positive")
        self.dt = dt
        self.times = np.arange(0.0, duration + dt / 2.0, dt)
        self.values = np.array([max(0.0, float(profile(t))) for t in self.times])

    def __len__(self) -> int:
        return len(self.times)

    def map(self, func: Callable[[float], float]) -> "SampledProfile":
        """A new record with ``func`` applied to every sample (e.g. lux -> Voc)."""
        out = SampledProfile.__new__(SampledProfile)
        out.dt = self.dt
        out.times = self.times.copy()
        out.values = np.array([float(func(v)) for v in self.values])
        return out
