"""Deterministic time-varying shadow maps driving per-cell irradiance.

A shadow map turns "what shades a string" into per-cell irradiance
multipliers ``factors_at(t)`` for a :class:`~repro.pv.string.CellString`.
Three families cover the shapes seen in deployments:

* :class:`EdgeSweep` — a hard shadow edge (window frame, door, desk
  lamp boundary) sweeping along the string; two irradiance groups.
* :class:`BlobOcclusion` — seeded soft occlusions (foliage, passers-by,
  clouds) arriving as a Poisson-like process with Gaussian profiles;
  several distinct irradiance levels, the multi-knee workhorse.
* :class:`VenetianBlind` — periodic stripes marching along the string.

Design contract, shared by all maps:

* **Deterministic** — every draw happens in ``__init__`` from a seeded
  generator; two maps built with the same arguments return bitwise-
  identical factors forever (asserted by the property suite).
* **Piecewise-constant** — factors change only every
  ``update_interval`` seconds, bounding the number of unique string
  conditions a run produces (which is what keeps the precompute dedup
  and the compiled tier's per-condition LUT rows finite).
* **Hashable** — the factors tuple *is* the condition key: precompute
  dedups on ``(lux, temperature, factors)`` and the compiled tier keys
  its per-string table rows the same way.  Factors are quantised to
  1e-6 so equal-looking patterns collapse to equal keys.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

from repro.errors import ModelParameterError

_FACTOR_DECIMALS = 6


def _quantise(values) -> Tuple[float, ...]:
    return tuple(round(float(v), _FACTOR_DECIMALS) for v in values)


class ShadowMap:
    """Base class: per-cell shading factors, piecewise-constant in time.

    Args:
        n_cells: number of cells in the target string.
        update_interval: seconds between factor updates (the shadow is
            frozen within an interval).
    """

    def __init__(self, n_cells: int, update_interval: float = 300.0):
        if n_cells < 1:
            raise ModelParameterError(f"n_cells must be >= 1, got {n_cells!r}")
        if update_interval <= 0.0:
            raise ModelParameterError(
                f"update_interval must be positive, got {update_interval!r}"
            )
        self.n_cells = int(n_cells)
        self.update_interval = float(update_interval)
        self._cache: Dict[int, Tuple[float, ...]] = {}

    def _step_of(self, time: float) -> int:
        return int(math.floor(time / self.update_interval))

    def factors_at(self, time: float) -> Tuple[float, ...]:
        """Per-cell irradiance multipliers in ``[0, 1]`` at ``time``.

        The returned tuple doubles as the condition key: equal tuples
        mean equal string curves at equal ``(lux, temperature)``.
        """
        step = self._step_of(time)
        cached = self._cache.get(step)
        if cached is None:
            cached = _quantise(self._factors_for_step(step))
            self._cache[step] = cached
        return cached

    def _factors_for_step(self, step: int) -> Tuple[float, ...]:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{type(self).__name__}(n_cells={self.n_cells})"


class NoShade(ShadowMap):
    """The identity map: every cell fully lit (useful as a control)."""

    def _factors_for_step(self, step: int) -> Tuple[float, ...]:
        return (1.0,) * self.n_cells


class StaticShade(ShadowMap):
    """A fixed per-cell pattern (soiling, a permanent obstruction).

    Args:
        factors: per-cell multipliers in ``[0, 1]``.
    """

    def __init__(self, factors, update_interval: float = 300.0):
        super().__init__(len(tuple(factors)), update_interval)
        self._factors = _quantise(factors)
        if any(f < 0.0 or f > 1.0 for f in self._factors):
            raise ModelParameterError("shading factors must lie in [0, 1]")

    def _factors_for_step(self, step: int) -> Tuple[float, ...]:
        return self._factors


class EdgeSweep(ShadowMap):
    """A hard shadow edge sweeping along the string and back.

    The edge position triangles between 0 and ``n_cells`` over
    ``period`` seconds; cells behind the edge see ``1 - depth``.

    Args:
        n_cells: string length.
        period: seconds for a full out-and-back sweep.
        depth: shading depth in ``[0, 1]`` (1 = fully dark).
        update_interval: factor update cadence, seconds.
        phase: initial fraction of the period already elapsed.
    """

    def __init__(
        self,
        n_cells: int,
        period: float = 7200.0,
        depth: float = 0.8,
        update_interval: float = 300.0,
        phase: float = 0.0,
    ):
        super().__init__(n_cells, update_interval)
        if period <= 0.0:
            raise ModelParameterError(f"period must be positive, got {period!r}")
        if not 0.0 <= depth <= 1.0:
            raise ModelParameterError(f"depth must be in [0, 1], got {depth!r}")
        self.period = float(period)
        self.depth = float(depth)
        self.phase = float(phase)

    def _factors_for_step(self, step: int) -> Tuple[float, ...]:
        t = step * self.update_interval
        frac = (t / self.period + self.phase) % 1.0
        # Triangle wave: 0 -> 1 -> 0 across the period.
        tri = 2.0 * frac if frac < 0.5 else 2.0 * (1.0 - frac)
        covered = int(math.floor(tri * (self.n_cells + 1)))
        return tuple(
            1.0 - self.depth if i < covered else 1.0 for i in range(self.n_cells)
        )

    def describe(self) -> str:
        return (
            f"EdgeSweep(n_cells={self.n_cells}, period={self.period:g} s, "
            f"depth={self.depth:g})"
        )


class BlobOcclusion(ShadowMap):
    """Seeded soft occlusions drifting over the string.

    Blob events arrive with exponential inter-arrival times; each has a
    Gaussian spatial profile (centre, width), a depth, and a dwell
    time.  Overlapping blobs multiply.  All draws happen at
    construction over ``horizon`` seconds, so the map is a pure
    function of its arguments.

    Args:
        n_cells: string length.
        seed: generator seed (the whole event table derives from it).
        mean_interval: mean seconds between blob arrivals.
        mean_duration: mean blob dwell time, seconds.
        depth_range: ``(min, max)`` shading depth per blob.
        width_range: ``(min, max)`` Gaussian sigma in cell units.
        update_interval: factor update cadence, seconds.
        horizon: seconds of pre-drawn events (runs past the horizon see
            the pattern repeat, keeping determinism unconditional).
    """

    def __init__(
        self,
        n_cells: int,
        seed: int = 0,
        mean_interval: float = 2700.0,
        mean_duration: float = 1800.0,
        depth_range: Tuple[float, float] = (0.45, 0.95),
        width_range: Tuple[float, float] = (0.6, 1.8),
        update_interval: float = 300.0,
        horizon: float = 7.0 * 86400.0,
    ):
        super().__init__(n_cells, update_interval)
        if mean_interval <= 0.0 or mean_duration <= 0.0:
            raise ModelParameterError("mean_interval and mean_duration must be positive")
        if not 0.0 <= depth_range[0] <= depth_range[1] <= 1.0:
            raise ModelParameterError(f"depth_range must nest in [0, 1], got {depth_range!r}")
        self.seed = int(seed)
        self.horizon = float(horizon)
        rng = np.random.default_rng(self.seed)
        events = []
        t = 0.0
        while t < self.horizon:
            t += float(rng.exponential(mean_interval))
            duration = max(
                float(rng.exponential(mean_duration)), 2.0 * update_interval
            )
            events.append(
                (
                    t,
                    t + duration,
                    float(rng.uniform(0.0, n_cells - 1.0)) if n_cells > 1 else 0.0,
                    float(rng.uniform(*width_range)),
                    float(rng.uniform(*depth_range)),
                )
            )
        self._events = tuple(events)

    def _factors_for_step(self, step: int) -> Tuple[float, ...]:
        t = (step * self.update_interval) % self.horizon
        factors = [1.0] * self.n_cells
        for start, end, centre, width, depth in self._events:
            if start <= t < end:
                for i in range(self.n_cells):
                    profile = math.exp(-(((i - centre) / width) ** 2))
                    factors[i] *= 1.0 - depth * profile
        return tuple(factors)

    def describe(self) -> str:
        return (
            f"BlobOcclusion(n_cells={self.n_cells}, seed={self.seed}, "
            f"{len(self._events)} events)"
        )


class VenetianBlind(ShadowMap):
    """Periodic stripes marching one cell per update step.

    Args:
        n_cells: string length.
        stripe: width of the shaded stripe in cells (the lit gap has
            the same width).
        depth: shading depth in ``[0, 1]``.
        update_interval: factor update cadence; the pattern advances by
            one cell per interval.
    """

    def __init__(
        self,
        n_cells: int,
        stripe: int = 1,
        depth: float = 0.7,
        update_interval: float = 300.0,
    ):
        super().__init__(n_cells, update_interval)
        if stripe < 1:
            raise ModelParameterError(f"stripe must be >= 1, got {stripe!r}")
        if not 0.0 <= depth <= 1.0:
            raise ModelParameterError(f"depth must be in [0, 1], got {depth!r}")
        self.stripe = int(stripe)
        self.depth = float(depth)

    def _factors_for_step(self, step: int) -> Tuple[float, ...]:
        wavelength = 2 * self.stripe
        return tuple(
            1.0 - self.depth if ((i + step) % wavelength) < self.stripe else 1.0
            for i in range(self.n_cells)
        )

    def describe(self) -> str:
        return (
            f"VenetianBlind(n_cells={self.n_cells}, stripe={self.stripe}, "
            f"depth={self.depth:g})"
        )


SHADOW_MAPS: Dict[str, "callable"] = {
    "none": NoShade,
    "edge-sweep": EdgeSweep,
    "blob": BlobOcclusion,
    "venetian": VenetianBlind,
}
"""Registry of named shadow-map factories ``name -> factory(n_cells)``.

The names are the serialisable experiment axis: specs carry the name (and
the target string's cell count), runs rebuild the map locally via
:func:`build_shadow_map`, and the determinism contract guarantees every
rebuild yields the same factors.
"""


def build_shadow_map(name: str, n_cells: int, **kwargs) -> ShadowMap:
    """Instantiate a registered shadow map by name.

    Args:
        name: a :data:`SHADOW_MAPS` key.
        n_cells: cell count of the string the map will shade.
        kwargs: forwarded to the map's constructor (seed, depth, ...).
    """
    factory = SHADOW_MAPS.get(name)
    if factory is None:
        raise ModelParameterError(
            f"unknown shadow map {name!r}; known: {sorted(SHADOW_MAPS)}"
        )
    return factory(n_cells, **kwargs)


__all__ = [
    "ShadowMap",
    "NoShade",
    "StaticShade",
    "EdgeSweep",
    "BlobOcclusion",
    "VenetianBlind",
    "SHADOW_MAPS",
    "build_shadow_map",
]
