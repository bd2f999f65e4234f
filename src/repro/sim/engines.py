"""Engine-tier registry: ``scalar`` | ``fleet`` | ``compiled`` selection.

Three tiers advance the same physics at different throughput:

* ``scalar`` — one :class:`~repro.sim.quasistatic.QuasiStaticSimulator`
  per chain.  The bitwise reference; the golden traces encode its bits.
* ``fleet`` — replayed S&H chains: Monte Carlo boards in one
  vectorized pass (:func:`~repro.core.sample_hold.evaluate_sample_hold_boards`),
  and resilience S&H lanes as a
  :class:`~repro.core.system.ReplayedSampleHold` controller stepped on
  the scalar engine (run by :class:`~repro.sim.fleet.FleetSimulator`).
  Matches scalar to a-few-ulp tolerance.
* ``compiled`` — :mod:`repro.sim.compiled`: a fused comparison/strings
  lane kernel (Numba-jitted when numba is importable, pure-Python
  otherwise) over a validated power LUT (:mod:`repro.pv.lut`).  Matches
  scalar within the table's declared error budget.

:data:`EXPERIMENT_ENGINES` is the one table of which tiers each
experiment implements; the entry points, the CLI ``--engine`` choices and
the service's spec fields all read it.

``engine="auto"`` resolves to the fastest tier an experiment supports.
The compiled tier is *always* available — the import-time numba probe
only decides whether its lane kernel is jitted or interpreted — so auto
never depends on the environment and results never silently change
with it.

Every experiment entry point funnels its ``engine=`` argument through
:func:`resolve_engine`, so unknown names fail identically everywhere.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ModelParameterError

KNOWN_ENGINES = ("scalar", "fleet", "compiled")
"""All engine tiers, slowest to fastest."""

AUTO = "auto"
"""Sentinel: pick the fastest allowed tier."""

EXPERIMENT_ENGINES = {
    "comparison": ("scalar", "compiled"),
    "strings": ("scalar", "compiled"),
    "resilience": ("scalar", "fleet"),
    "montecarlo": ("scalar", "fleet"),
}
"""Tiers each experiment implements.  ``compiled`` is the comparison and
strings lane kernel; ``fleet`` replays S&H chains, kept where it needs
its few-ulp parity with scalar.  Monte Carlo has no ``compiled`` tier
(its fleet pass is one vectorized shot per chunk, with no per-step loop
to compile), nor has resilience (only its S&H lanes ride the fleet, and
a LUT build per batch never beat it)."""

_SPEED_ORDER = ("compiled", "fleet", "scalar")


def available_engines() -> tuple:
    """Engine names accepted by the experiment entry points."""
    return KNOWN_ENGINES


def engine_choices(experiment: str) -> tuple:
    """The ``engine=`` values ``experiment`` accepts, ``"auto"`` last."""
    return EXPERIMENT_ENGINES[experiment] + (AUTO,)


def have_numba() -> bool:
    """Whether the compiled tier's lane kernel is jitted (vs interpreted)."""
    from repro.sim.compiled import HAVE_NUMBA

    return HAVE_NUMBA


def resolve_engine(
    engine: str,
    allowed: Sequence[str] = KNOWN_ENGINES,
    context: str = "experiment",
) -> str:
    """Validate an ``engine=`` argument and resolve ``"auto"``.

    Args:
        engine: requested tier name, or ``"auto"``.
        allowed: the tiers this experiment implements (its
            :data:`EXPERIMENT_ENGINES` row).
        context: label used in the rejection message.

    Returns:
        A concrete tier name from ``allowed``.

    Raises:
        ModelParameterError: unknown name, or a known tier the
            experiment does not implement.
    """
    if not isinstance(engine, str):
        raise ModelParameterError(
            f"engine must be a string, got {type(engine).__name__}"
        )
    if engine == AUTO:
        for candidate in _SPEED_ORDER:
            if candidate in allowed:
                return candidate
        raise ModelParameterError(f"no engine tiers enabled for {context}")
    if engine not in allowed:
        what = "unsupported" if engine in KNOWN_ENGINES else "unknown"
        raise ModelParameterError(
            f"{what} engine {engine!r} for {context}; expected one of "
            f"{', '.join(repr(e) for e in allowed)} or 'auto'"
        )
    return engine
