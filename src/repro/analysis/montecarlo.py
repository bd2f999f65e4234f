"""Component-tolerance Monte Carlo over the sample-and-hold chain.

Table I's measured k spread (59.2–60.1 %) has two plausible sources:
bench-instrument noise and real component variation.  This module
samples the S&H accuracy chain over its component distributions —
divider-resistor tolerance, buffer and comparator input offsets, switch
charge-injection spread, hold-capacitor value — and produces the
resulting distribution of the achieved ratio ``HELD / Voc``, i.e. the
population statistics a production run of the paper's board would show.

All sampling is seeded and reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, TypeVar

import numpy as np

from repro.analog.components import Capacitor, ResistiveDivider, Resistor
from repro.analog.opamp import OpAmpSpec, UnityGainBuffer
from repro.analog.switch import AnalogSwitch, AnalogSwitchSpec
from repro.ckpt.checkpoint import check_spec_match, load_checkpoint, save_checkpoint
from repro.ckpt.drain import check_drain
from repro.core.sample_hold import SampleHoldCircuit, evaluate_sample_hold_boards
from repro.errors import ModelParameterError
from repro.obs import journal
from repro.pv.cells import PVCell, am_1815
from repro.sim.engines import EXPERIMENT_ENGINES, resolve_engine

T = TypeVar("T")


@dataclass(frozen=True)
class ToleranceSpec:
    """Distribution widths for the varied components.

    Attributes:
        resistor_tolerance: 1-sigma fractional spread of each divider
            resistor (datasheet tolerance / 3 for a trimmed-normal view).
        offset_sigma_v: 1-sigma input offset of each buffer, volts.
        charge_injection_sigma: fractional spread of switch injection.
        capacitor_tolerance: fractional spread of the hold capacitor.
    """

    resistor_tolerance: float = 0.01 / 3.0
    offset_sigma_v: float = 1.0e-3
    charge_injection_sigma: float = 0.3
    capacitor_tolerance: float = 0.05 / 3.0

    def __post_init__(self) -> None:
        for name in ("resistor_tolerance", "offset_sigma_v", "charge_injection_sigma",
                     "capacitor_tolerance"):
            if getattr(self, name) < 0.0:
                raise ModelParameterError(f"{name} must be >= 0")


@dataclass
class MonteCarloResult:
    """Population statistics of the achieved sampling ratio.

    Attributes:
        ratios: achieved HELD/Voc per sampled board.
        k_percent: the Table-I-style k (ratio / alpha) in percent.
        nominal_ratio: the design ratio.
    """

    ratios: np.ndarray
    k_percent: np.ndarray
    nominal_ratio: float

    @property
    def mean_k(self) -> float:
        """Mean k, percent."""
        return float(np.mean(self.k_percent))

    @property
    def sigma_k(self) -> float:
        """Standard deviation of k, percent."""
        return float(np.std(self.k_percent))

    def k_band(self, coverage: float = 0.99) -> tuple:
        """(low, high) k percentiles covering ``coverage`` of boards."""
        tail = (1.0 - coverage) / 2.0 * 100.0
        return (
            float(np.percentile(self.k_percent, tail)),
            float(np.percentile(self.k_percent, 100.0 - tail)),
        )

    def yield_within(self, lo_percent: float, hi_percent: float) -> float:
        """Fraction of boards whose k lands inside [lo, hi] percent."""
        inside = (self.k_percent >= lo_percent) & (self.k_percent <= hi_percent)
        return float(np.mean(inside))


def scatter(items: Sequence[T], parts: int) -> List[Sequence[T]]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks.

    Useful for workloads whose per-item cost is tiny (Monte Carlo
    boards): parallelise over chunks, keep per-item order inside each.

    Guarantees:

    * every returned chunk is non-empty — asking for more chunks than
      there are items yields ``len(items)`` singleton chunks, and an
      empty input yields no chunks at all;
    * concatenating the chunks reproduces ``items`` exactly, whatever
      ``parts`` is — chunking never drops, duplicates or reorders.
    """
    if parts < 1:
        raise ModelParameterError(f"parts must be >= 1, got {parts!r}")
    n = len(items)
    parts = min(parts, n) if n else 0
    chunks: List[Sequence[T]] = []
    start = 0
    for k in range(parts):
        size = n // parts + (1 if k < n % parts else 0)
        chunks.append(items[start : start + size])
        start += size
    return [chunk for chunk in chunks if len(chunk)]


@dataclass(frozen=True)
class _BoardBatch:
    """One chunk of boards: their normal draws plus shared context.

    ``draws`` is an ``(n, 6)`` slice of the run's pre-drawn standard
    normals; column order is fixed as (top, bottom, u2 offset, u4
    offset, injection, hold C) — the same order the original sequential
    sampler consumed them in, which keeps results bitwise identical to
    the historical implementation.
    """

    draws: np.ndarray
    model: object
    voc: float
    nominal_top: float
    nominal_bottom: float
    pulse_width: float
    tolerances: ToleranceSpec


def _evaluate_boards(batch: _BoardBatch) -> np.ndarray:
    """Build and measure every board in one batch; returns their ratios."""
    tolerances = batch.tolerances
    base_buffer = UnityGainBuffer().spec
    base_switch = AnalogSwitch().spec
    ratios = np.empty(len(batch.draws))
    for i, draw in enumerate(batch.draws):
        top = batch.nominal_top * (1.0 + tolerances.resistor_tolerance * draw[0])
        bottom = batch.nominal_bottom * (1.0 + tolerances.resistor_tolerance * draw[1])
        u2_offset = tolerances.offset_sigma_v * draw[2]
        u4_offset = tolerances.offset_sigma_v * draw[3]
        injection = base_switch.charge_injection * max(
            0.0, 1.0 + tolerances.charge_injection_sigma * draw[4]
        )
        hold_c = 1e-6 * (1.0 + tolerances.capacitor_tolerance * draw[5])

        board = SampleHoldCircuit(
            divider=ResistiveDivider(top=Resistor(top), bottom=Resistor(bottom)),
            hold_capacitor=Capacitor(max(1e-8, hold_c)),
            input_buffer=UnityGainBuffer(
                spec=OpAmpSpec(
                    name="u2-mc",
                    quiescent_current=base_buffer.quiescent_current,
                    input_bias_current=base_buffer.input_bias_current,
                    input_offset=u2_offset,
                    slew_rate=base_buffer.slew_rate,
                    output_resistance=base_buffer.output_resistance,
                )
            ),
            output_buffer=UnityGainBuffer(
                spec=OpAmpSpec(
                    name="u4-mc",
                    quiescent_current=base_buffer.quiescent_current,
                    input_bias_current=base_buffer.input_bias_current,
                    input_offset=u4_offset,
                    slew_rate=base_buffer.slew_rate,
                    output_resistance=base_buffer.output_resistance,
                )
            ),
            switch=AnalogSwitch(
                spec=AnalogSwitchSpec(
                    name="sw-mc",
                    on_resistance=base_switch.on_resistance,
                    charge_injection=injection,
                    off_leakage=base_switch.off_leakage,
                    quiescent_current=base_switch.quiescent_current,
                )
            ),
        )
        board.sample(batch.model, batch.pulse_width)
        board.droop(34.5)  # mid-hold readout, as in the Table I bench
        ratios[i] = board.held_sample / batch.voc
    return ratios


def _evaluate_boards_fleet(batch: _BoardBatch) -> np.ndarray:
    """Vectorized board evaluation: one array pass over the whole batch.

    Derives the identical per-board component values from the same draw
    columns as :func:`_evaluate_boards` and hands them to
    :func:`evaluate_sample_hold_boards`, which walks the same sample →
    droop → readout chain with population-axis arrays instead of one
    circuit object per board.
    """
    tolerances = batch.tolerances
    base_buffer = UnityGainBuffer().spec
    base_switch = AnalogSwitch().spec
    base_cap = Capacitor(1e-6)
    draws = batch.draws
    top = batch.nominal_top * (1.0 + tolerances.resistor_tolerance * draws[:, 0])
    bottom = batch.nominal_bottom * (1.0 + tolerances.resistor_tolerance * draws[:, 1])
    u2_offset = tolerances.offset_sigma_v * draws[:, 2]
    u4_offset = tolerances.offset_sigma_v * draws[:, 3]
    injection = base_switch.charge_injection * np.maximum(
        0.0, 1.0 + tolerances.charge_injection_sigma * draws[:, 4]
    )
    hold_c = np.maximum(1e-8, 1e-6 * (1.0 + tolerances.capacitor_tolerance * draws[:, 5]))
    held = evaluate_sample_hold_boards(
        batch.model,
        batch.voc,
        top=top,
        bottom=bottom,
        u2_offset=u2_offset,
        u4_offset=u4_offset,
        injection=injection,
        hold_c=hold_c,
        pulse_width=batch.pulse_width,
        hold_time=34.5,
        output_resistance=base_buffer.output_resistance,
        on_resistance=base_switch.on_resistance,
        turn_on_time=base_switch.turn_on_time,
        bias_current=base_buffer.input_bias_current,
        off_leakage=base_switch.off_leakage,
        soak=base_cap.dielectric.dielectric_absorption,
        insulation_ohm_farads=base_cap.dielectric.insulation_ohm_farads,
    )
    return held / batch.voc


def run_sample_hold_montecarlo(
    boards: int = 500,
    cell: Optional[PVCell] = None,
    lux: float = 1000.0,
    nominal_ratio: float = 0.298,
    total_resistance: float = 10e6,
    alpha: float = 0.5,
    pulse_width: float = 39e-3,
    tolerances: ToleranceSpec = ToleranceSpec(),
    seed: int = 20110314,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    engine: str = "fleet",
    factors: Optional[tuple] = None,
) -> MonteCarloResult:
    """Sample ``boards`` S&H builds and measure each one's ratio.

    Each virtual board draws its divider resistors, buffer offsets,
    switch injection and hold capacitor from the tolerance
    distributions, performs a full sampling operation against the cell's
    real curve (including loading), droops through half a hold period,
    and reports HELD/Voc — the exact procedure behind a Table I column.

    Every board's six normals are drawn up front as a ``(boards, 6)``
    matrix (NumPy's generator produces the same stream in bulk as it
    does one value at a time), which makes each board a pure function of
    its row — so the population can be split into checkpoint chunks with
    results identical to the unchunked run.

    Args:
        boards: number of Monte Carlo samples.
        cell: device under test (AM-1815 default).
        lux: test intensity.
        nominal_ratio: design ``k * alpha``.
        total_resistance: divider end-to-end resistance.
        alpha: representation scaling (0.5 in the prototype).
        pulse_width: PULSE width.
        tolerances: distribution widths.
        seed: RNG seed.
        checkpoint_path: where to write crash-recovery checkpoints; the
            population is split into chunks and the checkpoint is
            rewritten (atomically) as each chunk completes.
        resume_from: checkpoint to resume; completed chunks are reused
            (each board is a pure function of its pre-drawn normals, so
            the population is identical to an uninterrupted run).
        engine: ``"fleet"`` (default) evaluates each chunk as one
            vectorized population pass; ``"scalar"`` builds one circuit
            per board.  Both consume the same draw matrix; they agree to
            solver tolerance (the fleet replaces the per-board MNA solve
            with a closed-form solution of the same load line).
            ``"auto"`` resolves to ``"fleet"``.  There is no
            ``"compiled"`` tier: the board kernel is already a single
            vectorized shot with no per-step loop to compile.
        factors: optional per-cell shading factors frozen for the whole
            population (requires a :class:`~repro.pv.string.CellString`)
            — the "how accurate is FOCV sampling on a *mismatched*
            string" axis.
    """
    if boards < 1:
        raise ModelParameterError(f"boards must be >= 1, got {boards!r}")
    engine = resolve_engine(
        engine, EXPERIMENT_ENGINES["montecarlo"], context="sample-hold montecarlo"
    )
    evaluate = _evaluate_boards_fleet if engine == "fleet" else _evaluate_boards
    cell = cell if cell is not None else am_1815()
    if factors is not None:
        model = cell.model_at(lux, factors=tuple(factors))
    else:
        model = cell.model_at(lux)
    voc = model.voc()
    rng = np.random.default_rng(seed)

    nominal_top = (1.0 - nominal_ratio) * total_resistance
    nominal_bottom = nominal_ratio * total_resistance

    draws = rng.standard_normal((boards, 6))
    checkpointing = checkpoint_path is not None or resume_from is not None
    # Chunk only when checkpointing, so a crash loses at most one chunk
    # of boards; each board depends only on its own draw row, so the
    # chunk count never changes the population.
    n_chunks = min(boards, 16) if checkpointing else 1
    chunks_in = scatter(draws, n_chunks)
    batches = [
        _BoardBatch(
            draws=chunk,
            model=model,
            voc=voc,
            nominal_top=nominal_top,
            nominal_bottom=nominal_bottom,
            pulse_width=pulse_width,
            tolerances=tolerances,
        )
        for chunk in chunks_in
    ]

    run_spec = {
        "experiment": "sample-hold-montecarlo",
        "boards": boards,
        "cell": getattr(cell, "name", type(cell).__name__),
        "lux": lux,
        "nominal_ratio": nominal_ratio,
        "total_resistance": total_resistance,
        "alpha": alpha,
        "pulse_width": pulse_width,
        "tolerances": asdict(tolerances),
        "seed": seed,
        "chunks": len(batches),
        "engine": engine,
    }
    # Older checkpoints predate the shading axis; only spec it when used.
    if factors is not None:
        run_spec["factors"] = [float(f) for f in factors]
    done: dict = {}
    if resume_from is not None:
        envelope = load_checkpoint(resume_from, kind="montecarlo")
        check_spec_match(envelope, run_spec, resume_from)
        done = {
            int(index): np.asarray(values)
            for index, values in envelope["state"]["chunks"].items()
        }
    pending = [i for i in range(len(batches)) if i not in done]
    with journal.run_scope(
        "montecarlo",
        spec=run_spec,
        total_steps=boards,
        resumed_steps=sum(len(done[i]) for i in done),
    ) as scope:
        for i in pending:
            done[i] = evaluate(batches[i])
            if checkpoint_path is not None:
                save_checkpoint(
                    checkpoint_path,
                    kind="montecarlo",
                    state={
                        "chunks": {
                            str(index): [float(v) for v in values]
                            for index, values in done.items()
                        }
                    },
                    spec=run_spec,
                    meta={"chunks_done": len(done), "chunks_total": len(batches)},
                )
            scope.advance(len(done[i]))
            if len(done) < len(batches):
                check_drain(checkpoint_path, "montecarlo", len(done), len(batches))
    chunks = [done[i] for i in range(len(batches))]

    ratios = np.concatenate(chunks) if chunks else np.empty(0)

    return MonteCarloResult(
        ratios=ratios,
        k_percent=100.0 * ratios / alpha,
        nominal_ratio=nominal_ratio,
    )


def render_montecarlo(result: MonteCarloResult, paper_band: tuple = (59.2, 60.1)) -> str:
    """Printable summary comparing the population band with Table I's."""
    from repro.analysis.reporting import format_table

    lo99, hi99 = result.k_band(0.99)
    lo68, hi68 = result.k_band(0.68)
    rows = [
        ["boards sampled", f"{len(result.ratios)}"],
        ["nominal k", f"{100.0 * result.nominal_ratio / 0.5:.2f} %"],
        ["mean k", f"{result.mean_k:.2f} %"],
        ["sigma k", f"{result.sigma_k:.3f} pp"],
        ["68 % band", f"{lo68:.2f} .. {hi68:.2f} %"],
        ["99 % band", f"{lo99:.2f} .. {hi99:.2f} %"],
        ["paper's Table I band", f"{paper_band[0]:.1f} .. {paper_band[1]:.1f} %"],
        ["yield inside paper band", f"{result.yield_within(*paper_band) * 100:.1f} %"],
    ]
    return format_table(
        ["statistic", "value"],
        rows,
        title="E11 — S&H component-tolerance Monte Carlo (k population)",
        align_right=False,
    )
