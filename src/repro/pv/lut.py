"""Precomputed P(V) interpolation tables for the compiled engine tier.

The scalar and fleet engines evaluate the single-diode curve through
:func:`repro.pv.single_diode.lambertw_of_exp` — exact, but it is the
one transcendental left on the hot path once conditions are
precomputed.  This module trades it for a table lookup: one row per
unique (lux, temperature) condition of a run, each row holding the
harvested power ``P(V) = max(0, V * I(V))`` on a knee-clustered voltage
grid, solved in vectorized passes over the existing batch solver
(:func:`repro.pv.batch.batch_current_at`).

The lattice.  Single-cell rows are not solved per request: they are
blended from a process-wide lattice of exact rows on the
``(log Iph, T)`` grid of :func:`repro.sim.precompute.ideal_cache_key`,
built lazily and shared by every later table of the same cell
(:func:`lut_for_models`).  Each blended row keeps its condition's exact
Voc and parameters, so the validation gate below measures it against
exact solves like any other row.

Grid design.  P(V) is nearly linear at low voltage and bends hard at
the knee just below Voc, so uniform grids waste points where the curve
is flat.  The grid is therefore clustered toward Voc with the quadratic
map ``x = 1 - (1 - u)**2`` (``u`` uniform in [0, 1], ``x`` the fraction
of Voc); the inverse ``u = 1 - sqrt(1 - x)`` is closed-form, so lookup
stays O(1) with no search.  Interpolation is linear in ``u``.
:class:`StringPowerLUT` rows are knee-aligned instead and are searched.

One lookup.  :func:`row_power` is the only scalar lookup, for both row
families: :meth:`CellPowerLUT.power` calls it, and so does the compiled
lane kernel (:mod:`repro.sim.compiled`).  :meth:`CellPowerLUT.power_many`
is its vectorized twin, bit-for-bit.

Error contract.  Every table carries a *declared* relative error
budget (:attr:`CellPowerLUT.rel_budget`, relative to each condition's
table-maximum power with an absolute floor).  :meth:`CellPowerLUT.validate`
is the pre-run gate: it evaluates exact solves at the interpolation
intervals' midpoints — the worst case for a piecewise-linear table —
and raises :class:`~repro.errors.LUTValidationError` if the measured
worst-case error exceeds the budget.  Engines run the gate before
trusting a table; the property suite (``tests/property/test_lut_properties.py``)
stresses the same bound across the fitted parameter space.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import LUTValidationError, ModelParameterError
from repro.obs.metrics import HOOKS as _OBS
from repro.obs.tracing import TRACER
from repro.pv.batch import (
    _batch_voc,
    batch_current_at,
    solve_models,
    stack_model_params,
    take_params,
)
from repro.pv.single_diode import wright_omega

DEFAULT_GRID_POINTS = 129
"""Default voltage nodes per condition (measured worst case ~2e-4 rel)."""

DEFAULT_REL_BUDGET = 1e-3
"""Default declared relative error budget (vs per-condition max power)."""

DEFAULT_ABS_FLOOR = 1e-9
"""Absolute error-scale floor, watts — keeps dark rows from dividing by ~0."""

STRING_GRID_POINTS = 385
"""Default nodes per row of a :class:`StringPowerLUT`.

String P(V) curves are only piecewise-smooth, and each shaded cell
adds its own exponential knee just below the bypass activation; even
with knee-aligned node placement the inter-knee curvature needs about
triple the plain-cell density to hold :data:`DEFAULT_REL_BUDGET`
(measured worst case ~6e-4 at 385 vs ~1.4e-3 at 257 over a 24 h
shaded-string condition census)."""


def row_power(flat, nodes, grid_points, closed_form, base, v, voc):
    """Interpolated harvested power at ``v`` on one table row, watts.

    The one scalar lookup: :meth:`CellPowerLUT.power` calls it, and the
    compiled lane kernel calls it with memoryviews of the table's
    arrays.  It indexes only with ``seq[i]``, so ``flat`` / ``nodes``
    may be arrays, memoryviews or lists.

    Args:
        flat: the table's flattened power rows (``power_table.ravel()``).
        nodes: the flattened node voltages; read only when
            ``closed_form`` is False.
        grid_points: nodes per row.
        closed_form: True for the quadratic u-map of
            :class:`CellPowerLUT` rows, False for a binary search over
            the row's own (knee-aligned) node voltages.
        base: flat offset of the row, ``index * grid_points``.
        v: operating voltage, volts.
        voc: the row's open-circuit voltage, volts.

    Returns:
        The interpolated power; 0.0 outside ``(0, voc)``.
    """
    if not (0.0 < v < voc):
        return 0.0
    if closed_form:
        u = 1.0 - math.sqrt(1.0 - v / voc)
        f = u * (grid_points - 1)
        k = int(f)
        if k > grid_points - 2:
            k = grid_points - 2
        w = f - k
    else:
        k = 0
        hi = grid_points - 1
        while hi - k > 1:
            mid = (k + hi) >> 1
            if nodes[base + mid] <= v:
                k = mid
            else:
                hi = mid
        n0 = nodes[base + k]
        n1 = nodes[base + k + 1]
        w = (v - n0) / (n1 - n0) if n1 > n0 else 0.0
    p0 = flat[base + k]
    return p0 + (flat[base + k + 1] - p0) * w


def _check_grid_points(grid_points) -> int:
    if int(grid_points) != grid_points or grid_points < 8:
        raise ModelParameterError(f"grid_points must be an integer >= 8, got {grid_points!r}")
    return int(grid_points)


@dataclass(frozen=True)
class LUTValidationReport:
    """Outcome of one validation pass against exact solves.

    Attributes:
        grid_points: voltage nodes per condition row.
        conditions: rows in the table.
        conditions_checked: rows actually sampled by the gate.
        samples: exact solves evaluated.
        max_abs_error: worst |P_lut - P_exact|, watts.
        max_rel_error: worst error relative to the row's power scale.
        rel_budget: the declared budget the gate enforced.
    """

    grid_points: int
    conditions: int
    conditions_checked: int
    samples: int
    max_abs_error: float
    max_rel_error: float
    rel_budget: float

    @property
    def ok(self) -> bool:
        """Whether the measured worst case is within the declared budget."""
        return self.max_rel_error <= self.rel_budget


class CellPowerLUT:
    """Per-condition harvested-power lookup tables.

    Args:
        params: stacked five-parameter arrays for the unique conditions
            (:func:`repro.pv.batch.stack_model_params` output).
        voc: per-condition open-circuit voltage, volts.
        grid_points: voltage nodes per row (>= 8).
        rel_budget: declared relative error budget.
        abs_floor: absolute error-scale floor, watts.
        power_table: rows already on this table's grid (``voc`` times the
            shared Voc fractions), as :func:`lut_for_models` blends them
            from the lattice; None solves every row exactly.
    """

    def __init__(
        self,
        params,
        voc: np.ndarray,
        *,
        grid_points: int = DEFAULT_GRID_POINTS,
        rel_budget: float = DEFAULT_REL_BUDGET,
        abs_floor: float = DEFAULT_ABS_FLOOR,
        power_table: Optional[np.ndarray] = None,
    ):
        _check_grid_points(grid_points)
        if not (rel_budget > 0.0):
            raise ModelParameterError(f"rel_budget must be positive, got {rel_budget!r}")
        if abs_floor < 0.0:
            raise ModelParameterError(f"abs_floor must be >= 0, got {abs_floor!r}")
        self.params = params
        self.voc = np.ascontiguousarray(np.asarray(voc, dtype=float))
        self.grid_points = int(grid_points)
        self.rel_budget = float(rel_budget)
        self.abs_floor = float(abs_floor)

        u = np.linspace(0.0, 1.0, self.grid_points)
        self._x_grid = 1.0 - (1.0 - u) ** 2  # fraction of Voc per node
        if power_table is None:
            power_table = self._exact_table()
        self.power_table = np.ascontiguousarray(power_table, dtype=float)
        # Rows whose Voc is zero (dark conditions) are all-zero by
        # construction (V = 0 everywhere); force exact zeros anyway so
        # NaNs from degenerate solves cannot leak into the table.
        dark = self.voc <= 0.0
        if dark.any():
            self.power_table[dark] = 0.0
        self.scale = np.maximum(self.power_table.max(axis=1), self.abs_floor)
        self._flat = self.power_table.ravel()

    closed_form = True
    """Whether lookup uses the shared closed-form u-map (no node search).

    The flag :func:`row_power` branches on: True means the quadratic
    ``u = 1 - sqrt(1 - v/voc)`` index arithmetic; False means a binary
    search over the row's own node voltages (:class:`StringPowerLUT`'s
    knee-aligned grids).
    """

    _nodes_flat = np.empty(0)
    """Flattened node voltages for :func:`row_power`'s search branch.

    Closed-form rows never read them, so cell tables share this empty
    array; :class:`StringPowerLUT` sets its own."""

    # --- construction helpers ----------------------------------------------

    def _node_grid(self) -> np.ndarray:
        """Per-condition voltage nodes, shape (conditions, grid_points)."""
        return self.voc[:, None] * self._x_grid[None, :]

    def _exact_table(self) -> np.ndarray:
        """Exact power rows at :meth:`_node_grid`, one row per condition."""
        return self._exact_rows(self._node_grid())

    def _exact_rows(self, volts: np.ndarray) -> np.ndarray:
        """Exact harvested power at per-condition node voltages."""
        rows = np.repeat(np.arange(len(self.voc), dtype=np.int64), self.grid_points)
        current = self._exact_current(rows, volts.ravel())
        return np.maximum(0.0, volts.ravel() * current).reshape(volts.shape)

    def _exact_current(self, indices: np.ndarray, volts: np.ndarray) -> np.ndarray:
        """Exact terminal current at (condition index, voltage) pairs.

        The one place table construction and the validation gate touch
        the underlying curve family; :class:`StringPowerLUT` overrides it
        with the series-string bisection.  Lambert-W is evaluated as
        :func:`~repro.pv.single_diode.wright_omega`: table rows carry no
        bitwise contract, and it is the bulk of a row's cost.
        """
        return batch_current_at(take_params(self.params, indices), volts, wright_omega)

    @classmethod
    def from_models(
        cls,
        models: Sequence[object],
        *,
        voc: Optional[np.ndarray] = None,
        **kwargs,
    ) -> "CellPowerLUT":
        """Build a table from model instances (one row per model).

        Models already solved by :func:`repro.pv.batch.solve_models`
        reuse their memoised Voc; unsolved models are batch-solved here.
        """
        models = list(models)
        if voc is None:
            solved = solve_models(models, memoize=True)
            voc = solved.voc
        return cls(stack_model_params(models), np.asarray(voc, dtype=float), **kwargs)

    # --- evaluation ---------------------------------------------------------

    def power(self, index: int, v: float) -> float:
        """Interpolated harvested power for one condition, watts.

        Zero outside (0, Voc) — matching every controller's own Voc
        gate.  This is :func:`row_power` on the condition's row, the
        scalar twin of :meth:`power_many`, bit-for-bit.
        """
        g = self.grid_points
        return float(
            row_power(
                self._flat, self._nodes_flat, g, self.closed_form,
                index * g, v, float(self.voc[index]),
            )
        )

    def power_many(self, indices: np.ndarray, volts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`power` over (condition index, voltage) pairs."""
        indices = np.asarray(indices, dtype=np.int64)
        volts = np.asarray(volts, dtype=float)
        voc = self.voc[indices]
        ok = (volts > 0.0) & (voc > 0.0) & (volts < voc)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(ok, volts / voc, 0.0)
        u = 1.0 - np.sqrt(np.maximum(0.0, 1.0 - x))
        f = u * (self.grid_points - 1)
        k = np.minimum(f.astype(np.int64), self.grid_points - 2)
        w = f - k
        base = indices * self.grid_points + k
        p0 = self._flat[base]
        p1 = self._flat[base + 1]
        return np.where(ok, p0 + (p1 - p0) * w, 0.0)

    # --- validation gate ----------------------------------------------------

    def _validation_points(self, chosen: np.ndarray) -> tuple:
        """Worst-case probe voltages for the gate: interval midpoints.

        The base class interpolates linearly in ``u``, so its worst case
        sits at u-space midpoints; subclasses with different interpolants
        override this with their own midpoints.
        """
        g = self.grid_points
        u_mid = (np.arange(g - 1) + 0.5) / (g - 1)
        x_mid = 1.0 - (1.0 - u_mid) ** 2
        volts = self.voc[chosen, None] * x_mid[None, :]
        return np.repeat(chosen, g - 1), volts.ravel()

    def validate(self, max_conditions: int = 64) -> LUTValidationReport:
        """Measure worst-case error at interval midpoints; gate on budget.

        Exact solves are evaluated at the u-space midpoint of every
        interpolation interval — the worst case for a piecewise-linear
        interpolant — over up to ``max_conditions`` rows (evenly spaced
        through the table, always including the highest-power row,
        where absolute error peaks).  Raises
        :class:`~repro.errors.LUTValidationError` when the measured
        worst case exceeds :attr:`rel_budget`.
        """
        h = _OBS.lut_validations
        if h is not None:
            h.inc()
        conditions = len(self.voc)
        lit = np.nonzero(self.voc > 0.0)[0]
        if lit.size == 0:
            return LUTValidationReport(
                grid_points=self.grid_points, conditions=conditions,
                conditions_checked=0, samples=0,
                max_abs_error=0.0, max_rel_error=0.0, rel_budget=self.rel_budget,
            )
        if lit.size <= max_conditions:
            chosen = lit
        else:
            spread = lit[np.linspace(0, lit.size - 1, max_conditions).astype(np.int64)]
            peak = lit[int(np.argmax(self.scale[lit]))]
            chosen = np.unique(np.append(spread, peak))

        g = self.grid_points
        with TRACER.span("lut:validate"):
            idx, flat_v = self._validation_points(chosen)

            approx = self.power_many(idx, flat_v)
            exact_i = self._exact_current(idx, flat_v)
            exact = np.maximum(0.0, flat_v * exact_i)
            err = np.abs(approx - exact)
            rel = err / self.scale[idx]

        report = LUTValidationReport(
            grid_points=g,
            conditions=conditions,
            conditions_checked=int(chosen.size),
            samples=int(flat_v.size),
            max_abs_error=float(err.max()),
            max_rel_error=float(rel.max()),
            rel_budget=self.rel_budget,
        )
        if not report.ok:
            raise LUTValidationError(
                f"power LUT failed validation: worst-case relative error "
                f"{report.max_rel_error:.3e} exceeds declared budget "
                f"{self.rel_budget:.3e} at {g} grid points — increase "
                f"grid_points or relax the budget",
                max_rel_error=report.max_rel_error,
                rel_budget=self.rel_budget,
            )
        return report


def _segment_nodes(edges: Sequence[float], grid_points: int) -> np.ndarray:
    """Voltage nodes over ``edges``-delimited segments, one row.

    Intervals are allocated to segments proportionally to their span
    (at least two per segment, so every knee keeps interior neighbours),
    and placed inside each segment on a cosine (Chebyshev-style) map —
    clustering toward both segment ends, where a piecewise curve bends
    hardest.  Every edge, knees included, lands exactly on a node.
    """
    spans = np.diff(np.asarray(edges, dtype=float))
    segments = len(spans)
    total = grid_points - 1
    floor = max(1, min(2, total // segments))
    alloc = np.maximum(floor, np.round(total * spans / spans.sum()).astype(np.int64))
    while alloc.sum() > total:
        alloc[int(np.argmax(alloc))] -= 1
    while alloc.sum() < total:
        alloc[int(np.argmin(alloc / np.maximum(spans, 1e-300)))] += 1
    nodes = [0.0]
    for k in range(segments):
        u = np.arange(1, alloc[k] + 1) / float(alloc[k])
        x = 0.5 * (1.0 - np.cos(np.pi * u))
        nodes.extend((edges[k] + spans[k] * x).tolist())
    return np.asarray(nodes)


class StringPowerLUT(CellPowerLUT):
    """Power tables over a population of series strings.

    A mismatched string's P(V) curve has a slope discontinuity at every
    bypass activation, where the shared closed-form u-grid converges
    only at O(h); rows therefore get *knee-aligned* grids — a node
    placed exactly on each knee (:func:`repro.pv.batch.string_bypass_knees`)
    with cosine clustering inside each smooth segment — and lookup
    becomes a per-row binary search with linear-in-voltage
    interpolation (:attr:`closed_form` is False, which is how
    :func:`row_power` knows to search instead of index).  Exact curves
    come from the series-string bisection
    (:func:`repro.pv.batch.string_current_at`).  The validation gate is
    unchanged: worst-case midpoint error against the exact kernels, same
    declared budget.

    Args:
        voc: per-condition Voc, volts.
        sp: stacked string params (:func:`repro.pv.batch.stack_string_params`),
            one row per condition.
    """

    closed_form = False

    def __init__(self, voc: np.ndarray, *, sp, **kwargs):
        self.sp = sp
        super().__init__(None, voc, **kwargs)
        self._search_iters = max(1, int(math.ceil(math.log2(self.grid_points))))

    # --- construction -------------------------------------------------------

    def _exact_table(self) -> np.ndarray:
        self._nodes = self._node_grid()
        self._nodes_flat = np.ascontiguousarray(self._nodes.ravel())
        return self._exact_rows(self._nodes)

    def _node_grid(self) -> np.ndarray:
        from repro.pv.batch import string_bypass_knees

        g = self.grid_points
        nodes = self.voc[:, None] * self._x_grid[None, :]
        # Dark rows stay strictly increasing so binary search is
        # well-defined (their table rows are forced to zero anyway).
        dark = np.nonzero(self.voc <= 0.0)[0]
        if len(dark):
            nodes[dark] = np.linspace(0.0, 1.0, g)[None, :]
        for u, knees in enumerate(string_bypass_knees(self.sp)):
            voc = float(self.voc[u])
            if voc <= 0.0:
                continue
            edges = [0.0]
            for v in knees:
                if edges[-1] + 1e-3 * voc < v < voc * (1.0 - 1e-3):
                    edges.append(float(v))
            edges.append(voc)
            nodes[u] = _segment_nodes(edges, g)
        return nodes

    def _exact_current(self, indices: np.ndarray, volts: np.ndarray) -> np.ndarray:
        from repro.pv.batch import string_current_at

        return string_current_at(self.sp, indices, volts)

    # --- evaluation ---------------------------------------------------------

    def power_many(self, indices: np.ndarray, volts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`power`: per-row binary search + linear interp."""
        indices = np.asarray(indices, dtype=np.int64)
        volts = np.asarray(volts, dtype=float)
        voc = self.voc[indices]
        ok = (volts > 0.0) & (voc > 0.0) & (volts < voc)
        g = self.grid_points
        base = indices * g
        nodes = self._nodes_flat
        lo = np.zeros(indices.shape[0], dtype=np.int64)
        hi = np.full(indices.shape[0], g - 1, dtype=np.int64)
        for _ in range(self._search_iters):
            done = hi - lo <= 1
            mid = (lo + hi) >> 1
            below = nodes[base + mid] <= volts
            lo = np.where(~done & below, mid, lo)
            hi = np.where(~done & ~below, mid, hi)
        n0 = nodes[base + lo]
        n1 = nodes[base + lo + 1]
        den = n1 - n0
        w = np.where(den > 0.0, (volts - n0) / np.where(den > 0.0, den, 1.0), 0.0)
        p0 = self._flat[base + lo]
        p1 = self._flat[base + lo + 1]
        return np.where(ok, p0 + (p1 - p0) * w, 0.0)

    # --- validation ---------------------------------------------------------

    def _validation_points(self, chosen: np.ndarray) -> tuple:
        """Voltage-space interval midpoints (the linear-in-V worst case)."""
        volts = 0.5 * (self._nodes[chosen, :-1] + self._nodes[chosen, 1:])
        return np.repeat(chosen, self.grid_points - 1), volts.ravel()


# --------------------------------------------------------------------------
# The process-wide single-cell lattice
# --------------------------------------------------------------------------

LATTICE_IPH_STEPS = 400.0
"""Lattice nodes per e-fold of photocurrent (0.25 % spacing).

With :data:`LATTICE_T_STEPS` this is the grid of
:func:`repro.sim.precompute.ideal_cache_key`:
``round(log Iph * 400)`` x ``round(T * 2)``."""

LATTICE_T_STEPS = 2.0
"""Lattice nodes per kelvin (0.5 K spacing)."""

LATTICE_MAX_ROWS = 1 << 15
"""Row cap over every lattice in the process (~34 MB at 129 points).

A build that would pass it first empties the whole lattice; rows are
exact functions of their node, so a reset changes no table."""

LATTICE_CHUNK = 1024
"""Lattice nodes solved per exact :class:`CellPowerLUT` build."""

_T_BITS = 20
"""A node ``(i, j)`` is keyed by the integer ``i << _T_BITS | j`` (``j`` is
twice a temperature in kelvin, far below ``2**20``)."""


class _Lattice:
    """Exact P(V) rows of one cell at the nodes visited so far.

    Row ``index[i << _T_BITS | j]`` of ``rows`` is the exact power table
    row of the cell at ``Iph = exp(i / LATTICE_IPH_STEPS)``,
    ``T = j / LATTICE_T_STEPS``, on the shared Voc fractions of the
    table grid.
    """

    def __init__(self, grid_points: int):
        self.index: "dict[int, int]" = {}
        # One reservation of the row cap: its pages become resident only
        # as rows are written, so the lattice never copies itself to grow.
        self.rows = np.empty((LATTICE_MAX_ROWS, grid_points))
        self.count = 0

    def add(self, rows: np.ndarray) -> None:
        need = self.count + rows.shape[0]
        if need > self.rows.shape[0]:
            # Only a single build larger than the cap gets here.
            grown = np.empty((need, self.rows.shape[1]))
            grown[: self.count] = self.rows[: self.count]
            self.rows = grown
        self.rows[self.count : need] = rows
        self.count = need


_LATTICES: "dict[tuple, _Lattice]" = {}
_LATTICE_ROWS = 0
_LATTICE_LOCK = threading.Lock()


def clear_lattice() -> None:
    """Drop every lattice row (a test hook; tables do not change)."""
    global _LATTICE_ROWS
    with _LATTICE_LOCK:
        _LATTICES.clear()
        _LATTICE_ROWS = 0


def lattice_rows() -> int:
    """Rows held by the process-wide lattice, over every cell."""
    return _LATTICE_ROWS


def _node_rows(cell, grid_points: int, nodes: "list[int]") -> np.ndarray:
    """Exact table rows of the cell at lattice nodes, in chunks."""
    mask = (1 << _T_BITS) - 1
    out = np.empty((len(nodes), grid_points))
    for start in range(0, len(nodes), LATTICE_CHUNK):
        chunk = nodes[start : start + LATTICE_CHUNK]
        params = stack_model_params(
            [
                cell.model_at_photocurrent(
                    math.exp((node >> _T_BITS) / LATTICE_IPH_STEPS),
                    (node & mask) / LATTICE_T_STEPS,
                )
                for node in chunk
            ]
        )
        table = CellPowerLUT(params, _batch_voc(params), grid_points=grid_points)
        out[start : start + len(chunk)] = table.power_table
    return out


def _lattice_gather(cell, grid_points: int, nodes: np.ndarray) -> np.ndarray:
    """Lattice rows at ``nodes`` (node keys), building missing ones."""
    global _LATTICE_ROWS
    keys = nodes.tolist()
    lattice_key = (cell.parameters, grid_points)
    with _LATTICE_LOCK:
        lattice = _LATTICES.get(lattice_key)
        if lattice is None:
            lattice = _LATTICES[lattice_key] = _Lattice(grid_points)
        missing = [k for k in keys if k not in lattice.index]
        if missing and _LATTICE_ROWS + len(missing) > LATTICE_MAX_ROWS:
            _LATTICES.clear()
            _LATTICE_ROWS = 0
            lattice = _LATTICES[lattice_key] = _Lattice(grid_points)
            missing = keys
        if missing:
            with TRACER.span("lut:lattice"):
                rows = _node_rows(cell, grid_points, missing)
            for n, k in enumerate(missing, start=lattice.count):
                lattice.index[k] = n
            lattice.add(rows)
            _LATTICE_ROWS += len(missing)
        at = np.fromiter((lattice.index[k] for k in keys), dtype=np.int64, count=len(keys))
        gathered = lattice.rows[at]
    h = _OBS.lut_lattice_built
    if h is not None:
        h.inc(len(missing))
    h = _OBS.lut_lattice_reused
    if h is not None:
        h.inc(len(keys) - len(missing))
    return gathered


def _lattice_table(cell, iph, temperature, voc, grid_points: int) -> np.ndarray:
    """Power rows of lit conditions, blended from the cell's lattice.

    Each lit row is the bilinear blend, in ``(log Iph, T)``, of the four
    lattice rows around its condition, taken at the same Voc fractions,
    so row ``k`` holds ``P`` at ``voc[k]`` times the table's fractions.
    Near a knee of the cell's shunt law (:meth:`~repro.pv.cells.PVCell.shunt_knees`)
    the photocurrent pair comes from the condition's own side of the knee.
    Dark conditions (``voc <= 0`` or no photocurrent) get zero rows.
    """
    table = np.zeros((len(voc), grid_points))
    lit = np.nonzero((voc > 0.0) & (iph > 0.0))[0]
    if lit.size == 0:
        return table
    fi = np.log(iph[lit]) * LATTICE_IPH_STEPS
    fj = temperature[lit] * LATTICE_T_STEPS
    i0 = np.floor(fi)
    j0 = np.floor(fj)
    # The curve bends where the shunt law does; a condition whose node
    # pair straddles a knee takes the pair on its own side of it
    # (extrapolating within two node spacings) instead of blending
    # across the kink.
    for knee in cell.shunt_knees():
        k = math.log(knee) * LATTICE_IPH_STEPS
        straddle = (i0 < k) & (k < i0 + 1.0)
        i0 = np.where(straddle, np.where(fi < k, i0 - 1.0, i0 + 1.0), i0)
    wi = (fi - i0)[:, None]
    wj = (fj - j0)[:, None]
    node = (i0.astype(np.int64) << _T_BITS) | j0.astype(np.int64)
    step_i = 1 << _T_BITS
    corners = np.concatenate((node, node + step_i, node + 1, node + step_i + 1))
    nodes, inverse = np.unique(corners, return_inverse=True)
    rows = _lattice_gather(cell, grid_points, nodes)
    r00, r10, r01, r11 = (rows[c] for c in inverse.reshape(4, lit.size))
    table[lit] = (
        ((1.0 - wi) * (1.0 - wj)) * r00
        + (wi * (1.0 - wj)) * r10
        + ((1.0 - wi) * wj) * r01
        + (wi * wj) * r11
    )
    return table


def lut_for_models(
    models: Sequence[object],
    *,
    voc: Optional[np.ndarray] = None,
    cell=None,
    params=None,
    **kwargs,
) -> CellPowerLUT:
    """Build the right LUT family for a model population.

    Single-cell populations get a plain :class:`CellPowerLUT` whose rows
    are blended from ``cell``'s process-wide lattice of exact rows
    (:func:`_lattice_table`); each row keeps its condition's exact Voc
    and parameters, so :meth:`CellPowerLUT.validate` still measures it
    against exact solves.  Series strings
    (:class:`~repro.pv.string.StringModel`) get a :class:`StringPowerLUT`
    at :data:`STRING_GRID_POINTS` by default, solved exactly per row.
    Rows follow the input order, so engine-side condition indices carry
    over.

    Args:
        models: the conditions, one table row each.
        voc: their open-circuit voltages (default: each model's own).
        cell: the :class:`~repro.pv.cells.PVCell` the models came from;
            required for single cells, unused for strings.
        params: the single-cell models' stacked parameters
            (:func:`~repro.pv.batch.stack_model_params`), when the caller
            already holds them; unused for strings.
        **kwargs: table knobs (``grid_points``, ``rel_budget``,
            ``abs_floor``).

    Raises:
        ModelParameterError: the population mixes cells and strings
            (:func:`~repro.pv.batch.string_population`), or a single-cell
            population comes without its cell.
    """
    from repro.pv.batch import stack_string_params, string_population

    models = list(models)
    if voc is None:
        voc = np.array([m.voc() for m in models], dtype=float)
    else:
        voc = np.asarray(voc, dtype=float)
    with TRACER.span("lut:build"):
        if not string_population(models):
            if cell is None:
                raise ModelParameterError(
                    "single-cell tables are blended from the cell's lattice; pass cell="
                )
            if params is None:
                params = stack_model_params(models)
            grid_points = _check_grid_points(kwargs.get("grid_points", DEFAULT_GRID_POINTS))
            temperature = np.array([m.temperature for m in models], dtype=float)
            table = _lattice_table(cell, params.iph, temperature, voc, grid_points)
            lut = CellPowerLUT(params, voc, power_table=table, **kwargs)
        else:
            kwargs.setdefault("grid_points", STRING_GRID_POINTS)
            sp = stack_string_params(
                [m.cells for m in models], [m.bypass_drop for m in models]
            )
            lut = StringPowerLUT(voc, sp=sp, **kwargs)
    h = _OBS.lut_builds
    if h is not None:
        h.inc()
    return lut
