"""Vectorized batch solves over many single-diode operating conditions.

A 24-hour quasi-static run needs the open-circuit voltage and the
maximum power point of one :class:`~repro.pv.single_diode.SingleDiodeModel`
per step — tens of thousands of scalar Lambert-W golden-section
searches when done one at a time.  All of those solves are independent,
and :func:`repro.pv.single_diode.lambertw_of_exp` already accepts
arrays, so this module solves *every* condition of a run in a handful
of array operations:

* :func:`solve_models` — take any sequence of models, stack their
  parameters into arrays, solve Voc/Isc/MPP for all of them at once,
  and (optionally) pre-fill each instance's memoised characteristic
  points so later scalar calls (``model.voc()``, ``model.mpp()``) are
  dictionary lookups.
* :func:`batch_mpp` — convenience wrapper mapping a cell plus arrays of
  lux/temperature straight to arrays of operating points (the engine
  behind :func:`repro.pv.mpp.k_factor_curve`).

The vectorized golden-section search mirrors the scalar
:meth:`SingleDiodeModel.mpp` update-for-update with per-element
freezing, so batch results match the scalar solver to floating-point
round-off (asserted by ``tests/property/test_batch_mpp.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.obs.metrics import HOOKS as _OBS
from repro.pv.irradiance import FLUORESCENT, LightSource
from repro.pv.single_diode import MPPResult, SingleDiodeModel, lambertw_of_exp
from repro.units import T_STC

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BatchSolveResult:
    """Characteristic points for a batch of single-diode conditions.

    All attributes are arrays of the same length as the model sequence
    passed to :func:`solve_models`.

    Attributes:
        voc: open-circuit voltages, volts.
        isc: short-circuit currents, amps.
        v_mpp: MPP voltages, volts.
        i_mpp: MPP currents, amps.
        p_mpp: MPP powers, watts.
    """

    voc: np.ndarray
    isc: np.ndarray
    v_mpp: np.ndarray
    i_mpp: np.ndarray
    p_mpp: np.ndarray

    def __len__(self) -> int:
        return len(self.voc)

    @property
    def k(self) -> np.ndarray:
        """Fractional open-circuit voltage ``Vmpp / Voc`` per condition
        (NaN where the curve is dark), matching :attr:`MPPResult.k`."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.voc > 0.0, self.v_mpp / self.voc, np.nan)

    def mpp_result(self, index: int) -> MPPResult:
        """The ``index``-th condition as a scalar :class:`MPPResult`."""
        return MPPResult(
            voltage=float(self.v_mpp[index]),
            current=float(self.i_mpp[index]),
            power=float(self.p_mpp[index]),
            voc=float(self.voc[index]),
            isc=float(self.isc[index]),
        )


@dataclass(frozen=True)
class _ParamArrays:
    """Stacked five-parameter arrays for a batch of models."""

    iph: np.ndarray
    i0: np.ndarray
    a: np.ndarray  # modified ideality n * Ns * Vt, volts
    rs: np.ndarray
    rsh: np.ndarray


def take_params(p: _ParamArrays, index: np.ndarray) -> _ParamArrays:
    """Gather rows of a parameter stack (boolean mask or fancy index)."""
    return _ParamArrays(
        iph=p.iph[index], i0=p.i0[index], a=p.a[index], rs=p.rs[index], rsh=p.rsh[index]
    )


class _Branch:
    """One branch of :func:`batch_current_at` over a set of conditions.

    Every per-condition term of the branch's current expression is
    evaluated once here, so a caller that evaluates the same conditions
    many times (the golden-section search) pays only the voltage-dependent
    terms per call.  The hoisted terms are the very subexpressions of the
    branch formula, evaluated in the same order, so the result is bit for
    bit the unhoisted expression.
    """

    __slots__ = ("kind", "terms", "w_of_exp")

    IDEAL_RS, INFINITE_RSH, FINITE = range(3)

    def __init__(self, kind: int, q: _ParamArrays, w_of_exp):
        self.kind = kind
        self.w_of_exp = w_of_exp
        if kind == _Branch.IDEAL_RS:
            self.terms = (q.iph, q.i0, q.a, q.rsh, np.isfinite(q.rsh))
        elif kind == _Branch.INFINITE_RSH:
            self.terms = (
                np.log(q.i0 * q.rs / q.a),  # log-theta offset
                q.rs * (q.iph + q.i0),
                q.a,
                q.iph + q.i0,
                q.a / q.rs,
            )
        else:
            rt = q.rs + q.rsh
            self.terms = (
                np.log(q.rs * q.rsh * q.i0 / (q.a * rt)),  # log-theta offset
                q.rsh,
                q.rs * (q.iph + q.i0),
                q.a * rt,
                q.rsh * (q.iph + q.i0),
                rt,
                q.a / q.rs,
            )

    def take(self, index: np.ndarray) -> "_Branch":
        """The same branch over a subset of its conditions."""
        out = _Branch.__new__(_Branch)
        out.kind = self.kind
        out.w_of_exp = self.w_of_exp
        out.terms = tuple(t[index] for t in self.terms)
        return out

    def current(self, v: np.ndarray) -> np.ndarray:
        """Terminal current of each condition at its voltage ``v``."""
        if self.kind == _Branch.IDEAL_RS:
            iph, i0, a, rsh, finite_rsh = self.terms
            shunt = np.where(finite_rsh, v / rsh, 0.0)
            return iph - i0 * np.expm1(np.minimum(v / a, 700.0)) - shunt
        if self.kind == _Branch.INFINITE_RSH:
            offset, drop, a, iphpi0, a_over_rs = self.terms
            w = self.w_of_exp(offset + (v + drop) / a)
            return iphpi0 - a_over_rs * w
        offset, rsh, drop, a_rt, rsh_iphpi0, rt, a_over_rs = self.terms
        w = self.w_of_exp(offset + rsh * (drop + v) / a_rt)
        return (rsh_iphpi0 - v) / rt - a_over_rs * w


def _branches(p: _ParamArrays, w_of_exp=lambertw_of_exp) -> "list[tuple[np.ndarray, _Branch]]":
    """Split conditions by current branch: ``(indices, branch)`` pairs."""
    finite_rsh = np.isfinite(p.rsh)
    ideal_rs = p.rs < 1e-9
    out = []
    for kind, mask in (
        (_Branch.IDEAL_RS, ideal_rs),
        (_Branch.INFINITE_RSH, ~ideal_rs & ~finite_rsh),
        (_Branch.FINITE, ~ideal_rs & finite_rsh),
    ):
        index = np.nonzero(mask)[0]
        if index.size:
            out.append((index, _Branch(kind, take_params(p, index), w_of_exp)))
    return out


def batch_current_at(p: _ParamArrays, v: np.ndarray, w_of_exp=lambertw_of_exp) -> np.ndarray:
    """Elementwise terminal current for (condition j, voltage v[j]) pairs.

    Same three-branch structure as ``SingleDiodeModel.current_at``, with
    the branches selected per element (:class:`_Branch`) — the kernel
    behind the batch Lambert-W solver, exposed for population-axis
    consumers.  ``w_of_exp`` evaluates ``W(exp(x))``: the solver keeps
    :func:`~repro.pv.single_diode.lambertw_of_exp`, and the power tables
    pass the faster :func:`~repro.pv.single_diode.wright_omega`.
    """
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    for index, branch in _branches(p, w_of_exp):
        out[index] = branch.current(v[index])
    return out


def _batch_voc(p: _ParamArrays) -> np.ndarray:
    """Open-circuit voltage per condition (``voltage_at(0)`` vectorized)."""
    out = np.empty_like(p.iph)
    finite_rsh = np.isfinite(p.rsh)

    m = ~finite_rsh
    if np.any(m):
        q = take_params(p, m)
        ratio = np.maximum((q.iph + q.i0) / q.i0, 1e-300)
        out[m] = q.a * np.log(ratio)

    m = finite_rsh
    if np.any(m):
        q = take_params(p, m)
        log_theta = np.log(q.i0 * q.rsh / q.a) + q.rsh * (q.iph + q.i0) / q.a
        w = lambertw_of_exp(log_theta)
        out[m] = q.rsh * (q.iph + q.i0) - q.a * w

    return out


def _batch_isc(p: _ParamArrays) -> np.ndarray:
    """Short-circuit current per condition (``isc()`` vectorized)."""
    out = np.empty_like(p.iph)
    finite_rsh = np.isfinite(p.rsh)
    ideal_rs = p.rs < 1e-9

    m = ideal_rs
    out[m] = p.iph[m]

    m = ~ideal_rs & ~finite_rsh
    if np.any(m):
        q = take_params(p, m)
        log_theta = np.log(q.i0 * q.rs / q.a) + q.rs * (q.iph + q.i0) / q.a
        w = lambertw_of_exp(log_theta)
        out[m] = q.iph + q.i0 - (q.a / q.rs) * w

    m = ~ideal_rs & finite_rsh
    if np.any(m):
        q = take_params(p, m)
        rt = q.rs + q.rsh
        log_theta = np.log(q.rs * q.rsh * q.i0 / (q.a * rt)) + q.rsh * q.rs * (
            q.iph + q.i0
        ) / (q.a * rt)
        w = lambertw_of_exp(log_theta)
        out[m] = q.rsh * (q.iph + q.i0) / rt - (q.a / q.rs) * w

    return out


@dataclass(frozen=True)
class Endpoints:
    """Stacked parameters of a batch of conditions and their curve endpoints.

    The half of a batch solve every consumer needs: Voc and Isc are one
    closed-form Lambert-W each, while the MPP is a ~57-step search.  A
    precompute solves the endpoints of all its conditions once and hands
    subsets (:meth:`take`) to :func:`solve_models` for the MPPs it needs.

    Attributes:
        params: stacked five-parameter arrays, one row per condition.
        voc: open-circuit voltages, volts.
        isc: short-circuit currents, amps.
    """

    params: _ParamArrays
    voc: np.ndarray
    isc: np.ndarray

    def take(self, index: np.ndarray) -> "Endpoints":
        """The endpoints of a subset of the conditions."""
        return Endpoints(take_params(self.params, index), self.voc[index], self.isc[index])


def solve_endpoints(params: _ParamArrays) -> Endpoints:
    """Voc and Isc of every stacked condition, in one vectorized pass each."""
    return Endpoints(params, _batch_voc(params), _batch_isc(params))


def _golden_section(
    branch: _Branch, voc: np.ndarray, tolerance: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Golden-section MPP search over lit conditions of one branch.

    Returns ``(v_mpp, i_mpp)``.  Elements leave the working arrays as
    their bracket converges, so each step evaluates only the brackets
    still open.  Every element sees the scalar search's update sequence
    in elementwise arithmetic, so its bits do not depend on its batch
    while the current's Lambert-W arguments (about ``Rs*Iph/a``) stay on
    :func:`~repro.pv.single_diode.lambertw_of_exp`'s direct branch,
    below 100: a cell would need a series drop of ~90 ``a`` to leave it.
    """
    n = len(voc)
    lo = np.zeros(n)
    hi = voc.copy()
    span = hi - lo
    x1 = hi - _INV_PHI * span
    x2 = lo + _INV_PHI * span
    p1 = x1 * branch.current(x1)
    p2 = x2 * branch.current(x2)
    tol = tolerance * np.maximum(voc, 1.0)

    lo_out = np.empty(n)
    hi_out = np.empty(n)
    live = np.arange(n)
    work = branch
    for _ in range(200):
        run = span > tol
        if not run.all():
            done = ~run
            lo_out[live[done]] = lo[done]
            hi_out[live[done]] = hi[done]
            live = live[run]
            if not live.size:
                break
            lo, hi, span, x1, x2, p1, p2, tol = (
                a[run] for a in (lo, hi, span, x1, x2, p1, p2, tol)
            )
            work = work.take(run)
        move = p1 < p2  # move the lower bracket up; otherwise the upper down
        lo = np.where(move, x1, lo)
        hi = np.where(move, hi, x2)
        # The survivor slides over and one new point is evaluated per
        # element — exactly as in the scalar loop.
        span = hi - lo
        step = _INV_PHI * span
        x_eval = np.where(move, lo + step, hi - step)
        x1, x2 = np.where(move, x2, x_eval), np.where(move, x_eval, x1)
        p_eval = x_eval * work.current(x_eval)
        p1, p2 = np.where(move, p2, p_eval), np.where(move, p_eval, p1)
    else:
        lo_out[live] = lo
        hi_out[live] = hi

    v_mpp = 0.5 * (lo_out + hi_out)
    return v_mpp, branch.current(v_mpp)


def _batch_golden_mpp(
    p: _ParamArrays, voc: np.ndarray, tolerance: float = 1e-12
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Vectorized golden-section MPP search over all conditions at once.

    Mirrors ``SingleDiodeModel.mpp`` update-for-update: the same bracket
    arithmetic, the same stop test, applied per element
    (:func:`_golden_section`, one pass per current branch); dark curves
    get the zero MPP.  Returns ``(v_mpp, i_mpp, p_mpp)``.
    """
    v_mpp = np.zeros(len(voc))
    i_mpp = np.zeros(len(voc))
    lit = np.nonzero((voc > 0.0) & (p.iph > 0.0))[0]
    for index, branch in _branches(take_params(p, lit)):
        rows = lit[index]
        v_mpp[rows], i_mpp[rows] = _golden_section(branch, voc[rows], tolerance)
    return v_mpp, i_mpp, v_mpp * i_mpp


def memoize_points(
    models: Sequence[SingleDiodeModel],
    voc: np.ndarray,
    isc: np.ndarray,
    v_mpp: np.ndarray,
    i_mpp: np.ndarray,
) -> None:
    """Pre-fill each model's memoised ``voc``/``isc``/``mpp`` from batch arrays.

    Dark curves (``photocurrent <= 0`` or ``voc <= 0``) follow the scalar
    solver's convention: a zero MPP whose ``voc`` is clamped at zero.
    """
    for m, voc_j, isc_j, v_j, i_j in zip(
        models, voc.tolist(), isc.tolist(), v_mpp.tolist(), i_mpp.tolist()
    ):
        object.__setattr__(m, "_voc_memo", voc_j)
        object.__setattr__(m, "_isc_memo", isc_j)
        dark = voc_j <= 0.0 or m.photocurrent <= 0.0
        result = MPPResult(
            voltage=v_j,
            current=i_j,
            power=v_j * i_j,
            voc=max(voc_j, 0.0) if dark else voc_j,
            isc=isc_j,
        )
        object.__setattr__(m, "_mpp_memo", result)


def solve_models(
    models: Sequence[SingleDiodeModel],
    memoize: bool = True,
    *,
    endpoints: "Endpoints | None" = None,
) -> BatchSolveResult:
    """Solve Voc/Isc/MPP for every model in one vectorized pass.

    Args:
        models: the conditions to solve (any sequence; duplicates are
            solved per entry — dedupe upstream if profitable).
        memoize: pre-fill each instance's memoised ``voc``/``isc``/
            ``mpp`` so subsequent scalar calls are free
            (:func:`memoize_points`).
        endpoints: the models' stacked parameters with Voc and Isc
            already solved (:func:`solve_endpoints`, or a subset of a
            larger batch through :meth:`Endpoints.take`); default: solve
            them here.

    Returns:
        A :class:`BatchSolveResult` aligned with ``models``.
    """
    models = list(models)
    if not models:
        empty = np.empty(0)
        return BatchSolveResult(voc=empty, isc=empty, v_mpp=empty, i_mpp=empty, p_mpp=empty)

    solves = _OBS.batch_solves
    if solves is not None:
        solves.inc()
        conditions = _OBS.batch_conditions
        if conditions is not None:
            conditions.inc(len(models))

    if endpoints is None:
        endpoints = solve_endpoints(stack_model_params(models))
    voc, isc = endpoints.voc, endpoints.isc
    v_mpp, i_mpp, p_mpp = _batch_golden_mpp(endpoints.params, voc)

    if memoize:
        memoize_points(models, voc, isc, v_mpp, i_mpp)
    return BatchSolveResult(voc=voc, isc=isc, v_mpp=v_mpp, i_mpp=i_mpp, p_mpp=p_mpp)


def stack_model_params(models: Sequence[SingleDiodeModel]) -> _ParamArrays:
    """Stack five-parameter arrays along a population axis (one row per model).

    The batch solver's own input; the fleet tier stacks a run's
    conditions or a Monte Carlo board population with it and solves
    their loaded sample points through :func:`batch_loaded_point`, and
    the LUT builds on :func:`batch_current_at` over the same arrays.
    """
    n = len(models)
    iph = np.empty(n)
    i0 = np.empty(n)
    a = np.empty(n)
    rs = np.empty(n)
    rsh = np.empty(n)
    for j, m in enumerate(models):
        iph[j] = m.photocurrent
        i0[j] = m.saturation_current
        a[j] = m.modified_ideality
        rs[j] = m.series_resistance
        rsh[j] = m.shunt_resistance
    return _ParamArrays(iph=iph, i0=i0, a=a, rs=rs, rsh=rsh)


def batch_loaded_point(
    p: _ParamArrays,
    voc: np.ndarray,
    load_resistance: np.ndarray,
) -> np.ndarray:
    """Operating voltage of each cell loaded by a resistor to ground.

    Closed-form: a cell loaded by ``R`` to ground carries the
    short-circuit current of the same cell with series resistance
    ``Rs + R``, and its terminal sits at ``v = R·I``.  That is one
    explicit Lambert-W evaluation per element (the single-diode solution
    pvlib also uses), agreeing with the scalar MNA Newton solve in
    :meth:`repro.core.sample_hold.SampleHoldCircuit.loaded_sample_point`
    to ~1e-12 V.

    Dark elements (``voc <= 0`` or ``iph <= 0``) return 0.

    Args:
        p: stacked parameters, one row per element.
        voc: open-circuit voltage per element (selects the lit ones).
        load_resistance: load-to-ground resistance per element, ohms.

    Returns:
        The loaded terminal voltage per element, volts.
    """
    voc = np.asarray(voc, dtype=float)
    r = np.broadcast_to(np.asarray(load_resistance, dtype=float), voc.shape)
    active = (voc > 0.0) & (p.iph > 0.0)
    if not np.any(active):
        return np.zeros_like(voc)

    pa = take_params(p, active)
    r_a = r[active]
    solves = _OBS.batch_solves
    if solves is not None:
        solves.inc()
        conditions = _OBS.batch_conditions
        if conditions is not None:
            conditions.inc(len(r_a))
    loaded = _ParamArrays(iph=pa.iph, i0=pa.i0, a=pa.a, rs=pa.rs + r_a, rsh=pa.rsh)
    out = np.zeros_like(voc)
    out[active] = r_a * _batch_isc(loaded)
    return out


# --- series strings: the ragged cell axis ------------------------------------
#
# A string is a series chain of single-diode cells sharing one terminal
# current.  Populations of strings are ragged (each string may have its
# own cell count), so the stack below keeps a *flat* cell axis plus row
# offsets — string ``r`` owns cells ``offsets[r]:offsets[r+1]``.  Every
# kernel is elementwise over "evaluation points" ``(row, scalar)`` and
# therefore produces identical floats whether it is called with one row
# (the scalar :class:`repro.pv.string.StringModel` path) or a whole
# population (the fleet tier) — the cross-engine equivalence discipline
# of the single-cell kernels carries over unchanged.
#
# The per-cell voltage solve deliberately has *no* Isc guard: a shaded
# cell in a mismatched string is driven past its short-circuit current
# into reverse bias, where the finite-Rsh Lambert-W expression stays
# valid (W -> 0 and the linear shunt branch takes over).  Strings
# therefore require every cell to have finite shunt resistance, which
# all library cells do.

STRING_BISECTION_ITERS = 48
"""Bisection halvings for string current/loaded-point solves: 48
halvings of the current bracket converge to ~4e-15 relative, far below
the fleet equivalence tolerance."""


@dataclass(frozen=True)
class StringParamArrays:
    """Ragged per-cell parameter stack for a batch of series strings.

    Attributes:
        cells: flat five-parameter arrays, one entry per cell across all
            strings (the cell axis).
        offsets: ``(n_strings + 1,)`` int array; string ``r`` owns cells
            ``offsets[r]:offsets[r+1]``.
        bypass: per-cell bypass-diode clamp voltage (volts, >= 0); a
            cell's voltage is clamped at ``-bypass`` (an ideal bypass
            diode with a fixed forward drop).  ``inf`` means no diode.
    """

    cells: _ParamArrays
    offsets: np.ndarray
    bypass: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def counts(self) -> np.ndarray:
        """Cells per string, ``(n_strings,)``."""
        return self.offsets[1:] - self.offsets[:-1]


def string_population(models: Sequence[object]) -> bool:
    """Whether a run's condition models are series strings or single cells.

    Every precompute comes from one cell, so a population is all
    :class:`~repro.pv.string.StringModel` (True) or all single-diode
    models (False).

    Raises:
        ModelParameterError: the population mixes the two families.
    """
    from repro.errors import ModelParameterError

    strings = sum(getattr(m, "cells", None) is not None for m in models)
    if 0 < strings < len(models):
        raise ModelParameterError(
            f"condition population mixes {strings} string and "
            f"{len(models) - strings} single-cell models; a run's conditions "
            "come from one cell"
        )
    return strings > 0


def stack_string_params(
    strings: "Sequence[Sequence[SingleDiodeModel]]",
    bypass_drops: "Sequence[float | None]",
) -> StringParamArrays:
    """Stack per-string cell model lists into one ragged cell-axis stack.

    Args:
        strings: one sequence of cell models per string (>= 1 cell each).
        bypass_drops: per string, the bypass diode forward drop in volts
            or ``None`` for no bypass diodes.

    Raises:
        ModelParameterError: empty string, infinite shunt resistance
            (the reverse-capable solve requires finite Rsh), or a
            negative bypass drop.
    """
    from repro.errors import ModelParameterError

    flat: List[SingleDiodeModel] = []
    offsets = [0]
    bypass: List[float] = []
    for cells, drop in zip(strings, bypass_drops):
        cells = list(cells)
        if not cells:
            raise ModelParameterError("a string must contain at least one cell")
        if drop is not None and drop < 0.0:
            raise ModelParameterError(f"bypass drop must be >= 0, got {drop!r}")
        for m in cells:
            if not math.isfinite(m.shunt_resistance):
                raise ModelParameterError(
                    "string cells need finite shunt resistance (the reverse-bias "
                    "branch of a shaded cell conducts through the shunt)"
                )
        flat.extend(cells)
        offsets.append(len(flat))
        bypass.extend([float("inf") if drop is None else float(drop)] * len(cells))
    return StringParamArrays(
        cells=stack_model_params(flat),
        offsets=np.asarray(offsets, dtype=np.intp),
        bypass=np.asarray(bypass, dtype=float),
    )


class _StringEval:
    """Pre-gathered cell-axis views for repeated solves at fixed rows.

    Bisection evaluates the same ``(rows)`` pattern dozens of times with
    different currents; gathering parameters (and the per-iteration
    constants of the Lambert-W argument) once per solve instead of once
    per halving is what keeps the per-step engine cost tolerable.
    """

    __slots__ = ("e_of", "seg_starts", "iphpi0", "rs", "rsh", "a", "log_k", "neg_bypass")

    def __init__(self, sp: StringParamArrays, rows: np.ndarray):
        counts = sp.counts[rows]
        if len(counts):
            seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        else:
            seg_starts = np.zeros(0, dtype=np.intp)
        total = int(counts.sum()) if len(counts) else 0
        k = np.arange(total) - np.repeat(seg_starts, counts)
        cell_idx = np.repeat(sp.offsets[rows], counts) + k
        c = sp.cells
        self.e_of = np.repeat(np.arange(len(rows)), counts)
        self.seg_starts = seg_starts
        self.iphpi0 = c.iph[cell_idx] + c.i0[cell_idx]
        self.rs = c.rs[cell_idx]
        self.rsh = c.rsh[cell_idx]
        self.a = c.a[cell_idx]
        self.log_k = np.log(c.i0[cell_idx] * c.rsh[cell_idx] / c.a[cell_idx])
        self.neg_bypass = -sp.bypass[cell_idx]

    def voltage(self, currents: np.ndarray) -> np.ndarray:
        """String terminal voltage per evaluation point (see module notes)."""
        i_cell = currents[self.e_of]
        rd = self.rsh * (self.iphpi0 - i_cell)
        w = lambertw_of_exp(self.log_k + rd / self.a)
        v_cell = np.maximum(rd - i_cell * self.rs - self.a * w, self.neg_bypass)
        return np.add.reduceat(v_cell, self.seg_starts)


def _bisect(above, hi: np.ndarray, iterations: int) -> np.ndarray:
    """Root of a strictly decreasing function on ``[0, hi]``, elementwise.

    ``above(i)`` says whether each element's root lies above ``i``.
    Every string solve is this bisection on the current axis.
    """
    lo = np.zeros(len(hi))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def string_voltage_at(
    sp: StringParamArrays, rows: np.ndarray, currents: np.ndarray
) -> np.ndarray:
    """String terminal voltage per evaluation point ``(rows[e], currents[e])``.

    Sums the reverse-capable per-cell voltage (finite-Rsh Lambert-W
    form, no Isc guard) with each cell clamped at ``-bypass`` by its
    ideal bypass diode.  Strictly decreasing in current, which is what
    makes every downstream solve a bisection.
    """
    rows = np.asarray(rows, dtype=np.intp)
    i = np.asarray(currents, dtype=float)
    return _StringEval(sp, rows).voltage(i)


def string_i_upper(sp: StringParamArrays) -> np.ndarray:
    """Per-string bisection bracket top: ``max_cells(Iph + I0)``.

    At this current every cell sits at or below zero volts (clamped or
    not), so the string voltage is <= 0 — a valid upper bracket for any
    solve targeting a voltage in the generating quadrant.
    """
    return np.maximum.reduceat(sp.cells.iph + sp.cells.i0, sp.offsets[:-1])


def string_voc(sp: StringParamArrays) -> np.ndarray:
    """Open-circuit voltage per string (terminal voltage at zero current)."""
    n = len(sp)
    return string_voltage_at(sp, np.arange(n, dtype=np.intp), np.zeros(n))


def string_current_at(
    sp: StringParamArrays,
    rows: np.ndarray,
    volts: np.ndarray,
    iterations: int = STRING_BISECTION_ITERS,
    _ev: "_StringEval | None" = None,
) -> np.ndarray:
    """String terminal current per evaluation point, clamped to >= 0.

    Inverts the strictly-decreasing ``V(I)`` by bisection on
    ``[0, i_upper]``.  Voltages at or above Voc return 0 (the engines
    clamp non-generating operating points to zero power, so the reverse
    branch above Voc is never needed).  ``_ev`` lets a caller that
    solves the same row pattern every step reuse the gathered views.
    """
    rows = np.asarray(rows, dtype=np.intp)
    v = np.asarray(volts, dtype=float)
    ev = _ev if _ev is not None else _StringEval(sp, rows)
    out = _bisect(lambda i: ev.voltage(i) > v, string_i_upper(sp)[rows], iterations)
    # A voltage at/above Voc bisects onto the lower bracket edge; the
    # midpoint there is a half-step above zero — snap it to exactly 0 so
    # dark/over-voltage points report no generation.
    voc = ev.voltage(np.zeros(len(rows)))
    return np.where(v >= voc, 0.0, out)


def string_isc(
    sp: StringParamArrays, iterations: int = STRING_BISECTION_ITERS
) -> np.ndarray:
    """Short-circuit current per string (root of ``V(I) = 0``)."""
    n = len(sp)
    ev = _StringEval(sp, np.arange(n, dtype=np.intp))
    return _bisect(lambda i: ev.voltage(i) > 0.0, string_i_upper(sp), iterations)


def string_loaded_point(
    sp: StringParamArrays,
    voc: np.ndarray,
    load_resistance: np.ndarray,
    iterations: int = STRING_BISECTION_ITERS,
) -> np.ndarray:
    """Terminal voltage of each string loaded by a resistor to ground.

    The string analogue of :func:`batch_loaded_point`: solves
    ``V(I) = I * R`` by bisection on the current axis (``g(I) = V(I) -
    I*R`` is strictly decreasing, positive at 0 for a lit string and
    negative at the bracket top).  Dark strings return 0.
    """
    n = len(sp)
    voc = np.asarray(voc, dtype=float)
    r = np.broadcast_to(np.asarray(load_resistance, dtype=float), voc.shape)
    ev = _StringEval(sp, np.arange(n, dtype=np.intp))
    i_op = _bisect(lambda i: ev.voltage(i) - i * r > 0.0, string_i_upper(sp), iterations)
    return np.where(voc > 0.0, i_op * r, 0.0)


def string_bypass_knees(
    sp: StringParamArrays, iterations: int = STRING_BISECTION_ITERS
) -> "list":
    """Terminal voltages where a bypass diode switches state, per string.

    Each cell's voltage is strictly decreasing in string current, so the
    current where it crosses its ``-bypass`` clamp is a bisection root;
    the string terminal voltage at that current is a slope discontinuity
    ("knee") of the terminal P-V curve — the feature knee-aligned LUT
    grids must place a node on.  Cells whose clamp never engages inside
    the operating bracket ``[0, i_upper]`` (uniform light, or a bypass
    drop larger than the cell's full reverse excursion) contribute no
    knee.  Returns one sorted list of knee voltages per string.
    """
    n = len(sp)
    if n == 0:
        return []
    c = sp.cells
    row_of = np.repeat(np.arange(n, dtype=np.intp), sp.counts)
    hi0 = string_i_upper(sp)[row_of]
    iphpi0 = c.iph + c.i0
    log_k = np.log(c.i0 * c.rsh / c.a)
    neg_bypass = -sp.bypass

    def v_cell(i: np.ndarray) -> np.ndarray:
        rd = c.rsh * (iphpi0 - i)
        w = lambertw_of_exp(log_k + rd / c.a)
        return rd - i * c.rs - c.a * w

    crossing = np.isfinite(sp.bypass) & (v_cell(hi0) < neg_bypass)
    i_knee = _bisect(lambda i: v_cell(i) > neg_bypass, hi0, iterations)
    knees: list = [[] for _ in range(n)]
    if crossing.any():
        rows = row_of[crossing]
        v_knee = string_voltage_at(sp, rows, i_knee[crossing])
        for r, v in zip(rows.tolist(), v_knee.tolist()):
            knees[r].append(v)
    for r in range(n):
        knees[r].sort()
    return knees


def string_mpp(
    sp: StringParamArrays,
    grid_points: int = 257,
    refine_iterations: int = 80,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, list]":
    """Multi-modal MPP search over every string in the stack.

    A mismatched string's P-V curve has one local maximum per distinct
    irradiance group (bypass knees), so unimodal golden section is not
    enough.  This samples ``P(I) = I * V(I)`` on a uniform current grid,
    brackets every interior local maximum, refines each bracket with a
    vectorized golden-section pass, and keeps the full list of refined
    local maxima per string.

    Returns:
        ``(v_mpp, i_mpp, p_mpp, maxima)`` — the global MPP arrays plus,
        per string, a list of ``(voltage, current, power)`` local maxima
        sorted by voltage (the multi-knee structure; length >= 2 under
        partial shading).
    """
    n = len(sp)
    if n == 0:
        empty = np.empty(0)
        return empty, empty.copy(), empty.copy(), []
    i_upper = string_i_upper(sp)
    voc = string_voc(sp)
    active = voc > 0.0

    frac = np.linspace(0.0, 1.0, grid_points)
    rows = np.repeat(np.arange(n, dtype=np.intp), grid_points)
    i_grid = (i_upper[:, None] * frac[None, :]).ravel()
    v_grid = string_voltage_at(sp, rows, i_grid).reshape(n, grid_points)
    p_grid = v_grid * i_grid.reshape(n, grid_points)

    # Interior local maxima of the sampled power (>= both neighbours).
    interior = p_grid[:, 1:-1]
    is_max = (
        (interior >= p_grid[:, :-2])
        & (interior >= p_grid[:, 2:])
        & (interior > 0.0)
        & active[:, None]
    )
    max_rows, max_cols = np.nonzero(is_max)
    max_cols = max_cols + 1  # offset for the sliced interior view

    # One golden-section refinement per bracketed maximum, vectorized.
    b_rows = max_rows.astype(np.intp)
    b_lo = i_grid.reshape(n, grid_points)[max_rows, max_cols - 1]
    b_hi = i_grid.reshape(n, grid_points)[max_rows, max_cols + 1]
    b_ev = _StringEval(sp, b_rows)

    def p_of(i_val: np.ndarray) -> np.ndarray:
        return i_val * b_ev.voltage(i_val)

    lo, hi = b_lo.copy(), b_hi.copy()
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    p1, p2 = p_of(x1), p_of(x2)
    for _ in range(refine_iterations):
        move = p1 < p2  # maximum sits in the upper sub-bracket
        new_lo = np.where(move, x1, lo)
        new_hi = np.where(move, hi, x2)
        new_x1 = np.where(move, x2, new_hi - _INV_PHI * (new_hi - new_lo))
        new_x2 = np.where(move, new_lo + _INV_PHI * (new_hi - new_lo), x1)
        fresh = np.where(move, new_x2, new_x1)
        p_fresh = p_of(fresh)
        new_p1 = np.where(move, p2, p_fresh)
        new_p2 = np.where(move, p_fresh, p1)
        lo, hi, x1, x2, p1, p2 = new_lo, new_hi, new_x1, new_x2, new_p1, new_p2
    i_star = 0.5 * (lo + hi)
    v_star = b_ev.voltage(i_star)
    p_star = i_star * v_star

    v_mpp = np.zeros(n)
    i_mpp = np.zeros(n)
    p_mpp = np.zeros(n)
    maxima: list = [[] for _ in range(n)]
    for j in range(len(b_rows)):
        r = int(b_rows[j])
        entry = (float(v_star[j]), float(i_star[j]), float(p_star[j]))
        # Merge refinements that converged onto the same knee.
        merged = False
        for idx, known in enumerate(maxima[r]):
            if abs(known[1] - entry[1]) <= 1e-9 * max(i_upper[r], 1e-30):
                if entry[2] > known[2]:
                    maxima[r][idx] = entry
                merged = True
                break
        if not merged:
            maxima[r].append(entry)
        if entry[2] > p_mpp[r]:
            v_mpp[r], i_mpp[r], p_mpp[r] = entry
    for r in range(n):
        maxima[r].sort(key=lambda knee: knee[0])
    return v_mpp, i_mpp, p_mpp, maxima


def batch_mpp(
    cell,
    lux_levels: Sequence[float],
    source: LightSource = FLUORESCENT,
    temperature: "float | Sequence[float]" = T_STC,
    memoize: bool = True,
) -> BatchSolveResult:
    """Operating points of ``cell`` across arrays of conditions.

    Args:
        cell: a :class:`~repro.pv.cells.PVCell` (or compatible object
            exposing ``model_at``).
        lux_levels: illuminance per condition.
        source: light-source spectrum shared by all conditions.
        temperature: scalar (shared) or per-condition kelvin.
        memoize: pre-fill the built models' memoised points.

    Returns:
        A :class:`BatchSolveResult` aligned with ``lux_levels``.
    """
    lux = np.asarray(lux_levels, dtype=float)
    temps = np.broadcast_to(np.asarray(temperature, dtype=float), lux.shape)
    models: List[SingleDiodeModel] = [
        cell.model_at(float(l), source=source, temperature=float(t))
        for l, t in zip(lux, temps)
    ]
    return solve_models(models, memoize=memoize)
