"""Single-diode photovoltaic model with explicit Lambert-W solutions.

The model is the standard five-parameter equivalent circuit::

    I = Iph - I0 * (exp((V + I*Rs) / a) - 1) - (V + I*Rs) / Rsh

where ``a = n * Ns * Vt`` is the modified ideality factor (ideality
``n``, ``Ns`` series junctions, thermal voltage ``Vt``).  Amorphous
silicon modules such as the paper's AM-1815 are monolithically
series-integrated, so ``Ns`` counts the integrated junctions.

Both the current-from-voltage and voltage-from-current forms are solved
*explicitly* via the Lambert-W function (Jain & Kapoor 2004), which is
what makes 24-hour simulations with per-second operating-point solves
tractable.  A guarded Newton fallback handles the huge exponents that
appear at outdoor irradiance where ``exp()`` overflows a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.special import lambertw, wrightomega

from repro.errors import ConvergenceError, ModelParameterError, OperatingPointError
from repro.obs.metrics import HOOKS as _OBS
from repro.units import thermal_voltage, T_STC

ArrayLike = Union[float, np.ndarray]

_LAMBERTW_DIRECT_MAX_LOG = 100.0
"""Above this value of ln(theta), evaluate W via the asymptotic Newton
iteration instead of scipy's lambertw (whose argument would overflow)."""


def _lambertw_of_exp_scalar(x: float, exp=math.exp, log=math.log) -> float:
    """Scalar ``W(exp(x))`` without any array machinery.

    The quasi-static engine solves millions of scalar operating points
    per 24-hour run; going through ``np.asarray``/``atleast_1d``/boolean
    masks costs more than the solve itself, so scalars take this path.

    ``exp``/``log`` default to :mod:`math`, the fastest on a float.
    numpy's vectorized ``exp`` rounds differently from libm's in the
    last ulp for a few percent of arguments; pass ``np.exp``/``np.log``
    to reproduce :func:`lambertw_of_exp`'s array path bit for bit.
    """
    calls = _OBS.lambertw_calls
    if calls is not None:
        calls.inc()
    if x <= _LAMBERTW_DIRECT_MAX_LOG:
        return lambertw(exp(x)).real
    w = x - log(x)
    for iteration in range(24):
        f = w + log(w) - x
        dw = -f / (1.0 + 1.0 / w)
        w = w + dw
        if abs(dw) <= 1e-14 * max(abs(w), 1.0):
            iters = _OBS.lambertw_newton_iters
            if iters is not None:
                iters.inc(iteration + 1)
            return w
    raise ConvergenceError("lambertw_of_exp Newton iteration did not converge", iterations=24)


def lambertw_of_exp(log_theta: ArrayLike) -> ArrayLike:
    """Return ``W(exp(x))`` for real ``x``, stable for arbitrarily large ``x``.

    For moderate ``x`` this delegates to :func:`scipy.special.lambertw`.
    For large ``x`` (where ``exp(x)`` overflows) it solves
    ``w + ln(w) = x`` by Newton iteration from the asymptotic seed
    ``w0 = x - ln(x)``, which converges quadratically in a handful of
    steps.  Each element iterates until it converges itself, so the
    array path equals ``_lambertw_of_exp_scalar(x, exp=np.exp,
    log=np.log)`` element for element, whatever else shares the call.
    """
    if type(log_theta) is float or type(log_theta) is int:
        return _lambertw_of_exp_scalar(float(log_theta))
    x = np.asarray(log_theta, dtype=float)
    scalar = x.ndim == 0
    shape = x.shape
    # Work on a flat copy so the Newton branch can index elements, not rows.
    x = x.ravel()
    out = np.empty_like(x)
    calls = _OBS.lambertw_calls
    if calls is not None:
        calls.inc(x.size)

    small = x <= _LAMBERTW_DIRECT_MAX_LOG
    if np.any(small):
        vals = lambertw(np.exp(x[small]))
        out[small] = vals.real

    big = np.nonzero(~small)[0]
    if big.size:
        # Solve w + ln(w) = x.  Seed with the two-term asymptotic series,
        # then iterate only the elements still moving, so each stops where
        # the scalar iteration would and its bits do not depend on its call.
        xb = x[big]
        w = xb - np.log(xb)
        newton = 0
        for _ in range(24):
            f = w + np.log(w) - xb
            dw = -f / (1.0 + 1.0 / w)
            w = w + dw
            newton += w.size
            done = np.abs(dw) <= 1e-14 * np.maximum(np.abs(w), 1.0)
            out[big[done]] = w[done]
            if done.all():
                break
            moving = ~done
            big, xb, w = big[moving], xb[moving], w[moving]
        else:
            raise ConvergenceError("lambertw_of_exp Newton iteration did not converge", iterations=24)
        iters = _OBS.lambertw_newton_iters
        if iters is not None:
            iters.inc(newton)

    return float(out[0]) if scalar else out.reshape(shape)


def wright_omega(x: np.ndarray) -> np.ndarray:
    """``W(exp(x))`` for an array, as the Wright omega function.

    The same function as :func:`lambertw_of_exp`, agreeing to ~2e-15
    relative over the single-diode range, in about 0.4x the time (real
    arithmetic, no overflow branch).  Its last bits differ, so only
    evaluations no bitwise contract reads take it: the exact rows of the
    power tables (:mod:`repro.pv.lut`).  The batch solver keeps
    :func:`lambertw_of_exp`, whose bits the scalar engine's memoised
    solves share.
    """
    calls = _OBS.lambertw_calls
    if calls is not None:
        calls.inc(x.size)
    return wrightomega(x)


@dataclass(frozen=True)
class MPPResult:
    """Maximum power point of an I-V curve.

    Attributes:
        voltage: MPP voltage, volts.
        current: MPP current, amps.
        power: MPP power, watts (``voltage * current``).
        voc: open-circuit voltage of the same curve, volts.
        isc: short-circuit current of the same curve, amps.
    """

    voltage: float
    current: float
    power: float
    voc: float
    isc: float

    @property
    def fill_factor(self) -> float:
        """Fill factor ``P_mpp / (Voc * Isc)``; NaN for a dark curve."""
        denominator = self.voc * self.isc
        if denominator <= 0.0:
            return float("nan")
        return self.power / denominator

    @property
    def k(self) -> float:
        """Fractional open-circuit voltage ``Vmpp / Voc`` (the paper's k)."""
        if self.voc <= 0.0:
            return float("nan")
        return self.voltage / self.voc


@dataclass(frozen=True)
class SingleDiodeModel:
    """Five-parameter single-diode PV model at a fixed operating condition.

    An instance is immutable and represents the curve for one
    ``(photocurrent, temperature)`` pair; :class:`repro.pv.cells.PVCell`
    constructs instances per lighting condition.

    Attributes:
        photocurrent: light-generated current ``Iph``, amps.
        saturation_current: diode reverse saturation current ``I0``, amps.
        ideality: diode ideality factor ``n`` (per junction).
        n_series: number of series junctions ``Ns``.
        series_resistance: lumped series resistance ``Rs``, ohms.
        shunt_resistance: lumped shunt resistance ``Rsh``, ohms.
        temperature: cell temperature, kelvin.
    """

    photocurrent: float
    saturation_current: float
    ideality: float = 1.8
    n_series: int = 1
    series_resistance: float = 0.0
    shunt_resistance: float = float("inf")
    temperature: float = T_STC

    def __post_init__(self) -> None:
        if self.photocurrent < 0.0:
            raise ModelParameterError(f"photocurrent must be >= 0, got {self.photocurrent!r}")
        if self.saturation_current <= 0.0:
            raise ModelParameterError(f"saturation_current must be > 0, got {self.saturation_current!r}")
        if self.ideality <= 0.0:
            raise ModelParameterError(f"ideality must be > 0, got {self.ideality!r}")
        if self.n_series < 1:
            raise ModelParameterError(f"n_series must be >= 1, got {self.n_series!r}")
        if self.series_resistance < 0.0:
            raise ModelParameterError(f"series_resistance must be >= 0, got {self.series_resistance!r}")
        if self.shunt_resistance <= 0.0:
            raise ModelParameterError(f"shunt_resistance must be > 0, got {self.shunt_resistance!r}")
        if self.temperature <= 0.0:
            raise ModelParameterError(f"temperature must be > 0 K, got {self.temperature!r}")

    # --- derived scalars ----------------------------------------------------

    @property
    def modified_ideality(self) -> float:
        """``a = n * Ns * Vt``, volts — the exponential scale of the curve."""
        return self.ideality * self.n_series * thermal_voltage(self.temperature)

    def with_photocurrent(self, photocurrent: float) -> "SingleDiodeModel":
        """Return a copy at a different photocurrent (light level)."""
        return replace(self, photocurrent=photocurrent)

    def with_temperature(self, temperature: float) -> "SingleDiodeModel":
        """Return a copy at a different cell temperature (kelvin).

        Note: this rescales ``Vt`` only; saturation-current temperature
        dependence is handled by :class:`repro.pv.cells.PVCell`, which
        owns the material parameters needed for it.
        """
        return replace(self, temperature=temperature)

    # --- explicit curve solutions --------------------------------------------

    def current_at(self, voltage: ArrayLike) -> ArrayLike:
        """Terminal current (amps) at terminal voltage(s) ``voltage``.

        Positive current flows out of the cell.  Valid for any voltage at
        or below a few ``a`` beyond Voc; reverse-bias (negative voltage)
        returns the shunt/photocurrent-dominated branch.
        """
        if type(voltage) is float or type(voltage) is int:
            return self._current_at_scalar(float(voltage))
        v = np.asarray(voltage, dtype=float)
        scalar = v.ndim == 0
        v = np.atleast_1d(v)
        a = self.modified_ideality
        iph, i0, rs, rsh = (
            self.photocurrent,
            self.saturation_current,
            self.series_resistance,
            self.shunt_resistance,
        )

        if rs < 1e-9:
            # Below a nano-ohm the Lambert-W form underflows; the ideal
            # series branch is exact to machine precision there anyway.
            shunt = v / rsh if np.isfinite(rsh) else 0.0
            with np.errstate(over="ignore"):
                exponent = np.clip(v / a, None, 700.0)
                i = iph - i0 * np.expm1(exponent) - shunt
        elif not np.isfinite(rsh):
            # I = Iph + I0 - (a/Rs) * W((I0*Rs/a) * exp((V + Rs*(Iph+I0))/a))
            log_theta = math.log(i0 * rs / a) + (v + rs * (iph + i0)) / a
            w = lambertw_of_exp(log_theta)
            i = iph + i0 - (a / rs) * w
        else:
            # Jain & Kapoor explicit form.
            rt = rs + rsh
            log_theta = math.log(rs * rsh * i0 / (a * rt)) + rsh * (rs * (iph + i0) + v) / (a * rt)
            w = lambertw_of_exp(log_theta)
            i = (rsh * (iph + i0) - v) / rt - (a / rs) * w

        i = np.asarray(i, dtype=float)
        return float(i[0]) if scalar else i

    def _current_at_scalar(self, v: float) -> float:
        """Pure-scalar :meth:`current_at` — the hot path of long runs."""
        a = self.modified_ideality
        iph, i0, rs, rsh = (
            self.photocurrent,
            self.saturation_current,
            self.series_resistance,
            self.shunt_resistance,
        )
        if rs < 1e-9:
            shunt = v / rsh if math.isfinite(rsh) else 0.0
            return iph - i0 * math.expm1(min(v / a, 700.0)) - shunt
        if not math.isfinite(rsh):
            log_theta = math.log(i0 * rs / a) + (v + rs * (iph + i0)) / a
            w = _lambertw_of_exp_scalar(log_theta)
            return iph + i0 - (a / rs) * w
        rt = rs + rsh
        log_theta = math.log(rs * rsh * i0 / (a * rt)) + rsh * (rs * (iph + i0) + v) / (a * rt)
        w = _lambertw_of_exp_scalar(log_theta)
        return (rsh * (iph + i0) - v) / rt - (a / rs) * w

    def voltage_at(self, current: ArrayLike) -> ArrayLike:
        """Terminal voltage (volts) at terminal current(s) ``current``.

        Raises:
            OperatingPointError: if ``current`` exceeds the short-circuit
                current (no forward operating point exists there).
        """
        if type(current) is float or type(current) is int:
            return self._voltage_at_scalar(float(current))
        i = np.asarray(current, dtype=float)
        scalar = i.ndim == 0
        i = np.atleast_1d(i)
        isc = self.isc()
        if np.any(i > isc * (1.0 + 1e-9) + 1e-15):
            raise OperatingPointError(
                f"requested current {float(np.max(i)):.4g} A exceeds Isc {isc:.4g} A"
            )
        a = self.modified_ideality
        iph, i0, rs, rsh = (
            self.photocurrent,
            self.saturation_current,
            self.series_resistance,
            self.shunt_resistance,
        )

        if not np.isfinite(rsh):
            ratio = np.maximum((iph + i0 - i) / i0, 1e-300)
            v = a * np.log(ratio) - i * rs
        else:
            # V = Rsh*(Iph + I0 - I) - I*Rs - a*W((I0*Rsh/a) * exp(Rsh*(Iph+I0-I)/a))
            log_theta = np.log(i0 * rsh / a) + rsh * (iph + i0 - i) / a
            w = lambertw_of_exp(log_theta)
            v = rsh * (iph + i0 - i) - i * rs - a * w

        v = np.asarray(v, dtype=float)
        return float(v[0]) if scalar else v

    def _voltage_at_scalar(self, i: float) -> float:
        """Pure-scalar :meth:`voltage_at` (shares the Isc guard).

        Uses numpy's ``exp``/``log`` so the result (Voc in particular)
        is bitwise the array path's, and so the per-cell voltage the
        string and batch solvers sum.
        """
        isc = self.isc()
        if i > isc * (1.0 + 1e-9) + 1e-15:
            raise OperatingPointError(f"requested current {i:.4g} A exceeds Isc {isc:.4g} A")
        a = self.modified_ideality
        iph, i0, rs, rsh = (
            self.photocurrent,
            self.saturation_current,
            self.series_resistance,
            self.shunt_resistance,
        )
        if not math.isfinite(rsh):
            ratio = max((iph + i0 - i) / i0, 1e-300)
            return a * float(np.log(ratio)) - i * rs
        log_theta = float(np.log(i0 * rsh / a)) + rsh * (iph + i0 - i) / a
        w = float(_lambertw_of_exp_scalar(log_theta, np.exp, np.log))
        return rsh * (iph + i0 - i) - i * rs - a * w

    def power_at(self, voltage: ArrayLike) -> ArrayLike:
        """Output power (watts) at terminal voltage(s) ``voltage``."""
        if type(voltage) is float or type(voltage) is int:
            v = float(voltage)
            return v * self._current_at_scalar(v)
        v = np.asarray(voltage, dtype=float)
        return v * self.current_at(v)

    # --- characteristic points ------------------------------------------------
    #
    # Instances are immutable, so the characteristic points are pure and
    # memoised on the instance (stored via object.__setattr__ to respect
    # frozen=True; dataclass eq/hash look only at declared fields).
    # Long quasi-static runs ask for Voc and the MPP of the same curve
    # many times per step — once per condition is enough.

    def voc(self) -> float:
        """Open-circuit voltage, volts."""
        cached = self.__dict__.get("_voc_memo")
        if cached is None:
            cached = float(self.voltage_at(0.0))
            object.__setattr__(self, "_voc_memo", cached)
        return cached

    def isc(self) -> float:
        """Short-circuit current, amps."""
        cached = self.__dict__.get("_isc_memo")
        if cached is None:
            cached = self._isc_solve()
            object.__setattr__(self, "_isc_memo", cached)
        return cached

    def _isc_solve(self) -> float:
        a = self.modified_ideality
        iph, i0, rs, rsh = (
            self.photocurrent,
            self.saturation_current,
            self.series_resistance,
            self.shunt_resistance,
        )
        if rs < 1e-9:
            return iph
        if not np.isfinite(rsh):
            log_theta = math.log(i0 * rs / a) + rs * (iph + i0) / a
            w = lambertw_of_exp(log_theta)
            return float(iph + i0 - (a / rs) * w)
        rt = rs + rsh
        log_theta = math.log(rs * rsh * i0 / (a * rt)) + rsh * rs * (iph + i0) / (a * rt)
        w = lambertw_of_exp(log_theta)
        return float(rsh * (iph + i0) / rt - (a / rs) * w)

    def source_resistance_at_voc(self) -> float:
        """Small-signal output resistance ``-dV/dI`` at open circuit, ohms.

        This is what loads (the S&H divider) see when sampling Voc; at
        200 lux it is several kilohms for the AM-1815, which is the
        physical origin of the small lux dependence of the measured k in
        the paper's Table I.
        """
        a = self.modified_ideality
        voc = self.voc()
        # dI/dV = -(I0/a) exp((V + I Rs)/a) - 1/Rsh at I = 0.
        diode_term = (self.saturation_current / a) * math.exp(min(voc / a, 700.0))
        shunt_term = 0.0 if not np.isfinite(self.shunt_resistance) else 1.0 / self.shunt_resistance
        return 1.0 / (diode_term + shunt_term) + self.series_resistance

    def mpp(self, tolerance: float = 1e-12) -> MPPResult:
        """Locate the maximum power point by golden-section search on P(V).

        The power curve of a single-diode cell is unimodal on
        ``[0, Voc]``, so golden-section is globally convergent here.
        The default-tolerance result is memoised on the instance (and is
        what :func:`repro.pv.batch.solve_models` pre-fills).
        """
        if tolerance == 1e-12:
            cached = self.__dict__.get("_mpp_memo")
            if cached is None:
                cached = self._mpp_solve(tolerance)
                object.__setattr__(self, "_mpp_memo", cached)
            return cached
        return self._mpp_solve(tolerance)

    def _mpp_solve(self, tolerance: float) -> MPPResult:
        solves = _OBS.mpp_solves
        if solves is not None:
            solves.inc()
        voc = self.voc()
        if voc <= 0.0 or self.photocurrent <= 0.0:
            return MPPResult(voltage=0.0, current=0.0, power=0.0, voc=max(voc, 0.0), isc=self.isc())

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 0.0, voc
        x1 = hi - inv_phi * (hi - lo)
        x2 = lo + inv_phi * (hi - lo)
        p1 = float(self.power_at(x1))
        p2 = float(self.power_at(x2))
        iterations = 0
        for _ in range(200):
            if hi - lo <= tolerance * max(voc, 1.0):
                break
            iterations += 1
            if p1 < p2:
                lo, x1, p1 = x1, x2, p2
                x2 = lo + inv_phi * (hi - lo)
                p2 = float(self.power_at(x2))
            else:
                hi, x2, p2 = x2, x1, p1
                x1 = hi - inv_phi * (hi - lo)
                p1 = float(self.power_at(x1))
        iters = _OBS.mpp_iters
        if iters is not None:
            iters.inc(iterations)
        v_mpp = 0.5 * (lo + hi)
        i_mpp = float(self.current_at(v_mpp))
        return MPPResult(
            voltage=v_mpp,
            current=i_mpp,
            power=v_mpp * i_mpp,
            voc=voc,
            isc=self.isc(),
        )

    def iv_curve(self, points: int = 200, v_max: Union[float, None] = None) -> "tuple[np.ndarray, np.ndarray]":
        """Return ``(voltages, currents)`` arrays sweeping 0..Voc (or ``v_max``)."""
        if points < 2:
            raise ModelParameterError(f"points must be >= 2, got {points!r}")
        top = self.voc() if v_max is None else v_max
        v = np.linspace(0.0, top, points)
        return v, np.asarray(self.current_at(v), dtype=float)
