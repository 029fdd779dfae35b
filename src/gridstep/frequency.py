"""Discrete frequency excursion control on a nonlinear two-machine system.

A governor-equipped synchronous generator feeds a synchronous motor over a
lossless line; a controllable component at the generator bus can inject a
power block ``dp`` during ``[t_on, t_off]`` after the motor's mechanical
load steps up. The controller design problem is to pick ``(dp, t_on, t_off)``
minimizing the excursion of the average frequency below its post-disturbance
steady state.

Internal EMF magnitudes are held constant (no voltage-controller dynamics);
the phenomenon of interest is governed by the swing and governor dynamics.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import minimize

from .errors import DimensionError, OptimizationError, StiffnessError

INSTABILITY_COST = float("inf")
_ANGLE_SLIP = math.pi  # |delta1 - delta2| beyond this flags loss of synchronism


@dataclass(frozen=True)
class GovernorParams:
    """IEESGO-style speed governor + turbine chain.

    Controller ``k1 (1 + s t2) / ((1 + s t1)(1 + s t3))`` acts on the speed
    deviation; the limited power command feeds three cascaded lags
    ``t4, t5, t6`` whose outputs are blended with fractions ``k2, k3``.
    Steady-state droop is ``1 / k1``.
    """

    k1: float
    t1: float
    t2: float
    t3: float
    k2: float
    k3: float
    t4: float
    t5: float
    t6: float
    p_max: float = 1.2
    p_min: float = 0.0

    def __post_init__(self):
        if self.p_min >= self.p_max:
            raise DimensionError("governor limits require p_min < p_max")
        for name in ("t1", "t3", "t4", "t5", "t6"):
            if getattr(self, name) <= 0.0:
                raise DimensionError(f"governor time constant {name} must be > 0")


@dataclass(frozen=True)
class TwoMachineModel:
    h1: float
    h2: float
    e1: float
    e2: float
    x: float
    gov: GovernorParams
    d1: float = 0.0
    d2: float = 0.0
    p_set: float = 0.75
    omega_s: float = 120.0 * math.pi

    def __post_init__(self):
        if self.x <= 0.0 or self.h1 <= 0.0 or self.h2 <= 0.0:
            raise DimensionError("reactance and inertias must be positive")
        if abs(self.p_set * self.x / (self.e1 * self.e2)) >= 1.0:
            raise DimensionError("no equilibrium: |p_set x / (e1 e2)| >= 1")

    @property
    def p_sync(self) -> float:
        return self.e1 * self.e2 / self.x

    def equilibrium(self) -> np.ndarray:
        """State [d1, w1, d2, w2, g1, g2, a1, a2, a3] at the pre-disturbance
        operating point."""
        d12 = math.asin(self.p_set / self.p_sync)
        return np.array(
            [d12, 1.0, 0.0, 1.0, 0.0, 0.0, self.p_set, self.p_set, self.p_set]
        )


@dataclass(frozen=True)
class DfecAction:
    dp: float
    t_on: float
    t_off: float

    def __post_init__(self):
        if not (0.0 <= self.t_on < self.t_off):
            raise DimensionError("action requires 0 <= t_on < t_off")
        if self.dp < 0.0:
            raise DimensionError("dp must be >= 0 (injection counters under-frequency)")


@dataclass(frozen=True)
class SimOptions:
    horizon: float = 60.0
    dt_out: float = 0.02
    rtol: float = 1e-8
    atol: float = 1e-10
    ss_window: float = 2.0      # tail window used for the steady-state mean
    disturbance: float = 0.25   # motor mechanical power step, pu
    t_disturbance: float = 0.0

    def __post_init__(self):
        for name in ("horizon", "dt_out", "rtol", "atol", "ss_window"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DimensionError(f"sim.{name} must be finite and > 0")
        if self.ss_window > self.horizon:
            raise DimensionError("sim.ss_window must not exceed sim.horizon")
        if self.dt_out > self.ss_window:
            raise DimensionError(
                "sim.dt_out must not exceed sim.ss_window (the steady-state "
                "window needs an output sample)")


@dataclass(frozen=True)
class DfecResult:
    action: DfecAction
    cost: float
    uncontrolled_cost: float
    uncontrolled_nadir: float   # 1 - min average speed, pu
    controlled_nadir: float
    history: tuple = ()

    def to_dict(self) -> dict:
        return {
            "action": {"dp": self.action.dp, "t_on": self.action.t_on, "t_off": self.action.t_off},
            "cost": self.cost,
            "uncontrolled_cost": self.uncontrolled_cost,
            "uncontrolled_nadir": self.uncontrolled_nadir,
            "controlled_nadir": self.controlled_nadir,
            "history": [
                {"start": list(map(float, s)), "cost": float(c)} for s, c in self.history
            ],
        }


def dfec_dynamics(model: TwoMachineModel, dp_active: float, p_motor: float):
    """Right-hand side for one continuous piece (fixed injection and load)."""
    g = model.gov
    ws, p_sync, p_set = model.omega_s, model.p_sync, model.p_set
    damp1, damp2 = model.d1, model.d2
    h1_2, h2_2 = 2.0 * model.h1, 2.0 * model.h2
    k1, t1, t3, t4, t5, t6 = g.k1, g.t1, g.t3, g.t4, g.t5, g.t6
    t2_over_t1 = g.t2 / g.t1
    p_min, p_max = g.p_min, g.p_max
    blend1, blend2, blend3 = 1.0 - g.k2, g.k2 * (1.0 - g.k3), g.k2 * g.k3
    sin = math.sin

    def rhs(t, y):
        d1, w1, d2, w2, g1, g2, a1, a2, a3 = y
        pe = p_sync * sin(d1 - d2)
        u = w1 - 1.0
        y1 = g1 + t2_over_t1 * (u - g1)
        p_cmd = min(max(p_set - g2, p_min), p_max)
        pm1 = blend1 * a1 + blend2 * a2 + blend3 * a3
        return [ws * u, (pm1 - (pe - dp_active) - damp1 * u) / h1_2,
                ws * (w2 - 1.0), (pe - p_motor - damp2 * (w2 - 1.0)) / h2_2,
                (u - g1) / t1, (k1 * y1 - g2) / t3,
                (p_cmd - a1) / t4, (a1 - a2) / t5, (a2 - a3) / t6]

    return rhs


@dataclass
class DfecTrajectory:
    t: np.ndarray
    y: np.ndarray          # (n, 9); nadir_cost keeps the first 4 columns
    unstable: bool

    @property
    def avg_speed(self) -> np.ndarray:
        return 0.5 * (self.y[:, 1] + self.y[:, 3])

    def summary(self, opts: SimOptions) -> tuple[float, float, float]:
        """``(w_ss, nadir, cost)``: ``w_ss`` is the mean average speed over the
        last ``ss_window``, ``nadir = 1 - min``, ``cost = w_ss - min``; an
        unstable run gives ``(nan, nan, inf)``."""
        if self.unstable:
            return math.nan, math.nan, INSTABILITY_COST
        avg = self.avg_speed
        w_ss = float(avg[self.t >= opts.horizon - opts.ss_window].mean())
        low = float(avg.min())
        return w_ss, 1.0 - low, w_ss - low


def _pieces(model: TwoMachineModel, action: DfecAction | None, opts: SimOptions):
    """Continuous pieces ``(lo, hi, dp_active, p_motor)`` between power steps."""
    breaks = {opts.t_disturbance}
    if action is not None and action.dp > 0.0:
        breaks.update((action.t_on, action.t_off))
    breaks = sorted(b for b in breaks if 0.0 < b < opts.horizon)
    bounds = [0.0] + breaks + [opts.horizon]
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        mid = 0.5 * (lo + hi)
        p_motor = model.p_set + (opts.disturbance if mid >= opts.t_disturbance else 0.0)
        dp_active = 0.0
        if action is not None and action.t_on <= mid < action.t_off:
            dp_active = action.dp
        pieces.append((lo, hi, dp_active, p_motor))
    return pieces


def _output_grid(opts: SimOptions) -> np.ndarray:
    return np.arange(0.0, opts.horizon + 0.5 * opts.dt_out, opts.dt_out)


def _sample_range(t_grid: np.ndarray, lo: float, hi: float, last: bool) -> tuple[int, int]:
    """Output samples ``[start, stop)`` that belong to the piece ``[lo, hi)``;
    the last piece also takes the samples at (or rounded past) the horizon."""
    start = int(np.searchsorted(t_grid, lo - 1e-12))
    stop = len(t_grid) if last else int(np.searchsorted(t_grid, hi - 1e-12))
    return start, stop


# Both integrators step an action as scipy's ``RK45`` solver does: the
# Dormand-Prince 5(4) tableau of ``scipy.integrate.RK45``, the RMS error norm,
# scipy's step controller and ``select_initial_step`` at every piece, so
# rtol/atol keep their meaning. ``_dense_rows`` steps one action on
# plain floats; ``nadir_costs`` steps a batch as numpy lanes.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0      # scipy's RungeKutta
_ERR_EXP = -1.0 / (RK45.error_estimator_order + 1)

# The tableau as floats. Stage 2 carries no weight in B, E or P, and the
# interpolant's x**1 column is stage 1 alone (Dormand-Prince), so those
# terms are left out; ``_PjxN`` weighs stage j in the x**N column.
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65) = (RK45.A[s, :s].tolist() for s in range(1, 6))
_B1, _, _B3, _B4, _B5, _B6 = RK45.B.tolist()
_E1, _, _E3, _E4, _E5, _E6, _E7 = RK45.E.tolist()
(_P1x2, _P1x3, _P1x4), _, (_P3x2, _P3x3, _P3x4), (_P4x2, _P4x3, _P4x4), \
    (_P5x2, _P5x3, _P5x4), (_P6x2, _P6x3, _P6x4), (_P7x2, _P7x3, _P7x4) = \
    (row[1:] for row in RK45.P.tolist())


def _norm(values) -> float:
    """RMS over the 9 states, summed in state order."""
    return math.sqrt(sum([v * v for v in values])) / 3.0


def _initial_step(rhs, t, y, f, length, rtol, atol):
    """scipy's ``select_initial_step`` on floats."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _norm([v / s for v, s in zip(y, scale)])
    d1 = _norm([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    f1 = rhs(t + h0, [v + h0 * fv for v, fv in zip(y, f)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERR_EXP
    return min(100.0 * h0, h1, length)


def _dense_rows(model: TwoMachineModel, action: DfecAction | None, opts: SimOptions,
                width: int) -> array | None:
    """The first ``width`` state components at every output sample, row after
    row; ``None`` as soon as a sample shows loss of synchronism.

    Each piece between power steps is a fresh solver that starts from the
    previous piece's interpolant at the break. Samples are read off each
    accepted step's dense output.
    """
    t_grid = _output_grid(opts)
    t_out = t_grid.tolist()
    rtol, atol = opts.rtol, opts.atol
    pieces = _pieces(model, action, opts)
    y = model.equilibrium().tolist()
    rows = array("d")
    for n, (lo, hi, dp_active, p_motor) in enumerate(pieces):
        rhs = dfec_dynamics(model, dp_active, p_motor)
        k_start, k_end = _sample_range(t_grid, lo, hi, n == len(pieces) - 1)
        t_samples = np.clip(t_grid[k_start:k_end], lo, hi).tolist()
        t = lo
        f = rhs(t, y)
        h_abs = _initial_step(rhs, t, y, f, hi - lo, rtol, atol)
        while True:
            # One step (scipy's RungeKutta._step_impl).
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError("DFEC integration failed: required step "
                                         "size is less than spacing between numbers.")
                t_new = min(t + h_abs, hi)
                h = t_new - t
                k1 = f
                k2 = rhs(t, [y_ + (a * _A21) * h for y_, a in zip(y, k1)])
                k3 = rhs(t, [y_ + (a * _A31 + b * _A32) * h
                             for y_, a, b in zip(y, k1, k2)])
                k4 = rhs(t, [y_ + (a * _A41 + b * _A42 + c * _A43) * h
                             for y_, a, b, c in zip(y, k1, k2, k3)])
                k5 = rhs(t, [y_ + (a * _A51 + b * _A52 + c * _A53 + d * _A54) * h
                             for y_, a, b, c, d in zip(y, k1, k2, k3, k4)])
                k6 = rhs(t, [y_ + (a * _A61 + b * _A62 + c * _A63 + d * _A64
                                   + e * _A65) * h
                             for y_, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
                y_new = [y_ + h * (a * _B1 + c * _B3 + d * _B4 + e * _B5 + g * _B6)
                         for y_, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
                k7 = rhs(t_new, y_new)
                err = _norm([
                    (a * _E1 + c * _E3 + d * _E4 + e * _E5 + g * _E6 + q * _E7) * h
                    / (atol + (m0 if m0 > m1 else m1) * rtol)
                    for m0, m1, a, c, d, e, g, q
                    in zip(map(abs, y), map(abs, y_new), k1, k3, k4, k5, k6, k7)])
                if err < 1.0:
                    factor = _MAX_FACTOR if err == 0.0 else min(
                        _MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
                rejected = True

            # Dense output of the step, sampled onto the grid; at a break all
            # 9 components are needed to start the next piece.
            end = t_new >= hi
            k = len(rows) // width
            k_stop = k_end if end else bisect.bisect_right(t_out, t_new, k, k_end)
            if k_stop == k and not end:
                t, y, f = t_new, y_new, k7
                continue
            Q = [(a,
                  a * _P1x2 + c * _P3x2 + d * _P4x2 + e * _P5x2 + g * _P6x2 + q * _P7x2,
                  a * _P1x3 + c * _P3x3 + d * _P4x3 + e * _P5x3 + g * _P6x3 + q * _P7x3,
                  a * _P1x4 + c * _P3x4 + d * _P4x4 + e * _P5x4 + g * _P6x4 + q * _P7x4)
                 for a, c, d, e, g, q
                 in zip(*(col[:9 if end else width] for col in (k1, k3, k4, k5, k6, k7)))]
            for ts in t_samples[k - k_start:k_stop - k_start]:
                x = (ts - t) / h
                x2 = x * x
                x3 = x2 * x
                x4 = x3 * x
                row = [h * (q0 * x + q1 * x2 + q2 * x3 + q3 * x4) + y_
                       for (q0, q1, q2, q3), y_ in zip(Q[:width], y)]
                if abs(row[0] - row[2]) > _ANGLE_SLIP:
                    return None
                rows.extend(row)
            if end:
                y = [h * (((q0 + q1) + q2) + q3) + y_ for (q0, q1, q2, q3), y_ in zip(Q, y)]
                break
            t, y, f = t_new, y_new, k7
    return rows


def _trajectory(model, action, opts, width) -> DfecTrajectory:
    t = _output_grid(opts)
    rows = _dense_rows(model, action, opts, width)
    if rows is None:
        return DfecTrajectory(t=t, y=np.full((len(t), width), np.nan), unstable=True)
    return DfecTrajectory(t=t, y=np.frombuffer(rows).reshape(-1, width), unstable=False)


def simulate(model: TwoMachineModel, action: DfecAction | None, opts: SimOptions) -> DfecTrajectory:
    """Integrate the disturbance response, restarting at every power step."""
    return _trajectory(model, action, opts, 9)


def nadir_cost(model: TwoMachineModel, action: DfecAction | None, opts: SimOptions) -> float:
    """``w_ss - min((w1 + w2) / 2)``; +inf when the run loses synchronism.
    Only the angles and speeds are interpolated."""
    return _trajectory(model, action, opts, 4).summary(opts)[2]


# Lane-batched cost engine. Every lane follows the scalar step sequence.
# Stage sums are written out term by term in a fixed order (no BLAS, no axis
# reductions), so a lane's rounding, and with it its cost, does not depend on
# the batch it is in.
def _terms(coefs) -> tuple:
    return tuple((j, float(c)) for j, c in enumerate(coefs) if c != 0.0)


_A_TERMS = tuple(_terms(RK45.A[s, :s]) for s in range(1, RK45.n_stages))
_B_TERMS = _terms(RK45.B)
_E_TERMS = _terms(RK45.E)
# Interpolant coefficients of each stage that has any, as (power of x, 1, 1).
_P_TERMS = tuple((j, row[:, None, None]) for j, row in enumerate(RK45.P) if row.any())


def _combine(K, terms):
    """``sum(K[j] * c for j, c in terms)``, summed in ``terms`` order; ``c``
    may be an array that broadcasts against ``K[j]``."""
    (j, c), *rest = terms
    acc = K[j] * c
    for j, c in rest:
        acc = acc + K[j] * c
    return acc


def _rms(x):
    """RMS over the 9 state rows of ``x``, summed in row order."""
    sq = x * x
    acc = sq[0]
    for row in sq[1:]:
        acc = acc + row
    return np.sqrt(acc) / 3.0


def _lane_dynamics(model: TwoMachineModel):
    """``dfec_dynamics`` over lanes: ``rhs(y (9, n), dp_active (n,), p_motor (n,))``."""
    g = model.gov
    ws = model.omega_s
    p_sync = model.p_sync
    h1_2, h2_2 = 2.0 * model.h1, 2.0 * model.h2
    t2_over_t1 = g.t2 / g.t1
    blend2, blend3 = g.k2 * (1.0 - g.k3), g.k2 * g.k3
    lag_t56 = np.array([[g.t5], [g.t6]])

    def rhs(y, dp_active, p_motor):
        g1, g2, a1, a2, a3 = y[4:]
        dy = np.empty_like(y)
        speed_dev = y[1:4:2] - 1.0            # w1 - 1, w2 - 1
        dy[0:4:2] = ws * speed_dev
        u = speed_dev[0]
        pe = p_sync * np.sin(y[0] - y[2])
        dy[4] = (u - g1) / g.t1
        y1 = g1 + t2_over_t1 * (u - g1)
        dy[5] = (g.k1 * y1 - g2) / g.t3
        p_cmd = np.minimum(np.maximum(model.p_set - g2, g.p_min), g.p_max)
        dy[6] = (p_cmd - a1) / g.t4
        dy[7:9] = (y[6:8] - y[7:9]) / lag_t56   # (a1 - a2) / t5, (a2 - a3) / t6
        pm1 = (1.0 - g.k2) * a1 + blend2 * a2 + blend3 * a3
        dy[1] = (pm1 - (pe - dp_active) - model.d1 * u) / h1_2
        dy[3] = (pe - p_motor - model.d2 * speed_dev[1]) / h2_2
        return dy

    return rhs


class _Lanes:
    """Per-lane solver state of the active lanes, one column (or entry) each."""

    FIELDS = ("lane", "piece", "t", "y", "f", "h_abs", "rejected", "k_next",
              "lo", "hi", "dp_active", "p_motor", "k_end")

    def __init__(self, y0, n):
        self.lane = np.arange(n)
        self.piece = np.zeros(n, dtype=int)
        self.t = np.zeros(n)
        self.y = np.repeat(y0[:, None], n, axis=1)
        self.f = np.empty_like(self.y)
        self.rejected = np.zeros(n, dtype=bool)
        self.k_next = np.zeros(n, dtype=int)
        self.h_abs, self.lo, self.hi, self.dp_active, self.p_motor = np.empty((5, n))
        self.k_end = np.zeros(n, dtype=int)

    def keep(self, mask):
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[..., mask])


def nadir_costs(model: TwoMachineModel, actions, opts: SimOptions) -> np.ndarray:
    """``nadir_cost`` of every action (``None`` = uncontrolled), integrated
    together as numpy lanes.

    The state is held as a ``(9, lanes)`` array. Each lane keeps its own time,
    step size and piece, and restarts at its own power steps. Dense output is
    sampled onto the ``dt_out`` grid, where the loss-of-synchronism check
    runs; each lane keeps only the running minimum and tail sum of its
    average speed. A lane's cost is bit-identical whatever batch it is in and
    agrees with ``nadir_cost`` to rounding.
    """
    n = len(actions)
    rhs = _lane_dynamics(model)
    t_grid = _output_grid(opts)
    in_tail = t_grid >= opts.horizon - opts.ss_window

    # Piece table (lane, piece): bounds, power levels and end of its samples.
    plans = [_pieces(model, a, opts) for a in actions]
    n_pieces = np.array([len(p) for p in plans], dtype=int)
    table = np.zeros((5, n, max(n_pieces, default=0)))
    for i, plan in enumerate(plans):
        for k, (lo, hi, dp_active, p_motor) in enumerate(plan):
            k_end = _sample_range(t_grid, lo, hi, k == len(plan) - 1)[1]
            table[:, i, k] = lo, hi, dp_active, p_motor, k_end

    run_min = np.full(n, np.inf)
    tail_sum = np.zeros(n)
    unstable = np.zeros(n, dtype=bool)
    L = _Lanes(model.equilibrium(), n)

    def start_piece(idx):
        """Start lanes ``idx`` on their current piece as fresh solvers
        (scipy's ``select_initial_step``)."""
        lo, hi, dp_active, p_motor, k_end = table[:, L.lane[idx], L.piece[idx]]
        L.lo[idx], L.hi[idx], L.dp_active[idx], L.p_motor[idx] = lo, hi, dp_active, p_motor
        L.k_end[idx] = k_end
        y0 = L.y[:, idx]
        f0 = L.f[:, idx] = rhs(y0, dp_active, p_motor)
        length = hi - lo
        scale = opts.atol + np.abs(y0) * opts.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, length)
        d2 = _rms((rhs(y0 + h0 * f0, dp_active, p_motor) - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** -_ERR_EXP)
        L.h_abs[idx] = np.minimum(np.minimum(100.0 * h0, h1), length)
        L.rejected[idx] = False

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start_piece(slice(None))
        while len(L.lane):
            # One attempted step per lane (scipy's RungeKutta._step_impl).
            t, y, h_abs, rejected = L.t, L.y, L.h_abs, L.rejected
            min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
            tiny = h_abs < min_step
            if tiny.any():
                if np.any(rejected & tiny):
                    raise StiffnessError("DFEC integration failed: required step "
                                         "size is less than spacing between numbers.")
                h_abs = np.where(tiny, min_step, h_abs)
            t_new = np.minimum(t + h_abs, L.hi)
            h = t_new - t
            K = np.empty((RK45.n_stages + 1,) + y.shape)
            K[0] = L.f
            for s, terms in enumerate(_A_TERMS, start=1):
                K[s] = rhs(y + _combine(K, terms) * h, L.dp_active, L.p_motor)
            y_new = y + h * _combine(K, _B_TERMS)
            K[-1] = rhs(y_new, L.dp_active, L.p_motor)
            scale = opts.atol + np.maximum(np.abs(y), np.abs(y_new)) * opts.rtol
            err = _rms(_combine(K, _E_TERMS) * h / scale)
            grow = _SAFETY * err ** _ERR_EXP
            accept = err < 1.0
            factor = np.where(err == 0.0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, grow))
            factor = np.where(rejected, np.minimum(1.0, factor), factor)
            shrink = np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR)   # NaN shrinks
            L.h_abs = h * np.where(accept, factor, shrink)
            L.rejected = ~accept
            if not accept.any():
                continue

            # Dense output of the accepted steps, sampled onto the grid.
            done = accept & (t_new >= L.hi)
            k_stop = np.where(done, L.k_end, np.minimum(
                np.searchsorted(t_grid, t_new, "right"), L.k_end))
            count = np.where(accept, k_stop - L.k_next, 0)
            Q = _combine(K, _P_TERMS)               # (power of x, state, lane)
            if count.any():
                src = np.repeat(np.arange(len(count)), count)
                ks = np.arange(len(src)) + np.repeat(L.k_next - (np.cumsum(count) - count), count)
                ts = np.minimum(np.maximum(t_grid[ks], L.lo[src]), L.hi[src])
                x = (ts - t[src]) / h[src]
                x2 = x * x
                x3 = x2 * x
                Qs = Q[:, :4, src]
                ys = h[src] * (Qs[0] * x + Qs[1] * x2 + Qs[2] * x3 + Qs[3] * (x3 * x)) \
                    + y[:4, src]
                avg = 0.5 * (ys[1] + ys[3])
                lane = L.lane[src]
                np.minimum.at(run_min, lane, avg)
                tail = in_tail[ks]
                np.add.at(tail_sum, lane[tail], avg[tail])
                unstable[lane[np.abs(ys[0] - ys[2]) > _ANGLE_SLIP]] = True
                L.k_next = L.k_next + count

            L.t = np.where(accept, t_new, t)
            L.y = np.where(accept, y_new, y)
            L.f = np.where(accept, K[-1], L.f)
            if done.any():
                # The next piece starts from the interpolant at the break.
                L.y[:, done] = h[done] * (((Q[0] + Q[1]) + Q[2]) + Q[3])[:, done] + y[:, done]
                L.piece = L.piece + done
            finished = (L.piece >= n_pieces[L.lane]) | unstable[L.lane]
            if finished.any():
                L.keep(~finished)
                done = done[~finished]
            if done.any():
                start_piece(np.flatnonzero(done))

    costs = np.full(n, INSTABILITY_COST)
    stable = ~unstable
    costs[stable] = tail_sum[stable] / int(in_tail.sum()) - run_min[stable]
    return costs


def steady_state_speed(model: TwoMachineModel, opts: SimOptions) -> float:
    return simulate(model, None, opts).summary(opts)[0]


@dataclass(frozen=True)
class ActionBounds:
    dp_max: float = 0.25
    t_on_max: float = 10.0
    t_off_max: float = 40.0


def optimize_action(
    model: TwoMachineModel,
    bounds: ActionBounds,
    opts: SimOptions,
    initial_guess: DfecAction | None = None,
    grid_starts: int = 5,
    refine_starts: int = 3,
) -> DfecResult:
    """Derivative-free search for the best injection block.

    The cost comes from an event-driven simulation with a nonsmooth ``min``,
    so a penalized Nelder-Mead simplex is run from the best points of a
    coarse ``grid_starts^3`` scan (variables scaled to the unit cube; the
    window is parameterized as ``(dp, t_on, length)`` so ``t_on < t_off``
    holds by construction).
    """
    _, nadir0, uncontrolled = simulate(model, None, opts).summary(opts)

    def unpack(v):
        dp = float(np.clip(v[0], 0.0, 1.0)) * bounds.dp_max
        t_on = float(np.clip(v[1], 0.0, 1.0)) * bounds.t_on_max
        length = float(np.clip(v[2], 1e-3, 1.0)) * (bounds.t_off_max - t_on)
        return dp, t_on, t_on + max(length, 1e-3)

    def penalty(v):
        return float(np.sum(np.clip(np.abs(v - 0.5) - 0.5, 0.0, None) ** 2)) * 10.0

    def cost_of(v):
        dp, t_on, t_off = unpack(v)
        if dp <= 0.0:
            return uncontrolled + penalty(v)
        return nadir_cost(model, DfecAction(dp, t_on, t_off), opts) + penalty(v)

    starts = []
    if initial_guess is not None:
        starts.append(np.array([
            initial_guess.dp / bounds.dp_max,
            initial_guess.t_on / bounds.t_on_max,
            (initial_guess.t_off - initial_guess.t_on)
            / max(bounds.t_off_max - initial_guess.t_on, 1e-9),
        ]))
    grid = (np.arange(grid_starts) + 0.5) / grid_starts
    starts += [np.array([gd, gon, glen]) for gd in grid for gon in grid for glen in grid]

    # The start scan is one batch of independent evaluations.
    windows = [unpack(v) for v in starts]
    lanes = [k for k, (dp, _, _) in enumerate(windows) if dp > 0.0]
    scanned = nadir_costs(model, [DfecAction(*windows[k]) for k in lanes], opts)
    costs = [uncontrolled + penalty(v) for v in starts]
    for k, c in zip(lanes, scanned):
        costs[k] = float(c) + penalty(starts[k])
    candidates = list(zip(starts, costs))

    finite = [(v, c) for v, c in candidates if np.isfinite(c)]
    if not finite:
        raise OptimizationError("all optimizer starts diverged", history=candidates)
    finite.sort(key=lambda vc: vc[1])

    history = []
    best_v, best_c = finite[0]
    for v0, c0 in finite[:refine_starts]:
        res = minimize(
            cost_of, v0, method="Nelder-Mead",
            options={"xatol": 1e-3, "fatol": 1e-9, "maxiter": 400},
        )
        history.append((unpack(res.x), float(res.fun)))
        if res.fun < best_c:
            best_v, best_c = res.x, float(res.fun)

    dp, t_on, t_off = unpack(best_v)
    if best_c > uncontrolled:
        # dp = 0 is always feasible; never return something worse.
        dp, t_on, t_off, best_c = 0.0, 0.0, 1e-3, uncontrolled
    action = DfecAction(dp, max(t_on, 0.0), t_off)
    nadir_c = simulate(model, action if dp > 0 else None, opts).summary(opts)[1]
    return DfecResult(
        action=action,
        cost=best_c,
        uncontrolled_cost=uncontrolled,
        uncontrolled_nadir=nadir0,
        controlled_nadir=nadir_c,
        history=tuple(history),
    )


def contour_sweep(
    model: TwoMachineModel,
    dp: float,
    t_on_values: np.ndarray,
    t_off_values: np.ndarray,
    opts: SimOptions,
) -> np.ndarray:
    """Cost grid (scaled by 1000) over switch-on/switch-off times.

    Cells with ``t_on >= t_off`` carry NaN. Rows follow ``t_on_values``,
    columns ``t_off_values``. All valid cells are integrated as one batch of
    ``nadir_costs`` lanes; a cell's value does not depend on the grid it
    belongs to.
    """
    t_on_values = np.asarray(t_on_values, dtype=float)
    t_off_values = np.asarray(t_off_values, dtype=float)
    grid = np.full((len(t_on_values), len(t_off_values)), np.nan)
    rows, cols = np.nonzero(t_on_values[:, None] < t_off_values[None, :])
    actions = [DfecAction(dp, t_on_values[i], t_off_values[j]) for i, j in zip(rows, cols)]
    grid[rows, cols] = 1000.0 * nadir_costs(model, actions, opts)
    return grid


def sweep_to_csv(path, t_on_values, t_off_values, grid) -> None:
    """Header row/column carry the grid values; NaN cells are left empty."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_on\\t_off"] + [f"{v:.6f}" for v in t_off_values])
        for i, t_on in enumerate(t_on_values):
            row = [f"{t_on:.6f}"]
            row += ["" if np.isnan(v) else f"{v:.6f}" for v in grid[i]]
            writer.writerow(row)
