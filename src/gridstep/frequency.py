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
import cmath
import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .derivative import value_and_slope
from .errors import DimensionError, OptimizationError, StiffnessError
from .fileio import require_grid

INSTABILITY_COST = float("inf")
NO_STEADY_STATE = "the frequency does not settle: no stable speed balances the final load"
_ANGLE_SLIP = math.pi  # |delta1 - delta2| beyond this flags loss of synchronism
_MAX_MODE_COND = 1e8   # an eigenvector basis worse conditioned than this bounds nothing
# RK45 takes about ``horizon * max |lambda|`` steps on this model (1540 for a
# bundled 100 s run, max |lambda| = 16.1 1/s); a run that would take more than
# this many, a minute or more, is refused before it starts.
_MAX_STEPS = 10**6


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
        for name in ("e1", "e2", "x", "h1", "h2", "omega_s"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DimensionError(f"model.{name} must be finite and > 0")
        for name, value in (("governor.k1", self.gov.k1), ("model.d1", self.d1),
                            ("model.d2", self.d2)):   # keep the balance monotone
            if value < 0.0:
                raise DimensionError(f"{name} must be >= 0")
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
    """An injection block; the fields are stored as Python floats, so a run
    of an action made from numpy scalars steps on floats too."""

    dp: float
    t_on: float
    t_off: float

    def __post_init__(self):
        for name in ("dp", "t_on", "t_off"):
            object.__setattr__(self, name, float(getattr(self, name)))
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
    disturbance: float = 0.25   # motor mechanical power step, pu
    t_disturbance: float = 0.0

    def __post_init__(self):
        for name in ("horizon", "dt_out", "rtol", "atol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DimensionError(f"sim.{name} must be finite and > 0")
        require_grid(self.horizon, self.dt_out, "sim.horizon", "sim.dt_out")


@dataclass(frozen=True)
class DfecResult:
    action: DfecAction
    cost: float
    uncontrolled_cost: float
    uncontrolled_nadir: float   # 1 - min average speed, pu
    controlled_nadir: float
    history: tuple = ()
    # How the surrogate steered the search (see ``optimize_action``): the
    # step-response amplitude, the polish's start point with its surrogate
    # and nonlinear costs, and the count of nonlinear cost evaluations.
    dp_ref: float = math.nan
    start: tuple = ()
    start_surrogate_cost: float = math.nan
    start_cost: float = math.nan
    nonlinear_evals: int = 0

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
            "surrogate": {
                "dp_ref": self.dp_ref,
                "start": list(map(float, self.start)),
                "start_cost": self.start_surrogate_cost,
                "start_nonlinear_cost": self.start_cost,
                "gap": self.start_cost - self.start_surrogate_cost,
            },
            "nonlinear_evals": self.nonlinear_evals,
        }


def dfec_dynamics(model: TwoMachineModel, dp_active, p_motor,
                  sin=math.sin, maximum=max, minimum=min):
    """Right-hand side for one continuous piece (fixed injection and load):
    ``rhs(d1, w1, d2, w2, g1, g2, a1, a2, a3)`` returns the 9 derivatives
    as a tuple, in state order.

    With numpy's ``sin``, ``maximum`` and ``minimum`` the same rule steps
    numpy lanes, called as ``rhs(*y)`` with ``y`` of shape ``(9, lanes)``
    and ``dp_active``/``p_motor`` of shape ``(lanes,)``; every lane sees the
    float rule's operations in its order."""
    g = model.gov
    ws, p_sync, p_set = model.omega_s, model.p_sync, model.p_set
    damp1, damp2 = model.d1, model.d2
    h1_2, h2_2 = 2.0 * model.h1, 2.0 * model.h2
    k1, t1, t3, t4, t5, t6 = g.k1, g.t1, g.t3, g.t4, g.t5, g.t6
    t2_over_t1 = g.t2 / g.t1
    p_min, p_max = g.p_min, g.p_max
    blend1, blend2, blend3 = 1.0 - g.k2, g.k2 * (1.0 - g.k3), g.k2 * g.k3

    def rhs(d1, w1, d2, w2, g1, g2, a1, a2, a3):
        pe = p_sync * sin(d1 - d2)
        u = w1 - 1.0
        y1 = g1 + t2_over_t1 * (u - g1)
        p_cmd = minimum(maximum(p_set - g2, p_min), p_max)
        pm1 = blend1 * a1 + blend2 * a2 + blend3 * a3
        return (ws * u, (pm1 - (pe - dp_active) - damp1 * u) / h1_2,
                ws * (w2 - 1.0), (pe - p_motor - damp2 * (w2 - 1.0)) / h2_2,
                (u - g1) / t1, (k1 * y1 - g2) / t3,
                (p_cmd - a1) / t4, (a1 - a2) / t5, (a2 - a3) / t6)

    return rhs


def steady_speed(model: TwoMachineModel, dp_active: float, p_motor: float) -> float:
    """Average speed ``1 + u*`` at which a piece with fixed injection and
    motor load settles (NaN if none): at rest the turbine delivers the
    governor's command, so the swing equations add up to the droop balance
    ``clip(p_set - k1 u, p_min, p_max) + dp_active - p_motor - (d1 + d2) u = 0``
    (Anderson & Mirheydar, IEEE Trans. Power Syst. 5(3), 1990), nonincreasing
    and linear per branch. Its root is on the unclamped branch unless the
    command there is beyond a limit; then only damping balances the load.
    There is no steady state either when no machine angle carries the motor
    load at that speed, or when the equilibrium is unstable (an eigenvalue of
    its Jacobian with ``Re >= 0``: the governor loop rings on around it)."""
    return _settling(model, dp_active, p_motor).w_ss


# The angles enter the dynamics only through their difference, so the
# linearization lives in the reduced state z = (d1 - d2, w1, w2, g1, g2, a1,
# a2, a3): the state's rows ``_REDUCED`` with d2 taken off the first.
_REDUCED = [0, 1, 3, 4, 5, 6, 7, 8]
# Rows c of the excursions ``_settled`` bounds: the average speed, the angle
# difference and g2, the governor command's only input.
_WATCHED = np.array([[0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
                     [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class _Settling:
    """Where a piece with fixed injection and load comes to rest, and the
    modal bound of its linearization there.

    ``w_ss`` is ``steady_speed`` and ``fastest`` the largest ``|lambda|`` of
    the Jacobian there (NaN if there is no equilibrium). Where the bound
    applies (a stable equilibrium ``z_eq`` with the governor command strictly
    inside its limits and a well-conditioned eigenvector basis ``V`` of the
    Jacobian), ``inv_v`` holds ``V^-1`` and ``weights`` ``|C V|`` for the rows
    ``_WATCHED``; the rooms are how far the angle difference may move before
    it slips and the command before it meets a limit. Elsewhere ``inv_v`` is
    None."""

    w_ss: float
    fastest: float = math.nan
    z_eq: np.ndarray | None = None
    inv_v: np.ndarray | None = None
    weights: np.ndarray | None = None
    angle_room: float = 0.0
    command_room: float = 0.0


def _jacobian(model: TwoMachineModel, dp_active: float, p_motor: float, y) -> np.ndarray:
    """Jacobian of ``dfec_dynamics`` in the reduced state at the state ``y``
    (9 floats), one complex step per reduced coordinate (the angle difference
    steps ``d1``). The limiter compares real parts, so its slope comes out 1
    inside the governor limits and 0 on or beyond one."""
    rhs = dfec_dynamics(model, dp_active, p_motor, cmath.sin,
                        lambda a, b: a if a.real > b.real else b,
                        lambda a, b: a if a.real < b.real else b)

    def rate(k, v):     # the reduced state's rates with y[k] set to v
        r = rhs(*y[:k], v, *y[k + 1:])
        return np.array([r[0] - r[2], r[1], *r[3:]])

    return np.column_stack([value_and_slope(lambda v: rate(k, v), y[k])[1] for k in _REDUCED])


@functools.lru_cache(maxsize=1024)
def _settling(model: TwoMachineModel, dp_active: float, p_motor: float) -> _Settling:
    """``_Settling`` of a piece; cached, as every run and surrogate cost with
    the same final piece asks for the same one."""
    g, damping = model.gov, model.d1 + model.d2
    surplus = dp_active - p_motor
    if g.k1 + damping == 0.0:
        return _Settling(math.nan)
    u = (model.p_set + surplus) / (g.k1 + damping)
    command = model.p_set - g.k1 * u
    inside = g.p_min < command < g.p_max
    if not g.p_min <= command <= g.p_max:
        if damping == 0.0:
            return _Settling(math.nan)
        command = min(max(command, g.p_min), g.p_max)
        u = (command + surplus) / damping
    load = (p_motor + model.d2 * u) / model.p_sync   # sin of the angle difference
    if not -1.0 < load < 1.0:
        return _Settling(math.nan)
    angle = math.asin(load)
    y_eq = (angle, 1.0 + u, 0.0, 1.0 + u, u, g.k1 * u, command, command, command)
    jac = _jacobian(model, dp_active, p_motor, y_eq)
    if not np.isfinite(jac).all():
        return _Settling(math.nan)
    try:
        lam, v = np.linalg.eig(jac)
    except np.linalg.LinAlgError:
        return _Settling(math.nan)
    fastest = float(np.abs(lam).max())
    if not lam.real.max() < 0.0:
        return _Settling(math.nan, fastest)
    if not inside or not np.linalg.cond(v) <= _MAX_MODE_COND:
        return _Settling(1.0 + u, fastest)
    return _Settling(1.0 + u, fastest, np.array(y_eq)[_REDUCED], np.linalg.inv(v),
                     np.abs(_WATCHED @ v), _ANGLE_SLIP - abs(angle),
                     min(command - g.p_min, g.p_max - command))


def _require_steps(settling: _Settling, opts: SimOptions) -> None:
    """Raise :class:`StiffnessError` for a run that would take more than
    ``_MAX_STEPS`` steps."""
    steps = settling.fastest * opts.horizon
    if steps > _MAX_STEPS:
        raise StiffnessError(f"DFEC integration would take about {steps:.2g} steps, more "
                             f"than {_MAX_STEPS}: the model's fastest mode has |lambda| = "
                             f"{settling.fastest:.3g} 1/s")


def _settled(settling: _Settling, y, low):
    """Whether a run of the piece ``settling`` describes, now at the state
    ``y`` (9 numbers, or ``(9, lanes)`` with ``low`` one per lane) and whose
    lowest average speed so far is ``low``, can neither set a new minimum
    nor slip later.

    With every ``Re lambda < 0``, ``|c (z(t) - z*)|`` stays below
    ``B_c = sum_i |(c V)_i (V^-1 (z - z*))_i|`` for all later ``t`` on the
    linearization (Khalil, Nonlinear Systems, 3rd ed., sec. 4.3). The run has
    settled once ``B_c`` fits in the room below ``w_ss`` down to ``low``,
    before a slip, and inside the governor limits (where the linearization
    holds)."""
    if settling.inv_v is None:
        return False
    room = settling.w_ss - low
    # B_c is at least the excursion now, |c (z - z*)|: a run whose average
    # speed is still that far off has not settled (a cheap first test).
    near = abs(0.5 * (y[1] + y[3]) - settling.w_ss) < room
    if near is False:
        return False
    y = np.asarray(y)
    e = y[_REDUCED] - settling.z_eq.reshape((8,) + (1,) * (y.ndim - 1))
    e[0] -= y[2]
    speed, angle, command = settling.weights @ np.abs(settling.inv_v @ e)
    return (near & (speed < room) & (angle < settling.angle_room)
            & (command < settling.command_room))


def _speed_summary(w_ss, low):
    """``(w_ss, 1 - low, w_ss - low)`` from the steady and the lowest average
    speed (numbers, or one per lane); the cost is ``INSTABILITY_COST`` where
    there is no steady state (``w_ss`` NaN)."""
    cost = np.where(np.isnan(w_ss), INSTABILITY_COST, w_ss - low)
    return w_ss, 1.0 - low, cost[()]     # [()]: a number for number inputs


@dataclass
class DfecTrajectory:
    t: np.ndarray
    y: np.ndarray          # (n, 9) at every output sample; all NaN if unstable
    unstable: bool
    w_ss: float            # ``steady_speed`` of the last piece

    @property
    def avg_speed(self) -> np.ndarray:
        return 0.5 * (self.y[:, 1] + self.y[:, 3])

    def summary(self) -> tuple[float, float, float]:
        """``(w_ss, nadir, cost)`` (see ``_speed_summary``); an unstable run
        gives ``(nan, nan, inf)``."""
        if self.unstable:
            return math.nan, math.nan, INSTABILITY_COST
        return _speed_summary(self.w_ss, float(self.avg_speed.min()))


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


def _dips(t_grid: np.ndarray, avg: np.ndarray, pieces) -> np.ndarray:
    """The lowest average speed ``avg`` (sampled on ``t_grid``) before the
    last of ``pieces`` starts (``_sample_range``; at least the first sample)
    and from there on: the disturbance's and the switch-off's dip. A cost
    run keeps the same two minima as it steps (``_dense_rows``)."""
    k = _sample_range(t_grid, *pieces[-1][:2], True)[0]
    return np.array([avg[:max(k, 1)].min(), avg[k:].min()])


def _output_grid(opts: SimOptions) -> np.ndarray:
    return np.arange(0.0, opts.horizon + 0.5 * opts.dt_out, opts.dt_out)


def _sample_range(t_grid: np.ndarray, lo: float, hi: float, last: bool) -> tuple[int, int]:
    """Output samples ``[start, stop)`` that belong to the piece ``[lo, hi)``;
    the last piece also takes the samples at (or rounded past) the horizon."""
    start = int(np.searchsorted(t_grid, lo - 1e-12))
    stop = len(t_grid) if last else int(np.searchsorted(t_grid, hi - 1e-12))
    return start, stop


# Both integrators step an action as scipy's ``RK45`` solver does (its
# tableau, RMS error norm, step controller and ``select_initial_step`` at
# every piece), so rtol/atol keep their meaning. ``_dense_rows`` steps one
# action on plain floats; ``nadir_costs`` steps a batch's shared histories on
# it and the last pieces as numpy lanes, bit for bit the float loop's. Each
# is the only fast loop for its work (README, "Numerical defaults").
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0      # scipy's RungeKutta
_ERR_EXP = -1 / 5                                       # -1 / (error order 4 + 1)
# A first step guess ``h0`` of zero or NaN means the state derivative overflowed;
# stepping on would divide by zero or loop on a NaN step the min-step rule passes.
_NO_INITIAL_STEP = ("DFEC integration failed: the state derivative is not finite, "
                    "so no initial step size exists.")

# The tableau, written as scipy's ``RK45.A``, ``B``, ``E`` and ``P`` write it
# (so the floats are the same). Stage 2 carries no weight in B, E or P, and the
# interpolant's x**1 column is stage 1 alone (Dormand-Prince), so those
# terms are left out; ``_PjxN`` weighs stage j in the x**N column.
_A21 = 1/5
_A31, _A32 = 3/40, 9/40
_A41, _A42, _A43 = 44/45, -56/15, 32/9
_A51, _A52, _A53, _A54 = 19372/6561, -25360/2187, 64448/6561, -212/729
_A61, _A62, _A63, _A64, _A65 = 9017/3168, -355/33, 46732/5247, 49/176, -5103/18656
_B1, _B3, _B4, _B5, _B6 = 35/384, 500/1113, 125/192, -2187/6784, 11/84
_E1, _E3, _E4, _E5, _E6, _E7 = -71/57600, 71/16695, -71/1920, 17253/339200, -22/525, 1/40
_P1x2, _P1x3, _P1x4 = -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432
_P3x2, _P3x3, _P3x4 = (131558114200/32700410799, -68118460800/10900136933,
                       87487479700/32700410799)
_P4x2, _P4x3, _P4x4 = (-1754552775/470086768, 14199869525/1410260304,
                       -10690763975/1880347072)
_P5x2, _P5x3, _P5x4 = (127303824393/49829197408, -318862633887/49829197408,
                       701980252875/199316789632)
_P6x2, _P6x3, _P6x4 = -282668133/205662961, 2019193451/616988883, -1453857185/822651844
_P7x2, _P7x3, _P7x4 = 40617522/29380423, -110615467/29380423, 69997945/29380423


def _norm(values) -> float:
    """RMS over the 9 states, summed left to right in state order, as the
    step and the lanes sum it (``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / 3.0


def _initial_step(rhs, y, f, length, rtol, atol):
    """scipy's ``select_initial_step`` on floats."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _norm([v / s for v, s in zip(y, scale)])
    d1 = _norm([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    if not h0 > 0.0:
        raise StiffnessError(_NO_INITIAL_STEP)
    f1 = rhs(*[v + h0 * fv for v, fv in zip(y, f)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERR_EXP
    return min(100.0 * h0, h1, length)


class _Prefix:
    """Solver states of one piece of a recording run, kept for later runs of
    the same model and options whose history up to that piece is the same.

    After each accepted step of the piece, the recording run keeps the
    farthest time any of its attempts has aimed at (``reach``) and the next
    step's start ``(t, y, f, h_abs, low, count)``: derivative ``f`` (first
    same as last), step size, lowest average speed and the count of output
    samples so far; ``states`` keeps them flat, 22 numbers each, until
    ``reach`` gets to ``bound``, the piece's break or its next piece's first
    sample. A later run whose pieces before this one are the recording
    run's, and whose piece starts with the same injection, load and initial
    step, attempts the same steps, bit for bit, up to the first attempt that
    aims at its own break or past a sample that belongs to its next piece."""

    def __init__(self, bound: float):
        self.bound = bound
        self.reach: list[float] = []
        self.states = array("d")

    def resume(self, bound):
        """The last state kept before the first attempt that aims at
        ``bound`` (from there on a run's attempts differ from the recording
        run's); ``None`` where no state applies."""
        n = bisect.bisect_left(self.reach, bound)
        return self.state(n - 1) if n else None

    def state(self, k: int) -> tuple:
        """The ``k``-th state kept, ``(t, y, f, h_abs, low, count)``."""
        s = self.states[22 * k:22 * k + 22]
        return s[0], tuple(s[1:10]), tuple(s[10:19]), s[19], s[20], int(s[21])


def _dense_rows(model: TwoMachineModel, pieces, opts: SimOptions,
                settling: _Settling | None = None, shared: dict | None = None,
                hand_off: bool = False):
    """The run through ``pieces``; ``None`` once an output sample shows loss
    of synchronism. A cost run (``settling``, the last piece's, given) keeps
    no rows and returns its two ``_dips``, its running minima: the lowest
    average speed before the last piece starts (that start's average where
    no sample precedes it) and the lowest in the last piece, up to the
    first accepted step from which the run has ``_settled`` on it. A
    ``hand_off`` run returns its last piece's start ``(y, f, h_abs, low,
    count)``; any other run all 9 state components at every output sample.

    Each piece between power steps is a fresh solver that starts from the
    previous piece's interpolant at the break. Samples are read off each
    accepted step's dense output. ``shared`` maps a piece start (the pieces
    before it, its injection, load and initial step) to the ``_Prefix`` a
    run on the same model and options recorded there. A cost or hand-off
    run starts a piece that is not its last from the last state it shares
    with that run. A piece not in ``shared`` gets a ``_Prefix``, but for a
    cost run's last piece, whose lowest speed restarts.

    The step is written out over nine float locals per vector: the state
    ``y0..y8``, the stages ``a, b, c, d, e, g, q`` (``k1 .. k7``; ``a`` is
    the derivative at the step's start), the solution ``z``, the scaled error
    ``r`` and the interpolant's ``x**2 .. x**4`` columns ``p2, p3, p4``. Sums
    keep the tableau's term order: the run is the 9-element-list step's.
    """
    t_grid = _output_grid(opts)
    t_out = t_grid.tolist()
    rtol, atol = opts.rtol, opts.atol
    y0, y1, y2, y3, y4, y5, y6, y7, y8 = model.equilibrium().tolist()
    rows = array("d") if settling is None and not hand_off else None
    low = math.inf          # lowest average speed sampled so far
    k = 0                   # samples taken so far
    for n, (lo, hi, dp_active, p_motor) in enumerate(pieces):
        last = n == len(pieces) - 1
        watch = settling if last else None
        if watch is not None:   # the stop certifies the last piece's own dip
            first, low = low if k else 0.5 * (y1 + y3), math.inf
        rhs = dfec_dynamics(model, dp_active, p_motor)
        t = lo
        f = rhs(y0, y1, y2, y3, y4, y5, y6, y7, y8)
        h_abs = _initial_step(rhs, (y0, y1, y2, y3, y4, y5, y6, y7, y8), f, hi - lo,
                              rtol, atol)
        if last and hand_off:
            return (y0, y1, y2, y3, y4, y5, y6, y7, y8), f, h_abs, low, k
        k_start, k_end = _sample_range(t_grid, lo, hi, last)
        t_samples = np.clip(t_grid[k_start:k_end], lo, hi).tolist()
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = f
        record = None
        if shared is not None:
            # Attempts that aim at the break or past the next piece's first
            # sample differ from those of a run with a later break.
            bound = min(hi, t_out[k_end]) if k_end < len(t_out) else hi
            key = (tuple(pieces[:n]), lo, dp_active, p_motor, h_abs)
            prefix = shared.get(key)
            if prefix is None and watch is None:
                record = shared[key] = _Prefix(bound)
                reach = -math.inf
            elif prefix is not None and rows is None and not last:
                state = prefix.resume(bound)
                if state is not None:
                    t, (y0, y1, y2, y3, y4, y5, y6, y7, y8), f, h_abs, low, k = state
                    a0, a1, a2, a3, a4, a5, a6, a7, a8 = f
        recording = record is not None
        while True:
            # One step (scipy's RungeKutta._step_impl).
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            if recording:       # a retried attempt aims short of the first one
                reach = max(reach, t + h_abs)
                recording = reach < record.bound
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError("DFEC integration failed: required step "
                                         "size is less than spacing between numbers.")
                t_new = min(t + h_abs, hi)
                h = t_new - t
                b0, b1, b2, b3, b4, b5, b6, b7, b8 = rhs(
                    y0 + (a0 * _A21) * h,
                    y1 + (a1 * _A21) * h,
                    y2 + (a2 * _A21) * h,
                    y3 + (a3 * _A21) * h,
                    y4 + (a4 * _A21) * h,
                    y5 + (a5 * _A21) * h,
                    y6 + (a6 * _A21) * h,
                    y7 + (a7 * _A21) * h,
                    y8 + (a8 * _A21) * h)
                c0, c1, c2, c3, c4, c5, c6, c7, c8 = rhs(
                    y0 + (a0 * _A31 + b0 * _A32) * h,
                    y1 + (a1 * _A31 + b1 * _A32) * h,
                    y2 + (a2 * _A31 + b2 * _A32) * h,
                    y3 + (a3 * _A31 + b3 * _A32) * h,
                    y4 + (a4 * _A31 + b4 * _A32) * h,
                    y5 + (a5 * _A31 + b5 * _A32) * h,
                    y6 + (a6 * _A31 + b6 * _A32) * h,
                    y7 + (a7 * _A31 + b7 * _A32) * h,
                    y8 + (a8 * _A31 + b8 * _A32) * h)
                d0, d1, d2, d3, d4, d5, d6, d7, d8 = rhs(
                    y0 + (a0 * _A41 + b0 * _A42 + c0 * _A43) * h,
                    y1 + (a1 * _A41 + b1 * _A42 + c1 * _A43) * h,
                    y2 + (a2 * _A41 + b2 * _A42 + c2 * _A43) * h,
                    y3 + (a3 * _A41 + b3 * _A42 + c3 * _A43) * h,
                    y4 + (a4 * _A41 + b4 * _A42 + c4 * _A43) * h,
                    y5 + (a5 * _A41 + b5 * _A42 + c5 * _A43) * h,
                    y6 + (a6 * _A41 + b6 * _A42 + c6 * _A43) * h,
                    y7 + (a7 * _A41 + b7 * _A42 + c7 * _A43) * h,
                    y8 + (a8 * _A41 + b8 * _A42 + c8 * _A43) * h)
                e0, e1, e2, e3, e4, e5, e6, e7, e8 = rhs(
                    y0 + (a0 * _A51 + b0 * _A52 + c0 * _A53 + d0 * _A54) * h,
                    y1 + (a1 * _A51 + b1 * _A52 + c1 * _A53 + d1 * _A54) * h,
                    y2 + (a2 * _A51 + b2 * _A52 + c2 * _A53 + d2 * _A54) * h,
                    y3 + (a3 * _A51 + b3 * _A52 + c3 * _A53 + d3 * _A54) * h,
                    y4 + (a4 * _A51 + b4 * _A52 + c4 * _A53 + d4 * _A54) * h,
                    y5 + (a5 * _A51 + b5 * _A52 + c5 * _A53 + d5 * _A54) * h,
                    y6 + (a6 * _A51 + b6 * _A52 + c6 * _A53 + d6 * _A54) * h,
                    y7 + (a7 * _A51 + b7 * _A52 + c7 * _A53 + d7 * _A54) * h,
                    y8 + (a8 * _A51 + b8 * _A52 + c8 * _A53 + d8 * _A54) * h)
                g0, g1, g2, g3, g4, g5, g6, g7, g8 = rhs(
                    y0 + (a0 * _A61 + b0 * _A62 + c0 * _A63 + d0 * _A64 + e0 * _A65) * h,
                    y1 + (a1 * _A61 + b1 * _A62 + c1 * _A63 + d1 * _A64 + e1 * _A65) * h,
                    y2 + (a2 * _A61 + b2 * _A62 + c2 * _A63 + d2 * _A64 + e2 * _A65) * h,
                    y3 + (a3 * _A61 + b3 * _A62 + c3 * _A63 + d3 * _A64 + e3 * _A65) * h,
                    y4 + (a4 * _A61 + b4 * _A62 + c4 * _A63 + d4 * _A64 + e4 * _A65) * h,
                    y5 + (a5 * _A61 + b5 * _A62 + c5 * _A63 + d5 * _A64 + e5 * _A65) * h,
                    y6 + (a6 * _A61 + b6 * _A62 + c6 * _A63 + d6 * _A64 + e6 * _A65) * h,
                    y7 + (a7 * _A61 + b7 * _A62 + c7 * _A63 + d7 * _A64 + e7 * _A65) * h,
                    y8 + (a8 * _A61 + b8 * _A62 + c8 * _A63 + d8 * _A64 + e8 * _A65) * h)
                z0 = y0 + h * (a0 * _B1 + c0 * _B3 + d0 * _B4 + e0 * _B5 + g0 * _B6)
                z1 = y1 + h * (a1 * _B1 + c1 * _B3 + d1 * _B4 + e1 * _B5 + g1 * _B6)
                z2 = y2 + h * (a2 * _B1 + c2 * _B3 + d2 * _B4 + e2 * _B5 + g2 * _B6)
                z3 = y3 + h * (a3 * _B1 + c3 * _B3 + d3 * _B4 + e3 * _B5 + g3 * _B6)
                z4 = y4 + h * (a4 * _B1 + c4 * _B3 + d4 * _B4 + e4 * _B5 + g4 * _B6)
                z5 = y5 + h * (a5 * _B1 + c5 * _B3 + d5 * _B4 + e5 * _B5 + g5 * _B6)
                z6 = y6 + h * (a6 * _B1 + c6 * _B3 + d6 * _B4 + e6 * _B5 + g6 * _B6)
                z7 = y7 + h * (a7 * _B1 + c7 * _B3 + d7 * _B4 + e7 * _B5 + g7 * _B6)
                z8 = y8 + h * (a8 * _B1 + c8 * _B3 + d8 * _B4 + e8 * _B5 + g8 * _B6)
                k7 = rhs(z0, z1, z2, z3, z4, z5, z6, z7, z8)
                q0, q1, q2, q3, q4, q5, q6, q7, q8 = k7
                m0, m1 = abs(y0), abs(z0)
                r0 = ((a0 * _E1 + c0 * _E3 + d0 * _E4 + e0 * _E5 + g0 * _E6 + q0 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y1), abs(z1)
                r1 = ((a1 * _E1 + c1 * _E3 + d1 * _E4 + e1 * _E5 + g1 * _E6 + q1 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y2), abs(z2)
                r2 = ((a2 * _E1 + c2 * _E3 + d2 * _E4 + e2 * _E5 + g2 * _E6 + q2 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y3), abs(z3)
                r3 = ((a3 * _E1 + c3 * _E3 + d3 * _E4 + e3 * _E5 + g3 * _E6 + q3 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y4), abs(z4)
                r4 = ((a4 * _E1 + c4 * _E3 + d4 * _E4 + e4 * _E5 + g4 * _E6 + q4 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y5), abs(z5)
                r5 = ((a5 * _E1 + c5 * _E3 + d5 * _E4 + e5 * _E5 + g5 * _E6 + q5 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y6), abs(z6)
                r6 = ((a6 * _E1 + c6 * _E3 + d6 * _E4 + e6 * _E5 + g6 * _E6 + q6 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y7), abs(z7)
                r7 = ((a7 * _E1 + c7 * _E3 + d7 * _E4 + e7 * _E5 + g7 * _E6 + q7 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                m0, m1 = abs(y8), abs(z8)
                r8 = ((a8 * _E1 + c8 * _E3 + d8 * _E4 + e8 * _E5 + g8 * _E6 + q8 * _E7) * h
                      / (atol + (m0 if m0 > m1 else m1) * rtol))
                err = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + r4 * r4 + r5 * r5
                                + r6 * r6 + r7 * r7 + r8 * r8) / 3.0
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
            k_stop = k_end if end else bisect.bisect_right(t_out, t_new, k, k_end)
            if k_stop > k or end:
                p2_0 = a0 * _P1x2 + c0 * _P3x2 + d0 * _P4x2 + e0 * _P5x2 + g0 * _P6x2 + q0 * _P7x2
                p3_0 = a0 * _P1x3 + c0 * _P3x3 + d0 * _P4x3 + e0 * _P5x3 + g0 * _P6x3 + q0 * _P7x3
                p4_0 = a0 * _P1x4 + c0 * _P3x4 + d0 * _P4x4 + e0 * _P5x4 + g0 * _P6x4 + q0 * _P7x4
                p2_1 = a1 * _P1x2 + c1 * _P3x2 + d1 * _P4x2 + e1 * _P5x2 + g1 * _P6x2 + q1 * _P7x2
                p3_1 = a1 * _P1x3 + c1 * _P3x3 + d1 * _P4x3 + e1 * _P5x3 + g1 * _P6x3 + q1 * _P7x3
                p4_1 = a1 * _P1x4 + c1 * _P3x4 + d1 * _P4x4 + e1 * _P5x4 + g1 * _P6x4 + q1 * _P7x4
                p2_2 = a2 * _P1x2 + c2 * _P3x2 + d2 * _P4x2 + e2 * _P5x2 + g2 * _P6x2 + q2 * _P7x2
                p3_2 = a2 * _P1x3 + c2 * _P3x3 + d2 * _P4x3 + e2 * _P5x3 + g2 * _P6x3 + q2 * _P7x3
                p4_2 = a2 * _P1x4 + c2 * _P3x4 + d2 * _P4x4 + e2 * _P5x4 + g2 * _P6x4 + q2 * _P7x4
                p2_3 = a3 * _P1x2 + c3 * _P3x2 + d3 * _P4x2 + e3 * _P5x2 + g3 * _P6x2 + q3 * _P7x2
                p3_3 = a3 * _P1x3 + c3 * _P3x3 + d3 * _P4x3 + e3 * _P5x3 + g3 * _P6x3 + q3 * _P7x3
                p4_3 = a3 * _P1x4 + c3 * _P3x4 + d3 * _P4x4 + e3 * _P5x4 + g3 * _P6x4 + q3 * _P7x4
                if rows is not None or end:
                    p2_4 = (a4 * _P1x2 + c4 * _P3x2 + d4 * _P4x2 + e4 * _P5x2 + g4 * _P6x2
                            + q4 * _P7x2)
                    p3_4 = (a4 * _P1x3 + c4 * _P3x3 + d4 * _P4x3 + e4 * _P5x3 + g4 * _P6x3
                            + q4 * _P7x3)
                    p4_4 = (a4 * _P1x4 + c4 * _P3x4 + d4 * _P4x4 + e4 * _P5x4 + g4 * _P6x4
                            + q4 * _P7x4)
                    p2_5 = (a5 * _P1x2 + c5 * _P3x2 + d5 * _P4x2 + e5 * _P5x2 + g5 * _P6x2
                            + q5 * _P7x2)
                    p3_5 = (a5 * _P1x3 + c5 * _P3x3 + d5 * _P4x3 + e5 * _P5x3 + g5 * _P6x3
                            + q5 * _P7x3)
                    p4_5 = (a5 * _P1x4 + c5 * _P3x4 + d5 * _P4x4 + e5 * _P5x4 + g5 * _P6x4
                            + q5 * _P7x4)
                    p2_6 = (a6 * _P1x2 + c6 * _P3x2 + d6 * _P4x2 + e6 * _P5x2 + g6 * _P6x2
                            + q6 * _P7x2)
                    p3_6 = (a6 * _P1x3 + c6 * _P3x3 + d6 * _P4x3 + e6 * _P5x3 + g6 * _P6x3
                            + q6 * _P7x3)
                    p4_6 = (a6 * _P1x4 + c6 * _P3x4 + d6 * _P4x4 + e6 * _P5x4 + g6 * _P6x4
                            + q6 * _P7x4)
                    p2_7 = (a7 * _P1x2 + c7 * _P3x2 + d7 * _P4x2 + e7 * _P5x2 + g7 * _P6x2
                            + q7 * _P7x2)
                    p3_7 = (a7 * _P1x3 + c7 * _P3x3 + d7 * _P4x3 + e7 * _P5x3 + g7 * _P6x3
                            + q7 * _P7x3)
                    p4_7 = (a7 * _P1x4 + c7 * _P3x4 + d7 * _P4x4 + e7 * _P5x4 + g7 * _P6x4
                            + q7 * _P7x4)
                    p2_8 = (a8 * _P1x2 + c8 * _P3x2 + d8 * _P4x2 + e8 * _P5x2 + g8 * _P6x2
                            + q8 * _P7x2)
                    p3_8 = (a8 * _P1x3 + c8 * _P3x3 + d8 * _P4x3 + e8 * _P5x3 + g8 * _P6x3
                            + q8 * _P7x3)
                    p4_8 = (a8 * _P1x4 + c8 * _P3x4 + d8 * _P4x4 + e8 * _P5x4 + g8 * _P6x4
                            + q8 * _P7x4)
                for ts in t_samples[k - k_start:k_stop - k_start]:
                    x = (ts - t) / h
                    x2 = x * x
                    x3 = x2 * x
                    x4 = x3 * x
                    v0 = h * (a0 * x + p2_0 * x2 + p3_0 * x3 + p4_0 * x4) + y0
                    v1 = h * (a1 * x + p2_1 * x2 + p3_1 * x3 + p4_1 * x4) + y1
                    v2 = h * (a2 * x + p2_2 * x2 + p3_2 * x3 + p4_2 * x4) + y2
                    v3 = h * (a3 * x + p2_3 * x2 + p3_3 * x3 + p4_3 * x4) + y3
                    if abs(v0 - v2) > _ANGLE_SLIP:
                        return None
                    avg = 0.5 * (v1 + v3)
                    if avg < low:
                        low = avg
                    if rows is None:
                        continue
                    v4 = h * (a4 * x + p2_4 * x2 + p3_4 * x3 + p4_4 * x4) + y4
                    v5 = h * (a5 * x + p2_5 * x2 + p3_5 * x3 + p4_5 * x4) + y5
                    v6 = h * (a6 * x + p2_6 * x2 + p3_6 * x3 + p4_6 * x4) + y6
                    v7 = h * (a7 * x + p2_7 * x2 + p3_7 * x3 + p4_7 * x4) + y7
                    v8 = h * (a8 * x + p2_8 * x2 + p3_8 * x3 + p4_8 * x4) + y8
                    rows.extend((v0, v1, v2, v3, v4, v5, v6, v7, v8))
                k = k_stop
                if end:
                    y0 = h * (((a0 + p2_0) + p3_0) + p4_0) + y0
                    y1 = h * (((a1 + p2_1) + p3_1) + p4_1) + y1
                    y2 = h * (((a2 + p2_2) + p3_2) + p4_2) + y2
                    y3 = h * (((a3 + p2_3) + p3_3) + p4_3) + y3
                    y4 = h * (((a4 + p2_4) + p3_4) + p4_4) + y4
                    y5 = h * (((a5 + p2_5) + p3_5) + p4_5) + y5
                    y6 = h * (((a6 + p2_6) + p3_6) + p4_6) + y6
                    y7 = h * (((a7 + p2_7) + p3_7) + p4_7) + y7
                    y8 = h * (((a8 + p2_8) + p3_8) + p4_8) + y8
                    break
            if watch is not None and _settled(watch, (z0, z1, z2, z3, z4, z5, z6, z7, z8), low):
                return first, low
            t = t_new
            y0, y1, y2, y3, y4, y5, y6, y7, y8 = z0, z1, z2, z3, z4, z5, z6, z7, z8
            a0, a1, a2, a3, a4, a5, a6, a7, a8 = k7
            if recording:
                record.reach.append(reach)
                record.states.extend((t, y0, y1, y2, y3, y4, y5, y6, y7, y8, *k7, h_abs,
                                      low, k))
    return rows if settling is None else (first, low)


def _plan(model, action, opts):
    """``action``'s pieces and its last piece's ``_settling`` (``_require_steps``)."""
    pieces = _pieces(model, action, opts)
    settling = _settling(model, *pieces[-1][2:])
    _require_steps(settling, opts)
    return pieces, settling


def _trajectory(model, action, opts, shared=None) -> DfecTrajectory:
    """The run of ``action`` over the whole horizon, all 9 state components
    at every output sample; ``shared`` is ``_dense_rows``'."""
    pieces, settling = _plan(model, action, opts)
    t = _output_grid(opts)
    rows = _dense_rows(model, pieces, opts, shared=shared)
    y = np.full((len(t), 9), np.nan) if rows is None else np.frombuffer(rows).reshape(-1, 9)
    return DfecTrajectory(t, y, rows is None, settling.w_ss)


def simulate(model: TwoMachineModel, action: DfecAction | None, opts: SimOptions) -> DfecTrajectory:
    """Integrate the disturbance response over the whole horizon, restarting
    at every power step."""
    return _trajectory(model, action, opts)


def nadir_cost(model: TwoMachineModel, action: DfecAction | None, opts: SimOptions,
               shared: dict | None = None, summary: bool = False):
    """``w_ss - min((w1 + w2) / 2)``; +inf when the run loses synchronism or
    has no steady state. The run keeps its ``_dips`` alone, up to ``_settled``.

    ``shared`` (``_Prefix`` records of runs on the same model and options,
    see ``_dense_rows``) lets the run start from states it shares with the
    recording runs, and gets its own records; the result is the same bit
    for bit. With ``summary`` the return is ``(w_ss, nadir, cost, _dips)``
    of the run, ``(nan, nan, inf, [nan, nan])`` after a slip."""
    pieces, settling = _plan(model, action, opts)
    dips = _dense_rows(model, pieces, opts, settling, shared)
    run = ((math.nan, math.nan, INSTABILITY_COST, np.full(2, math.nan)) if dips is None
           else (*_speed_summary(settling.w_ss, min(dips)), np.array(dips)))
    return run if summary else run[2]


# Lane-batched engine for the last pieces of a batch. Stage sums keep
# ``_dense_rows``' term order (no BLAS, no axis reductions), and the step
# factor ``err ** _ERR_EXP`` is Python's float power per lane (numpy's SIMD
# ``np.power`` rounds some inputs differently): a lane is the float loop, bit
# for bit.
def _rms(x):
    """RMS over the 9 state rows of ``x``, summed in row order."""
    sq = x * x
    acc = sq[0]
    for row in sq[1:]:
        acc = acc + row
    return np.sqrt(acc) / 3.0


def _stacked(rhs, y):
    """``rhs(*y)``'s 9 rows as one ``(9, lanes)`` array."""
    dy = np.empty_like(y)
    dy[:] = rhs(*y)
    return dy


class _Lanes:
    """Per-lane solver state of the active lanes, one column (or entry) each,
    in the last piece of their actions, which starts at ``lo``."""

    FIELDS = ("lane", "t", "y", "f", "h_abs", "rejected", "k_next", "lo", "dp_active",
              "p_motor")

    def __init__(self, lanes, plans, starts):
        """Lanes ``lanes`` from their last piece's start as ``_dense_rows``
        hands it off (``starts``)."""
        self.lane = lanes
        self.lo, _, self.dp_active, self.p_motor = np.reshape(
            [plans[i][-1] for i in lanes], (-1, 4)).T
        self.t = self.lo
        self.y, self.f = (np.reshape([starts[i][k] for i in lanes], (-1, 9)).T for k in (0, 1))
        self.h_abs = np.array([starts[i][2] for i in lanes], dtype=float)
        self.k_next = np.array([starts[i][4] for i in lanes], dtype=int)
        self.rejected = np.zeros(len(lanes), dtype=bool)

    def keep(self, mask):
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[..., mask])


def nadir_costs(model: TwoMachineModel, actions, opts: SimOptions) -> np.ndarray:
    """``nadir_cost`` of every action (``None`` = uncontrolled), bit for bit.

    Every piece before an action's last runs on the float loop once per
    shared history: actions that share a piece start run one after another,
    the latest break first, so the first run records the piece up to its
    break (``_Prefix``) and the later ones resume there. On a sweep, that
    steps the uncontrolled run once to the latest switch-on and each row's
    injection once to its latest switch-off. The last pieces then run as
    numpy lanes from their switch-off states and running minima: the state
    is a ``(9, lanes)`` array, each lane keeps its own time and step size,
    and dense output is sampled onto the ``dt_out`` grid, where the
    loss-of-synchronism check runs.
    """
    n = len(actions)
    t_grid = _output_grid(opts)
    plans = [_pieces(model, a, opts) for a in actions]
    kind = {}                                    # distinct last pieces, numbered
    for plan in plans:
        kind.setdefault(plan[-1][2:], len(kind))
    settlings = [_settling(model, *final) for final in kind]
    for settling in settlings:
        _require_steps(settling, opts)
    lane_kind = np.array([kind[plan[-1][2:]] for plan in plans], dtype=int)

    # Ordered piece by piece, the actions that share a piece start are
    # neighbours, the one with the latest break first; records off the
    # current run's path are not needed again.
    shared, starts = {}, [None] * n
    for i in sorted(range(n), key=lambda i: [(lo, dp, pm, -hi) for lo, hi, dp, pm in plans[i]]):
        plan = plans[i]
        path = {(tuple(plan[:m]), lo, dp, pm) for m, (lo, _, dp, pm) in enumerate(plan)}
        shared = {key: record for key, record in shared.items() if key[:4] in path}
        starts[i] = _dense_rows(model, plan, opts, shared=shared, hand_off=True)
    del shared
    unstable = np.array([start is None for start in starts], dtype=bool)
    run_min = np.array([math.inf if start is None else start[3] for start in starts])
    L = _Lanes(np.flatnonzero(~unstable), plans, starts)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
            t_new = np.minimum(t + h_abs, opts.horizon)
            h = t_new - t
            rhs = dfec_dynamics(model, L.dp_active, L.p_motor, np.sin, np.maximum, np.minimum)
            k1 = L.f
            k2 = _stacked(rhs, y + (k1 * _A21) * h)
            k3 = _stacked(rhs, y + (k1 * _A31 + k2 * _A32) * h)
            k4 = _stacked(rhs, y + (k1 * _A41 + k2 * _A42 + k3 * _A43) * h)
            k5 = _stacked(rhs, y + (k1 * _A51 + k2 * _A52 + k3 * _A53 + k4 * _A54) * h)
            k6 = _stacked(rhs, y + (k1 * _A61 + k2 * _A62 + k3 * _A63 + k4 * _A64
                                    + k5 * _A65) * h)
            y_new = y + h * (k1 * _B1 + k3 * _B3 + k4 * _B4 + k5 * _B5 + k6 * _B6)
            k7 = _stacked(rhs, y_new)
            scale = opts.atol + np.maximum(np.abs(y), np.abs(y_new)) * opts.rtol
            err = _rms((k1 * _E1 + k3 * _E3 + k4 * _E4 + k5 * _E5 + k6 * _E6 + k7 * _E7)
                       * h / scale)
            grow = _SAFETY * np.array([e ** _ERR_EXP if e else math.inf for e in err.tolist()])
            accept = err < 1.0
            factor = np.where(err == 0.0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, grow))
            factor = np.where(rejected, np.minimum(1.0, factor), factor)
            shrink = np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR)   # NaN shrinks
            L.h_abs = h * np.where(accept, factor, shrink)
            L.rejected = ~accept
            if not accept.any():
                continue

            # Dense output of the accepted steps, sampled onto the grid.
            done = accept & (t_new >= opts.horizon)
            k_stop = np.where(done, len(t_grid), np.searchsorted(t_grid, t_new, "right"))
            count = np.where(accept, k_stop - L.k_next, 0)
            if count.any():
                src = np.repeat(np.arange(len(count)), count)
                ks = np.arange(len(src)) + np.repeat(L.k_next - (np.cumsum(count) - count), count)
                ts = np.minimum(np.maximum(t_grid[ks], L.lo[src]), opts.horizon)
                x = (ts - t[src]) / h[src]
                x2 = x * x
                x3 = x2 * x
                a, c, d, e, g, q = (k[:4, src] for k in (k1, k3, k4, k5, k6, k7))
                ys = h[src] * (
                    a * x
                    + (a * _P1x2 + c * _P3x2 + d * _P4x2 + e * _P5x2 + g * _P6x2 + q * _P7x2) * x2
                    + (a * _P1x3 + c * _P3x3 + d * _P4x3 + e * _P5x3 + g * _P6x3 + q * _P7x3) * x3
                    + (a * _P1x4 + c * _P3x4 + d * _P4x4 + e * _P5x4 + g * _P6x4 + q * _P7x4)
                    * (x3 * x)) + y[:4, src]
                avg = 0.5 * (ys[1] + ys[3])
                lane = L.lane[src]
                np.minimum.at(run_min, lane, avg)
                unstable[lane[np.abs(ys[0] - ys[2]) > _ANGLE_SLIP]] = True
                L.k_next = L.k_next + count

            # Lanes stop once they have settled.
            kinds = lane_kind[L.lane]
            check = accept & ~done
            settled = np.zeros_like(check)
            for k in np.unique(kinds[check]):
                sel = np.flatnonzero(check & (kinds == k))
                settled[sel] = _settled(settlings[k], y_new[:, sel], run_min[L.lane[sel]])

            L.t = np.where(accept, t_new, t)
            L.y = np.where(accept, y_new, y)
            L.f = np.where(accept, k7, L.f)
            finished = done | unstable[L.lane] | settled
            if finished.any():
                L.keep(~finished)

    w_ss = np.array([settlings[k].w_ss for k in lane_kind])
    return np.where(unstable, INSTABILITY_COST, _speed_summary(w_ss, run_min)[2])


@dataclass(frozen=True)
class ActionBounds:
    dp_max: float = 0.25
    t_on_max: float = 10.0
    t_off_max: float = 40.0


@dataclass(frozen=True)
class StepResponse:
    """Linear-response surrogate of the average speed.

    A block ``(dp, t_on, t_off)`` is taken to move the average speed by
    ``dp (s(t - t_on) - s(t - t_off))`` on top of the uncontrolled run, where
    ``s`` is the unit step response: the average-speed lift of a sustained
    injection ``dp_ref`` from ``t = 0``, divided by ``dp_ref`` (a secant).
    With equal inertias and damping the electrical power cancels out of the
    average-speed equation and the superposition is close to exact
    (Anderson & Mirheydar, "A low-order system frequency response model",
    IEEE Trans. Power Syst. 5(3), 1990); elsewhere it is only a guide.
    """

    model: TwoMachineModel
    t: np.ndarray           # output grid
    uncontrolled: np.ndarray
    s: np.ndarray
    dp_ref: float
    opts: SimOptions

    @classmethod
    def measure(cls, model: TwoMachineModel, uncontrolled: DfecTrajectory,
                dp_ref: float, opts: SimOptions) -> "StepResponse":
        """Step response at ``dp_ref``, halved until the step run keeps
        synchronism; ``uncontrolled`` must be a stable run."""
        while True:
            step = simulate(model, DfecAction(dp_ref, 0.0, math.inf), opts)
            if not step.unstable:
                break
            dp_ref *= 0.5
        avg = uncontrolled.avg_speed
        return cls(model, uncontrolled.t, avg, (step.avg_speed - avg) / dp_ref, dp_ref, opts)

    def avg_speed(self, dp: float, t_on: float, t_off: float) -> np.ndarray:
        t, s = self.t, self.s
        lift = np.interp(t - t_on, t, s, left=0.0) - np.interp(t - t_off, t, s, left=0.0)
        return self.uncontrolled + dp * lift

    def dips(self, dp: float, t_on: float, t_off: float):
        """``(w_ss, _dips)`` of the action's surrogate run."""
        plan = _pieces(self.model, DfecAction(dp, t_on, t_off), self.opts)
        return (steady_speed(self.model, *plan[-1][2:]),
                _dips(self.t, self.avg_speed(dp, t_on, t_off), plan))

    def cost(self, dp: float, t_on: float, t_off: float) -> float:
        w_ss, dips = self.dips(dp, t_on, t_off)
        return _speed_summary(w_ss, min(dips))[2]


_NELDER_MEAD = {"xatol": 1e-3, "fatol": 1e-9, "maxiter": 400}
# ``_trust_region``'s first half-width and forward-difference step, in
# unit-cube units.
_TRUST_RADIUS, _TRUST_STEP = 0.05, 1e-3


def _nelder_mead(func, x0, xatol, fatol, maxiter, initial_simplex=None,
                 bounds=(-math.inf, math.inf)):
    """The Nelder-Mead simplex search (Nelder & Mead, Comput. J. 7(4), 1965)
    as ``scipy.optimize.minimize(method="Nelder-Mead")`` runs it without
    ``adaptive``, step for step: the same coefficients (reflect 1, expand 2,
    contract 1/2, shrink 1/2), the same ``np.argsort`` reordering and stop
    rule, at most ``maxiter - 1`` iterations, so it visits the same points.
    Every point is clipped into ``bounds = (lower, upper)`` as scipy clips
    it, and a first simplex beyond ``upper`` is reflected inside. ``func``
    gets copies of the points. Returns ``(best vertex, best value)``.
    """
    lower, upper = bounds
    x0 = np.clip(np.asarray(x0, dtype=float).flatten(), lower, upper)
    n = len(x0)
    if initial_simplex is None:
        sim = np.tile(x0, (n + 1, 1))
        for k, v in enumerate(x0):
            sim[k + 1, k] = 1.05 * v if v != 0 else 0.00025
    else:
        sim = np.array(initial_simplex, dtype=float)
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)

    def f(v):
        return func(v.copy())

    fsim = np.array([f(v) for v in sim], dtype=float)
    for _ in range(2):                      # scipy sorts the first simplex twice
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    for _ in range(maxiter - 1):
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = sim[:-1].sum(0) / n
        xr = np.clip(2 * xbar - sim[-1], lower, upper)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], lower, upper)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:              # outside contraction
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], lower, upper)
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:                           # inside contraction
                xc = np.clip(0.5 * xbar + 0.5 * sim[-1], lower, upper)
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lower, upper)
                    fsim[j] = f(sim[j])
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], fsim.min()


def _trust_region(nonlinear, surrogate, x, run, lower, upper):
    """Polish ``x``, whose nonlinear ``run`` is ``(cost, nadir, dips)``, by
    a box trust region in ``[lower, upper]`` (Alexandrov, Dennis, Lewis &
    Torczon, Struct. Optim. 15, 1998); returns the last iterate and its run.
    ``nonlinear(v)`` is the run at ``v``, ``surrogate(v)`` ``(w_ss, dips)``.

    The optimum sits where the two ``_dips`` cross, a kink that stalls a
    simplex (McKinnon, SIAM J. Optim. 9(1), 1998), so each dip ``k`` gets
    its own correction: its gap ``N_k - S_k`` to the surrogate at ``x`` and
    the gap's slope ``g_k`` by forward differences. Nelder-Mead minimizes
    the model ``max_k (w_ss - [S_k + (N_k - S_k)(x) + g_k (v - x)])`` within
    ``r`` of ``x``, and the minimizer's run replaces ``x`` if it costs less.
    ``r`` shrinks to half the step below a quarter of the predicted
    decrease and doubles above three quarters at the box's edge. The polish
    ends where the model predicts at most ``fatol``, ``r < xatol`` (both
    ``_NELDER_MEAD``'s), or a forward-difference run is unstable.
    """
    radius = _TRUST_RADIUS
    while radius >= _NELDER_MEAD["xatol"]:
        cost, _, dips = run
        gap = dips - surrogate(x)[1]
        slopes = np.empty((len(x), len(dips)))
        for i in range(len(x)):
            v = x.copy()
            v[i] += _TRUST_STEP if x[i] + _TRUST_STEP <= upper[i] else -_TRUST_STEP
            slopes[i] = (nonlinear(v)[2] - surrogate(v)[1] - gap) / (v[i] - x[i])
        if not np.isfinite(slopes).all():
            break

        def model(v):
            w_ss, s = surrogate(v)
            return _speed_summary(w_ss, min(s + gap + (v - x) @ slopes))[2]

        while radius >= _NELDER_MEAD["xatol"]:
            box = np.maximum(lower, x - radius), np.minimum(upper, x + radius)
            steps = np.where(x + 0.5 * radius <= box[1], 0.5 * radius, -0.5 * radius)
            trial, predicted = _nelder_mead(
                model, x, xatol=0.01 * radius, fatol=0.01 * _NELDER_MEAD["fatol"],
                maxiter=_NELDER_MEAD["maxiter"], bounds=box,
                initial_simplex=np.vstack([x, x + np.diag(steps)]))
            if not cost - predicted > _NELDER_MEAD["fatol"]:
                return x, run
            trial_run = nonlinear(trial)
            ratio = (cost - trial_run[0]) / (cost - predicted)
            size = np.abs(trial - x).max()
            if ratio < 0.25:
                radius = 0.5 * size
            elif ratio > 0.75 and size > 0.99 * radius:
                radius *= 2.0
            if trial_run[0] < cost:
                x, run = trial, trial_run
                break
    return x, run


GRID_STARTS, REFINE_STARTS = 5, 3     # the optimizer's default starts: 5^3, 3 descended


def optimize_action(
    model: TwoMachineModel,
    bounds: ActionBounds,
    opts: SimOptions,
    initial_guess: DfecAction | None = None,
    grid_starts: int = GRID_STARTS,
    refine_starts: int = REFINE_STARTS,
) -> DfecResult:
    """Derivative-free search for the best injection block.

    The variables are scaled to the unit cube; the window is parameterized
    as ``(dp, t_on, length)`` so ``t_on < t_off`` holds by construction. A
    ``StepResponse`` surrogate, built from the uncontrolled run and one step
    run at ``dp_max / 2``, ranks the initial guess and a ``grid_starts^3``
    grid of starts, and Nelder-Mead in the cube minimizes it from the best
    ``refine_starts``. The nonlinear model decides the answer: the surrogate
    optima are costed on it, and ``_trust_region`` polishes the best one.
    The reported ``cost`` and nadir are the reported action's own run's.
    """
    shared = {}     # the ``_Prefix`` records of the uncontrolled run and every cost run
    uncontrolled_run = _trajectory(model, None, opts, shared)
    _, nadir0, uncontrolled = uncontrolled_run.summary()
    if uncontrolled_run.unstable:
        raise OptimizationError("the uncontrolled run loses synchronism, so there "
                                "is no step response to rank starts on")
    if math.isnan(uncontrolled_run.w_ss):
        raise OptimizationError(f"uncontrolled run: {NO_STEADY_STATE}")
    surrogate = StepResponse.measure(model, uncontrolled_run, 0.5 * bounds.dp_max, opts)
    lower, upper = np.array([0.0, 0.0, 1e-3]), np.ones(3)

    def unpack(v):
        dp, t_on = float(v[0]) * bounds.dp_max, float(v[1]) * bounds.t_on_max
        return dp, t_on, t_on + max(float(v[2]) * (bounds.t_off_max - t_on), 1e-3)

    def surrogate_of(v):
        return surrogate.cost(*unpack(v))

    nonlinear_evals = 0

    def nonlinear(v):
        nonlocal nonlinear_evals
        nonlinear_evals += 1
        _, nadir, cost, dips = nadir_cost(model, DfecAction(*unpack(v)), opts, shared, summary=True)
        return cost, nadir, dips

    starts = []
    if (g := initial_guess) is not None:    # ranked where Nelder-Mead would start it
        starts.append(np.clip([g.dp / bounds.dp_max, g.t_on / bounds.t_on_max,
                               (g.t_off - g.t_on) / max(bounds.t_off_max - g.t_on, 1e-9)],
                              lower, upper))
    grid = (np.arange(grid_starts) + 0.5) / grid_starts
    starts += [np.array([gd, gon, glen]) for gd in grid for gon in grid for glen in grid]

    # Rank the starts and descend on the surrogate.
    ranked = sorted(starts, key=surrogate_of)[:refine_starts]
    optima = [_nelder_mead(surrogate_of, v0, **_NELDER_MEAD, bounds=(lower, upper))[0]
              for v0 in ranked]

    # The surrogate optima on the nonlinear model; the best one is polished.
    runs = [nonlinear(v) for v in optima]
    history = [(unpack(v), run[0]) for v, run in zip(optima, runs)]
    best = min(range(len(runs)), key=lambda k: runs[k][0])
    start_v, start_c = optima[best], runs[best][0]
    if not np.isfinite(start_c):
        raise OptimizationError("all optimizer starts diverged", history=history)
    x, (cost, nadir_c, _) = _trust_region(nonlinear, lambda v: surrogate.dips(*unpack(v)),
                                          start_v, runs[best], lower, upper)

    action = DfecAction(*unpack(x))
    if not cost < uncontrolled:
        # dp = 0 is always feasible; an action no better than none is none.
        action, nadir_c, cost = DfecAction(0.0, 0.0, 1e-3), nadir0, uncontrolled
    return DfecResult(
        action=action,
        cost=cost,
        uncontrolled_cost=uncontrolled,
        uncontrolled_nadir=nadir0,
        controlled_nadir=nadir_c,
        history=tuple(history),
        dp_ref=surrogate.dp_ref,
        start=unpack(start_v),
        start_surrogate_cost=surrogate_of(start_v),
        start_cost=start_c,
        nonlinear_evals=nonlinear_evals,
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
    columns ``t_off_values``. All valid cells are costed as one
    ``nadir_costs`` batch: the uncontrolled run and each row's injection are
    stepped once, and the runs after switch-off as lanes. A cell's value is
    its ``nadir_cost``, bit for bit, whatever grid it belongs to.
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
