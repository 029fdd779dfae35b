"""Discrete oscillation control: switching function, injection design,
switch-time search and multi-stage scheduling.

The controller damps swing oscillations by stepping CC injections so the
equilibrium temporarily shifts from ``x_e`` to ``x_c``, chosen in the pair
coordinates of ``modal``. The switch-on instant is the root of ``V(x_e) -
V(x)``, ``V`` the orbit value about ``x_c`` (the orbit around ``x_c`` through
the current state then contains ``x_e``); the switch-off instant is the first
minimum of the kinetic oscillation energy afterwards, where its closed-form
rate rises through zero. Both are found by one rule, ``_roots``: sign changes
on a 1 ms sample grid, each bracket finished by ``_newton``, a safeguarded
Newton iteration (Press et al., *Numerical Recipes*, 3rd ed., section 9.4,
``rtsafe``) on the closed form's value and slope, both read off one complex
step through the function itself.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .derivative import value_and_slope
from .errors import (
    DimensionError,
    MaxWindowWarning,
    NoSwitchOpportunityError,
    ReachabilityWarning,
)
from .modal import ModalBasis, orbit, orbit_value
from .network import ReducedModel, equilibrium_shifted

SAMPLE_DT = 1e-3          # root bracketing step, s
SEARCH_BLOCK = 512        # samples evaluated at a time by the switch-time searches
T_RESOLUTION = 1e-14      # Newton step below which a root is final, s


@dataclass(frozen=True)
class ControlStage:
    dp: np.ndarray            # CC power change, pu
    target_modes: tuple[int, ...]
    t_on: float
    t_off: float
    x_c: np.ndarray
    h_residual: float
    energy_on: float
    energy_off: float

    def __post_init__(self):
        if not self.t_on < self.t_off:
            raise DimensionError(f"stage requires t_on < t_off, got {self.t_on} >= {self.t_off}")


@dataclass(frozen=True)
class DeocSchedule:
    stages: tuple[ControlStage, ...]
    final_state: np.ndarray | None = None
    final_time: float | None = None
    skipped: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        for prev, nxt in zip(self.stages, self.stages[1:]):
            if prev.t_off > nxt.t_on:
                raise DimensionError(
                    f"stages overlap: t_off {prev.t_off} > next t_on {nxt.t_on}"
                )

    def to_dict(self, base_mva: float) -> dict:
        return {
            "stages": [
                {
                    "target_modes": list(s.target_modes),
                    "dp_pu": [float(v) for v in s.dp],
                    "dp_mw": [float(v * base_mva) for v in s.dp],
                    "t_on": s.t_on,
                    "t_off": s.t_off,
                    "h_residual": s.h_residual,
                    "energy_on": s.energy_on,
                    "energy_off": s.energy_off,
                }
                for s in self.stages
            ],
            "skipped": [{"target": t, "reason": r} for t, r in self.skipped],
        }


def switching_function(
    basis: ModalBasis, x_e: np.ndarray, x_c: np.ndarray, x: np.ndarray
) -> float | np.ndarray:
    """Closed-form switch-on indicator ``V(x_e) - V(x)``, ``V`` the orbit
    value about ``x_c``: its zero marks the instant from which the orbit
    about ``x_c`` passes through ``x_e``. Takes one ``(2m,)`` state or a
    ``(k, 2m)`` stack (one value per state)."""
    return orbit_value(basis, x_c, x_e) - orbit_value(basis, x_c, x)


def oscillation_energy(model: ReducedModel, x: np.ndarray) -> float | np.ndarray:
    """Kinetic oscillation energy ``w_s (w-1)^T H (w-1)`` in pu. Takes one
    ``(2m,)`` state or a ``(k, 2m)`` stack (one value per state)."""
    dw = np.asarray(x, dtype=float)[..., model.n_machines:] - 1.0
    return model.omega_s * ((dw * model.h) * dw).sum(-1)


def energy_rate(model: ReducedModel, x_c: np.ndarray, x: np.ndarray) -> float | np.ndarray:
    """Time derivative of :func:`oscillation_energy` along the orbit around
    ``x_c``: ``2 w_s sum_j h_j (w_j - 1) (A (x - x_c))_{m+j}``. The speed rows
    of ``A`` are ``-1/2 H^-1 B``, so this is ``-w_s (w - 1)^T B (delta -
    delta_c)``. Takes one ``(2m,)`` state or a ``(k, 2m)`` stack."""
    m = model.n_machines
    x = np.asarray(x)
    dw = x[..., m:] - 1.0
    return -model.omega_s * (((x[..., :m] - x_c[:m]) @ model.b_red) * dw).sum(-1)


def design_dp(basis: ModalBasis, model: ReducedModel, x0: np.ndarray, pair: int,
              scale: float) -> np.ndarray:
    """CC power change whose equilibrium shift points along mode pair
    ``pair``'s angle column.

    Solves ``min || b_red^-1 b_cc dp - scale * v ||`` by least squares, where
    ``v`` is the pair's unit angle column ``from_pairs[:m, 2 pair] / || . ||``,
    signed by the pair's ``p`` coordinate of ``x0 - x_e`` (+1 where ``p`` is
    zero, as when the pair's energy is all kinetic). An unexcited pair
    (``|| (p, q) || < 1e-14``) gives ``dp = 0``.
    """
    if model.n_cc == 0:
        raise DimensionError("model has no controllable components")
    column, amplitude, _ = _pair_part(basis, model, x0, pair)
    if amplitude < 1e-14:
        return np.zeros(model.n_cc)
    v = column / np.linalg.norm(column)

    t_map = np.linalg.solve(model.b_red, model.b_cc)
    dp, *_ = np.linalg.lstsq(t_map, scale * v, rcond=None)
    resid = np.linalg.norm(t_map @ dp - scale * v)
    if resid > 1e-6 * abs(scale):
        warnings.warn(ReachabilityWarning(f"targeted subspace only partially reachable "
                                          f"through the CCs (residual {resid:.3e})",
                                          residual=resid))
    return dp


def auto_scale(basis: ModalBasis, model: ReducedModel, x0: np.ndarray, pair: int) -> float:
    """Shift magnitude that guarantees a switching-function root for mode
    pair ``pair``, or 0 where the pair is unexcited (``|| (p, q) || <
    1e-14``).

    A shift of ``s`` along :func:`design_dp`'s unit column moves the pair's
    ``p`` coordinate by ``s / || from_pairs[:m, 2 pair] ||`` (``pairs`` inverts
    ``from_pairs``, and a ``p`` row has no speed entries). A root exists when
    that move exceeds half of ``|y|^2 / || (p, q) ||``, ``y`` all pairs'
    coordinates of ``x0 - x_e``; a factor-2 margin is applied.
    """
    column, amplitude, excitation = _pair_part(basis, model, x0, pair)
    if amplitude < 1e-14:
        return 0.0
    return excitation * float(np.linalg.norm(column)) / amplitude


def _pair_part(basis, model, x0, pair):
    """Mode pair ``pair``'s angle column ``from_pairs[:m, 2 pair]``, negated
    where the pair's ``p`` coordinate of ``x0 - x_e`` is negative; the pair's
    amplitude ``|| (p, q) ||``; and ``|y|^2``, ``y`` all pairs' coordinates."""
    _check_pair(basis, pair)
    y = basis.pairs @ (np.asarray(x0, dtype=float) - model.x_eq)
    p, q = y[2 * pair], y[2 * pair + 1]
    column = basis.from_pairs[:model.n_machines, 2 * pair]
    return (-column if p < 0.0 else column), math.hypot(p, q), float(y @ y)


def _check_pair(basis, pair):
    n_pairs = len(basis.modes)
    if not 0 <= pair < n_pairs:
        raise DimensionError(f"target pair {pair} is outside [0, {n_pairs}): "
                             f"the system has {n_pairs} mode pairs")


def find_switch_on(
    basis: ModalBasis,
    model: ReducedModel,
    x_c: np.ndarray,
    x0: np.ndarray,
    t0: float,
    t_arm: float,
    t_max: float,
):
    """Earliest usable switching-function root along the uncontrolled orbit.

    ``x0`` is the state at time ``t0``; the search covers ``[t_arm, t_max]``
    with ``_roots`` and samples the window only up to the first accepted
    root. The switching function
    vanishes twice per revolution of the targeted mode, but only one of the
    crossings steers the trajectory toward ``x_e`` before the opposite orbit
    extreme. Each root is therefore checked with the ride its stage would
    take: ``find_switch_off`` over a stage window of ``t_max - t_arm`` from
    the root. A root is accepted when that ride shrinks the orbit value
    around ``x_e``; a rejected root's ride emits no ``MaxWindowWarning``.
    Acceptance therefore depends on the stage window.

    Returns ``(t_on, x_on, h_residual, (t_off, x_off, energy_off))``.
    """
    if not t_arm < t_max:
        raise DimensionError("t_arm must be < t_max")
    x_e = model.x_eq
    states = orbit(basis, x_e, x0)

    def h_at(t):
        return switching_function(basis, x_e, x_c, states(t - t0))

    ts = np.arange(max(t_arm, t0), t_max + 0.5 * SAMPLE_DT, SAMPLE_DT)
    hs = np.empty(len(ts))
    roots_rejected = 0
    for t_on in _roots(h_at, ts, hs):
        x_on = states(t_on - t0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", MaxWindowWarning)
            ride = find_switch_off(basis, model, x_c, x_on, t_on, t_on + (t_max - t_arm))
        accepted = orbit_value(basis, x_e, ride[1]) < orbit_value(basis, x_e, x_on)
        for w in caught:
            if accepted or not issubclass(w.category, MaxWindowWarning):
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if accepted:
            return t_on, x_on, abs(switching_function(basis, x_e, x_c, x_on)), ride
        roots_rejected += 1

    min_h = float(np.min(np.abs(hs)))
    raise NoSwitchOpportunityError(
        f"no usable switching-function root in [{t_arm:.3f}, {t_max:.3f}] s "
        f"(min |h| = {min_h:.3e}, {roots_rejected} roots rejected)",
        min_abs_h=min_h,
    )


def _roots(func, ts, values, rising=False):
    """Roots of ``func``, a function of time, in order: one per bracket that
    ``_changes(values, rising)`` marks on ``values = func(ts)``, each finished
    by ``_newton``. ``func`` is evaluated ``SEARCH_BLOCK`` samples at a time,
    into ``values``, and only as far as the caller keeps iterating:
    ``values`` is complete once the generator is exhausted."""
    done = marked = 0
    while done < len(ts):
        stop = min(done + SEARCH_BLOCK, len(ts))
        values[done:stop] = func(ts[done:stop])
        done = stop
        for k in marked + np.flatnonzero(_changes(values[marked:done], rising)):
            yield _newton(func, ts[k], ts[k + 1], values[k], values[k + 1])
        marked = done - 1


def _changes(v, rising=False):
    """``v[k]`` is zero, or ``v[k]`` and a nonzero ``v[k + 1]`` differ in sign;
    signs are read with ``np.signbit``, so no product of two values can
    overflow. If ``rising``: ``v[k] < 0 <= v[k + 1]``, so a zero that starts
    the samples, as a ride from rest does, marks nothing."""
    if rising:
        return (v[:-1] < 0.0) & (v[1:] >= 0.0)
    neg = np.signbit(v)
    return (v[:-1] == 0.0) | ((neg[:-1] != neg[1:]) & (v[1:] != 0.0))


def _newton(func, a, b, f_a, f_b):
    """Root in the bracket ``[a, b]`` that ``_changes`` marks on the samples
    ``f_a`` and ``f_b`` of ``func``: ``a`` or ``b`` where that sample is zero,
    else the root of a safeguarded Newton iteration (``rtsafe``) on the value
    and slope that ``value_and_slope`` reads off ``func`` at each iterate.

    The iteration starts at the secant point of the bracket and keeps the
    bracket around the root. It bisects where a step would leave the bracket
    or the slope is zero or beyond the float range, and stops at an exact
    zero, or once a step is below ``T_RESOLUTION``; a hundred iterations
    (bisection from 1 ms takes about forty) end it where it is."""
    if f_a == 0.0:
        return float(a)
    if f_b == 0.0:
        return float(b)
    a, b, f_a = float(a), float(b), float(f_a)
    t = a - f_a * (b - a) / (float(f_b) - f_a)
    for _ in range(100):
        f, slope = map(float, value_and_slope(func, t))
        if f == 0.0:
            return t
        if (f < 0.0) == (f_a < 0.0):
            a = t
        else:
            b = t
        step = t - f / slope if 0.0 < abs(slope) < math.inf else math.nan
        # A final step may round onto ``t``, which is now a bracket end.
        if abs(step - t) < T_RESOLUTION and a <= step <= b:
            return step
        if not a < step < b:
            step = 0.5 * (a + b)
        if abs(step - t) < T_RESOLUTION:
            return step
        t = step
    return t


def find_switch_off(
    basis: ModalBasis,
    model: ReducedModel,
    x_c: np.ndarray,
    x_on: np.ndarray,
    t_on: float,
    t_max: float,
):
    """First local minimum of the oscillation energy after switch-on.

    The system orbits ``x_c`` while the control is active. The minimum is the
    first root of :func:`energy_rate` that rises through zero between two
    samples 1 ms apart (``v[k] < 0 <= v[k + 1]``), finished by ``_newton``.
    Returns ``(t_off, x_off, energy_off)``; if the rate rises through zero
    nowhere before ``t_max``, returns the window end and emits
    :class:`MaxWindowWarning`.
    """
    states = orbit(basis, x_c, x_on)

    def rate_at(t):
        return energy_rate(model, x_c, states(t - t_on))

    ts = np.arange(t_on, t_max + 0.5 * SAMPLE_DT, SAMPLE_DT)
    for t_off in _roots(rate_at, ts, np.empty(len(ts)), rising=True):
        x_off = states(t_off - t_on)
        return t_off, x_off, oscillation_energy(model, x_off)

    warnings.warn(MaxWindowWarning(
        f"no oscillation-energy minimum in [{t_on:.3f}, {t_max:.3f}] s; using window end"
    ))
    x_off = states(ts[-1] - t_on)
    return float(ts[-1]), x_off, oscillation_energy(model, x_off)


def default_targets(basis: ModalBasis, model: ReducedModel, x0: np.ndarray, n: int):
    """Mode pairs ordered by descending modal excitation of ``x0``."""
    amp = basis.pair_amplitudes(model.x_eq, x0)
    order = np.argsort(-(amp ** 2), kind="stable")
    return tuple(int(i) for i in order[:n])


def build_schedule(
    basis: ModalBasis,
    model: ReducedModel,
    x0: np.ndarray,
    t0: float,
    targets,
    dp_overrides=None,
    stage_window: float = 10.0,
) -> DeocSchedule:
    """Sequential per-mode schedule: design the injection, find the switch-on
    root, ride the shifted orbit to the energy minimum, advance, repeat.

    Each target is one mode pair index; anything else raises
    :class:`DimensionError`, as does a stage whose ride has an orbit value
    times its largest energy curvature beyond the float range. A stage that
    finds no switching opportunity is skipped with a recorded reason; later
    stages continue from the unchanged state.
    """
    try:
        targets = [operator.index(target) for target in targets]
    except TypeError as exc:
        raise DimensionError(f"each target must be one integer mode pair: {exc}") from exc
    if dp_overrides is not None and len(dp_overrides) != len(targets):
        raise DimensionError("dp_overrides must match targets in length")
    for target in targets:
        _check_pair(basis, target)
    # Each root a stage tries has h = 0, so its ride orbits x_c at the orbit
    # value V of x_e, where the kinetic energy is sum_i e_i q_i^2 (e_i = w_s
    # |from_pairs[m:, 2i + 1]|_H^2): the switch-off search's slope, the energy's
    # curvature, is at most V max_i e_i w_i^2. Seeded wscc9 and ieee39 stages
    # reach that bound; their switch-on slopes stay under 5 % of it.
    curvature = (model.omega_s * (model.h @ basis.from_pairs[model.n_machines:, 1::2] ** 2)
                 * basis.omega ** 2).max()

    x, t = np.asarray(x0, dtype=float), float(t0)
    stages: list[ControlStage] = []
    skipped: list[tuple[int, str]] = []

    for k, target in enumerate(targets):
        override = dp_overrides is not None and dp_overrides[k] is not None
        with np.errstate(over="ignore", invalid="ignore"):
            if override:
                dp = np.asarray(dp_overrides[k], dtype=float)
            else:
                s = auto_scale(basis, model, x, target)
                if s == 0.0:
                    skipped.append((target, "target mode not excited"))
                    continue
                dp = design_dp(basis, model, x, target, s)
            x_c = equilibrium_shifted(model, dp)
            ride = orbit_value(basis, x_c, model.x_eq)
            reach = ride * curvature
        if not np.isfinite(reach):
            cause = (f"dp_overrides[{k}] shifts the equilibrium so far that" if override else
                     f"disturbance.x0, or the state a pulse leaves, needs so large a "
                     f"target-{target} shift that")
            what = " times its largest energy curvature" if np.isfinite(ride) else ""
            raise DimensionError(f"{cause} the stage's orbit value{what} is beyond the float range")
        if np.linalg.norm(x_c - model.x_eq) < 1e-14:
            skipped.append((target, "zero equilibrium shift"))
            continue
        try:
            t_on, x_on, h_res, (t_off, x_off, e_off) = find_switch_on(
                basis, model, x_c, x, t, t, t + stage_window
            )
        except NoSwitchOpportunityError as exc:
            skipped.append((target, str(exc)))
            continue
        e_on = oscillation_energy(model, x_on)
        stages.append(
            ControlStage(
                dp=dp,
                target_modes=(target,),
                t_on=t_on,
                t_off=t_off,
                x_c=x_c,
                h_residual=h_res,
                energy_on=e_on,
                energy_off=e_off,
            )
        )
        x, t = x_off, t_off

    return DeocSchedule(
        stages=tuple(stages),
        final_state=x,
        final_time=t,
        skipped=tuple(skipped),
    )
