"""Reference implementations the tests compare the package against.

The numerical oracle is ``scipy.integrate.solve_ivp`` run piece by piece, a
fresh solver for each continuous piece that restarts from the previous
solver's state at the break. Tests check the closed-form DEOC propagation and
both DFEC steppers against it, and the pair coordinates of ``modal`` against
the complex modal form of ``np.linalg.eig``. ``target_direction``,
``auto_scale`` and ``design_dp`` are DEOC's injection design written for any
set of target pairs, the reference of the package's one-pair design.
``list_rows`` is the DFEC float stepper written over 9-element lists, the
bit-for-bit reference of the package's straight-line
``frequency._dense_rows``. The reference writers are the
``csv.writer`` and ``json.dump`` code of the output files."""

import bisect
import csv
import json
import math
from array import array
from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp

from gridstep import frequency as fq
from gridstep.errors import StiffnessError
from gridstep.frequency import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _ANGLE_SLIP, _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7, _ERR_EXP, _MAX_FACTOR,
    _MIN_FACTOR, _P1x2, _P1x3, _P1x4, _P3x2, _P3x3, _P3x4, _P4x2, _P4x3, _P4x4, _P5x2, _P5x3,
    _P5x4, _P6x2, _P6x3, _P6x4, _P7x2, _P7x3, _P7x4, _SAFETY, _initial_step, _norm,
    _output_grid, _sample_range, _settled, dfec_dynamics)


def complex_form(basis):
    """The complex modal form of ``basis.a``, from ``np.linalg.eig`` with its
    unit-norm eigenvector columns ``M``: the eigenvalues, ``M``, ``M^-1``,
    ``D = Re(M^-H M^-1)``, ``E = Re(M^-H |Λ|^-2 M^-1)`` and the switching
    function's form ``G = D + A^T E A = 2 D``. Where frequencies repeat, the
    eigenbasis (and so ``D``) is not unique."""
    lam, m = np.linalg.eig(basis.a)
    m_inv = np.linalg.inv(m)
    d = (m_inv.conj().T @ m_inv).real
    e = (m_inv.conj().T @ (m_inv / np.abs(lam)[:, None] ** 2)).real
    return SimpleNamespace(eigenvalues=lam, m=m, m_inv=m_inv, d=d, e=e, g=2.0 * d)


def orbit(basis, center, x_start):
    """``modal.orbit`` in complex modal form: the evaluator of
    ``c + Re(M e^(Λ dt) M^-1 (x_start - c))``, one or many offsets."""
    form = complex_form(basis)
    z = form.m_inv @ (np.asarray(x_start, dtype=float) - center)

    def states(dt):
        phases = np.exp(np.multiply.outer(dt, form.eigenvalues)) * z
        return (phases @ form.m.T).real + center

    return states


def propagate(basis, center, x_start, dt):
    """``modal.propagate`` in complex modal form, one or many offsets."""
    return orbit(basis, center, x_start)(dt)


def orbit_value(basis, center, x):
    """``modal.orbit_value`` in complex modal form, ``dx^T D dx + xdot^T E
    xdot`` with ``xdot = A dx``, one state or a stack."""
    form = complex_form(basis)
    dx = np.asarray(x, dtype=float) - center
    xdot = dx @ basis.a.T
    return ((dx @ form.d) * dx).sum(-1) + ((xdot @ form.e) * xdot).sum(-1)


def target_direction(basis, model, x0, target_modes):
    """Multi-pair reference of ``oscillation.design_dp``'s shift direction:
    the normalized angle part of the targeted pairs' share of ``x0 - x_e``,
    ``None`` where it is zero. For one pair it is that pair's signed unit
    angle column wherever the pair's ``p`` coordinate is nonzero."""
    rows = [i for p in target_modes for i in (2 * p, 2 * p + 1)]
    v = basis.from_pairs[:model.n_machines, rows] @ (basis.pairs[rows] @ (x0 - model.x_eq))
    norm = np.linalg.norm(v)
    return None if norm < 1e-14 else v / norm


def auto_scale(basis, model, x0, target_modes):
    """Multi-pair reference of ``oscillation.auto_scale``: the total squared
    pair amplitude over the targeted pairs' amplitude and the targeted pairs'
    part of a unit shift along :func:`target_direction`."""
    y = basis.pairs @ (x0 - model.x_eq)
    rows = [i for p in target_modes for i in (2 * p, 2 * p + 1)]
    v = target_direction(basis, model, x0, target_modes)
    w_pair = np.linalg.norm(basis.pairs[rows, :model.n_machines] @ v)
    return (y @ y) / (np.linalg.norm(y[rows]) * w_pair)


def design_dp(basis, model, x0, target_modes, scale):
    """Multi-pair reference of ``oscillation.design_dp``: the least-squares
    CC power change whose shift is ``scale`` along :func:`target_direction`."""
    t_map = np.linalg.solve(model.b_red, model.b_cc)
    v = target_direction(basis, model, x0, target_modes)
    return np.linalg.lstsq(t_map, scale * v, rcond=None)[0]


def piecewise(pieces, y0, t_grid, method, rtol, atol):
    """Integrate the ``(lo, hi, rhs)`` pieces from ``y0``; yield each piece's
    ``(start, stop, states at t_grid[start:stop])``, its samples in ``[lo, hi)``
    (the last piece also takes those at or rounded past its end)."""
    y = np.asarray(y0, dtype=float)
    for n, (lo, hi, rhs) in enumerate(pieces):
        start = int(np.searchsorted(t_grid, lo - 1e-12))
        last = n == len(pieces) - 1
        stop = len(t_grid) if last else int(np.searchsorted(t_grid, hi - 1e-12))
        t_eval = np.clip(t_grid[start:stop], lo, hi)
        drop_end = len(t_eval) == 0 or t_eval[-1] < hi - 1e-12
        if drop_end:
            t_eval = np.append(t_eval, hi)  # the state at the break restarts
        sol = solve_ivp(rhs, (lo, hi), y, method=method, rtol=rtol, atol=atol, t_eval=t_eval)
        if not sol.success:
            raise StiffnessError(f"integration failed on [{lo}, {hi}]: {sol.message}")
        yield start, stop, sol.y.T[:-1] if drop_end else sol.y.T
        y = sol.y[:, -1]


def deoc(model, schedule, x0, t0, t_end, dt_out):
    """``(t, x)`` of ``simulate_deoc``: the field ``A (x - center)`` on its
    output grid, centered on the active stage's ``x_c``, else on ``x_e``."""
    times = [t0] + [t for st in schedule.stages for t in (st.t_on, st.t_off)] + [t_end]
    centers = [model.x_eq] + [c for st in schedule.stages for c in (st.x_c, model.x_eq)]
    pieces = [(lo, hi, lambda t, x, c=c: model.a @ (x - c))
              for lo, hi, c in zip(times, times[1:], centers) if lo < hi]
    t_grid = np.arange(t0, t_end + 0.5 * dt_out, dt_out)
    x = np.empty((len(t_grid), len(x0)))
    for start, stop, samples in piecewise(pieces, x0, t_grid, "DOP853", 1e-8, 1e-10):
        x[start:stop] = samples
    return t_grid, x


def simulate(model, action, opts) -> fq.DfecTrajectory:
    """``frequency.simulate`` on ``solve_ivp``'s RK45; stops at the first piece
    whose samples show loss of synchronism. The steady state is the package's
    closed form at the last piece (tests check it against long runs)."""
    plan = fq._pieces(model, action, opts)
    w_ss = fq.steady_speed(model, *plan[-1][2:])
    pieces = [(lo, hi, lambda t, y, rhs=fq.dfec_dynamics(model, dp_active, p_motor): rhs(*y))
              for lo, hi, dp_active, p_motor in plan]
    t_grid = fq._output_grid(opts)
    y = np.empty((len(t_grid), 9))
    for start, stop, samples in piecewise(pieces, model.equilibrium(), t_grid, "RK45",
                                          opts.rtol, opts.atol):
        y[start:stop] = samples
        if np.abs(samples[:, 0] - samples[:, 2]).max(initial=0.0) > fq._ANGLE_SLIP:
            y[:] = np.nan
            return fq.DfecTrajectory(t_grid, y, True, w_ss)
    return fq.DfecTrajectory(t_grid, y, False, w_ss)


def nadir_cost(model, action, opts) -> float:
    return simulate(model, action, opts).summary()[2]


def equilibrium(model, dp_active, p_motor):
    """The 9-state rest point of a piece with fixed injection and load (``d2``
    = 0) by ``frequency._settling``'s droop balance, and the governor
    limiter's slope there (1 strictly inside the limits, else 0); ``None``
    where no angle carries the load."""
    g, damping = model.gov, model.d1 + model.d2
    u = (model.p_set + dp_active - p_motor) / (g.k1 + damping)
    command = model.p_set - g.k1 * u
    slope = 1.0 if g.p_min < command < g.p_max else 0.0
    if not g.p_min <= command <= g.p_max:
        command = min(max(command, g.p_min), g.p_max)
        u = (command + dp_active - p_motor) / damping
    load = (p_motor + model.d2 * u) / model.p_sync
    if not -1.0 < load < 1.0:
        return None
    angle = math.asin(load)
    return (angle, 1.0 + u, 0.0, 1.0 + u, u, g.k1 * u, command, command, command), slope


def jacobian(model, angle, slope):
    """The Jacobian of ``dfec_dynamics`` in the reduced state ``(d1 - d2, w1,
    w2, g1, g2, a1, a2, a3)``, written out by hand: the bit-for-bit reference
    of ``frequency._jacobian``'s complex steps, at the angle difference
    ``angle`` with the governor limiter's slope ``slope``."""
    g = model.gov
    ws, h1_2, h2_2 = model.omega_s, 2.0 * model.h1, 2.0 * model.h2
    sync = model.p_sync * math.cos(angle)
    t2_over_t1 = g.t2 / g.t1
    blend = (1.0 - g.k2, g.k2 * (1.0 - g.k3), g.k2 * g.k3)
    jac = np.zeros((8, 8))
    jac[0, 1], jac[0, 2] = ws, -ws
    jac[1, 0], jac[1, 1] = -sync / h1_2, -model.d1 / h1_2
    jac[1, 5:] = [b / h1_2 for b in blend]
    jac[2, 0], jac[2, 2] = sync / h2_2, -model.d2 / h2_2
    jac[3, 1], jac[3, 3] = 1.0 / g.t1, -1.0 / g.t1
    jac[4, 1], jac[4, 3] = g.k1 * t2_over_t1 / g.t3, g.k1 * (1.0 - t2_over_t1) / g.t3
    jac[4, 4] = -1.0 / g.t3
    jac[5, 4], jac[5, 5] = -slope / g.t4, -1.0 / g.t4
    jac[6, 5], jac[6, 6] = 1.0 / g.t5, -1.0 / g.t5
    jac[7, 6], jac[7, 7] = 1.0 / g.t6, -1.0 / g.t6
    return jac


def list_rows(model, pieces, opts, settling=None, shared=None, hand_off=False):
    """``frequency._dense_rows`` with its step written over 9-element lists,
    list comprehensions and ``zip``; ``None`` as soon as a sample shows loss
    of synchronism. A cost run (``settling``, the last piece's, given) keeps
    no rows and returns its two dips: the lowest average speed before the
    last piece starts (that start's average where no sample precedes it)
    and the lowest within the last piece, up to the first accepted step of
    the last piece from which the run has ``_settled`` on that dip. Any
    other run returns all 9 state components at every output sample, row
    after row.

    Each piece between power steps is a fresh solver that starts from the
    previous piece's interpolant at the break. Samples are read off each
    accepted step's dense output. ``shared`` keeps and resumes the states of
    a piece, and ``hand_off`` ends the run at its last piece's start, as
    ``_dense_rows`` does (see ``_Prefix``).
    """
    t_grid = _output_grid(opts)
    t_out = t_grid.tolist()
    rtol, atol = opts.rtol, opts.atol
    y = model.equilibrium().tolist()
    rows = array("d") if settling is None and not hand_off else None
    width = 4 if rows is None else 9    # the components a sample needs
    low = math.inf          # lowest average speed sampled so far
    k = 0                   # samples taken so far
    for n, (lo, hi, dp_active, p_motor) in enumerate(pieces):
        last = n == len(pieces) - 1
        watch = settling if last else None
        if watch is not None:
            first, low = low if k else 0.5 * (y[1] + y[3]), math.inf
        rhs = dfec_dynamics(model, dp_active, p_motor)
        k_start, k_end = _sample_range(t_grid, lo, hi, last)
        t_samples = np.clip(t_grid[k_start:k_end], lo, hi).tolist()
        t = lo
        f = rhs(*y)
        h_abs = _initial_step(rhs, y, f, hi - lo, rtol, atol)
        if last and hand_off:
            return tuple(y), f, h_abs, low, k
        record = None
        if shared is not None:
            bound = min(hi, t_out[k_end]) if k_end < len(t_out) else hi
            key = (tuple(pieces[:n]), lo, dp_active, p_motor, h_abs)
            prefix = shared.get(key)
            if prefix is None and watch is None:
                record = shared[key] = fq._Prefix(bound)
                reach = -math.inf
            elif prefix is not None and rows is None and not last:
                state = prefix.resume(bound)
                if state is not None:
                    t, y, f, h_abs, low, k = state
                    y = list(y)
        recording = record is not None
        while True:
            # One step (scipy's RungeKutta._step_impl).
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            if recording:
                reach = max(reach, t + h_abs)
                recording = reach < record.bound
            rejected = False
            while True:
                if h_abs < min_step:
                    raise StiffnessError("DFEC integration failed: required step "
                                         "size is less than spacing between numbers.")
                t_new = min(t + h_abs, hi)
                h = t_new - t
                k1 = f
                k2 = rhs(*[y_ + (a * _A21) * h for y_, a in zip(y, k1)])
                k3 = rhs(*[y_ + (a * _A31 + b * _A32) * h
                           for y_, a, b in zip(y, k1, k2)])
                k4 = rhs(*[y_ + (a * _A41 + b * _A42 + c * _A43) * h
                           for y_, a, b, c in zip(y, k1, k2, k3)])
                k5 = rhs(*[y_ + (a * _A51 + b * _A52 + c * _A53 + d * _A54) * h
                           for y_, a, b, c, d in zip(y, k1, k2, k3, k4)])
                k6 = rhs(*[y_ + (a * _A61 + b * _A62 + c * _A63 + d * _A64
                                 + e * _A65) * h
                           for y_, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
                y_new = [y_ + h * (a * _B1 + c * _B3 + d * _B4 + e * _B5 + g * _B6)
                         for y_, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
                k7 = rhs(*y_new)
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
            k_stop = k_end if end else bisect.bisect_right(t_out, t_new, k, k_end)
            if k_stop > k or end:
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
                    avg = 0.5 * (row[1] + row[3])
                    if avg < low:
                        low = avg
                    if rows is not None:
                        rows.extend(row)
                k = k_stop
                if end:
                    y = [h * (((q0 + q1) + q2) + q3) + y_ for (q0, q1, q2, q3), y_ in zip(Q, y)]
                    break
            if watch is not None and _settled(watch, y_new, low):
                return first, low
            t, y, f = t_new, y_new, k7
            if recording:
                record.reach.append(reach)
                record.states.extend((t, *y, *f, h_abs, low, k))
    return rows if settling is None else (first, low)


# Reference writers: the package's writers must match them byte for byte.

def trajectory_csv(traj, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(traj.columns())
        for i in range(len(traj.t)):
            row = [f"{traj.t[i]:.9f}"]
            row += [f"{v:.12e}" for v in traj.x[i]]
            row += [f"{traj.ek[i]:.12e}", f"{traj.orbit[i]:.12e}"]
            row += ["nan" if np.isnan(traj.h[i]) else f"{traj.h[i]:.12e}"]
            row += [str(int(traj.stage[i]))]
            writer.writerow(row)


def trajectory_json(traj, path) -> None:
    doc = {
        "columns": traj.columns(),
        "events": [{"t": t, "label": label} for t, label in traj.events],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def dfec_trajectory_csv(path, traj) -> None:
    names = ["t", "delta_1", "omega_1", "delta_2", "omega_2",
             "gov_y1", "gov_y2", "turb_1", "turb_2", "turb_3", "avg_omega"]
    avg = traj.avg_speed
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(len(traj.t)):
            row = [f"{traj.t[i]:.9f}"]
            row += [f"{v:.12e}" for v in traj.y[i]]
            row += [f"{avg[i]:.12e}"]
            writer.writerow(row)
