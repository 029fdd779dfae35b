"""Reference implementations the tests compare the package against.

The numerical oracle is ``scipy.integrate.solve_ivp`` run piece by piece, a
fresh solver for each continuous piece that restarts from the previous
solver's state at the break. Tests check the closed-form DEOC propagation and
both DFEC steppers against it, and the real-form ``modal.propagate`` against
the complex modal form it replaced. The reference writers are the ``csv.writer``
and ``json.dump`` code of the output files."""

import csv
import json

import numpy as np
from scipy.integrate import solve_ivp

from gridstep import frequency as fq
from gridstep.errors import StiffnessError


def propagate(basis, center, x_start, dt):
    """``modal.propagate`` in complex modal form,
    ``c + Re(M e^(Λ dt) M^-1 (x_start - c))``, one or many offsets."""
    z = basis.m_inv @ (np.asarray(x_start, dtype=float) - center)
    phases = np.exp(np.multiply.outer(dt, basis.eigenvalues)) * z
    return (phases @ basis.m.T).real + center


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
    pieces = [(lo, hi, fq.dfec_dynamics(model, dp_active, p_motor))
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
