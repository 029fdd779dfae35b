"""Numerical oracle for the DFEC integrator: ``frequency.simulate`` as it
was written on ``scipy.integrate.solve_ivp``, one solver per piece between
power steps. Tests compare the scalar stepper against it."""

import numpy as np
from scipy.integrate import solve_ivp

from gridstep import frequency as fq
from gridstep.errors import StiffnessError


def simulate(model, action, opts) -> fq.DfecTrajectory:
    pieces = fq._pieces(model, action, opts)
    t_grid = fq._output_grid(opts)
    out = np.empty((len(t_grid), 9))
    y = model.equilibrium()
    unstable = False
    for n, (lo, hi, dp_active, p_motor) in enumerate(pieces):
        rhs = fq.dfec_dynamics(model, dp_active, p_motor)
        start, stop = fq._sample_range(t_grid, lo, hi, n == len(pieces) - 1)
        t_eval = np.clip(t_grid[start:stop], lo, hi)
        drop_end = len(t_eval) == 0 or t_eval[-1] < hi - 1e-12
        if drop_end:
            t_eval = np.append(t_eval, hi)
        sol = solve_ivp(rhs, (lo, hi), y, method="RK45", rtol=opts.rtol,
                        atol=opts.atol, t_eval=t_eval)
        if not sol.success:
            raise StiffnessError(f"DFEC integration failed on [{lo}, {hi}]: {sol.message}")
        out[start:stop] = sol.y.T[:-1] if drop_end else sol.y.T
        y = sol.y[:, -1]
        if np.abs(out[start:stop, 0] - out[start:stop, 2]).max(initial=0.0) > fq._ANGLE_SLIP:
            unstable = True
            break
    if unstable:
        out[:] = np.nan
    return fq.DfecTrajectory(t=t_grid, y=out, unstable=unstable)


def nadir_cost(model, action, opts) -> float:
    return simulate(model, action, opts).summary(opts)[2]
