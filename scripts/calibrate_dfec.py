#!/usr/bin/env python3
"""Calibration procedure for the bundled two-machine frequency scenario.

The governor/turbine parameters of the bundled scenario were chosen by this
procedure; rerunning the script verifies every calibration target against
the shipped file.

Procedure
---------
1. Steady-state sizing. For a load step L the post-event speed deviation is
   ``L / (k1 + d1 + d2)`` (governor droop 1/k1 plus load damping). With the
   targeted uncontrolled nadir of ~4% and an overshoot-limited response, the
   steady-state deviation should sit near 1/3 of the nadir: k1 + d1 + d2 = 22
   gives 0.25 / 22 = 1.14% steady-state deviation.

2. Dynamic shaping. The average-speed loop is approximately 2nd order with
   natural frequency ``sqrt((d + k1) / (M * t6))`` (M = 2(h1 + h2)) and
   damping set by ``(d + k1(1 - k2))/M + 1/t6``. The slow delivery lag t6=60 s
   sets the nadir depth (the machines free-fall for several seconds before
   the turbine output ramps); t4=1 s, t5=3 s add realistic delivery delay;
   small controller constants (t1=0.2, t2=0.1, t3=0.3) keep the command path
   fast so the loop's effective damping ratio stays in the moderately
   underdamped range, which produces a single recovery overshoot. That
   overshoot is what gives the switch-off time a genuine interior optimum.

3. Limit check. p_max = 2.0 keeps the power command off its ceiling for the
   0.25 pu step; a binding limit was observed to cause a sustained
   limit-cycle ring in the recovery.

4. Verification (this script): uncontrolled nadir in [3.5%, 4.5%];
   steady-state deviation matches the droop relation within 2%; the
   optimized cost is at least 30% below the uncontrolled cost; the optimal
   window length strictly shrinks across dp = 0.08 / 0.12 / 0.16.

Unattained target: a strictly delayed optimal start (t_on* >= 0.5 s). At
any fixed dp near 0.12 a delayed start beats an immediate one, but the
joint (dp, t_on, t_off) optimum always sits at t_on = 0: the load step and
the injection reach the average speed through the same closed loop, so the
injection's peak lift is already aligned with the nadir and delay only
spends pre-switch frequency decline. Eighteen perturbed calibrations
(governor lag/gain variants, saturation levels, asymmetric inertias, weak
coupling, damping splits) all behaved the same way, so the script reports
the achieved t_on* informatively instead of failing on it (see README,
"Known deviations").
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gridstep import frequency as fq
from gridstep.scenario import load_scenario

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/gridstep/data"


def main() -> int:
    scn = load_scenario(DATA / "dfec_twomachine.json")
    model, opts, bounds = scn.model, scn.sim, scn.bounds
    failures = []

    w_ss, _, c0 = fq.simulate(model, None, opts).summary(opts)
    print(f"uncontrolled nadir cost: {c0:.5f} pu (target 0.040 +/- 0.005)")
    if not 0.035 <= c0 <= 0.045:
        failures.append("uncontrolled nadir outside 4% +/- 0.5%")

    droop_pred = 1.0 - opts.disturbance / (model.gov.k1 + model.d1 + model.d2)
    err = abs(w_ss - droop_pred) / abs(1.0 - droop_pred)
    print(f"steady-state speed: {w_ss:.6f}, droop relation predicts "
          f"{droop_pred:.6f} (relative error {err:.2%}, limit 2%)")
    if err > 0.02:
        failures.append("droop relation violated")

    result = fq.optimize_action(model, bounds, opts)
    a = result.action
    print(f"optimum: dp={a.dp:.4f} t_on={a.t_on:.2f} t_off={a.t_off:.2f} "
          f"cost={result.cost:.5f} ({1 - result.cost / c0:.1%} reduction)")
    if a.t_on < 0.5:
        print("note: optimal injection is immediate (t_on* < 0.5 s); the "
              "delayed-start target is unattained in this model structure "
              "(see module docstring)")
    if result.cost > 0.7 * c0:
        failures.append("optimized cost reduction below 30%")

    lengths = []
    for dp in (0.08, 0.12, 0.16):
        t_on = np.arange(0.0, 4.01, 0.5)
        t_off = np.arange(12.0, 36.01, 2.0)
        grid = fq.contour_sweep(model, dp, t_on, t_off, opts)
        i, j = np.unravel_index(np.nanargmin(grid), grid.shape)
        lengths.append(t_off[j] - t_on[i])
        print(f"dp={dp}: best window [{t_on[i]:.1f}, {t_off[j]:.1f}] s "
              f"(length {t_off[j] - t_on[i]:.1f} s, cost {grid[i, j] / 1000:.5f})")
    if not lengths[0] > lengths[1] > lengths[2]:
        failures.append("optimal window length does not shrink with dp")

    if failures:
        print("CALIBRATION FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("calibration verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
