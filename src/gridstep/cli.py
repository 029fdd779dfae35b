"""Command-line front end.

Subcommands: ``modes`` (eigenvalue report), ``deoc`` (schedule + simulate the
oscillation controller), ``dfec optimize|sweep|simulate`` (frequency
controller), and ``validate`` (schema check of input files).

Exit codes: 0 success, 1 numeric failure (degenerate spectrum, integrator
failure, no switching opportunity, diverged optimization, loss of
synchronism), 2 input error (missing/malformed files, schema violations,
inconsistent dimensions). All algorithms are deterministic: the same inputs
produce byte-identical output files, and a sweep cell's value does not
depend on the grid it belongs to.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import frequency
from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    GridStepError,
    ModelError,
    NoSwitchOpportunityError,
    OptimizationError,
    ScheduleError,
    StiffnessError,
)
from .modal import analyze, modal_report
from .network import build_reduced_model, load_grid
from .oscillation import DeocSchedule, build_schedule, default_targets
from .scenario import DeocScenario, DfecScenario, load_scenario
from .simulate import apply_disturbance, simulate_deoc

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_INPUT = 2

_NUMERIC_ERRORS = (
    DegenerateSpectrumError,
    NoSwitchOpportunityError,
    StiffnessError,
    OptimizationError,
)
_INPUT_GRIDSTEP_ERRORS = (ModelError, DimensionError, ScheduleError)


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def cmd_modes(args) -> int:
    grid = load_grid(args.system)
    model = build_reduced_model(grid)
    basis = analyze(model)
    report = {"schema_version": 1, "system": grid.name}
    report.update(modal_report(model, basis))
    _write_json(report, args.out)
    return EXIT_OK


def _require_deoc(scn) -> DeocScenario:
    if not isinstance(scn, DeocScenario):
        raise ModelError("scenario file is not a 'deoc' scenario")
    return scn


def _require_dfec(scn) -> DfecScenario:
    if not isinstance(scn, DfecScenario):
        raise ModelError("scenario file is not a 'dfec' scenario")
    return scn


def cmd_deoc(args) -> int:
    grid = load_grid(args.system)
    scn = _require_deoc(load_scenario(args.scenario))
    if args.t_end is not None or args.dt_out is not None:
        scn = replace(
            scn,
            t_end=args.t_end if args.t_end is not None else scn.t_end,
            dt_out=args.dt_out if args.dt_out is not None else scn.dt_out,
        )

    model = build_reduced_model(grid)
    basis = analyze(model)
    t0, x0 = apply_disturbance(model, basis, scn.disturbance)

    targets = scn.targets
    if targets is None:
        targets = default_targets(basis, model, x0, scn.n_targets)
    schedule = build_schedule(
        basis, model, x0, t0, targets,
        dp_overrides=scn.dp_overrides_pu(model.base_mva),
        scale=scn.scale,
        stage_window=scn.stage_window,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    doc = {"schema_version": 1, "system": grid.name, "scenario": scn.name}
    doc.update(schedule.to_dict(model.base_mva))
    _write_json(doc, out_dir / "schedule.json")

    controlled = simulate_deoc(model, basis, scn.disturbance, schedule, scn.t_end,
                              scn.dt_out)
    uncontrolled = simulate_deoc(
        model, basis, scn.disturbance, DeocSchedule(stages=()), scn.t_end, scn.dt_out
    )
    controlled.to_csv(out_dir / "controlled.csv")
    uncontrolled.to_csv(out_dir / "uncontrolled.csv")
    controlled.to_json(out_dir / "controlled.json")

    print(f"stages={len(schedule.stages)} skipped={len(schedule.skipped)} "
          f"ek_final={controlled.ek[-1]:.6e} ek_peak={uncontrolled.ek.max():.6e}")
    return EXIT_OK


def cmd_dfec_optimize(args) -> int:
    scn = _require_dfec(load_scenario(args.scenario))
    result = frequency.optimize_action(
        scn.model, scn.bounds, scn.sim,
        initial_guess=scn.action,
        grid_starts=scn.grid_starts,
        refine_starts=scn.refine_starts,
    )
    doc = {"schema_version": 1, "scenario": scn.name}
    doc.update(result.to_dict())
    _write_json(doc, args.out)
    return EXIT_OK


def cmd_dfec_sweep(args) -> int:
    scn = _require_dfec(load_scenario(args.scenario))
    if scn.sweep_t_on is None or scn.sweep_t_off is None:
        raise ModelError("scenario has no 'sweep' section")
    if args.out is None:
        raise ModelError("dfec sweep requires --out")
    grid = frequency.contour_sweep(
        scn.model, scn.sweep_dp, scn.sweep_t_on, scn.sweep_t_off, scn.sim,
    )
    frequency.sweep_to_csv(args.out, scn.sweep_t_on, scn.sweep_t_off, grid)
    best = np.nanmin(grid)
    print(f"dp={scn.sweep_dp} best_cost_x1000={best:.6f}")
    return EXIT_OK


def cmd_dfec_simulate(args) -> int:
    scn = _require_dfec(load_scenario(args.scenario))
    sim = scn.sim
    if args.t_end is not None or args.dt_out is not None:
        sim = replace(
            sim,
            horizon=args.t_end if args.t_end is not None else sim.horizon,
            dt_out=args.dt_out if args.dt_out is not None else sim.dt_out,
        )
    traj = frequency.simulate(scn.model, scn.action, sim)
    if traj.unstable:
        print("loss of synchronism: machine angles separated beyond pi",
              file=sys.stderr)
        return EXIT_NUMERIC
    if args.out is not None:
        _dfec_trajectory_csv(args.out, traj)
    w_ss, nadir, cost = traj.summary(sim)
    print(f"w_ss={w_ss:.6f} nadir={nadir:.6f} cost={cost:.6f}")
    return EXIT_OK


def _dfec_trajectory_csv(path, traj) -> None:
    import csv

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


def cmd_validate(args) -> int:
    if args.system is None and args.scenario is None:
        raise ModelError("validate requires --system and/or --scenario")
    if args.system is not None:
        grid = load_grid(args.system)
        grid.validate()
        print(f"system ok: {args.system}")
    if args.scenario is not None:
        load_scenario(args.scenario)
        print(f"scenario ok: {args.scenario}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstep",
        description="Discrete power-injection grid control: oscillation "
                    "damping and frequency-nadir limiting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_modes = sub.add_parser("modes", help="eigenvalue/participation report")
    p_modes.add_argument("--system", required=True)
    p_modes.add_argument("--out", default=None)
    p_modes.set_defaults(func=cmd_modes)

    p_deoc = sub.add_parser("deoc", help="schedule and simulate the oscillation controller")
    p_deoc.add_argument("--system", required=True)
    p_deoc.add_argument("--scenario", required=True)
    p_deoc.add_argument("--out", required=True, help="output directory")
    p_deoc.add_argument("--dt-out", type=float, default=None)
    p_deoc.add_argument("--t-end", type=float, default=None)
    p_deoc.set_defaults(func=cmd_deoc)

    p_dfec = sub.add_parser("dfec", help="frequency excursion controller")
    dfec_sub = p_dfec.add_subparsers(dest="dfec_command", required=True)

    p_opt = dfec_sub.add_parser("optimize", help="search the best (dp, t_on, t_off)")
    p_opt.add_argument("--scenario", required=True)
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=cmd_dfec_optimize)

    p_sweep = dfec_sub.add_parser("sweep", help="switch-time contour grid (cost x 1000)")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_dfec_sweep)

    p_sim = dfec_sub.add_parser("simulate", help="single disturbance response")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--dt-out", type=float, default=None)
    p_sim.add_argument("--t-end", type=float, default=None)
    p_sim.set_defaults(func=cmd_dfec_simulate)

    p_val = sub.add_parser("validate", help="schema-check input files")
    p_val.add_argument("--system", default=None)
    p_val.add_argument("--scenario", default=None)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    import jsonschema

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_GRIDSTEP_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except jsonschema.ValidationError as exc:
        print(f"input error: {exc.message}", file=sys.stderr)
        return EXIT_INPUT
    except GridStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
