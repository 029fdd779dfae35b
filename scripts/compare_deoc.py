#!/usr/bin/env python3
"""Compare the DEOC schedules and the outputs of bench commands with a parent commit.

Run from the root of the repository:

    python3 scripts/compare_deoc.py --parent <commit> [--out report.json]
    python3 scripts/compare_deoc.py --parent <commit> --workload dfec-sweep
    python3 scripts/compare_deoc.py --parent <commit> --workload dfec-costs
    python3 scripts/compare_deoc.py --parent <commit> --workload deoc-states

The inputs are the commands of a bench workload (``deoc-mixed`` unless
``--workload`` names another) for bench seeds 1-10 and 4242, written once by
the workload generator of ``bench/run.py`` (imported, not run). The first
pair of each ``deoc-mixed`` seed runs the bundled wscc9 and ieee39 studies;
``dfec-sweep`` runs each seed's sweep once and then the bundled sweep, and
``dfec-optimize`` each seed's simulate and optimize and then the bundled
ones. Each side runs every command in-process through ``gridstep.cli.main``
in one worker process: the parent side in a ``git archive`` checkout of
``--parent``, the change side in the working tree, twice, in two processes.
A worker keeps each command's exit code, stdout, stderr, stages, skips, sweep
cells and the SHA-256 of each output file, and deletes the files.

The report gives per side pair the commands whose stages (target modes)
differ, each with both sides' ``(target modes, t_on, t_off)`` stages and
skips; the commands whose skips (target and reason, its ``min |h|`` aside)
differ; the commands whose skip reasons differ only in ``min |h|``; the
largest ``|t_on|`` and ``|t_off|`` differences with where they occur; the
largest ``h_residual`` in ``schedule.json`` on each side; the outputs that no
schedule feeds (each ``uncontrolled.csv`` and each ``modes`` report) whose
SHA-256 differs; apart from them, the schedule-fed outputs (each
``controlled.csv``, ``controlled.json`` and ``schedule.json``) whose SHA-256
differs; and the commands whose stdout or stderr differ. It also lists the
commands whose two change-side runs are not byte-identical. The exit code is 1
when stages, skips, schedule-free outputs or the repeated runs differ, else 0:
a schedule-fed output moves with any switch time, so its hash is reported,
not gated.

For a DFEC workload the report lists instead the commands whose exit code,
stdout, stderr or output files differ, and each printed sweep cell that
moves; the exit code is 1 when any command differs or does not repeat.

``dfec-costs`` runs no command: on the bundled DFEC model, under three
option sets (the bundled 100 s horizon, 40 s, and 40 s with the load step
at 0.7 s), each side costs a seeded set of actions with
``nadir_cost(..., summary=True)``, once alone and once on one shared record
set, and runs the bundled ``contour_sweep``. The set holds the uncontrolled
run, ``dp`` 0, an injection past the horizon, the slipping
``(4.0, 1, 10)`` and families of actions that differ only in ``t_off``.
Each side also costs one action (or none) on each of a seeded set of
random models around the bundled one: governor lags x0.3-3, ``k1``
x0.5-2, ``p_max`` and ``p_min`` 0.05-0.6 pu from the load, ``h`` 0.5-8 s,
``d`` 0-4, ``x`` 0.2-0.6, load step 0.05-0.5 pu, ``dp`` up to 0.3 and a
40 or 100 s horizon, and records the SHA-256 of its last piece's
``_settling`` (``inv_v``, ``weights``, ``fastest`` and both rooms), so a
change to the stop certificate's inputs shows where no cost moves. The
report lists each cost, steady speed, nadir, dip, sweep cell or fingerprint
that differs from the parent's, bit for bit (no CLI output prints the
dips), and per side the accepted last-piece steps of the
cost runs and of the sweep: the lanes ``_settled`` is asked about, counted
by wrapping it in the worker. The exit code is 1 when any float differs or
does not repeat.

``deoc-states`` runs 600 seeded ``gridstep deoc`` commands on
``initial-state`` disturbances, alternating the bundled wscc9 and ieee39
systems and cycling through four kinds of state (``STATE_KINDS``: one
machine's angle moved by 1e-6-1 rad, one machine's speed moved by 1e-6-0.1
pu, about 30 % of the coordinates moved with sigma 0.05, and one machine's
speed moved by 1e100-1e160 pu), each with a random ``t_end``,
``stage_window`` and ``n_targets``. Each state is drawn as its offset from
the equilibrium, which the worker adds to its own ``x_e``. The worker records
each command's exit code, the exception that escapes ``main`` (a traceback),
the ``RuntimeWarning``s raised during the run, and whether a run that does
not exit 0 left files. The report gives per side and kind the runs, the exit
codes, the runs with a traceback and those with a ``RuntimeWarning``, an
example of each, and the commands whose exit code or outputs differ from the
parent's. The exit code is 1 when the change side raises, warns, leaves files
after a failed run, or does not repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [*range(1, 11), 4242]
WORKLOADS = ("deoc-mixed", "dfec-sweep", "dfec-optimize")
COSTS = "dfec-costs"
STATES = "deoc-states"
STATE_COMMANDS = 600
STATE_KINDS = ("angle", "speed", "mixed", "huge speed")
COST_OPTIONS = {"100 s": {}, "40 s": {"horizon": 40.0},
                "40 s, load step at 0.7 s": {"horizon": 40.0, "t_disturbance": 0.7}}
RANDOM_MODELS = 300
LAGS = ("t1", "t2", "t3", "t4", "t5", "t6")
BUNDLED_DFEC = {"dfec-sweep": ("sweep",), "dfec-optimize": ("simulate", "optimize")}
# A skip reason's "min |h| = ..." is the smallest sampled |h|; near a
# cancellation its digits follow rounding, so skips compare without it.
MIN_H = re.compile(r"min \|h\| = [^,]*")


def bench_module():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(work: Path, seeds, workload: str = "deoc-mixed") -> list[dict]:
    """Every seed's commands, with their input files written under ``work``;
    each command's ``argv`` leaves out the value of its ``--out``."""
    bench = bench_module()
    commands = []

    def add(name, argv):
        argv = [str(a) for a in argv]
        at = argv.index("--out") + 1
        commands.append({"id": name, "argv": argv[:at] + argv[at + 1:], "out_at": at,
                         "out_is_dir": argv[0] == "deoc"})

    for seed in seeds:
        seed_dir = work / f"seed{seed}"
        seed_dir.mkdir()
        rng = random.Random(f"{workload}/{seed}")
        _, argvs, _, _ = bench.WORKLOADS[workload](rng, bench.SPEC["run_seconds"], seed_dir)
        if workload == "dfec-sweep":
            argvs = argvs[:1]       # the workload's second sweep repeats its first
        for k, argv in enumerate(argvs):
            what = f"{argv[0]} {Path(argv[2]).stem}" if argv[0] != "dfec" else f"dfec {argv[1]}"
            add(f"seed {seed} #{k} {what}", argv)
    bundled = bench.DATA / "dfec_twomachine.json"
    for command in BUNDLED_DFEC.get(workload, ()):
        add(f"bundled dfec {command}", ["dfec", command, "--scenario", bundled, "--out", "-"])
    return commands


def state_inputs() -> list[dict]:
    """The ``deoc-states`` commands: each a system file, a scenario without
    its disturbance's ``x0``, and the state's offset ``dx`` from the
    equilibrium."""
    data = bench_module().DATA
    rng = random.Random(STATES)
    commands = []
    for k in range(STATE_COMMANDS):
        system = data / ("wscc9.json", "ieee39.json")[k % 2]
        m = sum(not g.get("infinite") for g in json.loads(system.read_text())["generators"])
        kind = STATE_KINDS[k // 2 % len(STATE_KINDS)]
        dx, j, sign = [0.0] * (2 * m), rng.randrange(m), rng.choice((-1.0, 1.0))
        if kind == "angle":
            dx[j] = sign * 10.0 ** rng.uniform(-6.0, 0.0)
        elif kind == "speed":
            dx[m + j] = sign * 10.0 ** rng.uniform(-6.0, -1.0)
        elif kind == "mixed":
            dx = [rng.gauss(0.0, 0.05) if rng.random() < 0.3 else 0.0 for _ in dx]
        else:
            dx[m + j] = sign * 10.0 ** rng.uniform(100.0, 160.0)
        scenario = {"schema_version": 1, "kind": "deoc", "name": f"{STATES} {k}",
                    "disturbance": {"kind": "initial-state", "t0": 0.0},
                    "t_end": rng.uniform(1.0, 10.0), "stage_window": rng.uniform(0.5, 10.0),
                    "n_targets": rng.randint(1, m)}
        commands.append({"id": f"state {k} {system.stem} {kind}", "kind": kind,
                         "system": str(system), "scenario": scenario, "dx": dx})
    return commands


def state_record(cli, cmd: dict, out_dir: Path) -> dict:
    """Run one ``deoc-states`` command: its exit code (``None`` when an
    exception escapes ``main``), that exception, the ``RuntimeWarning``s, the
    SHA-256 of each output file, stdout and stderr."""
    import warnings

    x_eq = cli._system(cmd["system"])[1].x_eq
    doc = cmd["scenario"]
    doc["disturbance"]["x0"] = [float(v) for v in x_eq + cmd["dx"]]
    scenario, out = out_dir / "state.json", out_dir / "o"
    scenario.write_text(json.dumps(doc))
    stdout, stderr, raised = io.StringIO(), io.StringIO(), None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(["deoc", "--system", cmd["system"], "--scenario", str(scenario),
                             "--out", str(out)])
        except Exception as exc:    # a traceback is what this workload counts
            code, raised = None, f"{type(exc).__name__}: {exc}"
    files = sorted(out.iterdir()) if out.is_dir() else []
    record = {"id": cmd["id"], "kind": cmd["kind"], "code": code, "traceback": raised,
              "runtime_warnings": [str(w.message) for w in caught
                                   if issubclass(w.category, RuntimeWarning)],
              "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}
    shutil.rmtree(out, ignore_errors=True)
    return record


def cost_inputs() -> list[dict]:
    """One ``dfec-costs`` record request per option set, all with the same
    seeded actions (``None`` = uncontrolled, else ``[dp, t_on, t_off]``),
    and one with the ``random_models``."""
    rng = random.Random(COSTS)
    actions = [None, [0.0, 1.0, 5.0], [0.2, 3.0, 1e3], [4.0, 1.0, 10.0], [0.08, 12.0, 50.0],
               [0.08, 12.0, 16.0]]
    for _ in range(20):
        dp, t_on = rng.uniform(0.0, 0.25), rng.choice([0.0, rng.uniform(0.0, 10.0)])
        actions += [[dp, t_on, t_on + rng.uniform(0.01, 40.0)] for _ in range(3)]
    scenario = bench_module().DATA / "dfec_twomachine.json"
    return [*({"id": name, "scenario": str(scenario), "sim": sim, "actions": actions}
              for name, sim in COST_OPTIONS.items()),
            {"id": "random models", "scenario": str(scenario),
             "models": random_models(scenario, RANDOM_MODELS)}]


def random_models(scenario: Path, count: int) -> list[dict]:
    """``count`` seeded models around the bundled one, as overrides of its
    ``model``, ``governor`` and ``sim``, each with one action or ``None``."""
    doc = json.loads(scenario.read_text())
    rng = random.Random(f"{COSTS}/models")

    def scaled(value, lo, hi):
        return value * lo * (hi / lo) ** rng.random()

    models = []
    for _ in range(count):
        disturbance = rng.uniform(0.05, 0.5)
        load = doc["model"]["p_set"] + disturbance
        governor = {k: scaled(doc["governor"][k], 0.3, 3.0) for k in LAGS}
        governor.update(k1=scaled(doc["governor"]["k1"], 0.5, 2.0),
                        p_max=load + rng.uniform(0.05, 0.6), p_min=load - rng.uniform(0.05, 0.6))
        model = {"h1": rng.uniform(0.5, 8.0), "h2": rng.uniform(0.5, 8.0),
                 "d1": rng.uniform(0.0, 4.0), "d2": rng.uniform(0.0, 4.0),
                 "x": rng.uniform(0.2, 0.6)}
        sim = {"horizon": rng.choice([40.0, 100.0]), "disturbance": disturbance}
        action = None
        if rng.random() >= 0.15:
            t_on = rng.choice([0.0, rng.uniform(0.0, 10.0)])
            action = [rng.uniform(0.0, 0.3), t_on, t_on + rng.uniform(0.01, 40.0)]
        models.append({"model": model, "governor": governor, "sim": sim, "action": action})
    return models


@contextlib.contextmanager
def counting_settled(fq):
    """Within, ``fq._settled`` counts the lanes it is asked about, one per
    accepted last-piece step of a cost run (a float run is one lane), in the
    yielded dict's ``"steps"``."""
    import numpy as np

    real, counter = fq._settled, {"steps": 0}

    def settled(settling, y, low):
        counter["steps"] += int(np.size(low))
        return real(settling, y, low)

    fq._settled = settled
    try:
        yield counter
    finally:
        fq._settled = real


def cost_record(cmd: dict) -> dict:
    """The floats of one ``dfec-costs`` request as hex strings, by what they
    are, and the accepted last-piece steps of its cost runs and its sweep."""
    from dataclasses import replace

    from gridstep import frequency as fq
    from gridstep.scenario import load_scenario

    def summary_hex(run):
        return [float(v).hex() for v in (*run[:3], *run[3])]

    def settling_sha256(model, action, opts):
        s = fq._settling(model, *fq._pieces(model, action, opts)[-1][2:])
        parts = [float(v).hex() for v in (s.fastest, s.angle_room, s.command_room)]
        parts += ["None" if a is None else a.tobytes().hex() for a in (s.inv_v, s.weights)]
        return hashlib.sha256(" ".join(parts).encode()).hexdigest()

    scn = load_scenario(Path(cmd["scenario"]))
    values = {}
    with counting_settled(fq) as counter:
        if "models" in cmd:
            for k, spec in enumerate(cmd["models"]):
                model = replace(scn.model, gov=replace(scn.model.gov, **spec["governor"]),
                                **spec["model"])
                action = None if spec["action"] is None else fq.DfecAction(*spec["action"])
                opts = replace(scn.sim, **spec["sim"])
                run = fq.nadir_cost(model, action, opts, summary=True)
                values[f"model {k} {spec['action']}: w_ss, nadir, cost, dips"] = summary_hex(run)
                values[f"model {k} {spec['action']}: last piece's _settling SHA-256"] = [
                    settling_sha256(model, action, opts)]
            steps = {"costs": counter["steps"]}
        else:
            opts, shared = replace(scn.sim, **cmd["sim"]), {}
            for action in cmd["actions"]:
                dfec_action = None if action is None else fq.DfecAction(*action)
                for how, records in (("alone", None), ("shared", shared)):
                    run = fq.nadir_cost(scn.model, dfec_action, opts, records, summary=True)
                    values[f"{action} {how}: w_ss, nadir, cost, dips"] = summary_hex(run)
            steps, counter["steps"] = {"costs": counter["steps"]}, 0
            grid = fq.contour_sweep(scn.model, scn.sweep_dp, scn.sweep_t_on, scn.sweep_t_off,
                                    opts)
            values["bundled sweep cells"] = [float(v).hex() for v in grid.ravel()]
            steps["sweep"] = counter["steps"]
    return {"id": cmd["id"], "values": values, "steps": steps}


def worker(src: Path, commands_path: Path, out_dir: Path) -> None:
    """Run the commands with the gridstep of ``src``; print one JSON record each."""
    sys.path.insert(0, str(src))
    import gridstep.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported gridstep from {cli.__file__}, not {src}")
    for cmd in json.loads(commands_path.read_text()):
        if "dx" in cmd:
            print(json.dumps(state_record(cli, cmd, out_dir)), flush=True)
            continue
        if "scenario" in cmd:
            print(json.dumps(cost_record(cmd)), flush=True)
            continue
        out = out_dir / "o" if cmd["out_is_dir"] else out_dir / "o.json"
        argv, at = cmd["argv"], cmd["out_at"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv[:at] + [str(out)] + argv[at:])
        files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
        record = {"id": cmd["id"], "command": argv[0], "code": code, "stdout": stdout.getvalue(),
                  "stderr": stderr.getvalue(),
                  "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}}
        if argv[:2] == ["dfec", "sweep"] and out.is_file():
            with open(out, newline="") as fh:
                record["cells"] = list(csv.reader(fh))
        if (out / "schedule.json").is_file():
            doc = json.loads((out / "schedule.json").read_text())
            record["stages"] = [(s["target_modes"], s["t_on"], s["t_off"]) for s in doc["stages"]]
            record["skipped"] = [(s["target"], s["reason"]) for s in doc["skipped"]]
            record["h_residual"] = [s["h_residual"] for s in doc["stages"]]
        print(json.dumps(record), flush=True)
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink(missing_ok=True)


def run_side(tree: Path, commands_path: Path, scratch: Path) -> dict:
    scratch.mkdir()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                           str(tree / "src"), str(commands_path), str(scratch)],
                          capture_output=True, text=True, check=True)
    return {r["id"]: r for r in map(json.loads, proc.stdout.splitlines())}


# The outputs of a ``deoc-mixed`` command that no schedule feeds, and those
# that one does.
SCHEDULE_FREE = {"deoc": ("uncontrolled.csv",), "modes": ("o.json",)}
SCHEDULE_FED = {"deoc": ("controlled.csv", "controlled.json", "schedule.json")}


def largest_h_residual(side: dict) -> dict:
    """The largest ``h_residual`` of any stage in ``schedule.json``, and where."""
    value, at = max(((h, cid) for cid, rec in side.items() for h in rec.get("h_residual", [])),
                    default=(None, None))
    return {"value": value, "at": at}


def differing_outputs(parent: dict, change: dict, outputs: dict) -> tuple[int, list]:
    """How many of the files ``outputs`` names per command were compared, and
    those whose SHA-256 differs (or that one side did not write)."""
    compared, differ = 0, []
    for cid, old in parent.items():
        for name in outputs.get(old["command"], ()):
            compared += 1
            if name not in old["sha256"] or old["sha256"][name] != change[cid]["sha256"].get(name):
                differ.append({"id": cid, "file": name})
    return compared, differ


def compare(parent: dict, change: dict) -> dict:
    stage_diff, skip_diff, min_h_diff, stdout_diff, stderr_diff = [], [], [], [], []
    free_compared, free_diff = differing_outputs(parent, change, SCHEDULE_FREE)
    fed_compared, fed_diff = differing_outputs(parent, change, SCHEDULE_FED)
    worst = {"t_on": (0.0, None), "t_off": (0.0, None)}
    for cid, old in parent.items():
        new = change[cid]
        if old["stdout"] != new["stdout"]:
            stdout_diff.append({"id": cid, "parent": old["stdout"], "change": new["stdout"]})
        if old["stderr"] != new["stderr"]:
            stderr_diff.append({"id": cid, "parent": old["stderr"], "change": new["stderr"]})
        if "stages" not in old and "stages" not in new:
            continue
        old_stages, new_stages = old.get("stages", []), new.get("stages", [])
        if [s[0] for s in old_stages] != [s[0] for s in new_stages]:
            stage_diff.append({"id": cid,
                               "parent": {"stages": old_stages, "skipped": old.get("skipped")},
                               "change": {"stages": new_stages, "skipped": new.get("skipped")}})
            continue
        if old.get("skipped") != new.get("skipped"):
            masked = [[(t, MIN_H.sub("min |h| = ?", r)) for t, r in rec.get("skipped", [])]
                      for rec in (old, new)]
            (skip_diff if masked[0] != masked[1] else min_h_diff).append(
                {"id": cid, "parent": old.get("skipped"), "change": new.get("skipped")})
        for (_, on_a, off_a), (_, on_b, off_b) in zip(old_stages, new_stages):
            for key, delta in (("t_on", abs(on_a - on_b)), ("t_off", abs(off_a - off_b))):
                if delta > worst[key][0]:
                    worst[key] = (delta, cid)
    return {"commands": len(parent), "stages_differ": stage_diff, "skips_differ": skip_diff,
            "skips_differ_in_min_h_only": min_h_diff,
            "max_abs_dt_on_s": {"value": worst["t_on"][0], "at": worst["t_on"][1]},
            "max_abs_dt_off_s": {"value": worst["t_off"][0], "at": worst["t_off"][1]},
            "max_h_residual": {"parent": largest_h_residual(parent),
                               "change": largest_h_residual(change)},
            "schedule_free_outputs_compared": free_compared,
            "schedule_free_outputs_differ": free_diff,
            "schedule_fed_outputs_compared": fed_compared,
            "schedule_fed_outputs_differ": fed_diff,
            "stdout_differs": len(stdout_diff), "stderr_differs": len(stderr_diff),
            "stdout_examples": stdout_diff[:5], "stderr_examples": stderr_diff[:5]}


def compare_outputs(parent: dict, change: dict) -> dict:
    """The commands whose exit code, stdout, stderr or output files differ,
    and the printed sweep cells that move, ``(t_on, t_off)`` as printed."""
    differ, moved = [], []
    for cid, old in parent.items():
        new = change[cid]
        fields = [k for k in ("code", "stdout", "stderr", "sha256") if old.get(k) != new.get(k)]
        if fields:
            differ.append({"id": cid, "fields": fields})
        if "cells" in old and "cells" in new:
            header = old["cells"][0]
            for row_a, row_b in zip(old["cells"][1:], new["cells"][1:]):
                moved += [{"id": cid, "t_on": row_a[0], "t_off": header[j], "parent": a,
                           "change": b}
                          for j, (a, b) in enumerate(zip(row_a, row_b)) if a != b]
    return {"commands": len(parent), "differ": differ, "moved_cells": moved}


def compare_costs(parent: dict, change: dict) -> dict:
    """Each list of floats whose bits differ, with the positions that do."""
    differ, compared = [], 0
    for cid, old in parent.items():
        new = change[cid]["values"]
        for what, values in old["values"].items():
            compared += len(values)
            moved = [i for i, (a, b) in enumerate(zip(values, new.get(what, []))) if a != b]
            if moved or len(values) != len(new.get(what, [])):
                differ.append({"id": cid, "what": what, "at": moved,
                               "parent": values, "change": new.get(what)})
    return {"requests": len(parent), "floats_compared": compared, "differ": differ,
            "last_piece_steps": {side: {cid: rec["steps"] for cid, rec in runs.items()}
                                 for side, runs in (("parent", parent), ("change", change))}}


def state_counts(side: dict) -> dict:
    """Per kind of state: the runs, each exit code, the runs with a
    traceback, with a ``RuntimeWarning`` and with files left by a failed run,
    and one example of each of the last three."""
    counts = {}
    for rec in side.values():
        row = counts.setdefault(rec["kind"], {"runs": 0, "exit 0": 0, "exit 1": 0, "exit 2": 0,
                                              "traceback": 0, "RuntimeWarning": 0,
                                              "files after a failed run": 0, "examples": {}})
        row["runs"] += 1
        if rec["code"] is not None:
            row[f"exit {rec['code']}"] += 1
        found = {"traceback": rec["traceback"], "RuntimeWarning": rec["runtime_warnings"],
                 "files after a failed run": rec["code"] != 0 and bool(rec["sha256"])}
        for what, seen in found.items():
            if seen:
                row[what] += 1
                row["examples"].setdefault(what, {"id": rec["id"], "seen": seen})
    return counts


def compare_states(parent: dict, change: dict) -> dict:
    """Both sides' :func:`state_counts`, and the commands whose exit code, or
    whose outputs where both exit 0, differ."""
    code_diff = [{"id": cid, "parent": old["code"], "change": change[cid]["code"]}
                 for cid, old in parent.items() if old["code"] != change[cid]["code"]]
    output_diff = [cid for cid, old in parent.items()
                   if old["code"] == change[cid]["code"] == 0
                   and old["sha256"] != change[cid]["sha256"]]
    return {"commands": len(parent),
            "by_kind": {"parent": state_counts(parent), "change": state_counts(change)},
            "exit_codes_differ": code_diff, "outputs_differ": output_diff}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="commit to compare against")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    parser.add_argument("--workload", choices=(*WORKLOADS, COSTS, STATES), default="deoc-mixed",
                        help="bench workload whose commands are compared (default "
                             "deoc-mixed), dfec-costs or deoc-states")
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "COMMANDS", "SCRATCH"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*map(Path, args.worker))
        return 0
    if not args.parent:
        parser.error("--parent is required")

    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="compare_deoc_"))
    try:
        parent_tree = tmp / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        (tmp / "inputs").mkdir()
        commands_path = tmp / "commands.json"
        commands_path.write_text(json.dumps(
            cost_inputs() if args.workload == COSTS else state_inputs()
            if args.workload == STATES else write_inputs(tmp / "inputs", SEEDS, args.workload)))

        parent = run_side(parent_tree, commands_path, tmp / "run_parent")
        change = run_side(ROOT, commands_path, tmp / "run_change")
        repeat = run_side(ROOT, commands_path, tmp / "run_repeat")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    kept = ("code", "stdout", "stderr", "sha256", "values", "steps", "traceback",
            "runtime_warnings")
    not_repeated = [cid for cid, rec in change.items()
                    if [rec.get(k) for k in kept] != [repeat[cid].get(k) for k in kept]]
    deoc = args.workload == "deoc-mixed"
    sides = {"deoc-mixed": compare, COSTS: compare_costs, STATES: compare_states}.get(
        args.workload, compare_outputs)
    report = {"parent_commit": commit,
              "seeds": None if args.workload in (COSTS, STATES) else SEEDS,
              "parent_vs_change": sides(parent, change),
              "change_repeat_not_identical": not_repeated}
    if not deoc:
        report = {"workload": args.workload, **report}
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    diff = report["parent_vs_change"]
    if args.workload == STATES:
        bad = ("traceback", "RuntimeWarning", "files after a failed run")
        return 1 if not_repeated or any(row[what] for row in diff["by_kind"]["change"].values()
                                        for what in bad) else 0
    if not deoc:
        return 1 if diff["differ"] or not_repeated else 0
    return 1 if (diff["stages_differ"] or diff["skips_differ"]
                 or diff["schedule_free_outputs_differ"] or not_repeated) else 0


if __name__ == "__main__":
    sys.exit(main())
