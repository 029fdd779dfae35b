"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 -m pytest bench/test_bench.py -q

Takes about a minute on a 2-core box; the tier-1 suite does not collect
it (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
import gridstep.cli as cli  # noqa: E402

SUMMARY_METRICS = ("setup_s", "wall_s", "cmd_p50_s", "cmd_tail_s", "cells_per_s",
                 "optimum_cost", "peak_rss_mb", "failed_ratio")
EXACT_COUNTS = ("frequency.rhs_calls", "frequency.solve_ivp.calls",
                "frequency.nadir_cost.calls", "oscillation.find_switch_off.calls")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], result


def tiny_dfec(tmp_path, **sections) -> Path:
    doc = json.loads((run.DATA / "dfec_twomachine.json").read_text())
    doc["sim"]["horizon"] = 10.0
    doc.update(sections)
    return run.write_json(tmp_path / "tiny.json", doc)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_prints_with_unit(workload):
    summary, result = result_of(bench("--workload", workload, "--seed", 7,
                                      "--seconds", 1, "--trace", 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in run.SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    for name in SUMMARY_METRICS:
        assert re.search(rf"^\s+{name}\s+\S+\s+\S+", "\n".join(summary), re.M), name


def test_traced_run_reports_every_layer_metric():
    _, result = result_of(bench("--workload", "deoc-mixed", "--seed", 7,
                                "--seconds", 1, "--trace", 1))
    assert result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in run.SPEC["per_layer"]]
    assert result["metrics"]["oscillation.find_switch_off.calls"]["value"] > 0


def test_exact_counts_repeat(tmp_path):
    axis = {"start": 0.5, "stop": 4.5, "count": 2}
    scenario = tiny_dfec(tmp_path, sweep={"dp": 0.1, "t_on": axis, "t_off": axis})
    counts, original = [], cli.main
    for k in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main(["dfec", "sweep", "--scenario", str(scenario),
                             "--out", str(tmp_path / f"sweep{k}.csv")]) == 0
        finally:
            tracer.uninstall()
        counts.append({n: tracer.layer_metrics()[n] for n in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["frequency.nadir_cost.calls"] == 1      # one cell has t_on < t_off
    assert counts[0]["frequency.rhs_calls"] > 0
    assert cli.main is original


def test_altered_sweep_cell_is_caught(tmp_path):
    t_on, t_off = [0.5, 4.5], [3.0, 6.0]
    sweep = {"dp": 0.1, "t_on": {"start": 0.5, "stop": 4.5, "count": 2},
             "t_off": {"start": 3.0, "stop": 6.0, "count": 2}}
    scenario = tiny_dfec(tmp_path, sweep=sweep)
    out = tmp_path / "sweep.csv"
    assert cli.main(["dfec", "sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
    doc = json.loads(scenario.read_text())
    cells = [(0, 0), (0, 1), (1, 1)]

    client = run.Client(cli)
    op = client.run(["validate", "--scenario", scenario])
    assert run.check_sweep(client, op, tmp_path, doc, out, t_on, t_off, cells) is not None
    assert client.failed == 0

    rows = [line.split(",") for line in out.read_text().splitlines()]
    rows[2][2] = f"{float(rows[2][2]) + 0.01:.6f}"             # t_on 4.5, t_off 6.0
    out.write_text("\n".join(",".join(r) for r in rows) + "\n")
    run.check_sweep(client, op, tmp_path, doc, out, t_on, t_off, [(1, 1)])
    assert client.failed == 1

    rows[2][1] = "1.0"                                         # t_on 4.5 >= t_off 3.0
    out.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert run.read_sweep(out, t_on, t_off)[1]


def test_swapped_energies_are_caught(tmp_path):
    out = tmp_path / "deoc"
    assert cli.main(["deoc", "--system", str(run.DATA / "wscc9.json"),
                     "--scenario", str(run.DATA / "scenario_wscc9.json"),
                     "--out", str(out)]) == 0
    assert run.check_deoc_output(out) == []
    doc = json.loads((out / "schedule.json").read_text())
    stage = doc["stages"][0]
    stage["energy_on"], stage["energy_off"] = stage["energy_off"], stage["energy_on"]
    (out / "schedule.json").write_text(json.dumps(doc))
    assert run.check_deoc_output(out)


def test_bad_optimum_and_repeat_mismatch_are_caught(tmp_path):
    bounds = {"dp_max": 0.1, "t_on_max": 3.0, "t_off_max": 15.0}
    good = {"cost": 0.02, "uncontrolled_cost": 0.04,
            "action": {"dp": 0.09, "t_on": 1.0, "t_off": 12.0}}
    assert run.check_optimum(good, bounds) == []
    assert run.check_optimum({**good, "cost": 0.05}, bounds)
    assert run.check_optimum({**good, "action": {"dp": 0.2, "t_on": 1.0, "t_off": 12.0}},
                             bounds)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,x\n0,1.000000000000e+00\n")
    b.write_text("t,x\n0,1.000000000001e+00\n")
    client = run.Client(cli)
    op = client.run(["validate", "--scenario", run.DATA / "dfec_twomachine.json"])
    run.compare_outputs(client, op, [a], [a])
    assert client.failed == 0
    run.compare_outputs(client, op, [a], [b])
    assert client.failed == 1


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "dfec-sweep", "--seed", 1, "--seconds", 1, "--trace", 0,
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
