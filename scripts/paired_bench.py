#!/usr/bin/env python3
"""Paired benchmark runs of the working tree against a parent commit.

Run from the root of the repository:

    python3 scripts/paired_bench.py --parent <commit> --out BENCH_<n>.json \\
        --claim dfec-optimize:wall_s --trace dfec-optimize

Each workload of ``BENCHMARK.json`` runs ``bench/run.py --workload W --seed S
--seconds <run_seconds>`` once per side and seed, one run at a time. Each
side runs in a fresh tree in one temporary directory, removed on exit: the
parent side in a ``git archive`` of ``--parent``, the change side in a copy
of the working tree's tracked files (``git ls-files``, as they are in the
working tree; ``git add`` new files first). Each tree's ``src`` is then
byte-compiled once (``python -m compileall -q src``), and the runs write no
bytecode (``PYTHONDONTWRITEBYTECODE=1``), so both sides read the same kind
of ``__pycache__`` and no run pays the compiler: ``peak_rss_mb`` would
otherwise count the compiler's heap for the largest module,
``frequency.py``. Seeds 1-10
make the pairs, the parent running first on odd seeds and the change first on
even ones; the held-out seed 4242 runs once per side (change first) after
the pairs. ``--trace W`` adds one ``--trace 1`` run of seed 1 per side of
workload W after everything else. The script writes nothing under
``bench/``; ``bench/run.py`` keeps its run records in each tree's
``.bench_work/``, inside the temporary directory.

The output keeps the layout of the earlier ``BENCH_*.json`` records: per
workload the pairs, and per metric the inclusive quartiles of each side over
the ten pair seeds, the pairs in which the change is better or worse, the
relative change of the medians and the metric's bound; the claim (at least
9 of 10 pairs won and a median gap wider than the parent's quartile spread);
the traced layers; and the machine (``nproc`` and versions).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIR_SEEDS = range(1, 11)
HELD_OUT_SEED = 4242


def run_bench(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in ``tree``: its result line, or a failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"metrics": {}, "attempted": 0, "failed": 0, "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}


def compile_tree(tree: Path) -> None:
    """Byte-compile ``tree``'s ``src`` into its ``__pycache__`` folders."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)


def copy_tracked(dest: Path) -> None:
    """Copy the working tree's tracked files, as they are now, into ``dest``
    (a tracked file deleted in the working tree is left out)."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: quartiles per side, pairs won and lost."""
    summary = {}
    for spec in SPEC["end_to_end"]:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if len(both) < 2:
            continue
        parent, change = quartiles([a for a, _ in both]), quartiles([b for _, b in both])
        summary[name] = {
            "parent": parent, "change": change,
            "change_better": sum(sign * (a - b) > 0.0 for a, b in both),
            "change_worse": sum(sign * (b - a) > 0.0 for a, b in both),
            "pairs": len(both),
            "median_change": (change["median"] - parent["median"]) / parent["median"]
            if parent["median"] else 0.0,
            "bound": spec["bound"],
        }
    return summary


def claim_result(workloads: dict, workload: str, metric: str) -> dict:
    """The paired rule on one metric of one workload."""
    stats = workloads[workload]["summary"][metric]
    spec = next(m for m in SPEC["end_to_end"] if m["name"] == metric)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
    spread = stats["parent"]["q3"] - stats["parent"]["q1"]
    held = workloads[workload][f"held_out_seed_{HELD_OUT_SEED}"]
    return {"pairs_won": stats["change_better"], "pairs": stats["pairs"],
            f"median_gap_{spec['unit']}": gap, f"parent_quartile_spread_{spec['unit']}": spread,
            "met": stats["change_better"] >= 9 and gap > spread,
            "median_change": stats["median_change"],
            f"held_out_{HELD_OUT_SEED}_{metric}": {side: held[side].get(metric) for side in held}}


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "parent_tree": "git archive of the parent commit",
            "change_tree": "copy of the working tree's `git ls-files` files"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_12.json")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--trace", default=None, help="workload of the traced seed-1 pair")
    args = parser.parse_args(argv)

    names = [w["name"] for w in SPEC["workloads"]]
    commit = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    tmp = Path(tempfile.mkdtemp(prefix="paired_bench_"))
    try:
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        change = tmp / "change"
        copy_tracked(change)
        sides = {"parent": parent, "change": change}
        for tree in sides.values():
            compile_tree(tree)

        workloads = {}
        for workload in names:
            pairs = []
            for seed in PAIR_SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(sides[side], workload, seed)
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side]['metrics'].get('wall_s', 'failed')}", flush=True)
                pairs.append(pair)
            held = {side: run_bench(sides[side], workload, HELD_OUT_SEED)
                    for side in ("change", "parent")}
            workloads[workload] = {
                "pairs": pairs, "summary": summarize(pairs),
                f"held_out_seed_{HELD_OUT_SEED}": {s: r["metrics"] for s, r in held.items()},
                "failed_total": {s: sum(p[s]["failed"] for p in pairs) + held[s]["failed"]
                                 for s in sides},
                "attempted_total": {s: sum(p[s]["attempted"] for p in pairs)
                                    + held[s]["attempted"] for s in sides},
            }

        record = {
            "what": (f"Alternated parent/change pairs of `python3 bench/run.py --workload W "
                     f"--seed S --seconds {SPEC['run_seconds']}` (end-to-end metrics, tracing "
                     f"off), written by scripts/paired_bench.py; the parent side ran in a "
                     f"`git archive` checkout of the parent commit, the change side in a "
                     f"fresh copy of the working tree's tracked files, both in one temporary "
                     f"directory, one run at a time, parent first on odd seeds and change "
                     f"first on even ones, seeds 1-10 per workload; seed {HELD_OUT_SEED} is "
                     f"the held-out seed, run once per side (change first) after the pairs. "
                     f"Quartiles are statistics.quantiles(method='inclusive') over the ten "
                     f"pair seeds. Each tree's src was byte-compiled once (python -m "
                     f"compileall -q src) before its runs; PYTHONDONTWRITEBYTECODE=1 in "
                     f"the runs."),
            "parent_commit": commit,
        }
        if args.claim:
            workload, metric = args.claim.split(":")
            record["claim"] = {"workload": workload, "metric": metric,
                               "rule": "change wins at least 9 of 10 pairs and the median "
                                       "gap exceeds the parent's quartile spread",
                               "result": claim_result(workloads, workload, metric)}
        record["workloads"] = workloads
        if args.trace:
            traced = {side: run_bench(sides[side], args.trace, 1, trace=1)
                      for side in ("parent", "change")}
            layers = sorted(set(traced["parent"]["metrics"]) | set(traced["change"]["metrics"]))
            record[f"traced_seed_1_{args.trace.replace('-', '_')}"] = {
                "what": "One `--trace 1` run of seed 1 per side, after all pairs (the tracer "
                        "adds overhead to every traced call; compare the rows with each "
                        "other, not with wall_s).",
                "layers": {name: {side: traced[side]["metrics"].get(name) for side in traced}
                           for name in layers}}
        record["environment"] = environment()
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        if args.claim:
            print(json.dumps(record["claim"]["result"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
