"""Span tracer for the traced benchmark run.

Wraps the public functions of every ``gridstep`` module, in their home
module and wherever another gridstep module (``cli`` in particular)
imported them by name, plus a few third-party calls that dominate a layer
(``frequency.solve_ivp``, ``frequency.minimize``). Nothing in ``src/`` is
edited: the wrappers are installed by attribute assignment and removed by
:meth:`Tracer.uninstall`.

Each call records a span ``(id, name, start, end, parent, run, thread)``
in memory; ``run`` is the index of the enclosing ``cli.main`` call, so the
spans of one CLI command share it. Spans are written out once, when the
benchmark run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import threading
import time

LAYERS = ("scenario", "network", "modal", "oscillation", "simulate", "frequency", "cli")

# Third-party callables traced in the namespace that imported them.
FOREIGN = {"frequency": ("solve_ivp", "minimize")}

# Trajectory export methods, traced together as one span name.
TRAJECTORY_WRITE = "simulate.trajectory_write"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._next_id = 0
        self._run = -1
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def _open(self, name: str) -> tuple[int, int | None]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # A pool thread inherits the span the main thread is blocked in.
            main_stack = self._stacks.get(self._main) or [None]
            parent = main_stack[-1] if tid != self._main else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            if name == "cli.main":
                self._run += 1
        stack.append(sid)
        return sid, parent

    def _close(self, sid, name, parent, start, end) -> None:
        self._stacks[threading.get_ident()].pop()
        self.spans.append((sid, name, start, end, parent, self._run, threading.get_ident()))

    def _wrap(self, func, name, after=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(sid, name, parent, start, time.perf_counter())
            if after is not None:
                after(result, args)
            return result

        return traced

    # ----------------------------------------------------------- installing
    def install(self) -> None:
        modules = {m: importlib.import_module(f"gridstep.{m}") for m in LAYERS}
        homes = {f"gridstep.{m}": m for m in LAYERS}
        wrappers: dict[int, object] = {}
        for ns_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr in FOREIGN.get(ns_name, ()):
                    name = f"{ns_name}.{attr}"
                    self._patch(mod, attr, self._wrap(obj, name, self._after(name)))
                elif self._traced(obj, homes):
                    if id(obj) not in wrappers:
                        name = f"{homes[obj.__module__]}.{obj.__name__}"
                        wrappers[id(obj)] = self._wrap(obj, name, self._after(name))
                    self._patch(mod, attr, wrappers[id(obj)])
        traj = getattr(modules["simulate"], "Trajectory", None)
        for method in ("to_csv", "to_json"):
            if traj is not None and hasattr(traj, method):
                self._patch(traj, method, self._wrap(
                    getattr(traj, method), TRAJECTORY_WRITE, self._count_bytes))

    @staticmethod
    def _traced(obj, homes) -> bool:
        # Of cli's own functions only ``main`` gets a span, so that its self
        # time keeps argument parsing and the JSON/CSV writes done in cmd_*.
        if not inspect.isfunction(obj) or obj.__module__ not in homes:
            return False
        if obj.__name__.startswith("_"):
            return False
        return obj.__module__ != "gridstep.cli" or obj.__name__ == "main"

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # ------------------------------------------------ per-call count hooks
    def _after(self, name):
        hooks = {
            "frequency.solve_ivp": lambda res, args: self.count(
                "frequency.rhs_calls", getattr(res, "nfev", 0)),
            "frequency.minimize": lambda res, args: self.count(
                "frequency.minimize.nit", getattr(res, "nit", 0)),
            "oscillation.build_schedule": self._count_stages,
        }
        return hooks.get(name)

    def _count_stages(self, schedule, args) -> None:
        self.count("oscillation.stages_built", len(getattr(schedule, "stages", ())))
        self.count("oscillation.stages_skipped", len(getattr(schedule, "skipped", ())))

    def _count_bytes(self, result, args) -> None:
        # args = (trajectory, path)
        if len(args) > 1 and os.path.exists(args[1]):
            self.count(f"{TRAJECTORY_WRITE}.bytes", os.path.getsize(args[1]))

    # ------------------------------------------------------------ analysis
    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named in BENCHMARK.json (0 where a layer is idle)."""
        by_name: dict[str, list[tuple]] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)
        selfs = self.self_times()
        names = {sid: name for sid, name, *_ in self.spans}

        def calls(n):
            return len(by_name.get(n, ()))

        def busy(n):
            return sum(s[3] - s[2] for s in by_name.get(n, ()))

        def self_s(n):
            return sum(selfs[s[0]] for s in by_name.get(n, ()))

        def p50(n):
            d = [s[3] - s[2] for s in by_name.get(n, ())]
            return statistics.median(d) if d else 0.0

        def evals_under(parent_name):
            return sum(1 for s in by_name.get("frequency.nadir_cost", ())
                       if names.get(s[4]) == parent_name)

        sweep_busy = busy("frequency.contour_sweep")
        inside = sum(
            s[3] - s[2] for s in by_name.get("frequency.nadir_cost", ())
            if any(w[2] <= s[2] and s[3] <= w[3] for w in by_name.get("frequency.contour_sweep", ()))
        )
        switch_off = calls("oscillation.find_switch_off")
        c = self.counts
        return {
            "scenario.load_scenario.calls": calls("scenario.load_scenario"),
            "scenario.load_scenario.busy_s": busy("scenario.load_scenario"),
            "network.load_grid.busy_s": busy("network.load_grid"),
            "network.build_reduced_model.busy_s": busy("network.build_reduced_model"),
            "modal.analyze.busy_s": busy("modal.analyze"),
            "oscillation.build_schedule.busy_s": busy("oscillation.build_schedule"),
            "oscillation.build_schedule.self_s": self_s("oscillation.build_schedule"),
            "oscillation.find_switch_on.calls": calls("oscillation.find_switch_on"),
            "oscillation.find_switch_on.busy_s": busy("oscillation.find_switch_on"),
            "oscillation.find_switch_off.calls": switch_off,
            "oscillation.find_switch_off.busy_s": busy("oscillation.find_switch_off"),
            "oscillation.stage_yield":
                c.get("oscillation.stages_built", 0) / switch_off if switch_off else 0.0,
            "oscillation.stages_skipped": c.get("oscillation.stages_skipped", 0),
            "simulate.simulate_deoc.calls": calls("simulate.simulate_deoc"),
            "simulate.simulate_deoc.busy_s": busy("simulate.simulate_deoc"),
            "simulate.trajectory_write.busy_s": busy(TRAJECTORY_WRITE),
            "simulate.trajectory_write.bytes": c.get(f"{TRAJECTORY_WRITE}.bytes", 0),
            "frequency.nadir_cost.calls": calls("frequency.nadir_cost"),
            "frequency.nadir_cost.busy_s": busy("frequency.nadir_cost"),
            "frequency.nadir_cost.p50_s": p50("frequency.nadir_cost"),
            "frequency.simulate.calls": calls("frequency.simulate"),
            "frequency.simulate.busy_s": busy("frequency.simulate"),
            "frequency.solve_ivp.calls": calls("frequency.solve_ivp"),
            "frequency.rhs_calls": c.get("frequency.rhs_calls", 0),
            "frequency.contour_sweep.busy_s": sweep_busy,
            "frequency.contour_sweep.concurrency": inside / sweep_busy if sweep_busy else 0.0,
            "frequency.optimize_action.busy_s": busy("frequency.optimize_action"),
            "frequency.optimize.scan_evals": evals_under("frequency.optimize_action"),
            "frequency.optimize.refine_evals": evals_under("frequency.minimize"),
            "frequency.minimize.nit": c.get("frequency.minimize.nit", 0),
            "cli.main.self_s": self_s("cli.main"),
        }

    def write(self, path) -> None:
        """Spans as gzip'd JSON lines, then one line of counts."""
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, run, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "thread": thread}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")
