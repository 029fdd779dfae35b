"""DEOC time-domain simulation: disturbance application, exact piecewise-modal
propagation across switching events, and trajectory recording/export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ModelError, ScheduleError
from .fileio import write_csv
from .modal import ModalBasis, orbit_value, propagate
from .network import ReducedModel
from .oscillation import DeocSchedule, oscillation_energy, switching_function


@dataclass(frozen=True)
class Disturbance:
    """Either an explicit post-fault state or a power-pulse approximation.

    ``initial-state``: the trajectory starts from ``x0`` at ``t0`` (the
    primary interface; a bolted fault has no DC-linear representation, so
    callers supply the post-clearing state directly).

    ``power-pulse``: a constant injection of ``magnitude`` pu at ``bus``
    during ``[start, start + duration]`` starting from equilibrium, which
    emulates a fault's accelerating-power effect within the linear model.
    """

    kind: str  # "initial-state" | "power-pulse"
    x0: np.ndarray | None = None
    t0: float = 0.0
    bus: int | None = None
    magnitude: float = 0.0
    start: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("initial-state", "power-pulse"):
            raise DimensionError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "power-pulse" and self.duration <= 0.0:
            raise DimensionError("power pulse requires duration > 0")


@dataclass
class Trajectory:
    """Sampled states plus per-sample diagnostics and an event log."""

    t: np.ndarray
    x: np.ndarray                      # (n_samples, 2m)
    ek: np.ndarray                     # oscillation energy
    orbit: np.ndarray                  # orbit value w.r.t. the active center
    h: np.ndarray                      # switching-function value (NaN if n/a)
    stage: np.ndarray                  # active stage id, -1 when inactive
    events: list[tuple[float, str]] = field(default_factory=list)
    machine_buses: tuple[int, ...] = ()

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise DimensionError("trajectory time stamps must be strictly increasing")

    @property
    def n_machines(self) -> int:
        return self.x.shape[1] // 2

    def columns(self) -> list[str]:
        m = self.n_machines
        buses = self.machine_buses or tuple(range(1, m + 1))
        names = ["t"]
        names += [f"delta_{b}" for b in buses]
        names += [f"omega_{b}" for b in buses]
        names += ["ek", "orbit_value", "h", "stage"]
        return names

    def to_csv(self, path) -> None:
        n = self.x.shape[1]
        write_csv(path, self.columns(), ["%.9f"] + ["%.12e"] * (n + 3) + ["%d"],
                  [self.t, *self.x.T, self.ek, self.orbit, self.h, self.stage])

    def to_json(self, path) -> None:
        """The column names of ``to_csv`` and the event log; the samples are
        in the CSV."""
        doc = {"columns": self.columns(),
               "events": [{"t": t, "label": label} for t, label in self.events]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def apply_disturbance(model: ReducedModel, basis: ModalBasis, dist: Disturbance):
    """Resolve a disturbance into the post-disturbance ``(t0, x0)``. The state,
    its oscillation energy and its orbit value about ``x_e`` (conserved, so it
    bounds every later state) times the fastest mode's squared frequency must
    be finite, else :class:`DimensionError`: the switch-time searches take
    slopes of functions of time that grow as that product."""
    if dist.kind == "initial-state":
        x0 = np.asarray(dist.x0, dtype=float)
        if x0.shape != model.x_eq.shape:
            raise DimensionError(f"x0 has shape {x0.shape}, expected {model.x_eq.shape}")
        t0, cause = dist.t0, "disturbance.x0"
    else:
        col = _injection_column(model, dist.bus)
        with np.errstate(over="ignore", invalid="ignore"):
            delta_pulse = model.delta_eq - np.linalg.solve(model.b_red, col * dist.magnitude)
            center = np.concatenate([delta_pulse, np.ones(model.n_machines)])
            x0 = propagate(basis, center, model.x_eq, dist.duration)
        t0, cause = dist.start + dist.duration, f"disturbance.magnitude = {dist.magnitude:g} pu"
    with np.errstate(over="ignore", invalid="ignore"):
        energy, orbit = oscillation_energy(model, x0), orbit_value(basis, model.x_eq, x0)
        reach = orbit * basis.omega.max() ** 2
    if not (np.isfinite(x0).all() and np.isfinite(energy) and np.isfinite(reach)):
        what = ("an oscillation energy" if not np.isfinite(energy) else "an orbit value"
                if not np.isfinite(orbit) else
                "an orbit value times the fastest mode's squared frequency")
        raise DimensionError(f"{cause} leaves {what} beyond the float range")
    return t0, x0


def _injection_column(model: ReducedModel, bus: int) -> np.ndarray:
    """Map of a 1 pu injection at ``bus`` onto machine electrical powers."""
    if bus in model.load_buses:
        return model.b_load[:, model.load_buses.index(bus)]
    if bus in model.machine_buses:
        # Injection at a machine node offsets its own electrical power.
        col = np.zeros(model.n_machines)
        col[model.machine_buses.index(bus)] = -1.0
        return col
    raise ModelError(f"unknown or reference bus {bus}")


def _segments(model, schedule: DeocSchedule, t0: float, t_end: float):
    """``(t_start, center, stage_id, x_h)`` pieces covering ``[t0, t_end]``;
    ``x_h`` is the ``x_c`` of the ``h`` column: the active stage's, else the
    next stage's, else ``None``."""
    if t_end < t0:
        raise ScheduleError(f"t_end = {t_end:.6g} s is before the disturbance ends at {t0:.6g} s")
    stages = schedule.stages  # ordered and disjoint (DeocSchedule checks)
    if stages and stages[0].t_on < t0 - 1e-12:
        raise ScheduleError(f"schedule starts at {stages[0].t_on:.6g} s, "
                            f"before the disturbance ends at {t0:.6g} s")
    if stages and stages[-1].t_off > t_end + 1e-9:
        raise ScheduleError(
            f"schedule ends at {stages[-1].t_off:.6g} s, after t_end = {t_end:.6g} s")
    x_cs = [st.x_c for st in stages] + [None]
    segs = [(t0, model.x_eq, -1, x_cs[0])]
    for k, st in enumerate(stages):
        segs += [(st.t_on, st.x_c, k, st.x_c), (st.t_off, model.x_eq, -1, x_cs[k + 1])]
    return segs


def simulate_deoc(
    model: ReducedModel,
    basis: ModalBasis,
    disturbance: Disturbance,
    schedule: DeocSchedule,
    t_end: float,
    dt_out: float,
) -> Trajectory:
    """Exact piecewise closed-form trajectory with switching events.

    The state is continuous across every switch; only the orbit center
    alternates between ``x_e`` and the active stage's ``x_c``.
    """
    t0, x0 = apply_disturbance(model, basis, disturbance)
    segs = _segments(model, schedule, t0, t_end)

    t_grid = np.arange(t0, t_end + 0.5 * dt_out, dt_out)
    samples = np.empty((len(t_grid), len(x0)))
    orbit = np.empty(len(t_grid))
    h_vals = np.full(len(t_grid), np.nan)
    stage_ids = np.full(len(t_grid), -1, dtype=int)

    events: list[tuple[float, str]] = []
    if disturbance.kind == "power-pulse":
        events.append((disturbance.start, "fault-on"))
    events.append((t0, "fault-clear"))

    x_seg = x0
    for si, (t_start, center, stage_id, x_h) in enumerate(segs):
        if si > 0:
            # advance the running state exactly to this segment boundary
            prev_start, prev_center = segs[si - 1][:2]
            x_seg = propagate(basis, prev_center, x_seg, t_start - prev_start)
            events.append((t_start, "switch-on" if stage_id >= 0 else "switch-off"))
        t_next = segs[si + 1][0] if si + 1 < len(segs) else np.inf
        mask = (t_grid >= t_start - 1e-12) & (t_grid < t_next - 1e-12)
        xs = propagate(basis, center, x_seg, t_grid[mask] - t_start)
        samples[mask] = xs
        orbit[mask] = orbit_value(basis, center, xs)
        stage_ids[mask] = stage_id
        if x_h is not None:
            h_vals[mask] = switching_function(basis, model.x_eq, x_h, xs)

    ek = oscillation_energy(model, samples)
    events.sort(key=lambda ev: ev[0])
    return Trajectory(
        t=t_grid,
        x=samples,
        ek=ek,
        orbit=orbit,
        h=h_vals,
        stage=stage_ids,
        events=events,
        machine_buses=model.machine_buses,
    )

