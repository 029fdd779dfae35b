"""Scenario file ingestion: disturbance + controller settings for the two
controllers.

A scenario JSON carries everything about a study except the network itself:
for the oscillation controller, the disturbance, targeted mode pairs, and
optional fixed injection vectors; for the frequency controller, the full
two-machine model, simulation options, optimization bounds, and sweep grid.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError
from .fileio import MAX_SAMPLES, read_json, require_grid, shown, validate
from .frequency import (GRID_STARTS, REFINE_STARTS, ActionBounds, DfecAction, GovernorParams,
                        SimOptions, TwoMachineModel)
from .oscillation import SAMPLE_DT
from .simulate import Disturbance

_DISTURBANCE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["initial-state", "power-pulse"]},
        "x0": {"type": "array", "items": {"type": "number"}},
        "t0": {"type": "number"},
        "bus": {"type": "integer"},
        "magnitude": {"type": "number"},
        "start": {"type": "number", "minimum": 0},
        "duration": {"type": "number", "exclusiveMinimum": 0},
    },
}

DEOC_SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "disturbance", "t_end"],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": {"enum": ["deoc"]},
        "name": {"type": "string"},
        "disturbance": _DISTURBANCE_SCHEMA,
        "t_end": {"type": "number", "exclusiveMinimum": 0},
        "dt_out": {"type": "number", "exclusiveMinimum": 0},
        "stage_window": {"type": "number", "exclusiveMinimum": 0},
        "targets": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "n_targets": {"type": "integer", "minimum": 1},
        "dp_overrides_mw": {
            "type": "array",
            "items": {"type": ["null", "array"], "items": {"type": "number"}},
        },
    },
}


def _section(cls, skip=(), **number) -> dict:
    """Schema of a section holding the fields of dataclass ``cls`` (less
    ``skip``) as numbers; the fields without a default are required."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in skip]
    section = {"type": "object", "additionalProperties": False}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    if required:
        section["required"] = required
    section["properties"] = {f.name: {"type": "number", **number} for f in fields}
    return section


_AXIS = {
    "type": "object",
    "additionalProperties": False,
    "required": ["start", "stop", "count"],
    "properties": {
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "count": {"type": "integer", "minimum": 1},
    },
}

DFEC_SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "model", "governor"],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": {"enum": ["dfec"]},
        "name": {"type": "string"},
        "model": _section(TwoMachineModel, skip=("gov",)),
        "governor": _section(GovernorParams),
        "sim": _section(SimOptions),
        "bounds": _section(ActionBounds, exclusiveMinimum=0),
        "action": _section(DfecAction),
        "optimize": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grid_starts": {"type": "integer", "minimum": 1},
                "refine_starts": {"type": "integer", "minimum": 1},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dp", "t_on", "t_off"],
            "properties": {
                "dp": {"type": "number", "minimum": 0},
                "t_on": _AXIS,
                "t_off": _AXIS,
            },
        },
    },
}


@dataclass(frozen=True)
class DeocScenario:
    disturbance: Disturbance
    t_end: float
    dt_out: float = 0.005
    stage_window: float = 10.0
    targets: tuple[int, ...] | None = None   # None = auto by modal excitation
    n_targets: int = 2
    dp_overrides_mw: tuple | None = None     # per-stage vector (MW) or None
    name: str = ""

    def __post_init__(self):
        for name in ("t_end", "dt_out"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DimensionError(f"{name} must be finite and > 0")
        require_grid(self.t_end, self.dt_out, "t_end", "dt_out")
        require_grid(self.stage_window, SAMPLE_DT, "stage_window", "the switch-time search step")
        d = self.disturbance
        if d.kind == "initial-state" and not d.t0 < self.t_end:
            raise DimensionError(f"disturbance.t0 = {d.t0:g} s is not before "
                                 f"t_end = {self.t_end:g} s")
        end = d.start + d.duration
        if d.kind == "power-pulse" and not end < self.t_end:
            raise DimensionError(f"t_end = {self.t_end:g} s is "
                                 f"{'before' if self.t_end < end else 'when'} the disturbance "
                                 f"ends at {end:g} s (disturbance.start + disturbance.duration)")

    def dp_overrides_pu(self, base_mva: float):
        if self.dp_overrides_mw is None:
            return None
        return [
            None if v is None else np.asarray(v, dtype=float) / base_mva
            for v in self.dp_overrides_mw
        ]


@dataclass(frozen=True)
class DfecScenario:
    model: TwoMachineModel
    sim: SimOptions
    bounds: ActionBounds
    action: DfecAction | None = None
    grid_starts: int = GRID_STARTS
    refine_starts: int = REFINE_STARTS
    sweep_dp: float = 0.1
    sweep_t_on: np.ndarray | None = None
    sweep_t_off: np.ndarray | None = None
    name: str = ""


def scenario_kind(doc) -> str:
    if not isinstance(doc, dict):
        # Each encoder chunk holds a character or more: 40 chunks give the first
        # 40 characters of the document's JSON without encoding the rest.
        head = "".join(itertools.islice(json.JSONEncoder().iterencode(doc), 40))[:40]
        raise ModelError(f"scenario file must hold a JSON object, got {head}")
    kind = doc.get("kind")
    if kind not in ("deoc", "dfec"):
        raise ModelError(f"scenario kind must be 'deoc' or 'dfec', got {shown(kind)}")
    return kind


def deoc_scenario_from_dict(doc: dict) -> DeocScenario:
    """The scenario of a DEOC document; a key the document does not hold
    takes the dataclass default. ``integer`` fields are converted with
    ``int``: JSON Schema also admits ``1.0``."""
    validate(doc, DEOC_SCENARIO_SCHEMA)
    dist = dict(doc["disturbance"])
    if "x0" in dist:
        dist["x0"] = np.asarray(dist["x0"], dtype=float)
    if "bus" in dist:
        dist["bus"] = int(dist["bus"])
    disturbance = Disturbance(**dist)
    targets = doc.get("targets")
    overrides = doc.get("dp_overrides_mw")
    if overrides is not None and targets is not None and len(overrides) != len(targets):
        raise ModelError("dp_overrides_mw must have one entry per target")
    fields = {key: doc[key] for key in ("t_end", "dt_out", "stage_window", "name")
              if key in doc}
    if targets is not None:
        fields["targets"] = tuple(map(int, targets))
    if "n_targets" in doc:
        fields["n_targets"] = int(doc["n_targets"])
    if overrides is not None:
        fields["dp_overrides_mw"] = tuple(None if v is None else tuple(v) for v in overrides)
    return DeocScenario(disturbance=disturbance, **fields)


def _axis(spec: dict) -> np.ndarray:
    return np.linspace(spec["start"], spec["stop"], int(spec["count"]))


def dfec_scenario_from_dict(doc: dict) -> DfecScenario:
    """The scenario of a DFEC document; a key the document does not hold
    takes the dataclass default."""
    validate(doc, DFEC_SCENARIO_SCHEMA)
    gov = GovernorParams(**doc["governor"])
    fields = dict(model=TwoMachineModel(gov=gov, **doc["model"]),
                  sim=SimOptions(**doc.get("sim", {})),
                  bounds=ActionBounds(**doc.get("bounds", {})))
    if "action" in doc:
        fields["action"] = DfecAction(**doc["action"])
    fields.update((key, int(value)) for key, value in doc.get("optimize", {}).items())
    if fields.get("grid_starts", 0) ** 3 > MAX_SAMPLES:
        raise DimensionError(f"optimize.grid_starts = {fields['grid_starts']} gives "
                             f"{fields['grid_starts']}^3 starts, more than {MAX_SAMPLES}")
    sweep = doc.get("sweep")
    if sweep is not None:
        if sweep["t_on"]["count"] * sweep["t_off"]["count"] > MAX_SAMPLES:
            raise DimensionError(f"sweep.t_on.count x sweep.t_off.count gives more than "
                                 f"{MAX_SAMPLES} cells")
        sweep_t_on, sweep_t_off = _axis(sweep["t_on"]), _axis(sweep["t_off"])
        if sweep_t_on.min() < 0.0:
            raise DimensionError(f"sweep.t_on must be >= 0: its earliest value is "
                                 f"{sweep_t_on.min():g} s")
        if sweep_t_on.min() >= sweep_t_off.max():
            raise DimensionError(f"no sweep cell has t_on < t_off: the earliest sweep.t_on "
                                 f"is {sweep_t_on.min():g} s, the latest sweep.t_off "
                                 f"{sweep_t_off.max():g} s")
        fields.update(sweep_dp=sweep["dp"], sweep_t_on=sweep_t_on, sweep_t_off=sweep_t_off)
    if "name" in doc:
        fields["name"] = doc["name"]
    return DfecScenario(**fields)


def load_scenario(path):
    """Read a scenario JSON file and return the matching scenario object."""
    doc = read_json(path)
    if scenario_kind(doc) == "deoc":
        return deoc_scenario_from_dict(doc)
    return dfec_scenario_from_dict(doc)
