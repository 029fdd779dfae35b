"""Scenario file ingestion: disturbance + controller settings for the two
controllers.

A scenario JSON carries everything about a study except the network itself:
for the oscillation controller, the disturbance, targeted mode pairs, and
optional fixed injection vectors; for the frequency controller, the full
two-machine model, simulation options, optimization bounds, and sweep grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError
from .frequency import ActionBounds, DfecAction, GovernorParams, SimOptions, TwoMachineModel
from .simulate import Disturbance

_DISTURBANCE_SCHEMA = {
    "type": "object",
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
    "required": ["kind", "disturbance", "t_end"],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": {"const": "deoc"},
        "name": {"type": "string"},
        "disturbance": _DISTURBANCE_SCHEMA,
        "t_end": {"type": "number", "exclusiveMinimum": 0},
        "dt_out": {"type": "number", "exclusiveMinimum": 0},
        "stage_window": {"type": "number", "exclusiveMinimum": 0},
        "targets": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "n_targets": {"type": "integer", "minimum": 1},
        "scale": {"type": "number"},
        "dp_overrides_mw": {
            "type": "array",
            "items": {
                "anyOf": [
                    {"type": "null"},
                    {"type": "array", "items": {"type": "number"}},
                ]
            },
        },
    },
}

DFEC_SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["kind", "model", "governor"],
    "properties": {
        "schema_version": {"type": "integer"},
        "kind": {"const": "dfec"},
        "name": {"type": "string"},
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["h1", "h2", "e1", "e2", "x"],
            "properties": {
                k: {"type": "number"}
                for k in ("h1", "h2", "e1", "e2", "x", "d1", "d2", "p_set", "omega_s")
            },
        },
        "governor": {
            "type": "object",
            "additionalProperties": False,
            "required": ["k1", "t1", "t2", "t3", "k2", "k3", "t4", "t5", "t6"],
            "properties": {
                k: {"type": "number"}
                for k in ("k1", "t1", "t2", "t3", "k2", "k3", "t4", "t5", "t6",
                          "p_max", "p_min")
            },
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                k: {"type": "number"}
                for k in ("horizon", "dt_out", "rtol", "atol", "ss_window",
                          "disturbance", "t_disturbance")
            },
        },
        "bounds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                k: {"type": "number", "exclusiveMinimum": 0}
                for k in ("dp_max", "t_on_max", "t_off_max")
            },
        },
        "action": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dp", "t_on", "t_off"],
            "properties": {k: {"type": "number"} for k in ("dp", "t_on", "t_off")},
        },
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
                "t_on": {"$ref": "#/$defs/axis"},
                "t_off": {"$ref": "#/$defs/axis"},
            },
        },
    },
    "$defs": {
        "axis": {
            "type": "object",
            "required": ["start", "stop", "count"],
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "count": {"type": "integer", "minimum": 1},
            },
        }
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
    scale: float | None = None
    dp_overrides_mw: tuple | None = None     # per-stage vector (MW) or None
    name: str = ""

    def __post_init__(self):
        for name in ("t_end", "dt_out"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DimensionError(f"{name} must be finite and > 0")

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
    grid_starts: int = 5
    refine_starts: int = 3
    sweep_dp: float = 0.1
    sweep_t_on: np.ndarray | None = None
    sweep_t_off: np.ndarray | None = None
    name: str = ""


def scenario_kind(doc: dict) -> str:
    kind = doc.get("kind")
    if kind not in ("deoc", "dfec"):
        raise ModelError(f"scenario kind must be 'deoc' or 'dfec', got {kind!r}")
    return kind


def deoc_scenario_from_dict(doc: dict) -> DeocScenario:
    import jsonschema

    jsonschema.validate(doc, DEOC_SCENARIO_SCHEMA)
    d = doc["disturbance"]
    dist = Disturbance(
        kind=d["kind"],
        x0=np.asarray(d["x0"], dtype=float) if d.get("x0") is not None else None,
        t0=d.get("t0", 0.0),
        bus=d.get("bus"),
        magnitude=d.get("magnitude", 0.0),
        start=d.get("start", 0.0),
        duration=d.get("duration", 0.0),
    )
    targets = doc.get("targets")
    overrides = doc.get("dp_overrides_mw")
    if overrides is not None and targets is not None and len(overrides) != len(targets):
        raise ModelError("dp_overrides_mw must have one entry per target")
    return DeocScenario(
        disturbance=dist,
        t_end=doc["t_end"],
        dt_out=doc.get("dt_out", 0.005),
        stage_window=doc.get("stage_window", 10.0),
        targets=tuple(targets) if targets is not None else None,
        n_targets=doc.get("n_targets", 2),
        scale=doc.get("scale"),
        dp_overrides_mw=tuple(tuple(v) if v is not None else None for v in overrides)
        if overrides is not None
        else None,
        name=doc.get("name", ""),
    )


def _axis(spec: dict) -> np.ndarray:
    return np.linspace(spec["start"], spec["stop"], spec["count"])


def dfec_scenario_from_dict(doc: dict) -> DfecScenario:
    import jsonschema

    jsonschema.validate(doc, DFEC_SCENARIO_SCHEMA)
    gov = GovernorParams(**doc["governor"])
    model = TwoMachineModel(gov=gov, **doc["model"])
    sim = SimOptions(**doc.get("sim", {}))
    bounds = ActionBounds(**doc.get("bounds", {}))
    action = DfecAction(**doc["action"]) if "action" in doc else None
    opt = doc.get("optimize", {})
    sweep = doc.get("sweep", {})
    return DfecScenario(
        model=model,
        sim=sim,
        bounds=bounds,
        action=action,
        grid_starts=opt.get("grid_starts", 5),
        refine_starts=opt.get("refine_starts", 3),
        sweep_dp=sweep.get("dp", 0.1),
        sweep_t_on=_axis(sweep["t_on"]) if sweep else None,
        sweep_t_off=_axis(sweep["t_off"]) if sweep else None,
        name=doc.get("name", ""),
    )


def load_scenario(path):
    """Read a scenario JSON file and return the matching scenario object."""
    with open(path) as fh:
        doc = json.load(fh)
    if scenario_kind(doc) == "deoc":
        return deoc_scenario_from_dict(doc)
    return dfec_scenario_from_dict(doc)
