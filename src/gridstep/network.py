"""Network description and reduction to the linear multi-machine swing model.

The reduced model keeps one rotor angle/speed pair per non-infinite machine.
All algebraic (non-machine) bus angles are Kron-eliminated from the DC
susceptance matrix, and the infinite machine node is grounded so the reduced
susceptance matrix is nonsingular.

State ordering is fixed throughout the package:
``x = [delta_1 ... delta_m, omega_1 ... omega_m]`` with angles in radians and
speeds in pu (equilibrium speed is 1.0 for every machine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError, ModelError
from .fileio import read_json, validate

OMEGA_S_DEFAULT = 120.0 * math.pi

_SINGULAR_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class Bus:
    id: int
    type: str  # "generator" or "non-generator"


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    x: float  # series reactance, pu


@dataclass(frozen=True)
class Generator:
    bus: int
    inertia: float       # H, seconds
    pm: float            # mechanical power, pu on system base
    infinite: bool = False
    xdp: float = 0.0     # transient reactance, pu; 0 = machine sits on its bus


@dataclass(frozen=True)
class Load:
    bus: int
    p: float  # consumed active power, pu


@dataclass(frozen=True)
class ControllableComponent:
    bus: int
    p0: float  # initial injection, pu


@dataclass(frozen=True)
class GridSystem:
    """Raw bus/branch/generator/load/CC description of a network."""

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]
    ccs: tuple[ControllableComponent, ...]
    base_mva: float
    omega_s: float = OMEGA_S_DEFAULT
    name: str = ""

    def validate(self) -> None:
        bus_ids = {b.id for b in self.buses}
        if len(bus_ids) != len(self.buses):
            raise ModelError("duplicate bus ids")
        gen_buses = {b.id for b in self.buses if b.type == "generator"}
        for br in self.branches:
            if br.from_bus not in bus_ids or br.to_bus not in bus_ids:
                raise ModelError(f"branch {br.from_bus}-{br.to_bus} references unknown bus")
            if br.x <= 0.0:
                raise ModelError(f"branch {br.from_bus}-{br.to_bus} has non-positive reactance")
        for g in self.generators:
            if g.bus not in gen_buses:
                raise ModelError(f"generator at bus {g.bus}: bus missing or not of generator type")
            if g.inertia <= 0.0 and not g.infinite:
                raise ModelError(f"generator at bus {g.bus} has non-positive inertia")
            if g.xdp < 0.0:
                raise ModelError(f"generator at bus {g.bus} has negative transient reactance")
        n_inf = sum(g.infinite for g in self.generators)
        if n_inf > 1:
            raise ModelError(f"{n_inf} infinite buses declared, at most one allowed")
        for ld in self.loads:
            if ld.bus not in bus_ids:
                raise ModelError(f"load at unknown bus {ld.bus}")
        for cc in self.ccs:
            if cc.bus not in bus_ids:
                raise ModelError(f"controllable component at unknown bus {cc.bus}")
            if cc.bus in gen_buses:
                raise ModelError(f"controllable component at generator bus {cc.bus}")
        self._check_connected()

    def _check_connected(self) -> None:
        if not self.branches:
            raise ModelError("no branches")
        parent = {b.id: b.id for b in self.buses}   # union-find over bus ids

        def root(bus):
            while parent[bus] != bus:
                parent[bus] = parent[parent[bus]]
                bus = parent[bus]
            return bus

        for br in self.branches:
            parent[root(br.from_bus)] = root(br.to_bus)
        n_comp = sum(root(bus) == bus for bus in parent)
        if n_comp != 1:
            raise ModelError(f"branch graph is disconnected ({n_comp} components)")


@dataclass(frozen=True)
class ReducedModel:
    """Linear swing model around the grounded-reference DC network.

    ``b_red`` maps machine angles to machine electrical powers; ``b_load`` and
    ``b_cc`` map injections at the eliminated buses (loads, CCs) onto machine
    electrical powers. ``p_mech`` is net of any load sitting directly on a
    machine node.
    """

    a: np.ndarray            # 2m x 2m state matrix
    b_red: np.ndarray        # m x m reduced susceptance
    b_load: np.ndarray       # m x n_load_buses
    b_cc: np.ndarray         # m x n_cc
    h: np.ndarray            # m, machine inertias (s)
    p_mech: np.ndarray       # m, pu
    p_load: np.ndarray       # n_load_buses, pu (consumption, >= 0 typically)
    p_cc0: np.ndarray        # n_cc, pu
    x_eq: np.ndarray         # 2m equilibrium state [delta_e; 1]
    machine_buses: tuple[int, ...]
    load_buses: tuple[int, ...]   # all eliminated buses, in reduction order
    cc_buses: tuple[int, ...]
    base_mva: float
    omega_s: float = OMEGA_S_DEFAULT

    def __post_init__(self):
        read_only(self)

    @property
    def n_machines(self) -> int:
        return len(self.machine_buses)

    @property
    def n_cc(self) -> int:
        return len(self.cc_buses)

    @property
    def delta_eq(self) -> np.ndarray:
        return self.x_eq[: self.n_machines]


def read_only(instance) -> None:
    """Make every array field of a frozen dataclass read-only, so that an
    instance shared between callers cannot be changed through its arrays."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _assemble_nodes(sys: GridSystem):
    """Node list = buses plus internal machine nodes for xdp > 0.

    Returns (node names, branch list on node indices, machine node indices,
    ground node index, bus-id -> node index map).
    """
    nodes: list[object] = [b.id for b in sys.buses]
    index: dict[object, int] = {b.id: i for i, b in enumerate(sys.buses)}
    branches: list[tuple[int, int, float]] = [
        (index[br.from_bus], index[br.to_bus], br.x) for br in sys.branches
    ]

    machine_nodes: list[int] = []
    machine_gens: list[Generator] = []
    ground = None
    for g in sys.generators:
        if g.xdp > 0.0:
            node = len(nodes)
            nodes.append(("internal", g.bus))
            branches.append((index[g.bus], node, g.xdp))
        else:
            node = index[g.bus]
        if g.infinite:
            ground = node
        else:
            machine_nodes.append(node)
            machine_gens.append(g)
    if ground is None:
        raise ModelError("no infinite bus designated: equilibrium angle is undefined")
    return nodes, branches, machine_nodes, machine_gens, ground, index


def elimination_pivots(b_ll: np.ndarray) -> np.ndarray:
    """Pivots of Gaussian elimination on the eliminated-bus block ``b_ll``.

    ``b_ll`` is a symmetric, diagonally dominant Laplacian block, so
    elimination needs no row swaps and its pivots are the squared diagonal of
    the Cholesky factor. Cholesky fails where a pivot rounds to zero or
    below; the pivots of the longest leading block it factors are then kept
    and the rest read 0.
    """
    n = len(b_ll)
    for k in range(n, 0, -1):
        try:
            head = np.diag(np.linalg.cholesky(b_ll[:k, :k])) ** 2
        except np.linalg.LinAlgError:
            continue
        return np.concatenate([head, np.zeros(n - k)])
    return np.zeros(n)


def build_reduced_model(sys: GridSystem) -> ReducedModel:
    """Reduce a :class:`GridSystem` to the linear swing model.

    Steps: form the DC susceptance (Laplacian) matrix from branch reactances,
    ground the infinite machine node, Kron-eliminate every non-machine node,
    and solve for the equilibrium angles.
    """
    sys.validate()
    nodes, branches, machine_nodes, machine_gens, ground, index = _assemble_nodes(sys)

    n = len(nodes)
    lap = np.zeros((n, n))
    for i, j, x in branches:
        b = 1.0 / x
        lap[i, i] += b
        lap[j, j] += b
        lap[i, j] -= b
        lap[j, i] -= b

    keep = [k for k in range(n) if k != ground]
    pos = {k: p for p, k in enumerate(keep)}
    lap = lap[np.ix_(keep, keep)]

    mach = [pos[k] for k in machine_nodes]
    elim = [p for p in range(len(keep)) if p not in set(mach)]

    b_gg = lap[np.ix_(mach, mach)]
    b_gl = lap[np.ix_(mach, elim)]
    b_ll = lap[np.ix_(elim, elim)]

    if elim:
        pivots = elimination_pivots(b_ll)
        bad = np.flatnonzero(pivots < _SINGULAR_PIVOT_RTOL * max(pivots.max(), 1.0))
        if bad.size:
            raise ModelError(f"singular Kron reduction: pivot {bad[0]} is numerically zero")
        # F maps eliminated-bus injections to machine electrical powers.
        f_map = np.linalg.solve(b_ll, b_gl.T).T
        b_red = b_gg - f_map @ b_gl.T
    else:
        f_map = np.zeros((len(mach), 0))
        b_red = b_gg
    b_red = 0.5 * (b_red + b_red.T)  # symmetrize round-off

    # Bus id per eliminated node: an internal node is a machine's or the
    # grounded infinite bus's, so every eliminated node is a bus.
    load_buses = tuple(nodes[keep[p]] for p in elim)
    load_pos = {bus: p for p, bus in enumerate(load_buses)}

    m = len(mach)
    h = np.array([g.inertia for g in machine_gens])
    p_mech = np.array([g.pm for g in machine_gens])
    machine_buses = tuple(g.bus for g in machine_gens)
    machine_bus_pos = {g.bus: i for i, g in enumerate(machine_gens) if g.xdp == 0.0}

    p_load = np.zeros(len(load_buses))
    for ld in sys.loads:
        if ld.bus in load_pos:
            p_load[load_pos[ld.bus]] += ld.p
        elif ld.bus in machine_bus_pos:
            # Load directly on a machine node enters its power balance.
            p_mech[machine_bus_pos[ld.bus]] -= ld.p
        # Loads on the grounded (infinite) node are absorbed by the reference.

    cc_buses = tuple(cc.bus for cc in sys.ccs)
    p_cc0 = np.array([cc.p0 for cc in sys.ccs])
    b_cc = np.zeros((m, len(cc_buses)))
    for j, bus in enumerate(cc_buses):
        if bus not in load_pos:
            raise ModelError(f"controllable component bus {bus} was not an eliminated bus")
        b_cc[:, j] = f_map[:, load_pos[bus]]

    rhs = p_mech + f_map @ p_load - b_cc @ p_cc0 if elim else p_mech.copy()
    try:
        delta_eq = np.linalg.solve(b_red, rhs)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"reduced susceptance matrix is singular: {exc}") from exc

    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = sys.omega_s * np.eye(m)
    a[m:, :m] = -0.5 * (b_red / h[:, None])

    x_eq = np.concatenate([delta_eq, np.ones(m)])
    return ReducedModel(
        a=a,
        b_red=b_red,
        b_load=f_map,
        b_cc=b_cc,
        h=h,
        p_mech=p_mech,
        p_load=p_load,
        p_cc0=p_cc0,
        x_eq=x_eq,
        machine_buses=machine_buses,
        load_buses=load_buses,
        cc_buses=cc_buses,
        base_mva=sys.base_mva,
        omega_s=sys.omega_s,
    )


def equilibrium_shifted(model: ReducedModel, dp: np.ndarray) -> np.ndarray:
    """Equilibrium under an active CC power change ``dp`` (pu).

    ``delta_c = delta_e - b_red^-1 b_cc dp``; speeds stay at 1.
    """
    dp = np.asarray(dp, dtype=float)
    if dp.shape != (model.n_cc,):
        raise DimensionError(
            f"dp has shape {dp.shape}, expected ({model.n_cc},)"
        )
    m = model.n_machines
    delta_c = model.delta_eq - np.linalg.solve(model.b_red, model.b_cc @ dp)
    return np.concatenate([delta_c, np.ones(m)])


# ---------------------------------------------------------------------------
# JSON ingestion

GRID_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["base_mva", "buses", "branches", "generators", "units"],
    "properties": {
        "schema_version": {"type": "integer"},
        "name": {"type": "string"},
        "base_mva": {"type": "number", "exclusiveMinimum": 0},
        "omega_s": {"type": "number", "exclusiveMinimum": 0},
        "units": {"enum": ["MW", "pu"]},
        "buses": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["id", "type"],
                "properties": {
                    "id": {"type": "integer"},
                    "type": {"enum": ["generator", "non-generator"]},
                },
            },
        },
        "branches": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["from", "to", "x"],
                "properties": {
                    "from": {"type": "integer"},
                    "to": {"type": "integer"},
                    "x": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "generators": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["bus", "inertia", "pm"],
                "properties": {
                    "bus": {"type": "integer"},
                    "inertia": {"type": "number"},
                    "pm": {"type": "number"},
                    "xdp": {"type": "number", "minimum": 0},
                    "infinite": {"type": "boolean"},
                },
            },
        },
        "loads": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["bus", "p"],
                "properties": {"bus": {"type": "integer"}, "p": {"type": "number"}},
            },
        },
        "ccs": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["bus"],
                "properties": {"bus": {"type": "integer"}, "p0": {"type": "number"}},
            },
        },
    },
}


def grid_from_dict(doc: dict) -> GridSystem:
    validate(doc, GRID_SCHEMA)
    base = float(doc["base_mva"])
    to_pu = (1.0 / base) if doc["units"] == "MW" else 1.0
    return GridSystem(
        buses=tuple(Bus(int(b["id"]), b["type"]) for b in doc["buses"]),
        branches=tuple(Branch(int(br["from"]), int(br["to"]), br["x"]) for br in doc["branches"]),
        generators=tuple(
            Generator(
                bus=int(g["bus"]),
                inertia=g["inertia"],
                pm=g["pm"] * to_pu,
                infinite=g.get("infinite", False),
                xdp=g.get("xdp", 0.0),
            )
            for g in doc["generators"]
        ),
        loads=tuple(Load(int(l["bus"]), l["p"] * to_pu) for l in doc.get("loads", [])),
        ccs=tuple(
            ControllableComponent(int(c["bus"]), c.get("p0", 0.0) * to_pu)
            for c in doc.get("ccs", [])
        ),
        base_mva=base,
        omega_s=doc.get("omega_s", OMEGA_S_DEFAULT),
        name=doc.get("name", ""),
    )


def load_grid(path) -> GridSystem:
    """Read a grid description JSON file (see docs/file-formats in README)."""
    return grid_from_dict(read_json(path))
