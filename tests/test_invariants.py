"""DEOC invariants on random networks: 2-6 machines plus an infinite bus,
1-5 load buses, reactances of 0.05-0.6 pu, CCs on random load buses, a
power pulse of up to +-3 pu at a CC bus, up to 3 default targets and a 5 s
stage window.

Each drawn study checks that the orbit value is conserved along the
closed-form segments and equals the complex modal form where the
frequencies are distinct, that the state is continuous at every switch,
that no stage raises the orbit value about ``x_e``, and that repeated
builds and runs are byte-identical. The kinetic energy ``ek`` is reported
(``--hypothesis-show-statistics``), not asserted: the switch-off at the
first energy minimum can end a stage above its switch-on energy."""

import warnings

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridstep import (
    Disturbance,
    analyze,
    apply_disturbance,
    build_reduced_model,
    build_schedule,
    orbit_value,
    propagate,
    simulate_deoc,
)
from gridstep.network import Branch, Bus, ControllableComponent, Generator, GridSystem, Load
from gridstep.oscillation import default_targets

import oracle

STAGE_WINDOW = 5.0
DT_OUT = 0.01


@st.composite
def studies(draw):
    """A random connected network and a power pulse at one of its CC buses:
    ``(grid, disturbance, n_targets)``. Buses ``1..n`` carry the machines,
    ``n + 1`` the infinite bus and the rest the loads; a random tree ties
    them together and up to three more branches close loops."""
    n_gen, n_load = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    n_bus = n_gen + 1 + n_load
    order = draw(st.permutations(range(1, n_bus + 1)))
    reactance = st.floats(0.05, 0.6)
    links = [(order[k], order[draw(st.integers(0, k - 1))]) for k in range(1, n_bus)]
    loops = draw(st.lists(st.tuples(st.integers(1, n_bus), st.integers(1, n_bus - 1)),
                          max_size=3))
    links += [(i, (i + gap - 1) % n_bus + 1) for i, gap in loops]
    load_buses = list(range(n_gen + 2, n_bus + 1))
    cc_buses = draw(st.lists(st.sampled_from(load_buses), min_size=1, unique=True))
    grid = GridSystem(
        buses=tuple(Bus(k, "generator" if k <= n_gen + 1 else "non-generator")
                    for k in range(1, n_bus + 1)),
        branches=tuple(Branch(i, j, draw(reactance)) for i, j in links),
        generators=tuple(Generator(bus=k, inertia=draw(st.floats(2.0, 8.0)),
                                   pm=draw(st.floats(-0.5, 0.5))) for k in range(1, n_gen + 1))
        + (Generator(bus=n_gen + 1, inertia=1.0, pm=0.0, infinite=True),),
        loads=tuple(Load(k, draw(st.floats(0.0, 1.0))) for k in load_buses),
        ccs=tuple(ControllableComponent(bus=k, p0=0.0) for k in cc_buses),
        base_mva=100.0,
    )
    pulse = Disturbance(kind="power-pulse", bus=draw(st.sampled_from(cc_buses)),
                        magnitude=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 3.0)),
                        start=0.0, duration=draw(st.sampled_from([0.05, 0.1, 0.2])))
    return grid, pulse, draw(st.integers(1, 3))


def _run(grid, pulse, n_targets):
    model = build_reduced_model(grid)
    basis = analyze(model)
    t0, x0 = apply_disturbance(model, basis, pulse)
    targets = default_targets(basis, model, x0, n_targets)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sched = build_schedule(basis, model, x0, t0, targets, stage_window=STAGE_WINDOW)
    t_end = (sched.stages[-1].t_off if sched.stages else t0) + 1.0
    t_end = DT_OUT * np.ceil(t_end / DT_OUT)
    return model, basis, t0, x0, sched, simulate_deoc(model, basis, pulse, sched, t_end, DT_OUT)


def _switch_states(basis, model, t0, x0, sched):
    """``(x_on, x_off)`` of each stage, chained from ``x0``."""
    out, x, t = [], x0, t0
    for stage in sched.stages:
        x_on = propagate(basis, model.x_eq, x, stage.t_on - t)
        x, t = propagate(basis, stage.x_c, x_on, stage.t_off - stage.t_on), stage.t_off
        out.append((x_on, x))
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(study=studies())
def test_deoc_invariants_on_random_networks(study):
    model, basis, t0, x0, sched, traj = _run(*study)
    x_e = model.x_eq
    scale = max(np.abs(traj.x - x_e).max(), 1e-12)
    event(f"stages built: {len(sched.stages)}, skipped: {len(sched.skipped)}")

    # The orbit value about each segment's center is conserved along it.
    # Rounding the state moves it by about |grad V| eps ~ sqrt(|P^T P| V) eps.
    gram = np.abs(basis.pairs.T @ basis.pairs).max()
    bounds = [t0] + [t for s in sched.stages for t in (s.t_on, s.t_off)] + [np.inf]
    for lo, hi in zip(bounds, bounds[1:]):
        v = traj.orbit[(traj.t >= lo - 1e-12) & (traj.t < hi - 1e-12)]
        if len(v):
            assert np.abs(v - v[0]).max() <= 1e-9 * v[0] + 1e-13 * np.sqrt(gram * v[0])

    # It equals the complex modal form where no two frequencies are close.
    if np.diff(basis.omega).min() > 1e-3 * basis.omega.max():
        xs = traj.x[:: max(1, len(traj.t) // 8)]
        expected = oracle.orbit_value(basis, x_e, xs)
        assert np.abs(orbit_value(basis, x_e, xs) - expected).max() <= 1e-9 * expected.max()

    # Continuity: the samples either side of each switch, each carried to
    # the switch along its own segment's orbit, meet there.
    centers = [x_e] + [c for s in sched.stages for c in (s.x_c, x_e)]
    for i in range(1, len(bounds) - 1):
        k = np.searchsorted(traj.t, bounds[i] - 1e-12)
        if (0 < k < len(traj.t) and traj.t[k - 1] >= bounds[i - 1] - 1e-12
                and bounds[i] + 1e-12 < traj.t[k] < bounds[i + 1] - 1e-12):
            left = propagate(basis, centers[i - 1], traj.x[k - 1], bounds[i] - traj.t[k - 1])
            right = propagate(basis, centers[i], traj.x[k], bounds[i] - traj.t[k])
            assert np.abs(left - right).max() <= 1e-9 * scale

    # No stage raises the orbit value about x_e.
    for stage, (x_on, x_off) in zip(sched.stages, _switch_states(basis, model, t0, x0, sched)):
        assert orbit_value(basis, x_e, x_off) <= orbit_value(basis, x_e, x_on)
        if stage.energy_off > stage.energy_on:
            event("a stage ends with more kinetic energy than it started with")

    # Repeated builds and runs are byte-identical.
    again = _run(*study)
    assert again[1].pairs.tobytes() == basis.pairs.tobytes()
    assert [(s.t_on, s.t_off, s.dp.tobytes()) for s in again[4].stages] == [
        (s.t_on, s.t_off, s.dp.tobytes()) for s in sched.stages]
    assert again[4].skipped == sched.skipped
    for name in ("x", "orbit", "h", "ek", "stage"):
        assert getattr(again[5], name).tobytes() == getattr(traj, name).tobytes()
