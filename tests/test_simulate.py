"""Piecewise closed-form simulation, disturbances, the numeric oracle,
trajectory export."""

import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridstep import (
    DeocSchedule,
    Disturbance,
    ModelError,
    ScheduleError,
    apply_disturbance,
    build_schedule,
    simulate_deoc,
)
from gridstep import fileio
from gridstep import frequency as fq
from gridstep.cli import _dfec_trajectory_csv
from gridstep.modal import propagate
from gridstep.simulate import Trajectory

import oracle


@pytest.fixture(scope="module")
def wscc9_pulse():
    return Disturbance(kind="power-pulse", bus=8, magnitude=-5.0, start=0.0,
                      duration=5.0 / 60.0)


@pytest.fixture(scope="module")
def wscc9_schedule(wscc9_model, wscc9_basis, wscc9_pulse):
    t0, x0 = apply_disturbance(wscc9_model, wscc9_basis, wscc9_pulse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_schedule(wscc9_basis, wscc9_model, x0, t0, [0, 1])


class TestApplyDisturbance:
    def test_initial_state_passthrough(self, wscc9_model, wscc9_basis):
        x0 = wscc9_model.x_eq + 1e-3
        dist = Disturbance(kind="initial-state", x0=x0, t0=0.25)
        t0, out = apply_disturbance(wscc9_model, wscc9_basis, dist)
        assert t0 == 0.25
        assert out == pytest.approx(x0)

    def test_zero_magnitude_pulse_returns_equilibrium(self, wscc9_model, wscc9_basis):
        dist = Disturbance(kind="power-pulse", bus=8, magnitude=0.0, duration=0.1)
        _, x0 = apply_disturbance(wscc9_model, wscc9_basis, dist)
        assert x0 == pytest.approx(wscc9_model.x_eq)

    def test_unknown_bus_rejected(self, wscc9_model, wscc9_basis):
        dist = Disturbance(kind="power-pulse", bus=99, magnitude=-1.0, duration=0.1)
        with pytest.raises(ModelError):
            apply_disturbance(wscc9_model, wscc9_basis, dist)


class TestSimulateDeoc:
    def test_equilibrium_stays_constant(self, wscc9_model, wscc9_basis):
        dist = Disturbance(kind="initial-state", x0=wscc9_model.x_eq, t0=0.0)
        traj = simulate_deoc(
            wscc9_model, wscc9_basis, dist, DeocSchedule(stages=()), 2.0, 0.01
        )
        assert np.abs(traj.x - wscc9_model.x_eq).max() < 1e-12
        assert np.abs(traj.ek).max() < 1e-12

    def test_orbit_diagnostic_conserved_uncontrolled(
        self, wscc9_model, wscc9_basis, wscc9_pulse
    ):
        traj = simulate_deoc(
            wscc9_model, wscc9_basis, wscc9_pulse, DeocSchedule(stages=()), 10.0, 0.005
        )
        assert np.ptp(traj.orbit) < 1e-8 * traj.orbit[0]

    def test_state_continuous_across_switches(
        self, wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule
    ):
        traj = simulate_deoc(
            wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 10.0, 0.005
        )
        jumps = np.abs(np.diff(traj.x, axis=0)).max(axis=1)
        # No sample-to-sample jump larger than continuous motion allows.
        assert jumps.max() < 0.05

    def test_time_grid_independence(
        self, wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule
    ):
        a = simulate_deoc(wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 5.0, 0.01)
        b = simulate_deoc(wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 5.0, 0.005)
        shared = b.x[::2]
        n = min(len(a.t), len(shared))
        assert a.t[:n] == pytest.approx(b.t[::2][:n], abs=1e-12)
        assert a.x[:n] == pytest.approx(shared[:n], abs=1e-12)

    def test_determinism_bit_identical(
        self, wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule
    ):
        a = simulate_deoc(wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 5.0, 0.01)
        b = simulate_deoc(wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 5.0, 0.01)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.ek.tobytes() == b.ek.tobytes()

    def test_out_of_window_stage_rejected(
        self, wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule
    ):
        with pytest.raises(ScheduleError, match="schedule ends at .* after t_end"):
            simulate_deoc(
                wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule,
                wscc9_schedule.stages[-1].t_off - 0.1, 0.01,
            )

    def test_event_log_ordered(self, wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule):
        traj = simulate_deoc(
            wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 10.0, 0.005
        )
        times = [t for t, _ in traj.events]
        assert times == sorted(times)
        labels = [lbl for _, lbl in traj.events]
        assert labels.count("switch-on") == len(wscc9_schedule.stages)
        assert labels.count("switch-off") == len(wscc9_schedule.stages)


class TestIntegrateNonlinear:
    """The piecewise ``solve_ivp`` oracle of ``tests/oracle.py``."""

    def test_zero_field_constant(self):
        pieces = [(0.0, 1.0, lambda t, y: np.zeros(2))]
        t_grid = np.arange(0.0, 1.05, 0.1)
        (start, stop, x), = oracle.piecewise(pieces, [1.0, -2.0], t_grid, "DOP853", 1e-8, 1e-10)
        assert (start, stop) == (0, len(t_grid))
        assert np.abs(x - np.array([1.0, -2.0])).max() < 1e-12

    def test_restarts_from_state_at_break(self):
        # dx/dt = +1 on [0, 0.55), -1 on [0.55, 1]: a tent peaking off-grid.
        pieces = [(0.0, 0.55, lambda t, y: np.ones(1)), (0.55, 1.0, lambda t, y: -np.ones(1))]
        t_grid = np.arange(0.0, 1.05, 0.1)
        x = np.full(len(t_grid), np.nan)
        for start, stop, samples in oracle.piecewise(pieces, [0.0], t_grid, "DOP853", 1e-8, 1e-10):
            x[start:stop] = samples[:, 0]
        assert np.abs(x - np.minimum(t_grid, 1.1 - t_grid)).max() < 1e-12

    def test_linear_model_matches_closed_form(self, smib_model, smib_basis):
        x0 = smib_model.x_eq + np.array([0.1, 0.002])
        t, x = oracle.deoc(smib_model, DeocSchedule(stages=()), x0, 0.0, 10.0, 0.01)
        exact = propagate(smib_basis, smib_model.x_eq, x0, t)
        assert np.abs(x - exact).max() < 1e-6


class TestExport:
    def test_csv_json_round_trip(self, tmp_path, wscc9_model, wscc9_basis,
                                 wscc9_pulse, wscc9_schedule):
        traj = simulate_deoc(
            wscc9_model, wscc9_basis, wscc9_pulse, wscc9_schedule, 5.0, 0.01
        )
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        traj.to_csv(csv_path)
        traj.to_json(json_path)

        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == traj.columns()
        doc = json.loads(json_path.read_text())
        assert doc["columns"] == traj.columns()
        assert len(doc["events"]) == len(traj.events)

    def test_few_values_go_through_python(self, tmp_path, monkeypatch):
        """The CSV kernels hand a value to Python's ``%`` only when its
        scaled product is a half or lands outside the decade ``log10`` gave:
        well under 1 % of a trajectory's speeds near 1, angles, energies and
        ``h`` (NaN where no stage is next)."""
        rng = np.random.default_rng(5)
        n = 10**5
        h = rng.normal(0.0, 1e-3, n)
        h[: n // 2] = np.nan
        traj = Trajectory(t=np.arange(n) * 1e-3,
                          x=np.column_stack([rng.uniform(-3.5, 3.5, (n, 2)),
                                             rng.uniform(0.98, 1.02, (n, 2))]),
                          ek=rng.exponential(1e-4, n), orbit=rng.exponential(1e-2, n),
                          h=h, stage=rng.integers(-1, 2, n))
        by_python = fileio._by_python
        counts = {"values": 0, "slow": 0}

        def counted(out, v, slow, fmt):
            counts["values"] += len(v)
            counts["slow"] += len(slow)
            return by_python(out, v, slow, fmt)

        monkeypatch.setattr(fileio, "_by_python", counted)
        traj.to_csv(tmp_path / "traj.csv")
        assert counts["values"] == 9 * n
        assert counts["slow"] < 0.01 * counts["values"]


def _assert_writers_match(traj, tmp_path):
    """``to_csv``/``to_json`` write the reference writers' bytes."""
    for write, reference, name in ((traj.to_csv, oracle.trajectory_csv, "traj.csv"),
                                   (traj.to_json, oracle.trajectory_json, "traj.json")):
        write(tmp_path / name)
        reference(traj, tmp_path / f"ref_{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes(), name


class TestWritersMatchReference:
    def test_bundled_trajectories(self, tmp_path, bundled_deoc):
        b = bundled_deoc
        for schedule in (b.schedule, DeocSchedule(stages=())):   # uncontrolled: h all NaN
            traj = simulate_deoc(b.model, b.basis, b.scn.disturbance, schedule,
                                 b.scn.t_end, b.scn.dt_out)
            _assert_writers_match(traj, tmp_path)

    def test_one_sample_and_no_events(self, tmp_path, wscc9_model, wscc9_basis, wscc9_pulse):
        t0 = wscc9_pulse.start + wscc9_pulse.duration
        traj = simulate_deoc(wscc9_model, wscc9_basis, wscc9_pulse, DeocSchedule(stages=()),
                             t0, 0.01)
        assert len(traj.t) == 1
        _assert_writers_match(traj, tmp_path)
        _assert_writers_match(replace(traj, events=[]), tmp_path)

    def test_dfec_simulate_csv(self, tmp_path, dfec_scenario):
        opts = replace(dfec_scenario.sim, horizon=20.0)
        traj = fq.simulate(dfec_scenario.model, dfec_scenario.action, opts)
        _dfec_trajectory_csv(tmp_path / "traj.csv", traj)
        oracle.dfec_trajectory_csv(tmp_path / "ref.csv", traj)
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf])


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_writers_match_reference_on_extreme_values(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 3))
    t = sorted(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=n, max_size=n, unique=True)))
    column = arrays(np.float64, n, elements=_ANY_FLOAT)
    traj = Trajectory(
        t=np.array(t),
        x=data.draw(arrays(np.float64, (n, 2 * m), elements=_ANY_FLOAT)),
        ek=data.draw(column),
        orbit=data.draw(column),
        h=data.draw(column),
        stage=data.draw(arrays(np.int64, n, elements=st.integers(-1, 2**40))),
        events=[(data.draw(_ANY_FLOAT), "switch-on")] * data.draw(st.integers(0, 2)),
    )
    dfec = fq.DfecTrajectory(t=traj.t, y=data.draw(arrays(np.float64, (n, 9), elements=_ANY_FLOAT)),
                             unstable=False, w_ss=1.0)
    with tempfile.TemporaryDirectory() as tmp, np.errstate(invalid="ignore"):  # inf + -inf
        tmp = Path(tmp)
        _assert_writers_match(traj, tmp)
        _dfec_trajectory_csv(tmp / "dfec.csv", dfec)
        oracle.dfec_trajectory_csv(tmp / "ref.csv", dfec)
        assert (tmp / "dfec.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
