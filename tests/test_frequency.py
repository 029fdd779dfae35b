"""Two-machine frequency excursion model: dynamics, cost, optimization,
sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dfec_oracle
from gridstep import frequency as fq
from gridstep.errors import DimensionError

FAST = fq.SimOptions(horizon=40.0, rtol=1e-6, atol=1e-8)


@pytest.fixture(scope="module")
def model(dfec_scenario):
    return dfec_scenario.model


@pytest.fixture(scope="module")
def opts(dfec_scenario):
    return dfec_scenario.sim


class TestDynamics:
    def test_equilibrium_is_fixed_point(self, model):
        rhs = fq.dfec_dynamics(model, 0.0, model.p_set)
        dy = np.asarray(rhs(0.0, model.equilibrium()))
        assert np.abs(dy).max() < 1e-12

    def test_load_step_initial_deceleration(self, model):
        # At the disturbance instant only the motor sees the extra load:
        # dw2/dt = -step / (2 h2), dw1/dt = 0.
        rhs = fq.dfec_dynamics(model, 0.0, model.p_set + 0.25)
        dy = np.asarray(rhs(0.0, model.equilibrium()))
        assert dy[3] == pytest.approx(-0.25 / (2.0 * model.h2))
        assert dy[1] == pytest.approx(0.0)

    def test_doubled_inertia_halves_initial_rocof(self, model):
        heavy = replace(model, h1=2.0 * model.h1, h2=2.0 * model.h2)
        d_light = np.asarray(
            fq.dfec_dynamics(model, 0.0, model.p_set + 0.25)(0.0, model.equilibrium())
        )
        d_heavy = np.asarray(
            fq.dfec_dynamics(heavy, 0.0, heavy.p_set + 0.25)(0.0, heavy.equilibrium())
        )
        assert d_heavy[3] == pytest.approx(0.5 * d_light[3])

    def test_injection_accelerates_generator(self, model):
        rhs = fq.dfec_dynamics(model, 0.1, model.p_set)
        dy = np.asarray(rhs(0.0, model.equilibrium()))
        assert dy[1] == pytest.approx(0.1 / (2.0 * model.h1))

    def test_invalid_governor_limits_rejected(self):
        with pytest.raises(DimensionError):
            fq.GovernorParams(k1=1, t1=1, t2=1, t3=1, k2=1, k3=1, t4=1, t5=1,
                              t6=1, p_max=0.0, p_min=0.5)

    def test_no_equilibrium_rejected(self):
        gov = fq.GovernorParams(k1=1, t1=1, t2=1, t3=1, k2=1, k3=1, t4=1,
                                t5=1, t6=1)
        with pytest.raises(DimensionError, match="equilibrium"):
            fq.TwoMachineModel(h1=1, h2=1, e1=1.0, e2=1.0, x=2.0, gov=gov)


class TestNadirCost:
    def test_zero_without_disturbance(self, model):
        calm = replace(FAST, disturbance=0.0)
        assert fq.nadir_cost(model, None, calm) == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, model):
        assert fq.nadir_cost(model, None, FAST) >= 0.0

    def test_instability_gives_infinite_cost(self, model):
        severe = replace(FAST, disturbance=3.0)
        assert fq.nadir_cost(model, None, severe) == float("inf")

    def test_continuous_in_switch_times(self, model, opts):
        a = fq.DfecAction(0.12, 1.5, 28.0)
        b = fq.DfecAction(0.12, 1.501, 28.0)
        ca = fq.nadir_cost(model, a, opts)
        cb = fq.nadir_cost(model, b, opts)
        assert abs(ca - cb) < 1e-3

    def test_monotone_in_dp_up_to_optimum(self, model, opts):
        costs = [
            fq.nadir_cost(model, fq.DfecAction(dp, 1.5, 28.0), opts) if dp > 0
            else fq.nadir_cost(model, None, opts)
            for dp in np.linspace(0.0, 0.12, 10)
        ]
        assert all(c2 <= c1 + 1e-9 for c1, c2 in zip(costs, costs[1:]))

    def test_steady_state_agrees_controlled_uncontrolled(self, model, opts):
        # The slow turbine lag needs ~2 minutes to settle completely, so the
        # comparison horizon is extended past the scenario default.
        opts = replace(opts, horizon=120.0)
        w_u = fq.simulate(model, None, opts).summary(opts)[0]
        w_c = fq.simulate(model, fq.DfecAction(0.12, 1.5, 28.0), opts).summary(opts)[0]
        assert abs(w_u - w_c) < 1e-4

    def test_steady_state_matches_droop_relation(self, model, opts):
        w_ss = fq.steady_state_speed(model, opts)
        predicted = 1.0 - opts.disturbance / (model.gov.k1 + model.d1 + model.d2)
        assert abs(w_ss - predicted) / abs(1.0 - predicted) < 0.02


class TestScalarStepper:
    """The plain-float stepper against the solve_ivp oracle."""

    BREAK_ON_SAMPLE = fq.DfecAction(0.1, 1.0, 12.0)
    ACTIONS = (
        None,
        fq.DfecAction(0.05, 0.0, 12.0),                 # t_on = 0: no switch-on break
        fq.DfecAction(0.2, 3.0, FAST.horizon + 5.0),    # t_off past the horizon
        BREAK_ON_SAMPLE,
    )

    def test_break_lands_on_output_sample(self):
        t_grid = fq._output_grid(FAST)
        a = self.BREAK_ON_SAMPLE
        assert a.t_on in t_grid and a.t_off in t_grid

    @pytest.mark.parametrize("action", ACTIONS)
    def test_trajectory_matches_oracle(self, model, action):
        traj = fq.simulate(model, action, FAST)
        ref = dfec_oracle.simulate(model, action, FAST)
        assert not traj.unstable and not ref.unstable
        assert traj.y.shape == ref.y.shape == (len(ref.t), 9)
        np.testing.assert_array_equal(traj.t, ref.t)
        err = np.abs(traj.y - ref.y).max(axis=0)
        assert np.all(err <= 1e-10 * np.abs(ref.y).max(axis=0))

    @pytest.mark.parametrize("action", ACTIONS)
    def test_cost_matches_oracle(self, model, action):
        cost = fq.nadir_cost(model, action, FAST)
        ref = dfec_oracle.nadir_cost(model, action, FAST)
        assert abs(cost - ref) <= 1e-10 * ref
        assert cost == fq.simulate(model, action, FAST).summary(FAST)[2]

    def test_loss_of_synchronism(self, model):
        action = fq.DfecAction(4.0, 1.0, 10.0)
        assert dfec_oracle.simulate(model, action, FAST).unstable
        assert fq.nadir_cost(model, action, FAST) == float("inf")
        traj = fq.simulate(model, action, FAST)
        assert traj.unstable
        assert traj.y.shape == (len(traj.t), 9) and np.isnan(traj.y).all()

    def test_runs_are_bit_identical(self, model):
        a = fq.DfecAction(0.12, 1.5, 28.0)
        first, second = fq.simulate(model, a, FAST), fq.simulate(model, a, FAST)
        assert first.y.tobytes() == second.y.tobytes()
        assert fq.nadir_cost(model, a, FAST) == fq.nadir_cost(model, a, FAST)


class TestBatchedCosts:
    # Per-lane dp; t_on = 0 (no switch-on break); t_off beyond the horizon
    # (switch-off break dropped); an uncontrolled lane; a lane whose large
    # injection pulls the machines out of step.
    ACTIONS = (
        fq.DfecAction(0.12, 1.5, 28.0),
        fq.DfecAction(0.05, 0.0, 12.0),
        fq.DfecAction(0.2, 3.0, FAST.horizon + 5.0),
        None,
        fq.DfecAction(4.0, 1.0, 10.0),
        fq.DfecAction(0.08, 0.0, 1e3),
    )

    def test_matches_scalar_cost(self, model):
        batched = fq.nadir_costs(model, self.ACTIONS, FAST)
        scalar = np.array([fq.nadir_cost(model, a, FAST) for a in self.ACTIONS])
        assert np.isinf(scalar[4]) and np.isinf(batched[4])
        finite = np.isfinite(scalar)
        assert finite.sum() == len(self.ACTIONS) - 1
        assert np.all(np.isfinite(batched[finite]))
        rel = np.abs(batched[finite] - scalar[finite]) / np.abs(scalar[finite])
        assert rel.max() < 1e-10

    def test_lane_cost_independent_of_batch(self, model):
        batched = fq.nadir_costs(model, self.ACTIONS, FAST)
        alone = np.array([fq.nadir_costs(model, [a], FAST)[0] for a in self.ACTIONS])
        reordered = fq.nadir_costs(model, self.ACTIONS[::-1], FAST)[::-1]
        assert batched.tobytes() == alone.tobytes() == reordered.tobytes()

    def test_empty_batch(self, model):
        assert fq.nadir_costs(model, [], FAST).shape == (0,)


class TestSimOptions:
    @pytest.mark.parametrize("field", ["horizon", "dt_out", "rtol", "atol", "ss_window"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        with pytest.raises(DimensionError, match=field):
            replace(FAST, **{field: value})

    def test_ss_window_longer_than_horizon_rejected(self):
        with pytest.raises(DimensionError, match="ss_window"):
            replace(FAST, ss_window=FAST.horizon + 1.0)

    def test_dt_out_longer_than_ss_window_rejected(self):
        with pytest.raises(DimensionError, match="dt_out"):
            replace(FAST, dt_out=FAST.ss_window * 2.0)


@pytest.fixture(scope="module")
def small_result(model):
    return fq.optimize_action(
        model, fq.ActionBounds(dp_max=0.05, t_on_max=2.0, t_off_max=10.0),
        FAST, grid_starts=2, refine_starts=1,
    )


class TestOptimize:
    def test_zero_disturbance_returns_zero_cost(self, model):
        calm = replace(FAST, horizon=20.0, disturbance=0.0)
        res = fq.optimize_action(
            model, fq.ActionBounds(dp_max=0.1, t_on_max=5.0, t_off_max=15.0),
            calm, grid_starts=2, refine_starts=1,
        )
        assert res.cost == pytest.approx(0.0, abs=1e-8)
        assert res.uncontrolled_cost == pytest.approx(0.0, abs=1e-8)

    def test_never_worse_than_uncontrolled(self, small_result):
        res = small_result
        assert res.cost <= res.uncontrolled_cost + 1e-12
        assert res.controlled_nadir <= res.uncontrolled_nadir + 1e-12

    def test_result_serializes(self, small_result):
        doc = small_result.to_dict()
        assert set(doc["action"]) == {"dp", "t_on", "t_off"}
        assert doc["cost"] <= doc["uncontrolled_cost"]


class TestContourSweep:
    def test_single_cell_matches_cost(self, model, opts):
        grid = fq.contour_sweep(model, 0.12, np.array([1.5]), np.array([28.0]), opts)
        expected = 1000.0 * fq.nadir_cost(model, fq.DfecAction(0.12, 1.5, 28.0), opts)
        assert grid[0, 0] == pytest.approx(expected)

    def test_invalid_cells_are_nan(self, model):
        grid = fq.contour_sweep(
            model, 0.05, np.array([0.0, 20.0]), np.array([10.0, 30.0]), FAST
        )
        assert np.isnan(grid[1, 0])       # t_on=20 >= t_off=10
        assert np.isfinite(grid[0, 0])

    def test_cell_value_independent_of_grid(self, model):
        t_on = np.array([0.0, 2.0])
        t_off = np.array([10.0, 20.0])
        whole = fq.contour_sweep(model, 0.08, t_on, t_off, FAST)
        cells = np.array([
            [fq.contour_sweep(model, 0.08, [a], [b], FAST)[0, 0] for b in t_off]
            for a in t_on
        ])
        assert whole.tobytes() == cells.tobytes()

    def test_csv_format(self, model, tmp_path):
        t_on = np.array([0.0, 2.0])
        t_off = np.array([10.0, 20.0])
        grid = fq.contour_sweep(model, 0.08, t_on, t_off, FAST)
        path = tmp_path / "sweep.csv"
        fq.sweep_to_csv(path, t_on, t_off, grid)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[1:] == [f"{v:.6f}" for v in t_off]
        assert lines[1].split(",")[0] == "0.000000"
        assert float(lines[1].split(",")[1]) == pytest.approx(grid[0, 0], abs=1e-6)


class TestScenarioIngestion:
    def test_bundled_scenario_loads(self, dfec_scenario):
        assert dfec_scenario.model.h1 == 3.75
        assert dfec_scenario.bounds.dp_max == pytest.approx(0.2)
        assert dfec_scenario.sweep_t_on is not None

    def test_action_window_invariant(self):
        with pytest.raises(DimensionError):
            fq.DfecAction(0.1, 5.0, 4.0)
        with pytest.raises(DimensionError):
            fq.DfecAction(-0.1, 1.0, 4.0)
