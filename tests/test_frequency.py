"""Two-machine frequency excursion model: dynamics, cost, optimization,
sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle
from gridstep import frequency as fq
from gridstep.errors import DimensionError, OptimizationError, StiffnessError

FAST = fq.SimOptions(horizon=40.0, rtol=1e-6, atol=1e-8)
# Long enough for the governors below to settle; one sample a second.
LONG = fq.SimOptions(horizon=250.0, dt_out=1.0, rtol=1e-9, atol=1e-11)


@pytest.fixture(scope="module")
def model(dfec_scenario):
    return dfec_scenario.model


@pytest.fixture(scope="module")
def opts(dfec_scenario):
    return dfec_scenario.sim


class TestDynamics:
    def test_equilibrium_is_fixed_point(self, model):
        rhs = fq.dfec_dynamics(model, 0.0, model.p_set)
        dy = np.asarray(rhs(*model.equilibrium()))
        assert np.abs(dy).max() < 1e-12

    def test_load_step_initial_deceleration(self, model):
        # At the disturbance instant only the motor sees the extra load:
        # dw2/dt = -step / (2 h2), dw1/dt = 0.
        rhs = fq.dfec_dynamics(model, 0.0, model.p_set + 0.25)
        dy = np.asarray(rhs(*model.equilibrium()))
        assert dy[3] == pytest.approx(-0.25 / (2.0 * model.h2))
        assert dy[1] == pytest.approx(0.0)

    def test_doubled_inertia_halves_initial_rocof(self, model):
        heavy = replace(model, h1=2.0 * model.h1, h2=2.0 * model.h2)
        d_light = np.asarray(
            fq.dfec_dynamics(model, 0.0, model.p_set + 0.25)(*model.equilibrium())
        )
        d_heavy = np.asarray(
            fq.dfec_dynamics(heavy, 0.0, heavy.p_set + 0.25)(*heavy.equilibrium())
        )
        assert d_heavy[3] == pytest.approx(0.5 * d_light[3])

    def test_injection_accelerates_generator(self, model):
        rhs = fq.dfec_dynamics(model, 0.1, model.p_set)
        dy = np.asarray(rhs(*model.equilibrium()))
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

    def test_steady_state_agrees_controlled_uncontrolled(self, model):
        # An injection that has ended leaves the steady state where it was,
        # and 250 s runs of the bundled model settle there.
        for action in (None, fq.DfecAction(0.12, 1.5, 28.0)):
            run = fq.simulate(model, action, LONG)
            assert run.w_ss == fq.steady_speed(model, 0.0, model.p_set + LONG.disturbance)
            assert abs(run.avg_speed[-1] - run.w_ss) <= 1e-8

    def test_steady_state_matches_droop_relation(self, model, opts):
        w_ss = fq.simulate(model, None, opts).summary()[0]
        predicted = 1.0 - opts.disturbance / (model.gov.k1 + model.d1 + model.d2)
        assert w_ss == pytest.approx(predicted, rel=0.0, abs=4e-16)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(step=st.floats(0.10, 0.15), share=st.floats(0.0, 1.0), t_on=st.floats(0.0, 5.0),
           length=st.floats(0.1, 35.0))
    def test_doubled_step_and_injection_double_the_cost(self, model, step, share, t_on,
                                                        length):
        # On the symmetric model the average speed is linear in the load step
        # and the injection but for the sine in the governor's input: doubling
        # both doubles the cost, which catches a scaling error anywhere in the
        # cost path.
        costs = [fq.nadir_cost(model, fq.DfecAction(k * share * step, t_on, t_on + length),
                               replace(FAST, disturbance=k * step)) for k in (1, 2)]
        assert abs(costs[1] - 2.0 * costs[0]) <= 1e-5 * costs[1]


class TestResumedRuns:
    """A run started from a recorded prefix changes nothing a caller reads,
    wherever it stops, and records each piece it does not resume but a cost
    run's last."""

    @pytest.fixture(scope="class")
    def shared(self, model):
        # A hand-off run records its first piece, [0, 3), and stops there.
        shared = {}
        fq._dense_rows(model, fq._pieces(model, fq.DfecAction(0.08, 3.0, 50.0), FAST), FAST,
                       shared=shared, hand_off=True)
        return shared

    @pytest.fixture
    def states(self, shared, monkeypatch):
        """The states the recorded prefix hands out, in order."""
        (prefix,) = shared.values()
        states = []

        def resume(bound):
            state = fq._Prefix.resume(prefix, bound)
            states.append(state)
            return state

        monkeypatch.setattr(prefix, "resume", resume)
        return states

    @pytest.mark.parametrize("t_on, resumes", [
        (0.0, False),           # the first piece injects
        (1e-4, False),          # shorter than the first step
        (1.0, True),            # on an output sample
        (5.0, True),            # past the last kept state
    ], ids=["t_on-0", "before-first-step", "on-sample", "past-last-state"])
    def test_resumed_run_is_the_fresh_run(self, model, shared, states, t_on, resumes):
        (prefix,) = shared.values()
        assert 1.0 in fq._output_grid(FAST).tolist() and prefix.reach[0] > 1e-4
        assert prefix.reach[-1] < prefix.bound < 5.0
        action = fq.DfecAction(0.08, t_on, 12.0)
        fresh_records, recorded = {}, dict(shared)
        fresh = fq.nadir_cost(model, action, FAST, fresh_records, summary=True)
        resumed = fq.nadir_cost(model, action, FAST, recorded, summary=True)
        assert _summary_bytes(resumed) == _summary_bytes(fresh)
        # The resumed run records the pieces it does not resume, state for
        # state as the fresh run records them.
        kept = {key: record for key, record in _records(recorded).items() if key not in shared}
        assert kept and kept == {key: record for key, record in _records(fresh_records).items()
                                 if key not in shared}
        # A first piece whose start differs from the recorded one's is not
        # looked up at all.
        assert (bool(states) and states[0] is not None) == resumes
        if resumes:
            # The last state whose attempts all aimed before t_on.
            k = list(map(prefix.state, range(len(prefix.reach)))).index(states[0])
            assert prefix.reach[k] < t_on
            assert k == len(prefix.reach) - 1 or prefix.reach[k + 1] >= t_on

    def test_stop_inside_the_prefix(self, model, shared, states):
        # The injection runs past the horizon, so the last piece starts at
        # switch-on, before the recorded prefix ends: the resumed run hands
        # off there the fresh run's state.
        (prefix,) = shared.values()
        pieces = fq._pieces(model, fq.DfecAction(0.08, 2.9, 50.0), FAST)
        assert len(pieces) == 2 and pieces[1][0] == 2.9 < prefix.bound
        fresh = fq._dense_rows(model, pieces, FAST, hand_off=True)
        resumed = fq._dense_rows(model, pieces, FAST, shared=dict(shared), hand_off=True)
        assert states and states[0] is not None and states[0][0] < 2.9
        assert resumed == fresh

    def test_cost_run_keeps_no_record_of_its_last_piece(self, model):
        # The first injection runs past the horizon: its last piece starts
        # at switch-on, where its lowest speed restarts. The second one's
        # injection piece starts there too, but not as its last, so a
        # record of the first one's last piece would hand it the wrong dip.
        shared = {}
        fq.nadir_cost(model, fq.DfecAction(0.08, 12.0, 50.0), FAST, shared)
        action = fq.DfecAction(0.08, 12.0, 16.0)
        after = fq.nadir_cost(model, action, FAST, shared, summary=True)
        assert _summary_bytes(after) == _summary_bytes(fq.nadir_cost(model, action, FAST,
                                                                     summary=True))
        assert round(after[2], 6) == 0.040885

    def test_forward_difference_in_t_off_resumes_the_injection(self, model, monkeypatch):
        # The trust region's difference run in the window length moves only
        # t_off: it resumes the iterate's run up to the iterate's switch-off.
        resumed, plain = [], fq._Prefix.resume

        def resume(prefix, bound):
            state = plain(prefix, bound)
            resumed.append((prefix, state))
            return state

        monkeypatch.setattr(fq._Prefix, "resume", resume)
        shared = {}
        fq.nadir_cost(model, fq.DfecAction(0.1, 1.0, 12.0), FAST, shared)
        switch_on, injection = shared.values()
        action = fq.DfecAction(0.1, 1.0, 12.0 + 1e-3 * (15.0 - 1.0))
        after = fq.nadir_cost(model, action, FAST, shared, summary=True)
        assert [(prefix, state is not None) for prefix, state in resumed] == [
            (switch_on, True), (injection, True)]
        assert 11.0 < resumed[1][1][0] < 12.0
        assert _summary_bytes(after) == _summary_bytes(fq.nadir_cost(model, action, FAST,
                                                                     summary=True))


def _summary_bytes(summary):
    """``nadir_cost(..., summary=True)``'s numbers as bytes."""
    w_ss, nadir, cost, dips = summary
    return np.array([w_ss, nadir, cost, *dips]).tobytes()


GOVERNORS = st.fixed_dictionaries({
    "k1": st.floats(5.0, 20.0), "t1": st.floats(0.05, 0.3), "t2": st.floats(0.0, 0.2),
    "t3": st.floats(0.05, 0.3), "k2": st.floats(0.0, 1.0), "k3": st.floats(0.0, 1.0),
    "t4": st.floats(0.2, 1.0), "t5": st.floats(0.5, 3.0), "t6": st.floats(2.0, 12.0),
    "p_max": st.one_of(st.just(2.0), st.floats(0.85, 0.95)),
})
CLAMPED = dict(k1=18.0, t1=0.2, t2=0.1, t3=0.3, k2=1.0, k3=1.0, t4=1.0, t5=3.0, t6=10.0,
               p_max=0.85)
# A governor loop that rings on around its equilibrium with d1 = d2 = 1: the
# Jacobian's slowest pair is +0.0058 +- 0.160j.
RINGING = dict(k1=20.0, t1=0.5, t2=0.0, t3=0.5, k2=1.0, k3=1.0, t4=1.5, t5=4.0, t6=30.0)


class TestSteadySpeed:
    @settings(max_examples=8, deadline=None, derandomize=True)
    @example(gov=CLAMPED, d1=2.0, d2=2.0, dp=0.0)
    @given(gov=GOVERNORS, d1=st.floats(1.0, 3.0), d2=st.floats(1.0, 3.0),
           dp=st.floats(0.0, 0.2))
    def test_closed_form_matches_long_run(self, model, gov, d1, d2, dp):
        # The turbine lags stay short (a governor held at a limit settles at
        # their pace) and a sustained injection moves the balance.
        model = replace(model, gov=replace(model.gov, **gov), d1=d1, d2=d2)
        run = fq.simulate(model, fq.DfecAction(dp, 1.0, math.inf) if dp else None, LONG)
        last = run.avg_speed[-51:]                       # the last 50 s
        # A governor loop with too little damping rings on and never settles.
        assume(not run.unstable and np.ptp(last) <= 1e-8)
        assert abs(last[-1] - run.w_ss) <= 1e-8

    def test_clamped_example_is_clamped(self, model):
        w_ss = fq.steady_speed(replace(model, gov=replace(model.gov, **CLAMPED)),
                               0.0, model.p_set + 0.25)
        assert model.p_set - CLAMPED["k1"] * (w_ss - 1.0) > CLAMPED["p_max"]
        droop = (CLAMPED["p_max"] - model.p_set - 0.25) / (model.d1 + model.d2)
        assert w_ss == pytest.approx(1.0 + droop, rel=0.0, abs=4e-16)

    @pytest.mark.parametrize("gov,damping", [
        (dict(p_max=0.8), 0.0),    # the governor's limit is below the load
        (dict(k1=0.0), 0.0),       # no governor action
        (RINGING, 1.0),            # an unstable equilibrium
    ], ids=["gov0", "gov1", "ringing"])
    def test_no_steady_state_costs_instability(self, model, gov, damping):
        # Without damping nothing else can balance the load; the ringing
        # governor's balance is an unstable equilibrium.
        model = replace(model, gov=replace(model.gov, **gov), d1=damping, d2=damping)
        assert math.isnan(fq.steady_speed(model, 0.0, model.p_set + FAST.disturbance))
        window = (0.05, 1.0, 10.0)
        action = fq.DfecAction(*window)
        run = fq.simulate(model, None, FAST)
        assert not run.unstable and run.summary()[2] == fq.INSTABILITY_COST
        assert fq.nadir_cost(model, action, FAST) == fq.INSTABILITY_COST
        assert list(fq.nadir_costs(model, [None, action], FAST)) == [fq.INSTABILITY_COST] * 2
        surrogate = fq.StepResponse.measure(model, run, 0.05, FAST)
        assert surrogate.cost(*window) == fq.INSTABILITY_COST
        with pytest.raises(OptimizationError, match="does not settle"):
            fq.optimize_action(model, fq.ActionBounds(), FAST)


def _reduced_rate(model, dp_active, p_motor, z):
    """``dfec_dynamics`` in the reduced state z (with d2 = 0)."""
    dy = fq.dfec_dynamics(model, dp_active, p_motor)(*np.insert(z, 2, 0.0).tolist())
    return np.array([dy[0] - dy[2], dy[1], *dy[3:]])


def _spy_settled(monkeypatch):
    """Count the runs and lanes ``_settled`` stops from here on."""
    stops, real = [], fq._settled

    def spy(settling, y, low):
        out = real(settling, y, low)
        stops.append(int(np.sum(out)))
        return out

    monkeypatch.setattr(fq, "_settled", spy)
    return stops


class TestSettling:
    """Cost runs stop once the final equilibrium's modal bound shows that no
    later sample can set a new minimum or slip."""

    def test_jacobian_matches_central_differences(self, model):
        p_motor = model.p_set + FAST.disturbance
        for dp_active in (0.0, 0.1):
            settling = fq._settling(model, dp_active, p_motor)
            z = settling.z_eq
            assert np.abs(_reduced_rate(model, dp_active, p_motor, z)).max() < 1e-12
            step = 1e-6
            numeric = np.column_stack([
                (_reduced_rate(model, dp_active, p_motor, z + step * unit)
                 - _reduced_rate(model, dp_active, p_motor, z - step * unit)) / (2.0 * step)
                for unit in np.eye(8)])
            jac = fq._jacobian(model, dp_active, p_motor, np.insert(z, 2, 0.0).tolist())
            assert np.abs(numeric - jac).max() <= 1e-6 * np.abs(jac).max()

    def test_bundled_and_ringing_spectra(self, model):
        p_motor = model.p_set + FAST.disturbance
        y = np.insert(fq._settling(model, 0.0, p_motor).z_eq, 2, 0.0).tolist()
        lam = np.linalg.eigvals(fq._jacobian(model, 0.0, p_motor, y))
        assert lam.real.max() == pytest.approx(-0.0763, abs=1e-4)
        ringing = replace(model, gov=replace(model.gov, **RINGING), d1=1.0, d2=1.0)
        y, _ = oracle.equilibrium(ringing, 0.0, p_motor)
        lam = np.linalg.eigvals(fq._jacobian(ringing, 0.0, p_motor, y))
        assert lam.real.max() == pytest.approx(0.0058, abs=1e-4)

    def test_jacobian_is_the_hand_written_one(self, model):
        """The complex steps through ``dfec_dynamics`` give the hand-written
        Jacobian bit for bit at seeded random equilibria, with the governor
        inside its limits and clamped. The clamped limiter's zero slope is
        ``0.0`` stepped and ``-0.0`` by hand, so zeros compare unsigned."""
        rng = np.random.default_rng(32)
        clamped = inside = 0
        while min(clamped, inside) < 500:
            load = model.p_set + float(rng.uniform(0.05, 0.5))
            gov = dict(zip(("k1", "t1", "t2", "t3", "k2", "k3", "t4", "t5", "t6"),
                           rng.uniform([5.0, 0.05, 0.0, 0.05, 0.0, 0.0, 0.2, 0.5, 2.0],
                                       [20.0, 0.3, 0.2, 0.3, 1.0, 1.0, 1.0, 3.0, 12.0]).tolist()),
                       p_max=load + float(rng.uniform(-0.3, 0.6)),
                       p_min=load - float(rng.uniform(0.05, 0.6)))
            if gov["p_min"] >= gov["p_max"]:
                continue
            h1, h2, d1, d2, x = rng.uniform([0.5, 0.5, 0.0, 0.0, 0.2],
                                            [8.0, 8.0, 4.0, 4.0, 0.6]).tolist()
            case = replace(model, gov=replace(model.gov, **gov), h1=h1, h2=h2, d1=d1, d2=d2, x=x)
            dp = float(rng.choice([0.0, rng.uniform(0.0, 0.3)]))
            rest = oracle.equilibrium(case, dp, load)
            if rest is None:
                continue
            y, slope = rest
            clamped, inside = clamped + (slope == 0.0), inside + (slope == 1.0)
            jac = fq._jacobian(case, dp, load, y)
            assert (jac + 0.0).tobytes() == (oracle.jacobian(case, y[0], slope) + 0.0).tobytes()

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(gov=GOVERNORS, h1=st.floats(0.5, 8.0), h2=st.floats(0.5, 8.0),
           d1=st.floats(0.0, 4.0), d2=st.floats(0.0, 4.0), x=st.floats(0.2, 0.6),
           disturbance=st.floats(0.05, 0.5), above=st.floats(0.05, 0.6),
           below=st.floats(0.05, 0.6), dp=st.floats(0.0, 0.3), t_on=st.floats(0.0, 5.0),
           length=st.floats(0.1, 40.0))
    def test_stopped_cost_is_full_cost(self, model, gov, h1, h2, d1, d2, x, disturbance,
                                       above, below, dp, t_on, length):
        # The governor limits sit near the load, where the runs meet them.
        load = model.p_set + disturbance
        gov = {**gov, "p_max": load + above, "p_min": load - below}
        model = replace(model, gov=replace(model.gov, **gov), h1=h1, h2=h2, d1=d1, d2=d2, x=x)
        opts = replace(FAST, disturbance=disturbance)
        action = fq.DfecAction(dp, t_on, t_on + length) if dp else None
        stopped = fq.nadir_cost(model, action, opts, summary=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fq, "_settled", lambda settling, y, low: False)
            full = fq.nadir_cost(model, action, opts, summary=True)
        assert _summary_bytes(stopped) == _summary_bytes(full)

    def test_bundled_sweep_is_unchanged_by_the_stop(self, dfec_scenario, monkeypatch):
        scn = dfec_scenario
        actions = [fq.DfecAction(scn.sweep_dp, t_on, t_off)
                   for t_on in scn.sweep_t_on for t_off in scn.sweep_t_off if t_on < t_off]
        stops = _spy_settled(monkeypatch)
        stopped = fq.nadir_costs(scn.model, actions, scn.sim)
        assert sum(stops) == len(actions)      # every lane retires before the horizon
        monkeypatch.setattr(fq, "_settled", lambda settling, y, low: False)
        assert stopped.tobytes() == fq.nadir_costs(scn.model, actions, scn.sim).tobytes()

    def test_clamped_governor_runs_to_the_horizon(self, model, monkeypatch):
        # The command sits on p_max at rest: the linearization there does not
        # see the limiter, so no bound is given.
        clamped = replace(model, gov=replace(model.gov, **CLAMPED))
        assert fq._settling(clamped, 0.0, model.p_set + FAST.disturbance).inv_v is None
        stops = _spy_settled(monkeypatch)
        action = fq.DfecAction(0.1, 1.0, 12.0)
        dips = fq.nadir_cost(clamped, action, FAST, summary=True)[3]
        full = fq.simulate(clamped, action, FAST)
        plan = fq._pieces(clamped, action, FAST)
        assert dips.tolist() == fq._dips(full.t, full.avg_speed, plan).tolist()
        fq.nadir_costs(clamped, [None, action], FAST)
        assert sum(stops) == 0


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
        ref = oracle.simulate(model, action, FAST)
        assert not traj.unstable and not ref.unstable
        assert traj.y.shape == ref.y.shape == (len(ref.t), 9)
        np.testing.assert_array_equal(traj.t, ref.t)
        err = np.abs(traj.y - ref.y).max(axis=0)
        assert np.all(err <= 1e-10 * np.abs(ref.y).max(axis=0))

    @pytest.mark.parametrize("action", ACTIONS)
    def test_cost_matches_oracle(self, model, action):
        cost = fq.nadir_cost(model, action, FAST)
        ref = oracle.nadir_cost(model, action, FAST)
        assert abs(cost - ref) <= 1e-10 * ref
        assert cost == fq.simulate(model, action, FAST).summary()[2]

    def test_loss_of_synchronism(self, model):
        action = fq.DfecAction(4.0, 1.0, 10.0)
        assert oracle.simulate(model, action, FAST).unstable
        assert fq.nadir_cost(model, action, FAST) == float("inf")
        traj = fq.simulate(model, action, FAST)
        assert traj.unstable
        assert traj.y.shape == (len(traj.t), 9) and np.isnan(traj.y).all()

    def test_runs_are_bit_identical(self, model):
        a = fq.DfecAction(0.12, 1.5, 28.0)
        first, second = fq.simulate(model, a, FAST), fq.simulate(model, a, FAST)
        assert first.y.tobytes() == second.y.tobytes()
        assert fq.nadir_cost(model, a, FAST) == fq.nadir_cost(model, a, FAST)

    # The bundled machines, for the examples.
    BUNDLED = dict(h1=3.75, h2=3.75, d1=2.0, d2=2.0)

    @settings(max_examples=15, deadline=None, derandomize=True)    # and 6 examples
    @example(gov={}, **BUNDLED, dp=0.05, t_on=0.0, length=12.0)     # t_on = 0
    @example(gov={}, **BUNDLED, dp=0.2, t_on=3.0, length=42.0)      # t_off past the horizon
    @example(gov={}, **BUNDLED, dp=0.1, t_on=1.0, length=11.0)      # breaks on samples
    @example(gov={}, **BUNDLED, dp=4.0, t_on=1.0, length=9.0)       # loses synchronism
    @example(gov=CLAMPED, **BUNDLED, dp=0.1, t_on=1.0, length=11.0)
    # The half-length injection's last attempt to its break is rejected.
    @example(gov={}, **BUNDLED, dp=0.039, t_on=1.663, length=28.887)
    @given(gov=GOVERNORS, h1=st.floats(1.0, 6.0), h2=st.floats(1.0, 6.0),
           d1=st.floats(0.0, 3.0), d2=st.floats(0.0, 3.0), dp=st.floats(0.0, 0.25),
           t_on=st.floats(0.0, 5.0), length=st.floats(0.1, 40.0))
    def test_bit_identical_to_list_loop(self, model, gov, h1, h2, d1, d2, dp, t_on, length):
        # The straight-line step against the same step over 9-element lists.
        model = replace(model, gov=replace(model.gov, **gov), h1=h1, h2=h2, d1=d1, d2=d2)
        action = fq.DfecAction(dp, t_on, t_on + length) if dp else None
        half = fq.DfecAction(dp, t_on, t_on + 0.5 * length) if dp else None
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            for rows in (fq._dense_rows, oracle.list_rows):
                patch.setattr(fq, "_dense_rows", rows)
                # A cost run started from the uncontrolled run's records,
                # recording its own pieces.
                shared = {}
                fq._trajectory(model, None, FAST, shared)
                resumed = _summary_bytes(fq.nadir_cost(model, action, FAST, shared, summary=True))
                # The whole injection resumes every piece before its last
                # from the records the half-length one leaves, and steps on.
                later = {}
                hand_offs = [fq._dense_rows(model, fq._pieces(model, a, FAST), FAST,
                                            shared=later, hand_off=True)
                             for a in (half, action)]
                runs.append((fq.simulate(model, action, FAST), fq.nadir_cost(model, action, FAST),
                             resumed, _records(shared), hand_offs, _records(later)))
        (run, cost, resumed, *kept), (ref, ref_cost, ref_resumed, *ref_kept) = runs
        assert kept[1] == [fq._dense_rows(model, fq._pieces(model, a, FAST), FAST,
                                          hand_off=True) for a in (half, action)]
        assert run.unstable == ref.unstable and run.t.tobytes() == ref.t.tobytes()
        assert run.y.tobytes() == ref.y.tobytes()
        assert cost == ref_cost
        assert not ref.unstable or cost == fq.INSTABILITY_COST
        assert kept == ref_kept
        assert resumed == ref_resumed
        assert resumed == _summary_bytes(fq.nadir_cost(model, action, FAST, summary=True))


def _records(shared):
    """The ``_Prefix`` records of ``shared`` as plain lists, by start."""
    return {key: (p.bound, list(p.reach), p.states.tolist()) for key, p in shared.items()}


def test_tableau_is_scipys_rk45():
    """The literal Dormand-Prince constants equal ``scipy.integrate.RK45``'s,
    element for element; the terms left out are zero (or 1 at P[0, 0])."""
    from scipy.integrate import RK45

    a = [[getattr(fq, f"_A{i}{j}") for j in range(1, i)] for i in range(2, 7)]
    assert [RK45.A[s, :s].tolist() for s in range(1, 6)] == a
    assert not np.triu(RK45.A).any()
    assert RK45.B.tolist() == [fq._B1, 0.0, fq._B3, fq._B4, fq._B5, fq._B6]
    assert RK45.E.tolist() == [fq._E1, 0.0, fq._E3, fq._E4, fq._E5, fq._E6, fq._E7]
    p = RK45.P.tolist()
    assert p[0] == [1.0, fq._P1x2, fq._P1x3, fq._P1x4]
    assert p[1] == [0.0] * 4
    for j in range(3, 8):
        assert p[j - 1] == [0.0] + [getattr(fq, f"_P{j}x{n}") for n in (2, 3, 4)]
    assert fq._ERR_EXP == -1.0 / (RK45.error_estimator_order + 1)


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
        assert np.isinf(scalar[4]) and np.isfinite(np.delete(scalar, 4)).all()
        assert batched.tobytes() == scalar.tobytes()

    # Sweep grids (dp, t_on x t_off) with None and dp = 0 beside them. The
    # examples: a t_on = 0 row, a t_off on a sample, two in one solver step
    # and one past the horizon; injections so short that their initial step
    # is their length; breaks before, at and after the load step; a row that
    # slips while on; dp = 0.
    @settings(max_examples=12, deadline=None, derandomize=True)     # and 5 examples
    @example(dp=0.12, t_on=[0.0, 1.0], t_off=[12.0, 12.001, 45.0], t_disturbance=0.0)
    @example(dp=0.12, t_on=[2.5], t_off=[2.5000001, 2.500001, 20.0], t_disturbance=0.0)
    @example(dp=0.12, t_on=[0.0, 0.35, 1.0], t_off=[0.5, 0.7, 12.0], t_disturbance=0.7)
    @example(dp=4.0, t_on=[1.0], t_off=[10.0, 30.0], t_disturbance=0.0)
    @example(dp=0.0, t_on=[1.0], t_off=[10.0], t_disturbance=0.0)
    @given(dp=st.floats(0.0, 0.25), t_on=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
           t_off=st.lists(st.floats(0.0, 45.0), min_size=1, max_size=4),
           t_disturbance=st.sampled_from([0.0, 0.7]))
    def test_shared_histories_are_the_scalar_runs(self, model, dp, t_on, t_off, t_disturbance):
        opts = replace(FAST, t_disturbance=t_disturbance)
        actions = [None, fq.DfecAction(0.0, 1.0, 5.0)]
        actions += [fq.DfecAction(dp, a, b) for a in t_on for b in t_off if a < b]
        batched = fq.nadir_costs(model, actions, opts)
        scalar = np.array([fq.nadir_cost(model, a, opts) for a in actions])
        assert batched.tobytes() == scalar.tobytes()

    def test_slip_while_on_is_found_before_the_lanes(self, model):
        action = fq.DfecAction(4.0, 1.0, 10.0)
        pieces = fq._pieces(model, action, FAST)
        assert fq._dense_rows(model, pieces, FAST, hand_off=True) is None
        assert fq.nadir_costs(model, [action], FAST)[0] == fq.INSTABILITY_COST

    def test_rows_share_their_history(self, model, monkeypatch):
        # Each float run but the first through a piece start resumes there:
        # all six cells share the uncontrolled run, each row its injection.
        resumed, plain = [], fq._Prefix.resume

        def resume(prefix, bound):
            state = plain(prefix, bound)
            resumed.append(state is not None)
            return state

        monkeypatch.setattr(fq._Prefix, "resume", resume)
        actions = [fq.DfecAction(0.1, a, b) for a in (1.0, 2.0) for b in (10.0, 12.0, 14.0)]
        fq.nadir_costs(model, actions, FAST)
        assert resumed == [True] * 9

    def test_lane_cost_independent_of_batch(self, model):
        batched = fq.nadir_costs(model, self.ACTIONS, FAST)
        alone = np.array([fq.nadir_costs(model, [a], FAST)[0] for a in self.ACTIONS])
        reordered = fq.nadir_costs(model, self.ACTIONS[::-1], FAST)[::-1]
        assert batched.tobytes() == alone.tobytes() == reordered.tobytes()

    def test_empty_batch(self, model):
        assert fq.nadir_costs(model, [], FAST).shape == (0,)


@pytest.mark.parametrize("integrate", [
    fq.simulate, fq.nadir_cost, lambda model, a, opts: fq.nadir_costs(model, [a], opts)])
def test_overflowing_action_is_stiffness_error(model, integrate):
    # The state derivative overflows: no finite initial step size exists.
    with pytest.raises(StiffnessError, match="not finite"):
        integrate(model, fq.DfecAction(1e308, 1.0, 5.0), FAST)


class TestSimOptions:
    @pytest.mark.parametrize("field", ["horizon", "dt_out", "rtol", "atol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        with pytest.raises(DimensionError, match=field):
            replace(FAST, **{field: value})


class TestStepResponse:
    """The linear-response surrogate against the nonlinear model."""

    ACTIONS = (
        (0.05, 0.0, 12.0),
        (0.12, 1.5, 28.0),
        (0.2, 3.0, FAST.horizon + 5.0),     # t_off past the horizon
        (0.1, 1.0, 12.0),
        (0.116, 0.0, 29.6),                 # near the bundled optimum
        (0.12, 2.0, 30.0),
        (0.08, 0.5, 39.99),
        # the switch-off dip is the shallower, and the stop must still reach it
        (0.05, 2.1, 28.5),
        (0.0726, 6.31, 17.27),
    )

    def test_exact_on_symmetric_calibration(self, model):
        # Equal inertias and damping: the superposition is nearly exact (the
        # model's nonlinearity reaches the average speed only through the
        # governor's input). The cost error is measured against the
        # uncontrolled cost, the scale of every cost here.
        uncontrolled = fq.simulate(model, None, FAST)
        c0 = uncontrolled.summary()[2]
        surrogate = fq.StepResponse.measure(model, uncontrolled, 0.1, FAST)
        assert surrogate.dp_ref == 0.1
        for action in self.ACTIONS:
            run = fq.simulate(model, fq.DfecAction(*action), FAST)
            assert np.abs(surrogate.avg_speed(*action) - run.avg_speed).max() <= 1e-7
            assert abs(surrogate.cost(*action) - run.summary()[2]) <= 1e-6 * c0

    def test_dips_split_at_the_last_piece(self, model):
        run = fq.simulate(model, fq.DfecAction(0.1, 1.0, 12.0), FAST)
        plan = fq._pieces(model, fq.DfecAction(0.1, 1.0, 12.0), FAST)
        before = run.t < 12.0 - 1e-12
        assert fq._dips(run.t, run.avg_speed, plan).tolist() == [
            run.avg_speed[before].min(), run.avg_speed[~before].min()]
        # One piece: the first dip is the first sample, the rest the second.
        run = fq.simulate(model, None, FAST)
        plan = fq._pieces(model, None, FAST)
        assert fq._dips(run.t, run.avg_speed, plan).tolist() == [1.0, run.avg_speed.min()]

    def test_dips_match_the_nonlinear_run(self, model):
        # Each of the two dips alone, as the trust region corrects them; a
        # cost run's dips are the full-horizon run's, as its stop certifies
        # the switch-off dip even where the other one is deeper.
        uncontrolled = fq.simulate(model, None, FAST)
        c0 = uncontrolled.summary()[2]
        surrogate = fq.StepResponse.measure(model, uncontrolled, 0.1, FAST)
        for action in self.ACTIONS:
            w_ss, nadir, _, dips = fq.nadir_cost(model, fq.DfecAction(*action), FAST,
                                                 summary=True)
            full = fq.simulate(model, fq.DfecAction(*action), FAST)
            plan = fq._pieces(model, fq.DfecAction(*action), FAST)
            assert dips.tolist() == fq._dips(full.t, full.avg_speed, plan).tolist()
            assert 1.0 - min(dips) == nadir
            s_w_ss, s_dips = surrogate.dips(*action)
            # A "dip" above w_ss (switched off 10 ms before the horizon)
            # cannot set the cost: it is one sample, held to the bound above.
            bound = np.where(dips < w_ss, 1e-6 * c0, 1e-7)
            assert s_w_ss == w_ss and np.all(np.abs(s_dips - dips) <= bound)


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

    def test_large_dp_max_halves_step_amplitude(self, model):
        # A sustained 4 pu injection (dp_max / 2) pulls the machines out of
        # step; the step response is taken at 2 pu instead.
        res = fq.optimize_action(
            model, fq.ActionBounds(dp_max=8.0, t_on_max=2.0, t_off_max=10.0),
            replace(FAST, horizon=20.0), grid_starts=2, refine_starts=1,
        )
        assert res.dp_ref == 2.0
        assert np.isfinite(res.cost) and res.cost <= res.uncontrolled_cost

    def test_polish_absorbs_surrogate_error_on_asymmetric_machines(self, model):
        # A light, undamped motor: the machines swing against each other and
        # the average speed is no longer linear in the injection.
        asym = replace(model, h2=1.5, d2=0.0)
        bounds = fq.ActionBounds(dp_max=0.2, t_on_max=4.0, t_off_max=25.0)
        res = fq.optimize_action(asym, bounds, FAST)
        assert res.cost == fq.nadir_cost(asym, res.action, FAST)
        # The surrogate is far off here: its optimum's cost reads ~14 % low.
        assert res.start_cost - res.start_surrogate_cost > 0.1 * res.start_cost
        actions = [fq.DfecAction(dp, t_on, t_off)
                   for dp in np.linspace(0.0, bounds.dp_max, 9)[1:]
                   for t_on in np.linspace(0.0, bounds.t_on_max, 9)
                   for t_off in np.linspace(0.0, bounds.t_off_max, 11) if t_on < t_off]
        assert res.cost <= 1.02 * fq.nadir_costs(asym, actions, FAST).min()

    # Each case's cost with Nelder-Mead on the nonlinear cost as the polish,
    # and its count of nonlinear cost runs there: the trust region must not
    # cost more (beyond 1e-6 relative) and must make fewer runs.
    NELDER_MEAD = {"bench": (0.021891088680891513, 78), "bundled": (0.016653121092773837, 79),
                   "asymmetric": (0.028859780337511687, 198)}

    @pytest.mark.parametrize("case", ["bench", "bundled", "asymmetric"])
    def test_trust_region_polish(self, dfec_scenario, case):
        scn = dfec_scenario
        if case == "bench":         # the benchmark's dfec-optimize case
            args = (scn.model, fq.ActionBounds(0.1, 3.0, 15.0), FAST)
            kwargs = dict(grid_starts=2, refine_starts=1)
        elif case == "bundled":
            args = (scn.model, scn.bounds, scn.sim)
            kwargs = dict(initial_guess=scn.action, grid_starts=scn.grid_starts,
                          refine_starts=scn.refine_starts)
        else:                       # test_polish_absorbs_surrogate_error_... 's
            args = (replace(scn.model, h2=1.5, d2=0.0), fq.ActionBounds(0.2, 4.0, 25.0), FAST)
            kwargs = {}
        res = fq.optimize_action(*args, **kwargs)
        # Every run is exact: the reported cost is its action's cost.
        assert res.cost == fq.nadir_cost(args[0], res.action, args[2])
        assert res.cost <= res.start_cost
        cost, evals = self.NELDER_MEAD[case]
        assert res.cost <= cost * (1.0 + 1e-6)
        assert res.nonlinear_evals < evals
        if case == "bench":
            assert fq.optimize_action(*args, **kwargs).to_dict() == res.to_dict()

    def test_trust_region_finds_the_kink(self):
        # Two dips whose crossing is the optimum, (4/7, 0.3, 0.6) at cost
        # 1 - (0.95 + 0.03 * 4/7), seen through a surrogate that is off in
        # value and slope, nonlinearly for the first dip.
        def dips(v):
            return np.array([0.95 + 0.03 * v[0] - 0.01 * (v[1] - 0.3) ** 2,
                             0.99 - 0.04 * v[0] - 0.02 * (v[2] - 0.6) ** 2])

        costs = []

        def nonlinear(v):
            costs.append(1.0 - dips(v).min())
            return costs[-1], costs[-1], dips(v)

        def surrogate(v):
            return 1.0, dips(v) + [-0.002 + 0.004 * v[0] ** 2, 0.003 - 0.005 * v[2]]

        x0 = np.array([0.2, 0.5, 0.5])
        x, (cost, _, _) = fq._trust_region(nonlinear, surrogate, x0, nonlinear(x0),
                                           np.zeros(3), np.ones(3))
        assert cost == min(costs) and cost == 1.0 - dips(x).min()
        assert cost - (1.0 - (0.95 + 0.03 * 4.0 / 7.0)) <= 1e-9
        assert np.abs(x - [4.0 / 7.0, 0.3, 0.6]).max() <= 1e-3

    def test_trust_region_stops_at_an_unstable_difference(self):
        # A forward-difference run that slips gives no slope: the polish
        # keeps its start after the three difference runs.
        def nonlinear(v):
            runs.append(v)
            if v[0] > 0.25:
                return math.inf, math.nan, np.full(2, math.nan)
            return 1.0 - v[0], 1.0 - v[0], np.array([v[0], 2.0])

        runs = []
        x0 = np.array([0.2495, 0.5, 0.5])
        start = nonlinear(x0)
        x, run = fq._trust_region(nonlinear, lambda v: (1.0, np.array([v[0], 2.0])), x0, start,
                                  np.zeros(3), np.ones(3))
        assert x is x0 and run is start and len(runs) == 4

    def test_initial_guess_is_ranked_inside_the_bounds(self, model, monkeypatch):
        # A guess beyond every bound is ranked at the box's corner, where
        # Nelder-Mead would start it, and no surrogate cost leaves the box.
        costed, plain = [], fq.StepResponse.cost

        def cost(surrogate, *action):
            costed.append(action)
            return plain(surrogate, *action)

        monkeypatch.setattr(fq.StepResponse, "cost", cost)
        bounds = fq.ActionBounds(dp_max=0.05, t_on_max=2.0, t_off_max=10.0)
        fq.optimize_action(model, bounds, FAST, fq.DfecAction(0.3, 5.0, 30.0), grid_starts=1,
                           refine_starts=1)
        assert costed[0] == (0.05, 2.0, 10.0)
        assert all(dp <= 0.05 and t_on <= 2.0 and t_off <= 10.0 for dp, t_on, t_off in costed)

    def test_result_serializes(self, small_result):
        doc = small_result.to_dict()
        assert set(doc["action"]) == {"dp", "t_on", "t_off"}
        assert doc["cost"] <= doc["uncontrolled_cost"]


def _rosenbrock(v):
    return float(np.sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (1.0 - v[:-1]) ** 2))


def _notch(v):
    """From x0 = [1]: reflection lands in a notch and the contraction
    climbs out of it, so the first iteration shrinks."""
    x = v[0]
    return 2.0 * (x - 1.0) if x >= 1.0 else 0.05 + abs(x - 0.95)


class TestNelderMead:
    """``_nelder_mead`` against ``scipy.optimize.minimize``, bit for bit."""

    POLISH_START = np.array([0.2, 0.7, 0.4])
    UNIT = (np.zeros(2), np.ones(2))
    TRUST_BOX = (POLISH_START - 0.05, np.minimum(POLISH_START + 0.05, [1.0, 0.72, 1.0]))

    @pytest.mark.parametrize("func, x0, simplex, maxiter, bounds", [
        (_rosenbrock, np.array([-1.2, 1.0]), None, 400, None),
        (_rosenbrock, np.array([-1.2, 1.0]), None, 20, None),
        # every vertex of the first simplex costs 12, and later values tie too
        (lambda v: float(np.floor(4.0 * np.abs(v).sum())), np.array([1.0, 2.0]), None, 400,
         None),
        (_notch, np.array([1.0]), None, 400, None),
        # a given first simplex: start plus 0.005 steps pointing into the cube
        (_rosenbrock, POLISH_START, np.vstack([POLISH_START, POLISH_START + np.diag(
            np.where(POLISH_START < 0.5, 0.005, -0.005))]), 400, None),
        # the optimum (1, 1) lies outside the box: points are clipped onto it
        (_rosenbrock, np.array([-1.2, 1.0]), None, 400, (np.array([-2.0, -1.0]),
                                                         np.array([0.5, 2.0]))),
        # the first simplex's vertex at 1.05 * 0.99 is reflected inside
        (_rosenbrock, np.array([0.99, 0.5]), None, 400, UNIT),
        # the trust region's call: a box around the start and a given simplex
        (_rosenbrock, POLISH_START, np.vstack([POLISH_START, POLISH_START + np.diag(
            np.where(POLISH_START + 0.025 <= TRUST_BOX[1], 0.025, -0.025))]), 400, TRUST_BOX),
    ], ids=["rosenbrock", "maxiter", "tied", "shrink", "initial-simplex", "bounded",
            "reflected", "trust-box"])
    def test_matches_scipy(self, func, x0, simplex, maxiter, bounds):
        from scipy.optimize import Bounds, minimize

        options = dict(fq._NELDER_MEAD, maxiter=maxiter, initial_simplex=simplex)
        runs = []
        for search in ("scipy", "port"):
            calls = []

            def counted(v):
                calls.append(v)
                return func(v)

            if search == "scipy":
                res = minimize(counted, x0, method="Nelder-Mead", options=options,
                               bounds=None if bounds is None else Bounds(*bounds))
                runs.append((res.x, res.fun, res.nfev, calls))
            else:
                box = {} if bounds is None else dict(bounds=bounds)
                x, fun = fq._nelder_mead(counted, x0, **options, **box)
                runs.append((x, fun, len(calls), calls))
        (x_ref, f_ref, n_ref, ref_calls), (x, fun, n, port_calls) = runs
        assert x.tobytes() == x_ref.tobytes() and fun == f_ref and n == n_ref
        assert np.array_equal(np.array(port_calls), np.array(ref_calls))
        if func is _notch:     # reflect, contract, then the shrunk vertex
            assert port_calls[4][0] == 1.0 + 0.5 * (1.05 - 1.0)
        if bounds is not None:
            assert np.all((bounds[0] <= ref_calls) & (ref_calls <= bounds[1]))

    def test_func_gets_copies(self):
        """A ``func`` that overwrites its argument changes nothing."""
        def scribbling(v):
            value = _rosenbrock(v)
            v[:] = np.nan
            return value

        x0 = np.array([-1.2, 1.0])
        x, fun = fq._nelder_mead(scribbling, x0, **fq._NELDER_MEAD)
        x_ref, f_ref = fq._nelder_mead(_rosenbrock, x0, **fq._NELDER_MEAD)
        assert x.tobytes() == x_ref.tobytes() and fun == f_ref
        assert x0.tolist() == [-1.2, 1.0]


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

    def test_action_fields_are_floats(self):
        action = fq.DfecAction(np.float64(0.1), np.linspace(0.0, 1.0, 3)[1], 4)
        assert [type(v) for v in (action.dp, action.t_on, action.t_off)] == [float] * 3
        assert action == fq.DfecAction(0.1, 0.5, 4.0)

    def test_action_window_invariant(self):
        with pytest.raises(DimensionError):
            fq.DfecAction(0.1, 5.0, 4.0)
        with pytest.raises(DimensionError):
            fq.DfecAction(-0.1, 1.0, 4.0)
