"""Switching function, injection design, switch-time search, scheduling."""

import cmath
import math
import warnings

import numpy as np
import pytest

from gridstep import (
    DeocSchedule,
    DimensionError,
    MaxWindowWarning,
    NoSwitchOpportunityError,
    build_schedule,
    design_dp,
    equilibrium_shifted,
    find_switch_off,
    find_switch_on,
    oscillation_energy,
    switching_function,
)
from gridstep import oscillation, simulate
from gridstep.modal import propagate
from gridstep.oscillation import SAMPLE_DT, auto_scale, default_targets
from gridstep.scenario import load_scenario
from gridstep.simulate import Disturbance, apply_disturbance

import oracle
from conftest import DATA


@pytest.fixture(scope="module")
def smib_cc_excited(smib_cc_model, smib_cc_basis):
    """Post-pulse state of the single-machine case with a controllable bus."""
    dist = Disturbance(kind="power-pulse", bus=2, magnitude=-1.0, start=0.0,
                      duration=0.1)
    t0, x0 = apply_disturbance(smib_cc_model, smib_cc_basis, dist)
    return t0, x0


class TestSwitchingFunction:
    def test_zero_when_everything_at_equilibrium(self, smib_cc_basis, smib_cc_model):
        x_e = smib_cc_model.x_eq
        assert switching_function(smib_cc_basis, x_e, x_e, x_e) == pytest.approx(0.0)

    def test_at_shifted_center_equals_amplitude_term(self, smib_cc_basis, smib_cc_model):
        x_e = smib_cc_model.x_eq
        x_c = equilibrium_shifted(smib_cc_model, np.array([0.1]))
        shift = x_e - x_c
        expected = 2.0 * shift @ oracle.complex_form(smib_cc_basis).d @ shift
        assert expected > 0.0
        assert switching_function(smib_cc_basis, x_e, x_c, x_c) == pytest.approx(expected)

    def test_zero_along_orbit_through_equilibrium(self, smib_cc_basis, smib_cc_model):
        # Any point of the x_c-centered orbit that passes through x_e gives
        # h = 0: that orbit's amplitude equals the switching threshold.
        x_e = smib_cc_model.x_eq
        x_c = equilibrium_shifted(smib_cc_model, np.array([0.1]))
        ref = switching_function(smib_cc_basis, x_e, x_c, x_c)
        xs = propagate(smib_cc_basis, x_c, x_e, np.array([0.0, 0.05, 0.21, 0.8]))
        assert np.abs(switching_function(smib_cc_basis, x_e, x_c, xs)).max() < 1e-8 * ref


class TestOscillationEnergy:
    def test_zero_at_synchronous_speed(self, wscc9_model):
        assert oscillation_energy(wscc9_model, wscc9_model.x_eq) == 0.0

    def test_quadratic_scaling(self, wscc9_model):
        x1 = wscc9_model.x_eq.copy()
        x1[2:] += np.array([0.004, -0.002])
        x2 = wscc9_model.x_eq.copy()
        x2[2:] += 2.0 * np.array([0.004, -0.002])
        e1 = oscillation_energy(wscc9_model, x1)
        assert oscillation_energy(wscc9_model, x2) == pytest.approx(4.0 * e1)

    def test_scalar_oracle(self, smib_model):
        x = smib_model.x_eq.copy()
        x[1] = 1.01
        expected = 120.0 * math.pi * 3.5 * 0.01 ** 2
        assert oscillation_energy(smib_model, x) == pytest.approx(expected)


class TestDesignDp:
    def test_unexcited_state_gives_zero(self, smib_cc_basis, smib_cc_model):
        dp = design_dp(smib_cc_basis, smib_cc_model, smib_cc_model.x_eq, 0, 0.1)
        assert dp == pytest.approx(np.zeros(1), abs=1e-12)

    def test_homogeneous_in_scale(self, wscc9_basis, wscc9_model, smib_cc_excited):
        x0 = wscc9_model.x_eq + np.array([0.03, -0.05, 0.002, 0.001])
        dp1 = design_dp(wscc9_basis, wscc9_model, x0, 0, 0.05)
        dp2 = design_dp(wscc9_basis, wscc9_model, x0, 0, 0.10)
        assert dp2 == pytest.approx(2.0 * dp1)

    @pytest.mark.parametrize("p,q", [(0.0, 0.01), (0.0, -0.01), (0.02, 0.01), (-0.02, 0.01)])
    def test_shift_along_the_pair_column_signed_by_p(self, wscc9_basis, wscc9_model, p, q):
        """The shift is the pair's unit angle column, signed by its ``p``
        coordinate: +1 where ``p`` is zero (the pair's energy all kinetic)."""
        basis, model = wscc9_basis, wscc9_model
        m, t_map = model.n_machines, np.linalg.solve(model.b_red, model.b_cc)
        for pair in range(m):
            x0 = model.x_eq + basis.from_pairs[:, 2 * pair:2 * pair + 2] @ [p, q]
            column = basis.from_pairs[:m, 2 * pair]
            sign = -1.0 if p < 0.0 else 1.0
            dp = design_dp(basis, model, x0, pair, 0.1)
            assert t_map @ dp == pytest.approx(0.1 * sign * column / np.linalg.norm(column),
                                               rel=1e-12, abs=1e-15)
            assert auto_scale(basis, model, x0, pair) == pytest.approx(
                math.hypot(p, q) * np.linalg.norm(column), rel=1e-12)

    def test_speed_only_kick_gets_its_stages(self, wscc9_basis, wscc9_model):
        x0 = wscc9_model.x_eq.copy()
        x0[wscc9_model.n_machines] += 1e-3
        sched = build_schedule(wscc9_basis, wscc9_model, x0, 0.0, [0, 1])
        assert [s.target_modes for s in sched.stages] == [(0,), (1,)]

    @pytest.mark.parametrize("pair", [-1, 2, 3])
    def test_pair_outside_the_modes_is_dimension_error(self, wscc9_basis, wscc9_model, pair):
        x0 = wscc9_model.x_eq + 0.01
        for call in (lambda: design_dp(wscc9_basis, wscc9_model, x0, pair, 0.1),
                     lambda: auto_scale(wscc9_basis, wscc9_model, x0, pair)):
            with pytest.raises(DimensionError, match=f"target pair {pair} is outside"):
                call()

    @pytest.mark.parametrize("system", ["wscc9", "ieee39"])
    def test_matches_the_multi_pair_form(self, request, system):
        """On seeded states, where every pair's ``p`` coordinate is nonzero,
        one pair's scale and injection are those of the multi-pair reference
        to 1e-14 relative."""
        basis = request.getfixturevalue(f"{system}_basis")
        model = request.getfixturevalue(f"{system}_model")
        rng = np.random.default_rng(40)
        for _ in range(10):
            x0 = model.x_eq + rng.normal(0.0, 0.05, 2 * model.n_machines)
            for pair in range(model.n_machines):
                assert basis.pairs[2 * pair] @ (x0 - model.x_eq) != 0.0
                s = oracle.auto_scale(basis, model, x0, (pair,))
                assert auto_scale(basis, model, x0, pair) == pytest.approx(s, rel=1e-14)
                want = oracle.design_dp(basis, model, x0, (pair,), s)
                got = design_dp(basis, model, x0, pair, s)
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_fixed_vectors_accepted_as_overrides(self, wscc9_basis, wscc9_model):
        # Externally supplied MW vectors pass straight through to the
        # equilibrium shift.
        dp = -np.array([16.8, 32.4, 26.6, 62.1, 54.9, 44.7]) / 100.0
        x_c = equilibrium_shifted(wscc9_model, dp)
        assert np.linalg.norm(x_c - wscc9_model.x_eq) > 1e-3
        assert x_c[2:] == pytest.approx(np.ones(2))


class TestSwitchTimes:
    def test_root_sends_trajectory_through_equilibrium(
        self, smib_cc_basis, smib_cc_model, smib_cc_excited
    ):
        t0, x0 = smib_cc_excited
        basis, model = smib_cc_basis, smib_cc_model
        s = auto_scale(basis, model, x0, 0)
        dp = design_dp(basis, model, x0, 0, s)
        x_c = equilibrium_shifted(model, dp)
        t_on, x_on, h_res, _ = find_switch_on(basis, model, x_c, x0, t0, t0, t0 + 5.0)
        # Ride the shifted orbit; it must pass through x_e.
        from scipy.optimize import minimize_scalar

        def dist(dt):
            return np.linalg.norm(propagate(basis, x_c, x_on, dt) - model.x_eq)

        period = 2.0 * math.pi / basis.modes[0].frequency
        dts = np.linspace(0.0, period, 4001)
        k = int(np.argmin([dist(dt) for dt in dts]))
        res = minimize_scalar(
            dist, bounds=(dts[max(k - 1, 0)], dts[min(k + 1, len(dts) - 1)]),
            method="bounded", options={"xatol": 1e-12},
        )
        assert res.fun < 1e-6 * np.linalg.norm(model.x_eq - x_c)

    def test_energy_minimum_switch_off_reduces_energy(
        self, smib_cc_basis, smib_cc_model, smib_cc_excited
    ):
        t0, x0 = smib_cc_excited
        basis, model = smib_cc_basis, smib_cc_model
        s = auto_scale(basis, model, x0, 0)
        dp = design_dp(basis, model, x0, 0, s)
        x_c = equilibrium_shifted(model, dp)
        t_on, x_on, _, _ = find_switch_on(basis, model, x_c, x0, t0, t0, t0 + 5.0)
        t_off, x_off, e_off = find_switch_off(basis, model, x_c, x_on, t_on, t_on + 5.0)
        assert t_off > t_on
        assert e_off < oscillation_energy(model, x_on)

    def test_ride_from_rest_ends_at_the_next_minimum(self, wscc9_basis, wscc9_model):
        """From rest (every speed 1, so ``ek`` and ``dEk/dt`` are zero at
        ``t_on``) on a pure mode-0 shift, the speeds are next all 1 half a
        period later; the ride must not end where it starts."""
        basis, model = wscc9_basis, wscc9_model
        _, x0 = apply_disturbance(model, basis,
                                  load_scenario(DATA / "scenario_wscc9.json").disturbance)
        x_c = equilibrium_shifted(model, design_dp(basis, model, x0, 0,
                                                   auto_scale(basis, model, x0, 0)))
        assert oscillation.energy_rate(model, x_c, model.x_eq) == 0.0
        t_on = 1.0
        t_off, _, e_off = find_switch_off(basis, model, x_c, model.x_eq, t_on, t_on + 2.0)
        assert t_off == pytest.approx(t_on + math.pi / basis.modes[0].frequency, abs=1e-9)
        assert e_off < 1e-12

    def test_minimum_within_the_first_sample_after_switch_on(self, ieee39_basis,
                                                              ieee39_model):
        """The bundled ieee39 study at stage window 1 s: the target-8 ride's
        energy minimum lies 0.11 ms after its switch-on root, inside the
        first 1 ms sample interval."""
        basis, model = ieee39_basis, ieee39_model
        scn = load_scenario(DATA / "scenario_ieee39.json")
        t0, x0 = apply_disturbance(model, basis, scn.disturbance)
        targets = default_targets(basis, model, x0, scn.n_targets)
        assert targets[-1] == 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = build_schedule(basis, model, x0, t0, targets[:-1], stage_window=1.0)
        x, t = sched.final_state, sched.final_time
        x_c = equilibrium_shifted(model, design_dp(basis, model, x, 8,
                                                   auto_scale(basis, model, x, 8)))
        t_on = 2.6437059880777474
        x_on = propagate(basis, model.x_eq, x, t_on - t)
        t_off, _, e_off = find_switch_off(basis, model, x_c, x_on, t_on, t_on + 1.0)
        assert t_off - t_on == pytest.approx(1.115e-4, abs=1e-7)
        assert t_off == pytest.approx(2.6438175017960353, abs=1e-9)
        assert e_off < oscillation_energy(model, x_on)

    def test_no_root_raises(self, smib_cc_basis, smib_cc_model):
        # Unexcited system: the indicator is constant (and nonzero for this
        # shift), so no switching opportunity ever appears.
        x_c = equilibrium_shifted(smib_cc_model, np.array([0.1]))
        with pytest.raises(NoSwitchOpportunityError):
            find_switch_on(
                smib_cc_basis, smib_cc_model, x_c, smib_cc_model.x_eq,
                0.0, 0.0, 2.0,
            )


FULL_GRID = 10**9   # SEARCH_BLOCK that evaluates a whole search window at once


@pytest.fixture(scope="module")
def smib_cc_stage(smib_cc_basis, smib_cc_model, smib_cc_excited):
    """``(x_c, t0, x0)`` of the auto-designed stage on the excited SMIB case."""
    t0, x0 = smib_cc_excited
    s = auto_scale(smib_cc_basis, smib_cc_model, x0, 0)
    dp = design_dp(smib_cc_basis, smib_cc_model, x0, 0, s)
    return equilibrium_shifted(smib_cc_model, dp), t0, x0


def _same(a, b):
    """Two ``(t, x, value)`` search results are equal bit for bit."""
    assert a[0] == b[0] and a[2] == b[2]
    assert a[1].tobytes() == b[1].tobytes()


class TestSearchBlocks:
    """The searches evaluate their grid SEARCH_BLOCK samples at a time and
    stop at the first accepted root or minimum; where a block ends must not
    change what they return."""

    @pytest.mark.parametrize("accepted", [False, True])   # edge at the rejected / accepted root
    @pytest.mark.parametrize("edge", [0, 1])              # first / last sample of a block
    def test_root_at_block_edge(self, monkeypatch, smib_cc_basis, smib_cc_model,
                                smib_cc_stage, accepted, edge):
        x_c, t0, x0 = smib_cc_stage
        basis, model = smib_cc_basis, smib_cc_model
        args = (basis, model, x_c, x0, t0, t0, t0 + 3.0)
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", FULL_GRID)
        ref = find_switch_on(*args)
        ts = np.arange(t0, t0 + 3.0 + 0.5 * SAMPLE_DT, SAMPLE_DT)
        h = switching_function(basis, model.x_eq, x_c, propagate(basis, model.x_eq, x0, ts - t0))
        first = int(np.flatnonzero((h[:-1] == 0.0) | (h[:-1] * h[1:] < 0.0))[0])
        # The first root fails the check, so the accepted one is a later root.
        assert ts[first + 1] < ref[0]
        # The bracket [ts[k], ts[k + 1]] of the root at the block edge.
        k = int(np.searchsorted(ts, ref[0])) - 1 if accepted else first
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", k + edge)
        got = find_switch_on(*args)
        _same(got, ref)
        _same(got[3], ref[3])

    @pytest.mark.parametrize("shift", range(-2, 3))
    def test_minimum_near_block_edge(self, monkeypatch, smib_cc_basis, smib_cc_model,
                                     smib_cc_stage, shift):
        x_c, t0, x0 = smib_cc_stage
        t_on, x_on, _, _ = find_switch_on(smib_cc_basis, smib_cc_model, x_c, x0, t0, t0, t0 + 3.0)
        args = (smib_cc_basis, smib_cc_model, x_c, x_on, t_on, t_on + 3.0)
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", FULL_GRID)
        ref = find_switch_off(*args)
        j = round((ref[0] - t_on) / SAMPLE_DT)            # the minimum sample, give or take one
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", j + shift)
        _same(find_switch_off(*args), ref)

    def test_no_root_reports_min_over_whole_window(self, monkeypatch, smib_cc_basis,
                                                   smib_cc_model, smib_cc_stage):
        _, t0, x0 = smib_cc_stage
        model, basis = smib_cc_model, smib_cc_basis
        x_c = equilibrium_shifted(model, np.array([1e-4]))   # too small a shift for a root
        errors = []
        for block in (FULL_GRID, 7):
            monkeypatch.setattr(oscillation, "SEARCH_BLOCK", block)
            with pytest.raises(NoSwitchOpportunityError) as exc:
                find_switch_on(basis, model, x_c, x0, t0, t0, t0 + 2.0)
            errors.append(exc.value)
        ts = np.arange(t0, t0 + 2.0 + 0.5 * SAMPLE_DT, SAMPLE_DT)
        h = switching_function(basis, model.x_eq, x_c, propagate(basis, model.x_eq, x0, ts - t0))
        assert errors[0].min_abs_h == errors[1].min_abs_h == np.abs(h).min()
        assert str(errors[0]) == str(errors[1])
        assert "min |h| = " in str(errors[0])

    def test_window_end_without_minimum(self, monkeypatch, smib_cc_basis, smib_cc_model,
                                        smib_cc_stage):
        x_c, t0, x0 = smib_cc_stage
        t_on, x_on, _, _ = find_switch_on(smib_cc_basis, smib_cc_model, x_c, x0, t0, t0, t0 + 3.0)
        args = (smib_cc_basis, smib_cc_model, x_c, x_on, t_on, t_on + 0.02)
        results = []
        for block in (FULL_GRID, 4):
            monkeypatch.setattr(oscillation, "SEARCH_BLOCK", block)
            with pytest.warns(MaxWindowWarning):
                results.append(find_switch_off(*args))
        _same(*results)
        assert results[0][0] == np.arange(t_on, t_on + 0.02 + 0.5 * SAMPLE_DT, SAMPLE_DT)[-1]

    def test_bundled_schedules_match_full_grid(self, monkeypatch, bundled_deoc):
        b = bundled_deoc
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", FULL_GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = build_schedule(b.basis, b.model, b.x0, b.t0, b.targets, **b.kwargs)
        assert len(ref.stages) == len(b.schedule.stages) > 0
        for got, want in zip(b.schedule.stages, ref.stages):
            assert (got.t_on, got.t_off, got.h_residual, got.energy_on, got.energy_off) == (
                want.t_on, want.t_off, want.h_residual, want.energy_on, want.energy_off)
        assert b.schedule.skipped == ref.skipped


def test_bundled_schedules_match_complex_propagation(monkeypatch, bundled_deoc):
    """The real-form closed form leaves each bundled study's stages and skips
    as the complex modal form gives them, with switch-on roots and switch-off
    times within 1e-12 s (1.2e-13 s apart at most): both are roots finished
    to round-off, of ``h`` and of the energy rate, which a rounding-level
    change of the state moves far less than it moves the flat energy
    minimum. The searches build their orbits from the oracle."""
    b = bundled_deoc
    built = []

    def oracle_orbit(*args):
        built.append(args)
        return oracle.orbit(*args)

    monkeypatch.setattr(oscillation, "orbit", oracle_orbit)
    monkeypatch.setattr(simulate, "propagate", oracle.propagate)
    t0, x0 = apply_disturbance(b.model, b.basis, b.scn.disturbance)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = build_schedule(b.basis, b.model, x0, t0, b.targets, **b.kwargs)
    assert len(built) > 2 * len(ref.stages) > 0      # a switch-on search and rides per stage
    assert b.schedule.skipped == ref.skipped
    assert [(s.target_modes, s.t_on, s.t_off) for s in b.schedule.stages] == [
        (s.target_modes, pytest.approx(s.t_on, abs=1e-12), pytest.approx(s.t_off, abs=1e-12))
        for s in ref.stages]


def test_bundled_switch_offs_are_energy_rate_roots(bundled_deoc):
    """At each bundled stage's ``t_off`` the oscillation energy's rate of
    change, ``2 w_s sum_j h_j (w_j - 1) (A (x - x_c))_{m+j}`` written out here
    from the state matrix, rises through zero within 1e-12 s."""
    b = bundled_deoc
    m, x, t = b.model.n_machines, b.x0, b.t0
    for stage in b.schedule.stages:
        x_on = propagate(b.basis, b.model.x_eq, x, stage.t_on - t)
        xs = propagate(b.basis, stage.x_c, x_on,
                       stage.t_off - stage.t_on + np.array([-1e-12, 1e-12]))
        dx = xs - stage.x_c
        rate = 2.0 * b.model.omega_s * ((dx @ b.model.a.T)[:, m:] * b.model.h
                                        * (xs[:, m:] - 1.0)).sum(-1)
        assert rate[0] < 0.0 < rate[1]
        x, t = propagate(b.basis, stage.x_c, x_on, stage.t_off - stage.t_on), stage.t_off


class TestStageRide:
    """``find_switch_on`` checks each root with the ride its stage takes and
    returns the accepted root's ride, so a stage searches for its switch-off
    once."""

    @pytest.mark.parametrize("window", [3.0, 10.0])
    def test_ride_is_the_stage_switch_off(self, smib_cc_basis, smib_cc_model,
                                          smib_cc_stage, window):
        x_c, t0, x0 = smib_cc_stage
        basis, model = smib_cc_basis, smib_cc_model
        t_on, x_on, _, ride = find_switch_on(basis, model, x_c, x0, t0, t0, t0 + window)
        _same(ride, find_switch_off(basis, model, x_c, x_on, t_on, t_on + window))

    def test_window_end_warns_for_the_accepted_root_only(self, smib_cc_basis, smib_cc_model,
                                                         smib_cc_stage):
        x_c, t0, x0 = smib_cc_stage
        basis, model = smib_cc_basis, smib_cc_model
        t_on, _, _, (t_off, _, _) = find_switch_on(basis, model, x_c, x0, t0, t0, t0 + 3.0)
        # A window around the accepted root that ends before its energy minimum.
        half = 0.25 * (t_off - t_on)
        with pytest.warns(MaxWindowWarning):
            got = find_switch_on(basis, model, x_c, x0, t0, t_on - half, t_on + half)
        assert got[3][0] < t_off
        # A window around the first, rejected root whose ride also hits the end.
        ts = np.arange(t0, t_on, SAMPLE_DT)
        h = switching_function(basis, model.x_eq, x_c, propagate(basis, model.x_eq, x0, ts - t0))
        t_rejected = ts[np.flatnonzero(h[:-1] * h[1:] < 0.0)[0]]
        x_rejected = propagate(basis, model.x_eq, x0, t_rejected - t0)
        with pytest.warns(MaxWindowWarning):
            find_switch_off(basis, model, x_c, x_rejected, t_rejected, t_rejected + 2.0 * half)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NoSwitchOpportunityError, match="1 roots rejected"):
                find_switch_on(basis, model, x_c, x0, t0, t_rejected - half,
                               t_rejected + half)
        assert not [w for w in caught if issubclass(w.category, MaxWindowWarning)]

    def test_other_warnings_keep_their_origin(self, monkeypatch, smib_cc_basis, smib_cc_model,
                                              smib_cc_stage):
        """Only a rejected root's ``MaxWindowWarning`` is dropped: any other
        warning of a ride reaches the caller with its category and origin."""
        x_c, t0, x0 = smib_cc_stage
        ride = oscillation.find_switch_off

        def noisy(*args):
            warnings.warn("from the ride", RuntimeWarning)
            return ride(*args)

        monkeypatch.setattr(oscillation, "find_switch_off", noisy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            find_switch_on(smib_cc_basis, smib_cc_model, x_c, x0, t0, t0, t0 + 3.0)
        # The first root is rejected, the second accepted: one warning each.
        assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)] * 2
        assert len({w.lineno for w in caught}) == 1

    # Stage windows shorter than 1.5 periods of the slowest mode (1.27 s on
    # wscc9, 2.73 s on ieee39), so a root's check ride is cut by the stage
    # window. The stages and skips are those a check over 1.5 slowest-mode
    # periods gives.
    SHORT_WINDOWS = {
        "wscc9": [
            (0.5, [((1,), 0.47937414320309996, 0.4833571916208799)], [(0, 1)]),
            (1.0, [((0,), 0.8157650772680844, 0.9361280779377594),
                   ((1,), 1.1956227413103957, 1.2617214945403432)], []),
        ],
        "ieee39": [
            (1.0, [((1,), 0.9667572704156246, 0.9755704026281412),
                   ((2,), 1.8250319023191515, 1.8281717513986457),
                   ((4,), 2.3532208103127723, 2.354061209703489),
                   ((8,), 2.6437059869650343, 2.6438175006826032)], [(0, 0)]),
        ],
    }

    def test_short_stage_windows(self, bundled_deoc):
        b = bundled_deoc
        for window, stages, skipped in self.SHORT_WINDOWS[b.name]:
            with warnings.catch_warnings():
                warnings.simplefilter("error", MaxWindowWarning)
                sched = build_schedule(b.basis, b.model, b.x0, b.t0, b.targets,
                                       **dict(b.kwargs, stage_window=window))
            assert [(s.target_modes, s.t_on, s.t_off) for s in sched.stages] == [
                (modes, pytest.approx(t_on, abs=1e-9), pytest.approx(t_off, abs=1e-9))
                for modes, t_on, t_off in stages]
            assert [target for target, _ in sched.skipped] == [target for target, _ in skipped]
            for (_, reason), (_, rejected) in zip(sched.skipped, skipped):
                assert reason.endswith(f", {rejected} roots rejected)")

    def test_one_switch_off_search_per_root(self, monkeypatch, bundled_deoc):
        b = bundled_deoc
        calls = {"roots": 0, "switch_off": 0}
        depth = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                if not depth:     # a switch-off search also finishes its minimum
                    calls[name] += 1
                depth.append(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    depth.pop()
            return wrapper

        monkeypatch.setattr(oscillation, "_newton", counted("roots", oscillation._newton))
        monkeypatch.setattr(oscillation, "find_switch_off",
                            counted("switch_off", oscillation.find_switch_off))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = build_schedule(b.basis, b.model, b.x0, b.t0, b.targets, **b.kwargs)
        assert calls["switch_off"] == calls["roots"] > len(sched.stages) > 0
        assert [(s.t_on, s.t_off, s.energy_off) for s in sched.stages] == [
            (s.t_on, s.t_off, s.energy_off) for s in b.schedule.stages]


def _landings(basis, model, x0, t0, schedule):
    """Per stage: how far, to first order, ``t_on`` lies from the root of
    ``h`` and ``t_off`` from the root of ``dEk/dt``, in seconds (value over
    slope, the slopes written out from the state matrix), and the slope of
    ``dEk/dt`` at ``t_off``."""
    m, b, g = model.n_machines, model.b_red, oracle.complex_form(basis).g
    out = []
    for st in schedule.stages:
        x_on = propagate(basis, model.x_eq, x0, st.t_on - t0)
        dx = x_on - st.x_c
        h = switching_function(basis, model.x_eq, st.x_c, x_on)
        h_slope = -2.0 * (dx @ g) @ (basis.a @ (x_on - model.x_eq))
        x0, t0 = propagate(basis, st.x_c, x_on, st.t_off - st.t_on), st.t_off
        dx, xdot = x0 - st.x_c, basis.a @ (x0 - st.x_c)
        rate = oscillation.energy_rate(model, st.x_c, x0)
        rate_slope = -model.omega_s * ((xdot[:m] @ b) @ (x0[m:] - 1.0) + (dx[:m] @ b) @ xdot[m:])
        out.append((abs(h / h_slope), abs(rate / rate_slope), rate_slope))
    return out


class TestNewton:
    """``_newton`` finishes each bracket at its root, to round-off: the value
    at a returned time is below its slope times 1e-12 s. Round-off in the
    states sets that floor, up to about 300 ulps of the time on these cases;
    a stop at ``|h| < 1e-10`` of the threshold term lands up to 2e-11 s off
    on the bundled studies."""

    def _check(self, basis, model, x0, t0, sched):
        assert sched.stages
        for on, off, rate_slope in _landings(basis, model, x0, t0, sched):
            assert on < 1e-12 and off < 1e-12
            assert rate_slope > 0.0          # the energy rate rises through its root

    @pytest.mark.parametrize("window", [None, 1.0])
    def test_bundled_roots(self, bundled_deoc, window):
        b = bundled_deoc
        kwargs = dict(b.kwargs, stage_window=window or b.kwargs["stage_window"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = build_schedule(b.basis, b.model, b.x0, b.t0, b.targets, **kwargs)
        self._check(b.basis, b.model, b.x0, b.t0, sched)

    @pytest.mark.parametrize("system", ["wscc9", "ieee39"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_states(self, request, system, seed):
        model, basis = (request.getfixturevalue(f"{system}_{k}") for k in ("model", "basis"))
        rng = np.random.default_rng(seed)
        m = model.n_machines
        x0 = model.x_eq + np.concatenate([rng.normal(0.0, 0.05, m), rng.normal(0.0, 0.002, m)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = build_schedule(basis, model, x0, 0.0, default_targets(basis, model, x0, 3))
        self._check(basis, model, x0, 0.0, sched)

    def test_repeated_frequency(self, twin_model, twin_basis):
        """Two identical machines, both excited: each of the two stages lands
        on its roots and lowers the energy."""
        x0 = twin_model.x_eq + np.array([0.05, -0.03, 0.002, 0.001])
        targets = default_targets(twin_basis, twin_model, x0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = build_schedule(twin_basis, twin_model, x0, 0.0, targets)
        assert [s.target_modes for s in sched.stages] == [(0,), (1,)]
        assert all(s.energy_off < s.energy_on for s in sched.stages)
        self._check(twin_basis, twin_model, x0, 0.0, sched)

    @pytest.mark.parametrize("rising", [False, True])
    def test_root_on_a_sample_is_that_sample(self, rising):
        """A zero sample is returned as it is, without a Newton step."""
        ts = np.arange(9) * 0.125
        calls = []

        def func(t):
            if np.iscomplexobj(t):     # a complex step: one Newton iterate
                calls.append(t)
            return t - 0.5

        roots = list(oscillation._roots(func, ts, np.empty(len(ts)), rising))
        assert roots == [0.5] and not calls

    @pytest.mark.parametrize("slope", [0.0, -1.0, math.inf])
    def test_useless_slope_bisects_and_ends(self, slope):
        """A zero slope, one whose step leaves the bracket, or one beyond the
        float range (whose step would stay on the iterate) falls back to
        bisection, which ends once its step is below ``T_RESOLUTION``."""
        root, calls = 0.3 + 1e-4 / 3.0, []

        def func(t):      # the value t - root, and the slope ``slope`` on a complex step
            calls.append(t)
            return complex(t.real - root, slope * t.imag)

        got = oscillation._newton(func, 0.3, 0.301, -1e-4 / 3.0, 2e-3 / 3.0)
        assert abs(got - root) < 2.0 * oscillation.T_RESOLUTION
        assert 30 < len(calls) < 45          # log2(1e-3 / 1e-14) = 36.5 halvings

    def test_newton_converges_from_the_secant_point(self):
        calls = []

        def func(t):
            calls.append(t.real)
            return cmath.sin(t) - 0.5

        a, b = 0.523, 0.524
        got = oscillation._newton(func, a, b, math.sin(a) - 0.5, math.sin(b) - 0.5)
        assert abs(got - math.pi / 6.0) <= math.ulp(got)
        assert calls[0] == pytest.approx(a + (b - a) * (0.5 - math.sin(a))
                                         / (math.sin(b) - math.sin(a)), abs=1e-16)
        assert len(calls) <= 4

    def test_step_onto_a_bracket_end_is_final(self):
        """A Newton step below ``T_RESOLUTION`` that rounds onto the iterate,
        which has just become a bracket end, is the root: bisecting from there
        would halve the bracket about forty times."""
        calls = []

        def func(t):
            calls.append(t)
            return t**3 - t - 1.0

        got = oscillation._newton(func, 1.3, 1.4, 1.3**3 - 2.3, 1.4**3 - 2.4)
        assert abs(got - 1.3247179572447460) <= math.ulp(got)    # the plastic number
        assert len(calls) <= 5


class TestBuildSchedule:
    def test_single_mode_single_stage(
        self, smib_cc_basis, smib_cc_model, smib_cc_excited
    ):
        t0, x0 = smib_cc_excited
        sched = build_schedule(smib_cc_basis, smib_cc_model, x0, t0, [0])
        assert len(sched.stages) == 1
        st = sched.stages[0]
        assert st.t_on < st.t_off
        assert st.energy_off < st.energy_on

    def test_stages_ordered_and_energy_decreases(self, wscc9_basis, wscc9_model):
        dist = Disturbance(kind="power-pulse", bus=8, magnitude=-5.0, start=0.0,
                          duration=5.0 / 60.0)
        t0, x0 = apply_disturbance(wscc9_model, wscc9_basis, dist)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sched = build_schedule(wscc9_basis, wscc9_model, x0, t0, [0, 1])
        assert len(sched.stages) == 2
        assert sched.stages[0].t_off <= sched.stages[1].t_on
        for st in sched.stages:
            assert st.energy_off < st.energy_on

    def test_zero_override_stage_is_skipped(
        self, smib_cc_basis, smib_cc_model, smib_cc_excited
    ):
        t0, x0 = smib_cc_excited
        sched = build_schedule(
            smib_cc_basis, smib_cc_model, x0, t0, [0],
            dp_overrides=[np.zeros(1)],
        )
        assert len(sched.stages) == 0
        assert len(sched.skipped) == 1

    def test_unexcited_target_is_skipped(self, wscc9_basis, wscc9_model):
        sched = build_schedule(wscc9_basis, wscc9_model, wscc9_model.x_eq, 0.0, [0])
        assert sched.stages == ()
        assert sched.skipped == ((0, "target mode not excited"),)

    @pytest.mark.parametrize("target", [(0, 1), 1.0])
    def test_non_integer_target_is_dimension_error(self, wscc9_basis, wscc9_model, target):
        with pytest.raises(DimensionError, match="each target must be one integer mode pair"):
            build_schedule(wscc9_basis, wscc9_model, wscc9_model.x_eq, 0.0, [target])

    def test_default_targets_ranked_by_excitation(self, wscc9_basis, wscc9_model):
        dist = Disturbance(kind="power-pulse", bus=8, magnitude=-5.0, start=0.0,
                          duration=5.0 / 60.0)
        _, x0 = apply_disturbance(wscc9_model, wscc9_basis, dist)
        targets = default_targets(wscc9_basis, wscc9_model, x0, 2)
        amps = wscc9_basis.pair_amplitudes(wscc9_model.x_eq, x0)
        assert amps[targets[0]] >= amps[targets[1]]

    def test_overlapping_stages_rejected(self, smib_cc_model, smib_cc_basis):
        from gridstep import ControlStage

        x_c = equilibrium_shifted(smib_cc_model, np.array([0.05]))
        mk = lambda t_on, t_off: ControlStage(
            dp=np.array([0.05]), target_modes=(0,), t_on=t_on, t_off=t_off,
            x_c=x_c, h_residual=0.0, energy_on=1.0, energy_off=0.5,
        )
        with pytest.raises(DimensionError, match="overlap"):
            DeocSchedule(stages=(mk(0.5, 1.5), mk(1.0, 2.0)))
