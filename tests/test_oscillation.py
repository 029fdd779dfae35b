"""Switching function, injection design, switch-time search, scheduling."""

import math
import warnings

import numpy as np
import pytest

from gridstep import (
    DeocSchedule,
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
from gridstep import oscillation
from gridstep.modal import propagate
from gridstep.oscillation import SAMPLE_DT, auto_scale, default_targets
from gridstep.simulate import Disturbance, apply_disturbance


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
        expected = 2.0 * shift @ smib_cc_basis.d @ shift
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
        dp = design_dp(smib_cc_basis, smib_cc_model, smib_cc_model.x_eq, (0,), 0.1)
        assert dp == pytest.approx(np.zeros(1), abs=1e-12)

    def test_homogeneous_in_scale(self, wscc9_basis, wscc9_model, smib_cc_excited):
        x0 = wscc9_model.x_eq + np.array([0.03, -0.05, 0.002, 0.001])
        dp1 = design_dp(wscc9_basis, wscc9_model, x0, (0,), 0.05)
        dp2 = design_dp(wscc9_basis, wscc9_model, x0, (0,), 0.10)
        assert dp2 == pytest.approx(2.0 * dp1)

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
        s = auto_scale(basis, model, x0, (0,))
        dp = design_dp(basis, model, x0, (0,), s)
        x_c = equilibrium_shifted(model, dp)
        t_on, x_on, h_res = find_switch_on(basis, model, x_c, x0, t0, t0, t0 + 5.0)
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
        s = auto_scale(basis, model, x0, (0,))
        dp = design_dp(basis, model, x0, (0,), s)
        x_c = equilibrium_shifted(model, dp)
        t_on, x_on, _ = find_switch_on(basis, model, x_c, x0, t0, t0, t0 + 5.0)
        t_off, x_off, e_off = find_switch_off(basis, model, x_c, x_on, t_on, t_on + 5.0)
        assert t_off > t_on
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
    s = auto_scale(smib_cc_basis, smib_cc_model, x0, (0,))
    dp = design_dp(smib_cc_basis, smib_cc_model, x0, (0,), s)
    return equilibrium_shifted(smib_cc_model, dp), t0, x0


def _same(a, b):
    """Two ``(t, x, value)`` search results are equal bit for bit."""
    assert a[0] == b[0] and a[2] == b[2]
    assert a[1].tobytes() == b[1].tobytes()


class TestSearchBlocks:
    """The searches evaluate their grid SEARCH_BLOCK samples at a time and
    stop at the first accepted root or minimum; where a block ends must not
    change what they return."""

    @pytest.mark.parametrize("validate_roots", [False, True])   # rejected / accepted root
    @pytest.mark.parametrize("edge", [0, 1])                    # first / last sample of a block
    def test_root_at_block_edge(self, monkeypatch, smib_cc_basis, smib_cc_model,
                                smib_cc_stage, validate_roots, edge):
        x_c, t0, x0 = smib_cc_stage
        args = (smib_cc_basis, smib_cc_model, x_c, x0, t0, t0, t0 + 3.0)
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", FULL_GRID)
        unchecked = find_switch_on(*args, validate_roots=False)
        ref = find_switch_on(*args, validate_roots=validate_roots)
        # The first root fails the check, so the accepted one is a later root.
        assert (ref[0] > unchecked[0]) == validate_roots
        ts = np.arange(t0, t0 + 3.0 + 0.5 * SAMPLE_DT, SAMPLE_DT)
        k = int(np.searchsorted(ts, unchecked[0])) - 1    # its bracket [ts[k], ts[k + 1]]
        monkeypatch.setattr(oscillation, "SEARCH_BLOCK", k + edge)
        _same(find_switch_on(*args, validate_roots=validate_roots), ref)

    @pytest.mark.parametrize("shift", range(-2, 3))
    def test_minimum_near_block_edge(self, monkeypatch, smib_cc_basis, smib_cc_model,
                                     smib_cc_stage, shift):
        x_c, t0, x0 = smib_cc_stage
        t_on, x_on, _ = find_switch_on(smib_cc_basis, smib_cc_model, x_c, x0, t0, t0, t0 + 3.0)
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
        t_on, x_on, _ = find_switch_on(smib_cc_basis, smib_cc_model, x_c, x0, t0, t0, t0 + 3.0)
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

    def test_default_targets_ranked_by_excitation(self, wscc9_basis, wscc9_model):
        dist = Disturbance(kind="power-pulse", bus=8, magnitude=-5.0, start=0.0,
                          duration=5.0 / 60.0)
        _, x0 = apply_disturbance(wscc9_model, wscc9_basis, dist)
        targets = default_targets(wscc9_basis, wscc9_model, x0, 2)
        amps = wscc9_basis.pair_amplitudes(wscc9_model.x_eq, x0)
        assert amps[targets[0]] >= amps[targets[1]]

    def test_overlapping_stages_rejected(self, smib_cc_model, smib_cc_basis):
        from gridstep import ControlStage, DimensionError

        x_c = equilibrium_shifted(smib_cc_model, np.array([0.05]))
        mk = lambda t_on, t_off: ControlStage(
            dp=np.array([0.05]), target_modes=(0,), t_on=t_on, t_off=t_off,
            x_c=x_c, h_residual=0.0, energy_on=1.0, energy_off=0.5,
        )
        with pytest.raises(DimensionError, match="overlap"):
            DeocSchedule(stages=(mk(0.5, 1.5), mk(1.0, 2.0)))
