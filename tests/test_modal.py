"""Eigenstructure, closed-form propagation, and orbit geometry."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridstep import DegenerateSpectrumError, DimensionError, analyze, build_reduced_model
from gridstep.modal import modal_report, orbit_value, propagate
from gridstep.network import Branch, Bus, Generator, GridSystem
from gridstep.oscillation import oscillation_energy, switching_function

import oracle

SMIB_FREQ = math.sqrt(120.0 * math.pi * 2.0 / 7.0)  # sqrt(w_s b / 2H), H=3.5, b=2


def _generator(omega):
    """The block rotation generator ``[[0, w_i], [-w_i, 0]]`` of the pairs."""
    g = np.zeros((2 * len(omega), 2 * len(omega)))
    g[0::2, 1::2] = np.diag(omega)
    g[1::2, 0::2] = -np.diag(omega)
    return g


def _two_smib_grid(h2=1.0, x2=0.3):
    """Two machines tied only to the infinite bus: decoupled SMIB pair."""
    return GridSystem(
        buses=(Bus(1, "generator"), Bus(2, "generator"), Bus(3, "generator")),
        branches=(Branch(1, 3, 0.5), Branch(2, 3, x2)),
        generators=(
            Generator(bus=1, inertia=3.5, pm=0.0),
            Generator(bus=2, inertia=h2, pm=0.0),
            Generator(bus=3, inertia=1.0, pm=0.0, infinite=True),
        ),
        loads=(),
        ccs=(),
        base_mva=100.0,
    )


class TestAnalyze:
    def test_smib_frequency_analytic(self, smib_basis):
        assert smib_basis.modes[0].frequency == pytest.approx(SMIB_FREQ, rel=1e-12)

    def test_eigenvalues_purely_imaginary_conjugate_pairs(self, wscc9_basis):
        # The spectrum of the state matrix is +-j times the pair frequencies.
        lam = oracle.complex_form(wscc9_basis).eigenvalues
        assert np.abs(lam.real).max() < 1e-8 * np.abs(lam).max()
        assert lam[0::2] == pytest.approx(lam[1::2].conj())
        assert np.sort(lam.imag[lam.imag > 0.0]) == pytest.approx(wscc9_basis.omega, rel=1e-12)

    def test_eigen_residual(self, wscc9_basis):
        # In pair coordinates the state matrix is the block rotation generator.
        b = wscc9_basis
        res = np.abs(b.pairs @ b.a @ b.from_pairs - _generator(b.omega)).max()
        assert res < 1e-9 * np.abs(b.a).max()

    def test_d_e_positive_definite(self, wscc9_basis):
        form = oracle.complex_form(wscc9_basis)
        np.linalg.cholesky(form.d)
        np.linalg.cholesky(form.e)
        np.linalg.cholesky(wscc9_basis.pairs.T @ wscc9_basis.pairs)

    def test_decoupled_pair_is_union_of_smib_modes(self):
        model = build_reduced_model(_two_smib_grid())
        freqs = sorted(m.frequency for m in analyze(model).modes)
        f1 = SMIB_FREQ
        f2 = math.sqrt(120.0 * math.pi * (1.0 / 0.3) / 2.0)  # H=1, b=1/0.3
        assert freqs == pytest.approx(sorted([f1, f2]), rel=1e-10)

    def test_repeated_frequency_accepted(self, twin_model, twin_basis):
        """Two identical machines share one frequency; the basis still turns
        each pair at it and conserves the orbit value (the complex eigenbasis
        of a repeated frequency is not unique, so no oracle form is used)."""
        b, x_e = twin_basis, twin_model.x_eq
        assert b.omega == pytest.approx([SMIB_FREQ] * 2, rel=1e-12)
        res = np.abs(b.pairs @ b.a @ b.from_pairs - _generator(b.omega)).max()
        assert res < 1e-9 * np.abs(b.a).max()
        x0 = x_e + np.array([0.05, -0.03, 0.002, 0.001])
        v = orbit_value(b, x_e, propagate(b, x_e, x0, np.linspace(0.0, 10.0, 101)))
        assert v == pytest.approx(orbit_value(b, x_e, x0), rel=1e-12)

    def test_zero_frequency_rejected(self):
        model = build_reduced_model(_two_smib_grid(x2=1e15))
        with pytest.raises(DegenerateSpectrumError, match="zero"):
            analyze(model)

    def test_deterministic_bit_identical(self, wscc9_model):
        b1, b2 = analyze(wscc9_model), analyze(wscc9_model)
        for name in ("omega", "pairs", "from_pairs"):
            assert getattr(b1, name).tobytes() == getattr(b2, name).tobytes()
        for m1, m2 in zip(b1.modes, b2.modes):
            assert m1.participation.tobytes() == m2.participation.tobytes()

    def test_participation_sums_to_one(self, ieee39_basis):
        for mode in ieee39_basis.modes:
            assert mode.participation.sum() == pytest.approx(1.0)
            assert (mode.participation >= 0).all()

    def test_modal_report_shape(self, wscc9_model, wscc9_basis):
        rep = modal_report(wscc9_model, wscc9_basis)
        assert len(rep["modes"]) == 2
        assert rep["machine_buses"] == [2, 3]


@pytest.mark.parametrize("system", ["smib_cc", "wscc9", "ieee39"])
class TestPairCoordinates:
    """``pairs`` inverts ``from_pairs``, turns the state matrix into the
    block rotation generator, and gives the complex form's ``D`` (from
    ``np.linalg.eig``, unit-norm eigenvectors) as ``pairs^T pairs``."""

    def _basis(self, request, system):
        return request.getfixturevalue(f"{system}_basis")

    def test_from_pairs_inverts_pairs(self, request, system):
        b = self._basis(request, system)
        assert np.abs(b.pairs @ b.from_pairs - np.eye(b.n_states)).max() <= 1e-14

    def test_state_matrix_is_the_rotation_generator(self, request, system):
        b = self._basis(request, system)
        g = _generator(b.omega)
        assert np.abs(b.pairs @ b.a @ b.from_pairs - g).max() <= 1e-14 * np.abs(g).max()

    def test_complex_form_d_is_pairs_gram(self, request, system):
        b = self._basis(request, system)
        d = oracle.complex_form(b).d
        assert np.abs(d - b.pairs.T @ b.pairs).max() <= 1e-12 * np.abs(d).max()

    def test_orbit_value_is_complex_form(self, request, system):
        b = self._basis(request, system)
        rng = np.random.default_rng(5)
        center, xs = rng.normal(size=b.n_states), rng.normal(size=(4, b.n_states))
        expected = oracle.orbit_value(b, center, xs)
        assert np.abs(orbit_value(b, center, xs) - expected).max() <= 1e-12 * expected.max()


class TestPropagate:
    def test_center_is_fixed_point(self, wscc9_basis, wscc9_model):
        x = propagate(wscc9_basis, wscc9_model.x_eq, wscc9_model.x_eq, 3.7)
        assert x == pytest.approx(wscc9_model.x_eq)

    def test_zero_dt_is_identity(self, wscc9_basis, wscc9_model):
        x0 = wscc9_model.x_eq + 0.01 * np.arange(4)
        assert propagate(wscc9_basis, wscc9_model.x_eq, x0, 0.0) == pytest.approx(x0)

    def test_smib_periodicity(self, smib_basis, smib_model):
        x0 = smib_model.x_eq + np.array([0.1, 0.001])
        period = 2.0 * math.pi / SMIB_FREQ
        x = propagate(smib_basis, smib_model.x_eq, x0, period)
        assert np.abs(x - x0).max() < 1e-9

    def test_modal_coordinate_norm_invariant(self, wscc9_basis, wscc9_model):
        # Each pair keeps its amplitude along the orbit.
        x0 = wscc9_model.x_eq + np.array([0.05, -0.02, 0.001, 0.0005])
        n0 = wscc9_basis.pair_amplitudes(wscc9_model.x_eq, x0)
        for x in propagate(wscc9_basis, wscc9_model.x_eq, x0, np.array([0.3, 1.1, 7.7])):
            n = wscc9_basis.pair_amplitudes(wscc9_model.x_eq, x)
            assert n == pytest.approx(n0, rel=1e-9)

    def test_batch_matches_scalar(self, wscc9_basis, wscc9_model):
        # A stack of offsets gives the states reached by single-offset steps.
        x0 = wscc9_model.x_eq + np.array([0.05, -0.02, 0.001, 0.0005])
        dts = np.array([0.0, 0.1, 1.3, 4.9])
        batch = propagate(wscc9_basis, wscc9_model.x_eq, x0, dts)
        x = x0
        for k, step in enumerate(np.diff(dts, prepend=0.0)):
            x = propagate(wscc9_basis, wscc9_model.x_eq, x, step)
            assert np.abs(batch[k] - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("system", ["wscc9", "ieee39"])
    @pytest.mark.parametrize("dt", [0.37, np.linspace(0.0, 2.0, 33)], ids=["scalar", "block"])
    def test_real_form_matches_expm_and_complex_form(self, request, system, dt):
        """Over more than a period of the slowest mode (0.84 s on wscc9,
        1.82 s on ieee39), within 1e-12 of the orbit's size."""
        model, basis = (request.getfixturevalue(f"{system}_{k}") for k in ("model", "basis"))
        rng = np.random.default_rng(3)
        center = model.x_eq + 0.05 * rng.normal(size=basis.n_states)
        x0 = model.x_eq + 0.1 * rng.normal(size=basis.n_states)
        got = propagate(basis, center, x0, dt)
        exact = np.reshape([center + scipy.linalg.expm(basis.a * t) @ (x0 - center)
                            for t in np.ravel(dt)], got.shape)
        complex_form = oracle.propagate(basis, center, x0, dt)
        tol = 1e-12 * np.abs(np.vstack([x0, exact]) - center).max()
        assert got.shape == complex_form.shape
        assert np.abs(got - complex_form).max() <= tol
        assert np.abs(got - exact).max() <= tol


class TestOrbitValue:
    def test_zero_at_center(self, wscc9_basis, wscc9_model):
        assert orbit_value(wscc9_basis, wscc9_model.x_eq, wscc9_model.x_eq) == 0.0

    def test_equals_twice_d_quadratic_form(self, wscc9_basis, wscc9_model):
        dx = np.array([0.05, -0.02, 0.001, 0.0005])
        x0 = wscc9_model.x_eq + dx
        val = orbit_value(wscc9_basis, wscc9_model.x_eq, x0)
        d = oracle.complex_form(wscc9_basis).d
        assert val == pytest.approx(2.0 * dx @ d @ dx, rel=1e-9)

    @pytest.mark.parametrize("shape", [(3,), (5, 3)])
    def test_wrong_state_length_rejected(self, wscc9_basis, wscc9_model, shape):
        with pytest.raises(DimensionError, match="expected"):
            orbit_value(wscc9_basis, wscc9_model.x_eq, np.zeros(shape))

    def test_conserved_over_period_samples(self, smib_basis, smib_model):
        x0 = smib_model.x_eq + np.array([0.1, 0.002])
        v0 = orbit_value(smib_basis, smib_model.x_eq, x0)
        dts = np.linspace(0.0, 2.0 * math.pi / SMIB_FREQ, 50)
        xs = propagate(smib_basis, smib_model.x_eq, x0, dts)
        assert orbit_value(smib_basis, smib_model.x_eq, xs) == pytest.approx(v0, rel=1e-9)

    def test_batch_matches_scalar(self, wscc9_basis, wscc9_model):
        # A stack gives each state's quadratic form 2 dx^T D dx.
        dxs = 0.01 * np.random.default_rng(0).normal(size=(5, 4))
        vals = orbit_value(wscc9_basis, wscc9_model.x_eq, wscc9_model.x_eq + dxs)
        d = oracle.complex_form(wscc9_basis).d
        expected = [2.0 * dx @ d @ dx for dx in dxs]
        assert vals == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("system", ["wscc9", "ieee39"])
@settings(deadline=None)
@given(data=st.data())
def test_orbit_value_conserved_along_propagate(request, system, data):
    model, basis = (request.getfixturevalue(f"{system}_{k}") for k in ("model", "basis"))
    deviation = arrays(float, basis.n_states, elements=st.floats(-0.5, 0.5, allow_subnormal=False))
    center = model.x_eq + data.draw(deviation, label="center")
    x0 = model.x_eq + data.draw(deviation, label="x0")
    offset = st.floats(0.0, 100.0, allow_subnormal=False)
    dt = data.draw(offset | arrays(float, st.integers(1, 8), elements=offset), label="dt")
    v0 = orbit_value(basis, center, x0)
    v = orbit_value(basis, center, propagate(basis, center, x0, dt))
    # Rounding the state (|x| ~ 1) moves the quadratic form by about
    # |grad V| * 1e-16 ~ sqrt(|D| V) * 1e-16, with |D| < 1e4 on these bases.
    assert np.all(np.abs(v - v0) <= 1e-9 * v0 + 1e-11 * np.sqrt(v0))


# Each DEOC kernel takes one state (or offset) or a stack of them; ``ref`` is
# the start state of ``propagate`` and the ``x_c`` of ``switching_function``.
KERNELS = {
    "propagate": lambda basis, model, ref, arg: propagate(basis, model.x_eq, ref, arg),
    "orbit_value": lambda basis, model, ref, arg: orbit_value(basis, model.x_eq, arg),
    "switching_function":
        lambda basis, model, ref, arg: switching_function(basis, model.x_eq, ref, arg),
    "oscillation_energy": lambda basis, model, ref, arg: oscillation_energy(model, arg),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stack_gives_each_rows_value(wscc9_basis, wscc9_model, kernel):
    rng = np.random.default_rng(0)
    ref = wscc9_model.x_eq + 0.02 * rng.normal(size=4)
    stack = np.array([0.0, 0.1, 1.3, 4.9]) if kernel == "propagate" else (
        wscc9_model.x_eq + 0.01 * rng.normal(size=(5, 4)))
    values = KERNELS[kernel](wscc9_basis, wscc9_model, ref, stack)
    rows = np.array([KERNELS[kernel](wscc9_basis, wscc9_model, ref, row) for row in stack])
    assert values.shape == rows.shape
    assert np.abs(values - rows).max() <= 1e-12 * np.abs(rows).max()
