"""Network reduction: susceptance assembly, Kron elimination, equilibria."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from gridstep import (
    DimensionError,
    InputFormatError,
    ModelError,
    build_reduced_model,
    equilibrium_shifted,
    load_grid,
)
from gridstep.network import (
    Branch,
    Bus,
    ControllableComponent,
    Generator,
    GridSystem,
    Load,
    _SINGULAR_PIVOT_RTOL,
    elimination_pivots,
    grid_from_dict,
)


def _grid(buses, branches, gens, loads=(), ccs=(), base=100.0):
    return GridSystem(
        buses=tuple(Bus(*b) for b in buses),
        branches=tuple(Branch(*b) for b in branches),
        generators=tuple(Generator(**g) for g in gens),
        loads=tuple(Load(*l) for l in loads),
        ccs=tuple(ControllableComponent(*c) for c in ccs),
        base_mva=base,
    )


class TestBuildReducedModel:
    def test_smib_single_branch_susceptance(self, smib_model):
        # One machine behind x = 0.5 pu: b_red = 1/x, zero power -> zero angle.
        assert smib_model.b_red == pytest.approx(np.array([[2.0]]))
        assert smib_model.delta_eq == pytest.approx([0.0], abs=1e-14)
        assert smib_model.n_machines == 1
        assert smib_model.n_cc == 0

    def test_smib_cc_hand_reduction(self, smib_cc_model):
        # Chain 1 -(0.25)- 2 -(0.25)- 3(inf), CC at bus 2. Grounding bus 3
        # and eliminating bus 2 by hand: b_red = 4 - (-4)(1/8)(-4) = 2,
        # injection map f = (-4)/8 = -0.5, equilibrium angle = pm / b_red.
        m = smib_cc_model
        assert m.b_red == pytest.approx(np.array([[2.0]]))
        assert m.b_cc == pytest.approx(np.array([[-0.5]]))
        assert m.delta_eq == pytest.approx([0.1])

    def test_symmetric_twins_have_equal_angles(self):
        sys = _grid(
            buses=[(1, "generator"), (2, "generator"), (3, "generator")],
            branches=[(1, 3, 0.4), (2, 3, 0.4)],
            gens=[
                dict(bus=1, inertia=3.0, pm=0.3),
                dict(bus=2, inertia=3.0, pm=0.3),
                dict(bus=3, inertia=1.0, pm=0.0, infinite=True),
            ],
        )
        model = build_reduced_model(sys)
        assert model.delta_eq[0] == pytest.approx(model.delta_eq[1])
        # 2x2 hand solve: decoupled through the grounded bus, delta = pm * x.
        assert model.delta_eq[0] == pytest.approx(0.3 * 0.4)

    def test_9bus_shape_and_cc_columns(self, wscc9_model):
        assert wscc9_model.n_machines == 2
        assert wscc9_model.b_cc.shape == (2, 6)
        assert wscc9_model.machine_buses == (2, 3)

    @pytest.mark.parametrize("fixture", ["wscc9_model", "ieee39_model"])
    def test_b_red_symmetric(self, fixture, request):
        m = request.getfixturevalue(fixture)
        scale = np.abs(m.b_red).max()
        assert np.abs(m.b_red - m.b_red.T).max() < 1e-10 * scale

    @pytest.mark.parametrize(
        "fixture", ["smib_model", "smib_cc_model", "wscc9_model", "ieee39_model"]
    )
    def test_equilibrium_residual(self, fixture, request):
        m = request.getfixturevalue(fixture)
        rhs = m.p_mech + m.b_load @ m.p_load - m.b_cc @ m.p_cc0
        assert np.abs(m.b_red @ m.delta_eq - rhs).max() < 1e-10

    def test_mw_units_converted_to_pu(self, wscc9_model):
        # 125 MW load on a 100 MVA base.
        assert any(abs(v - 1.25) < 1e-12 for v in wscc9_model.p_load)
        assert wscc9_model.p_mech == pytest.approx([1.63, 0.85])

    def test_state_matrix_block_form(self, wscc9_model):
        m = wscc9_model
        n = m.n_machines
        assert m.a[:n, :n] == pytest.approx(np.zeros((n, n)))
        assert m.a[:n, n:] == pytest.approx(m.omega_s * np.eye(n))
        assert m.a[n:, :n] == pytest.approx(-0.5 * m.b_red / m.h[:, None])
        assert m.a[n:, n:] == pytest.approx(np.zeros((n, n)))


class TestValidation:
    def test_no_infinite_bus_rejected(self):
        sys = _grid(
            buses=[(1, "generator"), (2, "generator")],
            branches=[(1, 2, 0.5)],
            gens=[dict(bus=1, inertia=3.5, pm=0.0), dict(bus=2, inertia=1.0, pm=0.0)],
        )
        with pytest.raises(ModelError, match="infinite"):
            build_reduced_model(sys)

    def test_disconnected_graph_rejected(self):
        sys = _grid(
            buses=[(1, "generator"), (2, "generator"), (3, "non-generator"),
                   (4, "non-generator")],
            branches=[(1, 2, 0.5), (3, 4, 0.5)],
            gens=[
                dict(bus=1, inertia=3.5, pm=0.0),
                dict(bus=2, inertia=1.0, pm=0.0, infinite=True),
            ],
        )
        with pytest.raises(ModelError, match="disconnected"):
            build_reduced_model(sys)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(2, 12), data=st.data())
    def test_components_match_scipy(self, n, data):
        """The union-find counts the components ``connected_components`` counts."""
        edges = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                   min_size=1, max_size=2 * n))
        sys = _grid(buses=[(k, "non-generator") for k in range(1, n + 1)],
                    branches=[(i, j, 0.5) for i, j in edges], gens=[])
        rows, cols = zip(*[(i - 1, j - 1) for i, j in edges])
        adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        n_comp = connected_components(adj, directed=False)[0]
        if n_comp == 1:
            sys._check_connected()
        else:
            with pytest.raises(ModelError, match=rf"disconnected \({n_comp} components\)"):
                sys._check_connected()

    def test_duplicate_bus_ids_rejected(self):
        sys = _grid(
            buses=[(1, "generator"), (1, "generator")],
            branches=[(1, 1, 0.5)],
            gens=[dict(bus=1, inertia=3.5, pm=0.0, infinite=True)],
        )
        with pytest.raises(ModelError, match="duplicate"):
            sys.validate()

    def test_cc_on_generator_bus_rejected(self):
        sys = _grid(
            buses=[(1, "generator"), (2, "generator")],
            branches=[(1, 2, 0.5)],
            gens=[
                dict(bus=1, inertia=3.5, pm=0.0),
                dict(bus=2, inertia=1.0, pm=0.0, infinite=True),
            ],
            ccs=[(1, 0.0)],
        )
        with pytest.raises(ModelError, match="generator bus"):
            sys.validate()

    def test_two_infinite_buses_rejected(self):
        sys = _grid(
            buses=[(1, "generator"), (2, "generator")],
            branches=[(1, 2, 0.5)],
            gens=[
                dict(bus=1, inertia=3.5, pm=0.0, infinite=True),
                dict(bus=2, inertia=1.0, pm=0.0, infinite=True),
            ],
        )
        with pytest.raises(ModelError, match="infinite"):
            sys.validate()

    def test_schema_rejects_negative_reactance(self):
        doc = {
            "schema_version": 1, "base_mva": 100.0, "units": "pu",
            "buses": [{"id": 1, "type": "generator"}],
            "branches": [{"from": 1, "to": 1, "x": -0.5}],
            "generators": [{"bus": 1, "inertia": 1.0, "pm": 0.0}],
        }
        with pytest.raises(InputFormatError) as raised:
            grid_from_dict(doc)
        assert str(raised.value) == "branches[0].x: -0.5 is less than or equal to the minimum of 0"


class TestEquilibriumShifted:
    def test_zero_shift_is_identity(self, wscc9_model):
        x_c = equilibrium_shifted(wscc9_model, np.zeros(6))
        assert x_c == pytest.approx(wscc9_model.x_eq)

    def test_smib_cc_scalar_shift(self, smib_cc_model):
        # Hand DC solve with injection dp at the middle bus: the machine
        # angle is 0.1 + dp/4, i.e. delta_e - b_red^-1 b_cc dp with
        # b_cc = -0.5.
        x_c = equilibrium_shifted(smib_cc_model, np.array([0.1]))
        assert x_c[0] == pytest.approx(0.1 + 0.025)
        assert x_c[1] == pytest.approx(1.0)

    def test_shift_linear_in_magnitude(self, wscc9_model):
        dp = np.array([0.1, -0.05, 0.2, 0.0, 0.03, -0.1])
        d1 = equilibrium_shifted(wscc9_model, dp) - wscc9_model.x_eq
        d3 = equilibrium_shifted(wscc9_model, 3.0 * dp) - wscc9_model.x_eq
        assert d3 == pytest.approx(3.0 * d1)

    def test_dimension_mismatch_rejected(self, wscc9_model):
        with pytest.raises(DimensionError):
            equilibrium_shifted(wscc9_model, np.zeros(4))

    def test_speeds_stay_synchronous(self, wscc9_model):
        x_c = equilibrium_shifted(wscc9_model, 0.1 * np.ones(6))
        assert x_c[2:] == pytest.approx(np.ones(2))


@st.composite
def laplacian_blocks(draw):
    """The eliminated-bus block of the grounded Laplacian of a random connected
    network: a random tree plus extra branches, the first ``kept`` nodes kept.
    Susceptances spread over 3 decades, or over 17 in a third of the cases."""
    n = draw(st.integers(3, 40))
    kept = draw(st.integers(1, n - 1))
    decades = draw(st.sampled_from([3.0, 3.0, 17.0]))
    edges = [(k, draw(st.integers(0, k - 1))) for k in range(1, n)]
    edges += [(i, j) for i, j in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)) if i != j]
    lap = np.zeros((n, n))
    for i, j in edges:
        b = 10.0 ** draw(st.floats(-decades / 2, decades / 2))
        lap[[i, j], [i, j]] += b
        lap[[i, j], [j, i]] -= b
    return lap[kept:, kept:]


class TestSingularReduction:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(b_ll=laplacian_blocks())
    def test_pivot_flag_matches_lu_factor_scan(self, b_ll):
        """Squared Cholesky diagonals flag a numerically zero pivot exactly
        when the pivots of ``lu_factor`` (with row swaps) do."""
        pivots = elimination_pivots(b_ll)
        lu_diag = np.abs(np.diag(scipy.linalg.lu_factor(b_ll, check_finite=False)[0]))
        flag = np.any(pivots < _SINGULAR_PIVOT_RTOL * max(pivots.max(), 1.0))
        lu_flag = np.any(lu_diag < _SINGULAR_PIVOT_RTOL * max(lu_diag.max(), 1.0))
        assert flag == lu_flag

    def test_weakly_hung_bus_pair_fails_cholesky(self):
        """Buses 2 and 3, tied by x = 1e-8, hang on the grid by x = 1e9: the
        second pivot, 1e8 - 1e16 / 1e8, is exactly 0, so Cholesky fails; the
        first pivot is kept and the reduction refused at the second."""
        sys = _grid(
            buses=[(1, "generator"), (2, "non-generator"), (3, "non-generator"),
                   (4, "generator")],
            branches=[(1, 4, 0.5), (1, 2, 1e9), (2, 3, 1e-8)],
            gens=[dict(bus=1, inertia=3.5, pm=0.0),
                  dict(bus=4, inertia=1.0, pm=0.0, infinite=True)],
        )
        b_ll = np.array([[1e8 + 1e-9, -1e8], [-1e8, 1e8]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(b_ll)
        assert elimination_pivots(b_ll).tolist() == [1e8, 0.0]
        with pytest.raises(ModelError, match="Kron reduction: pivot 1 is numerically zero"):
            build_reduced_model(sys)
