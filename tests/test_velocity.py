"""Velocity lattice, Maxwellians, moments, projections, and sigma norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rarewave.euler import GAS_R, GasState
from rarewave.velocity import (
    GridFunction,
    VelocityGrid,
    macro_basis,
    macro_coefficients,
    maxwellian,
    maxwellian_l2mu_distance,
    moments,
    project_P0,
    project_P1,
    sigma_norm,
    weight_w,
)

# Closed-form distance values, cross-checked against dense trapezoid
# quadrature at (L=10, N=64) and (L=12, N=96); both agreed to 6e-15.
DIST_A = 0.084851656551166638  # (1,0,3/2) vs (1.05,(0.05,0,0),1.55)
DIST_B = 0.15303516100625922  # (0.95,(-0.03,0.02,0),1.45) vs (1.02,(0.01,0,0.04),1.6)

STATE_A1 = GasState.make(1.0, 0.0, 1.5)
STATE_A2 = GasState.make(1.05, 0.05, 1.55)
STATE_B1 = GasState.make(0.95, -0.03, 1.45, u2=0.02)
STATE_B2 = GasState.make(1.02, 0.01, 1.6, u3=0.04)


def small_grid(n=16, L=8.0):
    return VelocityGrid(half_width=L, n_per_axis=n)


states = st.builds(
    GasState.make,
    rho=st.floats(0.5, 2.0),
    u1=st.floats(-0.5, 0.5),
    theta=st.floats(0.6, 2.4),
    u2=st.floats(-0.5, 0.5),
    u3=st.floats(-0.5, 0.5),
)


class TestVelocityGrid:
    def test_total_weight_is_box_volume(self):
        g = VelocityGrid(half_width=8.0, n_per_axis=32)
        assert abs(np.sum(g.weights) - (2 * 8.0) ** 3) < 1e-10

    def test_axis_symmetric_under_negation(self):
        g = small_grid()
        assert np.allclose(g.axis, -g.axis[::-1], rtol=0, atol=1e-13)

    def test_spacing_matches_axis(self):
        g = VelocityGrid(half_width=5.0, n_per_axis=10)
        assert g.spacing == pytest.approx(g.axis[1] - g.axis[0])

    @pytest.mark.parametrize("n", [0, 3, 7, -4, 20.0])
    def test_odd_or_tiny_n_rejected(self, n):
        with pytest.raises(ValueError):
            VelocityGrid(n_per_axis=n)

    def test_numpy_integer_n_accepted(self):
        g = VelocityGrid(half_width=8.0, n_per_axis=np.int64(8))
        assert g.shape == (8, 8, 8)
        assert maxwellian(STATE_A1, g).values.shape == (8, 8, 8)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ValueError):
            VelocityGrid(half_width=0.0)

    def test_integrate_constant(self):
        g = small_grid(n=8, L=2.0)
        assert g.integrate(np.ones(g.shape)) == pytest.approx(4.0**3)


class TestGridFunction:
    def test_shape_mismatch_rejected(self):
        g = small_grid(n=8)
        with pytest.raises(ValueError, match="shape"):
            GridFunction(g, np.zeros((8, 8, 7)))

    def test_non_finite_rejected(self):
        g = small_grid(n=8)
        vals = np.zeros(g.shape)
        vals[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            GridFunction(g, vals)

    def test_values_frozen(self):
        g = small_grid(n=8)
        f = GridFunction(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


class TestMaxwellian:
    def test_reference_value_at_origin(self):
        # the global Maxwellian is (2 pi)^(-3/2) exp(-|v|^2 / 2): its value
        # at the origin scaled by the Gaussian, checked at every node
        g = VelocityGrid(half_width=8.0, n_per_axis=12)
        vals = maxwellian(STATE_A1, g).values
        closed = (2 * math.pi) ** -1.5 * np.exp(-0.5 * g.speed_sq)
        assert np.allclose(vals, closed, rtol=1e-14, atol=0.0)

    def test_moments_round_trip_reference(self):
        g = VelocityGrid(half_width=8.0, n_per_axis=48)
        back = moments(maxwellian(STATE_A1, g))
        assert abs(back.rho - 1.0) < 1e-8
        assert abs(back.u1) < 1e-8
        assert abs(back.theta - 1.5) < 1e-8

    def test_moments_round_trip_shifted_state(self):
        g = VelocityGrid(half_width=8.0, n_per_axis=48)
        s = GasState.make(1.3, 0.2, 1.1, u2=-0.1, u3=0.05)
        back = moments(maxwellian(s, g))
        for got, want in zip(
            (back.rho, *back.u, back.theta), (s.rho, *s.u, s.theta)
        ):
            assert abs(got - want) < 1e-8

    def test_quadrature_error_shrinks_as_n_doubles(self):
        s = GasState.make(1.05, 0.1, 1.4, u3=-0.05)
        errs = []
        for n in (16, 32, 64):
            g = VelocityGrid(half_width=8.0, n_per_axis=n)
            back = moments(maxwellian(s, g))
            errs.append(
                max(
                    abs(back.rho - s.rho),
                    abs(back.u1 - s.u1),
                    abs(back.theta - s.theta),
                )
            )
        assert errs[1] <= errs[0] + 1e-14
        assert errs[2] <= errs[1] + 1e-14
        assert errs[-1] < 1e-10

    def test_even_in_v_minus_u(self):
        g = small_grid()
        vals = maxwellian(STATE_A1, g).values
        flipped = vals[::-1, ::-1, ::-1]
        np.testing.assert_allclose(vals, flipped, rtol=1e-13)

    def test_small_box_flagged(self):
        g = VelocityGrid(half_width=3.0, n_per_axis=16)
        with pytest.warns(UserWarning, match="half-width"):
            maxwellian(STATE_A1, g)

    def test_ample_box_not_flagged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maxwellian(STATE_A1, small_grid())


class TestMoments:
    def test_zero_field_degenerate(self):
        g = small_grid(n=8)
        with pytest.raises(ValueError, match="degenerate"):
            moments(GridFunction(g, np.zeros(g.shape)))
        # positive mass at one node has no spread about its own mean; unit
        # spacing keeps every moment of the node (0.5, 0.5, 0.5) exact
        g = small_grid(n=16, L=7.5)
        point = np.zeros(g.shape)
        point[8, 8, 8] = 1.0
        with pytest.raises(ValueError, match="nonpositive temperature"):
            moments(GridFunction(g, point))

    def test_scaling_density_only(self):
        g = small_grid(n=32)
        f = maxwellian(STATE_A2, g)
        doubled = GridFunction(g, 2.0 * f.values)
        a, b = moments(f), moments(doubled)
        assert b.rho == pytest.approx(2 * a.rho, rel=1e-13)
        assert b.u1 == pytest.approx(a.u1, abs=1e-13)
        assert b.theta == pytest.approx(a.theta, rel=1e-13)


class TestMacroBasis:
    def test_gram_matrix_is_identity(self):
        g = VelocityGrid(half_width=8.0, n_per_axis=48)
        basis = macro_basis(GasState.make(1.2, 0.15, 1.3, u2=-0.1), g)
        gram = np.array(
            [[g.integrate(ci.values * dj) for dj in basis.duals] for ci in basis.chi]
        )
        assert np.max(np.abs(gram - np.eye(5))) < 1e-7

    def test_tail_decay(self):
        # Gaussian tails: ~1e-9 at six thermal radii, below 1e-12 past 7.5
        g = small_grid(n=48)
        s = STATE_A1
        basis = macro_basis(s, g)
        r = np.sqrt(g.speed_sq)
        six = r >= 6.0 * math.sqrt(GAS_R * s.theta)
        far = r >= 7.5 * math.sqrt(GAS_R * s.theta)
        for chi in basis.chi:
            assert np.max(np.abs(chi.values[six])) < 2e-8
            assert np.max(np.abs(chi.values[far])) < 1e-12

    def test_chi4_zero_mass_and_momentum(self):
        g = small_grid(n=32)
        basis = macro_basis(GasState.make(1.1, 0.1, 1.4), g)
        chi4 = basis.chi[4].values
        vx, vy, vz = g.components
        assert abs(g.integrate(chi4)) < 1e-10
        for comp in (vx, vy, vz):
            assert abs(g.integrate(comp * chi4)) < 1e-10


class TestProjections:
    def setup_method(self):
        self.g = small_grid(n=32)
        self.s = GasState.make(1.1, 0.12, 1.35, u2=-0.05)
        self.basis = macro_basis(self.s, self.g)
        self.m = maxwellian(self.s, self.g)

    def test_maxwellian_is_fluid(self):
        p0 = project_P0(self.m, self.basis)
        p1 = project_P1(self.m, self.basis)
        assert np.max(np.abs(p0.values - self.m.values)) < 1e-8
        assert np.max(np.abs(p1.values)) < 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        h = GridFunction(self.g, rng.standard_normal(self.g.shape) * self.m.values)
        once = project_P0(h, self.basis)
        twice = project_P0(once, self.basis)
        assert np.max(np.abs(twice.values - once.values)) < 1e-10

    def test_complement_is_microscopic(self):
        rng = np.random.default_rng(12)
        h = GridFunction(self.g, rng.standard_normal(self.g.shape) * self.m.values)
        p1 = project_P1(h, self.basis)
        vx, vy, vz = self.g.components
        invariants = (
            np.ones(self.g.shape),
            vx,
            vy,
            vz,
            0.5 * self.g.speed_sq,
        )
        scale = self.g.integrate(np.abs(h.values))
        for psi in invariants:
            assert abs(self.g.integrate(psi * p1.values)) < 1e-10 * scale

    def test_p1_orthogonal_to_basis(self):
        rng = np.random.default_rng(13)
        h = GridFunction(self.g, rng.standard_normal(self.g.shape) * self.m.values)
        coef = macro_coefficients(project_P1(h, self.basis), self.basis)
        assert np.max(np.abs(coef)) < 1e-10


class TestWeight:
    def test_unit_at_origin(self):
        assert weight_w((0.0, 0.0, 0.0)) == 1.0

    def test_coulomb_exponent_shape(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 0.0, 4.0]])
        got = weight_w(v)
        want = (1.0 + np.array([1.0, 4.0, 25.0])) ** -0.5
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_strictly_decreasing_in_speed(self):
        r = np.linspace(0.0, 6.0, 25)
        v = np.zeros((25, 3))
        v[:, 0] = r
        w = weight_w(v)
        assert np.all(np.diff(w) < 0)


def identity_sigma(g):
    sig = np.zeros((3, 3) + g.shape)
    for i in range(3):
        sig[i, i] = 1.0
    return sig


def anisotropic_sigma(g):
    """SPD matrix field I + e(v) e(v)^T with a smooth unit vector e."""
    sig = identity_sigma(g)
    vx, vy, vz = g.components
    norm = np.sqrt(g.speed_sq + 1.0)
    e = (vx / norm, vy / norm, 1.0 / norm)
    for i in range(3):
        for j in range(3):
            sig[i, j] += e[i] * e[j]
    return sig


class TestSigmaNorm:
    def setup_method(self):
        self.g = small_grid(n=16)
        self.m = maxwellian(STATE_A1, self.g)

    def test_zero_on_zero(self):
        z = GridFunction(self.g, np.zeros(self.g.shape))
        assert sigma_norm(z, identity_sigma(self.g)) == 0.0

    def test_positive_on_bump(self):
        assert sigma_norm(self.m, identity_sigma(self.g)) > 0.1

    def test_homogeneous(self):
        sig = anisotropic_sigma(self.g)
        f2 = GridFunction(self.g, 2.0 * self.m.values)
        assert sigma_norm(f2, sig) == pytest.approx(2 * sigma_norm(self.m, sig), rel=1e-12)

    def test_triangle_inequality(self):
        sig = anisotropic_sigma(self.g)
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = GridFunction(self.g, rng.standard_normal(self.g.shape) * self.m.values)
            b = GridFunction(self.g, rng.standard_normal(self.g.shape) * self.m.values)
            ab = GridFunction(self.g, a.values + b.values)
            assert sigma_norm(ab, sig) <= sigma_norm(a, sig) + sigma_norm(b, sig) + 1e-12

    def test_weight_exponent_shrinks_norm(self):
        # w < 1 away from the origin, so larger ell can only shrink mass
        sig = identity_sigma(self.g)
        plain = sigma_norm(self.m, sig, ell=0.0)
        weighted = sigma_norm(self.m, sig, ell=1.0)
        assert 0 < weighted < plain

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            sigma_norm(self.m, np.eye(3))


class TestMaxwellianDistance:
    def test_frozen_pair_a(self):
        assert maxwellian_l2mu_distance(STATE_A1, STATE_A2) == pytest.approx(
            DIST_A, rel=1e-13
        )

    def test_frozen_pair_b(self):
        assert maxwellian_l2mu_distance(STATE_B1, STATE_B2) == pytest.approx(
            DIST_B, rel=1e-13
        )

    def test_matches_grid_quadrature(self):
        g = VelocityGrid(half_width=10.0, n_per_axis=64)
        mu = maxwellian(STATE_A1, g).values
        m1 = maxwellian(STATE_A1, g).values
        m2 = maxwellian(STATE_A2, g).values
        direct = math.sqrt(g.integrate((m1 - m2) ** 2 / mu))
        assert abs(direct - maxwellian_l2mu_distance(STATE_A1, STATE_A2)) < 1e-6

    @given(s=states)
    @settings(max_examples=25, deadline=None)
    def test_zero_on_equal_states(self, s):
        assert maxwellian_l2mu_distance(s, s) == 0.0

    @given(s1=states, s2=states)
    @example(s1=GasState.make(1.0, 0.0, 0.609375), s2=GasState.make(1.0, 0.0, 0.6015625))
    @settings(max_examples=25, deadline=None)
    def test_symmetric(self, s1, s2):
        d12 = maxwellian_l2mu_distance(s1, s2)
        d21 = maxwellian_l2mu_distance(s2, s1)
        assert d12 == pytest.approx(d21, rel=1e-12, abs=1e-15)

    def test_positive_on_distinct_states(self):
        s2 = GasState.make(1.0, 0.0, 1.5 + 1e-7)
        assert maxwellian_l2mu_distance(STATE_A1, s2) > 0.0

    def test_out_of_regime_rejected(self):
        hot = GasState.make(1.0, 0.0, 3.2)
        with pytest.raises(ValueError, match="regime"):
            maxwellian_l2mu_distance(hot, hot)
