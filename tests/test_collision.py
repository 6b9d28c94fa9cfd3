"""Collision operator: kernel, convolutions, linearization, and the solver."""

import logging
import logging.handlers
import math
import re
from functools import reduce
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import fftn, irfftn, rfftn
from scipy.linalg import eigh
from scipy.special import erf

from rarewave.euler import GAS_R, GasState
from rarewave.velocity import (
    _along,
    GridFunction,
    VelocityGrid,
    maxwellian,
    macro_basis,
    macro_coefficients,
    moments,
    project_P1,
    REFERENCE_STATE,
    sigma_norm,
)
from rarewave.collision import (
    KernelParams,
    LMOperator,
    NonConvergenceError,
    collision_Q,
    collision_frequency,
    gamma_bilinear,
    invert_LM_micro,
    linearized_LM,
    linearized_script_L,
    phi_kernel,
    _DIAGONAL,
    _UNPACK,
    _center_weight,
    _phi_grad_fft,
    _phi_packed,
    _relative_gradient,
    _stencils,
    _transforms,
)
from rarewave import collision
from rarewave.transport import _COMPONENTS, _sources, thermal_grid

# Cell average of |u|^(gamma+2) over the unit cube at gamma = -3, from the
# self-similar shell reduction; the Monte Carlo test below rechecks it.
CELL_AVG_INV_DIST = 2.380077363979551

STATE = GasState.make(1.05, 0.1, 1.4)


def grid(n, L=8.0):
    return VelocityGrid(half_width=L, n_per_axis=n)


def coords(g):
    ax = g.axis
    shape = g.shape
    vx = np.broadcast_to(ax[:, None, None], shape)
    vy = np.broadcast_to(ax[None, :, None], shape)
    vz = np.broadcast_to(ax[None, None, :], shape)
    return vx, vy, vz


def smooth_positive(g, seed):
    """A strictly positive, decaying, anisotropic field for two-slot tests."""
    rng = np.random.default_rng(seed)
    vx, vy, vz = coords(g)
    c = rng.normal(size=6) * 0.1
    bump = c[0] * vx + c[1] * vy + c[2] * vz + c[3] * vx * vy + c[4] * np.sin(vz) + c[5]
    return GridFunction(g, np.exp(bump - 0.6 * (vx * vx + vy * vy + vz * vz)))


# ---------------------------------------------------------------------------
# pointwise kernel


def test_phi_zero_velocity_without_regularization():
    assert np.all(phi_kernel([0.0, 0.0, 0.0]) == 0.0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
    gamma=st.floats(-3.0, -2.0, exclude_max=True),
)
def test_phi_projects_out_its_argument(d, gamma):
    d = np.asarray(d)
    if np.linalg.norm(d) < 1e-3:
        return
    p = KernelParams(gamma=gamma)
    k = phi_kernel(d, p)
    mag = np.linalg.norm(d) ** (gamma + 2.0)
    assert np.allclose(k @ d, 0.0, atol=1e-12 * mag)
    assert abs(np.trace(k) - 2.0 * mag) <= 1e-12 * mag
    ev = np.linalg.eigvalsh(k)
    assert np.allclose(sorted(ev), [0.0, mag, mag], atol=1e-10 * mag)
    assert np.allclose(k, k.T)


def test_kernel_params_validation():
    KernelParams(gamma=-3.0)
    KernelParams(gamma=-2.5)
    for bad in (-2.0, -1.0, -3.5, 0.0):
        with pytest.raises(ValueError):
            KernelParams(gamma=bad)


def test_cell_average_constant_against_monte_carlo():
    rng = np.random.default_rng(12345)
    pts = rng.uniform(-0.5, 0.5, size=(4_000_000, 3))
    est = float(np.mean(1.0 / np.linalg.norm(pts, axis=1)))
    assert abs(est - CELL_AVG_INV_DIST) <= 0.01 * CELL_AVG_INV_DIST


def test_cell_average_constant_closed_form():
    # At gamma = -3 the face integral of the pyramid reduction is elementary:
    # C = 6 ln((1 + sqrt 3) / sqrt 2) - pi / 2.  The other two values come
    # from an independent shell quadrature (56 Gauss-Legendre subcubes).
    exact = 6.0 * math.log((1.0 + math.sqrt(3.0)) / math.sqrt(2.0)) - 0.5 * math.pi
    assert abs(collision._cell_average_constant(-3.0) / exact - 1.0) <= 4.5e-16
    for gamma, shell in ((-2.5, 1.5085612293494581), (-2.2, 1.1735653372694548)):
        assert abs(collision._cell_average_constant(gamma) - shell) <= 2e-15


# ---------------------------------------------------------------------------
# bilinear operator


def _phi_conv_direct(g: VelocityGrid, p: KernelParams, field_w: np.ndarray) -> np.ndarray:
    """Six packed components of phi * field by literal node-pair summation."""
    n = g.n_per_axis
    assert n <= 12, "direct summation is sized for cross-checks"
    nodes = [c.ravel() for c in np.broadcast_arrays(*g.peculiar((0.0, 0.0, 0.0)))]
    cw = _center_weight(g.spacing, p)
    out = np.empty((6,) + g.shape)
    for a in range(n):  # target nodes one plane v1 = const at a time
        rows = slice(a * n * n, (a + 1) * n * n)
        kernel = _phi_packed([c[rows, None] - c for c in nodes], p)
        for idx in _DIAGONAL:
            np.fill_diagonal(kernel[idx, :, rows], cw)
        out[:, a] = (kernel @ field_w.ravel()).reshape(6, n, n)
    return out


@pytest.mark.parametrize("p", [KernelParams(), KernelParams(gamma=-2.5)])
def test_gradient_contraction_matches_direct_summation(p):
    # The three contractions sum_j phi^{ij} * G_j that collision_Q and
    # both L_M forms take, against the literal node-pair sums.
    g = grid(8)
    rng = np.random.default_rng(2)
    fields = [rng.standard_normal(g.shape) for _ in range(3)]
    parts = [_phi_conv_direct(g, p, x) for x in fields]
    fft = _phi_grad_fft(g, p, fields)
    for i in range(3):
        direct = sum(parts[j][_UNPACK[i, j]] for j in range(3))
        assert np.abs(fft[i] - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("n, period", [(8, 15), (12, 24)])
@pytest.mark.parametrize("p", [KernelParams(), KernelParams(gamma=-2.5)])
def test_transform_pair_matches_direct_summation_at_tight_period(n, period, p):
    # weak_apply calls the transform pair itself; a random (asymmetric)
    # field sees any wrap-around, which a symmetric kernel test cannot.
    # At n = 8 the period is exactly 2n - 1.
    g = grid(n)
    tr = _transforms(g, p)
    assert tr.pad_shape == (period,) * 3
    f = np.random.default_rng(n).standard_normal(g.shape)
    direct = _phi_conv_direct(g, p, f)
    fhat = tr.forward(f)
    for k in range(6):
        conv = tr.inverse(tr.khat[k] * fhat)
        assert np.abs(conv - direct[k]).max() <= 1e-12 * np.abs(direct[k]).max()


@pytest.mark.parametrize("n, period", [(24, 48), (32, 63)])
def test_kernel_spectra_are_real_with_each_components_axis_parity(n, period):
    # On its origin-centred period, component (i, j) of the kernel is odd in
    # axes i and j when i != j and even in every other axis, so its spectrum
    # is real with that parity in each frequency axis.  The half spectra are
    # stored as real arrays; checked at an even and an odd period.
    tr = _transforms(grid(n), KernelParams())
    shape = (period,) * 3
    assert tr.pad_shape == shape
    for k, (i, j) in enumerate(collision._PAIRS):
        half = tr.khat[k]
        assert half.dtype == np.float64 and half.flags.c_contiguous
        assert half.shape == (period, period, period // 2 + 1)
        # the whole spectrum of the real kernel the half spectrum stands for
        full = fftn(irfftn(half, s=shape))
        scale = np.abs(half).max()
        assert np.abs(full[..., : period // 2 + 1] - half).max() <= 1e-13 * scale
        for axis in range(3):
            sign = -1.0 if i != j and axis in (i, j) else 1.0
            mirror = np.roll(np.flip(full, axis), 1, axis)  # frequency -k mod P
            assert np.abs(mirror - sign * full).max() <= 1e-13 * scale


@pytest.mark.parametrize("n, L", [(12, 6.0), (16, 7.5)])
def test_coordinate_readers_match_the_dense_meshgrid_formulas_bit_for_bit(n, L, monkeypatch):
    # Each reader of node coordinates takes v - u as three broadcast axes from
    # VelocityGrid.peculiar; evaluated in the same order of operations, each
    # equals its formula on dense np.meshgrid coordinate fields exactly.  The
    # readers that return quadratures are checked on the integrands they pass.
    def integrands(fn, *args):
        seen, quadrature = [], VelocityGrid.integrate

        def integrate(self, values):
            seen.append(values)
            return quadrature(self, values)

        with monkeypatch.context() as mp:
            mp.setattr(VelocityGrid, "integrate", integrate)
            return fn(*args), seen

    g, p = grid(n, L), KernelParams()
    s = GasState.make(1.3, 0.3, 1.2, u2=-0.17, u3=0.11)
    rt, h = GAS_R * s.theta, g.spacing
    assert [c.shape for c in g.peculiar(s.u)] == [(n, 1, 1), (1, n, 1), (1, 1, n)]
    vx, vy, vz = np.meshgrid(g.axis, g.axis, g.axis, indexing="ij")
    c = (vx - s.u[0], vy - s.u[1], vz - s.u[2])
    csq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]

    q = (vx - s.u[0]) ** 2 + (vy - s.u[1]) ** 2 + (vz - s.u[2]) ** 2
    m = s.rho * (2.0 * math.pi * rt) ** -1.5 * np.exp(-q / (2.0 * rt))
    assert np.array_equal(maxwellian(s, g).values, m)

    inv1 = 1.0 / math.sqrt(s.rho * rt)
    duals = (
        np.full(g.shape, 1.0 / math.sqrt(s.rho)),
        c[0] * inv1,
        c[1] * inv1,
        c[2] * inv1,
        (csq / rt - 3.0) * (1.0 / math.sqrt(6.0 * s.rho)),
    )
    basis = macro_basis(s, g)
    for got, want in zip(basis.duals, duals):
        assert np.array_equal(np.broadcast_to(got, g.shape), want)
    for got, want in zip(basis.chi, duals):
        assert np.array_equal(got.values, want * m)
    gram = np.array([[g.integrate(a * m * b) for a in duals] for b in duals])
    assert np.array_equal(basis.gram, gram)

    f = GridFunction(g, np.random.default_rng(n).uniform(0.5, 1.5, g.shape))
    want = [f.values, *(v * f.values for v in (vx, vy, vz))]
    want.append(0.5 * (vx * vx + vy * vy + vz * vz) * f.values)
    got, seen = integrands(moments, f)
    assert len(seen) == 5 and all(map(np.array_equal, seen, want))
    rho = g.integrate(want[0])
    u = np.array([g.integrate(w) for w in want[1:4]]) / rho
    assert got == GasState.make(rho, u[0], g.integrate(want[4]) / rho - 0.5 * float(u @ u), u[1], u[2])

    sig = collision_frequency(g)
    grads = [_along(_stencils(n, h)[0], f.values, i) for i in range(3)]
    vhalf, hsq = (0.5 * vx, 0.5 * vy, 0.5 * vz), f.values * f.values
    acc = np.zeros(g.shape)
    for i in range(3):
        for j in range(3):
            acc += sig[i, j] * (grads[i] * grads[j] + vhalf[i] * vhalf[j] * hsq)
    for ell in (0.0, 1.0):
        if ell:
            acc = acc * (1.0 + (vx * vx + vy * vy + vz * vz)) ** -1.0
        got, seen = integrands(sigma_norm, f, sig, ell)
        assert len(seen) == 1 and np.array_equal(seen[0], acc)
        assert got == math.sqrt(max(g.integrate(acc), 0.0))

    xi = [ci / math.sqrt(rt) for ci in c]
    sq = xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]
    got_sq, polys = _sources(s, g)
    assert np.array_equal(got_sq, sq)
    for comp in _COMPONENTS:
        a, b = comp[0], comp[-1]
        if len(comp) == 1:
            want = 0.5 * (sq - 5.0) * xi[a]
        else:
            want = xi[a] * xi[b] - (sq / 3.0 if a == b else 0.0)
        assert np.array_equal(np.broadcast_to(polys[comp], g.shape), want)

    g4 = _stencils(n, h)[2]
    offset = np.where(g4 != 0.0, np.arange(n) - np.arange(n)[:, None], 0)
    for j, got in enumerate(_relative_gradient(f.values, g, s)):
        col = np.moveaxis(c[j], j, 0)[:, :1, 0]
        ratio = np.exp((offset * col * h + 0.5 * offset * offset * h * h) / rt)
        assert np.array_equal(got, _along(g4 * ratio, f.values, j))

    tr = _transforms(g, p)
    pad = tr.pad_shape[0]
    d = h * np.r_[0:n, n - pad : 0]
    kernel = _phi_packed(np.meshgrid(d, d, d, indexing="ij"), p)
    gap = slice(n, pad - n + 1)
    kernel[:, gap] = kernel[:, :, gap] = kernel[:, :, :, gap] = 0.0
    kernel[_DIAGONAL, 0, 0, 0] = _center_weight(h, p)
    for got, k in zip(tr.khat, kernel):
        assert np.array_equal(got, rfftn(k).real)


def test_mismatched_grids_rejected():
    f1 = smooth_positive(grid(8), 1)
    f2 = smooth_positive(grid(10), 1)
    with pytest.raises(ValueError):
        collision_Q(f1, f2)
    # a right-hand side or fluid-part request on another lattice
    with pytest.raises(ValueError, match="different lattice"):
        invert_LM_micro(LMOperator(STATE, grid(8)), f2, 1e-2)
    with pytest.raises(ValueError, match="different lattice"):
        macro_coefficients(f2, macro_basis(STATE, grid(8)))
    # the same n on another half width: Gamma took the lattice of h for both
    k = smooth_positive(grid(8, L=7.0), 1)
    with pytest.raises(ValueError, match="different lattices"):
        gamma_bilinear(smooth_positive(grid(8, L=6.0), 1), k)


def test_bilinearity_in_both_slots():
    g = grid(8)
    f1 = smooth_positive(g, 4)
    f2 = smooth_positive(g, 5)
    f3 = smooth_positive(g, 6)
    comb = GridFunction(g, 2.0 * f1.values - 0.5 * f2.values)
    left = collision_Q(comb, f3).values
    right = 2.0 * collision_Q(f1, f3).values - 0.5 * collision_Q(f2, f3).values
    scale = np.abs(left).max()
    assert np.abs(left - right).max() <= 1e-12 * scale
    left = collision_Q(f3, comb).values
    right = 2.0 * collision_Q(f3, f1).values - 0.5 * collision_Q(f3, f2).values
    assert np.abs(left - right).max() <= 1e-12 * scale


def test_reference_equilibrium_annihilated():
    g = grid(24)
    mu = maxwellian(REFERENCE_STATE, g)
    q = collision_Q(mu, mu)
    assert np.abs(q.values).max() <= 1e-13


def test_shifted_maxwellian_residual_shrinks_under_refinement():
    s = GasState.make(1.1, 0.15, 1.3)
    sups = {}
    for n in (16, 32):
        g = grid(n)
        m = maxwellian(s, g)
        sups[n] = np.abs(collision_Q(m, m).values).max()
    # measured 3.50e-6 and 1.39e-6; the pair is a regression guard, the
    # sharper decay requirement lives in the acceptance run
    assert sups[32] <= 5e-6
    assert sups[16] / sups[32] >= 2.0


def test_conservation_of_invariants_for_random_input():
    g = grid(16)
    f = smooth_positive(g, 7)
    q = collision_Q(f, f).values
    vx, vy, vz = coords(g)
    scale = g.integrate(np.abs(q))
    assert abs(g.integrate(q)) <= 1e-13 * scale
    for c in (vx, vy, vz):
        assert abs(g.integrate(q * c)) <= 1e-12 * scale
    e = vx * vx + vy * vy + vz * vz
    assert abs(g.integrate(q * e)) <= 1e-11 * scale * np.abs(e).max() ** 0.5


# ---------------------------------------------------------------------------
# collision frequency matrix


def test_sigma_symmetric_psd_and_isotropic():
    g = grid(12)
    arr = collision_frequency(g)
    assert arr.shape == (3, 3) + g.shape
    assert np.array_equal(arr, np.swapaxes(arr, 0, 1))
    mats = arr.reshape(3, 3, -1).transpose(2, 0, 1)
    ev = np.linalg.eigvalsh(mats)
    assert ev.min() >= -1e-12 * np.trace(arr).max()
    # the reference Maxwellian is isotropic, so swapping two velocity axes
    # permutes the matrix components accordingly
    swapped = arr[1, 1].transpose(1, 0, 2)
    assert np.abs(arr[0, 0] - swapped).max() <= 1e-13 * arr[0, 0].max()


def test_sigma_trace_matches_scalar_direct_sum():
    g = grid(10)
    p = KernelParams()
    trace = np.trace(collision_frequency(g))
    vx, vy, vz = coords(g)
    pts = np.stack([vx, vy, vz], axis=-1).reshape(-1, 3)
    mu = maxwellian(REFERENCE_STATE, g).values
    fw = (mu * g.weights).ravel()
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    h = g.spacing
    kern = np.zeros_like(dist)
    nz = dist > 0.0
    kern[nz] = 2.0 * dist[nz] ** (p.gamma + 2.0)
    kern[~nz] = 2.0 * CELL_AVG_INV_DIST * h ** (p.gamma + 2.0)
    ref = (kern @ fw).reshape(g.shape)
    assert np.abs(trace - ref).max() <= 1e-12 * ref.max()


def rosenbluth_hessian(g):
    """Hessian of g(r) = (r + 1/r) erf(r / sqrt 2) + sqrt(2 / pi) exp(-r^2 / 2).

    g = |.| * mu for the unit-variance Maxwellian of unit density, so at
    gamma = -3, where phi^{ij}(d) is the Hessian of |d|, it is the continuum
    sigma^{ij} (Rosenbluth, MacDonald & Judd 1957).  Returns (sigma, |v|).
    """
    v = np.stack(np.broadcast_arrays(*g.peculiar((0.0, 0.0, 0.0))))
    r = np.sqrt(np.sum(v * v, axis=0))
    erf_r = erf(r / math.sqrt(2.0))
    gauss = math.sqrt(2.0 / math.pi) * np.exp(-0.5 * r * r)
    radial_over_r = ((1.0 - 1.0 / r**2) * erf_r + gauss / r) / r  # g'(r) / r
    second = 2.0 * erf_r / r**3 - 2.0 * gauss / r**2  # g''(r)
    rhat = v / r
    outer = rhat[:, None] * rhat[None, :]
    return second * outer + radial_over_r * (np.eye(3)[:, :, None, None, None] - outer), r


def test_sigma_matches_the_rosenbluth_closed_form_at_second_order():
    assert GAS_R * REFERENCE_STATE.theta == 1.0 and REFERENCE_STATE.rho == 1.0
    errs, spacing = [], []
    for n, bound in ((24, 2e-2), (48, 6e-3)):
        g = VelocityGrid(8.0, n)
        exact, r = rosenbluth_hessian(g)
        err = np.abs(collision_frequency(g) - exact)[:, :, r < 3.0].max() / np.abs(exact).max()
        assert err <= bound, (n, err)
        errs.append(err)
        spacing.append(g.spacing)
    assert math.log(errs[0] / errs[1]) / math.log(spacing[0] / spacing[1]) >= 1.5


# ---------------------------------------------------------------------------
# first Sonine brackets: the closed forms of the Landau-Coulomb kernel
# (Chapman & Cowling, The Mathematical Theory of Non-Uniform Gases, 3rd ed.)

SONINE_N = (20, 24)
# mu_1 = (5 sqrt(pi) / 4) (R theta)^(5/2) at theta = 1; kappa_1 / mu_1 = (5/2) c_v with c_v = 1
SONINE_MU = 5.0 * math.sqrt(math.pi) / 4.0 * GAS_R**2.5
SONINE_RATIO = 2.5


@pytest.fixture(scope="module")
def sonine():
    """mu_1 and kappa_1 at rest on ``thermal_grid(1, n)``, by both forms of L_M.

    With b = sum w x^2 M, the shear potential x = xi1 xi2 gives
    mu_1 = R theta b^2 / D and the heat potential x = (|xi|^2 - 5) xi1 / 2
    gives kappa_1 = R^2 theta b^2 / D, where D = -sum w x apply(M x) in the
    strong form and sum x weak_apply(x) in the weak form.  Keyed
    (name, form, n); ``spacing`` holds each lattice's spacing.
    """
    values, spacing = {}, {}
    for n in SONINE_N:
        g = thermal_grid(1.0, n)
        op = LMOperator(GasState.make(1.0, 0.0, 1.0), g)
        m = op.m.values
        xi1, xi2, xi3 = (c / math.sqrt(GAS_R) for c in coords(g))
        shear, heat = xi1 * xi2, (xi1 * xi1 + xi2 * xi2 + xi3 * xi3 - 5.0) * xi1 / 2.0
        for name, x, scale in (("mu", shear, GAS_R), ("kappa", heat, GAS_R * GAS_R)):
            b = np.sum(g.weights * x * x * m)
            values[name, "strong", n] = scale * b * b / -np.sum(g.weights * x * op.apply(m * x))
            values[name, "weak", n] = scale * b * b / np.sum(x * op.weak_apply(x))
        spacing[n] = g.spacing
    return SimpleNamespace(values=values, spacing=spacing)


def observed_order(errs, sonine):
    h = [sonine.spacing[n] for n in SONINE_N]
    return math.log(errs[0] / errs[1]) / math.log(h[0] / h[1])


@pytest.mark.parametrize("form", ["strong", "weak"])
def test_shear_viscosity_meets_its_sonine_closed_form(sonine, form):
    # measured: -2.17e-3 and -1.02e-3 on both forms, order 3.9
    errs = [abs(sonine.values["mu", form, n] / SONINE_MU - 1.0) for n in SONINE_N]
    assert errs[0] <= 3e-3
    assert observed_order(errs, sonine) >= 3.5


def test_strong_form_conductivity_meets_the_sonine_ratio(sonine):
    # measured: kappa_1 / mu_1 = 2.50691 and 2.50324, order 3.9
    mu, kappa = ([sonine.values[name, "strong", n] for n in SONINE_N] for name in ("mu", "kappa"))
    errs = [abs(k / m - SONINE_RATIO) for k, m in zip(kappa, mu)]
    assert errs[0] <= 1e-2
    assert observed_order(errs, sonine) >= 3.5


def test_weak_form_conductivity_stays_at_or_above_its_measured_ratio(sonine):
    # measured 2.39409 at n = 20; it converges to 5/2 at order about 2, so a
    # better weak form may raise it but not lower it
    n = SONINE_N[0]
    assert sonine.values["kappa", "weak", n] / sonine.values["mu", "weak", n] >= 2.39


def test_a_near_isotropic_bi_maxwellian_relaxes_at_the_maxwell_rate():
    # P11 - P22 of dF/dt = Q(F, F) decays at p / mu_1, p = rho R theta, in the
    # first Sonine approximation; measured -6.14e-3 relative at n = 20
    # (-3.63e-3 at n = 24), with the mass of Q(F, F) at 1.4e-13
    alpha, g = 0.01, thermal_grid(1.0, SONINE_N[0])
    v = coords(g)
    temps = (1.0 + 2.0 * alpha / 3.0, 1.0 - alpha / 3.0, 1.0 - alpha / 3.0)
    f = np.exp(-sum(vi * vi / (2.0 * GAS_R * ti) for vi, ti in zip(v, temps)))
    f = GridFunction(g, f / ((2.0 * math.pi * GAS_R) ** 1.5 * math.sqrt(math.prod(temps))))
    q = collision_Q(f, f, g, weight=GasState.make(1.0, 0.0, 1.0)).values
    anisotropy = g.weights * (v[0] * v[0] - v[1] * v[1])
    rate = -np.sum(anisotropy * q) / np.sum(anisotropy * f.values)
    assert abs(rate * SONINE_MU / GAS_R - 1.0) <= 1e-2
    assert abs(np.sum(g.weights * q)) <= 5e-13


# ---------------------------------------------------------------------------
# linearization around a local Maxwellian


def micro_field(g, basis, kind):
    m = maxwellian(STATE, g).values
    vx, vy, vz = coords(g)
    v2 = vx * vx + vy * vy + vz * vz
    if kind == 0:
        raw = m * vx * vy
    else:
        raw = m * vx * vy * (v2 - 5.0)
    return project_P1(GridFunction(g, raw), basis)


def test_linearized_annihilates_collision_invariants():
    # The cancellation is exact in the discretisation, so L_M chi_i sits at
    # round-off at every resolution rather than shrinking under refinement.
    # The state-weighted relative stencils make grad_rel M vanish
    # identically; for chi = M psi the flux reduces to
    # M sum phi(v - v*) M(v*) (grad psi(v) - grad psi(v*)), which is zero
    # for affine psi and for |v|^2 because phi(v - v*) (v - v*) = 0.  The
    # interior stencils are exact on quadratics; only the face closures
    # deviate, weighted by the Maxwellian at the box face (~e^-33 for STATE
    # on L = 8).  Measured [1.8, 1.4, 1.3, 1.2, 1.1]e-16 at n = 16 and
    # [7.4, 3.9, 4.2, 4.3, 4.6]e-16 at n = 24.  The bound holds for this
    # state and box only: a hotter state (theta = 2.2 on L = 8) lifts the
    # energy invariant to ~2e-12 through the face closures.
    for n in (16, 24):
        g = grid(n)
        m = maxwellian(STATE, g)
        basis = macro_basis(STATE, g)
        mscale = math.sqrt(g.integrate(m.values**2))
        rels = []
        for chi in basis.chi:
            out = linearized_LM(chi, STATE, g)
            rels.append(math.sqrt(g.integrate(out.values**2)) / mscale)
        assert np.all(np.array(rels) <= 1e-14)


def test_linearized_dissipativity():
    g = grid(16)
    basis = macro_basis(STATE, g)
    m = maxwellian(STATE, g).values
    for kind in (0, 1):
        h = micro_field(g, basis, kind)
        quad = g.integrate(linearized_LM(h, STATE, g).values * h.values / m)
        norm = g.integrate(h.values**2 / m)
        assert quad <= 1e-12 * norm
        assert quad < 0.0


def test_linearized_symmetry_gap_shrinks_under_refinement():
    gaps = {}
    for n in (16, 24):
        g = grid(n)
        basis = macro_basis(STATE, g)
        m = maxwellian(STATE, g).values
        h1 = micro_field(g, basis, 0)
        h2 = micro_field(g, basis, 1)
        lh1 = linearized_LM(h1, STATE, g).values
        lh2 = linearized_LM(h2, STATE, g).values
        a = g.integrate(lh1 * h2.values / m)
        b = g.integrate(lh2 * h1.values / m)
        scale = math.sqrt(g.integrate(lh1**2 / m) * g.integrate(h2.values**2 / m))
        gaps[n] = abs(a - b) / scale
    # measured 0.253 and 0.114: second order in the spacing
    assert gaps[24] <= 0.15
    assert gaps[24] <= 0.7 * gaps[16]


def test_conjugated_form_nulls_and_identity():
    g = grid(16)
    mu = maxwellian(REFERENCE_STATE, g).values
    sq = np.sqrt(mu)
    vx, vy, vz = coords(g)
    v2 = vx * vx + vy * vy + vz * vz
    mu_scale = math.sqrt(g.integrate(mu))
    for field, tol in ((sq, 1e-12), (sq * vx, 1e-12), (sq * v2, 1e-8)):
        out = linearized_script_L(GridFunction(g, field))
        assert math.sqrt(g.integrate(out.values**2)) <= tol * mu_scale
    f = GridFunction(g, sq * vx * vy)
    k = GridFunction(g, sq * (v2 - 4.0) * vy)
    conj = gamma_bilinear(f, k).values * sq
    plain = collision_Q(GridFunction(g, sq * f.values), GridFunction(g, sq * k.values), g).values
    assert np.abs(conj - plain).max() <= 1e-12 * np.abs(plain).max()
    quad = g.integrate(linearized_script_L(f).values * f.values)
    assert quad < 0.0


# ---------------------------------------------------------------------------
# constrained solver on the microscopic subspace


def manufactured(n):
    """The manufactured problem at STATE on grid(n): lattice, operator, source and true solution."""
    g = grid(n)
    op = LMOperator(STATE, g)
    vx, vy, _ = coords(g)
    true = project_P1(GridFunction(g, op.m.values * vx * vy / (1.0 + 0.05 * vx * vx)), op.basis)
    h = project_P1(GridFunction(g, op.apply(true.values)), op.basis)
    return SimpleNamespace(g=g, op=op, h=h, true=true)


def count_applies(op, monkeypatch):
    """Count the ``apply`` calls of this operator; returns the counter and the plain apply."""
    calls, plain = [0], op.apply

    def counted(values):
        calls[0] += 1
        return plain(values)

    monkeypatch.setattr(op, "apply", counted)
    return calls, plain


@pytest.fixture(scope="module")
def m16():
    """``manufactured(16)`` solved cold to 1e-4 and 1e-8, with what the 1e-4 solve
    logged at the default level and the 1e-8 solve's apply count; tests patch
    the shared operator only through ``monkeypatch``."""
    m = manufactured(16)
    log, logger = logging.handlers.BufferingHandler(100), logging.getLogger("rarewave.collision")
    logger.addHandler(log)
    m.cold = invert_LM_micro(m.op, m.h, 1e-4)
    logger.removeHandler(log)
    with pytest.MonkeyPatch.context() as mp:
        calls, _ = count_applies(m.op, mp)
        m.tight = invert_LM_micro(m.op, m.h, 1e-8)
    m.cold_log, m.tight_applies = log.buffer, calls[0]
    return m


def test_linearized_form_reads_its_lattice_from_the_field():
    g = grid(8)
    h = micro_field(g, macro_basis(STATE, g), 0)
    assert np.array_equal(linearized_LM(h, STATE).values, linearized_LM(h, STATE, g).values)


def test_operator_wrapper_matches_linearized_form():
    g = grid(16)
    op = LMOperator(STATE, g)
    h = micro_field(g, op.basis, 0)
    direct = linearized_LM(h, STATE, g).values
    assert np.abs(op.apply(h.values) - direct).max() <= 1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("u1, n", [(0.0, 20), (0.4, 16)])
def test_apply_commutes_with_every_allowed_axis_transposition(u1, n):
    # An axis swap (a, b) with u_a == u_b maps the cubic lattice and the
    # state onto themselves, so apply commutes with it to round-off;
    # burnett_solve transposes an origin's L_M product on that ground.
    # A swap that moves the drift is no symmetry and must miss.
    g = grid(n)
    s = GasState.make(1.0, u1, 1.0)
    op = LMOperator(s, g)
    f = np.random.default_rng(n).standard_normal(g.shape) * op.m.values
    lf = op.apply(f)
    scale = np.abs(lf).max()
    for a, b in combinations(range(3), 2):
        axes = [{a: b, b: a}.get(k, k) for k in range(3)]
        miss = np.abs(op.apply(np.transpose(f, axes)) - np.transpose(lf, axes)).max() / scale
        if s.u[a] == s.u[b]:
            assert miss <= 1e-14, (a, b)
        else:
            assert miss >= 1e-2, (a, b)


def test_weak_form_symmetric_positive_with_exact_affine_nulls():
    g = grid(16)
    op = LMOperator(STATE, g)
    vx, vy, vz = coords(g)
    x = np.sin(vx) * np.cos(0.7 * vy) + 0.3 * vz
    y = np.cos(0.5 * vx * vy) + 0.2 * vy * vz
    ax = op.weak_apply(x)
    ay = op.weak_apply(y)
    sxy = float(np.sum(y * ax))
    syx = float(np.sum(x * ay))
    assert abs(sxy - syx) <= 1e-12 * max(abs(sxy), abs(syx))
    assert float(np.sum(x * ax)) > 0.0
    assert float(np.sum(y * ay)) > 0.0
    scale = np.abs(ax).max()
    assert np.abs(op.weak_apply(np.ones(g.shape))).max() <= 1e-14 * scale
    assert np.abs(op.weak_apply(vx.copy())).max() <= 1e-14 * scale


def test_jacobi_scale_is_the_diagonal_of_the_axis_local_weak_form():
    # A = sum_i D^T (w M sigma_ii) D + S^T stab_i S, the weak form without
    # its kernel sums and off-diagonal sigma_ij, applied to unit vectors at
    # a corner, a face node, an edge node and an interior node
    g = grid(12)
    s = GasState.make(1.0, 0.4, 1.4, u2=-0.3, u3=0.2)
    op = LMOperator(s, g)
    d, sec, _ = _stencils(g.n_per_axis, g.spacing)
    for node in ((0, 0, 0), (5, 0, 6), (11, 4, 0), (5, 6, 4)):
        e = np.zeros(g.shape)
        e[node] = 1.0
        a = sum(
            _along(d.T, op.wm * op.a6_m[_UNPACK[i, i]] * _along(d, e, i), i)
            + _along(sec.T, op.stab[i] * _along(sec, e, i), i)
            for i in range(3)
        )
        assert op.jacobi[node] * op.wm[node] == pytest.approx(a[node], rel=1e-13)


def test_operator_rejects_a_lattice_on_which_the_maxwellian_underflows():
    # at theta = 0.1 on L = 8 the Maxwellian is exactly 0 on 448 of 1728
    # nodes; the Jacobi scale divided by it, and a solve went on with inf
    # entries to a misleading fluid-fraction error
    with pytest.raises(ValueError, match="underflows to 0 on 448 nodes"):
        LMOperator(GasState.make(1.0, 0.0, 0.1), grid(12))


def weak_form_coercivity(n):
    """Smallest ratio <-L f, f> / |f|_sigma^2 on the microscopic subspace.

    On ``VelocityGrid(6.5, n)`` at the reference state, f = sqrt(mu) x for
    the weak form's potential x, so x^T weak_apply(x) is <-L f, f>.  The
    Gram matrix of |f|_sigma^2 is ``sigma_norm``'s sum, the D of
    ``_stencils`` with ``collision_frequency``, checked against
    ``sigma_norm`` on one random field.  Both are restricted to the
    complement of {1, v, |v|^2} in L^2(mu w), that is of sqrt(mu) times
    them in the lattice L^2 of f.
    """
    g = VelocityGrid(6.5, n)
    size = g.weights.size
    op = LMOperator(REFERENCE_STATE, g)
    sq = np.sqrt(op.m.values).ravel()
    weak = np.stack([op.weak_apply(e.reshape(g.shape)).ravel() for e in np.eye(size)], axis=1)
    weak = 0.5 * (weak + weak.T) / np.outer(sq, sq)
    eye, d = np.eye(n), _stencils(n, g.spacing)[0]
    grads = [reduce(np.kron, [d if k == i else eye for k in range(3)]) for i in range(3)]
    sigma = collision_frequency(g)
    sig = sigma.reshape(3, 3, size) * g.weights.ravel()
    v = [c.ravel() for c in np.broadcast_arrays(*g.peculiar((0.0, 0.0, 0.0)))]
    gram = sum(
        grads[i].T @ (sig[i, j][:, None] * grads[j]) + np.diag(0.25 * sig[i, j] * v[i] * v[j])
        for i in range(3)
        for j in range(3)
    )
    f = np.random.default_rng(n).standard_normal(size) * sq
    norm = sigma_norm(GridFunction(g, f.reshape(g.shape)), sigma)
    assert f @ gram @ f == pytest.approx(norm**2, rel=1e-12)
    invariants = np.stack([np.ones(size), *v, v[0] ** 2 + v[1] ** 2 + v[2] ** 2], axis=1)
    q, _ = np.linalg.qr((g.weights.ravel() * sq)[:, None] * invariants, mode="complete")
    z = q[:, invariants.shape[1] :]
    return eigh(z.T @ weak @ z, z.T @ gram @ z, eigvals_only=True)[0]


def test_weak_form_is_coercive_in_the_sigma_norm_on_the_microscopic_subspace():
    # Guo's <-L f, f> >= delta |(I - P) f|_sigma^2 on the lattice; measured
    # 0.262 and 0.336, rising to 0.568 at n = 16, so still pre-asymptotic.
    # The symmetric part of the strong form ``apply`` is not coercive:
    # -1.05e4 and -1.53e3 at n = 8 and 10, its lowest mode in the box
    # corners, where the one-sided face rows act.
    lam = {n: weak_form_coercivity(n) for n in (8, 10)}
    assert min(lam.values()) >= 0.2, lam
    assert lam[10] >= lam[8], lam


def test_invert_recovers_manufactured_solution(m16):
    m24 = manufactured(24)
    m24.cold = invert_LM_micro(m24.op, m24.h, 1e-6)
    for m, tol, err_tol in ((m16, 1e-4, 5e-3), (m24, 1e-6, 3e-5)):
        g, op, h, g_true, (sol, _) = m.g, m.op, m.h, m.true, m.cold
        assert op.micro_defect(sol.values) <= 1e-12
        resid = h.values - op.apply(sol.values)
        rel = math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2))
        assert rel <= tol
        err = math.sqrt(
            g.integrate((sol.values - g_true.values) ** 2 / op.m.values)
            / g.integrate(g_true.values**2 / op.m.values)
        )
        assert err <= err_tol


def test_invert_reaches_tight_tolerance_across_restarts(m16):
    # a consistent right-hand side must reach any tolerance above round-off;
    # 1e-8 takes more than one restart cycle, so the true residual checked
    # here also guards the directions and products carried across restarts
    g, op, h, (sol, _) = m16.g, m16.op, m16.h, m16.tight
    resid = h.values - op.apply(sol.values)
    assert math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2)) <= 1e-8


def test_invert_from_a_given_start_still_reaches_tol(m16):
    # a start replaces the initial preconditioner pass only; a zero start and
    # a random microscopic one each iterate down to tol from their residual
    g, op, h = m16.g, m16.op, m16.h
    noise = np.random.default_rng(7).standard_normal(g.shape) * op.m.values
    for x0 in (np.zeros(g.shape), project_P1(GridFunction(g, noise), op.basis).values):
        sol, _ = invert_LM_micro(op, h, 1e-4, x0)
        assert op.micro_defect(sol.values) <= 1e-12
        resid = h.values - op.apply(sol.values)
        assert math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2)) <= 1e-4


def test_invert_from_a_converged_start_runs_no_preconditioner(m16, monkeypatch):
    op, h, (done, _) = m16.op, m16.h, m16.cold

    def no_pcg(*args, **kwargs):
        raise AssertionError("a start within tol reached the preconditioner")

    monkeypatch.setattr(collision, "_pcg", no_pcg)
    again, _ = invert_LM_micro(op, h, 1e-4, done.values)
    assert np.abs(again.values - done.values).max() <= 1e-14 * np.abs(done.values).max()


def test_invert_rejects_a_start_of_the_wrong_shape(m16):
    for bad in (np.zeros((15, 16, 16)), np.zeros(m16.g.shape[:2]), np.zeros(16**3)):
        with pytest.raises(ValueError, match="grid shape"):
            invert_LM_micro(m16.op, m16.h, 1e-4, bad)


def test_invert_rejects_a_start_that_is_not_finite():
    # a nan or inf start ran a full apply with RuntimeWarnings, and the nan
    # residual then ended the loop at once
    g = grid(8)
    op = LMOperator(STATE, g)
    h = micro_field(g, op.basis, 0)

    def no_apply(values):
        raise AssertionError("a non-finite start reached the operator")

    op.apply = no_apply
    one_nan = np.zeros(g.shape)
    one_nan[3, 4, 5] = math.nan
    for bad in (np.full(g.shape, math.nan), np.full(g.shape, math.inf), one_nan):
        with pytest.raises(ValueError, match="non-finite values"):
            invert_LM_micro(op, h, 1e-4, bad)


def test_invert_rejects_a_tol_that_is_not_finite_and_positive(monkeypatch):
    # a nan tol returned an unconverged field at once, and 0 or -1 spent the
    # whole inner budget before reporting a stall
    g = grid(8)
    op = LMOperator(STATE, g)
    h = micro_field(g, op.basis, 0)

    def no_pcg(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(collision, "_pcg", no_pcg)
    for bad in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            invert_LM_micro(op, h, bad)


def test_invert_zero_rhs_gives_zero():
    g = grid(16)
    zero = GridFunction(g, np.zeros(g.shape))
    out, product = invert_LM_micro(LMOperator(STATE, g), zero, 1e-6)
    assert np.all(out.values == 0.0) and np.all(product == 0.0)


def test_returned_product_is_a_fresh_apply_of_the_solution(m16):
    # the product is accumulated from the solve's own applies, on the
    # unprojected iterate; it must equal L_M of the returned field on every
    # path: cold, from a converged start, across restarts, and at h = 0
    g, op, h = m16.g, m16.op, m16.h
    warm = invert_LM_micro(op, h, 1e-4, m16.cold[0].values)
    assert m16.tight_applies > collision._RESTART + 1  # more than one Krylov cycle
    zero = invert_LM_micro(op, GridFunction(g, np.zeros(g.shape)), 1e-6)
    for field, product in (m16.cold, warm, m16.tight, zero):
        fresh = op.apply(field.values)
        assert np.abs(product - fresh).max() <= 1e-13 * np.abs(fresh).max()


def test_each_solve_logs_its_iterations_applies_and_residual(m16, caplog, monkeypatch):
    g, op, h, (sol, product) = m16.g, m16.op, m16.h, m16.cold
    assert not m16.cold_log
    calls, _ = count_applies(op, monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="rarewave.collision"):
        invert_LM_micro(op, h, 1e-4)
        invert_LM_micro(op, h, 1e-4, sol.values)
    records = [r.getMessage() for r in caplog.records if r.name == "rarewave.collision"]
    assert len(records) == 2
    pattern = r"solve: (\d+) inner iterations, (\d+) apply calls, relative residual (\S+)$"
    (cold_iters, cold_applies, _), (warm_iters, warm_applies, warm_res) = (
        re.match(pattern, m).groups() for m in records
    )
    assert int(cold_iters) > 0 and int(cold_applies) + int(warm_applies) == calls[0]
    assert (warm_iters, warm_applies) == ("0", "1")
    resid = h.values - product
    fresh = math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2))
    assert float(warm_res) == pytest.approx(fresh, rel=1e-3) and fresh <= 1e-4


def test_invert_rejects_fluid_content():
    g = grid(16)
    m = maxwellian(STATE, g)
    with pytest.raises(ValueError, match="not microscopic"):
        invert_LM_micro(LMOperator(STATE, g), m, 1e-6)


def test_invert_scaling_equivariance(m16):
    one = m16.cold[0]
    three, _ = invert_LM_micro(m16.op, GridFunction(m16.g, 3.0 * m16.h.values), 1e-4)
    assert np.abs(three.values - 3.0 * one.values).max() <= 1e-12 * np.abs(one.values).max()


def test_invert_reports_residual_history_on_stall(m16, monkeypatch):
    monkeypatch.setattr(collision, "_MAX_INNER_ITER", 3)
    with pytest.raises(NonConvergenceError) as exc:
        invert_LM_micro(m16.op, m16.h, 1e-13)
    err = exc.value
    assert len(err.residuals) >= 1
    assert all(r >= 0.0 for r in err.residuals)
    assert "residual" in str(err)


def test_invert_raises_when_the_preconditioner_gives_no_direction(m16, monkeypatch):
    # only the start's _pcg is real; a step that finds no direction must
    # raise with the start's true residual, after the start's one apply
    g, op, h = m16.g, m16.op, m16.h
    real_pcg, starts = collision._pcg, []

    def start_only(*args, **kwargs):
        if starts:
            return np.zeros(g.shape), 0
        starts.append(real_pcg(*args, **kwargs))
        return starts[-1]

    monkeypatch.setattr(collision, "_pcg", start_only)
    calls, plain = count_applies(op, monkeypatch)
    with pytest.raises(NonConvergenceError, match="stalled") as exc:
        invert_LM_micro(op, h, 1e-4)
    assert calls[0] == 1
    resid = h.values - plain(op.m.values * starts[0][0])
    start = math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2))
    assert exc.value.residuals == [1.0, pytest.approx(start, rel=1e-12)]
    assert start > 1e-4


def test_invert_raises_when_a_direction_has_no_product():
    # only the start's apply is real; a step whose product vanishes cannot
    # be normalised and must raise with the start's true residual
    g = grid(8)
    op = LMOperator(STATE, g)
    h = micro_field(g, op.basis, 0)
    plain, calls = op.apply, []

    def start_only(values):
        calls.append(values)
        return plain(values) if len(calls) == 1 else np.zeros(g.shape)

    op.apply = start_only
    with pytest.raises(NonConvergenceError, match="stalled") as exc:
        invert_LM_micro(op, h, 1e-12)
    assert len(calls) == 2
    assert len(exc.value.residuals) == 2 and exc.value.residuals[1] > 1e-12
    assert int(re.search(r"after (\d+) inner iterations", str(exc.value)).group(1)) > 0


def test_pcg_on_a_zero_residual_returns_zero_without_an_apply():
    g = grid(8)
    op = LMOperator(STATE, g)

    def no_weak_apply(values):
        raise AssertionError("a zero residual reached the weak form")

    op.weak_apply = no_weak_apply
    dx, it = collision._pcg(op, np.zeros(g.shape), 1e-2, 10)
    assert it == 0 and np.all(dx == 0.0)


def test_pcg_stops_at_a_direction_of_nonpositive_curvature():
    # a weak form that is not positive gives no CG step: _pcg returns the
    # zero correction, and the solve reports a stall at its start residual
    g = grid(8)
    op = LMOperator(STATE, g)
    h = micro_field(g, op.basis, 0)
    plain = op.weak_apply
    op.weak_apply = lambda values: -plain(values)
    dx, it = collision._pcg(op, h.values, 1e-2, 10)
    assert it == 0 and np.all(dx == 0.0)
    with pytest.raises(NonConvergenceError, match="stalled") as exc:
        invert_LM_micro(op, h, 1e-2)
    assert exc.value.residuals == [1.0, 1.0]


# ---------------------------------------------------------------------------
# low-level pieces


def test_stencils_are_exact_on_weighted_polynomials():
    # Under a drifting weight W, the relative gradient differentiates W p
    # exactly for deg p <= 4 on rows 2 ... n - 3, deg p <= 2 one node from
    # each face and deg p <= 1 at the faces; S annihilates affine fields.
    g = grid(12)
    n = g.n_per_axis
    s = GasState.make(1.0, 0.4, 1.4, u2=-0.3, u3=0.2)
    w = maxwellian(s, g).values
    poly = np.polynomial.polynomial
    rng = np.random.default_rng(5)
    for deg, rows in ((4, slice(2, n - 2)), (2, slice(1, n - 1)), (1, slice(0, n))):
        coef = rng.normal(size=deg + 1)
        for j, vj in enumerate(coords(g)):
            p = poly.polyval(vj, coef)
            grad = _relative_gradient(w * p, g, s)[j]
            err = np.abs(grad / w - poly.polyval(vj, poly.polyder(coef)))
            assert np.moveaxis(err, j, 0)[rows].max() <= 1e-12 * np.abs(p).max() / g.spacing
    affine = 0.7 - 1.3 * g.axis
    assert np.abs(_stencils(n, g.spacing)[1] @ affine).max() <= 1e-14 * np.abs(affine).max()
