"""Collision operator: kernel, convolutions, linearization, and the solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarewave.euler import GasState
from rarewave.velocity import (
    _along,
    GridFunction,
    VelocityGrid,
    maxwellian,
    macro_basis,
    project_P1,
    REFERENCE_STATE,
)
from rarewave.collision import (
    KernelParams,
    NonConvergenceError,
    collision_Q,
    collision_frequency,
    gamma_bilinear,
    invert_LM_micro,
    linearized_LM,
    linearized_script_L,
    lm_operator,
    phi_kernel,
    _UNPACK,
    _phi_conv_direct,
    _phi_grad_fft,
    _relative_gradient,
    _stencils,
    _transforms,
)
from rarewave import collision

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


# ---------------------------------------------------------------------------
# bilinear operator


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


def test_mismatched_grids_rejected():
    f1 = smooth_positive(grid(8), 1)
    f2 = smooth_positive(grid(10), 1)
    with pytest.raises(ValueError):
        collision_Q(f1, f2)


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
    trace = np.trace(collision_frequency(g, p))
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
        out = linearized_script_L(GridFunction(g, field), g)
        assert math.sqrt(g.integrate(out.values**2)) <= tol * mu_scale
    f = GridFunction(g, sq * vx * vy)
    k = GridFunction(g, sq * (v2 - 4.0) * vy)
    conj = gamma_bilinear(f, k, g).values * sq
    plain = collision_Q(GridFunction(g, sq * f.values), GridFunction(g, sq * k.values), g).values
    assert np.abs(conj - plain).max() <= 1e-12 * np.abs(plain).max()
    quad = g.integrate(linearized_script_L(f, g).values * f.values)
    assert quad < 0.0


# ---------------------------------------------------------------------------
# constrained solver on the microscopic subspace


def manufactured(g, op):
    vx, vy, _ = coords(g)
    g_true = project_P1(GridFunction(g, op.m.values * vx * vy / (1.0 + 0.05 * vx * vx)), op.basis)
    h = project_P1(GridFunction(g, op.apply(g_true.values)), op.basis)
    return h, g_true


def test_operator_wrapper_matches_linearized_form():
    g = grid(16)
    op = lm_operator(STATE, g)
    h = micro_field(g, op.basis, 0)
    direct = linearized_LM(h, STATE, g).values
    assert np.abs(op.apply(h.values) - direct).max() <= 1e-14 * np.abs(direct).max()
    assert lm_operator(STATE, g) is op


def test_weak_form_symmetric_positive_with_exact_affine_nulls():
    g = grid(16)
    op = lm_operator(STATE, g)
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
    op = lm_operator(s, g)
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


def test_invert_recovers_manufactured_solution():
    for n, tol, err_tol in ((16, 1e-4, 5e-3), (24, 1e-6, 3e-5)):
        g = grid(n)
        op = lm_operator(STATE, g)
        h, g_true = manufactured(g, op)
        sol = invert_LM_micro(h, STATE, g, tol=tol)
        assert op.micro_defect(sol.values) <= 1e-12
        resid = h.values - op.apply(sol.values)
        rel = math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2))
        assert rel <= tol
        err = math.sqrt(
            g.integrate((sol.values - g_true.values) ** 2 / op.m.values)
            / g.integrate(g_true.values**2 / op.m.values)
        )
        assert err <= err_tol


def test_invert_reaches_tight_tolerance_across_restarts():
    # a consistent right-hand side must reach any tolerance above round-off;
    # 1e-8 takes more than one Krylov cycle, so the true residual checked
    # here also guards the least-squares estimate carried across restarts
    g = grid(16)
    op = lm_operator(STATE, g)
    h, _ = manufactured(g, op)
    sol = invert_LM_micro(h, STATE, g, tol=1e-8)
    resid = h.values - op.apply(sol.values)
    assert math.sqrt(g.integrate(resid**2) / g.integrate(h.values**2)) <= 1e-8


def test_invert_zero_rhs_gives_zero():
    g = grid(16)
    out = invert_LM_micro(GridFunction(g, np.zeros(g.shape)), STATE, g)
    assert np.all(out.values == 0.0)


def test_invert_rejects_fluid_content():
    g = grid(16)
    m = maxwellian(STATE, g)
    with pytest.raises(ValueError, match="not microscopic"):
        invert_LM_micro(m, STATE, g)


def test_invert_scaling_equivariance():
    g = grid(16)
    op = lm_operator(STATE, g)
    h, _ = manufactured(g, op)
    one = invert_LM_micro(h, STATE, g, tol=1e-4)
    three = invert_LM_micro(GridFunction(g, 3.0 * h.values), STATE, g, tol=1e-4)
    assert np.abs(three.values - 3.0 * one.values).max() <= 1e-12 * np.abs(one.values).max()


def test_invert_reports_residual_history_on_stall(monkeypatch):
    g = grid(16)
    op = lm_operator(STATE, g)
    h, _ = manufactured(g, op)
    monkeypatch.setattr(collision, "_MAX_INNER_ITER", 3)
    with pytest.raises(NonConvergenceError) as exc:
        invert_LM_micro(h, STATE, g, tol=1e-13)
    err = exc.value
    assert len(err.residuals) >= 1
    assert all(r >= 0.0 for r in err.residuals)
    assert "residual" in str(err)


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
