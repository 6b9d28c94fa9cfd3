"""Smooth-wave construction tests.

The characteristic solution is exact, so most checks compare analytic
output against independently derived numbers (mpmath foot-point solves,
finite-difference stencils, quadrature identities).
"""

import math

import numpy as np
import pytest

from rarewave.euler import GasState, RiemannData, lambda3, riemann_rarefaction
from rarewave.burgers import (
    SmoothWave,
    WaveParams,
    burgers_eval_full,
    burgers_init,
    derivative_decay_report,
    euler_residual,
    riemann_gap,
)

LEFT = GasState.make(1.0, 0.0, 1.5)
DATA = RiemannData.from_density(LEFT, 1.1)
SPAN = 0.16669379943488352  # lambda3(right) - lambda3(left), mpmath
PARAMS = WaveParams(0.3, 0.0, SPAN)

# mpmath foot-point oracles for omega- = 0, omega+ = SPAN, delta = 0.3
ORACLES = [
    # (t, x, omega, omega_x, omega_t)
    (1.0, 0.5, 0.15179644786262712, 0.082938895125306756, -0.012589829669672526),
    (5.0, 0.2, 0.058470349070159586, 0.11171406818877475, -0.0065319605630452706),
    (0.5, -0.4, 0.010481492176840752, 0.063406832226530455, -0.00066459821594063304),
]


def test_params_validation():
    with pytest.raises(ValueError):
        WaveParams(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        WaveParams(0.1, 1.0, 0.5)


def test_burgers_init_values():
    assert burgers_init(PARAMS, 0.0) == pytest.approx(PARAMS.mid, rel=1e-15)
    assert burgers_init(PARAMS, 80.0) == pytest.approx(PARAMS.omega_plus, rel=1e-14)
    assert burgers_init(PARAMS, -80.0) == pytest.approx(PARAMS.omega_minus, abs=1e-16)
    assert burgers_init(PARAMS, 0.3) == pytest.approx(
        PARAMS.mid + PARAMS.half_span * math.tanh(1.0), rel=1e-15
    )


@pytest.mark.parametrize("t,x,w_ref,wx_ref,wt_ref", ORACLES)
def test_characteristic_oracles(t, x, w_ref, wx_ref, wt_ref):
    w, wx, wt = burgers_eval_full(PARAMS, t, x)[:3]
    assert w == pytest.approx(w_ref, rel=1e-14)
    assert wx == pytest.approx(wx_ref, rel=1e-13)
    assert wt == pytest.approx(wt_ref, rel=1e-13)


def test_t0_matches_initial_profile():
    x = np.linspace(-2, 2, 41)
    w, wx, _ = burgers_eval_full(PARAMS, 0.0, x)[:3]
    assert np.allclose(w, burgers_init(PARAMS, x), rtol=0, atol=0)
    sech2 = 1.0 / np.cosh(x / PARAMS.delta) ** 2
    assert np.allclose(wx, PARAMS.half_span / PARAMS.delta * sech2, rtol=1e-14)


def test_pde_residual_random_points():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.01, 20.0, 1000)
    x = rng.uniform(-5.0, 8.0, 1000)
    worst = 0.0
    for ti, xi in zip(t, x):
        w, wx, wt = burgers_eval_full(PARAMS, ti, xi)[:3]
        worst = max(worst, abs(wt + w * wx))
    assert worst <= 1e-11


@pytest.mark.parametrize("t", [0.3, 1.7])
def test_derivatives_match_finite_differences(t):
    # Independent route: centered differences of the evaluated solution.
    # First derivatives at small h; second derivatives at larger h because
    # the second difference amplifies round-off by 1/h^2.
    xs = np.array([-0.5, 0.05, 0.4, 1.2])
    w, wx, wt, wxx, wxt, wtt = burgers_eval_full(PARAMS, t, xs)
    h = 1e-6
    wp = burgers_eval_full(PARAMS, t, xs + h)[0]
    wm = burgers_eval_full(PARAMS, t, xs - h)[0]
    assert np.max(np.abs((wp - wm) / (2 * h) - wx)) < 1e-9
    wtp = burgers_eval_full(PARAMS, t + h, xs)[0]
    wtm = burgers_eval_full(PARAMS, t - h, xs)[0]
    assert np.max(np.abs((wtp - wtm) / (2 * h) - wt)) < 1e-9
    h = 3e-4
    wp = burgers_eval_full(PARAMS, t, xs + h)[0]
    wm = burgers_eval_full(PARAMS, t, xs - h)[0]
    assert np.max(np.abs((wp - 2 * w + wm) / h ** 2 - wxx)) < 1e-5
    wtp = burgers_eval_full(PARAMS, t + h, xs)[0]
    wtm = burgers_eval_full(PARAMS, t - h, xs)[0]
    assert np.max(np.abs((wtp - 2 * w + wtm) / h ** 2 - wtt)) < 1e-5


def test_foot_point_residual_bulk():
    # strict bounds hold mathematically; in float64 tanh saturates to +-1
    # around |x0| ~ 19 delta, so strictness is only checkable inside that
    rng = np.random.default_rng(3)
    for t in (0.0, 0.4, 3.0, 50.0):
        x = rng.uniform(-30, 30, 5000)
        w = burgers_eval_full(PARAMS, t, x)[0]
        assert np.all(w >= PARAMS.omega_minus)
        assert np.all(w <= PARAMS.omega_plus)
        inner = np.abs(x - PARAMS.mid * t) < 5.0
        assert np.all(w[inner] > PARAMS.omega_minus)
        assert np.all(w[inner] < PARAMS.omega_plus)


def test_monotone_and_bounded():
    x = np.linspace(-4, 4, 4001)
    for t in (0.1, 1.0, 10.0):
        w, wx, _ = burgers_eval_full(PARAMS, t, x)[:3]
        assert np.all(wx >= 0)
        assert np.all(wx[np.abs(x) < 3.0] > 0)
        env = min(PARAMS.half_span / PARAMS.delta, 1.0 / t)
        assert wx.max() <= env * (1 + 1e-12)


def test_envelope_constant_stable_across_delta():
    # sup_x w_x * (delta + t): bounded by ~1, stable under delta halving
    consts = []
    for delta in (0.2, 0.1, 0.05):
        p = WaveParams(delta, 0.0, SPAN)
        best = 0.0
        for t in (0.1, 1.0, 10.0):
            x = np.linspace(-4, 4 + t * SPAN, 30001)
            wx = burgers_eval_full(p, t, x)[1]
            best = max(best, wx.max() * (delta + t))
        consts.append(best)
    assert max(consts) <= 1.2
    assert max(consts) / min(consts) <= 2.0


class TestSmoothWave:
    wave = SmoothWave.build(DATA, 0.3)

    def test_edge_speeds_consistency(self):
        assert self.wave.params.omega_minus == pytest.approx(lambda3(LEFT), rel=1e-14)
        assert self.wave.params.omega_plus == pytest.approx(lambda3(DATA.right), rel=1e-14)
        with pytest.raises(ValueError):
            SmoothWave(WaveParams(0.3, 0.0, 1.0), DATA)

    def test_far_field_states(self):
        for x, ref in ((-60.0, LEFT), (60.0, DATA.right)):
            s = self.wave.state(1.0, x)
            assert s.rho == pytest.approx(ref.rho, rel=1e-12)
            assert s.u1 == pytest.approx(ref.u1, abs=1e-12)
            assert s.theta == pytest.approx(ref.theta, rel=1e-12)

    def test_speed_consistency(self):
        # omega is lambda3 of the lifted state
        for (t, x) in ((0.5, 0.1), (2.0, 0.35), (1.0, -0.2)):
            w = burgers_eval_full(self.wave.params, t, x)[0]
            assert lambda3(self.wave.state(t, x)) == pytest.approx(w, rel=1e-13)

    def test_theta_gradient_identity(self):
        # theta_x = sqrt(2/5) sqrt(theta) u1_x, exact on the curve
        prof = self.wave.profile(1.3, np.linspace(-2, 3, 101), order=1)
        lhs = prof["theta_x"]
        rhs = math.sqrt(0.4) * np.sqrt(prof["theta"]) * prof["u1_x"]
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert np.all(prof["u1_x"] > 0)

    def test_u1_gradient_proportional_to_omega(self):
        prof = self.wave.profile(0.7, np.linspace(-1, 2, 51), order=1)
        w, wx, _ = burgers_eval_full(self.wave.params, 0.7, np.linspace(-1, 2, 51))[:3]
        assert np.allclose(prof["u1_x"], 0.75 * wx, rtol=1e-13)

    def test_invariants_constant_in_time_and_space(self):
        from rarewave.euler import K0, entropy

        pts = [(0.2, -0.3), (1.0, 0.1), (4.0, 0.8), (9.0, 1.4)]
        vals = []
        for t, x in pts:
            s = self.wave.state(t, x)
            riem = s.u1 - math.sqrt(15 * K0) * math.exp(entropy(s) / 2) * s.rho ** (1 / 3)
            vals.append((entropy(s), riem))
        ent, riem = zip(*vals)
        assert max(ent) - min(ent) < 1e-10
        assert max(riem) - min(riem) < 1e-10

    def test_profile_second_derivatives_vs_fd(self):
        x = np.array([-0.4, 0.2, 0.9])
        t, h = 1.1, 3e-4
        prof = self.wave.profile(t, x, order=2)
        fp = self.wave.profile(t, x + h, order=1)
        fm = self.wave.profile(t, x - h, order=1)
        tp = self.wave.profile(t + h, x, order=1)
        tm = self.wave.profile(t - h, x, order=1)
        for name in ("rho", "u1", "theta"):
            fd_xx = (fp[name] - 2 * prof[name] + fm[name]) / h ** 2
            assert np.max(np.abs(fd_xx - prof[name + "_xx"])) < 2e-5
            fd_tt = (tp[name] - 2 * prof[name] + tm[name]) / h ** 2
            assert np.max(np.abs(fd_tt - prof[name + "_tt"])) < 2e-5
            fd_xt = (tp[name + "_x"] - tm[name + "_x"]) / (2 * h)
            assert np.max(np.abs(fd_xt - prof[name + "_xt"])) < 1e-6


class TestEulerResidual:
    wave = SmoothWave.build(DATA, 0.25)

    def test_far_tail_constant(self):
        r = euler_residual(self.wave, 1.0, -50.0, 1e-5)
        assert np.max(np.abs(r)) <= 1e-12

    def test_second_order_in_stencil(self):
        r1 = np.max(np.abs(euler_residual(self.wave, 1.0, 0.6, 2e-4)))
        r2 = np.max(np.abs(euler_residual(self.wave, 1.0, 0.6, 1e-4)))
        assert r1 / r2 >= 3.5

    def test_fan_center_magnitude(self):
        r = euler_residual(self.wave, 1.0, self.wave.params.mid, 1e-4)
        assert np.max(np.abs(r)) <= 1e-6

    def test_requires_time_headroom(self):
        with pytest.raises(ValueError):
            euler_residual(self.wave, 1e-6, 0.0, 1e-5)
        # a zero step would divide by zero; a negative one would pass t > h
        for bad in (0.0, -1e-5):
            with pytest.raises(ValueError, match="stencil_h"):
                euler_residual(self.wave, 1.0, 0.0, bad)


class TestDecayReport:
    def test_l1_first_derivative_exact(self):
        # each component is monotone, so the L1 norm of its derivative is its
        # jump; the euclidean-magnitude norm then lies between the largest
        # jump and the sum of jumps
        wave = SmoothWave.build(DATA, 0.3)
        jumps = np.array(
            [
                DATA.right.rho - LEFT.rho,
                DATA.right.u1 - LEFT.u1,
                DATA.right.theta - LEFT.theta,
            ]
        )
        rows = derivative_decay_report(wave, [0.1, 1.0, 10.0], [1.0])
        for r in rows:
            if r.j == 1:
                assert jumps.max() <= r.value <= jumps.sum() + 1e-12

    def test_omega_total_variation_exact(self):
        x0 = np.linspace(-12, 12, 200001)
        for t in (0.5, 2.0):
            x = x0 + t * burgers_init(PARAMS, x0)
            wx = burgers_eval_full(PARAMS, t, x)[1]
            tv = np.trapezoid(wx, x)
            assert tv == pytest.approx(SPAN, rel=1e-8)

    def test_ratios_bounded(self):
        wave = SmoothWave.build(DATA, 0.3)
        rows = derivative_decay_report(wave, [0.1, 1.0, 10.0, 100.0], [1.0, 2.0, math.inf])
        assert all(r.ratio < 5.0 for r in rows)
        # and the p=inf first-derivative constant is O(1)
        assert all(r.ratio <= 1.2 for r in rows if r.j == 1 and math.isinf(r.p))

    def test_rejects_exponents_below_one(self):
        # p = 0 divided by zero and p < 0 returned 0.0 with a RuntimeWarning
        wave = SmoothWave.build(DATA, 0.3)
        for bad in (0.0, -1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="p >= 1"):
                derivative_decay_report(wave, [1.0], [2.0, bad])

    def test_second_derivative_constant_stable(self):
        consts = []
        for delta in (0.2, 0.1):
            wave = SmoothWave.build(DATA, delta)
            rows = derivative_decay_report(wave, [0.1, 1.0, 10.0], [math.inf])
            consts.append(max(r.ratio for r in rows if r.j == 2))
        assert 0.5 <= consts[0] / consts[1] <= 2.0


class TestRiemannGap:
    def test_fan_closed_form_matches_pointwise_solver(self):
        wave = SmoothWave.build(DATA, 0.1)
        t = 2.0
        for xi in (1.25, 1.30, 1.35, 1.42, 1.50):
            ref = riemann_rarefaction(DATA, xi)
            fan = wave._curve_values(
                np.clip(xi, wave.params.omega_minus, wave.params.omega_plus)
            )
            assert float(fan["rho"]) == pytest.approx(ref.rho, rel=1e-13)
            assert float(fan["u1"]) == pytest.approx(ref.u1, abs=1e-13)
            assert float(fan["theta"]) == pytest.approx(ref.theta, rel=1e-13)

    def test_gap_decreases_in_time(self):
        wave = SmoothWave.build(DATA, 0.1)
        gaps = [riemann_gap(wave, t)[0] for t in (0.5, 1.0, 2.0, 5.0)]
        assert gaps[0] > gaps[-1]
        assert gaps[-1] < 0.05

    def test_constants_bounded_and_stable(self):
        consts = []
        for delta in (0.2, 0.1, 0.05):
            wave = SmoothWave.build(DATA, delta)
            ratios = [
                riemann_gap(wave, t)[0] / riemann_gap(wave, t)[1]
                for t in (0.5, 1.0, 2.0, 5.0)
            ]
            assert max(ratios) < 1.0
            consts.append(max(ratios))
        assert max(consts) / min(consts) <= 2.0

    def test_rejects_nonpositive_time(self):
        wave = SmoothWave.build(DATA, 0.1)
        with pytest.raises(ValueError):
            riemann_gap(wave, 0.0)
