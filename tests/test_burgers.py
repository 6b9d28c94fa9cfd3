"""Smooth-wave construction tests.

The characteristic solution is exact, so most checks compare analytic
output against independently derived numbers (mpmath foot-point solves,
finite-difference stencils, quadrature identities).
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rarewave import burgers
from rarewave.euler import GAS_R, GasState, RiemannData, lambda3, riemann_rarefaction
from rarewave.burgers import (
    GapReport,
    SmoothWave,
    WaveParams,
    _char_grid,
    _eval_at_feet,
    _foot_point,
    _foot_points,
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


def test_params_reject_non_finite_values():
    # -inf and +inf edge speeds and an infinite width were accepted
    inf, nan = math.inf, math.nan
    for bad in ((0.3, -inf, 1.0), (0.3, 0.0, inf), (0.3, nan, 1.0), (inf, 0.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            WaveParams(*bad)


def test_derived_speeds_are_stored_and_left_out_of_eq_hash_and_repr():
    # mid and half_span are formed in __post_init__, not at each read; they
    # take no argument, and equality, hash and repr read the three fields alone
    p = WaveParams(0.3, 0.0, SPAN)
    assert (p.mid, p.half_span) == (0.5 * (SPAN + 0.0), 0.5 * (SPAN - 0.0))
    q = WaveParams(0.3, 0.0, SPAN)
    object.__setattr__(q, "mid", -1.0)
    object.__setattr__(q, "half_span", -1.0)
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert repr(p) == f"WaveParams(delta=0.3, omega_minus=0.0, omega_plus={SPAN!r})"
    with pytest.raises(TypeError, match="mid"):
        WaveParams(0.3, 0.0, SPAN, mid=1.0)
    r = dataclasses.replace(p, omega_plus=1.0)
    assert (r.mid, r.half_span) == (0.5, 0.5)


def test_burgers_init_values():
    assert burgers_init(PARAMS, 0.0) == pytest.approx(PARAMS.mid, rel=1e-15)
    assert burgers_init(PARAMS, 80.0) == pytest.approx(PARAMS.omega_plus, rel=1e-14)
    assert burgers_init(PARAMS, -80.0) == pytest.approx(PARAMS.omega_minus, abs=1e-16)
    assert burgers_init(PARAMS, 0.3) == pytest.approx(
        PARAMS.mid + PARAMS.half_span * math.tanh(1.0), rel=1e-15
    )


@pytest.mark.parametrize("t,x,w_ref,wx_ref,wt_ref", ORACLES)
def test_characteristic_oracles(t, x, w_ref, wx_ref, wt_ref):
    w, wx, wt = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, x))[:3]
    assert w[0] == pytest.approx(w_ref, rel=1e-14)
    assert wx[0] == pytest.approx(wx_ref, rel=1e-13)
    assert wt[0] == pytest.approx(wt_ref, rel=1e-13)


def test_t0_matches_initial_profile():
    x = np.linspace(-2, 2, 41)
    w, wx, _ = _eval_at_feet(PARAMS, 0.0, _foot_points(PARAMS, 0.0, x))[:3]
    assert np.allclose(w, burgers_init(PARAMS, x), rtol=0, atol=0)
    sech2 = 1.0 / np.cosh(x / PARAMS.delta) ** 2
    assert np.allclose(wx, PARAMS.half_span / PARAMS.delta * sech2, rtol=1e-14)


def test_pde_residual_random_points():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.01, 20.0, 1000)
    x = rng.uniform(-5.0, 8.0, 1000)
    worst = 0.0
    for ti, xi in zip(t, x):
        w, wx, wt = _eval_at_feet(PARAMS, ti, _foot_points(PARAMS, ti, xi))[:3]
        worst = max(worst, abs(wt[0] + w[0] * wx[0]))
    assert worst <= 1e-11


@pytest.mark.parametrize("t", [0.3, 1.7])
def test_derivatives_match_finite_differences(t):
    # Independent route: centered differences of the evaluated solution.
    # First derivatives at small h; second derivatives at larger h because
    # the second difference amplifies round-off by 1/h^2.
    xs = np.array([-0.5, 0.05, 0.4, 1.2])
    w, wx, wt, wxx, wxt, wtt = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, xs))
    h = 1e-6
    wp = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, xs + h))[0]
    wm = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, xs - h))[0]
    assert np.max(np.abs((wp - wm) / (2 * h) - wx)) < 1e-9
    wtp = _eval_at_feet(PARAMS, t + h, _foot_points(PARAMS, t + h, xs))[0]
    wtm = _eval_at_feet(PARAMS, t - h, _foot_points(PARAMS, t - h, xs))[0]
    assert np.max(np.abs((wtp - wtm) / (2 * h) - wt)) < 1e-9
    h = 3e-4
    wp = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, xs + h))[0]
    wm = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, xs - h))[0]
    assert np.max(np.abs((wp - 2 * w + wm) / h ** 2 - wxx)) < 1e-5
    wtp = _eval_at_feet(PARAMS, t + h, _foot_points(PARAMS, t + h, xs))[0]
    wtm = _eval_at_feet(PARAMS, t - h, _foot_points(PARAMS, t - h, xs))[0]
    assert np.max(np.abs((wtp - 2 * w + wtm) / h ** 2 - wtt)) < 1e-5


def test_foot_point_residual_bulk():
    # strict bounds hold mathematically; in float64 tanh saturates to +-1
    # around |x0| ~ 19 delta, so strictness is only checkable inside that
    rng = np.random.default_rng(3)
    for t in (0.0, 0.4, 3.0, 50.0):
        x = rng.uniform(-30, 30, 5000)
        w = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, x))[0]
        assert np.all(w >= PARAMS.omega_minus)
        assert np.all(w <= PARAMS.omega_plus)
        inner = np.abs(x - PARAMS.mid * t) < 5.0
        assert np.all(w[inner] > PARAMS.omega_minus)
        assert np.all(w[inner] < PARAMS.omega_plus)


# the array form and the one-point driver on Python floats
FOOT_DRIVERS = pytest.mark.parametrize(
    "solve", [_foot_points, _foot_point], ids=lambda f: f.__name__
)


@FOOT_DRIVERS
def test_foot_points_raise_when_the_iteration_budget_runs_out(solve, monkeypatch):
    monkeypatch.setattr(burgers, "FOOT_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="foot-point iteration failed for 1 points"):
        solve(PARAMS, 2.0, 1.0)


@FOOT_DRIVERS
@pytest.mark.parametrize(
    "t, x, message",
    [
        (2.0, math.nan, "x must be finite"),
        (2.0, math.inf, "x must be finite"),
        (2.0, -math.inf, "x must be finite"),
        (math.inf, 0.0, "t must be finite and nonnegative"),
        (math.nan, 0.0, "t must be finite and nonnegative"),
        (-1e-12, 0.2, "t must be finite and nonnegative"),
    ],
)
def test_foot_points_reject_points_that_are_not_finite_and_negative_times(solve, t, x, message):
    with pytest.raises(ValueError, match=message):
        solve(PARAMS, t, x)


# the wave of the wave_reports benchmark workload
REPORT_DATA = RiemannData.from_density(GasState.make(1.0, 0.0, 1.0), 1.5)
REPORT_WAVE = SmoothWave(REPORT_DATA, 0.5)


@pytest.mark.parametrize(
    "p,t,x",
    [
        (REPORT_WAVE.params, 1000.0, -0.61625),
        (REPORT_WAVE.params, 1000.0, 0.63625),
        (REPORT_WAVE.params, 1e4, 7.5025),
        (WaveParams(2.0, -50.0, 80.0), 1000.0, 0.0),
    ],
)
def test_foot_points_where_t_omega_cancels_x(p, t, x):
    # x0 and t omega0 cancel to x ~ 0, so x0 + t omega0 - x carries a
    # round-off of ~eps t omega0, above 1e-13 (1 + |x|): a tolerance without
    # a round-off floor is never met
    (x0,) = _foot_points(p, t, x)
    scale = abs(x) + t * max(abs(p.omega_minus), abs(p.omega_plus))
    assert abs(x0 + t * burgers_init(p, x0) - x) <= 8 * np.finfo(float).eps * scale
    assert p.omega_minus <= (x - x0) / t <= p.omega_plus
    assert _foot_point(p, t, x).hex() == float(x0).hex()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("p", [PARAMS, REPORT_WAVE.params], ids=["PARAMS", "REPORT"])
def test_init_derivs_of_a_float_are_floats_with_the_array_bits(p, order):
    # np.tanh of a float is a NumPy scalar; _init_derivs turns it back into a
    # float, so the Newton runs on floats, with the bits of the array path
    u = np.random.default_rng(5).uniform(-3.0, 3.0, 50).tolist()
    far = [-40.0, -19.5, 19.5, 40.0]  # tanh is +-1 to round-off past ~19 delta
    for x0 in [0.0, -0.0, *(p.delta * v for v in u + far)]:
        got = burgers._init_derivs(p, x0, order)
        ref = burgers._init_derivs(p, np.array([x0]), order)
        assert [type(v) for v in got] == [float] * (order + 1)
        assert [v.hex() for v in got] == [float(r[0]).hex() for r in ref]


# edge speeds whose t omega0 cancels x ~ 0 at every t > 0, as in the test above
CANCELLING = WaveParams(2.0, -50.0, 80.0)


@st.composite
def foot_cases(draw):
    """(params, t, x): t in [0, 60], t = 0 included, and x in the tanh transition,
    the far field or, on ``CANCELLING``, where t omega0 cancels x."""
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
    regime = draw(st.sampled_from(("transition", "far field", "cancellation")))
    if regime == "cancellation":
        return CANCELLING, t, draw(st.floats(-1.0, 1.0))
    p = draw(st.sampled_from((REPORT_WAVE.params, PARAMS, CANCELLING)))
    if regime == "transition":
        x0 = p.delta * draw(st.floats(-3.0, 3.0))
        return p, t, float(x0 + t * burgers_init(p, x0))
    edge, side = draw(st.sampled_from(((p.omega_minus, -1.0), (p.omega_plus, 1.0))))
    return p, t, t * edge + side * draw(st.floats(5.0 * p.delta, 1e3))


@settings(max_examples=400, deadline=None)
@given(foot_cases())
@example((CANCELLING, 0.0, -0.0))
@example((PARAMS, 0.0, -0.0))
def test_the_float_driver_meets_its_tolerance_inside_the_bracket(case):
    # the root's residual is within the stopping tolerance, round-off floor
    # included, and the root lies in [x - omega+ t, x - omega- t]
    p, t, x = case
    x0 = _foot_point(p, t, x)
    speed = max(abs(p.omega_minus), abs(p.omega_plus))
    tol = 1e-13 * (1.0 + abs(x)) + 8.0 * np.finfo(float).eps * (abs(x) + t * speed)
    assert abs(x0 + t * burgers_init(p, x0) - x) <= tol
    assert x - p.omega_plus * t <= x0 <= x - p.omega_minus * t


def test_fan_grid_newton_is_short_and_monotone(monkeypatch):
    # 8001 points across the fan opening at t = 50 reach feet deep in the
    # saturated tanh tail; Newton from the inflection needs few steps there,
    # and each point's iterates approach its root from one side without
    # passing it
    p, t = REPORT_WAVE.params, 50.0
    pad = 0.2 * (p.omega_plus - p.omega_minus) + 4.0 * p.delta / t
    x_fan = t * np.linspace(p.omega_minus - pad, p.omega_plus + pad, 8001)
    iterates = []
    init_derivs = burgers._init_derivs

    def counting(p, x0, order):  # called once per iteration
        iterates.append(x0)
        return init_derivs(p, x0, order)

    monkeypatch.setattr(burgers, "_init_derivs", counting)
    for x in x_fan.tolist():
        iterates.clear()
        root = _foot_point(p, t, x)
        assert len(iterates) <= 10
        steps = np.array(iterates)
        toward = np.sign(root - steps[0])
        assert np.all(np.diff(steps) * toward >= 0)
        assert np.all((root - steps) * toward >= 0)


def test_a_report_level_solves_98_foot_points_on_floats(monkeypatch):
    # a wave_reports level on its wave: every pointwise (t, x) and
    # riemann_gap's two fan edges, in one array at its one t, solve on floats
    grids, points = [], []

    def spy(calls, solve):
        def spied(p, t, x):
            calls.append((sys._getframe(1).f_code.co_name, t, x))
            return solve(p, t, x)

        return spied

    monkeypatch.setattr(burgers, "_foot_points", spy(grids, _foot_points))
    monkeypatch.setattr(burgers, "_foot_point", spy(points, _foot_point))
    t = 5.0
    delta = REPORT_WAVE.params.delta
    x0 = np.random.default_rng(3).uniform(-3.0 * delta, 3.0 * delta, 16)
    derivative_decay_report(REPORT_WAVE, [t], [1.0, 2.0, math.inf])
    riemann_gap(REPORT_WAVE, t)
    for x in x0 + t * burgers_init(REPORT_WAVE.params, x0):
        REPORT_WAVE.state(t, x)
        euler_residual(REPORT_WAVE, t, x)
    ((caller, t_grid, x_edges),) = grids
    p = REPORT_WAVE.params
    assert caller == "riemann_gap" and type(t_grid) is float
    assert x_edges.tolist() == [t * p.omega_minus, t * p.omega_plus]
    assert len(points) == 98
    assert all(type(ti) is float and type(xi) is float for _, ti, xi in points)


@pytest.mark.parametrize("t", [0.0, 0.5, 5.0, 50.0])
def test_order0_lift_ties_the_order2_values_exactly(t):
    # order 0 lifts omega0(x0) without the derivative arrays; its values are
    # those of the order-2 profile bit for bit
    x0 = np.concatenate((_char_grid(REPORT_WAVE.params), np.linspace(-40.0, 90.0, 1001)))
    low = REPORT_WAVE._profile_at_feet(t, x0, 0)
    full = REPORT_WAVE._profile_at_feet(t, x0, 2)
    assert set(low) == {"omega", "rho", "u1", "theta"}
    for k in low:
        assert np.array_equal(low[k], full[k])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_scalar_profile_is_the_one_point_array_profile(order):
    # one lift for scalars and arrays: the same numbers
    rng = np.random.default_rng(12)
    ts, xs = np.r_[0.0, rng.uniform(0.0, 60.0, 200)], np.r_[0.3, rng.uniform(-5.0, 120.0, 200)]
    for t, x in zip(ts.tolist(), xs.tolist()):
        one = REPORT_WAVE.profile(t, np.array([x]), order=order)
        assert REPORT_WAVE.profile(t, x, order=order) == {k: float(a[0]) for k, a in one.items()}


def test_state_is_scalar_profile():
    # one evaluation path: state lifts the scalar order-0 profile
    rng = np.random.default_rng(11)
    for delta in (0.1, 0.5, 2.0):
        wave = SmoothWave(REPORT_DATA, delta)
        for t, x in zip(rng.uniform(0.0, 60.0, 300), rng.uniform(-5.0, 120.0, 300)):
            s = wave.state(t, x)
            prof = wave.profile(t, x, order=0)
            assert (s.rho, s.u1, s.theta) == (prof["rho"], prof["u1"], prof["theta"])


def test_monotone_and_bounded():
    x = np.linspace(-4, 4, 4001)
    for t in (0.1, 1.0, 10.0):
        w, wx, _ = _eval_at_feet(PARAMS, t, _foot_points(PARAMS, t, x))[:3]
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
            # points of x in [-4, 4 + t SPAN], taken at known feet: x0 -> x0 + t omega0(x0)
            # is increasing, so the feet of the two ends bound the feet of the grid
            x0 = np.linspace(_foot_point(p, t, -4.0), _foot_point(p, t, 4 + t * SPAN), 30001)
            wx = _eval_at_feet(p, t, x0)[1]
            best = max(best, wx.max() * (delta + t))
        consts.append(best)
    assert max(consts) <= 1.2
    assert max(consts) / min(consts) <= 2.0


class TestSmoothWave:
    wave = SmoothWave(DATA, 0.3)

    def test_edge_speeds_consistency(self):
        # (data, delta) fix the wave: its edge speeds are lambda3 of the end states
        assert SmoothWave(DATA, 0.3).params == WaveParams(0.3, lambda3(LEFT), lambda3(DATA.right))
        assert self.wave == SmoothWave(DATA, 0.3)
        with pytest.raises(ValueError, match="delta"):
            SmoothWave(DATA, -0.1)

    def test_build_is_the_constructor(self):
        # the alias stays while _wave() of perfbench/workloads.py, its one caller, calls it
        assert SmoothWave.build(DATA, 0.3) == self.wave

    def test_rejects_an_infinite_width(self):
        # an infinite delta built a flat wave whose gradients, and so its gbar, were zero
        with pytest.raises(ValueError, match="delta must be finite"):
            SmoothWave(DATA, math.inf)

    def test_pointwise_paths_reject_non_finite_points(self):
        # nan and inf ran Newton to its iteration cap, with RuntimeWarnings for inf
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                self.wave.state(2.0, x)
        with pytest.raises(ValueError, match="x must be finite"):
            self.wave.profile(1.0, np.array([0.0, math.inf]))
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                self.wave.profile(t, 0.2)
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                euler_residual(self.wave, t, 0.0)

    def test_profile_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            self.wave.profile(-1.0, 0.2)

    def test_profile_and_the_vectorized_newton_take_one_time(self):
        # an array of times reached 0.0 <= t < inf, whose truth value NumPy
        # calls ambiguous, before the one-time check
        t = np.array([0.5, 1.0])
        for x in (0.2, np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="t must be one time"):
                self.wave.profile(t, x)
        with pytest.raises(ValueError, match="t must be one time"):
            _foot_points(self.wave.params, t, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="t must be one time"):
            _foot_point(self.wave.params, t, 0.2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda wave, t: wave.profile(t, np.array([0.1, 0.2])),
            lambda wave, t: wave.state(t, 0.2),
            lambda wave, t: riemann_gap(wave, t),
            lambda wave, t: euler_residual(wave, t, 0.2),
        ],
        ids=["profile", "state", "riemann_gap", "euler_residual"],
    )
    def test_a_one_element_array_of_times_is_rejected(self, call):
        # one time passed 0.0 <= t < inf: profile and euler_residual returned
        # values, state and riemann_gap raised TypeError; two raised NumPy's
        # "truth value of an array is ambiguous"
        for t in (np.array([0.5]), np.array([0.5, 1.0])):
            with pytest.raises(ValueError, match="t must be one time"):
                call(self.wave, t)

    def test_state_rejects_an_x_that_is_not_one_point(self):
        # float(x) raised TypeError for shapes (1,) and (2,)
        for x in (np.array([0.2]), np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="x must be one point"):
                self.wave.state(1.0, x)
        for x in (np.array(0.2), np.float64(0.2)):
            assert self.wave.state(1.0, x) == self.wave.state(1.0, 0.2)

    def test_profile_rejects_an_order_outside_0_to_2(self, monkeypatch):
        # order 3 returned the order-2 dict, -1 the order-0 one and 1.5 the
        # order-1 one; the check runs before any foot point is solved
        def unsolved(p, t, x):
            raise AssertionError("foot points solved for a bad order")

        monkeypatch.setattr(burgers, "_foot_points", unsolved)
        monkeypatch.setattr(burgers, "_foot_point", unsolved)
        for bad in (3, -1, 1.5):
            with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
                self.wave.profile(1.0, 0.2, order=bad)

    def test_far_field_states(self):
        for x, ref in ((-60.0, LEFT), (60.0, DATA.right)):
            s = self.wave.state(1.0, x)
            assert s.rho == pytest.approx(ref.rho, rel=1e-12)
            assert s.u1 == pytest.approx(ref.u1, abs=1e-12)
            assert s.theta == pytest.approx(ref.theta, rel=1e-12)

    def test_speed_consistency(self):
        # omega is lambda3 of the lifted state
        p = self.wave.params
        for (t, x) in ((0.5, 0.1), (2.0, 0.35), (1.0, -0.2)):
            w = _eval_at_feet(p, t, _foot_points(p, t, x))[0]
            assert lambda3(self.wave.state(t, x)) == pytest.approx(w[0], rel=1e-13)

    def test_theta_gradient_identity(self):
        # theta_x = sqrt(2/5) sqrt(theta) u1_x, exact on the curve
        prof = self.wave.profile(1.3, np.linspace(-2, 3, 101), order=1)
        lhs = prof["theta_x"]
        rhs = math.sqrt(0.4) * np.sqrt(prof["theta"]) * prof["u1_x"]
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert np.all(prof["u1_x"] > 0)

    def test_u1_gradient_proportional_to_omega(self):
        x, p = np.linspace(-1, 2, 51), self.wave.params
        prof = self.wave.profile(0.7, x, order=1)
        w, wx, _ = _eval_at_feet(p, 0.7, _foot_points(p, 0.7, x))[:3]
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
    wave = SmoothWave(DATA, 0.25)

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

    def test_batched_stencil_matches_pointwise(self, monkeypatch):
        # one array lift of the five stencil points, at feet one Newton step
        # past _foot_point's stop; the curve lift may round arrays and scalars
        # differently in the last bit
        calls = []
        at_feet = SmoothWave._profile_at_feet

        def spy(wave, t, x0, order):
            calls.append((np.broadcast_to(t, np.shape(x0)), x0))
            return at_feet(wave, t, x0, order)

        monkeypatch.setattr(SmoothWave, "_profile_at_feet", spy)
        t, x, h = 1.0, 0.6, 1e-5
        r = euler_residual(self.wave, t, x, h)
        monkeypatch.undo()
        ((ts, x0),) = calls
        assert len(x0) == 5
        xs = x + h * np.array([1.0, -1.0, 0.0, 0.0, 0.0])
        assert np.all(np.abs(x0 + ts * burgers_init(self.wave.params, x0) - xs) <= 1e-15)
        prof = at_feet(self.wave, ts, x0, 0)
        points = [at_feet(self.wave, ti, np.array([fi]), 0) for ti, fi in zip(ts, x0)]
        rho, u1, th = (np.array([pt[k][0] for pt in points]) for k in ("rho", "u1", "theta"))
        for name, ref in (("rho", rho), ("u1", u1), ("theta", th)):
            assert np.all(np.abs(prof[name] - ref) <= np.spacing(np.abs(ref)))
        # pointwise reference; 1-ulp inputs give at most a few ulp per flux
        # entry, amplified by 1/(2h)
        cons = np.array([rho, rho * u1, 0.0 * rho, rho * th])
        flux = np.array([rho * u1, rho * u1 * u1 + GAS_R * rho * th, 0.0 * rho, rho * u1 * th])
        ref = (cons[:, 2] - cons[:, 3] + flux[:, 0] - flux[:, 1]) / (2 * h)
        ref[3] += GAS_R * rho[4] * th[4] * (u1[0] - u1[1]) / (2 * h)
        bound = 20 * np.finfo(float).eps * np.abs(flux).max() / h
        assert np.max(np.abs(r - ref)) <= bound

    @pytest.mark.parametrize("wave", [wave, REPORT_WAVE], ids=["DATA", "REPORT"])
    def test_rows_are_the_array_algebra_on_the_same_lift_bit_for_bit(self, wave, monkeypatch):
        # the rows are formed on floats in the order of this array algebra,
        # at 100 seeded (t, x) per wave with t in [0.5, 50]
        lifts = []
        at_feet = SmoothWave._profile_at_feet

        def spy(wave, t, x0, order):
            lifts.append(at_feet(wave, t, x0, order))
            return lifts[-1]

        monkeypatch.setattr(SmoothWave, "_profile_at_feet", spy)
        rng, p, h = np.random.default_rng(17), wave.params, 1e-5
        for t, u in zip(rng.uniform(0.5, 50.0, 100).tolist(), rng.uniform(-3.0, 3.0, 100)):
            x = float(u * p.delta + t * burgers_init(p, u * p.delta))
            lifts.clear()
            r = euler_residual(wave, t, x, h)
            ((rho, u1, th),) = ([prof[k] for k in ("rho", "u1", "theta")] for prof in lifts)
            pressure = GAS_R * rho * th
            zero = 0.0 * rho
            cons = np.array([rho, rho * u1, zero, rho * th])
            flux = np.array([rho * u1, rho * u1 * u1 + pressure, zero, rho * u1 * th])
            ref = (cons[:, 2] - cons[:, 3]) / (2 * h) + (flux[:, 0] - flux[:, 1]) / (2 * h)
            ref[3] += pressure[4] * (u1[0] - u1[1]) / (2 * h)
            assert r.dtype == ref.dtype and r.tobytes() == ref.tobytes()

    def test_rejects_an_x_that_is_not_one_point(self):
        # a one-element array returned the residual at 0.2, a two-element one
        # raised NumPy's broadcast error
        for x in (np.array([0.2]), np.array([0.1, 0.2]), [0.2]):
            with pytest.raises(ValueError, match="x must be one point"):
                euler_residual(self.wave, 1.0, x)
        one = euler_residual(self.wave, 1.0, np.array(0.2))
        assert np.array_equal(one, euler_residual(self.wave, 1.0, 0.2))

    def test_stencil_feet_past_the_foot_point_stop(self):
        # on this wave four stencil feet stop at the 1e-13 (1 + |x|) term of
        # the foot-point tolerance, and without the extra Newton step the
        # residual read 5.5e-9 here (2.2e-11 with it)
        wave = SmoothWave(RiemannData.from_density(GasState.make(1.0, 0.0, 1.0), 1.5), 0.5)
        r = euler_residual(wave, 49.04790732208202, 51.95099840878549)
        assert np.max(np.abs(r)) <= 1e-10

    def test_requires_time_headroom(self):
        with pytest.raises(ValueError):
            euler_residual(self.wave, 1e-6, 0.0, 1e-5)
        # a zero step would divide by zero; a negative one would pass t > h
        for bad in (0.0, -1e-5):
            with pytest.raises(ValueError, match="stencil_h"):
                euler_residual(self.wave, 1.0, 0.0, bad)


class TestCharGridEvaluation:
    def test_arrays_are_read_only(self):
        wave = SmoothWave(DATA, 0.3)
        c = wave._char_eval
        assert set(c) == {"x0", "w", "gp", "gpp"} | {
            k + d for k in ("rho", "u1", "theta") for d in ("", "_w", "_ww")
        }
        arrays = [a for a in c.values() if isinstance(a, np.ndarray)]
        assert len(arrays) == 10  # u1_w, u1_ww and theta_ww are constants
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        with pytest.raises(TypeError):
            c["x0"] = np.zeros(3)

    def test_equal_waves_stay_equal_after_one_fills_its_cache(self):
        a, b = SmoothWave(DATA, 0.3), SmoothWave(DATA, 0.3)
        derivative_decay_report(a, [1.0], [2.0])
        assert "_char_eval" in vars(a) and "_char_eval" not in vars(b)
        assert a == b and hash(a) == hash(b)

    def test_a_fresh_waves_first_reports_equal_a_warm_waves(self):
        # a wave evaluates its characteristic grid on first use; that first
        # report gives the values every later one gives
        warm = SmoothWave(REPORT_DATA, 0.5)
        derivative_decay_report(warm, [1.0], [2.0])
        assert "_char_eval" in vars(warm)
        for t in (0.5, 5.0, 50.0):
            p = [1.0, 2.0, math.inf]
            first = derivative_decay_report(SmoothWave(REPORT_DATA, 0.5), [t], p)
            assert first == derivative_decay_report(warm, [t], p)
            assert riemann_gap(SmoothWave(REPORT_DATA, 0.5), t) == riemann_gap(warm, t)

    def test_pointwise_paths_leave_it_unbuilt(self):
        # only the two reports read the grid; state, profile and the
        # residual (and gbar_construct, which reads profile) never build it
        wave = SmoothWave(DATA, 0.3)
        wave.state(2.0, 0.1)
        for order in (0, 1, 2):
            wave.profile(2.0, np.linspace(-1.0, 1.0, 5), order=order)
        euler_residual(wave, 2.0, 0.1)
        assert "_char_eval" not in vars(wave)


class TestDecayReport:
    def test_l1_first_derivative_exact(self):
        # each component is monotone, so the L1 norm of its derivative is its
        # jump; the euclidean-magnitude norm then lies between the largest
        # jump and the sum of jumps
        wave = SmoothWave(DATA, 0.3)
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
        # points taken at known feet, x = x0 + t omega0(x0), with no foot-point solve
        x0 = np.linspace(-12, 12, 200001)
        for t in (0.5, 2.0):
            x = x0 + t * burgers_init(PARAMS, x0)
            wx = _eval_at_feet(PARAMS, t, x0)[1]
            tv = np.trapezoid(wx, x)
            assert tv == pytest.approx(SPAN, rel=1e-8)

    def test_ratios_bounded(self):
        wave = SmoothWave(DATA, 0.3)
        rows = derivative_decay_report(wave, [0.1, 1.0, 10.0, 100.0], [1.0, 2.0, math.inf])
        assert all(r.ratio < 5.0 for r in rows)
        # and the p=inf first-derivative constant is O(1)
        assert all(r.ratio <= 1.2 for r in rows if r.j == 1 and math.isinf(r.p))

    def test_rejects_exponents_below_one(self):
        # p = 0 divided by zero and p < 0 returned 0.0 with a RuntimeWarning
        wave = SmoothWave(DATA, 0.3)
        for bad in (0.0, -1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="p >= 1"):
                derivative_decay_report(wave, [1.0], [2.0, bad])

    def test_rejects_negative_time(self):
        wave = SmoothWave(DATA, 0.3)
        for bad in (-1.0, -1e-12, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                derivative_decay_report(wave, [1.0, bad], [2.0])

    def test_rejects_an_infinite_time(self):
        # t = inf returned a row whose value was nan
        wave = SmoothWave(DATA, 0.3)
        for bad in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                derivative_decay_report(wave, [1.0, bad], [2.0])

    @pytest.mark.parametrize("delta", [0.3, 0.1])
    def test_known_feet_match_newton_path(self, delta):
        # the report evaluates at the grid's own foot points; solving for
        # them again from x (the Newton path) must give the same rows
        wave = SmoothWave(DATA, delta)
        ps = [1.0, 2.0, math.inf]
        x0 = _char_grid(wave.params)
        g, gp, _ = burgers._init_derivs(wave.params, x0)
        for t in (0.0, 0.1, 1.0, 10.0, 100.0):
            x, jac = x0 + t * g, 1.0 + t * gp
            prof = wave.profile(t, x, order=2)
            mags = [
                np.sqrt(sum(prof[f"{k}_{d}"] ** 2 for k in ("rho", "u1", "theta")))
                for d in ("x", "xx")
            ]
            ref = [
                np.max(m) if math.isinf(p) else np.trapezoid(m**p * jac, x0) ** (1.0 / p)
                for p in ps
                for m in mags
            ]
            got = [r.value for r in derivative_decay_report(wave, [t], ps)]
            assert np.allclose(got, ref, rtol=1e-12, atol=0)

    def test_times_in_one_call_match_one_call_each(self):
        # every t reads the same grid evaluation, so the rows do not depend
        # on which call built it
        wave = SmoothWave(DATA, 0.3)
        ps, times = [1.0, 2.0, math.inf], [0.1, 3.0, 40.0]
        rows = derivative_decay_report(wave, times, ps)
        assert rows == [r for t in times for r in derivative_decay_report(wave, [t], ps)]
        assert rows == [
            r for t in times for r in derivative_decay_report(SmoothWave(DATA, 0.3), [t], ps)
        ]

    def test_generator_inputs_match_lists(self):
        # the input checks consumed generators, and the report returned []
        wave = SmoothWave(DATA, 0.3)
        ref = derivative_decay_report(wave, [1.0, 2.0], [2.0, math.inf])
        assert len(ref) == 8
        assert derivative_decay_report(wave, (t for t in [1.0, 2.0]), [2.0, math.inf]) == ref
        assert derivative_decay_report(wave, [1.0, 2.0], (p for p in [2.0, math.inf])) == ref

    @pytest.mark.parametrize("t", [0.0, 0.5, 5.0, 50.0])
    def test_rows_tie_the_order2_profile_exactly(self, t):
        # the report forms only the x- and xx-derivatives, with the
        # expressions of _profile_at_feet(order=2): the norms agree bit for bit
        x0 = _char_grid(REPORT_WAVE.params)
        jac = 1.0 + t * burgers._init_derivs(REPORT_WAVE.params, x0)[1]
        prof = REPORT_WAVE._profile_at_feet(t, x0, 2)
        ps = [1.0, 2.0, math.inf]
        mags = [
            np.sqrt(sum(prof[f"{k}_{d}"] ** 2 for k in ("rho", "u1", "theta")))
            for d in ("x", "xx")
        ]
        ref = [
            np.max(m) if math.isinf(p) else np.trapezoid(m**p * jac, x0) ** (1.0 / p)
            for p in ps
            for m in mags
        ]
        assert [r.value for r in derivative_decay_report(REPORT_WAVE, [t], ps)] == ref

    def test_second_derivative_constant_stable(self):
        consts = []
        for delta in (0.2, 0.1):
            wave = SmoothWave(DATA, delta)
            rows = derivative_decay_report(wave, [0.1, 1.0, 10.0], [math.inf])
            consts.append(max(r.ratio for r in rows if r.j == 2))
        assert 0.5 <= consts[0] / consts[1] <= 2.0


def fan_distance(wave, t, x, prof):
    """max over rho, u1, theta of sup |prof - fan| at the points x, prof there at t."""
    fan = wave._curve_values(x / t)
    return max(float(np.max(np.abs(prof[k] - fan[k]))) for k in ("rho", "u1", "theta"))


# the gap's wave and the benchmark's, at times from the transition to the far field
GAP_CASES = pytest.mark.parametrize(
    "wave, t",
    [(wave, t) for wave in (SmoothWave(DATA, 0.1), REPORT_WAVE) for t in (0.5, 2.0, 5.0, 50.0)],
    ids=[f"{name}-t{t:g}" for name in ("DATA", "REPORT_DATA") for t in (0.5, 2.0, 5.0, 50.0)],
)


class TestRiemannGap:
    def test_fan_closed_form_matches_pointwise_solver(self):
        wave = SmoothWave(DATA, 0.1)
        t = 2.0
        for xi in (1.25, 1.30, 1.35, 1.42, 1.50):
            ref = riemann_rarefaction(DATA, xi)
            fan = wave._curve_values(xi)
            assert float(fan["rho"]) == pytest.approx(ref.rho, rel=1e-13)
            assert float(fan["u1"]) == pytest.approx(ref.u1, abs=1e-13)
            assert float(fan["theta"]) == pytest.approx(ref.theta, rel=1e-13)

    def test_gap_decreases_in_time(self):
        wave = SmoothWave(DATA, 0.1)
        gaps = [riemann_gap(wave, t)[0] for t in (0.5, 1.0, 2.0, 5.0)]
        assert gaps[0] > gaps[-1]
        assert gaps[-1] < 0.05

    def test_constants_bounded_and_stable(self):
        consts = []
        for delta in (0.2, 0.1, 0.05):
            wave = SmoothWave(DATA, delta)
            ratios = [
                riemann_gap(wave, t)[0] / riemann_gap(wave, t)[1]
                for t in (0.5, 1.0, 2.0, 5.0)
            ]
            assert max(ratios) < 1.0
            consts.append(max(ratios))
        assert max(consts) / min(consts) <= 2.0

    @pytest.mark.parametrize("delta", [0.2, 0.1, 0.05])
    def test_known_feet_match_newton_path(self, delta):
        # reference: the characteristic grid and the two fan edges merged and
        # every foot point solved from x
        wave = SmoothWave(DATA, delta)
        p = wave.params
        x0 = _char_grid(p)
        for t in (0.5, 1.0, 2.0, 5.0, 50.0):
            x_char = x0 + t * burgers_init(p, x0)
            x = np.union1d(x_char, t * np.array([p.omega_minus, p.omega_plus]))
            ref = fan_distance(wave, t, x, wave.profile(t, x, order=0))
            assert riemann_gap(wave, t)[0] == pytest.approx(ref, rel=1e-11, abs=0)

    @pytest.mark.parametrize("delta", [0.2, 0.05])
    def test_equals_the_concatenated_grids_exactly(self, delta):
        # reference: the characteristic grid at its known feet and the two fan
        # edges at _foot_point feet, in one array; the sup over the two apart
        # is the same float
        wave = SmoothWave(DATA, delta)
        p = wave.params
        x0 = _char_grid(p)
        for t in (0.5, 5.0, 50.0):
            x_edges = [t * p.omega_minus, t * p.omega_plus]
            x = np.concatenate((x0 + t * burgers_init(p, x0), x_edges))
            feet = np.concatenate((x0, [_foot_point(p, t, xe) for xe in x_edges]))
            ref = fan_distance(wave, t, x, wave._profile_at_feet(t, feet, order=0))
            assert riemann_gap(wave, t).gap == ref

    @GAP_CASES
    def test_is_the_sup_over_a_fine_grid(self, wave, t):
        # the fan is only Lipschitz at its two edges, where the sup sits; a
        # fine grid of feet reaches it from below, to its spacing
        p = wave.params
        x0 = np.linspace(-30.0 * p.delta, 30.0 * p.delta, 200001)
        x = x0 + t * burgers_init(p, x0)
        fine = fan_distance(wave, t, x, wave._profile_at_feet(t, x0, order=0))
        gap = riemann_gap(wave, t).gap
        assert 0.0 <= (gap - fine) / gap <= 2.5e-4

    @GAP_CASES
    def test_is_at_least_the_fan_grid_sup(self, wave, t):
        # the sup over the characteristic grid and 8001 uniform samples across
        # the fan opening, the gap's two grids before it took the fan edges,
        # lies slightly below the gap
        p = wave.params
        pad = 0.2 * (p.omega_plus - p.omega_minus) + 4.0 * p.delta / t
        x_fan = t * np.linspace(p.omega_minus - pad, p.omega_plus + pad, 8001)
        c = wave._char_eval
        old = max(
            fan_distance(wave, t, c["x0"] + t * c["w"], c),
            fan_distance(wave, t, x_fan, wave._profile_at_feet(t, _foot_points(p, t, x_fan), 0)),
        )
        gap = riemann_gap(wave, t).gap
        assert 0.0 <= (gap - old) / gap <= 1.5e-3

    def test_returns_a_gap_report(self):
        report = riemann_gap(SmoothWave(DATA, 0.1), 2.0)
        gap, shape = report
        assert isinstance(report, GapReport)
        assert (report.gap, report.shape) == (report[0], report[1]) == (gap, shape)
        assert report.ratio == gap / shape < 1.0
        assert json.loads(json.dumps(report._asdict())) == {"gap": gap, "shape": shape}

    def test_rejects_nonpositive_time(self):
        wave = SmoothWave(DATA, 0.1)
        with pytest.raises(ValueError):
            riemann_gap(wave, 0.0)

    def test_rejects_a_non_finite_time(self):
        # t = inf ran the foot-point Newton to its cap, with RuntimeWarnings
        wave = SmoothWave(DATA, 0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite t > 0"):
                riemann_gap(wave, bad)
