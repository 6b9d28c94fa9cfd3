"""Gas relations and rarefaction-curve tests.

Reference numbers were produced with a 30-digit mpmath session and are
hard-coded here so regressions show up as value drift, not oracle drift.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rarewave import euler
from rarewave.burgers import SmoothWave, derivative_decay_report, riemann_gap
from rarewave.euler import (
    GAS_R,
    K0,
    GasState,
    RiemannData,
    curve_coefficients,
    curve_lift,
    entropy,
    lambda3,
    pressure,
    r3_state,
    riemann_rarefaction,
)

LEFT = GasState.make(1.0, 0.0, 1.5)

# mpmath oracles, 17 significant digits
U1_AT_11 = 0.12502034957616264
TH_AT_11 = 1.5984033551499161
LAM3_LEFT = 1.2909944487358056
LAM3_AT_11 = 1.4576882481706891
S_LEFT = 2.8378770664093455
FAN_MID_RHO = 1.0492058820836167
FAN_MID_U1 = 0.062510174788081319
FAN_MID_TH = 1.5488109253797544

states = st.builds(
    GasState.make,
    st.floats(0.2, 5.0),
    st.floats(-2.0, 2.0),
    st.floats(0.2, 5.0),
)


def test_constants():
    assert GAS_R == 2.0 / 3.0
    assert K0 == pytest.approx(1.0 / (2.0 * math.pi * math.e), rel=0, abs=0)


def test_pressure_values():
    assert pressure(LEFT) == pytest.approx(1.0, rel=1e-15)
    assert pressure(GasState.make(2.0, 0.0, 1.5)) == pytest.approx(2.0, rel=1e-15)
    assert pressure(GasState.make(1.1, 0.0, TH_AT_11)) == pytest.approx(
        1.1721624604432718, rel=1e-15
    )


def test_entropy_values():
    assert entropy(LEFT) == pytest.approx(S_LEFT, rel=1e-15)
    assert entropy(GasState.make(math.exp(1.5), 0.0, 1.5)) == pytest.approx(
        math.log(2.0 * math.pi), rel=1e-14
    )


@given(states)
def test_entropy_pressure_identity(s):
    # p = k0 rho^(5/3) exp(S) is the defining relation for S
    assert K0 * s.rho ** (5.0 / 3.0) * math.exp(entropy(s)) == pytest.approx(
        pressure(s), rel=1e-13
    )


def test_lambda3_values():
    assert lambda3(LEFT) == pytest.approx(LAM3_LEFT, rel=1e-15)
    assert lambda3(LEFT) == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-15)
    assert lambda3(GasState.make(1.1, U1_AT_11, TH_AT_11)) == pytest.approx(
        LAM3_AT_11, rel=1e-15
    )


@given(states, st.floats(-3.0, 3.0))
def test_lambda3_galilean_shift(s, c):
    shifted = GasState.make(s.rho, s.u1 + c, s.theta)
    assert lambda3(shifted) == pytest.approx(lambda3(s) + c, abs=1e-12)


def test_r3_state_left_endpoint():
    s = r3_state(LEFT, LEFT.rho)
    assert (s.rho, s.u1, s.theta) == (LEFT.rho, LEFT.u1, LEFT.theta)


def test_r3_state_reference_point():
    s = r3_state(LEFT, 1.1)
    assert s.rho == 1.1
    assert s.u1 == pytest.approx(U1_AT_11, rel=1e-15)
    assert s.theta == pytest.approx(TH_AT_11, rel=1e-15)
    assert s.u[1] == 0.0 and s.u[2] == 0.0


def test_gas_state_rejects_non_finite_components():
    for args in ((1.0, math.nan, 1.0), (math.inf, 0.0, 1.0), (1.0, 0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            GasState.make(*args)
    with pytest.raises(ValueError, match="finite"):
        GasState(1.0, (0.0, 0.0, math.nan), 1.0)


def test_gas_state_rejects_nonpositive_and_short_components():
    for rho, theta, what in (
        (0.0, 1.0, "density"),
        (-1.0, 1.0, "density"),
        (1.0, 0.0, "temperature"),
        (1.0, -1.0, "temperature"),
    ):
        with pytest.raises(ValueError, match=what):
            GasState.make(rho, 0.0, theta)
    for u in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="three components"):
            GasState(1.0, u, 1.0)


def test_curve_lift_arrays_match_pointwise_states():
    rhos = np.linspace(1.0, 2.0, 11)
    rho, u1, theta = curve_lift(LEFT, rhos ** (1.0 / 3.0))
    for k, r in enumerate(rhos):
        s = r3_state(LEFT, float(r))
        want = (s.rho, s.u1, s.theta)
        assert (rho[k], u1[k], theta[k]) == pytest.approx(want, rel=1e-15, abs=1e-15)


def test_curve_coefficients_are_computed_once_per_left_state(monkeypatch):
    calls = []

    def counted(s):
        calls.append(s)
        return entropy(s)

    monkeypatch.setattr(euler, "entropy", counted)
    curve_coefficients.cache_clear()
    data = RiemannData.from_density(LEFT, 1.1)
    r3_state(LEFT, 1.05)
    riemann_rarefaction(data, 0.5 * (LAM3_LEFT + LAM3_AT_11))
    curve_lift(LEFT, np.linspace(1.0, 1.1 ** (1.0 / 3.0), 5))
    wave = SmoothWave(data, 0.5)
    wave.state(1.0, 1.4)
    wave.profile(1.0, np.linspace(0.5, 2.0, 5), order=2)
    derivative_decay_report(wave, [1.0], [2.0])
    riemann_gap(wave, 1.0)
    assert calls == [LEFT]
    RiemannData.from_density(GasState.make(1.0, 0.1, 1.5), 1.1)
    assert len(calls) == 2
    assert curve_coefficients(LEFT) == curve_coefficients.__wrapped__(LEFT)


def test_r3_state_rejects_compression():
    with pytest.raises(ValueError):
        r3_state(LEFT, 0.9)


def invariants(left, s):
    """Entropy and the velocity Riemann invariant, both constant on the curve."""
    riem = s.u1 - math.sqrt(15.0 * K0) * math.exp(entropy(s) / 2.0) * s.rho ** (1.0 / 3.0)
    return entropy(s), riem


@pytest.mark.parametrize("rho", [1.0, 1.01, 1.1, 1.3, 1.5, 1.7, 2.0])
def test_r3_invariants_constant(rho):
    s_left, r_left = invariants(LEFT, LEFT)
    s_cur, r_cur = invariants(LEFT, r3_state(LEFT, rho))
    assert s_cur == pytest.approx(s_left, rel=1e-13)
    assert r_cur == pytest.approx(r_left, rel=1e-13, abs=1e-13)


def test_lambda3_affine_in_cbrt_rho():
    a, b, _ = curve_coefficients(LEFT)
    for rho in (1.0, 1.2, 1.7, 2.0):
        s = r3_state(LEFT, rho)
        assert lambda3(s) == pytest.approx(a + b * rho ** (1.0 / 3.0), rel=1e-14)


def test_fan_state_closed_form_matches_bisection():
    # Independent route: bisect the monotone map rho -> lambda3(r3_state)
    target = 0.5 * (LAM3_LEFT + LAM3_AT_11)
    lo, hi = 1.0, 1.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lambda3(r3_state(LEFT, mid)) < target:
            lo = mid
        else:
            hi = mid
    s = riemann_rarefaction(RiemannData.from_density(LEFT, 1.1), target)
    assert s.rho == pytest.approx(0.5 * (lo + hi), rel=1e-13)
    assert s.rho == pytest.approx(FAN_MID_RHO, rel=1e-15)
    assert s.u1 == pytest.approx(FAN_MID_U1, rel=1e-15)
    assert s.theta == pytest.approx(FAN_MID_TH, rel=1e-15)


def test_riemann_data_validation():
    with pytest.raises(ValueError):
        RiemannData(LEFT, GasState.make(1.1, 0.2, 1.6))  # off the curve
    with pytest.raises(ValueError):
        RiemannData(LEFT, GasState(1.1, (U1_AT_11, 0.1, 0.0), TH_AT_11))
    with pytest.raises(ValueError):
        RiemannData(GasState.make(1.1, U1_AT_11, TH_AT_11), LEFT)  # compression


class TestRiemannFan:
    data = RiemannData.from_density(LEFT, 1.1)

    def test_constant_branches(self):
        assert riemann_rarefaction(self.data, LAM3_LEFT - 1.0) == self.data.left
        assert riemann_rarefaction(self.data, LAM3_AT_11 + 1.0) == self.data.right

    def test_fan_interior_consistency(self):
        for frac in (0.1, 0.33, 0.5, 0.77, 0.9):
            xi = LAM3_LEFT + frac * (LAM3_AT_11 - LAM3_LEFT)
            s = riemann_rarefaction(self.data, xi)
            assert lambda3(s) == pytest.approx(xi, rel=1e-12)
            s_inv = invariants(LEFT, s)
            l_inv = invariants(LEFT, LEFT)
            assert s_inv[0] == pytest.approx(l_inv[0], rel=1e-10)
            assert s_inv[1] == pytest.approx(l_inv[1], abs=1e-10)

    def test_continuity_at_edges(self):
        h = 1e-9
        for edge, ref in ((LAM3_LEFT, self.data.left), (LAM3_AT_11, self.data.right)):
            inner = riemann_rarefaction(self.data, edge + (h if ref is self.data.left else -h))
            assert inner.rho == pytest.approx(ref.rho, abs=1e-7)
            assert inner.u1 == pytest.approx(ref.u1, abs=1e-7)
            assert inner.theta == pytest.approx(ref.theta, abs=1e-7)

    def test_galilean_shift(self):
        c = 0.37
        shifted = RiemannData(
            GasState.make(LEFT.rho, LEFT.u1 + c, LEFT.theta),
            GasState.make(1.1, U1_AT_11 + c, TH_AT_11),
        )
        for xi in (1.30, 1.35, 1.40):
            base = riemann_rarefaction(self.data, xi)
            moved = riemann_rarefaction(shifted, xi + c)
            assert moved.rho == pytest.approx(base.rho, rel=1e-12)
            assert moved.u1 == pytest.approx(base.u1 + c, rel=1e-12)
            assert moved.theta == pytest.approx(base.theta, rel=1e-12)
