"""Smooth approximate rarefaction waves via the Burgers equation.

The fan speed omega is evolved exactly by the method of characteristics from
tanh initial data of width delta,

    omega0(x) = (omega+ + omega-)/2 + ((omega+ - omega-)/2) tanh(x/delta),

and the fluid variables are lifted through the 3-rarefaction curve of the
left state, so that omega coincides with lambda3 of the lifted state.  All
derivatives are computed analytically by implicit differentiation of the
characteristic relation x = x0 + t omega0(x0); finite differences appear only
in the residual cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .euler import GasState, RiemannData, curve_coefficients, curve_lift, lambda3, pressure

__all__ = [
    "WaveParams",
    "SmoothWave",
    "burgers_init",
    "burgers_eval_full",
    "euler_residual",
    "derivative_decay_report",
    "riemann_gap",
    "DecayRow",
]

FOOT_MAX_ITER = 100


@dataclass(frozen=True)
class WaveParams:
    """Burgers data: transition width and ordered fan-edge speeds."""

    delta: float
    omega_minus: float
    omega_plus: float

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (self.omega_minus < self.omega_plus):
            raise ValueError("need omega_minus < omega_plus")

    @property
    def mid(self) -> float:
        return 0.5 * (self.omega_plus + self.omega_minus)

    @property
    def half_span(self) -> float:
        return 0.5 * (self.omega_plus - self.omega_minus)


def burgers_init(p: WaveParams, x):
    """Initial profile omega0(x); accepts scalars or arrays."""
    return p.mid + p.half_span * np.tanh(np.asarray(x, dtype=float) / p.delta)


def _init_derivs(p: WaveParams, x0):
    """omega0, omega0', omega0'' at the foot points."""
    th = np.tanh(np.asarray(x0, dtype=float) / p.delta)
    sech2 = 1.0 - th * th
    g = p.mid + p.half_span * th
    gp = p.half_span / p.delta * sech2
    gpp = -2.0 * p.half_span / (p.delta * p.delta) * sech2 * th
    return g, gp, gpp


def _foot_points(p: WaveParams, t: float, x):
    """Solve x = x0 + t omega0(x0) for x0 (vectorized safeguarded Newton).

    The map is strictly increasing in x0 (omega0' > 0, t >= 0), so the root
    is unique and stays inside the bracket [x - omega+ t, x - omega- t].
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        return x.copy()
    lo = x - p.omega_plus * t
    hi = x - p.omega_minus * t
    x0 = np.clip(x - t * burgers_init(p, x), lo, hi)  # fixed-point starting guess
    tol = 1e-13 * (1.0 + np.abs(x))
    for k in range(FOOT_MAX_ITER + 1):
        g, gp, _ = _init_derivs(p, x0)
        f = x0 + t * g - x
        if np.all(np.abs(f) <= tol):
            return x0
        if k == FOOT_MAX_ITER:
            break
        lo = np.where(f < 0.0, x0, lo)
        hi = np.where(f > 0.0, x0, hi)
        step = f / (1.0 + t * gp)
        cand = x0 - step
        # Take the Newton candidate only when it stays in the bracket and
        # moves less than half the bracket width; otherwise bisect.  This
        # rules out the two-point cycling Newton is prone to on tanh data.
        ok = (cand > lo) & (cand < hi) & (np.abs(step) <= 0.5 * (hi - lo))
        x0 = np.where(ok, cand, 0.5 * (lo + hi))
    raise RuntimeError(
        f"foot-point iteration failed for {int(np.count_nonzero(np.abs(f) > tol))} points "
        f"at t={t} (bracket width {np.max(hi - lo):.3e})"
    )


def burgers_eval_full(p: WaveParams, t: float, x):
    """(omega, w_x, w_t, w_xx, w_xt, w_tt) by implicit differentiation."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x0 = _foot_points(p, t, x)
    g, gp, gpp = _init_derivs(p, x0)
    jac = 1.0 + t * gp
    w = g
    wx = gp / jac
    wxx = gpp / jac ** 3
    wt = -w * wx
    wxt = -(wx * wx + w * wxx)
    wtt = 2.0 * w * wx * wx + w * w * wxx
    out = (w, wx, wt, wxx, wxt, wtt)
    if scalar:
        return tuple(float(a[0]) for a in out)
    return out


@dataclass(frozen=True)
class SmoothWave:
    """Smooth approximate 3-rarefaction wave lifted from the Burgers profile."""

    params: WaveParams
    data: RiemannData
    _coeffs: tuple[float, float, float] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_coeffs", curve_coefficients(self.data.left))
        want_minus = lambda3(self.data.left)
        want_plus = lambda3(self.data.right)
        if not (
            math.isclose(self.params.omega_minus, want_minus, rel_tol=1e-12)
            and math.isclose(self.params.omega_plus, want_plus, rel_tol=1e-12)
        ):
            raise ValueError("wave edge speeds do not match the end states")

    @classmethod
    def build(cls, data: RiemannData, delta: float) -> "SmoothWave":
        return cls(WaveParams(delta, lambda3(data.left), lambda3(data.right)), data)

    @property
    def left(self) -> GasState:
        return self.data.left

    @property
    def right(self) -> GasState:
        return self.data.right

    def _curve_values(self, omega, order=0):
        """rho, u1, theta at omega clipped to the edge speeds, with omega-derivatives."""
        a, b, cstar = self._coeffs
        p = self.params
        omega = np.clip(np.asarray(omega, dtype=float), p.omega_minus, p.omega_plus)
        z = (omega - a) / b
        out = dict(zip(("rho", "u1", "theta"), curve_lift(self.left, z)))
        if order >= 1:
            out.update(
                rho_w=3.0 * z * z / b,
                u1_w=math.sqrt(15.0) * cstar / b,
                theta_w=3.0 * cstar * cstar * z / b,
            )
        if order >= 2:
            out.update(
                rho_ww=6.0 * z / (b * b),
                u1_ww=0.0,
                theta_ww=3.0 * cstar * cstar / (b * b),
            )
        return out

    def state(self, t: float, x: float) -> GasState:
        """Pointwise GasState of the wave (u2 = u3 = 0)."""
        w = burgers_eval_full(self.params, t, float(x))[0]
        c = self._curve_values(w)
        return GasState.make(float(c["rho"]), float(c["u1"]), float(c["theta"]))

    def profile(self, t: float, x, order: int = 1) -> dict:
        """Arrays of (rho, u1, theta) and their (t, x)-derivatives.

        order=0: values only; order=1: adds *_x and *_t; order=2: adds
        *_xx, *_xt, *_tt.  Everything is exact chain-rule algebra on the
        characteristic solution.
        """
        w, wx, wt, wxx, wxt, wtt = burgers_eval_full(self.params, t, x)
        c = self._curve_values(w, order=order)
        out = {"omega": w, "rho": c["rho"], "u1": c["u1"], "theta": c["theta"]}
        if order >= 1:
            for name in ("rho", "u1", "theta"):
                fw = c[name + "_w"]
                out[name + "_x"] = fw * wx
                out[name + "_t"] = fw * wt
        if order >= 2:
            for name in ("rho", "u1", "theta"):
                fw = c[name + "_w"]
                fww = c[name + "_ww"]
                out[name + "_xx"] = fww * wx * wx + fw * wxx
                out[name + "_xt"] = fww * wx * wt + fw * wxt
                out[name + "_tt"] = fww * wt * wt + fw * wtt
        return out


def euler_residual(wave: SmoothWave, t: float, x: float, stencil_h: float = 1e-5):
    """Finite-difference residual of the four-equation gas system at (t, x).

    Rows: mass, x-momentum, transverse momentum, internal energy.  Centered
    second-order differences with step ``stencil_h`` in both t and x; the
    analytic wave should satisfy the system, so the residual measures only
    the stencil error (O(h^2)).  Requires 0 < stencil_h < t.
    """
    if not stencil_h > 0.0:
        raise ValueError(f"stencil_h must be positive, got {stencil_h}")
    if t <= stencil_h:
        raise ValueError("need t > stencil_h for the centered time stencil")

    def cons(s):
        return np.array([s.rho, s.rho * s.u1, s.rho * s.u[1], s.rho * s.theta])

    def flux(s):
        return np.array(
            [
                s.rho * s.u1,
                s.rho * s.u1 * s.u1 + pressure(s),
                s.rho * s.u1 * s.u[1],
                s.rho * s.u1 * s.theta,
            ]
        )

    h = stencil_h
    xp = wave.state(t, x + h)
    xm = wave.state(t, x - h)
    resid = (cons(wave.state(t + h, x)) - cons(wave.state(t - h, x))) / (2 * h) + (
        flux(xp) - flux(xm)
    ) / (2 * h)
    resid[3] += pressure(wave.state(t, x)) * (xp.u1 - xm.u1) / (2 * h)
    return resid


@dataclass(frozen=True)
class DecayRow:
    t: float
    p: float
    j: int
    value: float
    bound_shape: float

    @property
    def ratio(self) -> float:
        return self.value / self.bound_shape


def _char_grid(wave: SmoothWave, t: float, n: int = 20001):
    """Foot-point grid covering the derivative support, with x and jacobian."""
    p = wave.params
    half = 30.0 * p.delta
    x0 = np.linspace(-half, half, n)
    g, gp, _ = _init_derivs(p, x0)
    x = x0 + t * g
    jac = 1.0 + t * gp
    return x0, x, jac


def derivative_decay_report(wave: SmoothWave, times, p_exponents) -> list[DecayRow]:
    """L^p norms of first and second x-derivatives of (rho, u1, theta).

    For each time and exponent p >= 1 (math.inf included) the report pairs
    the quadrature value with the decay shapes, with q = 1/p,
    (omega+ - omega-)^q (delta+t)^(-1+q) for j = 1 and
    delta^(-1+q) (delta+t)^(-1) for j = 2; the ratio column is the implied
    constant.  Norms integrate over the foot-point parameterization, where
    the integrand support is known exactly.
    """
    if not all(p >= 1.0 for p in p_exponents):
        raise ValueError(f"exponents must satisfy p >= 1, got {list(p_exponents)}")
    p_ = wave.params
    span = p_.omega_plus - p_.omega_minus
    rows = []
    for t in times:
        x0, x, jac = _char_grid(wave, t)
        prof = wave.profile(t, x, order=2)
        mag1 = np.sqrt(prof["rho_x"] ** 2 + prof["u1_x"] ** 2 + prof["theta_x"] ** 2)
        mag2 = np.sqrt(prof["rho_xx"] ** 2 + prof["u1_xx"] ** 2 + prof["theta_xx"] ** 2)
        for p in p_exponents:
            q = 1.0 / p
            for j, mag, shape in (
                (1, mag1, span ** q * (p_.delta + t) ** (-1.0 + q)),
                (2, mag2, p_.delta ** (-1.0 + q) / (p_.delta + t)),
            ):
                value = np.max(mag) if math.isinf(p) else np.trapezoid(mag ** p * jac, x0) ** q
                rows.append(DecayRow(float(t), float(p), j, float(value), shape))
    return rows


def riemann_gap(wave: SmoothWave, t: float) -> tuple[float, float]:
    """Sup distance to the Riemann fan and the decay shape it is tested against.

    Returns (gap, shape) with shape = delta t^-1 (ln(1+t) + |ln delta|).
    The sup runs over a merged grid: foot-point samples (resolving the tanh
    transition) plus uniform samples across the fan opening.
    """
    if not (t > 0.0):
        raise ValueError("gap defined for t > 0")
    p = wave.params
    _, x_char, _ = _char_grid(wave, t)
    pad = 0.2 * (p.omega_plus - p.omega_minus) + 4.0 * p.delta / t
    x_fan = t * np.linspace(p.omega_minus - pad, p.omega_plus + pad, 8001)
    x = np.union1d(x_char, x_fan)
    prof = wave.profile(t, x, order=0)
    # The fan is the curve lift of the clipped similarity variable, so the
    # same closed form evaluates it (cross-checked against the pointwise
    # Riemann solver in the tests).
    fan = wave._curve_values(np.clip(x / t, p.omega_minus, p.omega_plus))
    gap = max(
        float(np.max(np.abs(prof[name] - fan[name]))) for name in ("rho", "u1", "theta")
    )
    shape = p.delta / t * (math.log1p(t) + abs(math.log(p.delta)))
    return gap, shape
