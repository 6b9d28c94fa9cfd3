"""Smooth approximate rarefaction waves via the Burgers equation.

The fan speed omega is evolved exactly by the method of characteristics from
tanh initial data of width delta,

    omega0(x) = (omega+ + omega-)/2 + ((omega+ - omega-)/2) tanh(x/delta),

and the fluid variables are lifted through the 3-rarefaction curve of the
left state, so that omega coincides with lambda3 of the lifted state.  All
derivatives are computed analytically by implicit differentiation of the
characteristic relation x = x0 + t omega0(x0); finite differences appear only
in the residual cross-check.

Paths given x solve for the foot points x0 point by point, on Python floats,
by monotone Newton from the tanh inflection (``_foot_point``): ``state``,
``profile``, ``euler_residual``'s stencil and the two fan edges of
``riemann_gap``; the characteristic-grid reports choose x0 and solve none.
``_init_derivs`` turns ``np.tanh`` of a float back into a float, so each
Newton step runs on Python floats, not NumPy scalars, and ``WaveParams``
forms ``mid`` and ``half_span`` once, not at each read.  +, -, * and / round
alike on floats and NumPy doubles, so the roots are bit for bit those of
array arithmetic.  The lift of x0 to (rho, u1, theta) stays on arrays, even
for one point: a float ``z ** 3`` rounds differently from NumPy's array
power for about one z in twenty.
Along a characteristic only x and the Jacobian 1 + t omega0'(x0) depend on t,
so each wave evaluates itself on that grid once, on first use, and
``derivative_decay_report`` and ``riemann_gap`` read that one evaluation at
every t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .euler import GAS_R, GasState, RiemannData, curve_coefficients, curve_lift, lambda3

FOOT_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class WaveParams:
    """Burgers data: transition width and ordered fan-edge speeds.

    ``mid`` and ``half_span`` are formed once, as the foot-point Newton reads
    them at every step; they take no argument and no part in eq, hash or repr.
    """

    delta: float
    omega_minus: float
    omega_plus: float
    mid: float = field(init=False, repr=False, compare=False)
    half_span: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        if not (math.isfinite(self.omega_minus) and math.isfinite(self.omega_plus)):
            raise ValueError("edge speeds must be finite")
        if not (self.omega_minus < self.omega_plus):
            raise ValueError("need omega_minus < omega_plus")
        object.__setattr__(self, "mid", 0.5 * (self.omega_plus + self.omega_minus))
        object.__setattr__(self, "half_span", 0.5 * (self.omega_plus - self.omega_minus))


def burgers_init(p: WaveParams, x):
    """Initial profile omega0(x); accepts scalars or arrays."""
    return p.mid + p.half_span * np.tanh(np.asarray(x, dtype=float) / p.delta)


def _init_derivs(p: WaveParams, x0, order: int = 2):
    """omega0 and its first ``order`` (1 or 2) derivatives at x0, omega0 as ``burgers_init``.

    For a float x0, ``np.tanh``'s NumPy scalar is turned back into a float,
    so the Newton step runs on floats, with the bits of a one-point array.
    """
    th = np.tanh(x0 / p.delta)
    if type(x0) is float:
        th = float(th)
    sech2 = 1.0 - th * th
    g = p.mid + p.half_span * th
    gp = p.half_span / p.delta * sech2
    if order == 1:
        return g, gp
    gpp = -2.0 * p.half_span / (p.delta * p.delta) * sech2 * th
    return g, gp, gpp


def _check_time(t) -> None:
    """Raise ``ValueError`` unless t is one finite time >= 0."""
    # first, so an array never reaches the comparison; np.ndim costs 1 us on a float
    if type(t) is not float and np.ndim(t) != 0:
        raise ValueError(f"t must be one time, got an array of shape {np.shape(t)}")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")


def _foot_point(p: WaveParams, t: float, x: float) -> float:
    """Solve x = x0 + t omega0(x0) for x0 at one (t, x), on Python floats (monotone Newton).

    F(x0) = x0 + t omega0(x0) - x is increasing (omega0' > 0, t >= 0),
    convex for x0 < 0 and concave for x0 > 0, and its root lies in
    [x - omega+ t, x - omega- t].  Newton starts at the point of that interval
    nearest the inflection x0 = 0.  The start is then on the root's side of
    the inflection, and F there is >= 0 where F is convex and <= 0 where it
    is concave, so each tangent step lands between the iterate and the root:
    the iterates move monotonically to the root (Fourier's condition).  At
    t = 0 the start is x itself.  The tolerance has a floor at the round-off
    of F where t omega0 and x cancel.  t must be one finite time >= 0 and x
    finite, else ``ValueError``.
    """
    _check_time(t)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    x0 = min(x - p.omega_minus * t, max(0.0, x - p.omega_plus * t))
    speed = max(abs(p.omega_minus), abs(p.omega_plus))
    tol = 1e-13 * (1.0 + abs(x)) + 8.0 * _EPS * (abs(x) + t * speed)
    for _ in range(FOOT_MAX_ITER):
        g, gp = _init_derivs(p, x0, order=1)
        f = x0 + t * g - x
        if abs(f) <= tol:
            return float(x0)
        x0 = x0 - f / (1.0 + t * gp)
    raise RuntimeError(f"foot-point iteration failed for 1 points at t={t}")


def _foot_points(p: WaveParams, t: float, x):
    """``_foot_point`` at each point of x, at one t: the array form of the float driver."""
    _check_time(t)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.array([_foot_point(p, t, xi) for xi in x.ravel().tolist()]).reshape(x.shape)


def _eval_at_feet(p: WaveParams, t, x0):
    """(omega, w_x, w_t, w_xx, w_xt, w_tt) at known foot points, by implicit differentiation."""
    w, gp, gpp = _init_derivs(p, x0)
    jac = 1.0 + t * gp
    wx = gp / jac
    wxx = gpp / jac ** 3
    return w, wx, -w * wx, wxx, -(wx * wx + w * wxx), 2.0 * w * wx * wx + w * w * wxx


@dataclass(frozen=True)
class SmoothWave:
    """Smooth approximate 3-rarefaction wave lifted from the Burgers profile.

    The Riemann data and the width delta fix the wave: its Burgers edge
    speeds are lambda3 of the end states, and ``params`` is derived from them.
    """

    data: RiemannData
    delta: float
    params: WaveParams = field(init=False)

    def __post_init__(self):
        params = WaveParams(self.delta, lambda3(self.data.left), lambda3(self.data.right))
        object.__setattr__(self, "params", params)

    @classmethod
    def build(cls, data: RiemannData, delta: float) -> "SmoothWave":
        """``SmoothWave(data, delta)``; ``perfbench/workloads.py`` is the one caller left."""
        return cls(data, delta)

    @cached_property
    def _char_eval(self) -> MappingProxyType:
        """The t-independent part of the wave on ``_char_grid``, built on first read.

        ``x0``, omega0 (``w``), omega0' (``gp``), omega0'' (``gpp``) and
        ``_curve_values(omega0, order=2)``, every array read-only.
        """
        x0 = _char_grid(self.params)
        w, gp, gpp = _init_derivs(self.params, x0)
        out = {"x0": x0, "w": w, "gp": gp, "gpp": gpp, **self._curve_values(w, order=2)}
        for a in out.values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return MappingProxyType(out)

    def _curve_values(self, omega, order=0):
        """rho, u1, theta at omega clipped to the edge speeds, with omega-derivatives."""
        a, b, cstar = curve_coefficients(self.data.left)
        p = self.params
        omega = np.minimum(np.maximum(np.asarray(omega, dtype=float), p.omega_minus), p.omega_plus)
        z = (omega - a) / b
        out = dict(zip(("rho", "u1", "theta"), curve_lift(self.data.left, z)))
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
        if type(x) is not float and np.ndim(x) != 0:
            raise ValueError(f"x must be one point, got an array of shape {np.shape(x)}")
        c = self.profile(t, float(x), order=0)
        return GasState.make(c["rho"], c["u1"], c["theta"])

    def profile(self, t: float, x, order: int = 1) -> dict:
        """Arrays of (rho, u1, theta) and their (t, x)-derivatives at one t.

        order=0: values only; order=1: adds *_x and *_t; order=2: adds
        *_xx, *_xt, *_tt.  Everything is exact chain-rule algebra on the
        characteristic solution.  A scalar x gives floats.  Any other order
        raises ``ValueError``.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        if np.ndim(x) == 0:
            out = self._profile_at_feet(t, np.array([_foot_point(self.params, t, x)]), order)
            return {name: float(a[0]) for name, a in out.items()}
        return self._profile_at_feet(t, _foot_points(self.params, t, x), order)

    def _profile_at_feet(self, t, x0, order: int) -> dict:
        """``profile`` at known foot points x0; order 0 lifts omega0(x0) alone."""
        if order == 0:
            w = burgers_init(self.params, x0)
        else:
            w, wx, wt, wxx, wxt, wtt = _eval_at_feet(self.params, t, x0)
        c = self._curve_values(w, order=order)
        out = {"omega": w, "rho": c["rho"], "u1": c["u1"], "theta": c["theta"]}
        for name in ("rho", "u1", "theta") if order >= 1 else ():
            fw = c[name + "_w"]
            out[name + "_x"] = fw * wx
            out[name + "_t"] = fw * wt
            if order >= 2:
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
    the stencil error (O(h^2)).  Each stencil point solves its foot point
    with ``_foot_point``.  The five feet take one Newton step past its stop,
    whose error the 1 / (2 h) differences would amplify, and are lifted in
    one array call, as the module docstring says; the fluxes and rows are
    then formed on floats, in the order of the array algebra.  x must be
    one point and 0 < stencil_h < t, else ``ValueError``.
    """
    _check_time(t)
    if type(x) is not float and np.ndim(x) != 0:
        raise ValueError(f"x must be one point, got an array of shape {np.shape(x)}")
    if not stencil_h > 0.0:
        raise ValueError(f"stencil_h must be positive, got {stencil_h}")
    if t <= stencil_h:
        raise ValueError("need t > stencil_h for the centered time stencil")
    h = stencil_h
    # (t, x+h), (t, x-h), (t+h, x), (t-h, x), (t, x)
    ts = t + h * np.array([0.0, 0.0, 1.0, -1.0, 0.0])
    xs = x + h * np.array([1.0, -1.0, 0.0, 0.0, 0.0])
    x0 = np.array([_foot_point(wave.params, *tx) for tx in zip(ts.tolist(), xs.tolist())])
    g, gp = _init_derivs(wave.params, x0, order=1)
    prof = wave._profile_at_feet(ts, x0 - (x0 + ts * g - xs) / (1.0 + ts * gp), order=0)
    rho, u1, theta = (prof[k].tolist() for k in ("rho", "u1", "theta"))
    pressure = [GAS_R * r * th for r, th in zip(rho, theta)]
    # per stencil point, the four rows; transverse momentum is 0 (u2 = 0)
    cons = [(r, r * u, 0.0, r * th) for r, u, th in zip(rho, u1, theta)]
    flux = [
        (r * u, r * u * u + pr, 0.0, r * u * th) for r, u, th, pr in zip(rho, u1, theta, pressure)
    ]
    resid = [
        (ct - cb) / (2 * h) + (fr - fl) / (2 * h)
        for ct, cb, fr, fl in zip(cons[2], cons[3], flux[0], flux[1])
    ]
    resid[3] += pressure[4] * (u1[0] - u1[1]) / (2 * h)
    return np.array(resid)


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


def _char_grid(p: WaveParams):
    """Foot-point grid covering the derivative support."""
    half = 30.0 * p.delta
    return np.linspace(-half, half, 20001)


def derivative_decay_report(wave: SmoothWave, times, p_exponents) -> list[DecayRow]:
    """L^p norms of first and second x-derivatives of (rho, u1, theta).

    For each time and exponent p >= 1 (math.inf included) the report pairs
    the quadrature value with the decay shapes, with q = 1/p,
    (omega+ - omega-)^q (delta+t)^(-1+q) for j = 1 and
    delta^(-1+q) (delta+t)^(-1) for j = 2; the ratio column is the implied
    constant.  Norms integrate over the foot-point parameterization, where
    the integrand support is known exactly.  It reads the wave's one
    evaluation on that grid (``SmoothWave._char_eval``), and each time forms
    from it, by the chain rule of ``_profile_at_feet``, only the Jacobian and
    the x- and xx-derivatives.
    """
    times, p_exponents = tuple(times), tuple(p_exponents)
    if not all(p >= 1.0 for p in p_exponents):
        raise ValueError(f"exponents must satisfy p >= 1, got {list(p_exponents)}")
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError(f"times must be finite and nonnegative, got {list(times)}")
    p_ = wave.params
    span = p_.omega_plus - p_.omega_minus
    c = wave._char_eval
    x0, gp, gpp = c["x0"], c["gp"], c["gpp"]
    names = ("rho", "u1", "theta")
    rows = []
    for t in times:
        jac = 1.0 + t * gp
        wx, wxx = gp / jac, gpp / jac ** 3
        mag1 = np.sqrt(sum((c[k + "_w"] * wx) ** 2 for k in names))
        mag2 = np.sqrt(sum((c[k + "_ww"] * wx * wx + c[k + "_w"] * wxx) ** 2 for k in names))
        for p in p_exponents:
            q = 1.0 / p
            for j, mag, shape in (
                (1, mag1, span ** q * (p_.delta + t) ** (-1.0 + q)),
                (2, mag2, p_.delta ** (-1.0 + q) / (p_.delta + t)),
            ):
                value = np.max(mag) if math.isinf(p) else np.trapezoid(mag ** p * jac, x0) ** q
                rows.append(DecayRow(float(t), float(p), j, float(value), shape))
    return rows


class GapReport(NamedTuple):
    """Sup distance to the Riemann fan and the decay shape it is tested against."""

    gap: float
    shape: float

    @property
    def ratio(self) -> float:
        return self.gap / self.shape


def riemann_gap(wave: SmoothWave, t: float) -> GapReport:
    """Sup distance to the Riemann fan and the decay shape it is tested against.

    The shape is delta t^-1 (ln(1+t) + |ln delta|).  The fan is only
    Lipschitz at its edges x = t omega-, t omega+, where the sup sits, so it
    runs over the characteristic grid, read from the wave's one evaluation on
    it (``SmoothWave._char_eval``; it resolves the tanh transition), and over
    those two edge points, whose foot points are solved for.
    """
    if type(t) is not float and np.ndim(t) != 0:
        raise ValueError(f"t must be one time, got an array of shape {np.shape(t)}")
    if not 0.0 < t < math.inf:
        raise ValueError(f"gap defined for finite t > 0, got {t}")
    p = wave.params
    c = wave._char_eval
    x_edges = t * np.array([p.omega_minus, p.omega_plus])

    def sup(x, prof):
        # The fan is the curve lift of the similarity variable clipped to the
        # edge speeds, which is what _curve_values evaluates (cross-checked
        # against the pointwise Riemann solver in the tests).
        fan = wave._curve_values(x / t)
        return max(float(np.max(np.abs(prof[k] - fan[k]))) for k in ("rho", "u1", "theta"))

    gap = max(
        sup(c["x0"] + t * c["w"], c),
        sup(x_edges, wave._profile_at_feet(t, _foot_points(p, t, x_edges), order=0)),
    )
    shape = p.delta / t * (math.log1p(t) + abs(math.log(p.delta)))
    return GapReport(gap, shape)
