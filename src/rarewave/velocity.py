"""Velocity-space discretization and the local-Maxwellian toolbox.

The velocity domain is a uniform tensor lattice on ``[-L, L]^3`` with
endpoint-inclusive trapezoid weights.  Uniformity is deliberate: the
collision operator built on top convolves fields with a fixed kernel, so
the nodes must be translation invariant (Gauss-Hermite nodes are not).

On the lattice live the 1-D difference matrices that every velocity
derivative of the package reads (``_stencils``), Maxwellians, their
moments, the macro basis chi_0..chi_4 and its projections P0/P1, the
soft-potential velocity weight, and the sigma-weighted dissipation norm.
The gas constant is fixed at R = 2/3 so that internal energy per unit
mass equals the temperature; downstream constants bake that in.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .euler import GAS_R, GasState

GAMMA_DEFAULT = -3.0

REFERENCE_STATE = GasState.make(1.0, 0.0, 1.5)


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform tensor lattice on [-L, L]^3 with trapezoid quadrature."""

    half_width: float = 8.0
    n_per_axis: int = 32

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        try:
            n = operator.index(self.n_per_axis)
        except TypeError:
            n = 0
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_per_axis must be an even integer >= 4, got {self.n_per_axis!r}")

    @property
    def shape(self) -> tuple[int, int, int]:
        n = self.n_per_axis
        return (n, n, n)

    @cached_property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n_per_axis)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_per_axis - 1)

    @cached_property
    def axis_weights(self) -> np.ndarray:
        """One-dimensional trapezoid weights; they sum to 2L exactly."""
        w = np.full(self.n_per_axis, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def weights(self) -> np.ndarray:
        w = self.axis_weights
        return w[:, None, None] * w[None, :, None] * w[None, None, :]

    @cached_property
    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense velocity component fields (v1, v2, v3)."""
        vx, vy, vz = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        return vx, vy, vz

    @cached_property
    def speed_sq(self) -> np.ndarray:
        vx, vy, vz = self.components
        return vx * vx + vy * vy + vz * vz

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of a nodal field over the velocity box."""
        return float(np.sum(values * self.weights))


@lru_cache(maxsize=1)
def _stencils(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The difference matrices of every velocity stencil on n nodes of spacing h.

    D is ``np.gradient``'s first difference: centered inside, one-sided
    at the faces.  S is the (n - 2) x n second difference on the interior
    nodes, which annihilates affine fields.  G4 is D with the fourth-order
    five-point stencil on rows 2 ... n - 3.  D serves the outer divergence
    of L_M, the weak form's gradient (adjoint D.T) and :func:`sigma_norm`;
    G4 the inner relative gradients.  Cached: callers never write them.
    """
    eye = np.eye(n)
    d = np.gradient(eye, h, axis=0)
    g4 = d.copy()
    g4[2:-2] = (eye[:-4] - 8.0 * eye[1:-3] + 8.0 * eye[3:-1] - eye[4:]) / (12.0 * h)
    return d, np.diff(eye, 2, axis=0), g4


def _along(mat: np.ndarray, field: np.ndarray, axis: int) -> np.ndarray:
    """A difference matrix applied along one axis of a 3-D field."""
    return np.moveaxis(mat @ np.moveaxis(field, axis, -2), -2, axis)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A scalar field sampled on the nodes of a :class:`VelocityGrid`."""

    grid: VelocityGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function carries non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def maxwellian(s: GasState, g: VelocityGrid) -> GridFunction:
    """Local Maxwellian sampled on the lattice.

    Warns when the box does not cover six thermal radii around the bulk
    velocity, which is when trapezoid moments start losing digits.
    """
    rt = GAS_R * s.theta
    vx, vy, vz = g.components
    q = (vx - s.u[0]) ** 2 + (vy - s.u[1]) ** 2 + (vz - s.u[2]) ** 2
    vals = s.rho * (2.0 * math.pi * rt) ** -1.5 * np.exp(-q / (2.0 * rt))
    reach = float(np.linalg.norm(s.u)) + 6.0 * math.sqrt(rt)
    if g.half_width < reach:
        warnings.warn(
            f"box half-width {g.half_width} below |u| + 6 sqrt(R theta) = {reach:.3f}",
            stacklevel=2,
        )
    return GridFunction(g, vals)


def moments(F: GridFunction) -> GasState:
    """Density, bulk velocity and temperature of a field, by the quadrature of ``F.grid``.

    Uses rho e = int |v-u|^2/2 F dv with e = theta (the R = 2/3
    convention), so the returned state satisfies the ideal-gas closure
    exactly at the quadrature level.
    """
    g = F.grid
    vx, vy, vz = g.components
    rho = g.integrate(F.values)
    if not rho > 0.0:
        raise ValueError(f"degenerate moments: nonpositive density {rho}")
    u = np.array(
        [
            g.integrate(vx * F.values),
            g.integrate(vy * F.values),
            g.integrate(vz * F.values),
        ]
    ) / rho
    kinetic = g.integrate(0.5 * g.speed_sq * F.values)
    e = kinetic / rho - 0.5 * float(u @ u)
    if not e > 0.0:
        raise ValueError(f"degenerate moments: nonpositive temperature {e}")
    return GasState.make(rho, u[0], e, u[1], u[2])


@dataclass(frozen=True, eq=False)
class MacroBasis:
    """Orthonormal basis of the fluid subspace at a local Maxwellian.

    ``chi`` holds the five basis fields; ``duals`` holds chi_i / M as
    explicit polynomials, so projection coefficients never divide by the
    (underflowing) Maxwellian tail.  ``gram`` is the quadrature Gram
    matrix <chi_i, chi_j / M>; it deviates from the identity by the
    trapezoid error of Gaussian moments, and projections solve against
    it so that they stay exactly idempotent even on coarse lattices.
    """

    grid: VelocityGrid
    chi: tuple[GridFunction, ...]
    duals: tuple[np.ndarray, ...]
    gram: np.ndarray


def macro_basis(s: GasState, g: VelocityGrid) -> MacroBasis:
    """Build chi_0..chi_4 and their duals for the Maxwellian of ``s``."""
    rt = GAS_R * s.theta
    vx, vy, vz = g.components
    c = (vx - s.u[0], vy - s.u[1], vz - s.u[2])
    csq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    m = maxwellian(s, g).values

    inv0 = 1.0 / math.sqrt(s.rho)
    inv1 = 1.0 / math.sqrt(s.rho * rt)
    inv4 = 1.0 / math.sqrt(6.0 * s.rho)
    duals = (
        np.full(g.shape, inv0),
        c[0] * inv1,
        c[1] * inv1,
        c[2] * inv1,
        (csq / rt - 3.0) * inv4,
    )
    chi = tuple(GridFunction(g, d * m) for d in duals)
    gram = np.array([[g.integrate(ch.values * d) for ch in chi] for d in duals])
    return MacroBasis(g, chi, duals, gram)


def macro_coefficients(h: GridFunction, basis: MacroBasis) -> np.ndarray:
    """The five numbers <h, chi_i/M> defining the fluid part of h."""
    g = basis.grid
    if h.grid != g:
        raise ValueError("grid function was built on a different lattice")
    return np.array([g.integrate(h.values * d) for d in basis.duals])


def project_P0(h: GridFunction, basis: MacroBasis) -> GridFunction:
    """Macroscopic (fluid) projection of h."""
    coef = np.linalg.solve(basis.gram, macro_coefficients(h, basis))
    vals = np.zeros(basis.grid.shape)
    for ci, chi in zip(coef, basis.chi):
        vals += ci * chi.values
    return GridFunction(basis.grid, vals)


def project_P1(h: GridFunction, basis: MacroBasis) -> GridFunction:
    """Microscopic projection, the complement of :func:`project_P0`."""
    p0 = project_P0(h, basis)
    return GridFunction(basis.grid, h.values - p0.values)


def weight_w(v):
    """Soft-potential velocity weight <v>^(gamma+2) on vectors (..., 3), gamma = -3."""
    v = np.asarray(v, dtype=float)
    ss = np.sum(v * v, axis=-1)
    out = (1.0 + ss) ** (0.5 * (GAMMA_DEFAULT + 2.0))
    return float(out) if np.ndim(out) == 0 else out


def sigma_norm(h: GridFunction, sigma, ell: float = 0.0) -> float:
    """Weighted dissipation norm |h|_{sigma, ell} at the fixed gamma = -3.

    ``sigma`` is the diffusion matrix sigma^{ij}(v) as an array of shape
    (3, 3) + grid.shape, the form :func:`rarewave.collision.collision_frequency`
    returns.  Gradients are the D of :func:`_stencils`: centered inside,
    first-order one-sided at the faces, where the integrand is negligible.
    """
    g = h.grid
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (3, 3) + g.shape:
        raise ValueError(f"sigma coefficients have shape {sig.shape}, expected {(3, 3) + g.shape}")
    grads = [_along(_stencils(g.n_per_axis, g.spacing)[0], h.values, i) for i in range(3)]
    vhalf = tuple(0.5 * comp for comp in g.components)
    hsq = h.values * h.values
    acc = np.zeros(g.shape)
    for i in range(3):
        for j in range(3):
            acc += sig[i, j] * (grads[i] * grads[j] + vhalf[i] * vhalf[j] * hsq)
    if ell != 0.0:
        acc = acc * (1.0 + g.speed_sq) ** ((GAMMA_DEFAULT + 2.0) * ell)
    return math.sqrt(max(g.integrate(acc), 0.0))


def _pair_integral(a: GasState, b: GasState) -> float:
    """int M_a M_b / mu dv by completing the Gaussian square.

    Every product and sum pairs an a-term with its b-term, so swapping
    a and b gives the same float.
    """
    al = 1.0 / (GAS_R * a.theta)
    be = 1.0 / (GAS_R * b.theta)
    c = al + be - 1.0
    if c <= 0.0:
        raise ValueError(
            "out of regime: combined Gaussian form is not positive definite "
            f"(theta values {a.theta}, {b.theta})"
        )
    ua = np.asarray(a.u)
    ub = np.asarray(b.u)
    m = al * ua + be * ub
    K = al * float(ua @ ua) + be * float(ub @ ub)
    return (
        a.rho
        * b.rho
        * (c / (al * be)) ** -1.5
        * math.exp(0.5 * (float(m @ m) / c - K))
    )


def maxwellian_l2mu_distance(s1: GasState, s2: GasState) -> float:
    """Distance ||(M_1 - M_2)/sqrt(mu)||_{L^2_v} in closed form.

    Finite only while each Gaussian pairing against 1/mu stays
    integrable, which for equal temperatures means theta < 3.
    """
    d2 = _pair_integral(s1, s1) + _pair_integral(s2, s2) - 2.0 * _pair_integral(s1, s2)
    return math.sqrt(max(d2, 0.0))

