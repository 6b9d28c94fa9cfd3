"""Discrete Landau collision operator for very soft potentials.

The bilinear operator is discretized in divergence form,

    Q(F1, F2) = d_i [ (phi^{ij} * F1) d_j F2 - (phi^{ij} * d_j F1) F2 ],

with centered differences for every derivative and the kernel
convolutions taken as pairwise lattice sums.  Every difference
coefficient comes from the 1-D matrices of ``velocity._stencils`` (D,
its fourth-order variant G4 and the second difference S), applied along
one axis at a time by ``velocity._along``; nothing here restates a
stencil.  Because the velocity nodes form a uniform lattice, those sums
are ordinary discrete convolutions; they are evaluated through
zero-padded real FFTs, which reproduces the direct node-pair summation
exactly up to floating-point reordering.  Each axis is padded to a
period P >= 2n - 1 on which the kernel sits centred at the origin
(offset o at index o mod P); the block [0, n) of the circular
convolution is the lattice sum, and P >= 2n - 1 keeps every wrapped
term out of it (Hockney's zero-padding argument).  Each kernel
component is even or odd in every axis, so on that period its spectrum
is real and is stored as a real array.  The tests compare the
transforms against the literal node-pair summation at small lattice
sizes.

The inner derivatives are taken on relative densities: d_j F is
evaluated as mu d_j (F / mu) with mu the global reference Maxwellian.
The two expressions differ by F d_j ln(mu), whose contribution to the
flux is proportional to phi(v - v*) (v - v*) = 0, so the reorganized
form is identical in the continuum for arbitrary inputs.  Discretely
it is far better behaved: differencing F / mu makes the operator
vanish to round-off on the reference equilibrium pair (the structural
identity Q(mu, mu) = 0) and restores clean second-order decay of
Q(M, M) for every other Maxwellian, where plain differencing of F
stalls near first order at practical resolutions.

The kernel is |v|^(gamma+2) times a projector with no limit at the
origin, so the coincident node needs care: the lattice sums give it
the exact average of the kernel over one mesh cell, which keeps the
quadrature of the singular convolution second-order accurate (simply
zeroing that node stalls the refinement of Q(M, M) near the origin at
first order).  At the default gamma = -3 this is the Coulomb kernel of
the paper.

On top of Q sit the collision frequency sigma^{ij} = phi^{ij} * mu,
the linearization L_M h = Q(h, M) + Q(M, h), its sqrt(mu)-conjugated
sibling, and a constrained iterative inverse of L_M on the microscopic
subspace: flexible GCR on the literal operator, preconditioned by
deflated conjugate gradients on the exactly symmetric weak (Dirichlet)
form of L_M.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .euler import GAS_R, GasState
from .velocity import (
    GAMMA_DEFAULT,
    REFERENCE_STATE,
    GridFunction,
    VelocityGrid,
    macro_basis,
    maxwellian,
    project_P0,
    project_P1,
    _along,
    _stencils,
)

# The components i <= j of a symmetric 3x3 field, packed as a 6-vector;
# _UNPACK[i, j] is the packed index of component (i, j).
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_UNPACK = np.array([[_PAIRS.index((min(i, j), max(i, j))) for j in range(3)] for i in range(3)])
_DIAGONAL = tuple(int(k) for k in np.diag(_UNPACK))

_log = logging.getLogger(__name__)


def _contract(six, three, i: int):
    """Row i of a packed symmetric field applied to a 3-vector field."""
    row = _UNPACK[i]
    return six[row[0]] * three[0] + six[row[1]] * three[1] + six[row[2]] * three[2]


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent gamma of the very soft potential |v|^(gamma+2)."""

    gamma: float = GAMMA_DEFAULT

    def __post_init__(self):
        if not (-3.0 <= self.gamma < -2.0):
            raise ValueError(f"gamma must lie in [-3, -2), got {self.gamma}")


def _phi_packed(d, p: KernelParams) -> np.ndarray:
    """Six packed components of phi^{ij}(d) = (delta_ij - d_i d_j / |d|^2) |d|^(gamma+2).

    ``d`` holds the three displacement components as arrays (or scalars)
    of one shape; the result has shape (6,) + that shape and is 0 where
    d = 0, where the projector has no limit.
    """
    ss = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    zero = ss == 0.0
    with np.errstate(divide="ignore"):
        mag = np.where(zero, 0.0, ss ** (0.5 * (p.gamma + 2.0)))
        inv_ss = np.where(zero, 0.0, 1.0 / ss)
    out = np.empty((6,) + np.shape(ss))
    for k, (i, j) in enumerate(_PAIRS):
        out[k] = ((1.0 if i == j else 0.0) - d[i] * d[j] * inv_ss) * mag
    return out


def phi_kernel(v, p: KernelParams = KernelParams()) -> np.ndarray:
    """The 3x3 kernel matrix (I - v v^T / |v|^2) |v|^(gamma+2) at one point.

    Unpacked from the same builder the lattice sums use.  At v = 0 the
    projector has no limit and the value is 0; the lattice sums give
    that node the cell average of :func:`_center_weight` instead.
    """
    return _phi_packed(np.asarray(v, dtype=float), p)[_UNPACK]


def _cell_average_constant(gamma: float) -> float:
    """C = integral of |u|^(gamma+2) over the unit cube centered at 0.

    With s = gamma + 2, octant symmetry and the scaling u -> u / 2 give
    C = 8 2^-(s+3) times the integral over [0, 1]^3.  That cube is three
    pyramids, on each of which one coordinate x is the largest; (y, z) =
    x (a, b) factors out the integral of x^(s+2), 1 / (s+3), leaving
    C = 24 2^-(s+3) / (s+3) times the integral of (1 + a^2 + b^2)^(s/2)
    over [0, 1]^2, a smooth integrand: 12-point tensor Gauss-Legendre.
    """
    s = gamma + 2.0
    nodes, wts = np.polynomial.legendre.leggauss(12)
    a, w = 0.5 * (nodes + 1.0), 0.5 * wts
    face = w @ (1.0 + a[:, None] ** 2 + a[None, :] ** 2) ** (0.5 * s) @ w
    return 24.0 * 2.0 ** (-(s + 3.0)) / (s + 3.0) * float(face)


def _center_weight(h: float, p: KernelParams) -> float:
    """Diagonal kernel weight at the coincident node.

    The cell average of the kernel over one mesh cell, (2/3) C h^(gamma+2),
    which restores second-order consistency of the singular convolution
    sums.
    """
    return (2.0 / 3.0) * _cell_average_constant(p.gamma) * h ** (p.gamma + 2.0)


class _KernelTransforms:
    """Cached real spectra of the six packed kernel components, period P = next_fast_len(2n - 1).

    The kernel is sampled on the period, centred at the origin: offset o
    in [-(n - 1), n - 1] at index o mod P, the coincident node at index 0
    and zeros in the gap [n, P - n].  The kept outputs j in [0, n) take
    field nodes m through offsets j - m alone, whose indices are distinct
    for P >= 2n - 1, so nothing aliases into them (P = 2n - 2 would).
    Diagonal components are even in every axis, and component (i, j),
    i != j, is odd in axes i and j and even in the third; an even axis
    transforms to a real factor and an odd one to an imaginary one, so
    every spectrum is real (symmetric convolution, Martucci 1994) and only
    its real part is kept.
    """

    def __init__(self, g: VelocityGrid, p: KernelParams):
        n = g.n_per_axis
        h = g.spacing
        pad = next_fast_len(2 * n - 1)
        d = h * np.r_[0:n, n - pad : 0]
        kernel = _phi_packed(np.ix_(d, d, d), p)
        gap = slice(n, pad - n + 1)
        kernel[:, gap] = kernel[:, :, gap] = kernel[:, :, :, gap] = 0.0
        kernel[_DIAGONAL, 0, 0, 0] = _center_weight(h, p)
        self.pad_shape = (pad, pad, pad)
        self.keep = (slice(0, n),) * 3
        self.khat = [np.ascontiguousarray(rfftn(k).real) for k in kernel]

    def forward(self, field: np.ndarray) -> np.ndarray:
        return rfftn(field, s=self.pad_shape)

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        return irfftn(spec, s=self.pad_shape)[self.keep].copy()


_transforms = lru_cache(maxsize=1)(_KernelTransforms)


def _phi_conv_fft(g, p, fw):
    """Six packed components of phi * F; one forward and six inverse transforms.

    ``fw`` carries the quadrature weights already, as in every lattice sum.
    """
    tr = _transforms(g, p)
    fhat = tr.forward(fw)
    return np.stack([tr.inverse(k * fhat) for k in tr.khat])


def _phi_grad_fft(g, p, gradws):
    """The three contractions sum_j phi^{ij} * G_j of weighted fields G_j.

    Three forward and three inverse transforms.
    """
    tr = _transforms(g, p)
    ghats = [tr.forward(x) for x in gradws]
    return np.stack([tr.inverse(_contract(tr.khat, ghats, i)) for i in range(3)])


def _relative_gradient(field: np.ndarray, g: VelocityGrid, weight: GasState) -> list[np.ndarray]:
    """The three fields W d_j (field / W) for the Maxwellian W of ``weight``.

    The stencil G4 of :func:`_stencils` with each coefficient (k, l)
    scaled by the neighbor ratio W_k / W_l, so the underflowing Gaussian
    tail never appears in a denominator.  Collision fields decay fast
    enough that the low-order face closures never matter.  Off the
    nonzero band of G4 the offset l - k is taken as 0, so the ratio
    there stays finite and multiplies zeros.
    """
    n, h = g.n_per_axis, g.spacing
    g4 = _stencils(n, h)[2]
    offset = np.where(g4 != 0.0, np.arange(n) - np.arange(n)[:, None], 0)
    rtheta = GAS_R * weight.theta
    out = []
    for j, c in enumerate(g.peculiar(weight.u)):
        ratio = np.exp((offset * c.reshape(-1, 1) * h + 0.5 * offset * offset * h * h) / rtheta)
        out.append(_along(g4 * ratio, field, j))
    return out


def _field_sums(g: VelocityGrid, p: KernelParams, values: np.ndarray, weight: GasState):
    """A field's relative gradients and its two kernel sums (13 transforms).

    Returns (grads, a6, b3): the gradients W d_j (F / W) of
    :func:`_relative_gradient`, the packed phi * F and the contractions
    sum_j phi^{ij} * grads_j, every sum over quadrature-weighted fields.
    """
    w = g.weights
    grads = _relative_gradient(values, g, weight)
    return grads, _phi_conv_fft(g, p, values * w), _phi_grad_fft(g, p, [x * w for x in grads])


def _divergence(fluxes, g: VelocityGrid) -> np.ndarray:
    """Centered-difference divergence sum_i d_i flux_i of three flux fields."""
    d = _stencils(g.n_per_axis, g.spacing)[0]
    return sum(_along(d, flux, i) for i, flux in enumerate(fluxes))


def collision_frequency(g: VelocityGrid) -> np.ndarray:
    """sigma^{ij} = phi^{ij} * mu against the global Maxwellian, with the default kernel.

    Returned as an array of shape (3, 3) + g.shape, symmetric positive
    semidefinite at each node.
    """
    mu = maxwellian(REFERENCE_STATE, g)
    return _phi_conv_fft(g, KernelParams(), mu.values * g.weights)[_UNPACK]


def collision_Q(
    F1: GridFunction,
    F2: GridFunction,
    g: VelocityGrid | None = None,
    p: KernelParams = KernelParams(),
    weight: GasState = REFERENCE_STATE,
) -> GridFunction:
    """Bilinear Landau operator Q(F1, F2) in divergence form.

    The pairwise convolution sums are evaluated through padded real FFTs.
    ``weight`` selects the Maxwellian envelope of the relative-difference
    stencils; the drift it introduces cancels through the kernel
    projection, so the choice moves only truncation error, which is
    smallest when the weight tracks the inputs.
    """
    if g is None:
        g = F1.grid
    if F1.grid != g or F2.grid != g:
        raise ValueError("collision inputs live on different lattices")
    _, a6, b3 = _field_sums(g, p, F1.values, weight)
    grads2 = _relative_gradient(F2.values, g, weight)
    fluxes = (_contract(a6, grads2, i) - b3[i] * F2.values for i in range(3))
    return GridFunction(g, _divergence(fluxes, g))


def linearized_LM(
    h: GridFunction,
    s: GasState,
    g: VelocityGrid | None = None,
    p: KernelParams = KernelParams(),
) -> GridFunction:
    """L_M h = Q(h, M) + Q(M, h) around the local Maxwellian of ``s``."""
    if g is None:
        g = h.grid
    m = maxwellian(s, g)
    qa = collision_Q(h, m, g, p, weight=s)
    qb = collision_Q(m, h, g, p, weight=s)
    return GridFunction(g, qa.values + qb.values)


def gamma_bilinear(h: GridFunction, k: GridFunction) -> GridFunction:
    """Gamma(h, k) = Q(sqrt(mu) h, sqrt(mu) k) / sqrt(mu), on the lattice of ``h`` and ``k``."""
    g = h.grid
    if k.grid != g:
        raise ValueError("collision inputs live on different lattices")
    sq = np.sqrt(maxwellian(REFERENCE_STATE, g).values)
    qq = collision_Q(GridFunction(g, sq * h.values), GridFunction(g, sq * k.values), g)
    return GridFunction(g, qq.values / sq)


def linearized_script_L(f: GridFunction) -> GridFunction:
    """The sqrt(mu)-conjugated linearization Gamma(f, sqrt(mu)) + Gamma(sqrt(mu), f).

    Evaluated as L_mu (sqrt(mu) f) / sqrt(mu), the same two Q sums, on the
    lattice of ``f``.
    """
    g = f.grid
    sq = np.sqrt(maxwellian(REFERENCE_STATE, g).values)
    lm = linearized_LM(GridFunction(g, sq * f.values), REFERENCE_STATE, g)
    return GridFunction(g, lm.values / sq)


class NonConvergenceError(RuntimeError):
    """Raised when the constrained solve stalls; carries the residual history."""

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


# Weight of the second-difference checkerboard penalty of the weak form,
# relative to the axis collision frequency it is scaled by.
_STAB_WEIGHT = 0.1


class LMOperator:
    """Matrix-free forms of L_M at a fixed state, grid and kernel.

    ``apply`` is the literal strong-form operator (the same sums as two
    ``collision_Q`` calls, with the Maxwellian-side convolutions cached).
    ``weak_apply`` is the exactly symmetric positive-semidefinite
    Dirichlet form acting on potentials x = h / M; the deflated
    conjugate-gradient solve on it preconditions the flexible GCR
    iteration that ``invert_LM_micro`` runs on ``apply``.  A lattice on
    which the state's Maxwellian underflows to 0 raises ``ValueError``:
    the Jacobi scale divides by it.
    """

    def __init__(self, s: GasState, g: VelocityGrid, p: KernelParams = KernelParams()):
        self.state = s
        self.grid = g
        self.params = p
        self.m = maxwellian(s, g)
        mv = self.m.values
        if not np.all(mv > 0.0):
            raise ValueError(f"the Maxwellian underflows to 0 on {np.sum(mv == 0.0)} nodes of {g}")
        n, h = g.n_per_axis, g.spacing
        # Differences weighted by the operator's own Maxwellian: the
        # weight drift cancels through the kernel projection, so any
        # Maxwellian weight is consistent, but only the state's own
        # envelope keeps the stencil error at the polynomial scale on
        # hot states, where fields grow like exp(+c|v|^2) relative to
        # the global reference weight.
        self.grads_m, self.a6_m, self.b3_m = _field_sums(g, p, mv, s)
        self.basis = macro_basis(s, g)
        self.wm = g.weights * mv
        # Centered differences annihilate odd-even (checkerboard) modes
        # away from the faces, which would leave the Dirichlet form with
        # a large quasi-null space at the Maxwellian-tail scale; the
        # standard cure is a second-difference penalty, each row of S
        # weighted at the node it is centred on.  It is O(h^2) relative
        # on smooth potentials (so consistency is untouched), exactly zero
        # on the affine null directions, and lifts the checkerboards
        # toward the bulk spectral scale.
        #
        # Jacobi scale of the weak form: the exact diagonal of its
        # axis-local part, sum_i D^T (w M sigma_ii) D + S^T stab_i S,
        # over w M.  Every entry must carry the true local magnitude:
        # w M sigma / h^2 spans ~1e40 across the lattice, and replacing
        # tail entries by any uniform floor destroys the scaled
        # conditioning.
        d, sec, _ = _stencils(n, h)
        centres = np.arange(len(sec)) + (n - len(sec)) // 2
        self.stab = []
        diag = np.zeros(g.shape)
        for axis, comp in enumerate(_DIAGONAL):
            c = self.wm * self.a6_m[comp]
            self.stab.append(_STAB_WEIGHT * np.take(c / (4.0 * h * h), centres, axis))
            diag += _along((d * d).T, c, axis) + _along((sec * sec).T, self.stab[axis], axis)
        self.jacobi = diag / self.wm
        # Conjugated geometry for the inner solve: u = sqrt(wM) x turns
        # the weak form into a uniformly scaled self-adjoint operator
        # whose five null directions sqrt(wM) dual_i are bounded decaying
        # vectors; QR gives an exactly orthonormal deflation frame.
        self.sqrt_wm = np.sqrt(self.wm)
        cols = np.stack([(self.sqrt_wm * d).ravel() for d in self.basis.duals], axis=1)
        qfac, _ = np.linalg.qr(cols)
        self.null_frame = qfac

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Literal L_M applied to nodal values (13 transforms)."""
        g = self.grid
        grads_h, a6_h, b3_h = _field_sums(g, self.params, values, self.state)
        mv = self.m.values
        fluxes = (
            (_contract(a6_h, self.grads_m, i) + _contract(self.a6_m, grads_h, i))
            - (b3_h[i] * mv + self.b3_m[i] * values)
            for i in range(3)
        )
        return _divergence(fluxes, g)

    def weak_apply(self, x: np.ndarray) -> np.ndarray:
        """Positive-semidefinite Dirichlet form on potentials (6 transforms)."""
        g = self.grid
        d, sec, _ = _stencils(g.n_per_axis, g.spacing)
        gx = [_along(d, x, i) for i in range(3)]
        nonlocal_ = _phi_grad_fft(g, self.params, [self.wm * gx_i for gx_i in gx])
        out = np.zeros(g.shape)
        for j in range(3):
            flux_j = self.wm * (_contract(self.a6_m, gx, j) - nonlocal_[j])
            out += _along(d.T, flux_j, j) + _along(sec.T, self.stab[j] * _along(sec, x, j), j)
        return out

    def micro_defect(self, values: np.ndarray) -> float:
        """Relative size of the fluid part of an h-space field."""
        g = self.grid
        p0 = project_P0(GridFunction(g, values), self.basis).values
        num = math.sqrt(g.integrate(p0 * p0))
        den = math.sqrt(g.integrate(values * values))
        return num / den if den > 0.0 else 0.0


def _pcg(op: LMOperator, res: np.ndarray, rtol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Deflated Jacobi-CG for the weak correction equation.

    An approximate inverse of the strong form, used as the flexible
    preconditioner of ``invert_LM_micro``.  Solves Apos dx = -(w res) in
    the conjugated variable u = sqrt(wM) dx, where the operator is
    uniformly scaled and the five fluid directions are deflated by an
    orthonormal frame; returns the potential dx and the iteration count.
    """
    g = op.grid
    sq = op.sqrt_wm
    frame = op.null_frame
    shape = g.shape

    def deflate(v):
        flat = v.ravel()
        return (flat - frame @ (frame.T @ flat)).reshape(shape)

    def conj_apply(u):
        return op.weak_apply(u / sq) / sq

    b = deflate(-(g.weights * res) / sq)
    bnorm = math.sqrt(float(np.sum(b * b)))
    if bnorm == 0.0:
        return np.zeros(shape), 0
    u = np.zeros(shape)
    r = b.copy()
    z = deflate(r / op.jacobi)
    d = z.copy()
    rz = float(np.sum(r * z))
    it = 0
    while it < max_iter:
        q = deflate(conj_apply(d))
        dq = float(np.sum(d * q))
        if dq <= 0.0:
            break
        alpha = rz / dq
        u += alpha * d
        r -= alpha * q
        it += 1
        if math.sqrt(float(np.sum(r * r))) <= rtol * bnorm:
            break
        z = deflate(r / op.jacobi)
        rz_new = float(np.sum(r * z))
        d = z + (rz_new / rz) * d
        rz = rz_new
    return u / sq, it


# Directions kept per flexible GCR cycle before a restart.
_RESTART = 20
# Largest fluid fraction accepted in a right-hand side of invert_LM_micro.
_MICRO_TOL = 1e-6
# Inner conjugate-gradient iterations one invert_LM_micro solve may spend.
_MAX_INNER_ITER = 600


def invert_LM_micro(
    op: LMOperator, h: GridFunction, tol: float, x0: np.ndarray | None = None
) -> tuple[GridFunction, np.ndarray]:
    """Solve L_M g = h on the microscopic subspace, for the L_M and lattice of ``op``.

    ``tol`` is required: what a lattice reaches depends on its resolution.
    Restarted flexible GCR (Eisenstat, Elman & Schultz 1983) on the literal
    strong-form operator, with ``_pcg`` as a variable preconditioner.  The
    start is ``x0``, nodal h-space values of the lattice's shape, when
    given, and otherwise one ``_pcg`` application to h at relative
    tolerance 1e-3.  Each step runs one more ``_pcg`` at 1e-2 on the
    residual and one strong-form apply to the new direction, orthogonalises
    the product against the cycle's earlier products in the quadrature
    inner product (modified Gram-Schmidt, the directions following with the
    same coefficients), normalises the pair and moves the iterate to the
    residual minimum along it.  The solve stops once
    ||L_M g - h|| <= tol ||h|| in the quadrature norm.

    Returns ``(g, product)``: g is the iterate projected onto the
    microscopic subspace, and ``product`` is L_M of the unprojected
    iterate: the start's apply plus the steps along GCR's list of
    products, so the caller can verify g without applying L_M again.  A
    start already within ``tol`` costs one apply and a poor one costs
    iterations, never accuracy.  ``_MAX_INNER_ITER`` bounds the inner
    conjugate-gradient iterations over the whole solve.  The residual
    history holds relative residuals: 1 for the zero start, then the true
    residual, read off the product, at the start (``history[1]``: of
    ``x0`` when given) and after every step.  The solve logs one DEBUG line
    to ``rarewave.collision`` with its inner iterations, apply calls and
    final relative residual.  Raises :class:`NonConvergenceError` (with
    that history) when the inner budget is spent, the preconditioner
    returns no direction or one whose product vanishes, or a full restart
    cycle of ``_RESTART`` steps cuts the residual by less than 2x.
    Consistent right-hand sides gain orders of magnitude per cycle; a
    stall means the source has content the lattice operator cannot reach.
    A ``tol`` that is not finite and positive raises ``ValueError``, and
    so does a start that ``GridFunction`` rejects on ``op``'s lattice (of
    another shape, or not finite), before any apply.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    g = op.grid
    if h.grid != g:
        raise ValueError("grid function was built on a different lattice")
    x0 = None if x0 is None else GridFunction(g, x0).values
    normh = math.sqrt(g.integrate(h.values * h.values))
    if normh == 0.0:
        _log.debug("solve: zero right-hand side, 0 inner iterations, 0 apply calls")
        return GridFunction(g, np.zeros(g.shape)), np.zeros(g.shape)
    defect = op.micro_defect(h.values)
    if defect > _MICRO_TOL:
        raise ValueError(
            f"right-hand side is not microscopic: fluid fraction {defect:.3e} "
            f"exceeds {_MICRO_TOL:.1e}"
        )
    mv = op.m.values
    if x0 is None:
        x, iters_used = _pcg(op, h.values, rtol=1e-3, max_iter=_MAX_INNER_ITER)
    else:
        x, iters_used = x0 / mv, 0
    ax = op.apply(mv * x)  # L_M of the iterate mv * x, kept in step with x
    r = h.values - ax
    history = [1.0, math.sqrt(g.integrate(r * r)) / normh]
    zs, azs = [], []  # this cycle's directions and their orthonormal products

    def stalled(why: str = "") -> NonConvergenceError:
        return NonConvergenceError(
            f"constrained solve stalled at relative residual {history[-1]:.3e} "
            f"after {iters_used} inner iterations{why}",
            history,
        )

    while history[-1] > tol:
        if len(zs) == _RESTART:
            cut = history[-1 - _RESTART] / history[-1]
            if cut < 2.0:
                raise stalled(f": a full restart cycle cut it by only {cut:.2f}x")
            zs, azs = [], []
        z, it = _pcg(op, r, rtol=1e-2, max_iter=_MAX_INNER_ITER - iters_used)
        if it == 0:
            raise stalled()
        iters_used += it
        az = op.apply(mv * z)
        for zi, azi in zip(zs, azs):
            c = g.integrate(azi * az)
            z -= c * zi
            az -= c * azi
        norm = math.sqrt(g.integrate(az * az))
        if norm == 0.0:
            raise stalled()
        zs.append(z / norm)
        azs.append(az / norm)
        alpha = g.integrate(azs[-1] * r)
        x += alpha * zs[-1]
        ax += alpha * azs[-1]
        r = h.values - ax
        history.append(math.sqrt(g.integrate(r * r)) / normh)
    _log.debug(
        "solve: %d inner iterations, %d apply calls, relative residual %.3e",
        iters_used,
        len(history) - 1,
        history[-1],
    )
    return project_P1(GridFunction(g, mv * x), op.basis), ax
