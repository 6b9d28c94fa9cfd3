"""Microscopic sources for the viscous fluxes and the transport coefficients.

The first-order correction to a local Maxwellian is generated by two
families of velocity polynomials in the thermally scaled variable
xi = (v - u) / sqrt(R theta): an odd heat-flux family and a trace-free
shear family.  Their preimages under the linearized collision operator
determine the viscosity and heat-conductivity coefficients through
plain velocity quadratures, and assemble the wave-gradient correction
field that ``gbar_construct`` evaluates at points of the wave.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .euler import GAS_R, GasState
from .velocity import (
    GAMMA_DEFAULT,
    GridFunction,
    VelocityGrid,
    _along,
    _stencils,
    maxwellian,
    project_P1,
)
from .collision import (
    KernelParams,
    LMOperator,
    NonConvergenceError,
    collision_Q,
    invert_LM_micro,
)

# Residual target of the solves: the n = 20 thermal lattice floors the A1 residual near 1e-3.
DEFAULT_TOL = 1e-2

_log = logging.getLogger(__name__)

# Axis indices of the heat components A_j and the shear components B_ij,
# in the order of burnett_solve's outputs (its solves may run in another).
_COMPONENTS = ((0,), (1,), (2,), (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

# Defect of the rotation identity of the shear pairings per thermal lattice
# spacing h to the power 1.9, relative to its largest entry.  The cubic lattice
# carries only the octahedral symmetry, so the identity fails at about second
# order: 0.135-0.137 measured over n_per_axis 20-28, at rest, on the wave and
# with three distinct velocity components.
PAIRING_ANISOTROPY = 0.14

# Largest penalty share of a solved field: healthy ones read < 0.05, the odd-even mode > 0.99.
PENALTY_SHARE = 0.5


def _name(c: tuple) -> str:
    return ("A" if len(c) == 1 else "B") + "".join(str(k + 1) for k in c)


def _sources(s: GasState, g: VelocityGrid) -> tuple[np.ndarray, dict]:
    """|xi|^2 and the nine bare source polynomials keyed by ``_COMPONENTS``.

    With xi = (v - u) / sqrt(R theta), the heat sources are
    ((|xi|^2 - 5) / 2) xi_j and the shear sources the trace-free
    xi_i xi_j - delta_ij |xi|^2 / 3.
    """
    rt = math.sqrt(GAS_R * s.theta)
    xi = [c / rt for c in g.peculiar(s.u)]
    sq = xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]
    polys = {
        c: 0.5 * (sq - 5.0) * xi[c[0]]
        if len(c) == 1
        else xi[c[0]] * xi[c[1]] - (sq / 3.0 if c[0] == c[1] else 0.0)
        for c in _COMPONENTS
    }
    return sq, polys


def _nest(by_component: dict) -> tuple[tuple, tuple]:
    """(A, B) from a map keyed by ``_COMPONENTS``: A[j] heat, B[i][j] is B[j][i] shear."""
    return (
        tuple(by_component[(j,)] for j in range(3)),
        tuple(tuple(by_component[min(i, j), max(i, j)] for j in range(3)) for i in range(3)),
    )


def burnett_hats(s: GasState, g: VelocityGrid):
    """Both source families multiplied by the local Maxwellian.

    Returns (hat_a, hat_b): hat_a holds the three heat GridFunctions and
    hat_b is a 3x3 nested tuple of the shear ones in which hat_b[i][j]
    and hat_b[j][i] are the same object.  The shear family is pointwise
    trace-free, and every member integrates to zero against the
    collision invariants.  ``burnett_solve`` builds the same products
    from the same table.
    """
    m = maxwellian(s, g).values
    return _nest({c: GridFunction(g, q * m) for c, q in _sources(s, g)[1].items()})


@dataclass(frozen=True)
class BurnettSolution:
    """Microscopic preimages of the viscous sources at one state.

    ``A[j]`` solves the heat family, ``B[i][j]`` the shear family, and
    ``B[j][i]`` is the same GridFunction as ``B[i][j]``; the transport
    coefficients come from the quadratures of A1 and B12 against their
    bare source polynomials.  ``residuals`` maps component names to the
    relative residual of the linearized equation, source minus the L_M
    product made as the field was (for a solved component, the product
    its solve returned); ``solved`` lists the components that ran through
    the solver, and ``penalty_shares`` maps each to the penalty share that
    ``burnett_solve`` checks.  Every other component is either the
    transpose of an earlier one under an axis transposition (a, b) with
    u_a == u_b, which maps the lattice, the state and the sources onto
    themselves, or a diagonal shear that follows from the trace:
    B11 + B22 + B33 = 0, since the sources sum to zero and L_M is linear.
    """

    state: GasState
    grid: VelocityGrid
    params: KernelParams
    A: tuple
    B: tuple
    mu_theta: float
    kappa_theta: float
    residuals: dict
    solved: tuple
    penalty_shares: dict

    @cached_property
    def grid_defect(self) -> float:
        """The lattice's resolution floor sup|Q(M, M)|, on ``collision_Q``'s reference weight.

        Under the state's own weight, the one ``LMOperator`` uses, Q(M, M) is
        round-off (about 5e-17 at rest and off rest) and would floor nothing;
        ``burnett_property_check`` takes 100 ``grid_defect`` as its floor.
        Evaluated on first read, not by ``burnett_solve``.
        """
        return _grid_defect(self.state, self.grid, self.params)


def _grid_defect(s: GasState, g: VelocityGrid, p: KernelParams) -> float:
    m = maxwellian(s, g)
    return float(np.abs(collision_Q(m, m, g, p).values).max())


def thermal_grid(theta: float, n_per_axis: int, span: float = 6.5) -> VelocityGrid:
    """Velocity lattice sized to the Maxwellian width at temperature theta.

    The achievable solver residual for a polynomial-times-Maxwellian
    source is limited by the source content at the lattice Nyquist
    frequency, which scales like exp(-(pi/h)^2 R theta / 2); keeping the
    box at a fixed number of thermal widths keeps that floor uniform
    across temperatures instead of letting cold states starve the core
    of resolution.  A theta that is not finite and positive raises
    ``ValueError``.
    """
    if not 0.0 < theta < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {theta}")
    return VelocityGrid(half_width=span * math.sqrt(GAS_R * theta), n_per_axis=n_per_axis)


def thermal_exponent(gamma: float) -> float:
    """Exponent a of the exact law mu, kappa proportional to theta^a at rest.

    ``thermal_grid`` scales the lattice with sqrt(theta), so v = sqrt(theta) xi
    maps the nodes, the kernel |v|^(gamma+2), the cell-averaged coincident
    weight h^(gamma+2) and the relative stencils onto the theta = 1 problem:
    L_M scales by theta^(gamma/2), the quadratures by theta^(1 - gamma/2).
    The sources poly(xi) M scale by theta^(-3/2), so the nodal preimages
    scale by theta^(a - 5/2), which is 1 at gamma = -3.
    """
    return 1.0 - 0.5 * gamma


def burnett_solve(
    s: GasState,
    g: VelocityGrid,
    p: KernelParams = KernelParams(),
    tol: float = DEFAULT_TOL,
    *,
    start: BurnettSolution | None = None,
) -> BurnettSolution:
    """Solve the linearized equations for both source families.

    The heat components come first, then the diagonal shears, most
    transposition partners first (a stable sort of B11, B22, B33), then
    B12, B13, B23.  Each component takes the first rule that applies:
    it is ``np.transpose`` of one already produced when an axis
    transposition (a, b) with ``s.u[a] == s.u[b]`` maps that one onto
    it; a diagonal shear whose two diagonal siblings exist is minus
    their sum; otherwise it is solved.  At rest that leaves three solves
    (A1, B11, B12), at u = (u1, 0, 0) five (A1, A2, B22, B12, B23, with
    B33 the transpose of B22 and B11 = -(B22 + B33)), and with three
    distinct velocity components eight.  Each component's L_M product
    is made by the rule that made its field: for a solved field the
    product its solve returned, otherwise the origin's product transposed
    or minus the sum of the siblings' products; L_M is linear and
    commutes with every allowed transposition, so no field is applied
    outside its solve.  The residual, source minus product, is recorded and
    logged at DEBUG to ``rarewave.transport``; one above ``tol`` raises
    :class:`NonConvergenceError` naming the component, with the
    residuals recorded so far.  A failed solve re-raises the solver's
    error with the component, ``grid_defect`` and ``n_per_axis``.  Then a
    solved potential x = field / M raises too if its penalty share P / (P -
    sum x w product), P = sum_j stab_j (S_j x)^2 the weak form's penalty,
    exceeds ``PENALTY_SHARE``: it is mostly the lattice odd-even mode.
    ``start`` is an earlier solution on a lattice of ``g``'s shape: each
    solved component starts its solve from the same component of it
    (``x0`` of :func:`invert_LM_micro`) and is still solved to ``tol``.
    A ``tol`` that is not finite and positive raises ``ValueError`` before
    the operator is built.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    op = LMOperator(s, g, p)
    _, polys = _sources(s, g)
    m = op.m
    sec = _stencils(g.n_per_axis, g.spacing)[1]

    def transposes(c):
        """(origin, axes) of each allowed axis transposition moving onto c."""
        for a, b in combinations(range(3), 2):
            swap = {a: b, b: a}
            origin = tuple(sorted(swap.get(k, k) for k in c))
            if s.u[a] == s.u[b] and origin != c:
                yield origin, [swap.get(k, k) for k in range(3)]

    diagonal = sorted(_COMPONENTS[3:6], key=lambda c: -len(list(transposes(c))))
    fields, products = both = {}, {}  # products[c] is L_M fields[c], made by the same rule
    residuals: dict = {}
    shares: dict = {}
    solved: list = []
    for c in _COMPONENTS[:3] + tuple(diagonal) + _COMPONENTS[6:]:
        name = _name(c)
        source = project_P1(GridFunction(g, polys[c] * m.values), op.basis)
        siblings = [d for d in _COMPONENTS[3:6] if d != c]
        origin = next(((o, axes) for o, axes in transposes(c) if o in fields), None)
        if origin is not None:
            fields[c], products[c] = (np.transpose(d[origin[0]], origin[1]) for d in both)
            how = f"transpose of {_name(origin[0])}"
        elif c in diagonal and all(d in fields for d in siblings):
            fields[c], products[c] = (-(d[siblings[0]] + d[siblings[1]]) for d in both)
            how = "trace of " + ", ".join(_name(d) for d in siblings)
        else:
            x0 = None if start is None else _solution_field(start, c).values
            try:
                field, products[c] = invert_LM_micro(op, source, tol, x0)
            except NonConvergenceError as exc:
                why = f"{exc}; grid_defect {_grid_defect(s, g, p):.3e}, n_per_axis {g.n_per_axis}"
                raise NonConvergenceError(f"{name} (solve): {why}", exc.residuals) from exc
            fields[c] = field.values
            solved.append(name)
            how = "solve"
            x = field.values / m.values
            pen = sum(np.sum(st * _along(sec, x, j) ** 2) for j, st in enumerate(op.stab))
            shares[name] = float(pen / (pen - np.sum(x * g.weights * products[c])))
        res = source.values - products[c]
        residuals[name] = math.sqrt(g.integrate(res * res) / g.integrate(source.values**2))
        share = f", penalty share {shares[name]:.3f}" if name in shares else ""
        _log.debug("%s: %s%s, verified residual %.3e", name, how, share, residuals[name])
        if not residuals[name] <= tol:
            recorded = ", ".join(f"{k} {v:.3e}" for k, v in residuals.items())
            raise NonConvergenceError(
                f"{name} ({how}) has verified residual above tol {tol:.1e}; recorded {recorded}",
                residuals.values(),
            )
        if shares.get(name, 0.0) > PENALTY_SHARE:
            why = f"penalty share {shares[name]:.3f} above {PENALTY_SHARE}: an odd-even mode"
            raise NonConvergenceError(f"{name} (solve): {why}", residuals.values())
    residuals = {_name(c): residuals[_name(c)] for c in _COMPONENTS}

    kappa = -GAS_R * GAS_R * s.theta * g.integrate(polys[(0,)] * fields[(0,)])
    mu = -GAS_R * s.theta * g.integrate(polys[0, 1] * fields[0, 1])

    A, B = _nest({c: GridFunction(g, f) for c, f in fields.items()})
    return BurnettSolution(
        state=s,
        grid=g,
        params=p,
        A=A,
        B=B,
        mu_theta=float(mu),
        kappa_theta=float(kappa),
        residuals=residuals,
        solved=tuple(solved),
        penalty_shares=shares,
    )


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    defect: float
    tolerance: float
    values: tuple

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance


def _solution_field(sol: BurnettSolution, c: tuple) -> GridFunction:
    return sol.A[c[0]] if len(c) == 1 else sol.B[c[0]][c[1]]


def burnett_property_check(sol: BurnettSolution) -> list[PropertyCheck]:
    """Check the preimages' pairings against their classical isotropic form.

    P pairs each bare source polynomial with each preimage (9x9, in
    ``_COMPONENTS`` order).  Its model holds a, d and o, the means of the
    heat, diagonal-shear and off-diagonal-shear diagonals, on those
    diagonals; -d/2 between diagonal shears, whose sources are trace-free;
    0 elsewhere.  "isotropic form" reports max |P - model| (or a, d, o if
    one is not negative) against max |P| 5 solver + 100 ``grid_defect``,
    with solver the largest recorded residual: at rest octahedral symmetry
    and the trace fix the form to round-off, off rest it measures drift.
    "rotation identity" reports P[B11, B11] - P[B11, B22] - 2 P[B12, B12],
    the one continuum identity the cubic lattice breaks, at about O(h^2) in the
    thermal spacing h, against its largest entry times
    (5 solver + ``PAIRING_ANISOTROPY`` h^1.9) plus the same floor.
    """
    g = sol.grid
    _, polys = _sources(sol.state, g)
    fields = [_solution_field(sol, c).values for c in _COMPONENTS]
    pair = np.array([[g.integrate(polys[c] * f) for f in fields] for c in _COMPONENTS])
    a, d, o = map(float, np.diag(pair).reshape(3, 3).mean(axis=1))
    model = np.diag(np.repeat([a, d, o], 3))
    model[3:6, 3:6] -= 0.5 * d * (1.0 - np.eye(3))
    b11, b1122, b12 = entries = tuple(float(pair[k]) for k in ((3, 3), (3, 4), (6, 6)))

    h_thermal = g.spacing / math.sqrt(GAS_R * sol.state.theta)
    solver = max(sol.residuals.values())
    floor = 100.0 * sol.grid_defect
    return [
        PropertyCheck(
            "isotropic form",
            max(float(np.abs(pair - model).max()), a, d, o),
            float(np.abs(pair).max()) * 5.0 * solver + floor,
            (a, d, o),
        ),
        PropertyCheck(
            "rotation identity",
            abs(b11 - b1122 - 2.0 * b12),
            max(map(abs, entries)) * (5.0 * solver + PAIRING_ANISOTROPY * h_thermal**1.9) + floor,
            entries,
        ),
    ]


def _check_temperatures(thetas: tuple) -> None:
    if not all(0.0 < t < math.inf for t in thetas):
        raise ValueError(f"table temperatures must be finite and positive, got {thetas}")
    if len(thetas) < 2 or any(t2 <= t1 for t1, t2 in zip(thetas, thetas[1:])):
        raise ValueError("table needs at least two strictly increasing temperatures")


@dataclass(frozen=True)
class TransportTable:
    """Viscosity and heat conductivity against temperature, one ``burnett_solve`` per row.

    Each row at rest runs three solves (A1, B11, B12); the rest of its
    nine preimages follow by transposition and the trace.  Its temperatures
    must be finite, positive and strictly increasing, with one finite entry
    each of ``mu`` > 0, ``kappa`` > 0 and ``residual`` >= 0.

    ``mu_of`` and ``kappa_of`` evaluate the exact law of the thermal lattice
    at any finite positive temperature, scalar or array: the first row times
    (theta / theta_0)^thermal_exponent at ``GAMMA_DEFAULT``, the kernel
    ``transport_table`` solves with.  Any other temperature raises ``ValueError``.
    """

    theta: tuple
    mu: tuple
    kappa: tuple
    residual: tuple

    def __post_init__(self):
        _check_temperatures(self.theta)
        if any(len(col) != len(self.theta) for col in (self.mu, self.kappa, self.residual)):
            raise ValueError("mu, kappa and residual need one entry per temperature")
        for name, col in (("mu", self.mu), ("kappa", self.kappa)):
            if not all(0.0 < c < math.inf for c in col):
                raise ValueError(f"{name} must be finite and positive, got {col}")
        if not all(0.0 <= r < math.inf for r in self.residual):
            raise ValueError(f"residual must be finite and nonnegative, got {self.residual}")

    def _law(self, first: float, theta):
        if not np.all(np.isfinite(theta) & (np.asarray(theta) > 0.0)):
            raise ValueError(f"temperature must be finite and positive, got {theta}")
        out = first * np.divide(theta, self.theta[0]) ** thermal_exponent(GAMMA_DEFAULT)
        return float(out) if np.isscalar(theta) else out

    def mu_of(self, theta):
        return self._law(self.mu[0], theta)

    def kappa_of(self, theta):
        return self._law(self.kappa[0], theta)


def transport_table(
    theta_values,
    n_per_axis: int = 20,
    span: float = 6.5,
    tol: float = DEFAULT_TOL,
) -> TransportTable:
    """Build the (theta, mu, kappa) table by solving at each temperature.

    The states sit at rest with unit density; the coefficients do not
    depend on density, which ``tests/test_transport.py`` checks.  Each
    temperature gets its own thermally sized lattice, so the residual
    stays uniform down the column and the rows follow the exact law of
    ``thermal_exponent``.  Each row is still solved, as the law's check,
    with the default kernel ``KernelParams()``.  At its gamma = -3 the nodal
    preimages on the thermal lattice do not depend on theta
    (``thermal_exponent``), so rows after the first start their solves from
    the previous row's preimages as they are, and each start is verified,
    and iterated on if need be, to ``tol`` on its own lattice.
    Temperatures must be finite, strictly increasing and within (3/4, 3),
    the regime the downstream wave states occupy; all three are checked
    before anything is solved.
    """
    thetas = tuple(float(t) for t in theta_values)
    _check_temperatures(thetas)
    if any(t <= 0.75 or t >= 3.0 for t in thetas):
        raise ValueError("table temperatures must lie inside (0.75, 3)")
    mus, kappas, resids = [], [], []
    sol = None
    for t in thetas:
        g = thermal_grid(t, n_per_axis, span)
        sol = burnett_solve(GasState.make(1.0, 0.0, t), g, tol=tol, start=sol)
        mus.append(sol.mu_theta)
        kappas.append(sol.kappa_theta)
        resids.append(max(sol.residuals.values()))
    return TransportTable(
        theta=thetas,
        mu=tuple(mus),
        kappa=tuple(kappas),
        residual=tuple(resids),
    )


@dataclass(frozen=True)
class PreimageDecayRow:
    epsilon: float
    constant: float
    radius_at_max: float
    component: str


def decay_check(sol: BurnettSolution) -> list[PreimageDecayRow]:
    """Smallest C with |field| <= C M^(1 - eps) pointwise, at eps = 0.1, 0.25 and 0.5.

    The ratio is only formed where the Maxwellian power stays above the
    underflow floor; the returned radius locates the binding node in
    the thermally scaled variable.
    """
    g = sol.grid
    m = maxwellian(sol.state, g).values
    rad = np.sqrt(_sources(sol.state, g)[0])
    fields = {_name(c): _solution_field(sol, c).values for c in _COMPONENTS}
    rows = []
    for eps in (0.1, 0.25, 0.5):
        env = m ** (1.0 - eps)
        ok = env > 1e-280
        best_c, best_r, best_name = 0.0, 0.0, ""
        for name, f in fields.items():
            ratio = np.where(ok, np.abs(f) / np.where(ok, env, 1.0), 0.0)
            k = int(np.argmax(ratio))
            if ratio.flat[k] > best_c:
                best_c = float(ratio.flat[k])
                best_r = float(rad.flat[k])
                best_name = name
        rows.append(PreimageDecayRow(float(eps), best_c, best_r, best_name))
    return rows


def gbar_construct(
    wave,
    t: float,
    x: float,
    s: GasState,
    eps: float,
    a: float,
    sol: BurnettSolution,
) -> GridFunction:
    """The wave-gradient correction field at one space-time point.

    The field is linear in the wave gradients:
    sqrt(R) theta_y / sqrt(theta) A1 + u1_y B11.  The analysis frame
    compresses space by eps^a, so its gradients theta_y, u1_y carry eps^a
    and the field eps^(1 - a): ``a`` cancels up to round-off, and the field
    is eps times the wave's physical-frame gradient terms.  It closes the
    Navier-Stokes fluxes: heat flux -eps kappa_theta theta_x, normal stress
    -(4/3) eps mu11 u1_x with mu11 from B11.  ``s`` must be ``sol.state``
    and eps finite and positive, else ``ValueError``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if sol.state != s:
        raise ValueError("correction field requested at a state the solution was not built for")
    prof = wave.profile(t, x, order=1)
    scale = eps**a
    core = (
        math.sqrt(GAS_R) * (scale * prof["theta_x"]) / math.sqrt(s.theta) * sol.A[0].values
        + (scale * prof["u1_x"]) * sol.B[0][0].values
    )
    return GridFunction(sol.grid, eps ** (1.0 - a) * core)
