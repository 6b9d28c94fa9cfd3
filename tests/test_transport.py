"""Burnett preimages, transport coefficients and the transport table."""

import dataclasses
import logging
import math
import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from rarewave import transport
from rarewave.burgers import SmoothWave
from rarewave.collision import KernelParams, NonConvergenceError, invert_LM_micro
from rarewave.euler import GAS_R, GasState, RiemannData, lambda3
from rarewave.transport import (
    TransportTable,
    burnett_hats,
    burnett_property_check,
    burnett_solve,
    decay_check,
    gbar_construct,
    gbar_from_gradients,
    thermal_exponent,
    thermal_grid,
    transport_table,
)
from rarewave.velocity import GridFunction, VelocityGrid, macro_basis, project_P1

N = 20
TOL = 1e-2
COMPONENTS = ("A1", "A2", "A3", "B11", "B12", "B13", "B22", "B23", "B33")


@pytest.fixture(scope="module")
def solutions():
    """Rest-state solves keyed by (rho, theta), each on its thermal lattice."""
    out = {}
    for rho, theta in ((1.0, 1.0), (1.0, 1.7), (2.0, 1.0)):
        s = GasState.make(rho, 0.0, theta)
        out[rho, theta] = burnett_solve(s, thermal_grid(theta, N), tol=TOL)
    return out


@pytest.fixture(scope="module")
def wave_point():
    """A smoothed 3-rarefaction wave, mid-fan at t = 2, with its solve."""
    data = RiemannData.from_density(GasState.make(1.0, 0.0, 1.0), 1.5)
    wave = SmoothWave.build(data, 0.5)
    t = 2.0
    x = 0.5 * t * (lambda3(data.left) + lambda3(data.right))
    s = wave.state(t, x)
    g = VelocityGrid(abs(s.u1) + 6.5 * math.sqrt(GAS_R * s.theta), N)
    return wave, t, x, burnett_solve(s, g, tol=TOL)


def scaled(sol):
    """mu / theta^2.5 and kappa / theta^2.5."""
    th = sol.state.theta
    return sol.mu_theta / th**2.5, sol.kappa_theta / th**2.5


def test_burnett_solve_records_all_nine_residuals_within_tol(solutions):
    for sol in solutions.values():
        assert sorted(sol.residuals) == sorted(COMPONENTS)
        assert all(0.0 <= r <= TOL for r in sol.residuals.values())
        assert sol.mu_theta > 0.0 and sol.kappa_theta > 0.0


def test_default_tolerance_is_met_on_the_default_lattice():
    # the default tol must lie above the residual floor of the n = 20
    # thermal lattice, where the A1 solve stalls near 1e-3
    sol = burnett_solve(GasState.make(1.0, 0.0, 1.0), thermal_grid(1.0, N))
    assert sorted(sol.residuals) == sorted(COMPONENTS)
    assert all(0.0 <= r <= 1e-2 for r in sol.residuals.values())


def test_coefficients_are_exactly_theta_covariant(solutions):
    # The thermal lattice scales with sqrt(theta), so the discrete problem
    # is self-similar and the table is an exact power law at gamma = -3.
    mu1, ka1 = scaled(solutions[1.0, 1.0])
    mu2, ka2 = scaled(solutions[1.0, 1.7])
    assert math.isclose(mu1, mu2, rel_tol=1e-12)
    assert math.isclose(ka1, ka2, rel_tol=1e-12)


def test_thermal_exponent_holds_at_another_gamma():
    p = KernelParams(-2.5)
    one, two = (
        burnett_solve(GasState.make(1.0, 0.0, th), thermal_grid(th, N), p, tol=TOL)
        for th in (1.0, 1.7)
    )
    factor = 1.7 ** thermal_exponent(-2.5)
    assert thermal_exponent(-2.5) == 2.25
    assert math.isclose(two.mu_theta, factor * one.mu_theta, rel_tol=1e-12)
    assert math.isclose(two.kappa_theta, factor * one.kappa_theta, rel_tol=1e-12)


def test_coefficients_are_independent_of_density(solutions):
    one, two = solutions[1.0, 1.0], solutions[2.0, 1.0]
    assert math.isclose(one.mu_theta, two.mu_theta, rel_tol=1e-12)
    assert math.isclose(one.kappa_theta, two.kappa_theta, rel_tol=1e-12)


def test_property_check_passes_on_converged_solves(solutions):
    for sol in solutions.values():
        checks = burnett_property_check(sol)
        assert len(checks) == 9
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        # the tolerance follows the residuals the solution records
        worse = dataclasses.replace(sol, residuals={k: 10.0 * r for k, r in sol.residuals.items()})
        assert burnett_property_check(worse)[0].tolerance > checks[0].tolerance


def test_property_check_passes_on_a_moving_state(wave_point):
    # off rest the lattice no longer pins the heat isotropy at round-off,
    # so that bullet measures the solve here
    checks = burnett_property_check(wave_point[3])
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert checks[0].defect > 1e-4


def test_property_check_fails_on_a_scaled_shear_preimage(solutions):
    sol = solutions[1.0, 1.0]
    B = [list(row) for row in sol.B]
    B[0][1] = B[1][0] = GridFunction(sol.grid, 1.5 * sol.B[0][1].values)
    bad = dataclasses.replace(sol, B=tuple(tuple(row) for row in B))
    failed = {c.name for c in burnett_property_check(bad) if not c.passed}
    assert failed == {
        "off-diagonal shear pairings positive and equal",
        "diagonal difference equals twice the off-diagonal pairing",
    }


def test_stalled_restart_cycle_raises_before_the_budget_is_spent():
    # At n = 16 the heat source carries content the lattice operator
    # barely reaches: the true residual stalls near 2.2e-2 from the second
    # restart on, where a consistent right-hand side gains decades per cycle.
    s = GasState.make(1.0, 0.0, 1.0)
    g = thermal_grid(1.0, 16)
    source = project_P1(burnett_hats(s, g)[0][0], macro_basis(s, g))
    with pytest.raises(NonConvergenceError, match="restart cycle") as exc:
        invert_LM_micro(source, s, g, tol=1e-2)
    used = int(re.search(r"after (\d+) inner iterations", str(exc.value)).group(1))
    assert used < 600
    assert exc.value.residuals[-1] > 1e-2


def test_table_follows_exact_thermal_law(solutions):
    sols = [solutions[1.0, 1.0], solutions[1.0, 1.7]]
    table = TransportTable(
        theta=tuple(s.state.theta for s in sols),
        mu=tuple(s.mu_theta for s in sols),
        kappa=tuple(s.kappa_theta for s in sols),
        residual=tuple(max(s.residuals.values()) for s in sols),
        span=6.5,
        n_per_axis=N,
        gamma=sols[0].params.gamma,
    )
    assert table.mu_of(1.7) == pytest.approx(table.mu[1], rel=1e-14)
    assert np.allclose(table.kappa_of(np.array([1.0, 1.7])), table.kappa, rtol=1e-14)
    # outside the table range the exact law holds, with no clamp and no warning
    law = (np.array([0.8, 2.5]) / table.theta[0]) ** thermal_exponent(table.gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, th in enumerate((0.8, 2.5)):
            assert table.mu_of(th) == pytest.approx(table.mu[0] * law[k], rel=1e-14)
            assert table.kappa_of(th) == pytest.approx(table.kappa[0] * law[k], rel=1e-14)
        assert np.allclose(table.mu_of([0.8, 2.5]), table.mu[0] * law, rtol=1e-14, atol=0.0)


def test_table_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError):
        TransportTable((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0), 6.5, N, -3.0)

    def no_solve(*args, **kwargs):
        raise AssertionError("a bad temperature list reached the solver")

    # every check runs before the first row is solved
    monkeypatch.setattr("rarewave.transport.burnett_solve", no_solve)
    for bad in ((0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (1.0,)):
        with pytest.raises(ValueError):
            transport_table(bad)


def fields_by_name(sol):
    out = {f"A{j + 1}": sol.A[j].values for j in range(3)}
    for i in range(3):
        for j in range(i, 3):
            out[f"B{i + 1}{j + 1}"] = sol.B[i][j].values
    return out


def transposed_origins(sol, name):
    """Components an allowed axis transposition maps onto ``name``, transposed."""
    idx = [int(k) - 1 for k in name[1:]]
    fields = fields_by_name(sol)
    for a, b in combinations(range(3), 2):
        if sol.state.u[a] != sol.state.u[b]:
            continue
        swap = {a: b, b: a}
        origin = name[0] + "".join(str(k + 1) for k in sorted(swap.get(k, k) for k in idx))
        axes = [swap.get(k, k) for k in range(3)]
        if origin != name:
            yield np.transpose(fields[origin], axes)


def test_transposition_rule_fixes_the_solved_components(solutions, wave_point):
    assert solutions[1.0, 1.0].solved == ("A1", "B11", "B12")
    sol = wave_point[3]
    assert sol.state.u[0] != 0.0 and sol.state.u[1] == sol.state.u[2] == 0.0
    assert sol.solved == ("A1", "A2", "B22", "B12", "B23")
    assert max(sol.residuals.values()) <= 5.1e-3


def trace_origin(sol, name):
    """Minus the sum of the other two diagonal shears, or None off the diagonal."""
    if name[0] != "B" or name[1] != name[2]:
        return None
    fields = fields_by_name(sol)
    others = [f"B{k}{k}" for k in "123" if k != name[1]]
    return -(fields[others[0]] + fields[others[1]])


def test_copied_components_are_exact_transposes(solutions, wave_point):
    for sol in (solutions[1.0, 1.0], wave_point[3]):
        for name, field in fields_by_name(sol).items():
            if name not in sol.solved:
                trace = trace_origin(sol, name)
                assert any(np.array_equal(field, o) for o in transposed_origins(sol, name)) or (
                    trace is not None and np.array_equal(field, trace)
                ), name
        for i in range(3):
            for j in range(3):
                assert np.array_equal(sol.B[i][j].values, sol.B[j][i].values)


def test_diagonal_shear_sources_sum_to_zero(wave_point):
    s, g = wave_point[3].state, wave_point[3].grid
    hb = burnett_hats(s, g)[1]
    basis = macro_basis(s, g)
    for diag in ([hb[k][k] for k in range(3)], [project_P1(hb[k][k], basis) for k in range(3)]):
        total = diag[0].values + diag[1].values + diag[2].values
        scale = max(float(np.abs(d.values).max()) for d in diag)
        assert np.abs(total).max() <= 8.0 * np.finfo(float).eps * scale


def test_every_wave_point_residual_is_within_tol(wave_point):
    sol = wave_point[3]
    assert sorted(sol.residuals) == sorted(COMPONENTS)
    assert all(0.0 <= r <= TOL for r in sol.residuals.values())
    assert "B11" not in sol.solved
    b = fields_by_name(sol)
    assert np.array_equal(b["B11"], -(b["B22"] + b["B33"]))


def test_three_distinct_velocity_components_take_eight_solves():
    theta = 1.0
    s = GasState(1.0, (0.2, -0.1, 0.05), theta)
    g = VelocityGrid(0.3 + 6.5 * math.sqrt(GAS_R * theta), N)
    sol = burnett_solve(s, g, tol=TOL)
    assert sol.solved == ("A1", "A2", "A3", "B11", "B22", "B12", "B13", "B23")
    b = fields_by_name(sol)
    assert np.array_equal(b["B33"], -(b["B11"] + b["B22"]))
    assert sorted(sol.residuals) == sorted(COMPONENTS)
    assert all(0.0 <= r <= TOL for r in sol.residuals.values())


def test_a_verified_residual_above_tol_raises(monkeypatch):
    solve = transport.invert_LM_micro

    def overshoot(*args, **kwargs):
        return GridFunction(args[2], 1.1 * solve(*args, **kwargs).values)

    monkeypatch.setattr(transport, "invert_LM_micro", overshoot)
    s = GasState.make(1.0, 0.0, 1.0)
    with pytest.raises(NonConvergenceError, match=r"A1 \(solve\) has verified residual above") as exc:
        burnett_solve(s, thermal_grid(1.0, N), tol=TOL)
    assert len(exc.value.residuals) == 1 and exc.value.residuals[0] > TOL


def test_each_component_is_logged_with_its_origin_and_residual(wave_point, caplog):
    ref = wave_point[3]
    assert not logging.getLogger("rarewave.transport").handlers
    with caplog.at_level(logging.DEBUG, logger="rarewave.transport"):
        sol = burnett_solve(ref.state, ref.grid, tol=TOL)
    records = [r.getMessage() for r in caplog.records if r.name == "rarewave.transport"]
    assert len(records) == 9
    logged = {m.split(":")[0]: m for m in records}
    assert sorted(logged) == sorted(COMPONENTS)
    assert "B33: transpose of B22," in logged["B33"]
    assert "B11: trace of B22, B33," in logged["B11"]
    for name in sol.solved:
        assert logged[name].startswith(f"{name}: solve,")
    for name, r in sol.residuals.items():
        assert logged[name].endswith(f"verified residual {r:.3e}")


def test_gbar_is_independent_of_a_and_linear_in_eps(wave_point):
    wave, t, x, sol = wave_point

    def gbar(eps, a):
        return gbar_construct(wave, t, x, sol.state, eps, a, sol).values

    prof = wave.profile(t, x, order=1)
    unit = gbar_from_gradients(float(prof["u1_x"]), float(prof["theta_x"]), sol).values
    ref = gbar(0.1, 0.5)
    bound = 1e-12 * np.abs(ref).max()
    assert bound > 0.0
    assert np.abs(ref - 0.1 * unit).max() <= bound
    for a in (0.0, 1.0):
        assert np.abs(gbar(0.1, a) - ref).max() <= bound
    for eps in (0.25, 0.5):
        assert np.abs(gbar(eps, 0.5) - (eps / 0.1) * ref).max() <= (eps / 0.1) * bound


def test_decay_check_constants_positive_and_nonincreasing_in_eps(wave_point):
    rows = decay_check(wave_point[3])
    assert [r.epsilon for r in rows] == [0.1, 0.25, 0.5]
    consts = [r.constant for r in rows]
    assert all(math.isfinite(c) and c > 0.0 for c in consts)
    assert all(c2 <= c1 for c1, c2 in zip(consts, consts[1:]))
