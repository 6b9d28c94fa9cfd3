"""Burnett preimages, transport coefficients and the transport table."""

import dataclasses
import json
import logging
import logging.handlers
import math
import os
import re
import subprocess
import sys
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import rarewave
from rarewave import transport
from rarewave.burgers import SmoothWave, derivative_decay_report
from rarewave.collision import (
    KernelParams,
    LMOperator,
    NonConvergenceError,
    collision_Q,
    invert_LM_micro,
)
from rarewave.euler import GAS_R, GasState, RiemannData, lambda3
from rarewave.transport import (
    TransportTable,
    burnett_hats,
    burnett_property_check,
    burnett_solve,
    decay_check,
    gbar_construct,
    thermal_exponent,
    thermal_grid,
    transport_table,
)
from rarewave.velocity import GridFunction, VelocityGrid, macro_basis, maxwellian, project_P1

N = 20
TOL = 1e-2
COMPONENTS = ("A1", "A2", "A3", "B11", "B12", "B13", "B22", "B23", "B33")


@pytest.fixture(scope="module")
def solutions():
    """Rest-state solves keyed by (rho, theta), each on its thermal lattice at the default tol."""
    out = {}
    for rho, theta in ((1.0, 1.0), (1.0, 1.7), (2.0, 1.0)):
        out[rho, theta] = burnett_solve(GasState.make(rho, 0.0, theta), thermal_grid(theta, N))
    return out


@pytest.fixture(scope="module")
def wave_point():
    """A smoothed 3-rarefaction wave, mid-fan at t = 2, with its solve and the DEBUG log of it."""
    data = RiemannData.from_density(GasState.make(1.0, 0.0, 1.0), 1.5)
    wave = SmoothWave(data, 0.5)
    t = 2.0
    x = 0.5 * t * (lambda3(data.left) + lambda3(data.right))
    s = wave.state(t, x)
    g = VelocityGrid(abs(s.u1) + 6.5 * math.sqrt(GAS_R * s.theta), N)
    log, logger = logging.handlers.BufferingHandler(100), logging.getLogger("rarewave.transport")
    logger.addHandler(log)
    logger.setLevel(logging.DEBUG)
    try:
        sol = burnett_solve(s, g, tol=TOL)
    finally:
        logger.setLevel(logging.NOTSET)
        logger.removeHandler(log)
    return wave, t, x, sol, log.buffer


@pytest.fixture(scope="module")
def distinct_point():
    """A solve at a state with three distinct velocity components."""
    theta = 1.0
    s = GasState(1.0, (0.2, -0.1, 0.05), theta)
    g = VelocityGrid(0.3 + 6.5 * math.sqrt(GAS_R * theta), N)
    return burnett_solve(s, g, tol=TOL)


@pytest.fixture(scope="module")
def a1_stall():
    """The A1 solve on the n = 16 thermal lattice at rest, which stalls, and its error."""
    s = GasState.make(1.0, 0.0, 1.0)
    g = thermal_grid(1.0, 16)
    source = project_P1(burnett_hats(s, g)[0][0], macro_basis(s, g))
    with pytest.raises(NonConvergenceError) as exc:
        invert_LM_micro(LMOperator(s, g), source, TOL)
    return s, g, exc.value


def scaled(sol):
    """mu / theta^2.5 and kappa / theta^2.5."""
    th = sol.state.theta
    return sol.mu_theta / th**2.5, sol.kappa_theta / th**2.5


def test_burnett_solve_records_all_nine_residuals_within_tol(solutions):
    for sol in solutions.values():
        assert sorted(sol.residuals) == sorted(COMPONENTS)
        assert all(0.0 <= r <= TOL for r in sol.residuals.values())
        assert sol.mu_theta > 0.0 and sol.kappa_theta > 0.0


def test_default_tolerance_is_met_on_the_default_lattice(solutions):
    # ``solutions`` solves with the default tol: it is the TOL other tests assume, and lies
    # above the residual floor of the n = 20 thermal lattice, where the A1 solve stalls near 1e-3
    assert transport.DEFAULT_TOL == TOL
    sol = solutions[1.0, 1.0]
    assert sorted(sol.residuals) == sorted(COMPONENTS)
    assert all(0.0 <= r <= 1e-2 for r in sol.residuals.values())


def test_coefficients_are_exactly_theta_covariant(solutions):
    # The thermal lattice scales with sqrt(theta), so the discrete problem
    # is self-similar and the table is an exact power law at gamma = -3.
    mu1, ka1 = scaled(solutions[1.0, 1.0])
    mu2, ka2 = scaled(solutions[1.0, 1.7])
    assert math.isclose(mu1, mu2, rel_tol=1e-12)
    assert math.isclose(ka1, ka2, rel_tol=1e-12)


def assert_preimage_law(one, two):
    """A1, B11 and B12 of ``two`` are the law's factor times those of ``one``.

    On thermal lattices L_M scales by theta^(gamma/2) and the sources by
    theta^(-3/2), so the nodal preimages scale by theta^(a - 5/2) with a
    the thermal exponent.
    """
    ratio = two.state.theta / one.state.theta
    factor = ratio ** (thermal_exponent(one.params.gamma) - 2.5)
    for f1, f2 in ((one.A[0], two.A[0]), (one.B[0][0], two.B[0][0]), (one.B[0][1], two.B[0][1])):
        assert np.abs(f2.values - factor * f1.values).max() <= 1e-13 * np.abs(f2.values).max()


def test_nodal_preimages_follow_the_thermal_law(solutions):
    assert_preimage_law(solutions[1.0, 1.0], solutions[1.0, 1.7])


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
    assert_preimage_law(one, two)


def test_coefficients_are_independent_of_density(solutions):
    one, two = solutions[1.0, 1.0], solutions[2.0, 1.0]
    assert math.isclose(one.mu_theta, two.mu_theta, rel_tol=1e-12)
    assert math.isclose(one.kappa_theta, two.kappa_theta, rel_tol=1e-12)


def pairing_scale(sol):
    """max |P| of the table of bare sources against preimages."""
    _, polys = transport._sources(sol.state, sol.grid)
    fields = fields_by_name(sol).values()
    return max(abs(sol.grid.integrate(q * f)) for q in polys.values() for f in fields)


def test_property_check_passes_on_converged_solves(solutions):
    # at rest the octahedral symmetry and the trace fix the isotropic form to round-off
    for sol in solutions.values():
        checks = burnett_property_check(sol)
        assert [c.name for c in checks] == ["isotropic form", "rotation identity"]
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert checks[0].defect <= 1e-14 * pairing_scale(sol)
        assert all(v < 0.0 for v in checks[0].values)
        # the tolerances follow the residuals the solution records
        worse = dataclasses.replace(sol, residuals={k: 10.0 * r for k, r in sol.residuals.items()})
        for c, w in zip(checks, burnett_property_check(worse)):
            assert w.tolerance > c.tolerance


def test_property_check_passes_on_a_moving_state(wave_point, distinct_point):
    # off rest the lattice no longer pins the form at round-off, so the
    # form check measures the solves here
    for sol in (wave_point[3], distinct_point):
        checks = burnett_property_check(sol)
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    form = burnett_property_check(wave_point[3])[0]
    assert form.defect > max(1e-4, 1e-6 * pairing_scale(wave_point[3]))


def scaled_components(sol, names, factor):
    """``sol`` with the named preimages multiplied by ``factor``."""
    A, B = list(sol.A), [list(row) for row in sol.B]
    for name in names:
        k = [int(c) - 1 for c in name[1:]]
        if name[0] == "A":
            A[k[0]] = GridFunction(sol.grid, factor * sol.A[k[0]].values)
        else:
            field = GridFunction(sol.grid, factor * sol.B[k[0]][k[1]].values)
            B[k[0]][k[1]] = B[k[1]][k[0]] = field
    return dataclasses.replace(sol, A=tuple(A), B=tuple(tuple(row) for row in B))


@pytest.mark.parametrize(
    "names, factor, failed",
    [
        (("A2",), 1.05, {"isotropic form"}),
        (("B12", "B13", "B23"), 1.1, {"rotation identity"}),
        (("A1", "A2", "A3"), -1.0, {"isotropic form"}),
    ],
    ids=["A2x1.05", "off-diagonal-x1.1", "negated-A"],
)
def test_property_check_fails_on_a_scaled_preimage(solutions, names, factor, failed):
    bad = scaled_components(solutions[1.0, 1.0], names, factor)
    assert {c.name for c in burnett_property_check(bad) if not c.passed} == failed


def test_property_check_fails_on_a_scaled_shear_preimage(solutions):
    # one off-diagonal shear off by half breaks both the form and the identity
    bad = scaled_components(solutions[1.0, 1.0], ("B12",), 1.5)
    failed = {c.name for c in burnett_property_check(bad) if not c.passed}
    assert failed == {"isotropic form", "rotation identity"}


def test_reports_serialise_to_json(wave_point):
    reports = (
        burnett_property_check(wave_point[3])[0],
        derivative_decay_report(wave_point[0], (1.0,), (2.0,))[0],
        decay_check(wave_point[3])[0],
    )
    for report in reports:
        fields = dataclasses.asdict(report)
        json.dumps(fields)
        # plain Python scalars, not numpy ones that only subclass them
        flat = [v for f in fields.values() for v in (f if isinstance(f, tuple) else (f,))]
        assert all(type(v) in (str, int, float) for v in flat), report


def test_grid_defect_reads_q_of_m_m_on_the_reference_weight(solutions):
    # under the state's own weight Q(M, M) is round-off and would floor nothing
    sol = solutions[1.0, 1.0]
    m = maxwellian(sol.state, sol.grid)
    assert sol.grid_defect == np.abs(collision_Q(m, m, sol.grid).values).max()
    assert sol.grid_defect >= 1e-6
    assert np.abs(collision_Q(m, m, sol.grid, weight=sol.state).values).max() <= 1e-15


def test_grid_defect_is_evaluated_once_and_only_when_read(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return collision_Q(*args, **kwargs)

    monkeypatch.setattr(transport, "collision_Q", counted)
    sol = burnett_solve(GasState.make(1.0, 0.0, 1.0), thermal_grid(1.0, 12), tol=0.5)
    assert not calls
    assert sol.grid_defect > 0.0
    assert len(calls) == 1
    assert sol.grid_defect > 0.0
    assert len(calls) == 1


def test_stalled_restart_cycle_raises_before_the_budget_is_spent(a1_stall):
    # At n = 16 the heat source carries content the lattice operator
    # barely reaches: the true residual stalls near 2.2e-2 from the second
    # restart on, where a consistent right-hand side gains decades per cycle.
    err = a1_stall[2]
    assert re.search("restart cycle", str(err))
    used = int(re.search(r"after (\d+) inner iterations", str(err)).group(1))
    assert used < 600
    assert err.residuals[-1] > 1e-2
    # every step minimises the true residual over a space holding the last
    # iterate, so the history after the zero start never rises
    history = err.residuals[1:]
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))


def test_table_follows_exact_thermal_law(solutions):
    sols = [solutions[1.0, 1.0], solutions[1.0, 1.7]]
    table = TransportTable(
        theta=tuple(s.state.theta for s in sols),
        mu=tuple(s.mu_theta for s in sols),
        kappa=tuple(s.kappa_theta for s in sols),
        residual=tuple(max(s.residuals.values()) for s in sols),
    )
    assert table.mu_of(1.7) == pytest.approx(table.mu[1], rel=1e-14)
    assert np.allclose(table.kappa_of(np.array([1.0, 1.7])), table.kappa, rtol=1e-14)
    # outside the table range the exact law holds, with no clamp and no warning
    law = (np.array([0.8, 2.5]) / table.theta[0]) ** thermal_exponent(sols[0].params.gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, th in enumerate((0.8, 2.5)):
            assert table.mu_of(th) == pytest.approx(table.mu[0] * law[k], rel=1e-14)
            assert table.kappa_of(th) == pytest.approx(table.kappa[0] * law[k], rel=1e-14)
        assert np.allclose(table.mu_of([0.8, 2.5]), table.mu[0] * law, rtol=1e-14, atol=0.0)


def test_table_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError):
        TransportTable((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite and positive"):
        TransportTable((-1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0))
    # columns of other lengths built, and mu_of(1.5) read 2.756 off a one-entry mu
    ok, short, long = (1.0, 2.0), (1.0,), (1.0, 2.0, 3.0)
    for columns in ((short, long, short), (short, ok, ok), (ok, long, ok), (ok, ok, short)):
        with pytest.raises(ValueError, match="one entry per temperature"):
            TransportTable(ok, *columns)

    def no_solve(*args, **kwargs):
        raise AssertionError("a bad temperature list reached the solver")

    # every check runs before the first row is solved
    monkeypatch.setattr("rarewave.transport.burnett_solve", no_solve)
    for bad in ((0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (1.0,), (0.8, math.nan)):
        with pytest.raises(ValueError):
            transport_table(bad)


@pytest.mark.parametrize(
    "column, bad, named",
    [
        ("mu", (math.nan, -0.9, 0.0, math.inf), "mu must be finite and positive"),
        ("kappa", (math.nan, -2.4, 0.0, math.inf), "kappa must be finite and positive"),
        ("residual", (math.nan, -1e-3, math.inf), "residual must be finite and nonnegative"),
    ],
)
def test_table_rejects_a_column_that_is_not_physical(column, bad, named):
    # a nan mu built, and mu_of(1.5) returned nan; a mu of -0.9 gave a viscosity of -2.48
    for value in bad:
        columns = {"mu": (0.9, 1.1), "kappa": (2.4, 3.0), "residual": (0.0, 0.0)}
        columns[column] = (value, columns[column][1])
        with pytest.raises(ValueError, match=named):
            TransportTable((1.0, 2.0), **columns)


def test_thermal_grid_rejects_a_temperature_that_is_not_finite_and_positive():
    # theta = -1 raised "math domain error", and 0, nan or inf "half_width must be positive"
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"temperature must be finite and positive, got {bad}"):
            thermal_grid(bad, N)


def test_table_law_rejects_nonpositive_temperatures():
    # theta = 0 gave 0.0, theta < 0 gave nan with a RuntimeWarning, and theta = inf gave inf
    table = TransportTable((1.0, 1.7), (0.9, 1.1), (2.4, 3.0), (0.0, 0.0))
    for law in (table.mu_of, table.kappa_of):
        for bad in (0.0, -1.0, np.array([1.0, 0.0]), [1.0, -0.5], math.inf, [1.0, math.inf]):
            with pytest.raises(ValueError, match="temperature must be finite and positive"):
                law(bad)


def test_burnett_solve_rejects_a_tol_that_is_not_finite_and_positive(monkeypatch):
    # tol = nan ran every solve and raised "verified residual above tol nan"
    def no_operator(*args, **kwargs):
        raise AssertionError("the operator was built")

    monkeypatch.setattr(transport, "LMOperator", no_operator)
    s, g = GasState.make(1.0, 0.0, 1.0), thermal_grid(1.0, N)
    for bad in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            burnett_solve(s, g, tol=bad)


def test_burnett_solve_rejects_a_start_of_another_lattice_shape(solutions, monkeypatch):
    # the start is an earlier solution; invert_LM_micro checks each of its
    # fields as a GridFunction on the new lattice before any apply
    def no_apply(*args, **kwargs):
        raise AssertionError("a start of another shape reached the operator")

    monkeypatch.setattr(LMOperator, "apply", no_apply)
    s, g = GasState.make(1.0, 0.0, 1.0), thermal_grid(1.0, 8)
    with pytest.raises(ValueError, match="grid shape"):
        burnett_solve(s, g, start=solutions[1.0, 1.0])


@pytest.mark.parametrize("thetas", [(1.0, 1.7), (1.0, 1.7, 2.3)], ids=["2-row", "3-row"])
def test_warm_started_rows_equal_cold_solves(thetas, solutions, monkeypatch):
    # rows after the first start from the previous row's solution as it is,
    # since the nodal preimages do not depend on theta at the default gamma;
    # the start is already within tol, so no preconditioner runs, and every
    # row still equals an independent cold solve
    counts, rows = [0], []
    weak_apply = LMOperator.weak_apply
    solve = transport.burnett_solve

    def counted(self, x):
        counts[-1] += 1
        return weak_apply(self, x)

    def recorded(*args, **kwargs):
        counts.append(0)
        rows.append(solve(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(LMOperator, "weak_apply", counted)
    monkeypatch.setattr(transport, "burnett_solve", recorded)
    table = transport_table(thetas, n_per_axis=N, tol=TOL)
    monkeypatch.undo()
    assert len(rows) == len(thetas) and counts[1] > 0 and counts[2:] == [0] * (len(thetas) - 1)
    for k, th in enumerate(thetas):
        cold = solutions.get((1.0, th)) or burnett_solve(
            GasState.make(1.0, 0.0, th), thermal_grid(th, N), tol=TOL
        )
        assert math.isclose(table.mu[k], cold.mu_theta, rel_tol=1e-12)
        assert math.isclose(table.kappa[k], cold.kappa_theta, rel_tol=1e-12)
        assert math.isclose(table.residual[k], max(cold.residuals.values()), rel_tol=1e-12)
        for name, r in rows[k].residuals.items():
            assert math.isclose(r, cold.residuals[name], rel_tol=1e-12), (th, name)
        warm_fields, cold_fields = fields_by_name(rows[k]), fields_by_name(cold)
        for name, f in cold_fields.items():
            assert np.abs(warm_fields[name] - f).max() <= 1e-12 * np.abs(f).max(), (th, name)


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


def test_three_distinct_velocity_components_take_eight_solves(distinct_point):
    sol = distinct_point
    assert sol.solved == ("A1", "A2", "A3", "B11", "B22", "B12", "B13", "B23")
    b = fields_by_name(sol)
    assert np.array_equal(b["B33"], -(b["B11"] + b["B22"]))
    assert sorted(sol.residuals) == sorted(COMPONENTS)
    assert all(0.0 <= r <= TOL for r in sol.residuals.values())


def test_a_verified_residual_above_tol_raises(monkeypatch):
    solve = transport.invert_LM_micro

    def overshoot(*args, **kwargs):
        out, product = solve(*args, **kwargs)
        return GridFunction(out.grid, 1.1 * out.values), 1.1 * product

    monkeypatch.setattr(transport, "invert_LM_micro", overshoot)
    s = GasState.make(1.0, 0.0, 1.0)
    with pytest.raises(NonConvergenceError, match=r"A1 \(solve\) has verified residual above") as exc:
        burnett_solve(s, thermal_grid(1.0, N), tol=TOL)
    assert len(exc.value.residuals) == 1 and exc.value.residuals[0] > TOL


def test_every_apply_runs_inside_a_solve(monkeypatch):
    # a solved component's product comes back from its solve, so burnett_solve
    # applies L_M nowhere else; a warm table row, whose starts are within tol,
    # costs one apply per solved component
    depth, outside, per_row = [0], [0], []
    apply, solve, row = LMOperator.apply, transport.invert_LM_micro, transport.burnett_solve

    def counted_apply(self, values):
        per_row[-1] += 1
        outside[0] += depth[0] == 0
        return apply(self, values)

    def counted_solve(*args, **kwargs):
        depth[0] += 1
        try:
            return solve(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_row(*args, **kwargs):
        per_row.append(0)
        return row(*args, **kwargs)

    monkeypatch.setattr(LMOperator, "apply", counted_apply)
    monkeypatch.setattr(transport, "invert_LM_micro", counted_solve)
    monkeypatch.setattr(transport, "burnett_solve", counted_row)
    table = transport_table((1.0, 1.3), n_per_axis=N, tol=TOL)
    assert len(table.mu) == 2 and outside[0] == 0
    assert per_row[0] > 3 and per_row[1] == 3


def test_every_recorded_residual_matches_a_fresh_apply(solutions, wave_point, distinct_point):
    # transposed and trace-derived components record the source minus a
    # product made from their origins' products; a fresh apply of the
    # field itself must give the same residual
    for sol in (solutions[1.0, 1.0], wave_point[3], distinct_point):
        s, g = sol.state, sol.grid
        op = LMOperator(s, g, sol.params)
        ha, hb = burnett_hats(s, g)
        for name, field in fields_by_name(sol).items():
            k = [int(c) - 1 for c in name[1:]]
            hat = ha[k[0]] if name[0] == "A" else hb[k[0]][k[1]]
            source = project_P1(hat, op.basis).values
            res = source - op.apply(field)
            fresh = math.sqrt(g.integrate(res * res) / g.integrate(source * source))
            assert sol.residuals[name] == pytest.approx(fresh, rel=1e-10), name


@pytest.mark.parametrize(
    "at, skewed, match",
    [
        ("rest", (1, 1), r"B22 \(transpose of B11\) has verified residual above"),
        ("wave", (0, 0), r"B11 \(trace of B22, B33\) has verified residual above"),
    ],
    ids=["rest-B22", "wave-B11"],
)
def test_a_derived_component_off_its_source_raises(at, skewed, match, wave_point, monkeypatch):
    # a derived component is never applied itself, so its residual check
    # must still see a source its origins' products do not match
    sources = transport._sources

    def skew(s, g):
        sq, polys = sources(s, g)
        return sq, {**polys, skewed: 1.1 * polys[skewed]}

    if at == "rest":
        s, g = GasState.make(1.0, 0.0, 1.0), thermal_grid(1.0, N)
    else:
        s, g = wave_point[3].state, wave_point[3].grid
    monkeypatch.setattr(transport, "_sources", skew)
    with pytest.raises(NonConvergenceError, match=match) as exc:
        burnett_solve(s, g, tol=TOL)
    assert exc.value.residuals[-1] > TOL


def test_a_failed_solve_names_its_component_and_the_resolution_floor(a1_stall):
    s, g, direct = a1_stall
    with pytest.raises(NonConvergenceError, match=r"^A1 \(solve\): constrained solve") as exc:
        burnett_solve(s, g, tol=TOL)
    assert re.search(r"; grid_defect \d\.\d{3}e-\d+, n_per_axis 16$", str(exc.value))
    assert exc.value.residuals == direct.residuals
    assert isinstance(exc.value.__cause__, NonConvergenceError)


def test_each_component_is_logged_with_its_origin_and_residual(wave_point):
    sol, log = wave_point[3:]
    assert not logging.getLogger("rarewave.transport").handlers
    records = [r.getMessage() for r in log if r.name == "rarewave.transport"]
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
    wave, t, x, sol, _ = wave_point

    def gbar(eps, a):
        return gbar_construct(wave, t, x, sol.state, eps, a, sol).values

    prof = wave.profile(t, x, order=1)
    # the field at eps = 1: sqrt(R) theta_x / sqrt(theta) A1 + u1_x B11
    unit = (
        math.sqrt(GAS_R) * prof["theta_x"] / math.sqrt(sol.state.theta) * sol.A[0].values
        + prof["u1_x"] * sol.B[0][0].values
    )
    ref = gbar(0.1, 0.5)
    bound = 1e-12 * np.abs(ref).max()
    assert bound > 0.0
    assert np.abs(ref - 0.1 * unit).max() <= bound
    for a in (0.0, 1.0):
        assert np.abs(gbar(0.1, a) - ref).max() <= bound
    for eps in (0.25, 0.5):
        assert np.abs(gbar(eps, 0.5) - (eps / 0.1) * ref).max() <= (eps / 0.1) * bound


@pytest.mark.parametrize("eps,a", [(0.05, 2.0 / 3.0), (0.1, 1.0)])
def test_gbar_closes_the_navier_stokes_fluxes(wave_point, eps, a):
    # Chapman-Enskog: the heat flux and normal stress of gbar are -eps kappa theta_x and
    # -(4/3) eps mu11 u1_x, with mu11 the normal shear viscosity of the same solution
    wave, t, x, sol, _ = wave_point
    s, g = sol.state, sol.grid
    gbar = gbar_construct(wave, t, x, s, eps, a, sol).values
    prof = wave.profile(t, x, order=1)
    c = [v - u for v, u in zip(g.components, s.u)]
    sq = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    stress = c[0] * c[0] - sq / 3.0  # R theta b11
    mu11 = -0.75 * g.integrate(stress * sol.B[0][0].values)  # -(3/4) R theta <b11, B11>
    q1 = g.integrate(c[0] * sq / 2.0 * gbar)
    tau11 = g.integrate(stress * gbar)
    assert abs(q1 + eps * sol.kappa_theta * prof["theta_x"]) <= 1e-5 * abs(q1)
    assert abs(tau11 + 4.0 / 3.0 * eps * mu11 * prof["u1_x"]) <= 1e-5 * abs(tau11)
    # the cubic lattice's shear anisotropy: B11 and B12 viscosities differ at O(h^2)
    assert 0.0 < 1.0 - mu11 / sol.mu_theta <= 0.05
    bound = 1e-14 * np.abs(gbar).max() * (2.0 * g.half_width) ** 3
    for moment in (1.0, *c, sq):
        assert abs(g.integrate(moment * gbar)) <= bound


def test_gbar_rejects_a_state_the_solution_was_not_built_for(wave_point):
    wave, t, x, sol, _ = wave_point
    other = GasState.make(sol.state.rho, sol.state.u1, 1.01 * sol.state.theta)
    with pytest.raises(ValueError, match="not built for"):
        gbar_construct(wave, t, x, other, 0.1, 0.5, sol)


def test_gbar_rejects_an_eps_that_is_not_finite_and_positive(wave_point):
    # eps = -0.1 gave a field of size 1e-35, the real part of complex powers
    wave, t, x, sol, _ = wave_point
    for bad in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            gbar_construct(wave, t, x, sol.state, bad, 0.5, sol)


def test_decay_check_constants_positive_and_nonincreasing_in_eps(wave_point):
    rows = decay_check(wave_point[3])
    assert [r.epsilon for r in rows] == [0.1, 0.25, 0.5]
    consts = [r.constant for r in rows]
    assert all(math.isfinite(c) and c > 0.0 for c in consts)
    assert all(c2 <= c1 for c1, c2 in zip(consts, consts[1:]))


def test_the_package_imports_no_sparse_or_optimize_scipy():
    # scipy.sparse.linalg alone adds 9.8 MB of peak RSS, past the 5% bound
    # of the benchmark's lightest workload
    probe = (
        "import sys, rarewave.transport, rarewave.burgers; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.sparse', 'scipy.optimize'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rarewave.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
