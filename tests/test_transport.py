"""Burnett preimages, transport coefficients and the transport table."""

import math

import numpy as np
import pytest

from rarewave.euler import GasState
from rarewave.transport import (
    TransportTable,
    burnett_property_check,
    burnett_solve,
    thermal_grid,
    transport_table,
)

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


def scaled(sol):
    """mu / theta^2.5 and kappa / theta^2.5."""
    th = sol.state.theta
    return sol.mu_theta / th**2.5, sol.kappa_theta / th**2.5


def test_burnett_solve_records_all_nine_residuals_within_tol(solutions):
    for sol in solutions.values():
        assert sorted(sol.residuals) == sorted(COMPONENTS)
        assert all(0.0 <= r <= TOL for r in sol.residuals.values())
        assert sol.mu_theta > 0.0 and sol.kappa_theta > 0.0


def test_coefficients_are_exactly_theta_covariant(solutions):
    # The thermal lattice scales with sqrt(theta), so the discrete problem
    # is self-similar and the table is an exact power law at gamma = -3.
    mu1, ka1 = scaled(solutions[1.0, 1.0])
    mu2, ka2 = scaled(solutions[1.0, 1.7])
    assert math.isclose(mu1, mu2, rel_tol=1e-12)
    assert math.isclose(ka1, ka2, rel_tol=1e-12)


def test_coefficients_are_independent_of_density(solutions):
    one, two = solutions[1.0, 1.0], solutions[2.0, 1.0]
    assert math.isclose(one.mu_theta, two.mu_theta, rel_tol=1e-12)
    assert math.isclose(one.kappa_theta, two.kappa_theta, rel_tol=1e-12)


def test_property_check_passes_on_converged_solves(solutions):
    for sol in solutions.values():
        checks = burnett_property_check(sol, tol=TOL)
        assert len(checks) == 9
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_table_csv_roundtrip(solutions, tmp_path):
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
    path = tmp_path / "table.csv"
    table.to_csv(path)
    back = TransportTable.from_csv(path)
    assert back == table
    assert back.mu_of(1.7) == pytest.approx(table.mu[1], rel=1e-14)
    assert np.allclose(back.kappa_of(np.array([1.0, 1.7])), table.kappa, rtol=1e-14)


def test_table_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        TransportTable((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (0.0, 0.0), 6.5, N, -3.0)
    with pytest.raises(ValueError):
        transport_table((0.5, 1.0))
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        TransportTable.from_csv(path)
