"""Cost of ``burnett_solve`` at rest and at a drifting wave state, against an earlier revision.

    python bench/burnett_solve.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  For n_per_axis in {16, 20, 24, 32} it
times ``burnett_solve`` (tol 1e-2, ``DEFAULT_TOL``; best of 5, one thread) at
two states:

- ``rest``: (rho, u, theta) = (1, 0, 1) on ``thermal_grid(1.0, n)``, the
  lattice family of ``transport_table``, whose default is n = 20;
- ``mid_fan``: on the wave of the ``wave_slice`` benchmark workload (left
  state (1, 0, 1), right density 1.5, width 0.5), the state at t = 2,
  x = t (lambda3(left) + lambda3(right)) / 2, on that workload's shared
  lattice: half width |u1| + 6.5 sqrt(R theta) of the right state.  At
  n = 20 this state passes with almost no margin (largest residual 9.9e-3),
  and the fan states on its cool side, x = 1.6-2.4, raise on that lattice.

The lattice's kernel transforms are built before the clock starts, as the
workload's set-up builds them.  Each of the five calls builds its own
``LMOperator``: a best-of-7 build took about 6, 12, 24 and 65 ms at n = 16,
20, 24 and 32 (one thread of a 2-core Intel Xeon).  Both sides run the
protocol in ``bench/harness.py``, next to the solves, the
``LMOperator.apply`` calls of one ``burnett_solve`` call (counted by a
wrapper this script installs, so ``src/`` is the same as without it), the
nine residuals, mu, kappa and B11, or the message raised.
"""

from __future__ import annotations

import math

from harness import REPEATS, best_of, dispatch, main

SIZES = (16, 20, 24, 32)
LEFT, RHO_PLUS, DELTA, T, TOL, SPAN = (1.0, 0.0, 1.0), 1.5, 0.5, 2.0, 1e-2, 6.5
STATES = ("rest", "mid_fan")


def measure() -> dict:
    """Time ``burnett_solve`` at both states with the ``rarewave`` the harness loaded."""
    from rarewave import collision, velocity
    from rarewave.burgers import SmoothWave
    from rarewave.euler import GAS_R, GasState, RiemannData, lambda3
    from rarewave.transport import burnett_solve, thermal_grid

    data = RiemannData.from_density(GasState.make(*LEFT), RHO_PLUS)
    wave = SmoothWave(data, DELTA)
    half_width = abs(data.right.u1) + SPAN * math.sqrt(GAS_R * data.right.theta)
    lattices = {
        "rest": (GasState.make(1.0, 0.0, 1.0), lambda n: thermal_grid(1.0, n, SPAN)),
        "mid_fan": (
            wave.state(T, 0.5 * T * (lambda3(data.left) + lambda3(data.right))),
            lambda n: velocity.VelocityGrid(half_width, n),
        ),
    }
    calls = [0]
    plain_apply = collision.LMOperator.apply

    def counted_apply(self, values):
        calls[0] += 1
        return plain_apply(self, values)

    collision.LMOperator.apply = counted_apply
    res = {}
    for n in SIZES:
        for state in STATES:
            s, lattice = lattices[state]
            g = lattice(n)
            m = velocity.maxwellian(s, g)
            collision.collision_Q(m, m, g)  # builds the lattice's kernel transforms
            at = f"state={state} n_per_axis={n}/"
            outcome = []

            def solve():
                calls[0] = 0
                try:
                    outcome.append(burnett_solve(s, g, tol=TOL))
                except collision.NonConvergenceError as exc:
                    outcome.append(exc)

            res[at + "burnett_solve_s"] = best_of(solve)
            res[at + "apply_calls"] = calls[0]
            sol = outcome[-1]
            if isinstance(sol, Exception):
                res[at + "raised"] = str(sol)
                continue
            res[at + "solves"] = len(sol.solved)
            res[at + "residuals"] = [sol.residuals[c] for c in sorted(sol.residuals)]
            res[at + "mu"] = sol.mu_theta
            res[at + "kappa"] = sol.kappa_theta
            res[at + "B11"] = sol.B[0][0].values
    return res


DESCRIPTION = {
    "what": "burnett_solve at rest on thermal_grid(1, n) and at the wave_slice mid-fan state "
    "on its shared lattice: before/after",
    "wave": {"left": LEFT, "rho_plus": RHO_PLUS, "delta": DELTA, "t": T, "tol": TOL},
    "timing": f"best of {REPEATS} calls per round after the kernel-transform build, alternating "
    "rounds per lattice, one thread, seconds; median and quartiles over rounds",
    "accuracy": "per side: solves, LMOperator.apply calls per burnett_solve call, the nine "
    "recorded residuals, mu, kappa and max |B11|; max_rel: max |after - before| / max |before|",
}

if __name__ == "__main__":
    dispatch(measure, lambda: main(__file__, __doc__, DESCRIPTION))
