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
20, 24 and 32 (one thread of a 2-core Intel Xeon).  A ``--before`` revision
from before ``invert_LM_micro`` took its operator as an argument kept the
last one in a cache, so there calls 2-5 reuse it and read about one build
per call faster.  Both sides run the protocol in ``bench/harness.py``.
Next to each time stand, per side, the number of solves, the number of
``LMOperator.apply`` calls one ``burnett_solve`` call makes (counted by a
wrapper this script installs, so ``src/`` is the same as without it), the
largest recorded residual, mu and kappa, and across the sides the largest
relative difference of the nine recorded residuals and
max |B11_after - B11_before| / max |B11_before|.  A call that raises is
recorded with its message and apply count instead; a lattice on which both
sides raise is listed as a resolution floor.
"""

from __future__ import annotations

import math

import numpy as np

from harness import REPEATS, best_of, compare, dispatch, max_rel, parser, run_rounds, write

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
    wave = SmoothWave.build(data, DELTA)
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
            key = f"{state}_{n}"
            outcome = []

            def solve():
                calls[0] = 0
                try:
                    outcome.append(burnett_solve(s, g, tol=TOL))
                except collision.NonConvergenceError as exc:
                    outcome.append(exc)

            res[f"time_{key}"] = best_of(solve)
            res[f"apply_calls_{key}"] = calls[0]
            sol = outcome[-1]
            if isinstance(sol, Exception):
                res[f"raised_{key}"] = str(sol)
                continue
            res[f"solves_{key}"] = len(sol.solved)
            res[f"residuals_{key}"] = [sol.residuals[c] for c in sorted(sol.residuals)]
            res[f"mu_{key}"] = sol.mu_theta
            res[f"kappa_{key}"] = sol.kappa_theta
            res[f"B11_{key}"] = sol.B[0][0].values
    return res


def side_row(run: dict, key: str) -> dict:
    calls = int(run[f"apply_calls_{key}"])
    if f"raised_{key}" in run:
        return {"raised": str(run[f"raised_{key}"]), "apply_calls": calls}
    return {
        "solves": int(run[f"solves_{key}"]),
        "apply_calls": calls,
        "max_residual": float(run[f"residuals_{key}"].max()),
        "mu": float(run[f"mu_{key}"]),
        "kappa": float(run[f"kappa_{key}"]),
    }


def main() -> None:
    args = parser(__doc__).parse_args()
    runs = run_rounds(__file__, args.before, args.rounds)

    rows = []
    for n in SIZES:
        for state in STATES:
            key = f"{state}_{n}"
            row = {"state": state, "n_per_axis": n, "rounds": args.rounds}
            row["burnett_solve_s"] = compare(
                {side: [float(r[f"time_{key}"]) for r in runs[side]] for side in runs}
            )
            before, after = runs["before"][0], runs["after"][0]
            row["before"], row["after"] = side_row(before, key), side_row(after, key)
            if f"B11_{key}" in before and f"B11_{key}" in after:
                rb, ra = before[f"residuals_{key}"], after[f"residuals_{key}"]
                row["residuals_max_rel_diff"] = float(np.abs(ra / rb - 1.0).max())
                row["B11_max_rel_diff"] = max_rel(after[f"B11_{key}"], before[f"B11_{key}"])
            rows.append(row)

    report = {
        "what": "burnett_solve at rest on thermal_grid(1, n) and at the wave_slice mid-fan state "
        "on its shared lattice: before/after",
        "wave": {"left": LEFT, "rho_plus": RHO_PLUS, "delta": DELTA, "t": T, "tol": TOL},
        "timing": f"best of {REPEATS} calls per round after the kernel-transform build, {args.rounds} "
        "alternating rounds per lattice, one thread, seconds; median and quartiles over rounds",
        "accuracy": "per side: solves, LMOperator.apply calls per burnett_solve call, largest "
        "recorded residual, mu, kappa; residuals: max over the nine components of "
        "|after - before| / before; B11: max |after - before| / max |before|",
        "resolution_floor": [
            f"{row['state']} n_per_axis {row['n_per_axis']}: both sides raise"
            for row in rows
            if "raised" in row["before"] and "raised" in row["after"]
        ],
        "rows": rows,
    }
    write(args, report)
    head = f"{'state':>8} {'n':>3} {'before median':>14} {'after median':>13} wins resolved"
    print(f"{head}  accuracy")
    for row in rows:
        r = row["burnett_solve_s"]
        print(
            f"{row['state']:>8} {row['n_per_axis']:>3} {r['before']['median']:14.3e} "
            f"{r['after']['median']:13.3e} {r['after_wins']:4.0%} {str(r['resolved']):8}  "
            f"before {row['before']}  after {row['after']}  "
            f"residuals rel {row.get('residuals_max_rel_diff', '-')}  "
            f"B11 rel {row.get('B11_max_rel_diff', '-')}"
        )


if __name__ == "__main__":
    dispatch(measure, main)
