"""Cost of ``burnett_solve`` at a drifting wave state, against an earlier revision.

    python bench/burnett_solve.py --before REV [--rounds 10] [--out BENCH_trace_identity.json]

Run it from the root of a checkout.  On the wave of the ``wave_slice``
benchmark workload (left state (1, 0, 1), right density 1.5, width 0.5) it
takes the mid-fan state at t = 2, x = t (lambda3(left) + lambda3(right)) / 2,
and for n_per_axis in {16, 24, 32} times ``burnett_solve`` (tol 1e-2, best of
5, one thread) on that workload's shared lattice: half width
|u1| + 6.5 sqrt(R theta) of the right state, with the kernel transforms built
before the clock starts, as the workload's set-up builds them; only the first
of the five calls builds the state's cached ``LMOperator``.  The sides,
rounds and statistics are those of ``bench/fft_period.py``: each side runs
in a fresh process with ``src/`` of this checkout or of git revision REV, and
a difference counts as resolved only when one side wins at least nine tenths
of the rounds and the medians differ by more than the distance between the
quartiles of ``before``.  Next to each time stand, per side, the number of
solves, the largest recorded residual, mu and kappa, and across the sides
max |B11_after - B11_before| / max |B11_before|.  A call that raises is
recorded with its message instead.  The result is written as JSON.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy import fft  # noqa: E402

from fft_period import REPEATS, ROOT, SIZES, best_of, compare, provenance, run_rounds  # noqa: E402

LEFT, RHO_PLUS, DELTA, T, TOL, SPAN = (1.0, 0.0, 1.0), 1.5, 0.5, 2.0, 1e-2, 6.5


def measure(src: str, out: str) -> None:
    """Time ``burnett_solve`` on each lattice with the ``rarewave`` under ``src``."""
    sys.path.insert(0, src)
    import rarewave
    from rarewave import collision, velocity
    from rarewave.burgers import SmoothWave
    from rarewave.euler import GAS_R, GasState, RiemannData, lambda3
    from rarewave.transport import burnett_solve

    if Path(rarewave.__file__).resolve().parent != Path(src).resolve() / "rarewave":
        raise SystemExit(f"rarewave imported from {rarewave.__file__}, not from {src}")
    data = RiemannData.from_density(GasState.make(*LEFT), RHO_PLUS)
    wave = SmoothWave.build(data, DELTA)
    s = wave.state(T, 0.5 * T * (lambda3(data.left) + lambda3(data.right)))
    half_width = abs(data.right.u1) + SPAN * math.sqrt(GAS_R * data.right.theta)
    res = {}
    with fft.set_workers(1):
        for n in SIZES:
            g = velocity.VelocityGrid(half_width, n)
            m = velocity.maxwellian(data.left, g)
            collision.collision_Q(m, m, g)  # builds the shared kernel transforms
            outcome = []

            def solve():
                try:
                    outcome.append(burnett_solve(s, g, tol=TOL))
                except collision.NonConvergenceError as exc:
                    outcome.append(exc)

            res[f"time_{n}"] = best_of(solve)
            sol = outcome[-1]
            if isinstance(sol, Exception):
                res[f"raised_{n}"] = str(sol)
                continue
            res[f"solves_{n}"] = len(sol.solved)
            res[f"residual_{n}"] = max(sol.residuals.values())
            res[f"mu_{n}"] = sol.mu_theta
            res[f"kappa_{n}"] = sol.kappa_theta
            res[f"B11_{n}"] = sol.B[0][0].values
    np.savez(out, **res)


def side_row(run: dict, n: int) -> dict:
    if f"raised_{n}" in run:
        return {"raised": str(run[f"raised_{n}"])}
    return {
        "solves": int(run[f"solves_{n}"]),
        "max_residual": float(run[f"residual_{n}"]),
        "mu": float(run[f"mu_{n}"]),
        "kappa": float(run[f"kappa_{n}"]),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="git revision to compare against")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default=str(ROOT / "BENCH_trace_identity.json"))
    args = ap.parse_args()
    runs = run_rounds(__file__, args.before, args.rounds)

    rows = []
    for n in SIZES:
        row = {"n_per_axis": n, "rounds": args.rounds}
        row["burnett_solve_s"] = compare(
            {side: [float(r[f"time_{n}"]) for r in runs[side]] for side in runs}
        )
        before, after = runs["before"][0], runs["after"][0]
        row["before"], row["after"] = side_row(before, n), side_row(after, n)
        if f"B11_{n}" in before and f"B11_{n}" in after:
            b11 = before[f"B11_{n}"]
            row["B11_max_rel_diff"] = float(
                np.abs(after[f"B11_{n}"] - b11).max() / np.abs(b11).max()
            )
        rows.append(row)

    report = {
        "what": "burnett_solve at the wave_slice mid-fan state on its shared lattice: "
        "before/after",
        **provenance(args.before),
        "wave": {"left": LEFT, "rho_plus": RHO_PLUS, "delta": DELTA, "t": T, "tol": TOL},
        "timing": f"best of {REPEATS} calls per round after the kernel-transform build, {args.rounds} "
        "alternating rounds per lattice, one thread, seconds; median and quartiles over rounds",
        "accuracy": "per side: solves, largest recorded residual, mu, kappa; "
        "B11: max |after - before| / max |before|",
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'n':>3} {'before median':>14} {'after median':>13} wins resolved  accuracy")
    for row in rows:
        r = row["burnett_solve_s"]
        print(
            f"{row['n_per_axis']:>3} {r['before']['median']:14.3e} {r['after']['median']:13.3e} "
            f"{r['after_wins']:4.0%} {str(r['resolved']):8}  before {row['before']}  "
            f"after {row['after']}  B11 rel {row.get('B11_max_rel_diff', '-')}"
        )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--measure"]:  # one side, in its own process
        measure(*sys.argv[2:4])
    else:
        main()
