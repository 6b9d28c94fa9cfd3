"""Every value the benchmark workloads compute at one seed, against an earlier revision.

    python bench/same_numbers.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  With the ``rarewave`` the harness
loaded it runs the workload classes of ``perfbench/workloads.py``, on its
lattices, at seed 3: one step of ``transport_table`` (two rows) and of
``wave_slice`` (one fan state), and 400 steps of ``wave_reports`` (400 time
levels).  It reads ``perfbench/`` and changes nothing in it.  Each workload
is one report row holding every value its steps record: the table rows; the
wave state's position, state, mu, kappa, nine residuals, A1, B11,
correction field and the solved components' penalty shares (where ``src/``
records them); each level's decay rows (t, p, j, value, shape), gap and
shape, states and Euler residuals.  Nothing is timed, so one round is
enough.  Both sides run the protocol in ``bench/harness.py``, and a
``max_rel`` of 0.0 for every value means the two revisions compute the same
numbers, bit for bit.
"""

from __future__ import annotations

import numpy as np

from harness import main, workloads

SEED = 3
REPORT_LEVELS = 400


def measure() -> dict:
    """Every value of the seeded workload steps, run with the ``rarewave`` the harness loaded."""
    w = workloads()
    res = {}
    table = w.TransportTable(SEED, w.TABLE_LATTICE)
    table.setup()
    table.step()
    res["workload=transport_table/rows"] = np.array(table.rows)

    wave_slice = w.WaveSlice(SEED, w.SLICE_LATTICE)
    wave_slice.setup()
    wave_slice.step()
    ((x, s, sol, gbar),) = wave_slice.outputs
    at = "workload=wave_slice/"
    res.update(
        {
            at + "x": x,
            at + "state": [s.rho, *s.u, s.theta],
            at + "mu": sol.mu_theta,
            at + "kappa": sol.kappa_theta,
            at + "residuals": [sol.residuals[name] for name in sorted(sol.residuals)],
            at + "A1": sol.A[0].values,
            at + "B11": sol.B[0][0].values,
            at + "gbar": gbar,
        }
    )
    if hasattr(sol, "penalty_shares"):  # absent from a revision without the check
        res[at + "penalty_shares"] = [v for _, v in sorted(sol.penalty_shares.items())]

    reports = w.WaveReports(SEED)
    reports.setup()
    for _ in range(REPORT_LEVELS):
        reports.step()
    at = "workload=wave_reports/"
    levels = reports.outputs
    res[at + "decay"] = [[(r.t, r.p, r.j, r.value, r.bound_shape) for r in rs] for rs, *_ in levels]
    res[at + "gap"] = [tuple(gap) for _, gap, _, _ in levels]
    res[at + "states"] = [[(s.rho, *s.u, s.theta) for s in states] for _, _, states, _ in levels]
    res[at + "euler_residuals"] = [residuals for *_, residuals in levels]
    return res


DESCRIPTION = {
    "seed": SEED,
    "wave_reports_levels": REPORT_LEVELS,
    "timing": "none; values only",
    "accuracy": "max_rel: max |after - before| / max |before| per value; 0.0 means the same "
    "numbers",
}

if __name__ == "__main__":
    main(measure, __doc__, DESCRIPTION)
