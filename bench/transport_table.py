"""Seconds per ``transport_table`` row, cold rows against warm-started ones, against an earlier revision.

    python bench/transport_table.py --before REV [--rounds 10] [--rounds-32 3] --out FILE

Run it from the root of a checkout.  For n_per_axis in {16, 20, 24, 32} it
times one ``transport_table`` call (tol 1e-2, span 6.5, one thread) per
round on two tables: the first two default temperatures (0.8, 1.0) and all
seven, ``DEFAULT_TABLE_THETAS`` = (0.8, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5).
Each row builds its own thermal lattice, kernel transforms and operator, so
nothing is built before the clock starts.  A wrapper this script installs
on ``transport.burnett_solve`` also times each row (``src/`` is the same as
without it), so the first row, solved cold on both sides, stands apart from
the later ones, which a revision with warm-started rows starts from the
previous row's preimages.  Both sides run the protocol in
``bench/harness.py``.  n = 32 runs ``--rounds-32`` rounds, since a
seven-row table takes about 20 s a side there; with fewer than ten rounds
no difference counts as resolved.  Next to each time stand the table's mu,
kappa and residual columns, or the message raised.
"""

from __future__ import annotations

import numpy as np

from harness import cost_of, dispatch, parser, report_rows, round_count, run_rounds, write

SIZES = (16, 20, 24, 32)
TABLES = {2: (0.8, 1.0), 7: (0.8, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5)}
TOL, SPAN = 1e-2, 6.5
COLUMNS = ("mu", "kappa", "residual")


def measure(*sizes: str) -> dict:
    """Time both tables at each of ``sizes`` with the ``rarewave`` the harness loaded."""
    from rarewave import transport
    from rarewave.collision import NonConvergenceError

    row_s = []
    solve = transport.burnett_solve

    def timed_solve(*args, **kwargs):
        sol, cost = cost_of(solve, *args, **kwargs)
        row_s.append(cost)
        return sol

    def table(thetas, n):
        try:
            return transport.transport_table(thetas, n_per_axis=n, span=SPAN, tol=TOL)
        except NonConvergenceError as exc:
            return exc

    transport.burnett_solve = timed_solve
    res = {}
    for n in map(int, sizes):
        for rows, thetas in TABLES.items():
            at = f"rows={rows} n_per_axis={n}/"
            row_s.clear()
            out, cost = cost_of(table, thetas, n)
            res[at + "per_row_s"] = cost / rows
            if isinstance(out, Exception):
                res[at + "raised"] = str(out)
                continue
            # rows past the first: cold on a side without warm starts, warm with them
            res[at + "first_row_s"], res[at + "later_row_s"] = row_s[0], np.mean(row_s[1:], axis=0)
            for col in COLUMNS:
                res[at + col] = getattr(out, col)
    return res


DESCRIPTION = {
    "what": "transport_table seconds per row, 2-row and 7-row tables on thermal_grid(theta, n): "
    "before/after",
    "tables": {str(k): v for k, v in TABLES.items()},
    "tol": TOL,
    "span": SPAN,
    "timing": "one call per round, alternating rounds, one thread, seconds; median and quartiles "
    "over rounds. per_row_s: the call over its rows; first_row_s and later_row_s: "
    "burnett_solve of row 1 and the mean over rows 2 on",
    "accuracy": "per side: the table's mu, kappa and residual columns; max_rel per column: "
    "max |after - before| / max |before|",
}


def main() -> None:
    ap = parser(__doc__)
    ap.add_argument("--rounds-32", type=round_count, default=3)
    args = ap.parse_args()
    batches = (([str(n) for n in SIZES if n != 32], args.rounds), (["32"], args.rounds_32))
    runs = [run_rounds(__file__, args.before, rounds, *sizes) for sizes, rounds in batches]
    write(args, DESCRIPTION, [row for batch in runs for row in report_rows(batch)])


if __name__ == "__main__":
    dispatch(measure, main)
