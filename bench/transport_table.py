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
no difference counts as resolved.  Next to each time stand, per side, the
table's mu, kappa and residual columns, and across the sides the largest
relative difference of each column.  A call that raises is recorded with its
message instead; a lattice on which both sides raise is listed as a
resolution floor.
"""

from __future__ import annotations

import time

import numpy as np

from harness import compare, dispatch, parser, round_count, run_rounds, write

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
        t0 = time.perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            row_s.append(time.perf_counter() - t0)

    transport.burnett_solve = timed_solve
    res = {}
    for n in map(int, sizes):
        for rows, thetas in TABLES.items():
            key = f"{rows}_{n}"
            row_s.clear()
            t0 = time.perf_counter()
            try:
                table = transport.transport_table(thetas, n_per_axis=n, span=SPAN, tol=TOL)
            except NonConvergenceError as exc:
                res[f"raised_{key}"] = str(exc)
                continue
            finally:
                res[f"time_{key}"] = time.perf_counter() - t0
                res[f"row_s_{key}"] = list(row_s)
            for col in COLUMNS:
                res[f"{col}_{key}"] = getattr(table, col)
    return res


def side_row(run: dict, key: str) -> dict:
    if f"raised_{key}" in run:
        return {"raised": str(run[f"raised_{key}"])}
    return {col: [float(x) for x in run[f"{col}_{key}"]] for col in COLUMNS}


def table_row(runs: dict, rows: int, n: int, rounds: int) -> dict:
    key = f"{rows}_{n}"
    row = {"rows": rows, "n_per_axis": n, "rounds": rounds}
    per_row = {side: [float(r[f"time_{key}"]) / rows for r in runs[side]] for side in runs}
    row["seconds_per_row"] = compare(per_row)
    row_s = {side: [r[f"row_s_{key}"] for r in runs[side]] for side in runs}
    if all(len(t) == rows for side in runs for t in row_s[side]):
        # rows past the first: cold on a side without warm starts, warm with them
        row["first_row_s"] = compare({side: [float(t[0]) for t in row_s[side]] for side in runs})
        row["later_row_s"] = compare(
            {side: [float(np.mean(t[1:])) for t in row_s[side]] for side in runs}
        )
    before, after = runs["before"][0], runs["after"][0]
    row["before"], row["after"] = side_row(before, key), side_row(after, key)
    if "raised" not in row["before"] and "raised" not in row["after"]:
        for col in COLUMNS:
            b, a = np.array(row["before"][col]), np.array(row["after"][col])
            row[f"{col}_max_rel_diff"] = float(np.abs(a / b - 1.0).max())
    return row


def main() -> None:
    ap = parser(__doc__)
    ap.add_argument("--rounds-32", type=round_count, default=3)
    args = ap.parse_args()
    small = [str(n) for n in SIZES if n != 32]
    batches = [(small, args.rounds), (["32"], args.rounds_32)]
    rows = []
    for sizes, rounds in batches:
        runs = run_rounds(__file__, args.before, rounds, *sizes)
        rows += [table_row(runs, r, int(n), rounds) for n in sizes for r in TABLES]

    report = {
        "what": "transport_table seconds per row, 2-row and 7-row tables on thermal_grid(theta, n): "
        "before/after",
        "tables": {str(k): v for k, v in TABLES.items()},
        "tol": TOL,
        "span": SPAN,
        "timing": f"one call per round; {args.rounds} alternating rounds at n = 16, 20, 24 and "
        f"{args.rounds_32} at n = 32; one thread, seconds; median and quartiles over rounds. "
        "seconds_per_row: the call over its rows; first_row_s and later_row_s: burnett_solve of "
        "row 1 and the mean over rows 2 on",
        "accuracy": "per side: the table's mu, kappa and residual columns; across the sides: "
        "max over rows of |after / before - 1| per column",
        "resolution_floor": [
            f"{row['rows']}-row n_per_axis {row['n_per_axis']}: both sides raise"
            for row in rows
            if "raised" in row["before"] and "raised" in row["after"]
        ],
        "rows": rows,
    }
    write(args, report)
    print(f"{'rows':>4} {'n':>3} {'rounds':>6} {'before s/row':>12} {'after s/row':>11} wins resolved")
    for row in rows:
        r = row["seconds_per_row"]
        diffs = " ".join(f"{c} {row.get(f'{c}_max_rel_diff', '-')}" for c in COLUMNS)
        print(
            f"{row['rows']:>4} {row['n_per_axis']:>3} {row['rounds']:>6} "
            f"{r['before']['median']:12.3e} {r['after']['median']:11.3e} "
            f"{r['after_wins']:4.0%} {str(r['resolved']):8} {diffs}"
        )


if __name__ == "__main__":
    dispatch(measure, main)
