"""Seconds per ``transport_table`` row, cold first and warm second, against an earlier revision.

    python bench/transport_table.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  For n_per_axis in {16, 20, 24, 32} it
times one call of ``transport_table`` (tol 1e-2, span 6.5, one thread) on
the two-row table (0.8, 1.0) per round, for ``--rounds`` rounds at every
size.  Each row builds its own thermal lattice, kernel transforms and
operator, so nothing is built before the clock starts.  A wrapper this
script installs on ``transport.burnett_solve`` times each row (``src/`` is
the same as without it): the first, solved cold on both sides, and the
second, which a revision with warm-started rows starts from the first
row's preimages.  At gamma = -3 the nodal preimages on the thermal lattice
do not depend on theta, so each later row of a longer table would time
that same warm problem again.  Both sides run the protocol in ``bench/harness.py``.  Next
to each time stand the table's mu, kappa and residual columns, or the
message raised.
"""

from __future__ import annotations

from harness import cost_of, main

SIZES = (16, 20, 24, 32)
THETAS = (0.8, 1.0)
TOL, SPAN = 1e-2, 6.5
COLUMNS = ("mu", "kappa", "residual")


def measure() -> dict:
    """Time the table at each size with the ``rarewave`` the harness loaded."""
    from rarewave import transport
    from rarewave.collision import NonConvergenceError

    row_s = []
    solve = transport.burnett_solve

    def timed_solve(*args, **kwargs):
        sol, cost = cost_of(solve, *args, **kwargs)
        row_s.append(cost)
        return sol

    def table(n):
        try:
            return transport.transport_table(THETAS, n_per_axis=n, span=SPAN, tol=TOL)
        except NonConvergenceError as exc:
            return exc

    transport.burnett_solve = timed_solve
    res = {}
    for n in SIZES:
        at = f"n_per_axis={n}/"
        row_s.clear()
        out, cost = cost_of(table, n)
        res[at + "per_row_s"] = cost / len(THETAS)
        if isinstance(out, Exception):
            res[at + "raised"] = str(out)
            continue
        # the second row: cold on a side without warm starts, warm with them
        res[at + "first_row_s"], res[at + "second_row_s"] = row_s
        for col in COLUMNS:
            res[at + col] = getattr(out, col)
    return res


DESCRIPTION = {
    "thetas": THETAS,
    "tol": TOL,
    "span": SPAN,
    "timing": "one call per round, alternating rounds, one thread, seconds; median and quartiles "
    "over rounds, per side and of the per-round after/before ratio. per_row_s: the call over "
    "its two rows; first_row_s and second_row_s: burnett_solve of each row",
    "accuracy": "per side: the table's mu, kappa and residual columns; max_rel per column: "
    "max |after - before| / max |before|",
}

if __name__ == "__main__":
    main(measure, __doc__, DESCRIPTION)
