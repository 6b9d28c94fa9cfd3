"""Per-layer cost of the kernel transforms, apply and weak_apply, against an earlier revision.

    python bench/fft_period.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  For n_per_axis in {16, 24, 32} it
times the ``_KernelTransforms`` build, ``LMOperator.apply`` and
``LMOperator.weak_apply`` (best of 5, one thread) on both sides of the
protocol in ``bench/harness.py``.  The accuracy figure is the maximum
relative difference of the ``apply`` and ``weak_apply`` outputs between
the two sides on the same seeded input, relative to the largest entry of
the output.
"""

from __future__ import annotations

import numpy as np

from harness import REPEATS, best_of, compare, dispatch, max_rel, parser, run_rounds, write

SIZES = (16, 24, 32)
# a drifting state on the transport lattice, so no axis symmetry is special
RHO, U1, THETA = 1.0, 0.25, 1.0


def measure() -> dict:
    """Time the three layers with the ``rarewave`` the harness loaded."""
    from rarewave.collision import KernelParams, LMOperator, _KernelTransforms
    from rarewave.euler import GasState
    from rarewave.transport import thermal_grid
    from rarewave.velocity import maxwellian

    p = KernelParams()
    s = GasState.make(RHO, U1, THETA)
    res = {}
    for n in SIZES:
        g = thermal_grid(THETA, n)
        rng = np.random.default_rng(n)
        values = rng.standard_normal(g.shape) * maxwellian(s, g).values
        x = rng.standard_normal(g.shape)
        res[f"build_s_{n}"] = best_of(_KernelTransforms, g, p)
        res[f"pad_{n}"] = _KernelTransforms(g, p).pad_shape[0]
        op = LMOperator(s, g, p)
        res[f"apply_s_{n}"] = best_of(op.apply, values)
        res[f"weak_apply_s_{n}"] = best_of(op.weak_apply, x)
        res[f"apply_{n}"] = op.apply(values)
        res[f"weak_apply_{n}"] = op.weak_apply(x)
    return res


def main() -> None:
    args = parser(__doc__).parse_args()
    runs = run_rounds(__file__, args.before, args.rounds)

    rows = []
    for n in SIZES:
        row = {"n_per_axis": n}
        for side in runs:
            pad = int(runs[side][0][f"pad_{n}"])
            row[f"pad_{side}"] = pad
            row[f"fft_points_{side}"] = pad**3
        for layer in ("build_s", "apply_s", "weak_apply_s"):
            row[layer] = compare(
                {side: [float(r[f"{layer}_{n}"]) for r in runs[side]] for side in runs}
            )
        before, after = runs["before"][0], runs["after"][0]
        row["apply_max_rel_diff"] = max_rel(after[f"apply_{n}"], before[f"apply_{n}"])
        row["weak_apply_max_rel_diff"] = max_rel(
            after[f"weak_apply_{n}"], before[f"weak_apply_{n}"]
        )
        rows.append(row)

    report = {
        "what": "_KernelTransforms build, LMOperator.apply and weak_apply: before/after",
        "state": {"rho": RHO, "u1": U1, "theta": THETA, "lattice": "thermal_grid(theta, n)"},
        "timing": f"best of {REPEATS} per round, {args.rounds} alternating rounds, one thread, "
        "seconds; median and quartiles over rounds",
        "accuracy": "max |after - before| / max |before| on the same seeded input",
        "rows": rows,
    }
    write(args, report)
    print(f"{'n':>3} {'layer':<13} {'before q1/med/q3':>30} {'after q1/med/q3':>30} wins resolved")
    for row in rows:
        for layer in ("build_s", "apply_s", "weak_apply_s"):
            r = row[layer]
            b, a = (" ".join(f"{r[side][k]:.3e}" for k in ("q1", "median", "q3")) for side in runs)
            print(
                f"{row['n_per_axis']:>3} {layer:<13} {b:>30} {a:>30} "
                f"{r['after_wins']:4.0%} {r['resolved']}"
            )


if __name__ == "__main__":
    dispatch(measure, main)
