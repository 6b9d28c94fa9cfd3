"""Cost of the Burgers wave reports, against an earlier revision.

    python bench/wave_reports.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  On the wave of the ``wave_reports``
benchmark workload (left state (1, 0, 1), right density 1.5, width 0.5) and
at t in {0.5, 5, 50} it times ``derivative_decay_report`` (p = 1, 2, inf),
``riemann_gap``, 16 ``euler_residual`` calls and 16 ``SmoothWave.state``
calls (best of 5 each, one thread) at 16 seeded points of the transition,
on both sides of the protocol in ``bench/harness.py``.  Next to each time
stands the accuracy: the largest relative change of the decay values and of
the gap, the largest absolute change of any residual row (with the largest
residual for scale), and the largest absolute change of any state
component.
"""

from __future__ import annotations

import math

import numpy as np

from harness import best_of, compare, dispatch, parser, run_rounds, write

TIMES = (0.5, 5.0, 50.0)
POINTS = 16
P_EXPONENTS = (1.0, 2.0, math.inf)
LEFT, RHO_PLUS, DELTA = (1.0, 0.0, 1.0), 1.5, 0.5
LAYERS = ("decay_s", "gap_s", "residual16_s", "state16_s")


def measure() -> dict:
    """Time the four calls with the ``rarewave`` the harness loaded."""
    from rarewave import burgers
    from rarewave.euler import GasState, RiemannData

    wave = burgers.SmoothWave.build(
        RiemannData.from_density(GasState.make(*LEFT), RHO_PLUS), DELTA
    )
    res = {}
    for t in TIMES:
        x0 = np.random.default_rng(int(t * 10)).uniform(-3.0 * DELTA, 3.0 * DELTA, POINTS)
        xs = x0 + t * burgers.burgers_init(wave.params, x0)

        def decay():
            return [r.value for r in burgers.derivative_decay_report(wave, [t], P_EXPONENTS)]

        def gap():
            return burgers.riemann_gap(wave, t)[0]

        def residuals():
            return [burgers.euler_residual(wave, t, x) for x in xs]

        def states():
            return [(s.rho, s.u1, s.theta) for s in (wave.state(t, x) for x in xs)]

        for layer, fn in zip(LAYERS, (decay, gap, residuals, states)):
            res[f"{layer}_{t}"] = best_of(fn)
            res[f"value_{layer}_{t}"] = np.asarray(fn())
    return res


def main() -> None:
    args = parser(__doc__).parse_args()
    runs = run_rounds(__file__, args.before, args.rounds)

    rows = []
    for t in TIMES:
        row = {"t": t}
        for layer in LAYERS:
            row[layer] = compare(
                {side: [float(r[f"{layer}_{t}"]) for r in runs[side]] for side in runs}
            )
        before, after = runs["before"][0], runs["after"][0]
        d_b, d_a = before[f"value_decay_s_{t}"], after[f"value_decay_s_{t}"]
        g_b, g_a = float(before[f"value_gap_s_{t}"]), float(after[f"value_gap_s_{t}"])
        r_b, r_a = before[f"value_residual16_s_{t}"], after[f"value_residual16_s_{t}"]
        row["decay_max_rel_diff"] = float(np.max(np.abs(d_a - d_b) / np.abs(d_b)))
        row["gap_rel_diff"] = abs(g_a - g_b) / g_b
        row["residual_max_abs_diff"] = float(np.max(np.abs(r_a - r_b)))
        row["residual_max_abs"] = float(np.max(np.abs(r_b)))
        row["state_max_abs_diff"] = float(
            np.max(np.abs(after[f"value_state16_s_{t}"] - before[f"value_state16_s_{t}"]))
        )
        rows.append(row)

    report = {
        "what": "derivative_decay_report, riemann_gap, 16 euler_residual and 16 "
        "SmoothWave.state calls: before/after",
        "wave": {"left": LEFT, "rho_plus": RHO_PLUS, "delta": DELTA, "p": "1, 2, inf"},
        "timing": f"best of 5 per round, {args.rounds} alternating rounds, one thread, "
        "seconds; median and quartiles over rounds",
        "accuracy": "decay and gap: max |after - before| / |before|; residual and state: "
        "max |after - before| over the 16 points and every row or component",
        "rows": rows,
    }
    write(args, report)
    print(f"{'t':>5} {'layer':<13} {'before median':>14} {'after median':>13} wins resolved")
    for row in rows:
        for layer in LAYERS:
            r = row[layer]
            print(
                f"{row['t']:>5} {layer:<13} {r['before']['median']:14.3e} "
                f"{r['after']['median']:13.3e} {r['after_wins']:4.0%} {r['resolved']}"
            )
        print(
            f"      decay rel {row['decay_max_rel_diff']:.1e}  gap rel {row['gap_rel_diff']:.1e}"
            f"  residual abs {row['residual_max_abs_diff']:.1e}"
            f" (of {row['residual_max_abs']:.1e})  state abs {row['state_max_abs_diff']:.1e}"
        )


if __name__ == "__main__":
    dispatch(measure, main)
