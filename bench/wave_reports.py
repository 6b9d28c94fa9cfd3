"""Cost of the Burgers wave reports, against an earlier revision.

    python bench/wave_reports.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  On the wave of the ``wave_reports``
benchmark workload (``perfbench/workloads.py``) and at t in {0.5, 5, 50} it
times ``derivative_decay_report`` (that workload's p = 1, 2, inf),
``riemann_gap``, 16 ``euler_residual`` calls and 16 ``SmoothWave.state``
calls (best of 5 each, one thread) at 16 seeded points of the transition,
on both sides of the protocol in ``bench/harness.py``, next to the six
decay values (one per p and j), the gap, the residual rows and the states.
A wave evaluates itself on its characteristic grid on first use, so best of
5 times a warm report; the ``decay_first`` and ``gap_first`` entries time
the same reports on a wave built afresh for each call, the cost of the
first use.
"""

from __future__ import annotations

import numpy as np

from harness import REPEATS, best_of, main, workloads

TIMES = (0.5, 5.0, 50.0)
POINTS = 16


def measure() -> dict:
    """Time the six calls with the ``rarewave`` the harness loaded."""
    from rarewave import burgers

    w = workloads()
    data, wave = w._wave()
    delta, p_exponents = w.WAVE_DELTA, w.REPORT_P
    res = {}
    for t in TIMES:
        at = f"t={t}/"
        x0 = np.random.default_rng(int(t * 10)).uniform(-3.0 * delta, 3.0 * delta, POINTS)
        xs = x0 + t * burgers.burgers_init(wave.params, x0)
        calls = {
            "decay": lambda: burgers.derivative_decay_report(wave, [t], p_exponents),
            "gap": lambda: burgers.riemann_gap(wave, t)[0],
            "decay_first": lambda: burgers.derivative_decay_report(
                burgers.SmoothWave(data, delta), [t], p_exponents
            ),
            "gap_first": lambda: burgers.riemann_gap(burgers.SmoothWave(data, delta), t)[0],
            "residual16": lambda: [burgers.euler_residual(wave, t, x) for x in xs],
            "state16": lambda: [(s.rho, s.u1, s.theta) for s in (wave.state(t, x) for x in xs)],
        }
        for name, fn in calls.items():
            res[f"{at}{name}_s"], res[at + name] = best_of(fn), fn()
        # one entry per decay row: the values at p = 1, 2, inf and j = 1, 2 differ in scale
        for name in ("decay", "decay_first"):
            res.update({f"{at}{name}_p{r.p:g}_j{r.j}": r.value for r in res.pop(at + name)})
    return res


DESCRIPTION = {
    "objects": "perfbench/workloads.py's wave and p exponents of the wave_reports workload",
    "timing": f"best of {REPEATS} per round, alternating rounds, one thread, seconds; median and "
    "quartiles over rounds, per side and of the per-round after/before ratio",
    "accuracy": "per side: the decay values and the gap (warm and first use), max |residual| and "
    "max |state| over the 16 points; max_rel: max |after - before| / max |before| per decay "
    "value, gap, residual16 (every row) and state16 (every component)",
}

if __name__ == "__main__":
    main(measure, __doc__, DESCRIPTION)
