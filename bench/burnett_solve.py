"""Cost of ``burnett_solve`` at rest, warm-started and mid-fan, against an earlier revision.

    python bench/burnett_solve.py --before REV [--rounds 10] --out FILE

The wave, fan time, lattices and tolerances are those of
``perfbench/workloads.py``.  For n_per_axis in {16, 20, 24, 32} it times
``burnett_solve`` (best of 5, one thread, each call building its own
``LMOperator``) at three states, after the lattice's kernel transforms are
built, as the workloads' set-up builds them:

- ``rest``: (1, 0, 1) on ``thermal_grid(1.0, n)``, solved cold;
- ``rest_warm``: theta = 1.25 on its own thermal lattice, started from the
  ``rest`` solution, as ``transport_table`` starts every later row;
- ``mid_fan``: the ``wave_slice`` wave at its fan time t and x = t
  (lambda3(left) + lambda3(right)) / 2, on that workload's shared lattice.
  At n = 20 it passes with almost no margin (largest residual 9.9e-3); the
  fan states on its cool side, x = 1.6-2.4, raise there.

A ``transport_table((1.0, 1.25))`` row, that workload's operation, is the
``rest`` or ``rest_warm`` solve: read its cost as theirs plus ``build_s`` of
``bench/fft_period.py``.  Both sides run ``bench/harness.py``'s protocol.
Next to each time stand the solves, the ``LMOperator.apply`` calls of one
``burnett_solve`` call (counted by this script's wrapper, removed after, not
by ``src/``), the nine residuals, mu, kappa and B11, or the message raised.
"""

from __future__ import annotations

from dataclasses import replace

from harness import REPEATS, best_of, main, workloads

SIZES = (16, 20, 24, 32)


def measure() -> dict:
    """Time the three states with the ``rarewave`` the harness loaded."""
    from rarewave import collision, transport, velocity
    from rarewave.euler import GasState, lambda3

    w = workloads()
    c = w.TABLE_LATTICE
    calls = [0]
    plain_apply = collision.LMOperator.apply

    def counted_apply(self, values):
        calls[0] += 1
        return plain_apply(self, values)

    res = {}
    collision.LMOperator.apply = counted_apply
    try:
        for n in SIZES:
            fan = w.WaveSlice(0, replace(w.SLICE_LATTICE, n_per_axis=n))
            fan.setup()
            x = 0.5 * w.SLICE_T * (lambda3(fan.data.left) + lambda3(fan.data.right))
            states = {
                name: (GasState.make(1.0, 0.0, th), transport.thermal_grid(th, n, c.span), c.tol)
                for name, th in (("rest", 1.0), ("rest_warm", 1.25))
            }
            states["mid_fan"] = (fan.wave.state(w.SLICE_T, x), fan.grid, fan.lattice.tol)
            for state, (s, g, tol) in states.items():
                at = f"state={state} n_per_axis={n}/"
                start = sol if state == "rest_warm" else None  # sol: the rest outcome
                if isinstance(start, Exception):
                    res[at + "raised"] = "not run: the rest solve raised"
                    continue
                m = velocity.maxwellian(s, g)
                collision.collision_Q(m, m, g)  # builds the lattice's kernel transforms
                outcome = []

                def solve():
                    calls[0] = 0
                    try:
                        outcome.append(transport.burnett_solve(s, g, tol=tol, start=start))
                    except collision.NonConvergenceError as exc:
                        outcome.append(exc)

                res[at + "burnett_solve_s"] = best_of(solve)
                res[at + "apply_calls"] = calls[0]
                sol = outcome[-1]
                if isinstance(sol, Exception):
                    res[at + "raised"] = str(sol)
                    continue
                res[at + "solves"] = len(sol.solved)
                res[at + "residuals"] = [sol.residuals[k] for k in sorted(sol.residuals)]
                res[at + "mu"] = sol.mu_theta
                res[at + "kappa"] = sol.kappa_theta
                res[at + "B11"] = sol.B[0][0].values
    finally:
        collision.LMOperator.apply = plain_apply
    return res


DESCRIPTION = {
    "objects": f"perfbench/workloads.py's wave, fan time, lattices and tolerances at n {SIZES}",
    "timing": f"best of {REPEATS} calls per round after the kernel-transform build, alternating "
    "rounds, one thread, seconds, median and quartiles per side and of the after/before ratio; "
    "a transport_table row costs rest or rest_warm plus build_s of bench/fft_period.py",
    "accuracy": "per state: solves, LMOperator.apply calls per burnett_solve call, the nine "
    "recorded residuals, mu, kappa and max |B11|; max_rel: max |after - before| / max |before|",
}

if __name__ == "__main__":
    main(measure, __doc__, DESCRIPTION)
