"""Cost of the collision layers and of ``burnett_solve``, against an earlier revision.

    python bench/burnett_solve.py --before REV [--rounds 10] --out FILE

The wave, fan time, lattices and tolerances are those of
``perfbench/workloads.py``.  For n_per_axis in {16, 20, 24, 32} it times
four rows (best of 5, one thread):

- ``drift``: the ``_KernelTransforms`` build, ``LMOperator.apply`` and
  ``LMOperator.weak_apply`` at the drifting state (1, 0.25, 1), where no
  axis symmetry is special, on ``thermal_grid(1.0, n)``, next to the padded
  FFT length and point count, the bytes of the cached kernel spectra and
  the two outputs on a seeded input;
- ``rest``: ``burnett_solve`` at (1, 0, 1) on that lattice, solved cold;
- ``rest_warm``: theta = 1.25 on its own thermal lattice, started from the
  ``rest`` solution, as ``transport_table`` starts every later row;
- ``mid_fan``: the ``wave_slice`` wave at its fan time t and x = t
  (lambda3(left) + lambda3(right)) / 2, on that workload's shared lattice.
  At n = 20 it raises on A2's penalty share (0.994: a lattice odd-even
  mode), and the fan states on its cool side, x = 1.6-2.4, raise there too.

Each solve builds its own ``LMOperator`` after the lattice's kernel
transforms are built, as the workloads' set-up builds them.  A
``transport_table((1.0, 1.25))`` row, that workload's operation, costs
``rest`` or ``rest_warm`` plus ``build_s`` of ``drift`` at the same n, read
from one report.  Both sides run ``bench/harness.py``'s protocol.  Next to
each solve's time stand the solves, the ``LMOperator.apply`` calls of one
call (counted by this script's wrapper, removed after, not by ``src/``;
``drift`` times the unwrapped method), the nine residuals, the solved
components' penalty shares, mu, kappa and B11, or the message raised.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from harness import REPEATS, best_of, main, workloads

SIZES = (16, 20, 24, 32)
DRIFT = (1.0, 0.25, 1.0)  # rho, u1, theta of the drift row


def measure() -> dict:
    """Time the layers and the three solves with the ``rarewave`` the harness loaded."""
    from rarewave import collision, transport, velocity
    from rarewave.euler import GasState, lambda3

    w = workloads()
    c = w.TABLE_LATTICE
    p = collision.KernelParams()
    calls = [0]
    plain_apply = collision.LMOperator.apply

    def counted_apply(self, values):
        calls[0] += 1
        return plain_apply(self, values)

    res = {}
    collision.LMOperator.apply = counted_apply
    try:
        for n in SIZES:
            at = f"state=drift n_per_axis={n}/"
            s = GasState.make(*DRIFT)
            g = transport.thermal_grid(DRIFT[2], n, c.span)
            rng = np.random.default_rng(n)
            values = rng.standard_normal(g.shape) * velocity.maxwellian(s, g).values
            pot = rng.standard_normal(g.shape)
            res[at + "build_s"] = best_of(collision._KernelTransforms, g, p)
            tr = collision._KernelTransforms(g, p)
            res[at + "pad"], res[at + "fft_points"] = tr.pad_shape[0], np.prod(tr.pad_shape)
            res[at + "kernel_bytes"] = sum(k.nbytes for k in tr.khat)
            op = collision.LMOperator(s, g, p)
            res[at + "apply_s"] = best_of(plain_apply, op, values)
            res[at + "weak_apply_s"] = best_of(op.weak_apply, pot)
            res[at + "apply"] = plain_apply(op, values)
            res[at + "weak_apply"] = op.weak_apply(pot)

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
                if hasattr(sol, "penalty_shares"):  # absent from a revision without the check
                    res[at + "penalty_shares"] = [v for _, v in sorted(sol.penalty_shares.items())]
                res[at + "mu"] = sol.mu_theta
                res[at + "kappa"] = sol.kappa_theta
                res[at + "B11"] = sol.B[0][0].values
    finally:
        collision.LMOperator.apply = plain_apply
    return res


DESCRIPTION = {
    "objects": f"perfbench/workloads.py's wave, fan time, lattices and tolerances at n {SIZES}; "
    f"drift: (rho, u1, theta) = {DRIFT} on thermal_grid(theta, n, span)",
    "timing": f"best of {REPEATS} calls per round, a solve's after the kernel-transform build, "
    "alternating rounds, one thread, seconds, median and quartiles per side and of the "
    "after/before ratio; a transport_table row costs rest or rest_warm plus drift's build_s",
    "accuracy": "drift: pad, fft_points, kernel_bytes (summed nbytes of the cached kernel "
    "spectra), apply and weak_apply on a seeded input; per solve: solves, LMOperator.apply "
    "calls per burnett_solve call, the nine residuals, the solved components' penalty shares "
    "(by name; above 0.5 the solve raises), mu, kappa and max |B11|; "
    "max_rel: max |after - before| / max |before|",
}

if __name__ == "__main__":
    main(measure, __doc__, DESCRIPTION)
