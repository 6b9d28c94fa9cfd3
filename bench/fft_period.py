"""Per-layer cost of the kernel transforms, apply and weak_apply, against an earlier revision.

    python bench/fft_period.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  For n_per_axis in {16, 24, 32} it
times the ``_KernelTransforms`` build, ``LMOperator.apply`` and
``LMOperator.weak_apply`` (best of 5, one thread) on both sides of the
protocol in ``bench/harness.py``, next to the padded FFT length and point
count and the ``apply`` and ``weak_apply`` outputs on a seeded input.
"""

from __future__ import annotations

import numpy as np

from harness import REPEATS, best_of, dispatch, main

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
        at = f"n_per_axis={n}/"
        g = thermal_grid(THETA, n)
        rng = np.random.default_rng(n)
        values = rng.standard_normal(g.shape) * maxwellian(s, g).values
        x = rng.standard_normal(g.shape)
        res[at + "build_s"] = best_of(_KernelTransforms, g, p)
        pad = _KernelTransforms(g, p).pad_shape[0]
        res[at + "pad"], res[at + "fft_points"] = pad, pad**3
        op = LMOperator(s, g, p)
        res[at + "apply_s"] = best_of(op.apply, values)
        res[at + "weak_apply_s"] = best_of(op.weak_apply, x)
        res[at + "apply"] = op.apply(values)
        res[at + "weak_apply"] = op.weak_apply(x)
    return res


DESCRIPTION = {
    "what": "_KernelTransforms build, LMOperator.apply and weak_apply: before/after",
    "state": {"rho": RHO, "u1": U1, "theta": THETA, "lattice": "thermal_grid(theta, n)"},
    "timing": f"best of {REPEATS} per round, alternating rounds, one thread, seconds; median and "
    "quartiles over rounds",
    "accuracy": "per side: pad, fft_points and max |output|; max_rel: max |after - before| / "
    "max |before| on the same seeded input",
}

if __name__ == "__main__":
    dispatch(measure, lambda: main(__file__, __doc__, DESCRIPTION))
