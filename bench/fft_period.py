"""Per-layer cost of the kernel transforms, apply and weak_apply, against an earlier revision.

    python bench/fft_period.py --before REV [--rounds 10] --out FILE

Run it from the root of a checkout.  On the thermal lattice of the
``transport_table`` workload (``perfbench/workloads.py``) at n_per_axis in
{16, 20, 24, 32} it times the ``_KernelTransforms`` build,
``LMOperator.apply`` and ``LMOperator.weak_apply`` (best of 5, one thread)
on both sides of the protocol in ``bench/harness.py``, next to the
padded FFT length and point count, the bytes of the cached kernel spectra
and the ``apply`` and ``weak_apply`` outputs on a seeded input.
"""

from __future__ import annotations

import numpy as np

from harness import REPEATS, best_of, main, workloads

SIZES = (16, 20, 24, 32)
# a drifting state on the transport lattice, so no axis symmetry is special
RHO, U1, THETA = 1.0, 0.25, 1.0


def measure() -> dict:
    """Time the three layers with the ``rarewave`` the harness loaded."""
    from rarewave.collision import KernelParams, LMOperator, _KernelTransforms
    from rarewave.euler import GasState
    from rarewave.transport import thermal_grid
    from rarewave.velocity import maxwellian

    span = workloads().TABLE_LATTICE.span
    p = KernelParams()
    s = GasState.make(RHO, U1, THETA)
    res = {}
    for n in SIZES:
        at = f"n_per_axis={n}/"
        g = thermal_grid(THETA, n, span)
        rng = np.random.default_rng(n)
        values = rng.standard_normal(g.shape) * maxwellian(s, g).values
        x = rng.standard_normal(g.shape)
        res[at + "build_s"] = best_of(_KernelTransforms, g, p)
        tr = _KernelTransforms(g, p)
        pad = tr.pad_shape[0]
        res[at + "pad"], res[at + "fft_points"] = pad, pad**3
        res[at + "kernel_bytes"] = sum(k.nbytes for k in tr.khat)
        op = LMOperator(s, g, p)
        res[at + "apply_s"] = best_of(op.apply, values)
        res[at + "weak_apply_s"] = best_of(op.weak_apply, x)
        res[at + "apply"] = op.apply(values)
        res[at + "weak_apply"] = op.weak_apply(x)
    return res


DESCRIPTION = {
    "state": {"rho": RHO, "u1": U1, "theta": THETA, "lattice": "thermal_grid(theta, n, span)"},
    "objects": "the span of perfbench/workloads.py's transport_table lattice",
    "timing": f"best of {REPEATS} per round, alternating rounds, one thread, seconds; median and "
    "quartiles over rounds, per side and of the per-round after/before ratio",
    "accuracy": "per side: pad, fft_points, kernel_bytes (the summed nbytes of the cached kernel "
    "spectra) and max |output|; max_rel: max |after - before| / "
    "max |before| on the same seeded input",
}

if __name__ == "__main__":
    main(measure, __doc__, DESCRIPTION)
