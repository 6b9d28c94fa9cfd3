"""Per-layer cost of the kernel transforms, apply and weak_apply, against an earlier revision.

    python bench/fft_period.py --before REV [--rounds 10] [--out BENCH_fft_period.json]

Run it from the root of a checkout.  For n_per_axis in {16, 24, 32} it
times the ``_KernelTransforms`` build, ``LMOperator.apply`` and
``LMOperator.weak_apply`` (best of 5, one thread) twice over: once with this
checkout's ``src/`` and once with ``src/`` of git revision REV, exported by
``git archive`` into a temporary directory.  Each side runs in a fresh
process, the sides alternate for ``--rounds`` rounds (``before`` runs first
on even rounds, ``after`` on odd ones).  Each layer reports every round's
time per side, their median and quartiles, and the share of rounds in
which ``after`` is faster than ``before``.  A difference counts as resolved
only when at least ten rounds ran, one side wins at least nine tenths of
them and the medians differ by more than the distance between the quartiles
of ``before``.  The accuracy figure is
the maximum relative difference of the ``apply`` and ``weak_apply``
outputs between the two sides on the same seeded input, relative to the
largest entry of the output.  The result is written as JSON.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import fft  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 24, 32)
REPEATS = 5
# Fewest rounds that can resolve a difference: with one round the quartile
# spread of ``before`` is 0, so any gap that round shows would pass.
MIN_ROUNDS = 10
# a drifting state on the transport lattice, so no axis symmetry is special
RHO, U1, THETA = 1.0, 0.25, 1.0


def best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def measure(src: str, out: str) -> None:
    """Time the three layers with the ``rarewave`` found under ``src``."""
    sys.path.insert(0, src)
    import rarewave
    from rarewave.collision import KernelParams, LMOperator, _KernelTransforms
    from rarewave.euler import GasState
    from rarewave.transport import thermal_grid
    from rarewave.velocity import maxwellian

    if Path(rarewave.__file__).resolve().parent != Path(src).resolve() / "rarewave":
        raise SystemExit(f"rarewave imported from {rarewave.__file__}, not from {src}")
    p = KernelParams()
    s = GasState.make(RHO, U1, THETA)
    res = {}
    with fft.set_workers(1):
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
    np.savez(out, **res)


def export_src(rev: str, dest: Path) -> None:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def run_side(script: str, src: Path, out: Path, *extra: str) -> dict:
    subprocess.run(
        [sys.executable, script, "--measure", str(src), str(out), *extra], cwd=ROOT, check=True
    )
    with np.load(out) as dat:
        return {k: dat[k] for k in dat.files}


def run_rounds(script: str, before: str, rounds: int, *extra: str) -> dict:
    """Results of ``script --measure SRC OUT *extra`` per side, over alternating rounds.

    ``before`` runs with ``src/`` of git revision ``before``, ``after`` with
    this checkout's; each run is a fresh process, and ``before`` goes first
    on even rounds.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_src(before, tmp / "before")
        srcs = {"before": tmp / "before" / "src", "after": ROOT / "src"}
        runs = {side: [] for side in srcs}
        for k in range(rounds):
            order = list(srcs) if k % 2 == 0 else list(srcs)[::-1]
            for side in order:
                runs[side].append(run_side(script, srcs[side], tmp / f"{side}.npz", *extra))
    return runs


def quartiles(xs) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def compare(times: dict) -> dict:
    """Round times per side with median and quartiles, the share of rounds
    ``after`` is faster, and whether the difference is resolved (never with
    fewer than ``MIN_ROUNDS`` rounds)."""
    stats = {side: quartiles(times[side]) for side in times}
    pairs = list(zip(times["after"], times["before"]))
    wins = sum(a < b for a, b in pairs) / len(pairs)
    losses = sum(a > b for a, b in pairs) / len(pairs)
    gap = abs(stats["after"]["median"] - stats["before"]["median"])
    return {
        **{side: {"rounds": times[side], **stats[side]} for side in times},
        "after_wins": wins,
        "resolved": len(pairs) >= MIN_ROUNDS
        and max(wins, losses) >= 0.9
        and gap > stats["before"]["q3"] - stats["before"]["q1"],
    }


def provenance(before: str) -> dict:
    """Both revisions and the host the rounds ran on."""
    return {
        "before_rev": git("rev-parse", before),
        "after_rev": git("rev-parse", "HEAD")
        + (" with uncommitted src changes" if git("status", "--short", "src") else ""),
        "host": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def max_rel(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="git revision to compare against")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default=str(ROOT / "BENCH_fft_period.json"))
    args = ap.parse_args()
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
        **provenance(args.before),
        "state": {"rho": RHO, "u1": U1, "theta": THETA, "lattice": "thermal_grid(theta, n)"},
        "timing": f"best of {REPEATS} per round, {args.rounds} alternating rounds, one thread, "
        "seconds; median and quartiles over rounds",
        "accuracy": "max |after - before| / max |before| on the same seeded input",
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
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
    if sys.argv[1:2] == ["--measure"]:  # one side, in its own process
        measure(*sys.argv[2:4])
    else:
        main()
