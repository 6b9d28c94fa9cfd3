"""The before/after protocol every ``bench/`` script runs.

    python bench/SCRIPT.py --before REV [--rounds 10] --out FILE

Run a script from the root of a checkout.  It measures twice over: once
with this checkout's ``src/`` and once with ``src/`` of git revision REV,
exported by ``git archive`` into a temporary directory.  Each side runs in
a fresh process, ``SCRIPT.py --measure SRC OUT [EXTRA...]``, with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1, and
stops unless ``rarewave`` is imported from its own SRC.  The sides
alternate for ``--rounds`` rounds (``before`` runs first on even rounds,
``after`` on odd ones).  Each timing reports every round's time per side,
their median and quartiles, and the share of rounds in which ``after`` is
faster than ``before``.  A difference counts as resolved only when at least
ten rounds ran, one side wins at least nine tenths of them and the medians
differ by more than the distance between the quartiles of ``before``.  The
report is written as JSON to ``--out``, which has no default, with both
revisions and the host next to the script's rows.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
# Fewest rounds that can resolve a difference: with one round the quartile
# spread of ``before`` is 0, so any gap that round shows would pass.
MIN_ROUNDS = 10


def best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def load(src: str) -> None:
    """Import ``rarewave`` from the directory ``src``, and stop if it came from elsewhere."""
    sys.path.insert(0, src)
    import rarewave

    if Path(rarewave.__file__).resolve().parent != Path(src).resolve() / "rarewave":
        raise SystemExit(f"rarewave imported from {rarewave.__file__}, not from {src}")


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
    """Results of ``script --measure src out *extra``, run in a fresh one-thread process."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, script, "--measure", str(src), str(out), *extra],
        cwd=ROOT,
        env=env,
        check=True,
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


def round_count(text: str) -> int:
    """A round count for argparse: an integer of at least 1, since a run needs a round."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 round, got {n}")
    return n


def parser(doc: str) -> argparse.ArgumentParser:
    """The options every script takes, described by the first line of its docstring."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--before", required=True, help="git revision to compare against")
    ap.add_argument("--rounds", type=round_count, default=10)
    ap.add_argument("--out", required=True, help="JSON file the report is written to")
    return ap


def write(args: argparse.Namespace, report: dict) -> None:
    """Write ``report`` to ``args.out``: its "what", the provenance, then the rest."""
    report = {"what": report["what"], **provenance(args.before), **report}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


def dispatch(measure, main) -> None:
    """Run ``main``, or one side when called as ``--measure SRC OUT *extra``.

    A side imports ``rarewave`` from SRC and saves the arrays of
    ``measure(*extra)`` to OUT.
    """
    if sys.argv[1:2] != ["--measure"]:
        main()
        return
    src, out, *extra = sys.argv[2:]
    load(src)
    np.savez(out, **measure(*extra))
