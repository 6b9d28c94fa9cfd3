"""The before/after protocol and report every ``bench/`` script runs.

    python bench/SCRIPT.py --before REV [--rounds 10] --out FILE

Run a script from the root of a checkout.  It measures twice over: once
with this checkout's ``src/`` and once with ``src/`` of git revision REV,
exported by ``git archive`` into a temporary directory.  Each side runs in
a fresh process, ``SCRIPT.py --measure SRC OUT [EXTRA...]``, with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1, and
stops unless ``rarewave`` is imported from its own SRC.  The sides
alternate for ``--rounds`` rounds (``before`` first on even rounds).  A
difference counts as resolved only when at least ten rounds ran, one side
wins at least nine tenths of them and the medians differ by more than the
distance between the quartiles of ``before``.

A script's ``measure()`` returns a flat dict keyed ``"ROW/NAME"``, ROW as
``key=value`` words (``"state=rest n_per_axis=16"``).  A NAME ending in
``_s`` holds a timing, [seconds, minor page faults] as ``cost_of`` and
``best_of`` give it; ``raised`` holds the message of a call that raised;
any other NAME holds a value, a number or an array.

The JSON report at ``--out`` (no default) holds the script's description
(``what``, ``timing``, ``accuracy``, metadata), both revisions and the host,
the resolution floor (the rows where both sides raise) and one row per ROW
in ``measure()``'s order.  A row holds ``row``, ``rounds``; per timing,
``compare()`` of its seconds and each side's median minor page faults; under
``before`` and ``after`` that side's first-round values (an array of more
than ``SHOWN`` entries by its largest absolute entry) or ``raised``; and
under ``max_rel``, max |after - before| / max |before| of every value both
sides returned.  The console table prints the same rows.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
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
# Largest array a report lists entry by entry for each side.
SHOWN = 9


def cost_of(fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` and what it cost: [seconds, this process's minor page faults]."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return out, np.array([seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults])


def best_of(fn, *args) -> np.ndarray:
    """The cost of the fastest of ``REPEATS`` calls: [seconds, minor page faults]."""
    return min((cost_of(fn, *args)[1] for _ in range(REPEATS)), key=lambda cost: cost[0])


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
    """max |a - b| / max |b|, and 0 where a and b are equal."""
    diff = np.abs(np.asarray(a) - np.asarray(b)).max()
    return 0.0 if diff == 0 else float(diff / np.abs(b).max())


def _shown(value):
    """A value as a report lists it for one side."""
    value = np.asarray(value)
    if value.dtype.kind == "U":
        return str(value)
    return value.tolist() if value.size <= SHOWN else {"max_abs": float(np.abs(value).max())}


def report_rows(runs: dict) -> list[dict]:
    """The report rows of ``run_rounds``' results, laid out as the module docstring says."""
    out = []
    for label in dict.fromkeys(k.split("/")[0] for side in runs for k in runs[side][0]):
        head = label + "/"
        rounds = {
            side: [{k[len(head) :]: v for k, v in r.items() if k.startswith(head)} for r in rs]
            for side, rs in runs.items()
        }
        row = {"row": label, "rounds": len(rounds["before"])}
        timed = dict.fromkeys(n for side in rounds for n in rounds[side][0] if n.endswith("_s"))
        for name in timed:
            if all(name in r for side in rounds for r in rounds[side]):
                costs = {side: np.array([r[name] for r in rounds[side]]) for side in rounds}
                row[name] = {
                    **compare({side: costs[side][:, 0].tolist() for side in costs}),
                    "minor_faults": {side: float(np.median(costs[side][:, 1])) for side in costs},
                }
        first = {side: rounds[side][0] for side in rounds}
        for side in first:
            row[side] = {n: _shown(v) for n, v in first[side].items() if n not in timed}
        before, after = first["before"], first["after"]
        shared = [n for n in after if n in before and n not in timed and n != "raised"]
        row["max_rel"] = {n: max_rel(after[n], before[n]) for n in shared}
        out.append(row)
    return out


def floors(rows: list[dict]) -> list[str]:
    """The rows on which both sides raise."""
    both = [row for row in rows if "raised" in row["before"] and "raised" in row["after"]]
    return [f"{row['row']}: both sides raise" for row in both]


def table(rows: list[dict]) -> str:
    """One line per timing (median s, after wins, resolved, median faults), one per max_rel."""
    lines = ["row / timing: before after median s, after wins, resolved, before after faults"]
    for row in rows:
        for name, r in row.items():
            if name.endswith("_s"):
                b, a, f = r["before"], r["after"], r["minor_faults"]
                lines.append(
                    f"{row['row']} / {name}: {b['median']:.3e} {a['median']:.3e}, "
                    f"{r['after_wins']:.0%}, {r['resolved']}, {f['before']:.0f} {f['after']:.0f}"
                )
        raised = {s: row[s]["raised"] for s in ("before", "after") if "raised" in row[s]}
        lines.append(f"    max_rel {row['max_rel']}" + (f"  raised {raised}" if raised else ""))
    return "\n".join(lines)


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


def write(args: argparse.Namespace, description: dict, rows: list[dict]) -> None:
    """Write the report to ``args.out`` and print its table."""
    report = {"what": description["what"], **provenance(args.before), **description}
    report.update(resolution_floor=floors(rows), rows=rows)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(table(rows))


def main(script: str, doc: str, description: dict) -> None:
    """Run ``script``'s sides for ``--rounds`` rounds and write its report."""
    args = parser(doc).parse_args()
    write(args, description, report_rows(run_rounds(script, args.before, args.rounds)))


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
