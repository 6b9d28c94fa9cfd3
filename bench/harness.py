"""The before/after protocol and report every ``bench/`` script runs.

    python bench/SCRIPT.py --before REV [--rounds 10] --out FILE

A script is its docstring, its constants, ``measure()`` and a
``DESCRIPTION`` dict, and ends with ``main(measure, __doc__, DESCRIPTION)``,
its one entry point, and reads the benchmark's wave, fan time, lattices and
tolerances from ``perfbench/workloads.py`` through ``workloads()``.  It
measures twice over: once with this checkout's
``src/`` and once with ``src/`` of git revision REV, exported by ``git
archive`` into a temporary directory.  Each side runs in a fresh process,
``SCRIPT.py --measure SRC OUT`` by the script's absolute path, in the
checkout's root, with the six thread pools of ``THREAD_VARS`` pinned to 1
as ``perfbench/run.py`` pins them, and stops unless ``rarewave`` is imported
from its own SRC.  The sides alternate for ``--rounds`` rounds (``before`` first
on even rounds).  A timing is scored by its per-round ratio after/before,
since a slow process or a busy host slows every call of its round
together.  A difference counts as resolved only when at least ten rounds
ran, one side wins at least nine tenths of them and the median ratio lies
further from 1 than the distance between the quartiles of the ratios.  A
timing whose two sides' median minor page faults differ by more than
``FAULT_FLOOR`` and by more than ``FAULT_SPREAD`` of the larger is never
resolved: its calls may differ in whether glibc gave the heap back between
them, not in their work.

A script's ``measure()`` returns a flat dict keyed ``"ROW/NAME"``, ROW as
``key=value`` words (``"state=rest n_per_axis=16"``).  A NAME ending in
``_s`` holds a timing, the [seconds, minor page faults] of the fastest of
``best_of``'s calls; ``raised`` holds the message of a call that raised;
any other NAME holds a value, a number or an array.

The JSON report at ``--out`` (no default) holds ``what``, the first line of
the script's docstring, then both revisions and the host with its 1, 5 and
15 minute load averages just before and just after the rounds, the
``DESCRIPTION`` (``timing``, ``accuracy``, metadata), the resolution floor
(the rows where both sides raise) and one row per ROW in ``measure()``'s
order.  A row holds ``row``, ``rounds``; per timing, ``compare_costs()``
of its [seconds, faults] per round; under ``before`` and
``after`` that side's first-round values (an array of more than ``SHOWN``
entries by its largest finite absolute entry and its count of entries that
are not finite) or ``raised``; and under ``max_rel``, ``max_rel()`` of every
value both sides returned.  The report is strict JSON: a number that is not
finite is written as the string ``"inf"``, ``"-inf"`` or ``"nan"``.  The
console table prints the same rows after the two load averages.
"""

from __future__ import annotations

import argparse
import io
import json
import math
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
# Largest gap between the two sides' median minor page faults at which a
# timing can be resolved: FAULT_SPREAD of the larger, or FAULT_FLOOR faults
# (equal code faults 0 against 1, a heap given back 64 or more).
FAULT_SPREAD, FAULT_FLOOR = 0.1, 32
# The thread pools a side pins to one thread: the list of perfbench/run.py,
# copied so that a change there cannot change how bench/ runs.
THREAD_VARS = (
    "OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS "
    "BLIS_NUM_THREADS VECLIB_MAXIMUM_THREADS NUMEXPR_NUM_THREADS"
).split()


def best_of(fn, *args) -> np.ndarray:
    """The [seconds, minor page faults] of the fastest of ``REPEATS`` calls of ``fn(*args)``."""
    costs = []
    for _ in range(REPEATS):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn(*args)
        seconds = time.perf_counter() - t0
        costs.append([seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults])
    return np.array(min(costs, key=lambda cost: cost[0]))


def load(src: str) -> None:
    """Import ``rarewave`` from the directory ``src``, and stop if it came from elsewhere."""
    sys.path.insert(0, src)
    import rarewave

    if Path(rarewave.__file__).resolve().parent != Path(src).resolve() / "rarewave":
        raise SystemExit(f"rarewave imported from {rarewave.__file__}, not from {src}")


def workloads():
    """``perfbench/workloads.py``, imported with the ``rarewave`` that ``load`` loaded."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


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


def run_side(script: str, src: Path, out: Path) -> dict:
    """Results of ``script --measure src out``, run in a fresh one-thread process."""
    subprocess.run(
        [sys.executable, script, "--measure", str(src), str(out)],
        cwd=ROOT,
        env=dict(os.environ, **dict.fromkeys(THREAD_VARS, "1")),
        check=True,
    )
    with np.load(out) as dat:
        return {k: dat[k] for k in dat.files}


def run_rounds(script: str, before: str, rounds: int) -> dict:
    """Results of ``script --measure SRC OUT`` per side, over alternating rounds.

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
                runs[side].append(run_side(script, srcs[side], tmp / f"{side}.npz"))
    return runs


def quartiles(xs) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def compare(times: dict) -> dict:
    """Round times per side and their per-round ratios after/before, each with
    median and quartiles, the share of rounds ``after`` is faster, and whether
    the difference is resolved (never with fewer than ``MIN_ROUNDS`` rounds).

    A round's two sides share its host load, so the ratio, not either side's
    spread, measures the difference: it is resolved when one side wins nine
    tenths of the rounds and the median ratio is further from 1 than the
    quartiles of the ratios are apart.
    """
    pairs = list(zip(times["after"], times["before"]))
    ratios = [a / b for a, b in pairs]
    wins = sum(a < b for a, b in pairs) / len(pairs)
    losses = sum(a > b for a, b in pairs) / len(pairs)
    ratio = quartiles(ratios)
    return {
        **{side: {"rounds": times[side], **quartiles(times[side])} for side in times},
        "ratio": {"rounds": ratios, **ratio},
        "after_wins": wins,
        "resolved": len(pairs) >= MIN_ROUNDS
        and max(wins, losses) >= 0.9
        and abs(ratio["median"] - 1.0) > ratio["q3"] - ratio["q1"],
    }


def compare_costs(costs: dict) -> dict:
    """``compare()`` of per-side [seconds, minor faults] rounds, with each side's median faults.

    Where those medians differ by more than ``FAULT_FLOOR`` and by more than
    ``FAULT_SPREAD`` of the larger, the timing is not resolved and
    ``unresolved_because`` says so.
    """
    costs = {side: np.asarray(c, dtype=float) for side, c in costs.items()}
    out = compare({side: c[:, 0].tolist() for side, c in costs.items()})
    out["minor_faults"] = faults = {side: float(np.median(c[:, 1])) for side, c in costs.items()}
    gap = abs(faults["after"] - faults["before"])
    if gap > FAULT_FLOOR and gap > FAULT_SPREAD * max(faults.values()):
        out["resolved"] = False
        out["unresolved_because"] = (
            f"median minor faults differ by more than {FAULT_SPREAD:.0%}: "
            f"{faults['before']:g} before, {faults['after']:g} after"
        )
    return out


def provenance(before: str, load_before: tuple) -> dict:
    """Both revisions and the host the rounds ran on, with its load averages
    before the rounds (``load_before``) and now, after them."""
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
            "loadavg": {"before_rounds": list(load_before), "after_rounds": list(os.getloadavg())},
        },
    }


def max_rel(a, b) -> float:
    """max |a - b| over the entries where a and b differ, over the largest finite |b|.

    0.0 where every entry is equal, infinities included; inf where the
    shapes differ, an entry that differs is not finite, or every finite b is 0.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    differ = a != b
    if not differ.any():
        return 0.0
    if not (np.isfinite(a[differ]).all() and np.isfinite(b[differ]).all()):
        return math.inf
    with np.errstate(divide="ignore"):
        return float(np.abs(a[differ] - b[differ]).max() / np.abs(b[np.isfinite(b)]).max())


def _shown(value):
    """A value as a report lists it for one side."""
    value = np.asarray(value)
    if value.dtype.kind == "U":
        return str(value)
    if value.size <= SHOWN:
        return value.tolist()
    finite = np.abs(value[np.isfinite(value)])
    return {
        "max_abs": float(finite.max()) if finite.size else None,
        "non_finite": value.size - finite.size,
    }


def _strict(obj):
    """``obj`` with every float that is not finite replaced by its name, for strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


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
                costs = {side: [r[name] for r in rounds[side]] for side in rounds}
                row[name] = compare_costs(costs)
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


def table(rows: list[dict], loadavg: dict) -> str:
    """The host's load averages before and after the rounds, then one line per
    timing (median s, median ratio, after wins, resolved, median faults and any
    ``unresolved_because``), one per max_rel."""
    load = {k: " ".join(f"{x:.2f}" for x in v) for k, v in loadavg.items()}
    lines = [
        f"host load averages (1, 5, 15 min): before rounds {load['before_rounds']}, "
        f"after rounds {load['after_rounds']}",
        "row / timing: before after median s, median after/before, after wins, resolved, "
        "before after faults",
    ]
    for row in rows:
        for name, r in row.items():
            if name.endswith("_s"):
                b, a, f = r["before"], r["after"], r["minor_faults"]
                lines.append(
                    f"{row['row']} / {name}: {b['median']:.3e} {a['median']:.3e}, "
                    f"{r['ratio']['median']:.3f}, {r['after_wins']:.0%}, {r['resolved']}, "
                    f"{f['before']:.0f} {f['after']:.0f}"
                    + (f" ({r['unresolved_because']})" if "unresolved_because" in r else "")
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


def main(measure, doc: str, description: dict) -> None:
    """Run one side when called as ``--measure SRC OUT``, else the rounds and the report.

    A side imports ``rarewave`` from SRC and saves the arrays of ``measure()`` to OUT.
    """
    if sys.argv[1:2] == ["--measure"]:
        src, out = sys.argv[2:]
        load(src)
        np.savez(out, **measure())
        return
    what = doc.splitlines()[0]
    ap = argparse.ArgumentParser(description=what)
    ap.add_argument("--before", required=True, help="git revision to compare against")
    ap.add_argument("--rounds", type=round_count, default=10)
    ap.add_argument("--out", required=True, help="JSON file the report is written to")
    args = ap.parse_args()
    load_before = os.getloadavg()
    rows = report_rows(run_rounds(str(Path(sys.argv[0]).resolve()), args.before, args.rounds))
    report = {"what": what, **provenance(args.before, load_before), **description}
    report.update(resolution_floor=floors(rows), rows=rows)
    Path(args.out).write_text(json.dumps(_strict(report), indent=2, allow_nan=False) + "\n")
    print(table(rows, report["host"]["loadavg"]))
