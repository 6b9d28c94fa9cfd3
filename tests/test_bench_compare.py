"""The before/after protocol of bench/harness.py: when ``compare`` calls a
difference resolved, how a side is run, how runs become report rows, and that every
script needs ``--out`` and at least one round."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = sorted(p.name for p in BENCH.glob("*.py") if p.name != "harness.py")
BEFORE = [1.0 + 0.01 * k for k in range(10)]  # quartile spread 0.045
# a side that reports the thread pin it was started with
SIDE = """
import os, sys
sys.path.insert(0, {bench!r})
import harness
harness.dispatch(lambda: {{"omp": os.environ["OMP_NUM_THREADS"]}}, None)
"""


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("harness", BENCH / "harness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare(harness):
    return harness.compare


def test_one_won_round_is_not_resolved(compare):
    out = compare({"before": [1.0], "after": [0.5]})
    assert out["after_wins"] == 1.0
    assert out["resolved"] is False


def test_ten_won_rounds_past_the_quartile_spread_are_resolved(compare):
    out = compare({"before": BEFORE, "after": [0.5] * 10})
    assert out["after_wins"] == 1.0
    assert out["resolved"] is True


def test_eight_wins_in_ten_rounds_are_not_resolved(compare):
    out = compare({"before": BEFORE, "after": [0.5] * 8 + [2.0] * 2})
    assert out["after_wins"] == 0.8
    assert out["resolved"] is False


def test_a_side_runs_pinned_to_one_thread(harness, tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    script = tmp_path / "side.py"
    script.write_text(SIDE.format(bench=str(BENCH)))
    out = harness.run_side(str(script), harness.ROOT / "src", tmp_path / "side.npz")
    assert str(out["omp"]) == "1"


@pytest.mark.parametrize("script", SCRIPTS)
def test_a_run_without_out_exits_2_and_writes_no_file(script, harness, tmp_path):
    # with --rounds 0 a script exported src/, ran no round and ended in IndexError
    evidence = {p: p.stat().st_mtime_ns for p in harness.ROOT.glob("BENCH_*.json")}
    for extra, named in (([], "--out"), (["--rounds", "0", "--out", "F"], "--rounds")):
        done = subprocess.run(
            [sys.executable, str(BENCH / script), "--before", "HEAD", *extra],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert named in done.stderr
        assert list(tmp_path.iterdir()) == []
        assert {p: p.stat().st_mtime_ns for p in harness.ROOT.glob("BENCH_*.json")} == evidence


def fake_run(k, mu, vec, raised):
    """Round k of a fake side: three rows, one timing each; rows 2 and 3 raise."""
    run = {f"n={n}/solve_s": [1.0 + 0.01 * k + n, 100 + k] for n in (1, 2, 3)}
    run.update({"n=1/mu": mu, "n=1/vec": vec, "n=1/big": np.arange(10.0)})
    run.update({"n=2/raised": raised, "n=3/raised": "stalled"})
    return run


def test_report_rows_compare_timings_list_values_and_floor_raises(harness):
    runs = {
        "before": [fake_run(k, 1.0, [1.0, 2.0, 3.0], "stalled") for k in range(10)],
        "after": [fake_run(k, 1.1, [1.0, 2.0, 3.3], "stalled at 2") for k in range(10)],
    }
    # row 3 raises only before: after returns a value in the round the report lists
    del runs["after"][0]["n=3/raised"]
    runs["after"][0]["n=3/mu"] = 2.0
    rows = harness.report_rows(runs)
    assert [row["row"] for row in rows] == ["n=1", "n=2", "n=3"]
    for row, n in zip(rows, (1, 2, 3)):
        times = {side: [1.0 + 0.01 * k + n for k in range(10)] for side in runs}
        faults = {side: 104.5 for side in runs}
        assert row["rounds"] == 10
        assert row["solve_s"] == {**harness.compare(times), "minor_faults": faults}
    one, two, three = rows
    assert one["before"] == {"mu": 1.0, "vec": [1.0, 2.0, 3.0], "big": {"max_abs": 9.0}}
    assert one["after"]["mu"] == 1.1 and one["after"]["vec"] == [1.0, 2.0, 3.3]
    assert one["max_rel"] == pytest.approx({"mu": 0.1, "vec": 0.1, "big": 0.0}, rel=1e-12)
    assert two["before"] == {"raised": "stalled"} and two["after"] == {"raised": "stalled at 2"}
    assert two["max_rel"] == {}
    assert three["before"] == {"raised": "stalled"} and three["after"] == {"mu": 2.0}
    assert harness.floors(rows) == ["n=2: both sides raise"]


def test_wave_reports_rows_read_no_difference_between_equal_sides(monkeypatch):
    # both sides measure this checkout's src/ in this process: every difference is 0.0
    monkeypatch.syspath_prepend(str(BENCH))
    wave_reports = importlib.import_module("wave_reports")
    runs = {side: [wave_reports.measure()] for side in ("before", "after")}
    rows = importlib.import_module("harness").report_rows(runs)
    assert [row["row"] for row in rows] == [f"t={t}" for t in wave_reports.TIMES]
    entries = [f"_p{p}_j{j}" for p in ("1", "2", "inf") for j in (1, 2)]
    decay, decay_first = ([name + e for e in entries] for name in ("decay", "decay_first"))
    timed = ("decay", "gap", "decay_first", "gap_first", "residual16", "state16")
    for row in rows:
        assert all(f"{name}_s" in row for name in timed)
        values = ["gap", "gap_first", "residual16", "state16"] + decay + decay_first
        assert list(row["max_rel"]) == values
        assert set(row["max_rel"].values()) == {0.0}
        assert row["before"] == row["after"]
        # a wave's first report and its warm ones give the same values
        side = row["after"]
        assert side["gap_first"] == side["gap"]
        assert [side[n] for n in decay_first] == [side[n] for n in decay]
