"""The before/after protocol of bench/harness.py: when ``compare`` calls a
difference resolved, how a side is run, and that every script needs ``--out`` and at
least one round."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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
