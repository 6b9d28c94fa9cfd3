"""The before/after protocol of bench/harness.py: when ``compare`` calls a
difference resolved, how a side is run, how ``main`` alternates the sides, how runs
become report rows, how ``max_rel`` reads entries that are not finite, that every
script needs ``--out`` and at least one round, that every report is strict JSON,
and that every script's ``measure()`` runs at toy size."""

import importlib.util
import json
import math
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = sorted(p.name for p in BENCH.glob("*.py") if p.name != "harness.py")
BEFORE = [1.0 + 0.01 * k for k in range(10)]  # quartile spread 0.045
# the thread pools perfbench/run.py pins, each of which a side pins too
PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# a side that reports the thread pins it was started with
SIDE = """
import os, sys
sys.path.insert(0, {bench!r})
import harness
harness.main(lambda: {{v: os.environ[v] for v in {pins!r}}}, None, None)
"""
# a two-round script on the same pattern: each side logs the src/ it imports from
FAKE = '''"""A fake bench script whose value holds an inf.

Its report's what is the line above.
"""
import os, sys
sys.path.insert(0, {bench!r})
import harness


def measure():
    with open(os.environ["FAKE_SIDE_LOG"], "a") as fh:
        fh.write(sys.path[0] + "\\n")
    return {{"row=1/value": [1.0, float("inf")]}}


harness.main(measure, __doc__, {{"timing": "none"}})
'''


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


def test_a_win_past_slow_before_processes_is_resolved(compare):
    # four of ten before processes ran 1.5-1.8x slow, as in the committed
    # float-arithmetic report: before's quartiles lie further apart than the
    # medians, yet every round's after/before ratio is 0.70 or less
    base = [1.0 + 0.002 * k for k in range(10)]
    slow = [1.0, 1.5, 1.0, 1.0, 1.6, 1.0, 1.7, 1.0, 1.8, 1.0]
    before = [b * s for b, s in zip(base, slow)]
    out = compare({"before": before, "after": [0.7 * b for b in base]})
    spread = out["before"]["q3"] - out["before"]["q1"]
    assert spread > out["before"]["median"] - out["after"]["median"]
    assert out["after_wins"] == 1.0 and out["ratio"]["median"] == pytest.approx(0.7)
    assert out["resolved"] is True


def test_nine_small_wins_and_one_slow_before_process_are_not_resolved(compare):
    # a null shape: after wins 9 of 10 rounds, one of them only because its
    # before process ran slow, and the median ratio lies within the ratios' quartiles
    ratios = [0.999, 0.95, 0.998, 0.93, 0.997, 0.99, 0.96, 0.996, 1.02, 0.62]
    out = compare({"before": BEFORE, "after": [r * b for r, b in zip(ratios, BEFORE)]})
    assert out["after_wins"] == 0.9
    assert out["ratio"]["rounds"] == pytest.approx(ratios)
    assert out["resolved"] is False


@pytest.mark.parametrize("t", ["0.5", "5.0", "50.0"])
def test_the_committed_float_arithmetic_rounds_resolve_residual16(compare, t):
    # scored by before's quartiles these rounds read unresolved; paired by round they resolve
    report = json.loads((BENCH.parent / "BENCH_float_arithmetic.json").read_text())
    (row,) = [row for row in report["rows"] if row["row"] == f"t={t}"]
    timing = row["residual16_s"]
    assert timing["resolved"] is False
    rounds = {side: timing[side]["rounds"] for side in ("before", "after")}
    out = compare(rounds)
    assert out["after_wins"] == 1.0 and out["ratio"]["median"] < 0.75
    assert out["resolved"] is True


def test_a_timing_whose_sides_fault_apart_is_not_resolved(harness):
    # 10 won rounds past the quartile spread, as above; with 124 and 164
    # median faults (a trimmed heap on one side) the timing is not resolved
    def costs(seconds, faults):
        return [[s, faults] for s in seconds]

    before = costs(BEFORE, 124)
    out = harness.compare_costs({"before": before, "after": costs([0.5] * 10, 164)})
    assert out["after_wins"] == 1.0 and out["minor_faults"] == {"before": 124.0, "after": 164.0}
    assert out["resolved"] is False
    assert out["unresolved_because"] == (
        "median minor faults differ by more than 10%: 124 before, 164 after"
    )
    row = {"row": "r", "t_s": out, "before": {}, "after": {}, "max_rel": {}}
    table = harness.table([row], {"before_rounds": [0.0] * 3, "after_rounds": [0.0] * 3})
    assert table.splitlines()[2].endswith(f"({out['unresolved_because']})")
    # within 10% of the larger the timing resolves as compare() says
    out = harness.compare_costs({"before": before, "after": costs([0.5] * 10, 136)})
    timed = harness.compare({"before": BEFORE, "after": [0.5] * 10})
    assert out == {**timed, "minor_faults": {"before": 124.0, "after": 136.0}}
    assert out["resolved"] is True


def test_a_gap_of_a_few_faults_does_not_block_resolution(harness):
    # equal code faulted 0 against 1 in a full burnett_solve.py run; within
    # FAULT_FLOOR the timing resolves as compare() says
    out = harness.compare_costs({"before": [[s, 0] for s in BEFORE], "after": [[0.5, 1]] * 10})
    timed = harness.compare({"before": BEFORE, "after": [0.5] * 10})
    assert out == {**timed, "minor_faults": {"before": 0.0, "after": 1.0}}
    assert out["resolved"] is True


@pytest.mark.parametrize("before, after", [(0, 100), (166, 102)])
def test_a_heap_sized_fault_gap_still_blocks_resolution(harness, before, after):
    # 166 against 102 is the gap of state=rest n_per_axis=32 on equal code
    out = harness.compare_costs(
        {"before": [[s, before] for s in BEFORE], "after": [[0.5, after]] * 10}
    )
    assert out["after_wins"] == 1.0 and out["resolved"] is False
    assert out["unresolved_because"] == (
        f"median minor faults differ by more than 10%: {before} before, {after} after"
    )


def test_the_host_load_is_recorded_before_and_after_the_rounds(harness, monkeypatch):
    # a busy host can tilt a round's two sides apart, so the report keeps the
    # load averages either side of the rounds and the table prints both
    monkeypatch.setattr(harness.os, "getloadavg", lambda: (2.5, 1.25, 0.5))
    host = harness.provenance("HEAD", (0.25, 0.5, 0.75))["host"]
    assert host["loadavg"] == {
        "before_rounds": [0.25, 0.5, 0.75],
        "after_rounds": [2.5, 1.25, 0.5],
    }
    assert harness.table([], host["loadavg"]) == (
        "host load averages (1, 5, 15 min): before rounds 0.25 0.50 0.75, "
        "after rounds 2.50 1.25 0.50\n"
        "row / timing: before after median s, median after/before, after wins, resolved, "
        "before after faults"
    )


def test_a_side_runs_pinned_to_one_thread(harness, tmp_path, monkeypatch):
    for var in PINS:
        monkeypatch.setenv(var, "4")
    script = tmp_path / "side.py"
    script.write_text(SIDE.format(bench=str(BENCH), pins=PINS))
    out = harness.run_side(str(script), harness.ROOT / "src", tmp_path / "side.npz")
    assert {var: str(out[var]) for var in PINS} == dict.fromkeys(PINS, "1")


def test_main_runs_the_sides_in_turn_from_outside_the_checkout(harness, tmp_path, monkeypatch):
    script, work, log = tmp_path / "fake.py", tmp_path / "work", tmp_path / "sides.log"
    script.write_text(FAKE.format(bench=str(BENCH)))
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("FAKE_SIDE_LOG", str(log))
    # the before side's src/ is this checkout's, so no git history is needed
    monkeypatch.setattr(
        harness, "export_src", lambda rev, dest: shutil.copytree(harness.ROOT / "src", dest / "src")
    )
    monkeypatch.setitem(sys.modules, "harness", harness)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["../fake.py", "--before", "HEAD", "--rounds", "2", "--out", "r.json"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path("../fake.py", run_name="__main__")
    before, after, *rest = log.read_text().splitlines()
    assert rest == [after, before]
    assert after == str(harness.ROOT / "src") and Path(before).parts[-2:] == ("before", "src")
    report = json.loads((work / "r.json").read_text(), parse_constant=no_constant)
    assert report["what"] == "A fake bench script whose value holds an inf."
    assert report["timing"] == "none"
    (row,) = report["rows"]
    assert row["rounds"] == 2 and row["max_rel"] == {"value": 0.0}
    assert row["before"] == row["after"] == {"value": [1.0, "inf"]}


def no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("path", sorted(BENCH.parent.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_committed_report_is_strict_json(path):
    # Infinity and NaN are tokens Python's json reads but strict JSON parsers reject
    json.loads(path.read_text(), parse_constant=no_constant)


def test_a_long_array_shows_its_largest_finite_entry_and_its_non_finite_count(harness):
    value = np.r_[np.arange(-10.0, 0.0), math.inf, -math.inf, math.nan]
    assert harness._shown(value) == {"max_abs": 10.0, "non_finite": 3}
    assert harness._shown(np.full(10, math.inf)) == {"max_abs": None, "non_finite": 10}


def test_strict_names_every_float_that_is_not_finite(harness):
    report = {"max_rel": {"a": math.inf, "b": 0.0}, "rows": [(1.0, -math.inf), [math.nan]]}
    text = json.dumps(harness._strict(report), allow_nan=False)
    expected = {"max_rel": {"a": "inf", "b": 0.0}, "rows": [[1.0, "-inf"], ["nan"]]}
    assert json.loads(text) == expected


@pytest.mark.parametrize(
    "after, before, expected",
    [
        ([1.0, math.inf], [1.0, math.inf], 0.0),
        ([1.0, math.inf], [2.0, math.inf], 0.5),
        ([1.0, 2.0], [1.0, math.inf], math.inf),
        ([1.0, math.inf], [1.0, -math.inf], math.inf),
        ([1.0, 2.0], [1.0, 2.0, 3.0], math.inf),
        ([1.0], [0.0], math.inf),
    ],
)
def test_max_rel_of_entries_that_are_not_finite(harness, after, before, expected):
    assert harness.max_rel(after, before) == expected


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
    big = {"max_abs": 9.0, "non_finite": 0}
    assert one["before"] == {"mu": 1.0, "vec": [1.0, 2.0, 3.0], "big": big}
    assert one["after"]["mu"] == 1.1 and one["after"]["vec"] == [1.0, 2.0, 3.3]
    assert one["max_rel"] == pytest.approx({"mu": 0.1, "vec": 0.1, "big": 0.0}, rel=1e-12)
    assert two["before"] == {"raised": "stalled"} and two["after"] == {"raised": "stalled at 2"}
    assert two["max_rel"] == {}
    assert three["before"] == {"raised": "stalled"} and three["after"] == {"mu": 2.0}
    assert harness.floors(rows) == ["n=2: both sides raise"]


# each script's sizes cut to toy size, where the script has them
TOY = {"SIZES": (10,), "REPORT_LEVELS": 2}
# the toy lattices of perfbench/test_perfbench.py
TOY_LATTICES = {
    "TABLE_LATTICE": (10, 3.5, 0.05, "thermal_n10_span3.5_tol0.05"),
    "SLICE_LATTICE": (12, 3.5, 0.05, "shared_n12_span3.5_tol0.05"),
}


def toy_script(script, monkeypatch):
    """The bench script ``script``, freshly imported, at toy size.

    Its harness takes one repeat, and the benchmark's lattices are toy ones.
    """
    monkeypatch.syspath_prepend(str(BENCH))  # undone with every later sys.path insert
    stem = script.removesuffix(".py")
    for name in ("harness", stem):
        monkeypatch.delitem(sys.modules, name, raising=False)
    harness = importlib.import_module("harness")
    module = importlib.import_module(stem)
    monkeypatch.setattr(harness, "REPEATS", 1)
    for name, value in TOY.items():
        if hasattr(module, name):
            monkeypatch.setattr(module, name, value)
    w = harness.workloads()
    for name, fields in TOY_LATTICES.items():
        monkeypatch.setattr(w, name, w.Lattice(*fields))
    return module


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_script_measures_at_toy_size(script, monkeypatch, tmp_path):
    # a broken script used to show only in a report run
    res = toy_script(script, monkeypatch).measure()
    assert res
    for key, value in res.items():
        row, name = key.split("/")
        assert name and row.split() and all("=" in word for word in row.split())
        if name.endswith("_s"):
            seconds, faults = value
            assert np.shape(value) == (2,) and seconds > 0.0 and faults >= 0
    np.savez(tmp_path / "side.npz", **res)
    with np.load(tmp_path / "side.npz") as saved:
        assert set(saved.files) == set(res)


def test_burnett_solve_writes_layer_rows_next_to_solve_rows(monkeypatch):
    # the layer timings of the drift row and the solve timings share one lattice and one report
    res = toy_script("burnett_solve.py", monkeypatch).measure()
    rows = {}
    for key in res:
        row, name = key.split("/")
        rows.setdefault(row, set()).add(name)
    layers = {"build_s", "apply_s", "weak_apply_s", "pad", "fft_points", "kernel_bytes"}
    assert rows["state=drift n_per_axis=10"] == layers | {"apply", "weak_apply"}
    for state in ("rest", "rest_warm", "mid_fan"):
        assert "burnett_solve_s" in rows[f"state={state} n_per_axis=10"]
    for state in ("rest", "rest_warm"):
        assert {"residuals", "penalty_shares"} <= rows[f"state={state} n_per_axis=10"]
    # on the toy shared lattice the mid-fan A1 is almost all odd-even mode
    assert "A1 (solve): penalty share" in res["state=mid_fan n_per_axis=10/raised"]
    assert len(rows) == 4


def rarewave_attributes():
    """Each attribute of every loaded ``rarewave`` module and of every class defined in one."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "rarewave":
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update({(name, attr, a): v for a, v in vars(value).items()})
    return out


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_script_leaves_rarewave_patched(script, monkeypatch):
    # burnett_solve.py counts LMOperator.apply calls through a wrapper it installs
    module = toy_script(script, monkeypatch)
    before = rarewave_attributes()
    module.measure()
    after = rarewave_attributes()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
