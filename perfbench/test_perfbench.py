"""The benchmark's own tests: every workload at toy size, and checks that fail.

    python3 -m pytest perfbench -q

The toy sizes keep each solve under a second; the corrupted-output tests
show that each check rejects a wrong result rather than passing everything.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_src()

import tracer  # noqa: E402
import workloads  # noqa: E402
from rarewave import transport  # noqa: E402
from rarewave.euler import GasState  # noqa: E402
from rarewave.velocity import GridFunction  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOY_TABLE = workloads.Lattice(10, 3.5, 0.05, "thermal_n10_span3.5_tol0.05")
TOY_SLICE = workloads.Lattice(12, 3.5, 0.05, "shared_n12_span3.5_tol0.05")


def _run(workload, trace=False):
    workload.setup()
    result, env = run.run(workload, 0, 0.5, trace, [0.1])
    return result, env


@pytest.fixture(scope="module")
def toy_slice():
    w = workloads.WaveSlice(3, TOY_SLICE)
    w.setup()
    w.step()
    return w


# -- contract -------------------------------------------------------------


def test_spec_names_match_the_outputs():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == {"op_s", "setup_s", "residual", "peak_rss_mb"}
    layer = set(tracer.per_layer([], 1, [1.0], 0.0, [])) | {"trace.op_s"}
    assert layer == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_layer_metric_has_one_prediction():
    preds = json.loads((run.HERE / "predictions.json").read_text())["predictions"]
    named = [m for p in preds for m in p["layer"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]} | {"failed"}
    for p in preds:
        assert set(p["on"]) | set(p["flat_on"]) <= set(workloads.WORKLOADS)
        assert all(m in e2e or m in named for m in p["moves"])


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave_reports", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_same_seed_same_inputs():
    a, b, c = (workloads.TransportTable(s, TOY_TABLE) for s in (5, 5, 6))
    draws = [x.rng.uniform(0.8, 2.9, 4).tolist() for x in (a, b, c)]
    assert draws[0] == draws[1] != draws[2]
    xs = [[next(workloads.WaveSlice(s).positions) for _ in range(3)] for s in (5, 5, 6)]
    assert xs[0] == xs[1] != xs[2]


# -- every workload at toy size ------------------------------------------


@pytest.mark.parametrize(
    "workload",
    [
        lambda: workloads.TransportTable(1, TOY_TABLE),
        lambda: workloads.WaveSlice(1, TOY_SLICE),
        lambda: workloads.WaveReports(1, points_per_level=2),
    ],
    ids=["transport_table", "wave_slice", "wave_reports"],
)
def test_toy_workload_passes_its_checks(workload):
    result, env = _run(workload())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert env["thread_pins"]["OMP_NUM_THREADS"] == "1" and env["scipy_fft_workers"] == 1


def test_traced_toy_run_reports_layers():
    result, _ = _run(workloads.TransportTable(2, TOY_TABLE), trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert m["transport.solves_per_state"] == 3.0
    assert m["collision.fft_calls_per_apply"] == 13.0
    assert m["collision.fft_calls_per_weak_apply"] == 6.0
    assert m["collision.transform_builds"] == 1.0
    assert m["collision.self_share"] > 0.5
    assert m["trace.missing_hooks"] == 0.0


def test_tracer_restores_the_package():
    from rarewave import collision

    before = (collision.LMOperator.apply, collision.rfftn, transport.invert_LM_micro)
    tr = tracer.Tracer()
    tr.install()
    assert collision.LMOperator.apply is not before[0]
    tr.uninstall()
    assert (collision.LMOperator.apply, collision.rfftn, transport.invert_LM_micro) == before


# -- corrupted outputs fail their checks ------------------------------------


def _reference_rows(thetas, power=2.5):
    mu, ka = workloads._reference(workloads.TABLE_LATTICE.reference)
    return [(t, mu * t**power, ka * t**power, 5e-3) for t in thetas]


def test_table_check_accepts_the_reference_law():
    ref = workloads._reference(workloads.TABLE_LATTICE.reference)
    assert workloads.table_problems(_reference_rows([0.9, 1.3, 2.2]), 1e-2, ref) == [[], [], []]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: (r[0], 1.05 * r[1], r[2], r[3]),  # preimage scaled by 1.05
        lambda r: (r[0], r[1] * r[0] ** 0.1, r[2] * r[0] ** 0.1, r[3]),  # wrong theta power
        lambda r: (r[0], r[1], r[2], 2e-2),  # residual above tol
    ],
    ids=["scaled", "theta_power", "residual"],
)
def test_table_check_rejects_corruption(corrupt):
    rows = [corrupt(r) for r in _reference_rows([0.9, 1.3, 2.2])]
    ref = workloads._reference(workloads.TABLE_LATTICE.reference)
    assert any(workloads.table_problems(rows, 1e-2, ref))


def test_preimage_check_rejects_a_scaled_preimage(toy_slice):
    _, _, sol, _ = toy_slice.outputs[0]
    c = toy_slice.lattice
    ref = workloads._reference(c.reference)
    rtol = workloads.SLICE_COEFF_RTOL
    good = workloads.preimage_residuals(sol)
    assert not workloads.solution_problems(sol, good, c.tol, ref, rtol)
    # the toy tolerance is 0.05, so the toy preimage is scaled further than
    # the 1.05 that fails at the benchmark's tol=1e-2
    a = list(sol.A)
    a[0] = GridFunction(sol.grid, 1.2 * a[0].values)
    bad_sol = dataclasses.replace(sol, A=tuple(a))
    bad = workloads.preimage_residuals(bad_sol)
    assert bad["A1"] > c.tol
    assert workloads.solution_problems(bad_sol, bad, c.tol, ref, rtol)


def test_coefficient_check_rejects_wrong_coefficients(toy_slice):
    _, _, sol, _ = toy_slice.outputs[0]
    c = toy_slice.lattice
    hot = dataclasses.replace(sol, mu_theta=sol.mu_theta * 1.3, kappa_theta=sol.kappa_theta * 1.3)
    ref = workloads._reference(c.reference)
    assert workloads.solution_problems(hot, {}, c.tol, ref, workloads.SLICE_COEFF_RTOL)


def test_gbar_check(toy_slice):
    x, s, sol, base = toy_slice.outputs[0]
    eps, a = workloads.GBAR_EPS, workloads.GBAR_A
    other = toy_slice.gbar(x, s, sol, eps, 0.5 * a)
    double = toy_slice.gbar(x, s, sol, 2.0 * eps, a)
    assert not workloads.gbar_problems(base, other, double)
    assert workloads.gbar_problems(base, other, 2.1 * base)
    assert workloads.gbar_problems(base, 1.01 * base, double)
    assert workloads.gbar_problems(0 * base, 0 * base, 0 * base)


def test_wave_report_checks_reject_corruption():
    w = workloads.WaveReports(4, points_per_level=2)
    w.setup()
    w.step()
    rows, gap, states, residuals = w.outputs[0]
    left, right = w.data.left, w.data.right
    jumps = (right.rho - left.rho, right.u1 - left.u1, right.theta - left.theta)
    assert not workloads.decay_problems(rows, jumps)
    assert not workloads.gap_problems(*gap)
    assert not workloads.pointwise_problems(states, residuals, w.data)

    big = dataclasses.replace(rows[0], value=rows[0].bound_shape * 6.0)
    assert workloads.decay_problems([big], jumps)
    l1 = next(r for r in rows if r.j == 1 and r.p == 1.0)
    assert workloads.decay_problems([dataclasses.replace(l1, value=1.05 * sum(jumps))], jumps)
    assert workloads.gap_problems(gap[1] * 1.01, gap[1])
    off_curve = GasState.make(states[0].rho, states[0].u1, 1.01 * states[0].theta)
    assert workloads.pointwise_problems([off_curve], residuals, w.data)
    assert workloads.pointwise_problems(states, [r + 1e-5 for r in residuals], w.data)
    assert math.isfinite(w.check()[1])
