"""Tests of the benchmark itself: every correctness check can fail, the
tracer's self times add up, and each workload runs end to end.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pilid import dataset, persist, pilib, trainer  # noqa: E402


def _data(n=2000, seed=5):
    X, y = inputs.draw(n, seed, 0)
    specs = [dataset.infer_spec(f"x{j}", X[:, j]) for j in range(inputs.M)]
    return dataset.Dataset(rows=X, targets=y, specs=specs)


@pytest.fixture(scope="module")
def hybrid():
    model, _ = trainer.train(_data(), 5, [8, 8, 1],
                             trainer.TrainConfig(epochs=1, seed=1))
    return model


def test_generator_is_seeded_and_splits_streams():
    a, b = inputs.draw(50, 3, 0), inputs.draw(50, 3, 0)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], inputs.draw(50, 3, 1)[0])
    assert not np.array_equal(a[0], inputs.draw(50, 4, 0)[0])


def test_csv_inputs_read_back_bit_exactly(tmp_path):
    X, y = inputs.draw(20, 1, 0)
    inputs.write_csv(tmp_path / "d.csv", X, y)
    data = dataset.load_csv(tmp_path / "d.csv", "y", dataset.REGRESSION)
    assert np.array_equal(data.rows, X) and np.array_equal(data.targets, y)


def test_perturbed_prediction_fails():
    pred = inputs.target_mean(inputs.draw(1000, 2, 1)[0])
    assert checks.predictions(pred, 1000) == []
    assert checks.predictions(pred[:-1], 1000)
    nan = pred.copy()
    nan[7] = np.nan
    assert checks.predictions(nan, 1000)
    nudged = pred.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    assert checks.identical(pred, pred.copy(), "p") == []
    assert checks.identical(pred, nudged, "p")


def test_heldout_r2_floor_rejects_a_shuffled_prediction():
    X, y = inputs.draw(5000, 2, 1)
    pred = inputs.target_mean(X)
    floor = min(w.r2_floor for w in WORKLOADS.values())
    assert checks.at_least("r2", checks.r2(pred, y), floor) == []
    shuffled = np.random.default_rng(0).permutation(pred)
    assert checks.at_least("r2", checks.r2(shuffled, y), floor)


def _true_shapes(knots=6):
    xs = np.linspace(0.0, 1.0, knots)
    return {j: (xs, inputs.marginal(j, xs) + 3.0) for j in range(inputs.M)}


def test_permuted_shape_curve_fails():
    floor = min(w.shape_corr_floor for w in WORKLOADS.values())
    shapes = _true_shapes()
    every = list(range(inputs.M))
    assert checks.shapes(checks.shape_correlations(shapes), every, floor) == []
    xs, us = shapes[0]
    shapes[0] = (xs, us[::-1])
    assert checks.shapes(checks.shape_correlations(shapes), every, floor)
    # a curve read by a gated block is not scored; one outside every block is
    assert checks.shapes(checks.shape_correlations(shapes),
                         checks.additive_features([[0, 1]]), floor) == []
    assert checks.shapes(checks.shape_correlations(shapes),
                         checks.additive_features([[2, 3]]), floor)


def test_additive_features():
    assert checks.additive_features([]) == list(range(inputs.M))
    assert checks.additive_features([[0, 1], [1, 7]]) == [2, 3, 4, 5, 6, 8, 9]
    assert checks.additive_features([list(range(inputs.M))]) == \
        list(range(inputs.M))


def test_exported_shape_csv_parses_to_the_curves(hybrid, tmp_path):
    path = persist.export_shapes(hybrid, tmp_path)
    shapes = checks.parse_shapes(path.read_text())
    assert sorted(shapes) == list(range(inputs.M))
    assert all(len(xs) == 6 and len(us) == 6 for xs, us in shapes.values())


def test_one_ulp_change_of_a_loaded_parameter_fails(hybrid, tmp_path):
    probe = inputs.draw(500, 9, 1)[0]
    before = trainer.model_forward(hybrid, probe)[1]
    persist.save(hybrid, tmp_path / "m.plm")
    loaded = persist.load(tmp_path / "m.plm")
    assert checks.identical(before, trainer.model_forward(loaded, probe)[1],
                            "save/load") == []
    loaded.mlp.head_b[...] = np.nextafter(loaded.mlp.head_b, np.inf)
    assert checks.identical(before, trainer.model_forward(loaded, probe)[1],
                            "save/load")


def test_loss_trace_checks():
    assert checks.loss_trace([2.0, 1.0], must_fall=True) == []
    assert checks.loss_trace([1.0, 2.0], must_fall=True)
    assert checks.loss_trace([1.0, 2.0], must_fall=False) == []
    assert checks.loss_trace([1.0, np.inf], must_fall=False)


@pytest.fixture(scope="module")
def gated():
    model, _ = pilib.train_pilib(_data(1000), 5, [4, 1], 4, 3, 0.002,
                                 trainer.TrainConfig(epochs=1, seed=1))
    G = np.zeros((4, inputs.M))
    G[0, :2] = 1.0
    G[2, 4] = 1.0
    return dataclasses.replace(model, hard_gates=G)


def _pilib_checks(model, forward=pilib.pilib_forward, surface=None):
    rows = inputs.draw(200, 4, 1)[0]
    if surface is None:
        surface = pilib.interaction_surface(model, (0, 1), grid=7)[2]
    return checks.pilib_model(model, rows, 3, surface, 7, forward)


def test_pilib_model_checks_pass_on_a_valid_model(gated):
    assert _pilib_checks(gated) == []


def test_pilib_block_above_order_k_fails(gated):
    G = gated.hard_gates.copy()
    G[1, :4] = 1.0
    fails = _pilib_checks(dataclasses.replace(gated, hard_gates=G))
    assert any("above K=3" in f for f in fails)


def test_pilib_without_active_block_fails(gated):
    G = np.zeros_like(gated.hard_gates)
    assert any("no active block" in f for f in
               _pilib_checks(dataclasses.replace(gated, hard_gates=G)))


def test_pilib_block_reading_a_closed_feature_fails(gated):
    def ungated(model, X):
        return pilib.pilib_forward(dataclasses.replace(
            model, hard_gates=np.ones_like(model.hard_gates)), X)
    assert any("closed-gate" in f for f in _pilib_checks(gated, ungated))


def test_pilib_surface_of_wrong_shape_fails(gated):
    assert _pilib_checks(gated, surface=np.zeros((7, 6)))
    assert _pilib_checks(gated, surface=np.full((7, 7), np.nan))


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer("train")

    def leaf(n):
        return sum(i * i for i in range(n))

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return traced_leaf(20_000) + traced_leaf(30_000) + leaf(10_000)

    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap(tracing.ROOT, lambda: [traced_middle() for _ in range(3)])()
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 6 and summary["middle"]["calls"] == 3
    total = sum(agg["self_s"] for agg in summary.values())
    assert total == pytest.approx(summary[tracing.ROOT]["total_s"], abs=1e-9)
    assert all(agg["self_s"] >= 0.0 for agg in summary.values())


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    proc, lines = _bench("--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    proc, lines = _bench("--workload", "cli_csv_100k", "--seed", "3",
                         "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == set(run.PER_LAYER)
    record = json.loads((ROOT / ".bench_out" / "results" /
                         "cli_csv_100k-seed3-trace1.json").read_text())
    for traced in record["traced_rounds"]:
        self_sum = sum(v for k, v in traced["layers"].items()
                       if k.endswith(".self_s") and not k.startswith("start."))
        assert self_sum == pytest.approx(traced["traced_stage_s"], abs=1e-6)
    assert result["metrics"]["cli.main.self_s"]["value"] > 0
    assert result["metrics"]["dataset.load_csv.rows"]["value"] == 100_000


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _bench("--workload", "pilib_b20", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
