"""The benchmark reaches the program by name and reads what the CLI
writes: every layer function that bench/tracing.py wraps,
`trainer.Adam.step`, and every attribute of a pilid module that the
benchmark's code and tests read must exist, and `pilid predict` must
write what bench/run.py parses.  The benchmark's own tests are not
collected here, so without these checks a rename or a format change would
only break benchmark runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pilid import cli, dataset, persist, pilib, trainer

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_functions():
    return bench_module("tracing").LAYER_FUNCTIONS


@pytest.mark.parametrize("module,attr", layer_functions())
def test_layer_function_resolves(module, attr):
    fn = getattr(importlib.import_module(f"pilid.{module}"), attr, None)
    assert callable(fn), f"pilid.{module}.{attr}"


# the pilid modules the benchmark imports under these names
BENCH_IMPORTS = {"cli": cli, "dataset": dataset, "persist": persist,
                 "pilib": pilib, "trainer": trainer}


def bench_references():
    """Each `module.attr[.attr...]` read in bench/*.py and bench/tests/*.py
    of a module in BENCH_IMPORTS, as a tuple of names."""
    refs = set()
    for path in [*BENCH.glob("*.py"), *BENCH.glob("tests/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names, value = [], node
            while isinstance(value, ast.Attribute):
                names.insert(0, value.attr)
                value = value.value
            if names and isinstance(value, ast.Name) \
                    and value.id in BENCH_IMPORTS:
                refs.add((value.id, *names))
    return sorted(refs)


@pytest.mark.parametrize("ref", bench_references(), ids=".".join)
def test_benchmark_reference_resolves(ref):
    obj = BENCH_IMPORTS[ref[0]]
    for name in ref[1:]:
        assert hasattr(obj, name), ".".join(ref)
        obj = getattr(obj, name)


def test_one_block_network_property_exists():
    # bench/tests/test_bench.py reads a loaded model's `mlp`
    assert isinstance(trainer.PilidModel.mlp, property)


def test_adam_step_exists():
    from pilid import trainer
    assert callable(trainer.Adam.step)


def test_gated_model_class_exists():
    from pilid import pilib
    assert isinstance(pilib.PilibModel, type)


def test_predict_writes_what_the_benchmark_reads(tmp_path):
    # bench/run.py:read_predictions splits the output on whitespace, wants
    # the token `prediction` first and then one value per scoring row, and
    # compares their digest across rounds and with in-memory predictions.
    inputs = bench_module("inputs")
    X, y = inputs.draw(400, 11, 0)
    specs = [dataset.FeatureSpec(name, "numerical")
             for name in inputs.FEATURE_NAMES]
    model, _ = trainer.train(dataset.Dataset(rows=X, targets=y, specs=specs),
                             4, "6-1", trainer.TrainConfig(epochs=1, seed=2))
    persist.save(model, tmp_path / "model.plm")
    X_score, _ = inputs.draw(300, 11, 1)
    inputs.write_csv(tmp_path / "score.csv", X_score, None)
    assert cli.main(["predict", "--model", str(tmp_path / "model.plm"),
                     "--data", str(tmp_path / "score.csv"),
                     "--out", str(tmp_path / "preds.csv")]) == 0
    tokens = (tmp_path / "preds.csv").read_text().split()
    assert tokens[0] == "prediction"
    assert len(tokens) == 1 + len(X_score)
    got = np.array([float(v) for v in tokens[1:]])
    _, want = trainer.model_forward(persist.load(tmp_path / "model.plm"),
                                    X_score)
    assert got.tobytes() == want.tobytes()


def test_benchmark_pilib_checks_pass_on_a_trained_model(tmp_path,
                                                        monkeypatch):
    # bench/checks.py reaches into the model (its blocks, one block at a
    # time through `dataclasses.replace`) and imports `inputs` as a
    # top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    from pilid import pilib
    checks, inputs = bench_module("checks"), bench_module("inputs")
    X, y = inputs.draw(2000, 0, 0)
    specs = [dataset.FeatureSpec(name, "numerical")
             for name in inputs.FEATURE_NAMES]
    model, _ = pilib.train_pilib(
        dataset.Dataset(rows=X, targets=y, specs=specs), 4, [6], 6, 2, 0.003,
        trainer.TrainConfig(epochs=1, seed=0))
    assert len(model.blocks) >= 2, "the check must see blocks side by side"
    persist.save(model, tmp_path / "model.plm")
    model = persist.load(tmp_path / "model.plm")
    _, _, surface = pilib.interaction_surface(model, (0, 1), grid=5)
    assert checks.pilib_model(model, X[:200], 2, surface, 5,
                              pilib.pilib_forward) == []
