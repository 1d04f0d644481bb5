"""The benchmark reaches the program by name: every layer function that
bench/tracing.py wraps, and `trainer.Adam.step`, must exist.  The
benchmark's own tests are not collected here, so without this check a
rename would only break traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_FUNCTIONS


@pytest.mark.parametrize("module,attr", layer_functions())
def test_layer_function_resolves(module, attr):
    fn = getattr(importlib.import_module(f"pilid.{module}"), attr, None)
    assert callable(fn), f"pilid.{module}.{attr}"


def test_adam_step_exists():
    from pilid import trainer
    assert callable(trainer.Adam.step)


def test_gated_model_class_exists():
    from pilid import pilib
    assert isinstance(pilib.PilibModel, type)
