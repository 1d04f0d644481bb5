"""Spans around the program's layer functions, recorded from outside.

`install` replaces each public layer function at every module attribute
the program reaches it through (for example `trainer.encode_matrix` and
`pilib.encode_matrix` both lead to `encoding.encode_matrix`) with a
wrapper that records a span: name, parent span, CPU start and CPU end.
Spans stay in memory; `summary` folds them into per-layer calls, total
and self time when the stage ends.  A span's self time is its duration
minus the durations of its direct children, so the self times of all
spans under the stage's root add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

clock = time.process_time

# Public layer functions, as (module, attribute) of their definition.
LAYER_FUNCTIONS = (
    ("cli", "main"),
    ("dataset", "load_csv"), ("dataset", "split"), ("dataset", "batches"),
    ("encoding", "build_points"), ("encoding", "encode_matrix"),
    ("pl_component", "linear_forward"), ("pl_component", "init_least_squares"),
    ("pl_component", "extract_shapes"),
    ("mlp_component", "mlp_forward"), ("mlp_component", "mlp_backward"),
    ("trainer", "loss_and_grads"), ("trainer", "train"),
    ("trainer", "model_forward"),
    ("pilib", "train_pilib"), ("pilib", "pilib_loss_and_grads"),
    ("pilib", "gate_values"), ("pilib", "pilib_forward"),
    ("pilib", "interaction_surface"),
    ("persist", "save"), ("persist", "load"), ("persist", "export_shapes"),
)
ROOT = "bench.stage"
MIB = float(1 << 20)


class Tracer:
    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[list] = []     # [name, parent index, start, end]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, on_return=None):
        """Return `fn` wrapped in a span named `name`.  `on_return(tracer,
        args, result)` runs after the span closes and may add counters."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self CPU seconds."""
        out: dict[str, dict[str, float]] = {}
        self_s = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_s[s[1]] -= s[3] - s[2]
        for s, own in zip(self.spans, self_s):
            agg = out.setdefault(s[0], {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s[3] - s[2]
            agg["self_s"] += own
        return out


def _count_rows(tracer, args, result):
    tracer.counters["dataset.load_csv.rows"] += result.n


def _count_encoded(tracer, args, result):
    tracer.counters["encoding.encode_matrix.rows"] += result.shape[0]
    if tracer.stage == "predict":
        tracer.counters["encoding.encode_matrix.out_mb"] += result.nbytes / MIB


def _count_cache(tracer, args, result):
    if tracer.stage == "predict":
        # cache[0] is the caller's input; the rest are fresh activations
        tracer.counters["mlp_component.mlp_forward.cache_mb"] += \
            sum(h.nbytes for h in result[1][1:]) / MIB


_COUNTERS = {
    "dataset.load_csv": _count_rows,
    "encoding.encode_matrix": _count_encoded,
    "mlp_component.mlp_forward": _count_cache,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function at every `pilid` module attribute bound to
    it, and the `Adam.step` method.  Call after importing the program."""
    targets = {}
    for mod, attr in LAYER_FUNCTIONS:
        module = sys.modules.get(f"pilid.{mod}")
        if module is None:      # library stages do not import the CLI
            continue
        fn = getattr(module, attr)
        name = f"{mod}.{attr}"
        targets[id(fn)] = (fn, tracer.wrap(name, fn, _COUNTERS.get(name)))
    for modname, module in list(sys.modules.items()):
        if modname != "pilid" and not modname.startswith("pilid."):
            continue
        for attr, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    adam = sys.modules["pilid.trainer"].Adam
    adam.step = tracer.wrap("trainer.Adam.step", adam.step)
