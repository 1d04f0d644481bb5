"""One stage of one benchmark round, run in a fresh process.

    python3 bench/stage.py WORKLOAD STAGE WORK_DIR TRACE RESULT_JSON

Imports the program from `src/` of the checkout, times the stage body in
CPU seconds, records the process's peak RSS and, with TRACE=1, spans
around the program's layers.  Work done after the timed body (the probe
predictions and the model checks) is not timed and does not count in
the peak RSS.  Only the standard library is imported before the program,
so the start time is what the program's own imports cost.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class ImportTimer:
    """Meta-path hook adding up the CPU seconds spent executing the named
    modules, the modules they import included."""

    def __init__(self, names):
        self.names = set(names)
        self.cpu_s = 0.0
        self._depth = 0

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self.names:
            return None
        for finder in sys.meta_path:
            find = getattr(finder, "find_spec", None)
            if finder is self or find is None:
                continue
            spec = find(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            self._depth += 1
            t0 = time.process_time()
            try:
                exec_module(module)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.cpu_s += time.process_time() - t0

        spec.loader.exec_module = timed_exec
        return spec


def import_program(kind: str, timer: ImportTimer | None):
    """Import the entry the stage uses: `pilid.cli`, as the `pilid` command
    does, or the library modules.  Refuses a `pilid` found outside src/."""
    if timer is not None:
        sys.meta_path.insert(0, timer)
    sys.path.insert(0, str(SRC))
    if kind == "cli":
        import pilid.cli  # noqa: F401
    else:
        import pilid.dataset, pilid.persist, pilid.pilib, pilid.trainer  # noqa: E401,F401
    import pilid
    if not Path(pilid.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"stage: pilid imported from {pilid.__file__}, "
                         f"not from {SRC}")


def _train_data(work: Path, w):
    import numpy as np
    from pilid import dataset
    from workloads import TRAIN_FRACTION, TRAIN_SEED
    X, y = np.load(work / "train_X.npy"), np.load(work / "train_y.npy")
    specs = [dataset.infer_spec(f"x{j}", X[:, j]) for j in range(X.shape[1])]
    data = dataset.Dataset(rows=X, targets=y, specs=specs)
    return dataset.split(data, TRAIN_FRACTION, TRAIN_SEED)[0]


def _config(w):
    from pilid import trainer
    from workloads import TRAIN_SEED
    return trainer.TrainConfig(epochs=w.epochs, seed=TRAIN_SEED)


def _widths(w) -> list[int]:
    return [int(t) for t in w.widths.split("-")]


def stage_body(w, stage: str, work: Path, extra: dict):
    """The timed part of a stage; returns nothing, writes its outputs."""
    import numpy as np
    from pilid import persist, pilib, trainer
    from workloads import TRAIN_SEED
    model_path = work / "model.plm"
    if w.kind == "cli":
        from pilid import cli
        if stage == "train":
            argv = ["train", "--data", str(work / "train.csv"),
                    "--target", "y", "--gammas", str(w.gammas),
                    "--mlp", w.widths, "--epochs", str(w.epochs),
                    "--seed", str(TRAIN_SEED), "--out", str(model_path),
                    "--trace-out", str(work / "loss.csv")]
        elif stage == "predict":
            argv = ["predict", "--model", str(model_path),
                    "--data", str(work / "score.csv"),
                    "--out", str(work / "preds.csv")]
        else:
            argv = ["export-shapes", "--model", str(model_path),
                    "--out-dir", str(work / "shapes")]
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"stage: pilid {argv[0]} exited with {code}")
        return
    if stage == "train":
        data = _train_data(work, w)
        if w.kind == "pilib":
            model, diag = pilib.train_pilib(
                data, w.gammas, _widths(w), w.blocks, w.max_order, w.lambda0,
                _config(w))
            extra["loss_trace"] = diag["phase1_trace"] + diag["phase2_trace"]
            extra["capped"] = bool(diag["capped"])
            extra["phase1_epochs"] = len(diag["phase1_trace"])
            extra["active_sets"] = [[int(j) for j in s]
                                    for s in diag["active_sets"] if s]
        else:
            model, trace = trainer.train(data, w.gammas, _widths(w),
                                         _config(w))
            extra["loss_trace"] = trace
        persist.save(model, model_path)
    elif stage == "predict":
        model = persist.load(model_path)
        X = np.load(work / "score_X.npy")
        if w.kind == "pilib":
            _, pred = pilib.pilib_forward(model, X)
            _, _, surface = pilib.interaction_surface(
                model, w.surface_pair, grid=w.surface_grid)
            np.save(work / "surface.npy", surface)
        else:
            _, pred = trainer.model_forward(model, X)
        np.save(work / "preds.npy", pred)
    else:
        persist.export_shapes(persist.load(model_path), work / "shapes")


def _forward(model, X):
    from pilid import pilib, trainer
    if isinstance(model, pilib.PilibModel):
        return pilib.pilib_forward(model, X)[1]
    return trainer.model_forward(model, X)[1]


def after_stage(w, stage: str, work: Path, saved: dict, extra: dict) -> list[str]:
    """Untimed work after the stage: probe predictions of the in-memory
    model (train) and of the model read back from its file (predict), and
    the gated-block model checks.  Returns check failures."""
    import numpy as np
    import checks
    from pilid import persist, pilib
    from workloads import PROBE_ROWS
    probe = np.load(work / "score_X.npy", mmap_mode="r")[:PROBE_ROWS]
    probe = np.array(probe)
    if stage == "train":
        if "model" not in saved:
            return ["train stage saved no model"]
        np.save(work / "probe_mem.npy", _forward(saved["model"], probe))
        if w.kind == "cli":
            lines = (work / "loss.csv").read_text().split()[1:]
            extra["loss_trace"] = [float(ln.split(",")[1]) for ln in lines]
        return []
    if stage != "predict":
        return []
    model = persist.load(work / "model.plm")
    np.save(work / "probe_file.npy", _forward(model, probe))
    if w.kind != "pilib":
        return []
    return checks.pilib_model(model, probe[:500], w.max_order,
                              np.load(work / "surface.npy"), w.surface_grid,
                              pilib.pilib_forward)


def main(argv) -> int:
    name, stage, work, trace, result_path = argv
    work, trace = Path(work), trace == "1"
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    timer = ImportTimer(("scipy", "scipy.stats")) if trace else None
    import_program(w.kind, timer)
    start_cpu = time.process_time()

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(stage)
        tracing.install(tracer)
    from pilid import persist
    saved: dict = {}
    save = persist.save

    def keep_model(model, path, *args, **kwargs):
        saved["model"] = model
        return save(model, path, *args, **kwargs)

    persist.save = keep_model

    extra: dict = {}
    body = lambda: stage_body(w, stage, work, extra)  # noqa: E731
    if tracer is not None:
        body = tracer.wrap(tracing.ROOT, body)
    w0, c0 = time.perf_counter(), time.process_time()
    body()
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"stage": stage, "cpu_s": cpu, "wall_s": wall,
              "start_cpu_s": start_cpu, "peak_rss_mb": peak_mb}
    if tracer is not None:
        # summarised before the untimed work below adds spans of its own
        result["start_scipy_s"] = timer.cpu_s
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
    persist.save = save
    result["failures"] = after_stage(w, stage, work, saved, extra)
    result["extra"] = extra
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
