"""Benchmark of pilid: train, predict and shape export, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command draws the workload's inputs
from the seed, then runs whole rounds (train, predict, shapes; each stage
in a fresh process with one BLAS thread) until S seconds have passed,
checks every output, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 each step runs an
untraced round and a traced round, and the metrics are the per-layer ones
of the traced rounds.  A record of the run (environment, every round's
raw figures) is written to .bench_out/results/.  See bench/README.md.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Set before numpy loads BLAS here; the stage processes inherit it.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import FIXED_TRAINING_DRAW, STAGES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Set up at least 3 times, and until 1 s of CPU is spent (at most 25).
SETUP_MIN, SETUP_CPU_S, SETUP_MAX = 3, 1.0, 25
RUN_LIMIT_S = 170.0        # the whole command, stage timeouts included
STAGE_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s", "start_s": "s", "train_s": "s", "predict_s": "s",
    "pipeline_s": "s", "train_peak_rss_mb": "MB", "predict_peak_rss_mb": "MB",
    "heldout_r2": "ratio", "shape_corr": "ratio",
}
# Layers whose call counts are reported beside their self time.
CALLS = ("pl_component.linear_forward", "mlp_component.mlp_forward",
         "mlp_component.mlp_backward", "trainer.loss_and_grads",
         "trainer.Adam.step")
SPAN_NAMES = [f"{m}.{a}" for m, a in tracing.LAYER_FUNCTIONS] + \
    ["trainer.Adam.step", tracing.ROOT]
COUNTERS = {"dataset.load_csv.rows": "count",
            "encoding.encode_matrix.rows": "count",
            "encoding.encode_matrix.out_mb": "MB",
            "mlp_component.mlp_forward.cache_mb": "MB"}


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "start.scipy_stats_s": "s", "start.pilid_s": "s",
    **{f"{n}.self_s": "s" for n in SPAN_NAMES},
    **{f"{n}.calls": "count" for n in CALLS},
    **COUNTERS,
    "pilib.phase1_epochs": "count", "pilib.active_blocks": "count",
    "persist.model_bytes": "bytes", "host.ref_s": "s", "trace.overhead_s": "s",
}


class HostRef:
    """A fixed kernel of the benchmark's own, timed before every stage to
    show how fast the host runs: parsing reals in Python, many small numpy
    calls, elementwise passes over an 8 MB array and small matmuls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.text = [repr(float(v)) for v in rng.uniform(size=40_000)]
        self.small = rng.uniform(size=(256, 10))
        self.weights = rng.uniform(size=(8, 10))
        self.big = rng.uniform(size=1_000_000)
        self.square = np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)
        self.samples: list[float] = []
        self._kernel()              # the first pass runs cold; not kept

    def sample(self) -> None:
        self.samples.append(self._kernel())

    def _kernel(self) -> float:
        t0 = time.process_time()
        sum(float(s) for s in self.text)
        for _ in range(200):
            np.maximum(self.small @ self.weights.T, 0.0).sum(axis=0)
        for _ in range(3):
            np.clip(self.big * 1.5 - 0.2, 0.0, 1.0).sum()
        a = self.square
        for _ in range(4):
            a = np.tanh(a @ a)
        return time.process_time() - t0


def setup(w, seed: int, work: Path) -> np.ndarray:
    """Draw and write the workload's inputs; return the scoring targets."""
    X, y = inputs.draw(w.n_rows, FIXED_TRAINING_DRAW
                       if w.fixed_training_draw else seed, 0)
    Xs, ys = inputs.draw(w.n_score, seed, 1)
    if w.kind == "cli":
        inputs.write_csv(work / "train.csv", X, y)
        inputs.write_csv(work / "score.csv", Xs, None)
    else:
        np.save(work / "train_X.npy", X)
        np.save(work / "train_y.npy", y)
    np.save(work / "score_X.npy", Xs)
    return ys


def run_stage(w, stage: str, work: Path, trace: bool, deadline: float):
    """Run one stage process; returns its result, or None if it failed."""
    path = work / f"{stage}.json"
    path.unlink(missing_ok=True)
    timeout = min(STAGE_TIMEOUT_S, deadline - time.perf_counter())
    cmd = [sys.executable, str(HERE / "stage.py"), w.name, stage, str(work),
           "1" if trace else "0", str(path)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"bench: {stage} stage timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not path.exists():
        print(f"bench: {stage} stage exited with {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(path.read_text())
    result["process_wall_s"] = time.perf_counter() - t0
    return result


def read_predictions(w, work: Path) -> np.ndarray:
    if w.kind == "cli":
        lines = (work / "preds.csv").read_text().split()
        if not lines or lines[0] != "prediction":
            return np.zeros(0)
        return np.array([float(v) for v in lines[1:]])
    return np.load(work / "preds.npy")


def check_round(w, work: Path, res: dict, ys: np.ndarray, first: dict | None):
    """Check one round's outputs; returns (facts, failures)."""
    fails = [f"{s}: {msg}" for s in STAGES for msg in res[s]["failures"]]
    pred = read_predictions(w, work)
    fails += checks.predictions(pred, w.n_score)
    facts = {"pred_digest": checks.digest(pred)}
    if not fails:
        facts["heldout_r2"] = checks.r2(pred, ys)
        fails += checks.at_least("heldout_r2", facts["heldout_r2"], w.r2_floor)
    fails += checks.identical(np.load(work / "probe_mem.npy"),
                              np.load(work / "probe_file.npy"),
                              "predictions after save and load")
    corrs = checks.shape_correlations(checks.parse_shapes(
        (work / "shapes" / "shapes.csv").read_text()))
    scored = checks.additive_features(
        res["train"]["extra"].get("active_sets", []))
    facts["shape_corr"] = float(np.mean([corrs[j] for j in scored]))
    facts["shape_corrs"] = corrs
    fails += checks.shapes(corrs, scored, w.shape_corr_floor)
    fails += checks.loss_trace(res["train"]["extra"]["loss_trace"],
                               must_fall=w.kind == "deep")
    if w.kind == "pilib" and res["train"]["extra"]["capped"]:
        fails.append("phase 1 hit its epoch cap")
    if first is not None and facts["pred_digest"] != first["pred_digest"]:
        fails.append("predictions differ from the first round's")
    facts["model_bytes"] = (work / "model.plm").stat().st_size
    return facts, fails


def layer_figures(res: dict, facts: dict) -> dict[str, float]:
    """Per-layer figures of one traced round: sums over its stages."""
    out = {name: 0.0 for name in PER_LAYER}
    for r in res.values():
        for name, agg in r["spans"].items():
            out[f"{name}.self_s"] += agg["self_s"]
            if name in CALLS:
                out[f"{name}.calls"] += agg["calls"]
        for name, value in r["counters"].items():
            out[name] += value
    out["start.scipy_stats_s"] = statistics.median(
        r["start_scipy_s"] for r in res.values())
    out["start.pilid_s"] = statistics.median(
        r["start_cpu_s"] - r["start_scipy_s"] for r in res.values())
    extra = res["train"]["extra"]
    out["pilib.phase1_epochs"] = extra.get("phase1_epochs", 0)
    out["pilib.active_blocks"] = len(extra.get("active_sets", []))
    out["persist.model_bytes"] = facts["model_bytes"]
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None      # asked of the OpenBLAS a numpy wheel bundles
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "pilid").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": threads},
            "thread_env": THREAD_ENV}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pilid" / "__init__.py").is_file():
        print(f"bench: no program at {ROOT / 'src' / 'pilid'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    work = OUT / "work" / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = run(w, args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment()
    record["wall_s"] = time.perf_counter() - t_begin
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for msg in record["failures"]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      "rounds": len(record["rounds"])}))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(w, args, work: Path, deadline: float) -> dict:
    setups = []
    while len(setups) < SETUP_MIN or \
            (sum(setups) < SETUP_CPU_S and len(setups) < SETUP_MAX):
        t0 = time.process_time()
        ys = setup(w, args.seed, work)
        setups.append(time.process_time() - t0)

    ref = HostRef()
    rounds, traced, failures = [], [], []
    attempted = failed = 0
    first = None
    t_start = time.perf_counter()
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            res = {}
            for stage in STAGES:
                ref.sample()
                attempted += 1
                r = run_stage(w, stage, work, trace, deadline) \
                    if len(res) == STAGES.index(stage) else None
                if r is None:
                    failed += 1
                else:
                    res[stage] = r
            if len(res) < len(STAGES):
                continue
            facts, fails = check_round(w, work, res, ys, first)
            first = first or facts
            failures += fails
            figures = {
                "train_s": res["train"]["cpu_s"],
                "predict_s": res["predict"]["cpu_s"],
                "pipeline_s": sum(r["cpu_s"] for r in res.values()),
                "train_peak_rss_mb": res["train"]["peak_rss_mb"],
                "predict_peak_rss_mb": res["predict"]["peak_rss_mb"],
                "starts": [r["start_cpu_s"] for r in res.values()],
                "wall_s": {s: r["wall_s"] for s, r in res.items()},
                "process_wall_s": {s: r["process_wall_s"]
                                   for s, r in res.items()},
                "shape_corrs": facts["shape_corrs"],
                **{k: facts.get(k) for k in ("heldout_r2", "shape_corr")},
            }
            if trace:
                figures["layers"] = layer_figures(res, facts)
                figures["traced_stage_s"] = sum(
                    r["spans"][tracing.ROOT]["total_s"] for r in res.values())
                figures["overhead_s"] = figures["pipeline_s"] - \
                    rounds[-1]["pipeline_s"] if rounds else None
            (traced if trace else rounds).append(figures)
        if time.perf_counter() - t_start >= args.seconds or \
                time.perf_counter() > deadline - 60.0:
            break
    ref.sample()

    def med(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": med([t["layers"][name] for t in traced]),
                             "unit": unit}
        metrics["host.ref_s"]["value"] = med(ref.samples)
        metrics["trace.overhead_s"]["value"] = \
            med([t["overhead_s"] for t in traced])
    else:
        values = {"setup_s": med(setups),
                  "start_s": med([s for r in rounds for s in r["starts"]])}
        metrics = {k: {"value": values[k] if k in values else
                       med([r[k] for r in rounds]), "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": not failures and bool(rounds), "attempted": attempted,
            "failed": failed, "metrics": metrics, "failures": failures,
            "setup_s": setups,
            "host_ref_s": ref.samples, "rounds": rounds,
            "traced_rounds": traced}


if __name__ == "__main__":
    sys.exit(main())
