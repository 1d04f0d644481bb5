"""The benchmark's workloads: sizes and the program settings each uses.

Every round of a workload runs three stages, each in a fresh process:
train (input to written model file), predict (model file to written
predictions) and shapes (model file to exported shape curves).
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("train", "predict", "shapes")

# The training seed is fixed, so runs with different --seed values differ
# only in the data drawn.  With a varying training seed the number of
# PiLiB phase-1 epochs, and with it the training time, moved with the seed.
TRAIN_SEED = 1

# Library workloads split their arrays with dataset.split at this fraction,
# as `pilid train` does with its default --split.
TRAIN_FRACTION = 0.8

# pilib_b20 trains on this one draw whatever the seed; its scoring rows
# still come from the seed.  How many epochs phase 1 needs before every
# block's order is <= K depends on the training draw (3, 4 or 5 over 30
# draws), and that alone moved train_s by up to 40% from seed to seed.
FIXED_TRAINING_DRAW = 0

# Rows of the scoring draw whose in-memory predictions are kept after
# training and compared bit for bit with the predictions from the file.
PROBE_ROWS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "cli" | "pilib" | "deep"
    n_rows: int                 # rows drawn for training, before the split
    n_score: int                # fresh rows scored by the predict stage
    gammas: int
    widths: str                 # network (or block) architecture
    epochs: int
    blocks: int = 0
    max_order: int = 0
    lambda0: float = 0.0
    fixed_training_draw: bool = False
    surface_pair: tuple[int, int] = (0, 1)
    surface_grid: int = 25
    r2_floor: float = 0.0
    shape_corr_floor: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload("cli_csv_100k", "cli", n_rows=100_000, n_score=100_000,
             gammas=5, widths="32-32-1", epochs=3,
             r2_floor=0.95, shape_corr_floor=0.7),
    Workload("pilib_b20", "pilib", n_rows=25_000, n_score=100_000,
             gammas=50, widths="8-8-1", epochs=3, blocks=20, max_order=3,
             lambda0=0.003, fixed_training_draw=True,
             r2_floor=0.75, shape_corr_floor=0.7),
    Workload("deep_ref_20k", "deep", n_rows=25_000, n_score=50_000,
             gammas=5, widths="100-200-400-400-200-100-1", epochs=2,
             r2_floor=0.75, shape_corr_floor=0.7),
)}
