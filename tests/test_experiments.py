"""Each experiment config in experiments/ runs through `pilid trials` on
tiny sizes, twice, to the same full report."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pilid.cli import main
from pilid.metrics_eval import DETAIL_COLUMNS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "experiments").glob("*.cfg"))
HEADER = ",".join(("trial", "seed", "value") + DETAIL_COLUMNS)
TINY = {"m": "3", "n": "300", "epochs": "1"}


def settings(text):
    """The config's key = value lines as a dict, keys spelled with `_`."""
    found = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, value = line.split("=", 1)
            found[key.strip().replace("-", "_")] = value.strip()
    return found


def test_every_scripted_experiment_has_a_config():
    assert {p.stem for p in CONFIGS} >= {
        "hybrid", "mlp", "init_least_squares", "init_gaussian",
        "shape_recovery", "pilib_pairs"}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_config_runs_to_the_same_report(config, tmp_path):
    text = config.read_text()
    assert text.startswith(f"# pilid trials --config experiments/"
                           f"{config.name} --trials ")
    tiny = tmp_path / config.name
    tiny.write_text("".join(line + "\n" for line in text.splitlines()
                            if not settings(line).keys() & TINY.keys())
                    + "".join(f"{k} = {v}\n" for k, v in TINY.items()))
    reports = []
    for run in ("a", "b"):
        report = tmp_path / f"{run}.csv"
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["trials", "--config", str(tiny), "--trials", "2",
                         "--report", str(report)])
        assert code == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]

    lines = [line.split(",") for line in reports[0].decode().splitlines()]
    assert lines[0] == HEADER.split(",")
    assert [cells[0] for cells in lines[1:]] == ["0", "1", "mean", "std"]
    assert all(len(cells) == len(lines[0]) for cells in lines)
    rows = [dict(zip(lines[0], cells)) for cells in lines[1:3]]
    model = settings(text).get("model", "pilid")
    for row in rows:
        assert float(row["value"]) >= 0.0
        assert (row["shape_min"] != "") == (model != "mlp")
        assert (row["shape_mean"] != "") == (model != "mlp")
        assert (row["planted"] != "" and row["active_sets"] != "") == \
            (model == "pilib")
