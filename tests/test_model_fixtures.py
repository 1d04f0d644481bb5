"""Model files written by earlier versions of pilid keep loading and
predicting byte for byte, and every format version that `load` reads has
such a file in tests/data (see tests/data/README.md for how each was
made)."""

import hashlib
import urllib.parse
from pathlib import Path

import numpy as np
import pytest

from pilid.cli import main
from pilid.persist import FORMAT_VERSION, PersistError, load, save

DATA = Path(__file__).parent / "data"
ROWS = DATA / "rows.csv"
FIXTURES = sorted(p.stem for p in DATA.glob("v*_*.plm"))


def predict(model_path, out) -> bytes:
    """The prediction file `pilid predict` writes for the fixture rows."""
    assert main(["predict", "--model", str(model_path), "--data", str(ROWS),
                 "--out", str(out)]) == 0
    return out.read_bytes()


def file_version(path) -> int:
    return int(Path(path).read_text(encoding="utf-8").split("\n", 1)[0]
               .split()[1])


def readable_versions(tmp_path) -> set[int]:
    """The format versions `load` reads, found by probing: a version it
    reads gets as far as the checksum."""
    probe = tmp_path / "probe.plm"
    versions = set()
    for v in range(FORMAT_VERSION + 3):
        probe.write_text(f"pilid-model {v}\nchecksum 0\ntask regression\n")
        with pytest.raises(PersistError) as exc:
            load(probe)
        if "unsupported format version" not in str(exc.value):
            versions.add(v)
    return versions


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_predicts_byte_identically(name, tmp_path):
    assert predict(DATA / f"{name}.plm", tmp_path / "p.csv") == \
        (DATA / f"{name}.pred.csv").read_bytes()


def test_every_readable_version_has_a_fixture(tmp_path):
    assert {file_version(DATA / f"{name}.plm") for name in FIXTURES} \
        == readable_versions(tmp_path) == set(range(1, FORMAT_VERSION + 1))


@pytest.mark.parametrize("name", [n for n in FIXTURES
                                  if file_version(DATA / f"{n}.plm")
                                  == FORMAT_VERSION])
def test_current_fixture_is_what_save_writes(name, tmp_path):
    fixture = DATA / f"{name}.plm"
    fingerprint = fixture.read_text(encoding="utf-8").splitlines()[-1]
    again = tmp_path / "again.plm"
    save(load(fixture), again, fingerprint=urllib.parse.unquote(
        fingerprint.split()[1]))
    assert again.read_bytes() == fixture.read_bytes()


def test_v1_pilib_payload_reads_as_a_format_2_payload(tmp_path):
    lines = (DATA / "v1_pilib.plm").read_text(encoding="utf-8").splitlines()
    assert lines[:1] == ["pilid-model 1"] and lines[2] == "variant pilib"
    payload = "\n".join(lines[3:]) + "\n"
    model = tmp_path / "v2.plm"
    model.write_text("pilid-model 2\nchecksum "
                     f"{hashlib.sha256(payload.encode()).hexdigest()}\n"
                     f"{payload}", encoding="utf-8")
    assert predict(model, tmp_path / "p.csv") == \
        (DATA / "v1_pilib.pred.csv").read_bytes()


@pytest.mark.parametrize("kind", ["pilid", "pilib"])
def test_v3_fixture_holds_the_v2_fixture_bit_for_bit(kind):
    old, new = load(DATA / f"v2_{kind}.plm"), load(DATA / f"v3_{kind}.plm")
    # the PiLiB fixture keeps its closed block
    assert len(old.blocks) == len(new.blocks) == (3 if kind == "pilib" else 1)
    assert len(arrays(old)) == len(arrays(new))
    for a, b in zip(arrays(old), arrays(new)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def arrays(model) -> list[np.ndarray]:
    """Every real a model holds, as arrays."""
    out = list(model.points.points) + [model.hard_gates]
    if model.pl is not None:
        out += [model.pl.w, model.pl.b, model.pl.omega,
                np.array([model.pl.w0])]
    for blk in model.blocks:
        out += [*blk.weights, *blk.biases, blk.head_w,
                np.array([blk.head_b])]
    if model.gates is not None:
        out += [model.gates.log_alpha, np.array([model.gates.temperature,
                                                 model.gates.lambda0])]
    return out + ([] if model.train_means is None else [model.train_means])


def without_versions(path) -> list[str]:
    """The lines of a model file but its checksum, with the versions of
    pilid, numpy and BLAS taken out of its fingerprint: they name the
    installation, not the run."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = urllib.parse.unquote(lines[-1].split()[1]).split(" ")
    kept = [f for f in fields if f.split("=")[0] not in
            ("pilid", "numpy", "blas", "blas_version")]
    return lines[:1] + lines[2:-1] + [" ".join(kept)]


def trained(command, tmp_path) -> list[str]:
    """The lines, as `without_versions` gives them, of the file that
    `command`, a training command of tests/data/README.md, writes on the
    fixture rows."""
    out = tmp_path / "trained.plm"
    assert main([*command, "--data", str(ROWS), "--target", "y",
                 "--epochs", "2", "--mlp", "4-1", "--gammas", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    return without_versions(out)


def test_pilid_training_rewrites_the_current_pilid_fixture(tmp_path):
    """Same-seed PiLiD training still writes trained_pilid.plm byte for
    byte, but for the versions its fingerprint records."""
    assert trained(["train"], tmp_path) == \
        without_versions(DATA / "trained_pilid.plm")


def test_pilib_training_rewrites_the_current_pilib_fixture(tmp_path):
    """Same-seed PiLiB training, through both phases and with its blocks
    side by side, still writes trained_pilib.plm byte for byte, but for
    the versions its fingerprint records."""
    assert trained(["train-pilib", "--blocks", "3", "--max-order", "2",
                    "--lr", "0.05"], tmp_path) == \
        without_versions(DATA / "trained_pilib.plm")
