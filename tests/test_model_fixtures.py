"""Model files written by earlier versions of pilid keep loading and
predicting byte for byte, and every format version that `load` reads has
such a file in tests/data (see tests/data/README.md for how each was
made)."""

import hashlib
import urllib.parse
from pathlib import Path

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


def test_v1_pilib_payload_reads_as_the_current_payload(tmp_path):
    lines = (DATA / "v1_pilib.plm").read_text(encoding="utf-8").splitlines()
    assert lines[:1] == ["pilid-model 1"] and lines[2] == "variant pilib"
    payload = "\n".join(lines[3:]) + "\n"
    model = tmp_path / "current.plm"
    model.write_text(f"pilid-model {FORMAT_VERSION}\nchecksum "
                     f"{hashlib.sha256(payload.encode()).hexdigest()}\n"
                     f"{payload}", encoding="utf-8")
    assert predict(model, tmp_path / "p.csv") == \
        (DATA / "v1_pilib.pred.csv").read_bytes()


def test_pilid_training_rewrites_the_current_pilid_fixture(tmp_path):
    """Same-seed PiLiD training still writes trained_pilid.plm byte for
    byte, with the command in tests/data/README.md."""
    out = tmp_path / "pilid.plm"
    assert main(["train", "--data", str(ROWS), "--target", "y",
                 "--epochs", "2", "--mlp", "4-1", "--gammas", "3",
                 "--seed", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "trained_pilid.plm").read_bytes()
