import csv
import dataclasses
import hashlib
import re
import urllib.parse
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pilid
from pilid.cli import main
from pilid.dataset import Dataset, FeatureSpec
from pilid.persist import (
    FORMAT_VERSION,
    PersistError,
    export_shapes,
    load,
    save,
    write_loss_trace,
)
from pilid.pilib import active_feature_sets, train_pilib
from pilid.pl_component import curve_forward
from pilid import trainer
from pilid.trainer import TrainConfig, model_forward, train

DATA = Path(__file__).parent / "data"


def toy_data(n=150, m=3, seed=0, task="regression"):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, m))
    y = np.sin(3 * rows[:, 0]) + rows[:, 1] ** 2 + 0.05 * rng.normal(0, 1, n)
    if task == "classification":
        y = (y > np.median(y)).astype(float)
    specs = [FeatureSpec(name=f"f{j}", kind="numerical")
             for j in range(m)]
    return Dataset(rows=rows, targets=y, specs=specs, task=task)


@pytest.fixture(scope="module")
def trained_model():
    data = toy_data()
    model, _ = train(data, 4, [6], TrainConfig(epochs=2, batch_size=64, seed=3))
    return model


class TestRoundTrip:
    def test_hybrid_predictions_bit_exact(self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        loaded = load(path)
        X = np.random.default_rng(9).uniform(-0.5, 1.5, (100, 3))
        s0, p0 = model_forward(trained_model, X)
        s1, p1 = model_forward(loaded, X)
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(p0, p1)

    def test_feature_names_survive(self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        assert load(path).feature_names == ["f0", "f1", "f2"]

    def test_awkward_names_round_trip(self, tmp_path):
        data = toy_data(m=2)
        specs = [FeatureSpec(name='a b,"c"\n', kind="numerical"),
                 FeatureSpec(name="ünïcode", kind="numerical")]
        data = Dataset(rows=data.rows[:, :2], targets=data.targets,
                       specs=specs)
        model, _ = train(data, 3, [4], TrainConfig(epochs=1, seed=1))
        path = tmp_path / "model.plm"
        save(model, path)
        assert load(path).feature_names == ['a b,"c"\n', "ünïcode"]

    def test_gated_block_model_bit_exact(self, tmp_path):
        data = toy_data(n=300, m=4, seed=2)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=5)
        model, _ = train_pilib(data, 3, [5], 3, 3, 0.3, cfg)
        path = tmp_path / "model.plm"
        save(model, path)
        loaded = load(path)
        X = np.random.default_rng(10).uniform(0, 1, (100, 4))
        s0, _ = model_forward(model, X)
        s1, _ = model_forward(loaded, X)
        np.testing.assert_array_equal(s0, s1)
        np.testing.assert_array_equal(model.hard_gates, loaded.hard_gates)
        assert loaded.gates.K == model.gates.K

    def test_mlp_only_model(self, tmp_path):
        data = toy_data()
        model, _ = train(data, 3, [4], TrainConfig(epochs=1, seed=1),
                         mlp_only=True)
        path = tmp_path / "m.plm"
        save(model, path)
        loaded = load(path)
        assert loaded.pl is None
        X = np.random.default_rng(4).uniform(0, 1, (20, 3))
        np.testing.assert_array_equal(model_forward(model, X)[0],
                                      model_forward(loaded, X)[0])

    def test_save_is_byte_deterministic(self, trained_model, tmp_path):
        p1, p2 = tmp_path / "a.plm", tmp_path / "b.plm"
        save(trained_model, p1)
        save(trained_model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    def test_truncation_detected(self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.8)])
        with pytest.raises(PersistError, match="checksum"):
            load(path)

    def test_flipped_payload_byte_detected(self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("pl.w "))
        lines[i] = lines[i].replace("0", "1", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="checksum"):
            load(path)

    def test_blank_line_after_the_payload_keeps_the_checksum(
            self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        with path.open("a", encoding="utf-8") as f:
            f.write("\n")
        X = np.random.default_rng(2).uniform(0.0, 1.0, (20, 3))
        np.testing.assert_array_equal(model_forward(load(path), X)[0],
                                      model_forward(trained_model, X)[0])

    def test_checksum_of_a_file_without_payload_lines(self, tmp_path):
        # the checksum of no payload line is that of one newline
        digest = hashlib.sha256(b"\n").hexdigest()
        path = tmp_path / "empty.plm"
        path.write_text(f"pilid-model {FORMAT_VERSION}\nchecksum {digest}\n")
        with pytest.raises(PersistError, match="truncated model file: "
                                               "expected 'task'"):
            load(path)

    def test_future_version_rejected(self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        lines = path.read_text().splitlines()
        lines[0] = f"pilid-model {FORMAT_VERSION + 1}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="version"):
            load(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "junk.plm"
        path.write_text("hello world\n")
        with pytest.raises(PersistError, match="not a model file"):
            load(path)

    def test_bare_magic_line_names_missing_version(self, tmp_path):
        path = tmp_path / "bare.plm"
        path.write_text("pilid-model\n")
        with pytest.raises(PersistError,
                           match=f"{path}: missing format version"):
            load(path)

    def test_checksum_line_without_value(self, tmp_path):
        path = tmp_path / "nosum.plm"
        path.write_text(f"pilid-model {FORMAT_VERSION}\nchecksum \n"
                        "task regression\n")
        with pytest.raises(PersistError, match=f"{path}: missing checksum"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistError, match="cannot read"):
            load(tmp_path / "absent.plm")


def write_payload(path, payload_lines, version=FORMAT_VERSION):
    """A model file of `version` around `payload_lines` with a valid
    checksum."""
    payload = "\n".join(payload_lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"pilid-model {version}\nchecksum {digest}\n{payload}",
                    encoding="utf-8")


def saved_payload(variant, trained_model, path):
    """The payload lines and format version of a model file: a PiLiD or
    PiLiB model saved to `path`, or one of the fixtures `v<format>_<kind>`."""
    if variant.startswith("v"):
        lines = (DATA / f"{variant}.plm").read_text(encoding="utf-8")
        return lines.splitlines()[2:], int(variant[1])
    if variant == "pilid":
        model = trained_model
    else:
        model, _ = train_pilib(toy_data(n=120, seed=4), 3, [4], 2, 3, 0.3,
                               TrainConfig(epochs=1, batch_size=64, seed=2))
    save(model, path, fingerprint="a run")
    return path.read_text(encoding="utf-8").splitlines()[2:], FORMAT_VERSION


VARIANTS = ["pilid", "pilib"] + [f"v{v}_{kind}" for v in (1, 2, 3)
                                  for kind in ("pilid", "pilib")]


class TestValuelessKeys:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_key_without_values_is_rejected(self, variant,
                                                   trained_model, tmp_path):
        path = tmp_path / "model.plm"
        payload, version = saved_payload(variant, trained_model, path)
        # the fingerprint is free text that load does not read; empty is legal
        keyed = [i for i, line in enumerate(payload)
                 if not line.startswith("fingerprint ")]
        assert len(keyed) > 10
        for i in keyed:
            key = payload[i].split()[0]
            write_payload(path, payload[:i] + [key] + payload[i + 1:],
                          version)
            with pytest.raises(PersistError,
                               match=f"^{re.escape(str(path))}: malformed "
                                     f"model file: expected '{key}'"):
                load(path)

    @pytest.mark.parametrize("payload", [
        ["task regression", "features abc"],
        ["task regression", "features 1", "name 0 a",
         "points 0 knots 0x0p+0 0x1p+0", "pl none", "blocks x"],
    ])
    def test_count_that_is_no_integer_names_the_file(self, payload,
                                                     tmp_path):
        path = tmp_path / "model.plm"
        write_payload(path, payload)
        with pytest.raises(PersistError, match=f"^{re.escape(str(path))}: "
                                               "invalid literal for int"):
            load(path)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("edit", ["one value removed", "one value added"])
    def test_every_key_with_a_wrong_value_count_is_rejected(
            self, variant, edit, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        payload, version = saved_payload(variant, trained_model, path)
        keyed = [i for i, line in enumerate(payload)
                 if not line.startswith("fingerprint ")]
        for i in keyed:
            tokens = payload[i].split()
            key = tokens[0]
            # an added value above every knot keeps a points line valid
            tokens = tokens[:-1] if edit == "one value removed" \
                else tokens + [(2.0 ** 30).hex()]
            write_payload(path, payload[:i] + [" ".join(tokens)]
                          + payload[i + 1:], version)
            # a knot count is not stated: the wide weights after it break
            named = "pl.w" if key == "points" else key
            with pytest.raises(PersistError,
                               match=f"malformed model file: expected "
                                     f"'{named}' with"):
                load(path)

    def test_bare_variant_line_through_predict(self, synth_csv, tmp_path,
                                                capsys):
        model_path = tmp_path / "bare.plm"
        write_payload(model_path, ["variant"], version=1)
        assert main(["predict", "--model", str(model_path),
                     "--data", str(synth_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pilid: error: {model_path}: malformed model "
                              "file: expected 'variant'") \
            and err.count("\n") == 1


class TestOneModelLayouts:
    def test_model_without_gate_logits_loads_as_one_open_block(
            self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        lines = path.read_text().splitlines()
        assert lines[2] == "task regression" and "gates.meta none" in lines
        loaded = load(path)
        assert loaded.gates is None and len(loaded.blocks) == 1
        np.testing.assert_array_equal(loaded.hard_gates, np.ones((1, 3)))

    def test_gate_shape_must_match_blocks_and_features(self, tmp_path):
        model, _ = train_pilib(toy_data(n=120, seed=4), 3, [4], 2, 3, 0.3,
                               TrainConfig(epochs=1, batch_size=64, seed=2))
        path = tmp_path / "model.plm"
        save(model, path)
        payload = path.read_text(encoding="utf-8").splitlines()[2:]
        i = next(i for i, line in enumerate(payload)
                 if line.startswith("gates.meta "))
        for b, m in (("1", "3"), ("3", "3"), ("2", "2")):
            tokens = payload[i].split()
            tokens[4:6] = [b, m]
            write_payload(path, payload[:i] + [" ".join(tokens)]
                          + payload[i + 1:])
            with pytest.raises(PersistError, match=f"'gates.meta' gives "
                                                   f"{b} x {m} gates for 2 "
                                                   f"blocks and 3 features"):
                load(path)

    @pytest.mark.parametrize("kind", ["pilid", "mlp_only", "hardened_pilib",
                                      "relaxed_pilib", "two_blocks_no_logits",
                                      "closed_block_no_logits", "no_blocks"])
    def test_every_model_the_class_holds_round_trips(self, kind,
                                                     trained_model, tmp_path):
        assert_round_trip(model_of_kind(kind, trained_model),
                          tmp_path / "model.plm")

    @pytest.mark.parametrize("source", ["pilid", "two_blocks_no_logits",
                                        "no_blocks", "v1_pilid", "v2_pilib",
                                        "v3_pilib"])
    def test_load_stacks_no_block_again(self, source, trained_model,
                                        tmp_path, monkeypatch):
        # the reader hands the model its blocks already side by side, so
        # the model's constructor copies none of them
        path = DATA / f"{source}.plm"
        if not path.exists():
            path = tmp_path / "model.plm"
            save(model_of_kind(source, trained_model), path)
        expected = len(load(path).blocks)
        real_stacked = trainer._stacked

        def stacked(nets, m):
            assert not nets, "a loaded block was stacked again"
            return real_stacked(nets, m)

        monkeypatch.setattr(trainer, "_stacked", stacked)
        assert len(load(path).blocks) == expected

    @pytest.mark.parametrize("differ", ["widths", "activation"])
    def test_blocks_that_differ_in_shape_are_malformed(
            self, differ, trained_model, tmp_path):
        # no writer makes such a file: a model holds its blocks as one
        # network, of one set of widths and one activation
        path = tmp_path / "model.plm"
        save(model_of_kind("two_blocks_no_logits", trained_model), path)
        payload = path.read_text(encoding="utf-8").splitlines()[2:]
        i = next(i for i, line in enumerate(payload)
                 if line.startswith("blk1."))
        if differ == "widths":
            save(train(toy_data(), 4, [5], TrainConfig(epochs=1, seed=2))[0],
                 path)
            other = [line.replace("blk0.", "blk1.", 1) for line in
                     path.read_text(encoding="utf-8").splitlines()
                     if line.startswith("blk0.")]
            payload[i:i + len(other)] = other
        else:
            assert payload[i] == "blk1.meta relu 1"
            payload[i] = "blk1.meta tanh 1"
        write_payload(path, payload)
        with pytest.raises(PersistError, match=f"^{re.escape(str(path))}: "
                                               "malformed model file: the "
                                               "blocks differ in widths or "
                                               "activation$"):
            load(path)


def model_of_kind(kind, pilid_model):
    """One of the models the class holds, built from a trained PiLiD
    model or trained anew."""
    if kind == "pilid":
        return pilid_model
    if kind == "mlp_only":
        return train(toy_data(), 3, [4], TrainConfig(epochs=1, seed=1),
                     mlp_only=True)[0]
    if kind == "two_blocks_no_logits":
        other = train(toy_data(), 4, [6], TrainConfig(epochs=1, seed=2))[0]
        return dataclasses.replace(pilid_model,
                                   blocks=[pilid_model.mlp, other.mlp],
                                   hard_gates=np.array([[1.0, 0.0, 1.0],
                                                        [0.0, 1.0, 1.0]]))
    if kind == "closed_block_no_logits":
        return dataclasses.replace(pilid_model, hard_gates=np.zeros((1, 3)))
    if kind == "no_blocks":
        return dataclasses.replace(pilid_model, blocks=[], hard_gates=None)
    model, _ = train_pilib(toy_data(n=200, seed=4), 3, [4], 3, 2, 0.3,
                           TrainConfig(epochs=1, batch_size=64, seed=2))
    if kind == "relaxed_pilib":
        model.hard_gates = None
    return model


def assert_round_trip(model, path):
    """`model` saves, loads as the same model with the same predictions
    bit for bit, and saves again to the same bytes."""
    save(model, path)
    loaded = load(path)
    X = np.random.default_rng(11).uniform(-0.5, 1.5, (60, model.m))
    for a, b in zip(model_forward(model, X), model_forward(loaded, X)):
        np.testing.assert_array_equal(a, b)
    assert len(loaded.blocks) == len(model.blocks)
    # decoded arrays own writable memory, not the file's read-only bytes
    arrays = [W for blk in loaded.blocks for W in blk.weights]
    if loaded.pl is not None:
        arrays += [loaded.pl.w, loaded.pl.b, loaded.pl.omega]
    assert all(a.flags.writeable for a in arrays)
    assert (loaded.gates is None) == (model.gates is None)
    assert (loaded.hard_gates is None) == (model.hard_gates is None)
    if model.hard_gates is not None:
        np.testing.assert_array_equal(loaded.hard_gates, model.hard_gates)
    again = path.with_suffix(".again")
    save(loaded, again)
    assert again.read_bytes() == path.read_bytes()


class TestExports:
    def test_shapes_csv_layout(self, trained_model, tmp_path):
        csv_path = export_shapes(trained_model, tmp_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "feature,point_index,x,u"
        # 3 features, gamma=4 each: 5 knots per curve
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[3]) == 0.0  # anchored at zero

    def test_shapes_export_byte_deterministic(self, trained_model, tmp_path):
        a = export_shapes(trained_model, tmp_path / "a")
        b = export_shapes(trained_model, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_svg_written(self, trained_model, tmp_path):
        export_shapes(trained_model, tmp_path, svg=True)
        for j in range(3):
            svg = (tmp_path / f"shape_{j}.svg").read_text()
            assert svg.startswith("<svg") and "polyline" in svg

    def test_svg_escapes_feature_names(self, tmp_path):
        # XML cannot hold the C0 controls but tab, LF and CR, even escaped:
        # the title shows them as U+FFFD
        names = ["c<d", "a&b \"q\" 'r' >", "a\x01b\x1fc\td\x00"]
        titles = names[:2] + ["a\ufffdb\ufffdc\td\ufffd"]
        data = toy_data(m=3)
        data = Dataset(rows=data.rows, targets=data.targets,
                       specs=[FeatureSpec(n, "numerical") for n in names])
        model, _ = train(data, 3, [4], TrainConfig(epochs=1, seed=1))
        export_shapes(model, tmp_path, svg=True)
        for j, name in enumerate(titles):
            root = ET.parse(tmp_path / f"shape_{j}.svg").getroot()
            title = next(root.iter("{http://www.w3.org/2000/svg}text"))
            assert title.text == name

    def test_loss_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace([0.5, 0.25], path)
        assert path.read_text() == f"epoch,loss\n1,{0.5!r}\n2,{0.25!r}\n"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def synth_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = run_cli("synth", "--m", "3", "--n", "300", "--seed", "2",
                   "--out", str(out))
    assert code == 0
    return out


class TestCli:
    def test_synth_writes_csv(self, synth_csv):
        lines = synth_csv.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,x3,y"
        assert len(lines) == 301

    def test_train_predict_eval_happy_path(self, synth_csv, tmp_path, capsys):
        model_path = tmp_path / "model.plm"
        trace_path = tmp_path / "trace.csv"
        code = run_cli("train", "--data", str(synth_csv), "--target", "y",
                       "--seed", "3", "--gammas", "4", "--mlp", "8-1",
                       "--epochs", "3", "--batch", "64",
                       "--out", str(model_path), "--trace-out", str(trace_path))
        assert code == 0
        assert model_path.exists()
        assert trace_path.read_text().startswith("epoch,loss")

        pred_path = tmp_path / "pred.csv"
        code = run_cli("predict", "--model", str(model_path),
                       "--data", str(synth_csv), "--out", str(pred_path))
        assert code == 0
        pred_lines = pred_path.read_text().strip().splitlines()
        assert pred_lines[0] == "prediction"
        assert len(pred_lines) == 301

        code = run_cli("eval", "--model", str(model_path),
                       "--data", str(synth_csv), "--target", "y")
        assert code == 0
        out = capsys.readouterr().out
        assert "mse " in out

    def test_train_is_deterministic(self, synth_csv, tmp_path):
        p1, p2 = tmp_path / "a.plm", tmp_path / "b.plm"
        for p in (p1, p2):
            assert run_cli("train", "--data", str(synth_csv), "--target", "y",
                           "--seed", "7", "--epochs", "2", "--mlp", "6-1",
                           "--out", str(p)) == 0
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == \
            hashlib.sha256(p2.read_bytes()).hexdigest()

    @pytest.mark.parametrize("command", ["train", "train-pilib"])
    def test_fingerprint_records_the_run(self, synth_csv, tmp_path, command):
        out = tmp_path / "m.plm"
        assert run_cli(command, "--data", str(synth_csv), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1", "--seed", "5",
                       "--split", "0.5", "--out", str(out)) == 0
        key, value = out.read_text(encoding="utf-8").splitlines()[-1].split()
        assert key == "fingerprint"
        config, fields = urllib.parse.unquote(value).split(") ", 1)
        assert config + ")" == repr(TrainConfig(epochs=1, seed=5))
        # every row of the file, the held-out half too
        mat = np.loadtxt(synth_csv, delimiter=",", skiprows=1)
        digest = hashlib.sha256(mat[:, :-1].tobytes() + mat[:, -1].tobytes())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert dict(f.split("=", 1) for f in fields.split(" ")) == {
            "rows": "300", "data_sha256": digest.hexdigest(),
            "pilid": pilid.__version__, "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"]}

    def test_missing_required_flag_exits_2(self):
        assert run_cli("train", "--target", "y", "--out", "x.plm") == 2

    def test_unknown_subcommand_exits_2(self):
        assert run_cli("explode") == 2

    def test_predict_schema_mismatch_names_column(self, synth_csv, tmp_path,
                                                  capsys):
        model_path = tmp_path / "model.plm"
        assert run_cli("train", "--data", str(synth_csv), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1",
                       "--out", str(model_path)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,z\n0.1,0.2,0.3\n")
        code = run_cli("predict", "--model", str(model_path),
                       "--data", str(bad), "--out", str(tmp_path / "p.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert "pilid: error:" in err and "'x3'" in err

    def test_predict_bare_model_header_exits_1(self, synth_csv, tmp_path,
                                               capsys):
        model_path = tmp_path / "bare.plm"
        model_path.write_text("pilid-model\n")
        assert run_cli("predict", "--model", str(model_path),
                       "--data", str(synth_csv)) == 1
        assert capsys.readouterr().err == \
            f"pilid: error: {model_path}: missing format version\n"

    def test_predict_empty_csv_exits_1(self, synth_csv, tmp_path, capsys):
        model_path = tmp_path / "model.plm"
        assert run_cli("train", "--data", str(synth_csv), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1",
                       "--out", str(model_path)) == 0
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model_path),
                       "--data", str(empty)) == 1
        assert capsys.readouterr().err == f"pilid: error: {empty}: empty file\n"

    @pytest.mark.parametrize("header,message", [
        ("a,a,y", "duplicate column name 'a'"),
        ("a, a ,y", "duplicate column name 'a'"),
        (",b,y", "column 1 has an empty name"),
        ("a, ,y", "column 2 has an empty name"),
    ])
    def test_train_bad_header_exits_1(self, header, message, tmp_path,
                                      capsys):
        data = tmp_path / "bad.csv"
        rows = [f"{0.1 * i},{1.0 - 0.1 * i},{0.5 * i}" for i in range(8)]
        data.write_text(header + "\n" + "\n".join(rows) + "\n")
        code = run_cli("train", "--data", str(data), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1",
                       "--out", str(tmp_path / "m.plm"))
        assert code == 1
        assert capsys.readouterr().err == f"pilid: error: {data}: {message}\n"

    @pytest.mark.parametrize("header,message", [
        ("x1,x2,x3,x1", "duplicate column name 'x1'"),
        ("x1,x2,x3,", "column 4 has an empty name"),
    ])
    def test_predict_bad_header_exits_1(self, header, message, synth_csv,
                                        tmp_path, capsys):
        model_path = tmp_path / "model.plm"
        assert run_cli("train", "--data", str(synth_csv), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1",
                       "--out", str(model_path)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n0.1,0.2,0.3,0.4\n")
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model_path),
                       "--data", str(bad)) == 1
        assert capsys.readouterr().err == f"pilid: error: {bad}: {message}\n"

    @pytest.mark.parametrize("cell,shown", [("nan", "nan"), ("NaN", "nan"),
                                            ("inf", "inf"), ("-inf", "-inf"),
                                            ("Infinity", "inf")])
    def test_train_non_finite_cell_exits_1(self, cell, shown, tmp_path,
                                           capsys):
        data = tmp_path / "bad.csv"
        rows = [f"{0.1 * i},{1.0 - 0.1 * i},{0.5 * i}" for i in range(8)]
        rows[1] = f"{cell},0.9,0.5"
        data.write_text("a,b,y\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--data", str(data), "--target", "y",
                           "--epochs", "1", "--mlp", "4-1",
                           "--out", str(tmp_path / "m.plm"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"pilid: error: {data}: non-finite value '{shown}' at line 3, "
            "column 'a'\n")
        assert caught == []

    def test_predict_non_finite_cell_exits_1(self, synth_csv, tmp_path,
                                             capsys):
        model_path = tmp_path / "model.plm"
        assert run_cli("train", "--data", str(synth_csv), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1",
                       "--out", str(model_path)) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("x3,x1,x2\n0.1,0.2,0.3\n0.1,0.2,0.3\n0.4,-inf,0.5\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("predict", "--model", str(model_path),
                           "--data", str(bad))
        assert code == 1
        assert capsys.readouterr().err == (
            f"pilid: error: {bad}: non-finite value '-inf' at line 4, "
            "column 'x1'\n")
        assert caught == []

    def test_bad_data_file_exits_1(self, tmp_path, capsys):
        code = run_cli("train", "--data", str(tmp_path / "none.csv"),
                       "--target", "y", "--out", str(tmp_path / "m.plm"))
        assert code == 1
        assert "pilid: error:" in capsys.readouterr().err

    def test_export_shapes_subcommand(self, synth_csv, tmp_path):
        model_path = tmp_path / "model.plm"
        assert run_cli("train", "--data", str(synth_csv), "--target", "y",
                       "--epochs", "1", "--mlp", "4-1",
                       "--out", str(model_path)) == 0
        out_dir = tmp_path / "shapes"
        assert run_cli("export-shapes", "--model", str(model_path),
                       "--out-dir", str(out_dir), "--svg") == 0
        assert (out_dir / "shapes.csv").exists()
        assert (out_dir / "shape_0.svg").exists()

    def test_train_pilib_and_export_interactions(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.uniform(0, 1, (400, 4))
        y = rows[:, 0] + 1.5 * rows[:, 1] * rows[:, 2] \
            + 0.05 * rng.normal(0, 1, 400)
        csv_path = tmp_path / "inter.csv"
        lines = ["a,b,c,d,y"]
        for r, yi in zip(rows, y):
            lines.append(",".join(repr(float(v)) for v in r)
                         + f",{float(yi)!r}")
        csv_path.write_text("\n".join(lines) + "\n")

        model_path = tmp_path / "pilib.plm"
        diag_path = tmp_path / "diag.csv"
        code = run_cli("train-pilib", "--data", str(csv_path), "--target", "y",
                       "--seed", "2", "--epochs", "2", "--mlp", "6-1",
                       "--blocks", "3", "--max-order", "3",
                       "--lambda0", "0.3", "--batch", "128",
                       "--out", str(model_path),
                       "--diagnostics-out", str(diag_path))
        assert code == 0
        assert diag_path.read_text().startswith("block,order,features")

        surf_path = tmp_path / "surface.csv"
        assert run_cli("export-interactions", "--model", str(model_path),
                       "--features", "1,2", "--grid", "5",
                       "--out", str(surf_path)) == 0
        surf_lines = surf_path.read_text().strip().splitlines()
        assert len(surf_lines) == 6    # header + 5 grid rows

    def test_train_pilib_with_every_block_closed(self, synth_csv, tmp_path,
                                                 capsys):
        # a strong pairwise pressure closes every gate: the file holds no
        # block, and predicts its wide component alone
        model_path, diag_path = tmp_path / "m.plm", tmp_path / "diag.csv"
        assert run_cli("train-pilib", "--data", str(synth_csv), "--target",
                       "y", "--epochs", "1", "--mlp", "4-1", "--blocks", "3",
                       "--max-order", "1", "--lambda0", "100", "--lr", "0.5",
                       "--out", str(model_path),
                       "--diagnostics-out", str(diag_path)) == 0
        assert "max interaction order 0" in capsys.readouterr().out
        assert diag_path.read_text() == "block,order,features\n"
        model = load(model_path)
        assert len(model.blocks) == 0 and model.gates.B == 0
        X = np.random.default_rng(3).uniform(-0.5, 1.5, (50, 3))
        np.testing.assert_array_equal(model_forward(model, X)[0],
                                      curve_forward(X, model.pl, model.points))

    def test_diagnostics_csv_reads_back_awkward_names(self, tmp_path):
        names = ["a,b", 'c "d"', "e"]
        rng = np.random.default_rng(1)
        rows = rng.uniform(0, 1, (200, 3))
        y = rows[:, 0] * rows[:, 1] + rows[:, 2]
        csv_path = tmp_path / "named.csv"
        with open(csv_path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(names + ["y"])
            out.writerows(np.column_stack([rows, y]).tolist())
        model_path, diag_path = tmp_path / "m.plm", tmp_path / "diag.csv"
        assert run_cli("train-pilib", "--data", str(csv_path), "--target", "y",
                       "--epochs", "2", "--mlp", "4-1", "--blocks", "3",
                       "--lambda0", "0", "--out", str(model_path),
                       "--diagnostics-out", str(diag_path)) == 0
        with open(diag_path, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        sets = active_feature_sets(load(model_path))
        assert any(len(s) > 1 for s in sets)
        assert table == [["block", "order", "features"]] + [
            [str(i), str(len(s)), ";".join(names[j] for j in s)]
            for i, s in enumerate(sets)]

    def test_trials_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 3\nn = 400\nepochs = 2\nbatch = 128\n"
                       "mlp = 6-1\ngammas = 3\nseed = 1\n")
        report = tmp_path / "report.csv"
        assert run_cli("trials", "--config", str(cfg), "--trials", "2",
                       "--report", str(report)) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == ("trial,seed,value,shape_min,shape_mean,"
                            "planted,active_sets,pair_coverage,"
                            "phase1_epochs,capped")
        assert lines[-1].startswith("std,")
        assert "mean" in capsys.readouterr().out

    def test_bad_config_line_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m 3\n")
        assert run_cli("trials", "--config", str(cfg),
                       "--report", str(tmp_path / "r.csv")) == 1
        assert "key = value" in capsys.readouterr().err
