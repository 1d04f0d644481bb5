import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from pilid.cli import main
from pilid.dataset import Dataset, FeatureSpec
from pilid.persist import (
    PersistError,
    export_shapes,
    load,
    save,
    write_loss_trace,
)
from pilid.pilib import train_pilib
from pilid.trainer import TrainConfig, model_forward, train


def toy_data(n=150, m=3, seed=0, task="regression"):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0, 1, (n, m))
    y = np.sin(3 * rows[:, 0]) + rows[:, 1] ** 2 + 0.05 * rng.normal(0, 1, n)
    if task == "classification":
        y = (y > np.median(y)).astype(float)
    specs = [FeatureSpec(name=f"f{j}", kind="numerical",
                         alpha=rows[:, j].min(), beta=rows[:, j].max())
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
        specs = [FeatureSpec(name='a b,"c"\n', kind="numerical",
                             alpha=0.0, beta=1.0),
                 FeatureSpec(name="ünïcode", kind="numerical",
                             alpha=0.0, beta=1.0)]
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
        lines[5] = lines[5].replace("0", "1", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="checksum"):
            load(path)

    def test_future_version_rejected(self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        lines = path.read_text().splitlines()
        lines[0] = "pilid-model 2"
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
        path.write_text("pilid-model 1\nchecksum \nvariant pilid\n")
        with pytest.raises(PersistError, match=f"{path}: missing checksum"):
            load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistError, match="cannot read"):
            load(tmp_path / "absent.plm")


def write_payload(path, payload_lines):
    """A model file around `payload_lines` with a valid checksum."""
    payload = "\n".join(payload_lines) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"pilid-model 1\nchecksum {digest}\n{payload}",
                    encoding="utf-8")


class TestValuelessKeys:
    @pytest.mark.parametrize("variant", ["pilid", "pilib"])
    def test_every_key_without_values_is_rejected(self, variant,
                                                   trained_model, tmp_path):
        if variant == "pilid":
            model = trained_model
        else:
            model, _ = train_pilib(toy_data(n=120, seed=4), 3, [4], 2, 3, 0.3,
                                   TrainConfig(epochs=1, batch_size=64, seed=2))
        path = tmp_path / "model.plm"
        save(model, path, fingerprint="a run")
        payload = path.read_text(encoding="utf-8").splitlines()[2:]
        # the fingerprint is free text that load does not read; empty is legal
        keyed = [i for i, line in enumerate(payload)
                 if not line.startswith("fingerprint ")]
        assert len(keyed) > 10
        for i in keyed:
            key = payload[i].split()[0]
            write_payload(path, payload[:i] + [key] + payload[i + 1:])
            with pytest.raises(PersistError,
                               match=f"malformed model file: expected '{key}'"):
                load(path)

    @pytest.mark.parametrize("variant", ["pilid", "pilib"])
    @pytest.mark.parametrize("edit", ["one value removed", "one value added"])
    def test_every_key_with_a_wrong_value_count_is_rejected(
            self, variant, edit, trained_model, tmp_path):
        if variant == "pilid":
            model = trained_model
        else:
            model, _ = train_pilib(toy_data(n=120, seed=4), 3, [4], 2, 3, 0.3,
                                   TrainConfig(epochs=1, batch_size=64, seed=2))
        path = tmp_path / "model.plm"
        save(model, path, fingerprint="a run")
        payload = path.read_text(encoding="utf-8").splitlines()[2:]
        keyed = [i for i, line in enumerate(payload)
                 if not line.startswith("fingerprint ")]
        for i in keyed:
            tokens = payload[i].split()
            key = tokens[0]
            # an added value above every knot keeps a points line valid
            tokens = tokens[:-1] if edit == "one value removed" \
                else tokens + [(2.0 ** 30).hex()]
            write_payload(path, payload[:i] + [" ".join(tokens)]
                          + payload[i + 1:])
            # a knot count is not stated: the wide weights after it break
            named = "pl.w" if key == "points" else key
            with pytest.raises(PersistError,
                               match=f"malformed model file: expected "
                                     f"'{named}' with"):
                load(path)

    def test_bare_variant_line_through_predict(self, synth_csv, tmp_path,
                                                capsys):
        model_path = tmp_path / "bare.plm"
        write_payload(model_path, ["variant"])
        assert main(["predict", "--model", str(model_path),
                     "--data", str(synth_csv)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pilid: error: malformed model file: expected "
                              "'variant'") and err.count("\n") == 1


class TestOneModelLayouts:
    def test_model_without_gate_logits_loads_as_one_open_block(
            self, trained_model, tmp_path):
        path = tmp_path / "model.plm"
        save(trained_model, path)
        assert path.read_text().splitlines()[2] == "variant pilid"
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

    def test_several_blocks_without_gate_logits_are_not_written(
            self, trained_model, tmp_path):
        two = dataclasses.replace(trained_model,
                                  blocks=[trained_model.mlp] * 2,
                                  hard_gates=np.ones((2, 3)))
        with pytest.raises(PersistError, match="one block"):
            save(two, tmp_path / "model.plm")
        closed = dataclasses.replace(trained_model,
                                     hard_gates=np.zeros((1, 3)))
        with pytest.raises(PersistError, match="every gate open"):
            save(closed, tmp_path / "model.plm")


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

    def test_trials_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 3\nn = 400\nepochs = 2\nbatch = 128\n"
                       "mlp = 6-1\ngammas = 3\nseed = 1\n")
        report = tmp_path / "report.csv"
        assert run_cli("trials", "--config", str(cfg), "--trials", "2",
                       "--report", str(report)) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "trial,seed,value"
        assert lines[-1].startswith("std,")
        assert "mean" in capsys.readouterr().out

    def test_bad_config_line_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m 3\n")
        assert run_cli("trials", "--config", str(cfg),
                       "--report", str(tmp_path / "r.csv")) == 1
        assert "key = value" in capsys.readouterr().err
