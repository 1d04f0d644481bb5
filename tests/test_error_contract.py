"""A bad input of any kind, a damaged model file or a ragged or garbled
CSV, ends in exit code 1 and one `pilid: error:` line that names the file:
never a traceback, a warning or a message without the path."""

import base64
import hashlib
import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pilid import dataset, metrics_eval, persist, trainer
from pilid.cli import main

N_ROWS = 30
DATA = Path(__file__).parent / "data"
FIXTURES = [f"v{v}_{kind}" for v in (1, 2, 3) for kind in ("pilid", "pilib")]


def run(*argv):
    """Exit code, stderr and warnings of one `pilid` command."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue(), caught


def assert_one_error_naming(path, code, err, caught):
    assert code == 1, err
    assert err.startswith("pilid: error: ") and err.count("\n") == 1, err
    assert str(path) in err, err
    assert caught == []


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small CSV, a PiLiD and a PiLiB model trained on it, and each
    model's predictions on it; also the fixtures of every format, each with
    the CSV it predicts and its predictions, keyed `v<format>_<kind>`."""
    d = tmp_path_factory.mktemp("contract")
    data = d / "data.csv"
    assert run("synth", "--m", "2", "--n", N_ROWS, "--seed", 3,
               "--out", data)[0] == 0
    flags = ["--data", data, "--target", "y", "--epochs", 1, "--mlp", "4-1",
             "--gammas", 3]
    assert run("train", *flags, "--out", d / "pilid.plm")[0] == 0
    assert run("train-pilib", *flags, "--blocks", 2,
               "--out", d / "pilib.plm")[0] == 0
    models, preds = {}, {}
    for variant in ("pilid", "pilib"):
        models[variant] = (d / f"{variant}.plm").read_bytes(), data
        assert run("predict", "--model", d / f"{variant}.plm", "--data", data,
                   "--out", d / "p.csv")[0] == 0
        preds[variant] = (d / "p.csv").read_bytes()
    for variant in FIXTURES:
        models[variant] = ((DATA / f"{variant}.plm").read_bytes(),
                           DATA / "rows.csv")
        preds[variant] = (DATA / f"{variant}.pred.csv").read_bytes()
    return d, data, models, preds


@st.composite
def damage(draw, size):
    """A truncation or a one-byte flip of a file of `size` bytes."""
    i = draw(st.integers(0, size - 1))
    if draw(st.booleans()):
        return lambda b: b[:i]
    x = draw(st.integers(1, 255))
    return lambda b: b[:i] + bytes([b[i] ^ x]) + b[i + 1:]


class TestDamagedModelFile:
    @given(variant=st.sampled_from(["pilid", "pilib", *FIXTURES]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejected_or_read_as_the_same_model(self, saved, variant, data):
        d, _, models, preds = saved
        raw, csv_path = models[variant]
        model = d / "damaged.plm"
        out = d / "damaged_pred.csv"
        model.write_bytes(data.draw(damage(len(raw)))(raw))
        out.unlink(missing_ok=True)
        code, err, caught = run("predict", "--model", model,
                                "--data", csv_path, "--out", out)
        if code == 0:
            # The loader reads a file as lines of whitespace-separated
            # tokens, so a flip between line ends (LF to CR) or between
            # whitespace characters, or a cut of the last line end, leaves
            # the model it reads unchanged.
            assert out.read_bytes() == preds[variant]
            assert caught == [] and err == ""
        else:
            assert_one_error_naming(model, code, err, caught)

    def test_invalid_utf8_names_the_file(self, saved, tmp_path):
        _, csv_path, models, _ = saved
        model = tmp_path / "bad.plm"
        raw = bytearray(models["pilid"][0])
        raw[40] = 0xb9
        model.write_bytes(bytes(raw))
        code, err, caught = run("predict", "--model", model,
                                "--data", csv_path)
        assert_one_error_naming(model, code, err, caught)
        assert err == (f"pilid: error: {model}: not a model file "
                       "(invalid UTF-8 at byte 40)\n")



def with_line(fixture, key, edit, path):
    """Fixture `fixture` with the first line of `key` replaced by
    `edit(tokens)`, under a valid checksum, written to `path`."""
    lines = (DATA / f"{fixture}.plm").read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[i] = " ".join(edit(lines[i].split()))
    payload = "\n".join(lines[2:]) + "\n"
    digest = hashlib.sha256(payload.encode()).hexdigest()
    path.write_text(f"{lines[0]}\nchecksum {digest}\n{payload}",
                    encoding="utf-8")
    return path


def float_keys(fixture):
    """The keys of the fixture's lines that hold floats, each once."""
    no_floats = {"pilid-model", "checksum", "variant", "task", "features",
                 "name", "pl", "mlp", "blocks", "fingerprint"}
    keys = []
    for line in (DATA / f"{fixture}.plm").read_text().splitlines():
        key, *values = line.split()
        if not (key in no_floats or key in keys or values == ["none"]
                or key.endswith(".meta") and key != "gates.meta"):
            keys.append(key)
    return keys


FIXTURE_FLOAT_KEYS = [(f, k) for f in FIXTURES for k in float_keys(f)]


def is_base64(fixture, key):
    """Whether the fixture holds the values of `key` in base64: format 3
    does, but for the scalars and knots."""
    return fixture.startswith("v3_") and not (
        key in ("points", "pl.w0", "gates.meta") or key.endswith(".head_b"))


BASE64_KEYS = [k for k in float_keys("v3_pilib") if is_base64("v3_pilib", k)]


def rewrap(token, edit):
    """A base64 token of `edit` of the bytes that `token` encodes."""
    return base64.b64encode(edit(base64.b64decode(token))).decode("ascii")


def with_value(token, at, value):
    """A base64 token of float64 values with the one at `at` set to
    `value`."""
    a = np.frombuffer(base64.b64decode(token), dtype="<f8").copy()
    a[at] = value
    return base64.b64encode(a.tobytes()).decode("ascii")


class TestModelFileValues:
    """A checksum-valid model file whose values the model cannot hold ends
    in one error naming the file, and writes no predictions."""

    def predict_fails(self, model, tmp_path, *message):
        out = tmp_path / "p.csv"
        code, err, caught = run("predict", "--model", model,
                                "--data", DATA / "rows.csv", "--out", out)
        assert_one_error_naming(model, code, err, caught)
        for part in message:
            assert part in err, err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("fixture,key", FIXTURE_FLOAT_KEYS,
                             ids=[f"{f}-{k}" for f, k in FIXTURE_FLOAT_KEYS])
    def test_non_finite_value_names_the_key(self, fixture, key, tmp_path):
        # gates.meta ends in counts; its first value is the temperature
        at = 1 if key == "gates.meta" else -1

        def to_nan(tokens):
            tokens[at] = with_value(tokens[at], 0, np.nan) \
                if is_base64(fixture, key) else "nan"
            return tokens

        model = with_line(fixture, key, to_nan, tmp_path / "m.plm")
        self.predict_fails(model, tmp_path, f"non-finite value in '{key}'")

    @pytest.mark.parametrize("key", BASE64_KEYS)
    @pytest.mark.parametrize("damage,message", [
        (lambda t: t[0] + "!" + t[2:], "bad base64 encoding"),
        (lambda t: t[:-1], "bad base64 encoding"),
        (lambda t: rewrap(t, lambda raw: raw[:-1]), "bytes, not the"),
        (lambda t: rewrap(t, lambda raw: raw[:-8]), "bytes, not the"),
        (lambda t: with_value(t, 0, np.nan), "non-finite value"),
        (lambda t: with_value(t, -1, -np.inf), "non-finite value"),
    ], ids=["non-alphabet", "padding", "bytes-not-8n", "count-not-shape",
            "nan", "inf"])
    def test_bad_base64_array_names_the_key(self, key, damage, message,
                                            tmp_path):
        def damaged(tokens):
            tokens[-1] = damage(tokens[-1])
            return tokens

        model = with_line("v3_pilib", key, damaged, tmp_path / "m.plm")
        err = self.predict_fails(model, tmp_path, message, f"'{key}'")
        for text in ("binascii", "padding", "base64 data", "Invalid"):
            assert text not in err, err

    @pytest.mark.parametrize("fixture", ["v1_pilib", "v2_pilib", "v3_pilib"])
    @pytest.mark.parametrize("at,value", [
        (2, "0"), (1, (0.0).hex()), (1, (-1.0).hex()), (3, (-0.5).hex())],
        ids=["K=0", "temperature=0", "temperature<0", "lambda0<0"])
    def test_gate_settings_out_of_range(self, fixture, at, value, tmp_path):
        def set_value(tokens):
            tokens[at] = value
            return tokens

        model = with_line(fixture, "gates.meta", set_value,
                          tmp_path / "m.plm")
        self.predict_fails(model, tmp_path, "need K >= 1, lambda0 >= 0, "
                                            "temperature > 0")

    @pytest.mark.parametrize("fixture", ["v1_pilib", "v2_pilib", "v3_pilib"])
    @pytest.mark.parametrize("at,value", [(1, -3.0), (5, 0.5)])
    def test_hard_gates_other_than_0_and_1(self, fixture, at, value,
                                           tmp_path):
        def set_gate(tokens):
            if is_base64(fixture, "hard_gates"):
                tokens[-1] = with_value(tokens[-1], at - 1, value)
            else:
                tokens[at] = value.hex()
            return tokens

        model = with_line(fixture, "hard_gates", set_gate, tmp_path / "m.plm")
        self.predict_fails(model, tmp_path, "'hard_gates' holds a value "
                                            "other than 0 and 1")

    @pytest.mark.parametrize("fixture", ["v2_pilib", "v3_pilib"])
    def test_negative_matrix_shape_names_the_key(self, fixture, tmp_path):
        def negative(tokens):        # 4 x 3 weights become -4 x -3
            return [tokens[0], "-4", "-3", *tokens[3:]]

        model = with_line(fixture, "blk1.W0", negative, tmp_path / "m.plm")
        self.predict_fails(model, tmp_path, "'blk1.W0' has shape -4 x -3")

    @pytest.mark.parametrize("key,count", [("blocks", "-1"),
                                           ("features", "0"),
                                           ("features", "-1")])
    def test_count_out_of_range_names_the_key(self, key, count, tmp_path):
        model = with_line("v3_pilid", key, lambda tokens: [key, count],
                          tmp_path / "m.plm")
        self.predict_fails(model, tmp_path, "malformed model file: "
                                            f"'{key}' is {count}, below")

    @pytest.mark.parametrize("fixture,key", [("v1_pilid", "mlp.W0"),
                                             ("v2_pilib", "blk1.W0"),
                                             ("v3_pilib", "blk1.W0")])
    def test_block_input_width_must_be_the_feature_count(self, fixture, key,
                                                         tmp_path):
        def two_columns(tokens):     # 4 x 3 weights become 4 x 2
            if is_base64(fixture, key):
                raw = base64.b64decode(tokens[3])[:8 * 8]
                return tokens[:2] + ["2", base64.b64encode(raw).decode()]
            return tokens[:2] + ["2"] + tokens[3:11]

        model = with_line(fixture, key, two_columns, tmp_path / "m.plm")
        self.predict_fails(model, tmp_path,
                           f"'{key}' has 2 columns for 3 features")


GARBAGE = ["", " ", "abc", "#", "#1", "1 2", '"', "--1", "0x1p3", "1e", "nan",
           "-inf", "1e400", "\x00", "1,"]


@st.composite
def broken_csvs(draw, text, read_columns):
    """`text` with one data row made ragged or one of its first
    `read_columns` cells garbled, a blank line inserted, or invalid UTF-8
    written into it."""
    lines = text.split("\n")[:-1]
    r = draw(st.integers(1, len(lines) - 1))
    cells = lines[r].split(",")
    how = draw(st.sampled_from(["ragged", "garbled", "blank", "utf-8"]))
    if how == "ragged":
        cells = draw(st.sampled_from([cells[:-1], cells + ["0.5"]]))
    elif how == "garbled":
        cells[draw(st.integers(0, read_columns - 1))] = \
            draw(st.sampled_from(GARBAGE))
    elif how == "blank":
        lines.insert(r, "")
    lines[r] = lines[r] if how == "blank" else ",".join(cells)
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    if how == "utf-8":
        i = draw(st.integers(0, len(raw) - 1))
        raw = raw[:i] + draw(st.sampled_from([b"\xb9", b"\xff", b"\xc3("])) \
            + raw[i:]
    return raw


class TestBrokenCsv:
    @given(command=st.sampled_from(["train", "predict"]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_error_line_naming_the_file(self, saved, command, data):
        d, csv_path, _, _ = saved
        bad = d / "broken.csv"
        # predict reads only the model's columns x1 and x2, not y
        read_columns = 3 if command == "train" else 2
        bad.write_bytes(data.draw(broken_csvs(csv_path.read_text(),
                                              read_columns)))
        if command == "train":
            argv = ["train", "--data", bad, "--target", "y", "--epochs", 1,
                    "--mlp", "4-1", "--out", d / "never.plm"]
        else:
            argv = ["predict", "--model", d / "pilid.plm", "--data", bad,
                    "--out", d / "never.csv"]
        assert_one_error_naming(bad, *run(*argv))

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_invalid_utf8_names_file_and_line(self, saved, tmp_path,
                                              command):
        d, csv_path, _, _ = saved
        bad = tmp_path / "bad.csv"
        lines = csv_path.read_bytes().split(b"\n")
        lines[2] = lines[2][:3] + b"\xb9" + lines[2][3:]
        bad.write_bytes(b"\n".join(lines))
        argv = (["train", "--data", bad, "--target", "y",
                 "--out", tmp_path / "m.plm"] if command == "train" else
                ["predict", "--model", d / "pilid.plm", "--data", bad])
        code, err, caught = run(*argv)
        assert_one_error_naming(bad, code, err, caught)
        assert err == f"pilid: error: {bad}: invalid UTF-8 at line 3\n"


class TestPredictReader:
    """`pilid predict` reads its CSV with the same checks as training."""

    def predict(self, saved, text, tmp_path, name="score"):
        d = saved[0]
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        out = tmp_path / f"{name}_pred.csv"
        return path, out, run("predict", "--model", d / "pilid.plm",
                              "--data", path, "--out", out)

    def test_row_longer_than_header_is_rejected(self, saved, tmp_path):
        path, _, (code, err, _) = self.predict(
            saved, "x1,x2\n0.1,0.2\n0.3,0.4,0.5\n", tmp_path)
        assert code == 1
        assert err == (f"pilid: error: {path}: line 3 has 3 cells, "
                       "expected 2\n")

    def test_bad_cell_names_line_and_column(self, saved, tmp_path):
        path, _, (code, err, _) = self.predict(
            saved, "x2,x1\n0.1,0.2\n0.3,abc\n", tmp_path)
        assert code == 1
        assert err == (f"pilid: error: {path}: cannot parse 'abc' at line 3, "
                       "column 'x1'\n")

    def test_blank_line_is_rejected(self, saved, tmp_path):
        path, _, (code, err, _) = self.predict(
            saved, "x1,x2\n0.1,0.2\n\n0.3,0.4\n", tmp_path)
        assert code == 1
        assert err == f"pilid: error: {path}: line 3 has 0 cells, expected 2\n"

    def test_text_column_the_model_does_not_use(self, saved, tmp_path):
        _, plain, (code, _, _) = self.predict(
            saved, "x1,x2\n0.1,0.2\n0.3,0.4\n", tmp_path, "plain")
        assert code == 0
        _, with_id, (code, _, _) = self.predict(
            saved, "id,x2,x1\nfirst,0.2,0.1\nsecond,0.4,0.3\n", tmp_path)
        assert code == 0
        assert with_id.read_bytes() == plain.read_bytes()


class TestEvalReader:
    """`pilid eval` reads the model's features and the target by name."""

    def metric(self, model, path, target="y"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["eval", "--model", str(model), "--data", str(path),
                         "--target", target])
        assert code == 0
        return out.getvalue()

    def test_reordered_and_extra_columns_give_the_same_metric(self, saved,
                                                               tmp_path):
        d, data, _, _ = saved
        header, *body = data.read_text().splitlines()
        assert header == "x1,x2,y"
        moved = tmp_path / "moved.csv"
        moved.write_text("id,y,x2,x1\n" + "".join(
            f"row{k},{y},{x2},{x1}\n" for k, (x1, x2, y) in
            enumerate(line.split(",") for line in body)))
        metric = self.metric(d / "pilid.plm", data)
        assert metric.startswith("mse ")
        assert self.metric(d / "pilid.plm", moved) == metric

    def test_missing_target_names_file_and_column(self, saved):
        d, data, _, _ = saved
        code, err, caught = run("eval", "--model", d / "pilid.plm",
                                "--data", data, "--target", "z")
        assert_one_error_naming(data, code, err, caught)
        assert "'z'" in err

    def test_target_that_is_a_model_feature_names_the_model(self, saved):
        d, data, _, _ = saved
        code, err, caught = run("eval", "--model", d / "pilid.plm",
                                "--data", data, "--target", "x1")
        assert_one_error_naming(d / "pilid.plm", code, err, caught)
        assert "'x1'" in err

    def test_classification_targets_must_be_0_or_1(self, tmp_path):
        data = tmp_path / "clf.csv"
        assert run("synth", "--m", "2", "--n", N_ROWS, "--task", "clf",
                   "--out", data)[0] == 0
        model = tmp_path / "clf.plm"
        assert run("train", "--data", data, "--target", "y", "--task", "clf",
                   "--epochs", 1, "--mlp", "4-1", "--out", model)[0] == 0
        assert self.metric(model, data).startswith("auc ")
        bad = tmp_path / "bad.csv"
        bad.write_text(data.read_text().replace(",1.0\n", ",2.0\n", 1))
        code, err, caught = run("eval", "--model", model, "--data", bad,
                                "--target", "y")
        assert_one_error_naming(bad, code, err, caught)
        assert "must be 0 or 1" in err


class TestTrainingTargets:
    @pytest.mark.parametrize("command", ["train", "train-pilib"])
    def test_classification_targets_must_be_0_or_1(self, saved, command,
                                                   tmp_path):
        _, data, _, _ = saved
        model = tmp_path / "m.plm"
        code, err, caught = run(command, "--data", data, "--target", "x1",
                                "--task", "clf", "--epochs", 1,
                                "--mlp", "4-1", "--out", model)
        assert_one_error_naming(data, code, err, caught)
        assert err == (f"pilid: error: {data}: column 'x1': classification "
                       "targets must be 0 or 1\n")
        assert not model.exists()


class TestModelKind:
    """An export the model cannot give ends in one error naming the model
    file."""

    def test_export_shapes_of_an_mlp_only_model(self, saved, tmp_path):
        _, data, _, _ = saved
        model = tmp_path / "mlp.plm"
        assert run("train", "--data", data, "--target", "y", "--epochs", 1,
                   "--mlp", "4-1", "--mlp-only", "--out", model)[0] == 0
        code, err, caught = run("export-shapes", "--model", model,
                                "--out-dir", tmp_path / "shapes")
        assert_one_error_naming(model, code, err, caught)
        assert "no piecewise-linear component" in err

    def test_export_interactions_of_a_pilid_model(self, tmp_path):
        model = DATA / "v2_pilid.plm"
        out = tmp_path / "surface.csv"
        code, err, caught = run("export-interactions", "--model", model,
                                "--features", "0,1", "--out", out)
        assert_one_error_naming(model, code, err, caught)
        assert "needs a gated-block model" in err
        assert not out.exists()


class TestTrialsConfig:
    """A trials config sets the `pilid` flags by name, `_` or `-`; any other
    key or a bad value ends, before the first trial, in one error line
    naming the file and key."""

    @pytest.mark.parametrize("line,key", [
        ("task = regression", "--task"),
        ("learning_rate = 1", "--learning-rate"),
        ("activation = tanh", "--activation"),
        ("epochs = abc", "--epochs"),
        ("epoch = 3", "--epoch="),
        ("max-order = x", "--max-order"),
        ("model = deep", "--model"),
        pytest.param("lr = -1", "--lr: expected a number > 0",
                     id="lr = -1-learning_rate"),
        ("m = 0", "m >= 1"),
        ("split = 1.5", "--split: expected a number in (0, 1]"),
        ("split = 1.0", "--split: a trial scores the held-out rows"),
        ("gammas = 0", "--gammas: expected an integer >= 1"),
        ("mlp = abc", "--mlp: bad architecture string 'abc'"),
        ("sigma = 0", "--sigma: expected a number > 0"),
        ("ridge = -1", "--ridge: expected a number >= 0"),
        ("interactions = 99", "cannot plant 99 interactions"),
        ("model = pilib\nblocks = 0", "--blocks: expected an integer >= 1"),
        ("n = 1", "n = 1 with split = 0.8 leaves no train or no held-out"),
    ])
    def test_bad_key_or_value(self, tmp_path, line, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"m = 3\nn = 400\nepochs = 1\n{line}\n")
        report = tmp_path / "r.csv"
        code, err, caught = run("trials", "--config", cfg, "--report", report)
        assert_one_error_naming(cfg, code, err, caught)
        assert key in err, err
        assert not report.exists()

    def test_key_in_either_spelling(self, tmp_path, monkeypatch):
        seen = []

        def record(exp, n_trials):
            seen.append(exp)
            return metrics_eval.TrialReport(values=[0.0], mean=0.0, std=0.0,
                                            seeds=[1])

        monkeypatch.setattr(metrics_eval, "run_trials", record)
        cfg = tmp_path / "exp.cfg"
        for key in ("max-order", "max_order"):
            cfg.write_text(f"model = pilib\n{key} = 1\n")
            code, err, _ = run("trials", "--config", cfg,
                               "--report", tmp_path / "r.csv")
            assert code == 0, err
        assert [(e.max_order, e.model) for e in seen] == [(1, "pilib")] * 2
        assert (seen[0].synth.m, seen[0].synth.n) == (10, 20000)


class TestFlagRanges:
    """A flag's value out of its range ends in one `pilid: error:` line
    that names the flag, before any file is read or written."""

    @pytest.mark.parametrize("argv,flag", [
        (["train", "--split", "1.5"], "--split"),
        (["train", "--split", "0"], "--split"),
        (["train", "--lr", "0"], "--lr"),
        (["train", "--mlp", "8-0-1"], "--mlp"),
        (["train-pilib", "--blocks", "0"], "--blocks"),
        (["train-pilib", "--lambda0", "-1"], "--lambda0"),
        (["synth", "--m", "3", "--n", "10", "--interactions", "-1"],
         "--interactions"),
        (["synth", "--m", "3", "--n", "10", "--noise", "nan"], "--noise"),
        (["export-interactions", "--features", "0,1", "--grid", "0"],
         "--grid"),
        (["export-interactions", "--features", "0,1", "--grid", "-1"],
         "--grid"),
    ])
    def test_rejected_naming_the_flag(self, tmp_path, argv, flag):
        out = tmp_path / "out"
        if argv[0] in ("train", "train-pilib"):
            argv = argv + ["--data", tmp_path / "missing.csv",
                           "--target", "y"]
        elif argv[0] == "export-interactions":
            argv = argv + ["--model", tmp_path / "missing.plm"]
        code, err, caught = run(*argv, "--out", out)
        assert code == 2
        assert err.startswith(f"pilid: error: argument {flag}: ") \
            and err.count("\n") == 1, err
        assert caught == [] and not out.exists()

    def test_surface_of_one_feature_with_itself_rejected(self, saved,
                                                         tmp_path):
        d, _, _, _ = saved
        out = tmp_path / "surface.csv"
        code, err, caught = run("export-interactions", "--model",
                                d / "pilib.plm", "--features", "1,1",
                                "--out", out)
        assert code == 1
        assert err.startswith("pilid: error: ") and err.count("\n") == 1, err
        assert "1 and 1" in err, err
        assert caught == [] and not out.exists()

    def test_split_one_trains_on_every_row(self, saved, tmp_path):
        _, data, _, _ = saved
        model = tmp_path / "all.plm"
        assert run("train", "--data", data, "--target", "y", "--epochs", 1,
                   "--mlp", "4-1", "--split", "1.0", "--out", model)[0] == 0
        full = dataset.load_csv(data, "y", dataset.REGRESSION)
        expected, _ = trainer.train(full, 5, "4-1",
                                    trainer.TrainConfig(epochs=1, seed=1))
        assert np.array_equal(trainer.model_forward(expected, full.rows)[1],
                              trainer.model_forward(persist.load(model),
                                                    full.rows)[1])


class TestUnwritableOutput:
    """An output path that cannot be written, a file in a missing folder or
    a folder inside a file, ends in one error naming the path."""

    @pytest.mark.parametrize("command,flag", [
        ("train", "--out"), ("train", "--trace-out"),
        ("train-pilib", "--out"), ("train-pilib", "--trace-out"),
        ("train-pilib", "--diagnostics-out")])
    def test_training_output(self, saved, tmp_path, command, flag):
        _, data, _, _ = saved
        bad = tmp_path / "missing" / "out"
        argv = [command, "--data", data, "--target", "y", "--epochs", 1,
                "--mlp", "4-1", "--gammas", 3, "--out", tmp_path / "m.plm"]
        if command == "train-pilib":
            argv += ["--blocks", 2]
        code, err, caught = run(*argv, flag, bad)
        assert_one_error_naming(bad, code, err, caught)

    def test_predict_out(self, saved, tmp_path):
        d, data, _, _ = saved
        bad = tmp_path / "missing" / "p.csv"
        code, err, caught = run("predict", "--model", d / "pilid.plm",
                                "--data", data, "--out", bad)
        assert_one_error_naming(bad, code, err, caught)

    def test_export_shapes_out_dir_inside_a_file(self, saved, tmp_path):
        d, data, _, _ = saved
        bad = Path(data) / "sub"
        code, err, caught = run("export-shapes", "--model", d / "pilid.plm",
                                "--out-dir", bad)
        assert_one_error_naming(bad, code, err, caught)

    def test_export_interactions_out(self, saved, tmp_path):
        d, _, _, _ = saved
        bad = tmp_path / "missing" / "s.csv"
        code, err, caught = run("export-interactions", "--model",
                                d / "pilib.plm", "--features", "0,1",
                                "--out", bad)
        assert_one_error_naming(bad, code, err, caught)

    def test_synth_out(self, tmp_path):
        bad = tmp_path / "missing" / "d.csv"
        code, err, caught = run("synth", "--m", 2, "--n", 10, "--out", bad)
        assert_one_error_naming(bad, code, err, caught)

    def test_trials_report(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m = 2\nn = 40\nepochs = 1\nmlp = 4-1\n")
        bad = tmp_path / "missing" / "r.csv"
        code, err, caught = run("trials", "--config", cfg, "--trials", 1,
                                "--report", bad)
        assert_one_error_naming(bad, code, err, caught)
