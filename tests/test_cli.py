"""End-to-end tests of the command-line interface."""

import json
import shutil

import numpy as np
import pytest

from emofuse import cli, data, model
from emofuse.alignment import WordSpan


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-synth")
    code = cli.main(["synth", "--out-dir", str(out), "--n-per-class", "2", "--seed", "3"])
    assert code == 0
    return out


class TestSynth:
    def test_writes_dataset(self, synth_dir, capsys):
        code, out = run(capsys, "synth", "--out-dir", str(synth_dir / "again"),
                        "--n-per-class", "1", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == 4
        assert (synth_dir / "again" / "manifest.jsonl").exists()
        assert (synth_dir / "again" / "embeddings.txt").exists()


class TestExtract:
    def test_converts_audio_manifest_to_features(self, synth_dir, capsys):
        feat_dir = synth_dir / "features"
        code, out = run(capsys, "extract",
                        "--manifest", str(synth_dir / "manifest.jsonl"),
                        "--out-dir", str(feat_dir))
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == 8
        assert (feat_dir / "manifest.jsonl").exists()
        assert len(list(feat_dir.glob("*.emt"))) == 8

    def test_missing_manifest_is_exit_1(self, synth_dir, capsys):
        code, _ = run(capsys, "extract", "--manifest", str(synth_dir / "nope.jsonl"),
                      "--out-dir", str(synth_dir / "x"))
        assert code == 1

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_on_an_existing_file_is_exit_1(self, synth_dir, capsys, below):
        # the directory path is the manifest itself, or runs through it
        manifest = synth_dir / "manifest.jsonl"
        code, _ = run(capsys, "extract", "--manifest", str(manifest),
                      "--out-dir", str(manifest / below if below else manifest))
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def ckpt(synth_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.emc"
    code = cli.main(["train",
                     "--manifest", str(synth_dir / "manifest.jsonl"),
                     "--embeddings", str(synth_dir / "embeddings.txt"),
                     "--out", str(path), "--epochs", "2", "--seed", "1"])
    assert code == 0
    return path


class TestTrainEval:
    def test_train_reports_loss_curve(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "m.emc"
        code, out = run(capsys, "train",
                        "--manifest", str(synth_dir / "manifest.jsonl"),
                        "--embeddings", str(synth_dir / "embeddings.txt"),
                        "--out", str(path), "--epochs", "2", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["loss_curve"]) == 2
        assert path.exists()

    def test_eval_reports_metrics(self, synth_dir, ckpt, capsys):
        code, out = run(capsys, "eval", "--checkpoint", str(ckpt),
                        "--manifest", str(synth_dir / "manifest.jsonl"),
                        "--embeddings", str(synth_dir / "embeddings.txt"))
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"confusion", "wa", "ua"}
        assert 0.0 <= payload["wa"] <= 1.0

    def test_truncated_checkpoint_is_exit_1(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "short.emc"
        path.write_bytes(b"EMOFCKPT\x01\x00")
        code, _ = run(capsys, "eval", "--checkpoint", str(path),
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"))
        assert code == 1

    def test_eval_is_idempotent(self, synth_dir, ckpt, capsys):
        args = ("eval", "--checkpoint", str(ckpt),
                "--manifest", str(synth_dir / "manifest.jsonl"),
                "--embeddings", str(synth_dir / "embeddings.txt"))
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_train_works_on_extracted_features(self, synth_dir, tmp_path, capsys):
        feat_dir = synth_dir / "features"
        if not (feat_dir / "manifest.jsonl").exists():
            assert cli.main(["extract", "--manifest", str(synth_dir / "manifest.jsonl"),
                             "--out-dir", str(feat_dir)]) == 0
        code, _ = run(capsys, "train",
                      "--manifest", str(feat_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--out", str(tmp_path / "m.emc"), "--epochs", "1")
        assert code == 0

    def test_missing_manifest_is_exit_1(self, synth_dir, tmp_path, capsys):
        code, _ = run(capsys, "train", "--manifest", str(tmp_path / "missing.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--out", str(tmp_path / "m.emc"))
        assert code == 1

    def test_config_file_with_flag_override(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "seed": 9}))
        code, out = run(capsys, "train",
                        "--manifest", str(synth_dir / "manifest.jsonl"),
                        "--embeddings", str(synth_dir / "embeddings.txt"),
                        "--out", str(tmp_path / "m.emc"),
                        "--config", str(config), "--epochs", "2")
        assert code == 0
        assert len(json.loads(out)["loss_curve"]) == 2  # flag beat the file

    def test_malformed_config_is_exit_1(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        code, _ = run(capsys, "train",
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--out", str(tmp_path / "m.emc"), "--config", str(config))
        assert code == 1

    @pytest.mark.parametrize("config_text", ['{"epochs": "2"}', "5", '{"learning_rate": NaN}',
                                             '{"loss_reduction": "mean"}', '{"seed": -1}'],
                             ids=["string-epochs", "top-level-number", "nan-rate",
                                  "deleted-loss-reduction", "negative-seed"])
    def test_unusable_config_file_is_exit_1(self, synth_dir, tmp_path, capsys, config_text):
        config = tmp_path / "bad.json"
        config.write_text(config_text)
        code, _ = run(capsys, "train",
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--out", str(tmp_path / "m.emc"), "--config", str(config))
        assert code == 1

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_exit_1(self, synth_dir, tmp_path, capsys, rate):
        path = tmp_path / "m.emc"
        code, _ = run(capsys, "train",
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--out", str(path), "--epochs", "1", "--learning-rate", rate)
        assert code == 1
        assert not path.exists()


class TestNonFiniteInputs:
    """A NaN in any input file is a bad input (exit 1), not a training
    divergence or an unexpected failure (exit 2)."""

    def test_nan_in_feature_file_is_exit_1(self, synth_dir, tmp_path, capsys):
        feat_dir = tmp_path / "features"
        assert cli.main(["extract", "--manifest", str(synth_dir / "manifest.jsonl"),
                         "--out-dir", str(feat_dir)]) == 0
        victim = sorted(feat_dir.glob("*.emt"))[0]
        features = data.load_array(victim)
        features[0, 0] = np.nan
        data.save_array(victim, features)
        code, _ = run(capsys, "train", "--manifest", str(feat_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--out", str(tmp_path / "m.emc"), "--epochs", "1")
        assert code == 1

    def test_nan_in_checkpoint_is_exit_1(self, synth_dir, ckpt, tmp_path, capsys):
        loaded = model.load_checkpoint(ckpt)
        bias = loaded.params.fcn2_b
        bias.data = np.where(np.arange(bias.size) == 0, np.nan, bias.data)
        path = tmp_path / "nan.emc"
        model.save_checkpoint(loaded, path)
        code, _ = run(capsys, "eval", "--checkpoint", str(path),
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"))
        assert code == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nan_in_embeddings_is_exit_1(self, synth_dir, ckpt, tmp_path, capsys, command):
        embeddings = tmp_path / "emb.txt"
        shutil.copy(synth_dir / "embeddings.txt", embeddings)
        lines = embeddings.read_text().splitlines()
        parts = lines[0].split()
        lines[0] = " ".join(parts[:-1] + ["nan"])
        embeddings.write_text("\n".join(lines) + "\n")
        io = (["--out", str(tmp_path / "m.emc"), "--epochs", "1"] if command == "train"
              else ["--checkpoint", str(ckpt)])
        code, _ = run(capsys, command, "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(embeddings), *io)
        assert code == 1


class TestInconsistentInputs:
    """Inputs that parse but cannot be right: exit 1, not a silent answer."""

    def test_spans_past_the_end_of_the_audio_is_exit_1(self, synth_dir, ckpt, tmp_path,
                                                       capsys, caplog):
        records = data.load_manifest(synth_dir / "manifest.jsonl")
        for record in records:
            record.words = [WordSpan(w.token, w.start_ms + 60_000, w.end_ms + 60_000)
                            for w in record.words]
        data.save_manifest(records, tmp_path / "late.jsonl")
        code, _ = run(capsys, "eval", "--checkpoint", str(ckpt),
                      "--manifest", str(tmp_path / "late.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"))
        assert code == 1
        assert "end of its audio" in caplog.text

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_no_token_in_the_embedding_table_is_exit_1(self, synth_dir, ckpt, tmp_path,
                                                        capsys, caplog, command):
        embeddings = tmp_path / "emb.txt"
        data.save_embeddings(
            data.EmbeddingTable({"unrelated": np.ones(data.EMBEDDING_DIM)}), embeddings)
        io = (["--out", str(tmp_path / "m.emc"), "--epochs", "1"] if command == "train"
              else ["--checkpoint", str(ckpt)])
        code, _ = run(capsys, command, "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(embeddings), *io)
        assert code == 1
        assert "embedding table" in caplog.text


class TestCv:
    def test_three_mode_table(self, synth_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out = run(capsys, "cv",
                        "--manifest", str(synth_dir / "manifest.jsonl"),
                        "--embeddings", str(synth_dir / "embeddings.txt"),
                        "--modes", "uttconcat,tempalign,tempalign-cme",
                        "--k", "2", "--epochs", "1", "--seed", "0",
                        "--out", str(report_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["mode", "WA", "UA"]
        payload = json.loads(report_path.read_text())
        assert set(payload) == {"uttconcat", "tempalign", "tempalign-cme"}
        assert len(payload["tempalign"]["folds"]) == 2

    def test_empty_modes_is_exit_1(self, synth_dir, capsys):
        code, _ = run(capsys, "cv",
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--modes", ",", "--k", "2", "--epochs", "1")
        assert code == 1


    @pytest.mark.parametrize("k", ["1", "0"])
    def test_fewer_than_two_folds_is_exit_1(self, synth_dir, capsys, caplog, k):
        code, _ = run(capsys, "cv",
                      "--manifest", str(synth_dir / "manifest.jsonl"),
                      "--embeddings", str(synth_dir / "embeddings.txt"),
                      "--k", k, "--epochs", "1")
        assert code == 1
        assert f"k={k}" in caplog.text


class TestArgumentHandling:
    @pytest.mark.parametrize("command", ["synth", "train", "cv"])
    def test_negative_seed_is_exit_1(self, synth_dir, tmp_path, capsys, caplog, command):
        inputs = ["--manifest", str(synth_dir / "manifest.jsonl"),
                  "--embeddings", str(synth_dir / "embeddings.txt"), "--epochs", "1"]
        args = {"synth": ["--out-dir", str(tmp_path), "--n-per-class", "1"],
                "train": inputs + ["--out", str(tmp_path / "m.emc")],
                "cv": inputs + ["--k", "2"]}[command]
        code, _ = run(capsys, command, *args, "--seed", "-1")
        assert code == 1
        assert "seed must be >= 0" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    def test_unknown_flag_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--out-dir", "/tmp/x", "--bogus", "1"])
        assert exc.value.code == 1

    def test_unknown_subcommand_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dance"])
        assert exc.value.code == 1

    def test_unknown_log_level_is_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("EMOFUSE_LOG", "verbose")
        code = cli.main(["gradcheck", "--seeds", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "'verbose'" in err and "debug, info, warning, error, critical" in err
        assert "Traceback" not in err

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("synth", "extract", "train", "eval", "cv", "gradcheck"):
            assert sub in out

    def test_subcommand_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cv", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--modes", "--k", "--learning-rate", "--epochs", "--seed",
                     "--fusion-mode", "--clip-norm"):
            assert flag in out


class TestGradcheckCommand:
    def test_single_seed_passes(self, capsys):
        code, out = run(capsys, "gradcheck", "--seeds", "1")
        assert code == 0
        assert "model/loss" in out
        for mode in ("uttconcat", "tempalign", "tempalign-cme"):
            assert f"model/loss {mode} " in out
        assert "FAIL" not in out
        assert "matmul/a" in out

    @pytest.mark.parametrize("seeds", ["0", "-2", "abc"])
    def test_seed_count_below_one_is_exit_1(self, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gradcheck", "--seeds", seeds])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"expected a count of at least 1, got '{seeds}'" in err
        assert "Traceback" not in err
