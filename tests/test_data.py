"""Tests for manifests, embeddings, folds, tensor files and synthetic data."""

import numpy as np
import pytest

from emofuse import data
from emofuse.alignment import WordSpan
from emofuse.errors import InputError


def make_record(rid="utt-1", label=0, path="clip.wav"):
    return data.UtteranceRecord(
        id=rid,
        words=[WordSpan("hi", 0, 200), WordSpan("there", 200, 500)],
        label=label,
        audio_path=path,
    )


class TestUtteranceRecord:
    def test_requires_exactly_one_source(self):
        with pytest.raises(InputError):
            data.UtteranceRecord("a", [WordSpan("x", 0, 1)], 0)
        with pytest.raises(InputError):
            data.UtteranceRecord("a", [WordSpan("x", 0, 1)], 0,
                                 audio_path="a.wav", features_path="a.emt")

    def test_label_range(self):
        with pytest.raises(InputError):
            make_record(label=7)

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, np.bool_(False), "1", None])
    def test_label_must_be_an_integer(self, bad):
        # one-hot indexing would fail on these later with a bare IndexError
        with pytest.raises(InputError, match="label"):
            make_record(label=bad)

    def test_numpy_integer_label_becomes_int(self):
        record = make_record(label=np.int64(2))
        assert record.label == 2 and type(record.label) is int

    def test_needs_words(self):
        with pytest.raises(InputError):
            data.UtteranceRecord("a", [], 0, audio_path="a.wav")


class TestManifest:
    def test_round_trip(self, tmp_path):
        (tmp_path / "clip.wav").touch()
        records = [make_record(f"utt-{i}", label=i % 4) for i in range(10)]
        path = tmp_path / "manifest.jsonl"
        data.save_manifest(records, path)
        loaded = data.load_manifest(path)
        assert [r.id for r in loaded] == [r.id for r in records]
        assert [r.label for r in loaded] == [r.label for r in records]
        assert loaded[0].words == records[0].words

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with caplog.at_level("WARNING"):
            assert data.load_manifest(path) == []
        assert "empty" in caplog.text

    def test_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        (tmp_path / "a.wav").touch()
        good = '{"id": "a", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 0}'
        bad = '{"id": "b", "audio_path": "b.wav", "words": [["x", 0, 10]], "label": 7}'
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(InputError, match=":2"):
            data.load_manifest(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        (tmp_path / "a.wav").touch()
        line = '{"id": "a", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 0}'
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(InputError, match="duplicate"):
            data.load_manifest(path)

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        path = tmp_path / "nested" / "manifest.jsonl"
        path.parent.mkdir()
        (path.parent / "x.wav").touch()
        path.write_text('{"id": "a", "audio_path": "x.wav", "words": [["x", 0, 10]], "label": 0}\n')
        record = data.load_manifest(path)[0]
        assert record.audio_path == str(tmp_path / "nested" / "x.wav")

    def test_missing_referenced_file_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"id": "a", "audio_path": "gone.wav", "words": [["x", 0, 10]], "label": 0}\n')
        with pytest.raises(InputError, match="does not exist"):
            data.load_manifest(path)

    @pytest.mark.parametrize("bad", [
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 1e400}',
                     id="label-overflows"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", 0, 1e400]], "label": 0}',
                     id="span-overflows"),
        pytest.param(b'{"id": "b", "audio_path": 5, "words": [["x", 0, 10]], "label": 0}',
                     id="path-not-a-string"),
        pytest.param(b'{"id": "\xff", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 0}',
                     id="invalid-utf8"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 1.9}',
                     id="label-fraction"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", 0.9, 10.7]], "label": 0}',
                     id="span-fraction"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": true}',
                     id="label-bool"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": "3"}',
                     id="label-string"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [["x", "0", 10]], "label": 0}',
                     id="span-string"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [[null, 0, 10]], "label": 0}',
                     id="token-null"),
        pytest.param(b'{"id": "b", "audio_path": "a.wav", "words": [[7, 0, 10]], "label": 0}',
                     id="token-int"),
        pytest.param(b'{"id": 7, "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 0}',
                     id="id-int"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        (tmp_path / "a.wav").touch()
        good = b'{"id": "a", "audio_path": "a.wav", "words": [["x", 0, 10]], "label": 0}'
        path.write_bytes(good + b"\n" + bad + b"\n")
        with pytest.raises(InputError, match=f"{path}:2"):
            data.load_manifest(path)


class TestEmbeddings:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "emb.txt"
        vec = " ".join(["0.5"] * 300)
        path.write_text(f"hello {vec}\nworld {vec}\n")
        table = data.load_embeddings(path)
        assert len(table) == 2
        got, oov = table.lookup("hello")
        assert not oov
        np.testing.assert_array_equal(got, np.full(300, 0.5))

    def test_oov_returns_zero_and_flag(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("hello " + " ".join(["1"] * 300) + "\n")
        table = data.load_embeddings(path)
        got, oov = table.lookup("absent")
        assert oov
        np.testing.assert_array_equal(got, np.zeros(300))

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("short " + " ".join(["1"] * 299) + "\n")
        with pytest.raises(InputError, match=":1"):
            data.load_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e400"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text("ok " + " ".join(["1"] * 300) + "\nbad " + " ".join(["1"] * 299)
                        + f" {value}\n")
        with pytest.raises(InputError, match=f"{path}:2"):
            data.load_embeddings(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"ok " + b" ".join([b"1"] * 300) + b"\n\xff\xfe "
                         + b" ".join([b"1"] * 300) + b"\n")
        with pytest.raises(InputError, match=f"{path}:2"):
            data.load_embeddings(path)

    def test_save_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = data.EmbeddingTable({"a": rng.normal(size=300), "b": rng.normal(size=300)})
        path = tmp_path / "emb.txt"
        data.save_embeddings(table, path)
        loaded = data.load_embeddings(path)
        np.testing.assert_array_equal(loaded.lookup("a")[0], table.lookup("a")[0])

    def test_matrix_rejects_empty_tokens(self):
        table = data.EmbeddingTable({})
        with pytest.raises(InputError):
            table.matrix([])


class TestKfoldSplit:
    def test_even_folds(self):
        records = [make_record(f"r{i}") for i in range(10)]
        plan = data.kfold_split(records, k=5, seed=1)
        assert all(len(f["test"]) == 2 for f in plan.folds)

    def test_deterministic(self):
        records = [make_record(f"r{i}") for i in range(13)]
        a = data.kfold_split(records, k=5, seed=9)
        b = data.kfold_split(records, k=5, seed=9)
        assert a.folds == b.folds

    def test_partition_property(self):
        records = [make_record(f"r{i}") for i in range(23)]
        plan = data.kfold_split(records, k=5, seed=3)
        plan.check_partition([r.id for r in records])
        for fold in plan.folds:
            assert set(fold["train"]).isdisjoint(fold["test"])
            assert sorted(fold["train"] + fold["test"]) == sorted(r.id for r in records)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_fewer_than_two_folds_rejected(self, k):
        records = [make_record(f"r{i}") for i in range(4)]
        with pytest.raises(InputError, match=f"k={k}"):
            data.kfold_split(records, k=k)

    def test_too_few_records(self):
        with pytest.raises(InputError):
            data.kfold_split([make_record("a")], k=5, seed=0)

    def test_duplicate_ids_rejected(self, tmp_path):
        # two synthetic sets share their ids, so each id appears twice
        records = (data.synth_dataset(tmp_path / "one", 1, seed=1).records
                   + data.synth_dataset(tmp_path / "two", 1, seed=2).records)
        with pytest.raises(InputError, match=repr(records[0].id)):
            data.kfold_split(records, k=2)


class TestTensorFiles:
    def test_round_trip_float64(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((34, 17))
        path = tmp_path / "x.emt"
        data.save_array(path, arr)
        np.testing.assert_array_equal(data.load_array(path), arr)

    def test_round_trip_float32(self, tmp_path):
        arr = np.random.default_rng(2).standard_normal((3, 4)).astype(np.float32)
        path = tmp_path / "x.emt"
        data.save_array(path, arr)
        np.testing.assert_array_equal(data.load_array(path), arr.astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(InputError, match="magic"):
            data.load_array(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.emt"
        data.save_array(path, np.ones((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(InputError, match="truncated"):
            data.load_array(path)

    def test_truncated_dimensions(self, tmp_path):
        path = tmp_path / "x.emt"
        data.save_array(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:18])
        with pytest.raises(InputError, match="truncated"):
            data.load_array(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a dimension that shrank would otherwise reshape a prefix silently
        path = tmp_path / "x.emt"
        data.save_array(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(InputError, match="oversized"):
            data.load_array(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_name_the_file(self, tmp_path, value):
        path = tmp_path / "x.emt"
        arr = np.ones((34, 5))
        arr[3, 2] = value
        data.save_array(path, arr)
        with pytest.raises(InputError, match=f"{path}: .*non-finite"):
            data.load_array(path)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    return data.synth_dataset(out, n_per_class=3, seed=11)


class TestSynthDataset:

    def test_balanced(self, dataset):
        labels = [r.label for r in dataset.records]
        assert len(dataset.records) == 12
        assert all(labels.count(k) == 3 for k in range(4))

    def test_factor_encoding(self, dataset):
        for record in dataset.records:
            tone, content = data.synth_factors(record.id)
            assert record.label == 2 * tone + content

    def test_deterministic_per_seed(self, tmp_path):
        from pathlib import Path
        a = data.synth_dataset(tmp_path / "a", n_per_class=2, seed=5)
        b = data.synth_dataset(tmp_path / "b", n_per_class=2, seed=5)
        assert Path(a.manifest_path).read_bytes() == Path(b.manifest_path).read_bytes()
        assert Path(a.embeddings_path).read_bytes() == Path(b.embeddings_path).read_bytes()
        for ra, rb in zip(a.records, b.records):
            assert Path(ra.audio_path).read_bytes() == Path(rb.audio_path).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        from pathlib import Path
        a = data.synth_dataset(tmp_path / "a", n_per_class=2, seed=5)
        b = data.synth_dataset(tmp_path / "b", n_per_class=2, seed=6)
        assert Path(a.records[0].audio_path).read_bytes() != Path(b.records[0].audio_path).read_bytes()

    def test_word_spans_on_fixed_grid(self, dataset):
        for record in dataset.records:
            for i, span in enumerate(record.words):
                assert span.start_ms == i * 200
                assert span.end_ms == i * 200 + 160

    def test_neither_factor_determines_label(self, tmp_path):
        ds = data.synth_dataset(tmp_path / "probe", n_per_class=20, seed=2)
        half = len(ds.records) // 2
        train, test = ds.records[:half], ds.records[half:]
        assert data.factor_probe_accuracy(train, test, "tone") <= 0.6
        assert data.factor_probe_accuracy(train, test, "content") <= 0.6
        assert data.factor_probe_accuracy(train, test, "both") == 1.0

    def test_rejects_bad_count(self, tmp_path):
        with pytest.raises(InputError):
            data.synth_dataset(tmp_path, n_per_class=0)

    def test_rejects_negative_seed(self, tmp_path):
        with pytest.raises(InputError, match="seed"):
            data.synth_dataset(tmp_path, n_per_class=1, seed=-1)


class TestPrepareRecord:
    def test_shapes_are_consistent(self, tmp_path):
        ds = data.synth_dataset(tmp_path, n_per_class=1, seed=3)
        table = data.load_embeddings(ds.embeddings_path)
        sample = data.prepare_record(ds.records[0], table)
        assert sample.features.shape[0] == 34
        assert sample.alignment.shape == (sample.features.shape[1], sample.n_words)
        assert sample.token_vectors.shape == (300, sample.n_words)
        assert sample.oov_count == 0

    def test_normalization_applied(self, tmp_path):
        ds = data.synth_dataset(tmp_path, n_per_class=1, seed=4)
        table = data.load_embeddings(ds.embeddings_path)
        raw = data.prepare_record(ds.records[0], table)
        mean = raw.features.mean(axis=1)
        std = np.maximum(raw.features.std(axis=1), 1e-8)
        normed = data.prepare_record(ds.records[0], table, stats=(mean, std))
        np.testing.assert_allclose(normed.features.mean(axis=1), 0.0, atol=1e-9)

    def test_oov_tokens_counted(self, tmp_path):
        ds = data.synth_dataset(tmp_path, n_per_class=1, seed=5)
        empty_table = data.EmbeddingTable({})
        sample = data.prepare_record(ds.records[0], empty_table)
        assert sample.oov_count == sample.n_words
        np.testing.assert_array_equal(sample.token_vectors, 0.0)

    def test_features_path_record(self, tmp_path):
        features = np.random.default_rng(6).standard_normal((34, 30))
        path = tmp_path / "feat.emt"
        data.save_array(path, features)
        record = data.UtteranceRecord(
            "f1", [WordSpan("a", 0, 150), WordSpan("b", 150, 310)], 1,
            features_path=str(path))
        table = data.EmbeddingTable({})
        sample = data.prepare_record(record, table)
        np.testing.assert_array_equal(sample.features, features)
        assert sample.features.shape == (34, 30)

    def _thirty_frame_record(self, tmp_path, words):
        # 30 frames cover (30 - 1) * 10 + 25 = 315 ms of audio
        path = tmp_path / "feat.emt"
        data.save_array(path, np.random.default_rng(7).standard_normal((34, 30)))
        return data.UtteranceRecord("f1", words, 1, features_path=str(path))

    @pytest.mark.parametrize("start", [315, 60_000])
    def test_word_starting_at_or_past_the_audio_end_rejected(self, tmp_path, start):
        words = [WordSpan("a", 0, 150), WordSpan("late", start, start + 100)]
        record = self._thirty_frame_record(tmp_path, words)
        with pytest.raises(InputError, match=r"'f1'.*'late'"):
            data.prepare_record(record, data.EmbeddingTable({}))

    def test_short_word_capturing_no_frame_centre_is_legal(self, tmp_path):
        # the last frame centre is at 302.5 ms; [305, 314) holds none
        words = [WordSpan("a", 0, 150), WordSpan("b", 305, 314)]
        sample = data.prepare_record(self._thirty_frame_record(tmp_path, words),
                                     data.EmbeddingTable({}))
        np.testing.assert_array_equal(sample.alignment[:, 1], 0.0)

    def test_synthetic_clip_shifted_past_its_end_rejected(self, tmp_path):
        ds = data.synth_dataset(tmp_path, n_per_class=1, seed=3)
        table = data.load_embeddings(ds.embeddings_path)
        record = ds.records[0]
        record.words = [WordSpan(w.token, w.start_ms + 60_000, w.end_ms + 60_000)
                        for w in record.words]
        with pytest.raises(InputError, match=f"{record.id!r}.*{record.words[0].token!r}"):
            data.prepare_record(record, table)
