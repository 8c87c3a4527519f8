"""Tests for the network stages, fusion modes and checkpoints."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import emofuse.tensor as T
from emofuse import model as M
from emofuse.data import PreparedSample
from emofuse.errors import InputError


def make_sample(rng, n_frames=40, n_words=3, label=1, rid="s"):
    bounds = np.linspace(0, n_frames, n_words + 1).astype(int)
    align = np.zeros((n_frames, n_words))
    for j in range(n_words):
        align[bounds[j]:bounds[j + 1], j] = 1.0
    return PreparedSample(
        id=rid,
        features=rng.standard_normal((34, n_frames)),
        alignment=align,
        token_vectors=rng.standard_normal((300, n_words)) * 0.5,
        tokens=["w"] * n_words,
        label=label,
    )


@pytest.fixture(scope="module")
def params():
    return M.init_params(seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestModelParams:
    def test_param_count_is_fixed(self, params):
        assert sum(t.size for t in params.tensors()) == M.EXPECTED_PARAM_COUNT

    def test_wrong_shape_rejected(self):
        arrays = {name: np.zeros(shape) for name, shape in M.PARAM_SHAPES.items()}
        arrays["cme_w"] = np.zeros((128, 127))
        with pytest.raises(InputError, match="cme_w"):
            M.ModelParams.from_arrays(arrays)

    def test_init_is_deterministic(self):
        a = M.init_params(seed=3)
        b = M.init_params(seed=3)
        for (_, ta), (_, tb) in zip(a.named(), b.named()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_forget_gate_bias_is_one(self, params):
        np.testing.assert_array_equal(params.lstm_fw_b.data[200:400], 1.0)
        np.testing.assert_array_equal(params.lstm_fw_b.data[:200], 0.0)


class TestAcousticEncode:
    def test_output_is_128_rows(self, params, rng):
        for n in (1, 7, 98):
            out = M.acoustic_encode(T.Tensor(rng.standard_normal((34, n))), params)
            assert out.shape == (128, n)

    def test_zero_params_give_zero_output(self, rng):
        out = M.acoustic_encode(T.Tensor(rng.standard_normal((34, 20))), M.ModelParams.zeros())
        np.testing.assert_array_equal(out.data, 0.0)

    def test_packed_batch_matches_one_at_a_time(self, params, rng):
        # lengths below, near and far above the widest kernel (20) in one batch
        with T.precision(64):
            xs = [T.Tensor(rng.standard_normal((34, n))) for n in (1, 3, 19, 80)]
            packed, starts = M.acoustic_encode_batch(xs, params)
            for x, start in zip(xs, starts):
                out = packed.data[:, start:start + x.shape[1]]
                np.testing.assert_allclose(out, M.acoustic_encode(x, params).data,
                                           rtol=0, atol=1e-12)

    def test_packed_gradients_match_one_at_a_time(self, params, rng):
        with T.precision(64):
            feats = [rng.standard_normal((34, n)) for n in (2, 25)]
            weights = [rng.standard_normal((128, n)) for n in (2, 25)]

            def conv1_grad(encode):
                trial = dataclasses.replace(params, conv1_w=T.Tensor(params.conv1_w.data,
                                                                     requires_grad=True))
                out, weigh = encode([T.Tensor(f) for f in feats], trial)
                T.backward(T.sum_all(T.hadamard(out, T.Tensor(weigh))))
                return trial.conv1_w.grad

            def packed_encode(xs, p):
                # gap columns get weight 0
                out, starts = M.acoustic_encode_batch(xs, p)
                weigh = np.zeros(out.shape)
                for w, start in zip(weights, starts):
                    weigh[:, start:start + w.shape[1]] = w
                return out, weigh

            def single_encode(xs, p):
                return (T.concat_cols(*[M.acoustic_encode(x, p) for x in xs]),
                        np.concatenate(weights, axis=1))

            packed = conv1_grad(packed_encode)
            single = conv1_grad(single_encode)
            np.testing.assert_allclose(packed, single, rtol=0, atol=1e-10)


class TestCrossModalityExcite:
    def test_zero_gate_weight_halves_exactly(self, rng):
        params = M.ModelParams.zeros()
        z_s = T.Tensor(rng.standard_normal((128, 5)))
        z_a2 = T.Tensor(rng.standard_normal((128, 5)))
        out = M.cross_modality_excite(z_s, z_a2, params)
        np.testing.assert_array_equal(out.data, 0.5 * z_a2.data)

    def test_zero_acoustic_stays_zero(self, params, rng):
        z_s = T.Tensor(rng.standard_normal((128, 4)))
        out = M.cross_modality_excite(z_s, T.zeros((128, 4)), params)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_saturated_gate_opens_fully(self, rng):
        with T.precision(64):
            arrays = {name: np.zeros(shape) for name, shape in M.PARAM_SHAPES.items()}
            arrays["cme_w"] = np.full((128, 128), 1.0)
            params = M.ModelParams.from_arrays(arrays)
            z_s = T.Tensor(np.full((128, 3), 1.0))  # pre-activation 128 >= 20
            z_a2 = T.Tensor(rng.uniform(-1.0, 1.0, size=(128, 3)))
            out = M.cross_modality_excite(z_s, z_a2, params)
            np.testing.assert_allclose(out.data, z_a2.data, atol=1e-8)

    def test_gate_values_in_open_interval(self, params, rng):
        z_s = T.Tensor(rng.standard_normal((128, 4)))
        gate = T.sigmoid(T.matmul(params.cme_w, z_s))
        assert np.all(gate.data > 0) and np.all(gate.data < 1)


class TestForward:
    def test_output_is_probability_column(self, params, rng):
        with T.precision(64):
            sample = make_sample(rng)
            for mode in M.FusionMode:
                out = M.forward(sample, params, mode)
                assert out.shape == (4, 1)
                assert abs(out.data.sum() - 1.0) <= 1e-12
                assert np.all(out.data > 0)

    def test_zero_params_give_uniform(self, rng):
        out = M.forward(make_sample(rng), M.ModelParams.zeros(), "tempalign-cme")
        np.testing.assert_array_equal(out.data, 0.25)

    def test_forward_is_deterministic(self, params, rng):
        sample = make_sample(rng)
        a = M.forward(sample, params, "tempalign-cme").data
        b = M.forward(sample, params, "tempalign-cme").data
        np.testing.assert_array_equal(a, b)

    def test_batched_matches_single(self, params, rng):
        with T.precision(64):
            samples = [make_sample(rng, n_frames=30 + 7 * i, n_words=2 + i, rid=f"s{i}")
                       for i in range(3)]
            # a one-word utterance, a word of one frame, and an empty word
            samples.append(make_sample(rng, n_frames=1, n_words=1, rid="one"))
            ragged = make_sample(rng, n_frames=12, n_words=3, rid="ragged")
            ragged.alignment[:] = 0.0
            ragged.alignment[2, 0] = 1.0
            ragged.alignment[5:11, 2] = 1.0
            samples.append(ragged)
            for mode, pool_mode in itertools.product(M.FusionMode, ("sum", "mean")):
                single = {s.id: M.forward(s, params, mode, pool_mode=pool_mode).data[:, 0]
                          for s in samples}
                for batch in ([samples[0]], [samples[3]], samples, samples[::-1]):
                    batched = M.forward_batch(batch, params, mode, pool_mode=pool_mode).data
                    for i, sample in enumerate(batch):
                        np.testing.assert_allclose(batched[:, i], single[sample.id], atol=1e-12,
                                                   err_msg=f"{mode.value} {pool_mode}")

    def test_gate_law_zero_weight_equals_halved_tempalign(self, rng):
        # with a zero gate weight the gate is exactly 1/2, and halving the
        # pooled acoustic matrix commutes bit-exactly with every later op
        sample = make_sample(rng)
        arrays = {name: t.data.copy() for name, t in M.init_params(seed=1).named()}
        arrays["cme_w"] = np.zeros(M.PARAM_SHAPES["cme_w"])
        params = M.ModelParams.from_arrays(arrays)
        cme_out = M.forward(sample, params, "tempalign-cme").data
        halved = dataclasses.replace(sample, alignment=0.5 * sample.alignment)
        align_out = M.forward(halved, params, "tempalign").data
        np.testing.assert_array_equal(cme_out, align_out)

    def test_uttconcat_ignores_alignment(self, params, rng):
        sample = make_sample(rng)
        scrambled = dataclasses.replace(sample, alignment=np.zeros_like(sample.alignment))
        a = M.forward(sample, params, "uttconcat").data
        b = M.forward(scrambled, params, "uttconcat").data
        np.testing.assert_array_equal(a, b)

    def test_unknown_mode_rejected(self, params, rng):
        with pytest.raises(InputError):
            M.forward(make_sample(rng), params, "megafusion")

    def test_empty_batch_rejected(self, params):
        with pytest.raises(InputError):
            M.forward_batch([], params, "tempalign")


class TestModelGradient:
    @pytest.mark.parametrize("mode", [m.value for m in M.FusionMode])
    def test_every_fusion_mode_passes_gradcheck(self, mode):
        from emofuse.gradcheck import MODEL_TOLERANCE, check_model
        for seed in (0, 1):
            assert check_model(seed=seed, mode=mode) <= MODEL_TOLERANCE


class TestShapeLedger:
    def test_every_stage_shape(self, params, rng):
        """34×n -> 128×n -> pool -> 128×m -> gate -> 128×m -> concat 256×m
        -> BiLSTM 400×m -> maxpool 400 -> head 128 -> 4."""
        from emofuse.alignment import temporal_align_pool
        from emofuse.model import _bilstm

        sample = make_sample(rng, n_frames=50, n_words=4)
        n, m = 50, 4
        za1 = M.acoustic_encode(T.Tensor(sample.features), params)
        assert za1.shape == (128, n)
        za2 = temporal_align_pool(za1, sample.alignment)
        assert za2.shape == (128, m)
        zs = T.linear(T.Tensor(sample.token_vectors), params.sem_w, params.sem_b)
        assert zs.shape == (128, m)
        gated = M.cross_modality_excite(zs, za2, params)
        assert gated.shape == (128, m)
        fused = T.concat_rows(gated, zs)
        assert fused.shape == (256, m)
        states = _bilstm(fused, lengths=np.array([m]), params=params)
        assert states.shape == (400, m)
        pooled = T.maxpool_steps(states, [m])
        assert pooled.shape == (400, 1)
        hidden = T.relu(T.linear(pooled, params.fcn1_w, params.fcn1_b))
        assert hidden.shape == (128, 1)
        logits = T.linear(hidden, params.fcn2_w, params.fcn2_b)
        assert logits.shape == (4, 1)


class TestLoss:
    def test_zero_params_give_batch_times_log4(self, rng):
        with T.precision(64):
            batch = [make_sample(rng, label=i % 4, rid=f"b{i}") for i in range(5)]
            value = M.loss(batch, M.ModelParams.zeros(), "tempalign-cme").item()
            assert value == pytest.approx(5 * np.log(4.0), abs=1e-9)

    def test_mean_reduction(self, rng):
        with T.precision(64):
            batch = [make_sample(rng, label=i % 4, rid=f"b{i}") for i in range(5)]
            value = M.loss(batch, M.ModelParams.zeros(), "tempalign", reduction="mean").item()
            assert value == pytest.approx(np.log(4.0), abs=1e-9)

    def test_confident_correct_prediction_near_zero(self, rng):
        arrays = {name: np.zeros(shape) for name, shape in M.PARAM_SHAPES.items()}
        arrays["fcn2_b"] = np.array([50.0, 0.0, 0.0, 0.0])
        params = M.ModelParams.from_arrays(arrays)
        value = M.loss([make_sample(rng, label=0)], params, "tempalign").item()
        assert value <= 1e-6

    def test_invalid_label_rejected(self, params, rng):
        bad = dataclasses.replace(make_sample(rng), label=9)
        with pytest.raises(InputError):
            M.loss([bad], params, "tempalign")

    def test_empty_batch_rejected(self, params):
        with pytest.raises(InputError):
            M.loss([], params, "tempalign")

    def test_loss_sum_equals_sum_of_singles(self, params, rng):
        with T.precision(64):
            batch = [make_sample(rng, n_frames=25 + i, n_words=2 + i, label=i, rid=f"b{i}")
                     for i in range(3)]
            total = M.loss(batch, params, "tempalign-cme").item()
            singles = sum(M.loss([s], params, "tempalign-cme").item() for s in batch)
            assert total == pytest.approx(singles, rel=1e-10)


class TestFusionMode:
    def test_parse_accepts_value_and_enum(self):
        assert M.FusionMode.parse("tempalign-cme") is M.FusionMode.TEMP_ALIGN_CME
        assert M.FusionMode.parse(M.FusionMode.UTT_CONCAT) is M.FusionMode.UTT_CONCAT
        assert M.FusionMode.parse(" TempAlign ") is M.FusionMode.TEMP_ALIGN

    def test_parse_rejects_unknown(self):
        with pytest.raises(InputError):
            M.FusionMode.parse("attnfusion")


def header_edit(edit):
    """A corruption that replaces a checkpoint's JSON header by edit(header)."""
    def corrupt(blob):
        header_len = int.from_bytes(blob[12:16], "little")
        header = edit(json.loads(blob[16:16 + header_len]))
        raw = header if isinstance(header, bytes) else json.dumps(header).encode()
        return blob[:12] + len(raw).to_bytes(4, "little") + raw + blob[16 + header_len:]
    return corrupt


def tensor_edit(name, **fields):
    """A header edit that overrides fields of one tensor's table entry."""
    return header_edit(lambda h: {**h, "tensors": [{**e, **fields} if e["name"] == name else e
                                                   for e in h["tensors"]]})


def payload_edit(name, value):
    """A corruption that overwrites the first value of one tensor's payload."""
    def corrupt(blob):
        header_len = int.from_bytes(blob[12:16], "little")
        entry = next(e for e in json.loads(blob[16:16 + header_len])["tensors"]
                     if e["name"] == name)
        at = 16 + header_len + entry["offset"]
        return blob[:at] + np.float32(value).tobytes() + blob[at + 4:]
    return corrupt


class TestCheckpoint:
    def _checkpoint(self, params):
        return M.Checkpoint(
            params=params,
            fusion_mode=M.FusionMode.TEMP_ALIGN_CME,
            feature_mean=np.linspace(0, 1, 34),
            feature_std=np.linspace(1, 2, 34),
        )

    def test_round_trip(self, tmp_path, params):
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        loaded = M.load_checkpoint(path)
        assert loaded.fusion_mode is M.FusionMode.TEMP_ALIGN_CME
        np.testing.assert_allclose(loaded.feature_mean, np.linspace(0, 1, 34), atol=1e-7)
        for (_, a), (_, b) in zip(self._checkpoint(params).params.named(), loaded.params.named()):
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data)

    def test_round_trip_preserves_predictions(self, tmp_path, params, rng):
        sample = make_sample(rng)
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        loaded = M.load_checkpoint(path)
        a = M.forward(sample, params, "tempalign-cme").data
        b = M.forward(sample, loaded.params, "tempalign-cme").data
        np.testing.assert_array_equal(a, b)

    def test_loaded_params_train_in_place(self, tmp_path, params):
        from emofuse import training
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        loaded = M.load_checkpoint(path).params
        before = loaded.fcn2_b.data.copy()
        for t in loaded.tensors():
            t.grad = np.ones_like(t.data)
        training.adam_step(loaded, training.AdamState(loaded), training.TrainConfig())
        assert np.all(loaded.fcn2_b.data < before)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.emc"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(InputError):
            M.load_checkpoint(path)

    def test_rejects_tampered_shapes(self, tmp_path, params):
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        blob = path.read_bytes()
        tampered = blob.replace(b'"name": "cme_w", "nbytes"', b'"name": "cme_x", "nbytes"')
        path.write_bytes(tampered)
        with pytest.raises(InputError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda blob: b"EMOFCKPT\x01\x00", id="truncated-version"),
        pytest.param(lambda blob: blob[:40], id="truncated-header"),
        pytest.param(header_edit(lambda h: b"\xff\xfe{}"), id="non-utf8-header"),
        pytest.param(header_edit(lambda h: b"{not json"), id="invalid-json"),
        pytest.param(header_edit(lambda h: [h]), id="header-not-object"),
        pytest.param(header_edit(lambda h: {k: v for k, v in h.items() if k != "tensors"}),
                     id="missing-key"),
        pytest.param(tensor_edit("cme_w", shape=[7, 3]), id="shape-nbytes-mismatch"),
        pytest.param(tensor_edit("cme_w", nbytes=6), id="nbytes-not-float32"),
        pytest.param(tensor_edit("feature_std", shape=[2, 17]), id="stats-wrong-shape"),
        pytest.param(header_edit(lambda h: {**h, "tensors": h["tensors"] + [
            {**h["tensors"][0], "name": 5}, {**h["tensors"][0], "name": "x"}]}),
            id="mixed-type-names"),
        pytest.param(payload_edit("cme_w", np.nan), id="nan-weight"),
        pytest.param(payload_edit("feature_mean", np.inf), id="inf-statistic"),
        pytest.param(payload_edit("feature_std", -1.0), id="negative-std"),
        pytest.param(header_edit(lambda h: {**h, "pool_mode": "max"}), id="unknown-pool-mode"),
        pytest.param(header_edit(lambda h: {**h, "fusion_mode": 5}), id="fusion-mode-not-string"),
    ])
    def test_rejects_malformed_content(self, tmp_path, params, corrupt):
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InputError):
            M.load_checkpoint(path)
