"""Tests for the network stages, fusion modes and checkpoints."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import emofuse.tensor as T
from emofuse import model as M
from emofuse.data import PreparedSample
from emofuse.errors import DimensionError, InputError


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


def composed_cnn(features, params, alignments=None):
    """M.acoustic_encode built from separate ops over the same packed batch:
    relu(conv1d_same) per layer, the gap mask, concat_rows, then pool_cols
    or mean_cols; every layer output and the stack are graph nodes."""
    from emofuse.alignment import word_entries

    gap = max(M.CNN_KERNELS) // 2
    widths = [x.shape[1] for x in features]
    starts = np.cumsum([0] + [w + gap for w in widths[:-1]])
    packed = np.zeros((features[0].shape[0], starts[-1] + widths[-1]))
    keep = np.zeros(packed.shape[1])
    for x, start, width in zip(features, starts, widths):
        packed[:, start:start + width] = x
        keep[start:start + width] = 1.0
    layers = [(params.conv1_w, params.conv1_b), (params.conv2_w, params.conv2_b),
              (params.conv3_w, params.conv3_b)]
    h, outs = T.Tensor(packed), []
    for i, (w, b) in enumerate(layers):
        h = T.relu(T.conv1d_same(h, w, b))
        if i < len(layers) - 1:
            h = T.hadamard(h, T.Tensor(np.broadcast_to(keep, h.shape)))
        outs.append(h)
    stack = T.concat_rows(*outs)
    if alignments is None:
        return T.mean_cols(stack, [(lo, lo + width) for lo, width in zip(starts, widths)])
    return T.pool_cols(stack, *word_entries(alignments, starts, widths))


def identities(features):
    """One identity alignment per utterance: every frame its own word, so
    the encoder returns the frame-level output, without the gaps."""
    return [np.eye(x.shape[1]) for x in features]


def zero_params() -> M.ModelParams:
    return M.ModelParams.from_arrays({name: np.zeros(shape)
                                      for name, shape in M.PARAM_SHAPES.items()})


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
            xs = [rng.standard_normal((34, n))]
            assert M.acoustic_encode(xs, params, identities(xs)).shape == (128, n)
            assert M.acoustic_encode(xs, params).shape == (128, 1)

    def test_zero_params_give_zero_output(self, rng):
        xs = [rng.standard_normal((34, 20))]
        for aligns in (identities(xs), None):
            np.testing.assert_array_equal(M.acoustic_encode(xs, zero_params(), aligns).data, 0.0)

    def test_packed_batch_matches_one_at_a_time(self, params, rng):
        # lengths below, near and far above the widest kernel (20) in one batch
        with T.precision(64):
            xs = [rng.standard_normal((34, n)) for n in (1, 3, 19, 80)]
            packed = M.acoustic_encode(xs, params, identities(xs)).data
            starts = np.cumsum([0] + [x.shape[1] for x in xs[:-1]])
            for x, start in zip(xs, starts):
                out = packed[:, start:start + x.shape[1]]
                np.testing.assert_allclose(out, M.acoustic_encode([x], params, identities([x])).data,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_pooled_batch_matches_pooling_the_packed_output(self, params, rng, bits):
        from emofuse.alignment import word_entries
        with T.precision(bits):
            samples = [make_sample(rng, n_frames=n, n_words=m)
                       for n, m in ((3, 2), (40, 3), (25, 5))]
            features, aligns = [s.features for s in samples], [s.alignment for s in samples]
            frames = M.acoustic_encode(features, params, identities(features))
            widths = [x.shape[1] for x in features]
            starts = np.cumsum([0] + widths[:-1])
            spans = [(lo, lo + width) for lo, width in zip(starts, widths)]
            for pool, want in ((aligns, T.pool_cols(frames, *word_entries(aligns, starts, widths))),
                               (None, T.mean_cols(frames, spans))):
                np.testing.assert_array_equal(M.acoustic_encode(features, params, pool).data,
                                              want.data)

    def test_packed_gradients_match_one_at_a_time(self, params, rng):
        with T.precision(64):
            feats = [rng.standard_normal((34, n)) for n in (2, 25)]
            weights = [rng.standard_normal((128, n)) for n in (2, 25)]

            def conv1_grad(losses):
                trial = dataclasses.replace(params, conv1_w=T.Tensor(params.conv1_w.data,
                                                                     requires_grad=True))
                for value in losses(trial):
                    T.backward(value)
                return trial.conv1_w.grad

            def packed_losses(p):
                out = M.acoustic_encode(feats, p, identities(feats))
                return [T.sum_all(T.hadamard(out, T.Tensor(np.concatenate(weights, axis=1))))]

            def single_losses(p):
                # one graph per utterance; their gradients add up in conv1_w
                return [T.sum_all(T.hadamard(M.acoustic_encode([x], p, identities([x])),
                                             T.Tensor(w)))
                        for x, w in zip(feats, weights)]

            packed = conv1_grad(packed_losses)
            single = conv1_grad(single_losses)
            np.testing.assert_allclose(packed, single, rtol=0, atol=1e-10)


class TestCrossModalityExcite:
    def test_zero_gate_weight_halves_exactly(self, rng):
        params = zero_params()
        z_s = T.Tensor(rng.standard_normal((128, 5)))
        z_a2 = T.Tensor(rng.standard_normal((128, 5)))
        out = M.cross_modality_excite(z_s, z_a2, params)
        np.testing.assert_array_equal(out.data, 0.5 * z_a2.data)

    def test_zero_acoustic_stays_zero(self, params, rng):
        z_s = T.Tensor(rng.standard_normal((128, 4)))
        out = M.cross_modality_excite(z_s, T.Tensor(np.zeros((128, 4))), params)
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
        out = M.forward(make_sample(rng), zero_params(), "tempalign-cme")
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
            for mode in M.FusionMode:
                single = {s.id: M.forward(s, params, mode).data[:, 0] for s in samples}
                for batch in ([samples[0]], [samples[3]], samples, samples[::-1]):
                    batched = M.forward_batch(batch, params, mode).data
                    for i, sample in enumerate(batch):
                        np.testing.assert_allclose(batched[:, i], single[sample.id], atol=1e-12,
                                                   err_msg=mode.value)

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

    @pytest.mark.parametrize("rows", [35, 15])
    def test_alignment_rows_must_match_the_frames(self, params, rng, rows):
        # 35 rows would pool the gap and the next sample's first frames
        bad = dataclasses.replace(make_sample(rng, n_frames=20), alignment=np.ones((rows, 3)))
        with pytest.raises(DimensionError, match="35|15"):
            M.forward_batch([bad, make_sample(rng, n_frames=30)], params, "tempalign")


class TestGraphSize:
    @pytest.mark.parametrize("mode", [m.value for m in M.FusionMode])
    def test_op_nodes_do_not_grow_with_the_batch(self, params, rng, mode):
        samples = [make_sample(rng, n_frames=5 + 7 * i % 40, n_words=1 + i % 5, rid=f"s{i}")
                   for i in range(32)]

        def op_nodes(batch):
            graph = T._toposort(M.loss(batch, params, mode))
            return sum(1 for node in graph if node._parents)

        counts = {b: op_nodes(samples[:b]) for b in (1, 2, 13, 32)}
        assert counts[2] == counts[13] == counts[32], counts
        assert counts[1] <= counts[2], counts


class TestAcousticMemory:
    def test_the_cnn_holds_its_input_and_one_stacked_output(self):
        # 34 input rows + 128 stacked output rows per packed column; three
        # separate layers, their relu outputs, gap masks and a concat hold 514
        rng = np.random.default_rng(6)
        features = [rng.standard_normal((34, 20 * int(w))) for w in rng.integers(8, 25, size=32)]
        n_cols = sum(x.shape[1] for x in features) + max(M.CNN_KERNELS) // 2 * (len(features) - 1)
        params = M.init_params(seed=0)

        def held(encode):
            tracemalloc.start()
            try:
                acoustic = encode(features, params)
                return tracemalloc.get_traced_memory()[0], acoustic
            finally:
                tracemalloc.stop()

        fused, acoustic = held(M.acoustic_encode)
        assert acoustic.shape == (M.ACOUSTIC_DIM, len(features))
        assert n_cols > 2 * T.CONV_BLOCK
        assert fused <= 170 * 4 * n_cols < held(composed_cnn)[0], fused / (4 * n_cols)


class TestBackwardMemory:
    def test_backward_peak_stays_near_the_forward_graph(self):
        # a train-word batch: 32 utterances of 8-24 words, 20 frames a word,
        # ~10,000 packed CNN columns
        rng = np.random.default_rng(5)
        words = rng.integers(8, 25, size=32)
        samples = [make_sample(rng, n_frames=20 * int(w), n_words=int(w), label=i % 4,
                               rid=f"s{i}") for i, w in enumerate(words)]
        params = M.init_params(seed=0)
        tracemalloc.start()
        try:
            loss = M.loss(samples, params, "tempalign-cme")
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * held, (peak / 1e6, held / 1e6)


class TestPooledCnnBackwardMemory:
    def test_the_pooled_cnn_builds_its_gradient_in_its_activation(self):
        # TestBackwardMemory's batch through the CNN and its word pooling
        rng = np.random.default_rng(5)
        words = rng.integers(8, 25, size=32)
        samples = [make_sample(rng, n_frames=20 * int(w), n_words=int(w), label=i % 4,
                               rid=f"s{i}") for i, w in enumerate(words)]
        features, aligns = [s.features for s in samples], [s.alignment for s in samples]
        params = M.init_params(seed=0)
        cnn = [params.conv1_w, params.conv1_b, params.conv2_w, params.conv2_b,
               params.conv3_w, params.conv3_b]
        n_cols = sum(x.shape[1] for x in features) + max(M.CNN_KERNELS) // 2 * (len(samples) - 1)
        weigh = T.Tensor(rng.standard_normal((M.ACOUSTIC_DIM, int(words.sum()))))

        def backward_peak(pooled_words):
            params.zero_grad()
            tracemalloc.start()
            try:
                loss = T.sum_all(T.hadamard(pooled_words(), weigh))
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                T.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - held

        fused = backward_peak(lambda: M.acoustic_encode(features, params, aligns))
        composed = backward_peak(lambda: composed_cnn(features, params, aligns))
        stack_bytes = M.ACOUSTIC_DIM * n_cols * np.dtype(T.default_dtype()).itemsize
        bound = sum(t.data.nbytes for t in cnn) + stack_bytes / 2
        # pool_cols' backward allocates the stack's whole gradient
        assert fused <= bound < composed, (fused / 1e6, bound / 1e6)


class TestModelGradient:
    @pytest.mark.parametrize("mode", [m.value for m in M.FusionMode])
    def test_every_fusion_mode_passes_gradcheck(self, mode):
        from emofuse.gradcheck import MODEL_TOLERANCE, check_model
        for seed in (0, 1):
            assert check_model(seed=seed, mode=mode) <= MODEL_TOLERANCE


class TestShapeLedger:
    def test_every_stage_shape(self, params, rng):
        """34×n -> 128×n -> pool -> 128×m -> gate -> 128×m -> concat 256×m
        -> BiLSTM, max-pooled -> 400 -> head 128 -> 4."""
        from emofuse.alignment import temporal_align_pool

        sample = make_sample(rng, n_frames=50, n_words=4)
        n, m = 50, 4
        za1 = M.acoustic_encode([sample.features], params, [np.eye(n)])
        assert za1.shape == (128, n)
        za2 = temporal_align_pool(za1, sample.alignment)
        assert za2.shape == (128, m)
        assert M.acoustic_encode([sample.features], params, [sample.alignment]).shape == (128, m)
        zs = T.linear(T.Tensor(sample.token_vectors), params.sem_w, params.sem_b)
        assert zs.shape == (128, m)
        gated = M.cross_modality_excite(zs, za2, params)
        assert gated.shape == (128, m)
        fused = T.concat_rows(gated, zs)
        assert fused.shape == (256, m)
        pooled = T.bilstm_max(fused, (params.lstm_fw_wx, params.lstm_fw_wh, params.lstm_fw_b),
                              (params.lstm_bw_wx, params.lstm_bw_wh, params.lstm_bw_b), [m])
        assert pooled.shape == (400, 1)
        hidden = T.relu(T.linear(pooled, params.fcn1_w, params.fcn1_b))
        assert hidden.shape == (128, 1)
        logits = T.linear(hidden, params.fcn2_w, params.fcn2_b)
        assert logits.shape == (4, 1)


class TestLoss:
    def test_zero_params_give_batch_times_log4(self, rng):
        with T.precision(64):
            batch = [make_sample(rng, label=i % 4, rid=f"b{i}") for i in range(5)]
            value = M.loss(batch, zero_params(), "tempalign-cme").item()
            assert value == pytest.approx(5 * np.log(4.0), abs=1e-9)

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

    def test_loaded_params_build_no_graph(self, tmp_path, params, rng):
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        loaded = M.load_checkpoint(path).params
        assert not any(t.requires_grad for t in loaded.tensors())
        out = M.forward(make_sample(rng), loaded, "tempalign-cme")
        assert not out.requires_grad and out._parents == ()

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

    def test_load_copies_each_tensor_once(self, tmp_path, params):
        # the file's bytes plus one copy of each tensor; slicing the bytes
        # would copy the payload twice more
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        tracemalloc.start()
        try:
            M.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * path.stat().st_size, peak / path.stat().st_size

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
        # weights trained with the mean pooling that no longer exists
        pytest.param(header_edit(lambda h: {**h, "pool_mode": "mean"}), id="mean-pool-mode"),
        # an offset past the start would read the bytes of feature_std
        pytest.param(tensor_edit("fcn2_b", offset=-136), id="negative-offset"),
        pytest.param(tensor_edit("fcn2_b", offset=True), id="bool-offset"),
        pytest.param(tensor_edit("fcn2_b", shape=[-1]), id="negative-shape-dim"),
        pytest.param(header_edit(lambda h: {**h, "tensors": h["tensors"] + [
            {**next(e for e in h["tensors"] if e["name"] == "fcn2_b"), "offset": 0}]}),
            id="tensor-listed-twice"),
        pytest.param(header_edit(lambda h: {**h, "fusion_mode": 5}), id="fusion-mode-not-string"),
    ])
    def test_rejects_malformed_content(self, tmp_path, params, corrupt):
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(InputError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: {**h, "pool_mode": "sum"}, id="sum"),
        pytest.param(lambda h: {k: v for k, v in h.items() if k != "pool_mode"}, id="absent"),
    ])
    def test_loads_header_with_sum_or_no_pool_mode(self, tmp_path, params, edit):
        path = tmp_path / "model.emc"
        M.save_checkpoint(self._checkpoint(params), path)
        path.write_bytes(header_edit(edit)(path.read_bytes()))
        loaded = M.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.params.fcn2_w.data, params.fcn2_w.data)
