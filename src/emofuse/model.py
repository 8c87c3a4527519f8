"""The multimodal classifier: CNN acoustic encoder, linear semantic encoder,
semantic-gated recalibration of pooled acoustic features, BiLSTM over words,
max-pool and a two-layer head.

Three fusion modes are supported:
  - "uttconcat":      mean-pool each modality over time, concatenate once.
  - "tempalign":      pool frames into word columns via the alignment
                      matrix, concatenate word-wise with semantics.
  - "tempalign-cme":  as tempalign, but the pooled acoustic columns are
                      first scaled elementwise by a sigmoid gate computed
                      from the semantic embedding.

Shape ledger: 34×n → CNN, its 128×n output pooled inside the op by the
alignment → 128×m → gate → 128×m → concat → 256×m → BiLSTM, max-pooled
over the m steps → 400 → head → 4. In uttconcat the op's pooling is each
utterance's mean frame, 128×1, and the BiLSTM runs one step.

Batching packs each modality's inputs once, so the graph has the same
nodes at every batch size: the frames side by side for the one acoustic
encoder, ``acoustic_encode``, whose CNN op returns them already pooled
(word columns, or one mean column per utterance in uttconcat), so its
128×N output never becomes a graph node; and the token vectors (their
means, in uttconcat) for one semantic linear.
The word columns sit one sequence after another. One op runs the BiLSTM
and its max-pool over them in every mode (uttconcat is its one-step case),
ordering the steps by length inside, so each step computes only the
sequences still running.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from . import tensor as T
# temporal_align_pool stays bound here, where perfbench's tracer looks it up
from .alignment import temporal_align_pool, word_entries  # noqa: F401
from .data import PreparedSample, check_label
from .dsp import N_FEATURES, feature_order_hash
from .errors import InputError

N_CLASSES = 4
CNN_KERNELS = (20, 10, 2)
CNN_CHANNELS = (64, 32, 32)
ACOUSTIC_DIM = 128           # 64 + 32 + 32, all three layer outputs stacked
SEMANTIC_DIM = 128
EMBEDDING_DIM = 300
LSTM_HIDDEN = 200
FCN_HIDDEN = 128
FUSED_DIM = ACOUSTIC_DIM + SEMANTIC_DIM

PARAM_SHAPES: dict[str, tuple[int, ...]] = {
    "conv1_w": (CNN_CHANNELS[0], N_FEATURES, CNN_KERNELS[0]),
    "conv1_b": (CNN_CHANNELS[0],),
    "conv2_w": (CNN_CHANNELS[1], CNN_CHANNELS[0], CNN_KERNELS[1]),
    "conv2_b": (CNN_CHANNELS[1],),
    "conv3_w": (CNN_CHANNELS[2], CNN_CHANNELS[1], CNN_KERNELS[2]),
    "conv3_b": (CNN_CHANNELS[2],),
    "sem_w": (SEMANTIC_DIM, EMBEDDING_DIM),
    "sem_b": (SEMANTIC_DIM,),
    "cme_w": (ACOUSTIC_DIM, SEMANTIC_DIM),
    "lstm_fw_wx": (4 * LSTM_HIDDEN, FUSED_DIM),
    "lstm_fw_wh": (4 * LSTM_HIDDEN, LSTM_HIDDEN),
    "lstm_fw_b": (4 * LSTM_HIDDEN,),
    "lstm_bw_wx": (4 * LSTM_HIDDEN, FUSED_DIM),
    "lstm_bw_wh": (4 * LSTM_HIDDEN, LSTM_HIDDEN),
    "lstm_bw_b": (4 * LSTM_HIDDEN,),
    "fcn1_w": (FCN_HIDDEN, 2 * LSTM_HIDDEN),
    "fcn1_b": (FCN_HIDDEN,),
    "fcn2_w": (N_CLASSES, FCN_HIDDEN),
    "fcn2_b": (N_CLASSES,),
}
EXPECTED_PARAM_COUNT = 904_132


class FusionMode(str, Enum):
    UTT_CONCAT = "uttconcat"
    TEMP_ALIGN = "tempalign"
    TEMP_ALIGN_CME = "tempalign-cme"

    @classmethod
    def parse(cls, value: "FusionMode | str") -> "FusionMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(value.strip().lower())
        except (AttributeError, ValueError):
            raise InputError(
                f"unknown fusion mode {value!r}; pick one of "
                f"{[m.value for m in cls]}") from None


@dataclass
class ModelParams:
    """All trainable weights; shapes are fixed and asserted at construction."""

    conv1_w: T.Tensor
    conv1_b: T.Tensor
    conv2_w: T.Tensor
    conv2_b: T.Tensor
    conv3_w: T.Tensor
    conv3_b: T.Tensor
    sem_w: T.Tensor
    sem_b: T.Tensor
    cme_w: T.Tensor
    lstm_fw_wx: T.Tensor
    lstm_fw_wh: T.Tensor
    lstm_fw_b: T.Tensor
    lstm_bw_wx: T.Tensor
    lstm_bw_wh: T.Tensor
    lstm_bw_b: T.Tensor
    fcn1_w: T.Tensor
    fcn1_b: T.Tensor
    fcn2_w: T.Tensor
    fcn2_b: T.Tensor

    def __post_init__(self):
        total = 0
        for name, shape in PARAM_SHAPES.items():
            tensor = getattr(self, name)
            if tensor.shape != shape:
                raise InputError(f"parameter {name} has shape {tensor.shape}, expected {shape}")
            total += tensor.size
        assert total == EXPECTED_PARAM_COUNT, total

    def named(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def tensors(self) -> list[T.Tensor]:
        return [t for _, t in self.named()]

    def zero_grad(self) -> None:
        for t in self.tensors():
            t.zero_grad()

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], requires_grad: bool = True):
        return cls(**{name: T.Tensor(arr, requires_grad=requires_grad)
                      for name, arr in arrays.items()})


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 3:  # conv filters: fan counts include the kernel width
        fan_in, fan_out = shape[1] * shape[2], shape[0] * shape[2]
    else:
        fan_in, fan_out = shape[1], shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(seed: int = 0) -> ModelParams:
    """Glorot-uniform weights, zero biases, LSTM forget-gate bias 1."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in PARAM_SHAPES.items():
        if len(shape) == 1:
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = _glorot(rng, shape)
    for name in ("lstm_fw_b", "lstm_bw_b"):
        arrays[name][LSTM_HIDDEN:2 * LSTM_HIDDEN] = 1.0
    return ModelParams.from_arrays(arrays)


# ---------------------------------------------------------------------------
# network stages


def acoustic_encode(features: Sequence[np.ndarray], params: ModelParams,
                    alignments: Sequence[np.ndarray] | None = None) -> T.Tensor:
    """34×n_b feature arrays, one per utterance -> their pooled 128-row CNN
    columns: given one alignment matrix [n_b × m_b] per utterance, the word
    columns [128 × Σ m_b], each word summing its frames in time order;
    without, each utterance's mean frame [128 × B]. The pooling runs inside
    the CNN op, so the frame-level output never leaves it.

    Three stacked 1-d conv layers with relu, one ``conv_relu_stack`` whose
    output stacks all three layer outputs (64 + 32 + 32 rows). The batch
    runs as one matrix, packed in the tensor dtype: max(CNN_KERNELS)//2
    zero columns, which no kernel can reach across, sit between
    neighbours, so each layer is one conv. A 0/1 column mask re-zeroes the
    gaps after each layer that feeds another; nothing reads them after.
    The outer ends need no gap, as the conv pads them with zeros itself.
    """
    gap = max(CNN_KERNELS) // 2
    widths = [x.shape[1] for x in features]
    starts = np.cumsum([0] + [w + gap for w in widths[:-1]])
    packed = np.zeros((features[0].shape[0], starts[-1] + widths[-1]), dtype=T.default_dtype())
    keep = np.zeros(packed.shape[1], dtype=packed.dtype)
    for x, start, width in zip(features, starts, widths):
        packed[:, start:start + width] = x
        keep[start:start + width] = 1.0
    layers = [(params.conv1_w, params.conv1_b), (params.conv2_w, params.conv2_b),
              (params.conv3_w, params.conv3_b)]
    if alignments is None:
        pooling = {"spans": [(lo, lo + width) for lo, width in zip(starts, widths)]}
    else:
        pooling = {"entries": word_entries(alignments, starts, widths)}
    return T.conv_relu_stack(T.Tensor(packed), layers, keep, **pooling)


def cross_modality_excite(z_s: T.Tensor, z_a2: T.Tensor,
                          params: ModelParams) -> T.Tensor:
    """Scale pooled acoustic columns by a semantic sigmoid gate in (0, 1)."""
    gate = T.sigmoid(T.matmul(params.cme_w, z_s))
    return T.hadamard(gate, z_a2)


def forward_batch(samples: Sequence[PreparedSample], params: ModelParams,
                  mode: FusionMode | str) -> T.Tensor:
    """Class probabilities [4 × B] for a batch of prepared samples."""
    mode = FusionMode.parse(mode)
    if not samples:
        raise InputError("forward_batch needs at least one sample")

    features = [s.features for s in samples]
    if mode is FusionMode.UTT_CONCAT:
        lengths = np.ones(len(samples), dtype=np.int64)
        z_a = acoustic_encode(features, params)
        # the semantic linear commutes with the mean over an utterance's words
        tokens = np.stack([s.token_vectors.mean(axis=1) for s in samples], axis=1)
    else:
        lengths = np.array([s.n_words for s in samples], dtype=np.int64)
        z_a = acoustic_encode(features, params, [s.alignment for s in samples])
        tokens = np.concatenate([s.token_vectors for s in samples], axis=1,
                                dtype=T.default_dtype())
    z_s = T.linear(T.Tensor(tokens), params.sem_w, params.sem_b)
    if mode is FusionMode.TEMP_ALIGN_CME:
        z_a = cross_modality_excite(z_s, z_a, params)

    pooled_state = T.bilstm_max(
        T.concat_rows(z_a, z_s), (params.lstm_fw_wx, params.lstm_fw_wh, params.lstm_fw_b),
        (params.lstm_bw_wx, params.lstm_bw_wh, params.lstm_bw_b), lengths)
    hidden = T.relu(T.linear(pooled_state, params.fcn1_w, params.fcn1_b))
    logits = T.linear(hidden, params.fcn2_w, params.fcn2_b)
    return T.softmax_columns(logits)


def forward(sample: PreparedSample, params: ModelParams, mode: FusionMode | str) -> T.Tensor:
    """Class probabilities [4 × 1] for one utterance."""
    return forward_batch([sample], params, mode)


def loss(samples: Sequence[PreparedSample], params: ModelParams,
         mode: FusionMode | str) -> T.Tensor:
    """Cross-entropy summed over a batch."""
    if not samples:
        raise InputError("loss needs a nonempty batch")
    for s in samples:
        check_label(s.label, f"sample {s.id!r}: label")
    probs = forward_batch(samples, params, mode)
    onehot = np.zeros((N_CLASSES, len(samples)))
    onehot[[s.label for s in samples], np.arange(len(samples))] = 1.0
    return T.cross_entropy(probs, onehot)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"EMOFCKPT"
_CKPT_VERSION = 1


@dataclass
class Checkpoint:
    """Trained parameters plus everything needed to reproduce inference."""

    params: ModelParams
    fusion_mode: FusionMode
    feature_mean: np.ndarray
    feature_std: np.ndarray

    def stats(self) -> tuple[np.ndarray, np.ndarray]:
        return self.feature_mean, self.feature_std


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Versioned container: every tensor as named 32-bit values plus the
    feature-order hash the parameters were trained against."""
    entries = []
    blobs = []
    offset = 0
    named = list(ckpt.params.named()) + [
        ("feature_mean", T.Tensor(ckpt.feature_mean)),
        ("feature_std", T.Tensor(ckpt.feature_std)),
    ]
    for name, tensor in named:
        blob = np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(tensor.shape),
                        "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({
        "version": _CKPT_VERSION,
        "fusion_mode": ckpt.fusion_mode.value,
        "feature_order_hash": feature_order_hash(),
        "tensors": entries,
    }, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, verifying shapes and the feature-order hash.

    Truncated or malformed content raises InputError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_CKPT_MAGIC):
        raise InputError(f"{path}: not a checkpoint file")
    try:
        version, header_len = struct.unpack_from("<II", blob, len(_CKPT_MAGIC))
        if version != _CKPT_VERSION:
            raise InputError(f"{path}: unsupported checkpoint version {version}")
        start = len(_CKPT_MAGIC) + 8
        header = json.loads(blob[start:start + header_len].decode("utf-8"))
        if not isinstance(header, dict):
            raise InputError(f"{path}: checkpoint header is not a JSON object")
        payload = memoryview(blob)[start + header_len:]  # slices of it copy nothing
        if header["feature_order_hash"] != feature_order_hash():
            raise InputError(
                f"{path}: checkpoint was built against a different feature order "
                f"({header['feature_order_hash']} vs {feature_order_hash()})")
        arrays: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            name, offset, nbytes, shape = (str(entry["name"]), entry["offset"],
                                           entry["nbytes"], list(entry["shape"]))
            # bool is an int subclass; JSON true must not pass as offset 1
            if not all(type(v) is int and v >= 0 for v in (offset, nbytes, *shape)):
                raise InputError(f"{path}: tensor {name} needs non-negative integer "
                                 f"offset, nbytes and shape, got {offset!r}, {nbytes!r}, {shape!r}")
            if nbytes != 4 * math.prod(shape):
                raise InputError(f"{path}: tensor {name} has {nbytes} bytes for shape {shape}")
            if name in arrays:
                raise InputError(f"{path}: tensor {name} is listed twice")
            raw = payload[offset:offset + nbytes]
            if len(raw) != nbytes:
                raise InputError(f"{path}: truncated checkpoint payload")
            # the one copy of each tensor: a view of the file's bytes would be read-only
            arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        fusion_mode = FusionMode.parse(header["fusion_mode"])
        # older files record the pooling; every model since sums each word's frames
        if header.get("pool_mode", "sum") != "sum":
            raise InputError(f"{path}: checkpoint was trained with pool mode "
                             f"{header['pool_mode']!r}; only 'sum' is supported")
    except InputError:
        raise
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise InputError(f"{path}: tensor {name} holds non-finite values")
    feature_mean = arrays.pop("feature_mean", None)
    feature_std = arrays.pop("feature_std", None)
    if feature_mean is None or feature_std is None:
        raise InputError(f"{path}: checkpoint is missing the normalization statistics")
    if feature_mean.shape != (N_FEATURES,) or feature_std.shape != (N_FEATURES,):
        raise InputError(f"{path}: normalization statistics must be {N_FEATURES}-vectors")
    if not np.all(feature_std > 0):
        raise InputError(f"{path}: normalization std must be positive")
    missing = set(PARAM_SHAPES) - set(arrays)
    extra = set(arrays) - set(PARAM_SHAPES)
    if missing or extra:
        raise InputError(f"{path}: checkpoint tensors do not match the model "
                         f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    for name, arr in arrays.items():
        if arr.shape != PARAM_SHAPES[name]:
            raise InputError(
                f"{path}: tensor {name} has shape {arr.shape}, expected {PARAM_SHAPES[name]}")
    params = ModelParams.from_arrays(arrays, requires_grad=False)  # a forward builds no graph
    return Checkpoint(
        params=params,
        fusion_mode=fusion_mode,
        feature_mean=np.asarray(feature_mean, dtype=np.float64),
        feature_std=np.asarray(feature_std, dtype=np.float64),
    )
