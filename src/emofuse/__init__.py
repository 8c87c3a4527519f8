"""Fine-grained multimodal speech emotion recognition.

Frame-level acoustic features, word-level temporal alignment pooling, a
semantic excitation gate and a BiLSTM classifier, built on a small
reverse-mode autodiff core and trainable end-to-end on desk-scale data.
"""

from .alignment import AlignmentMatrix, WordSpan, build_alignment, temporal_align_pool
from .data import (EMOTIONS, EmbeddingTable, FoldPlan, PreparedSample,
                   UtteranceRecord, kfold_split, load_embeddings,
                   load_manifest, prepare_record, save_manifest,
                   synth_dataset)
from .dsp import (AudioClip, FrameFeatureMatrix, extract_llf, frame_signal,
                  read_wav, utterance_features, write_wav)
from .errors import DimensionError, DivergenceError, EmofuseError, InputError
from .estimator import EmotionRecognizer, LowLevelFeatureExtractor
from .gradcheck import check_all_ops, check_model, grad_check
from .model import (Checkpoint, FusionMode, ModelParams, cross_modality_excite,
                    forward, forward_batch, init_params, load_checkpoint, loss,
                    save_checkpoint)
from .tensor import Tensor, backward, precision
from .training import (CrossValReport, EvalReport, TrainConfig, adam_step,
                       cross_validate, evaluate, run_ablation, train_fold)

__version__ = "0.1.0"

__all__ = [
    "AlignmentMatrix", "WordSpan", "build_alignment", "temporal_align_pool",
    "EMOTIONS", "EmbeddingTable", "FoldPlan", "PreparedSample",
    "UtteranceRecord", "kfold_split", "load_embeddings", "load_manifest",
    "prepare_record", "save_manifest", "synth_dataset",
    "AudioClip", "FrameFeatureMatrix", "extract_llf", "frame_signal",
    "read_wav", "utterance_features", "write_wav",
    "DimensionError", "DivergenceError", "EmofuseError", "InputError",
    "EmotionRecognizer", "LowLevelFeatureExtractor",
    "check_all_ops", "check_model", "grad_check",
    "Checkpoint", "FusionMode", "ModelParams", "cross_modality_excite",
    "forward", "forward_batch", "init_params", "load_checkpoint", "loss",
    "save_checkpoint",
    "Tensor", "backward", "precision",
    "CrossValReport", "EvalReport", "TrainConfig", "adam_step",
    "cross_validate", "evaluate", "run_ablation", "train_fold",
    "__version__",
]
