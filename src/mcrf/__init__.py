"""Sequence labeling with linear-chain CRFs and transition masking.

The package trains and decodes linear-chain CRFs over BIO/BIOES tagsets,
optionally masking illegal transitions with a large negative constant,
either only at decoding time or throughout training. Brute-force oracles,
segment repair strategies, chunk evaluation, and a small CLI round it out.
"""

from .crf import (
    CrfGradients,
    TokenBatch,
    TransitionMatrix,
    brute_force_best,
    brute_force_log_partition,
    log_partition,
    loss_and_gradients,
    nll_loss,
    path_score,
    viterbi,
)
from .data import (
    LabeledSentence,
    ModelState,
    SyntheticConfig,
    generate_synthetic,
    load_model,
    read_conll,
    save_model,
    split_corpus,
    write_conll,
)
from .encoder import EncoderWeights, Vocabulary, encode, encoder_backward
from .errors import (
    ConfigurationError,
    DataError,
    FormatError,
    McrfError,
    SizeError,
    TrainingError,
)
from .evaluation import ChunkMetrics, IllegalStats, chunk_prf, illegal_stats, score_paths
from .masking import (
    MaskSpec,
    apply_mask,
    constrained_viterbi,
    decode,
    masked_nll,
    mask_convergence_gap,
    reapply_mask_in_place,
)
from .postproc import Segment, extract_segments, repair_tags
from .schemes import (
    Scheme,
    Tagset,
    TransitionRuleSet,
    build_tagset,
    illegal_transition_set,
)
from .training import TrainConfig, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "ChunkMetrics",
    "ConfigurationError",
    "CrfGradients",
    "DataError",
    "EncoderWeights",
    "FormatError",
    "IllegalStats",
    "LabeledSentence",
    "MaskSpec",
    "McrfError",
    "ModelState",
    "Scheme",
    "Segment",
    "SizeError",
    "SyntheticConfig",
    "Tagset",
    "TokenBatch",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "TransitionMatrix",
    "TransitionRuleSet",
    "Vocabulary",
    "apply_mask",
    "brute_force_best",
    "brute_force_log_partition",
    "build_tagset",
    "chunk_prf",
    "constrained_viterbi",
    "decode",
    "encode",
    "encoder_backward",
    "extract_segments",
    "generate_synthetic",
    "illegal_stats",
    "illegal_transition_set",
    "load_model",
    "log_partition",
    "loss_and_gradients",
    "masked_nll",
    "nll_loss",
    "path_score",
    "mask_convergence_gap",
    "read_conll",
    "reapply_mask_in_place",
    "repair_tags",
    "save_model",
    "score_paths",
    "split_corpus",
    "train",
    "viterbi",
    "write_conll",
]
