"""stilab: language-driven descriptive attributes and spatial-temporal
interaction for zero-shot action classification over embedding sequences,
at desk scale, with a self-contained tape-based gradient engine."""

__version__ = "0.1.0"

import os as _os

# The artifact bytes hold at a fixed BLAS thread count, and OpenBLAS picks a
# count per machine. Unless one of these variables is set, pin each to one
# thread; this must run before anything imports numpy. The CLI's manifest
# records them as the run saw them.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(name in _os.environ for name in _BLAS_THREAD_VARIABLES):
    _os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))

from .attributes import ClassDescription, extract_keywords, load_description_corpus
from .autodiff import ParameterStore, Tape, finite_difference_check, parameter_gradients
from .corpus import SyntheticCorpus, SyntheticCorpusSpec, generate_synthetic_corpus
from .encoders import (
    EncoderParams,
    FrameEmbeddingSet,
    TextEmbeddingSequence,
    encode_text,
    encode_video,
    tokenize,
)
from .evaluation import (
    MetricReport,
    aggregate_splits,
    evaluate_split,
    export_saliency,
    sample_category_subset,
)
from .objective import (
    BatchRecord,
    PositiveSet,
    loss_c2v,
    loss_v2c,
    score_matrix,
    total_loss,
)
from .sti import (
    InteractionToggles,
    STIParameters,
    SpatialResult,
    spatial_interaction,
    sti_forward,
)
from .trainer import (
    Checkpoint,
    OptimizerState,
    TrainConfig,
    TrainingData,
    few_shot_finetune,
    fit,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)

__all__ = [name for name in dir() if not name.startswith("_")]
