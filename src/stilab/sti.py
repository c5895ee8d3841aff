"""Spatial-Temporal Interaction between patch embeddings and attribute words.

Spatial interaction projects patches and words through ReLU linear maps and
scores each frame by the maximum dot product over all (patch, word) pairs;
the score rescales that frame's embedding. Temporal interaction turns
word-to-frame similarities into a softmax saliency over frames (averaged
across words) and aggregates frame embeddings with those weights into one
class-conditional video feature. Both stages can be toggled off; with both
off the result is exactly the mean-pool baseline.

The words may be segmented: K classes' words concatenated into one matrix
with K+1 offsets, so that one pass scores every class (see the tape graph
builders below). A single class is the one-segment case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tape, TapeTensor
from .encoders import FrameEmbeddingSet, TextEmbeddingSequence

Array = np.ndarray

DEFAULT_SALIENCY_TEMPERATURE = 0.07
SALIENCY_SUM_TOLERANCE = 1e-9


@dataclass
class STIParameters:
    """The two projection matrices and the fixed saliency temperature."""

    patch_weight: Array  # (D, D)
    word_weight: Array  # (D, D)
    tau_saliency: float = DEFAULT_SALIENCY_TEMPERATURE

    def __post_init__(self):
        self.patch_weight = np.asarray(self.patch_weight, dtype=np.float64)
        self.word_weight = np.asarray(self.word_weight, dtype=np.float64)
        if self.patch_weight.ndim != 2 or self.patch_weight.shape[0] != self.patch_weight.shape[1]:
            raise ValueError("patch_weight must be square (D, D)")
        if self.word_weight.shape != self.patch_weight.shape:
            raise ValueError("word_weight must match patch_weight's shape")
        if not (np.isfinite(self.patch_weight).all() and np.isfinite(self.word_weight).all()):
            raise ValueError("projection weights must be finite")
        if not self.tau_saliency > 0:
            raise ValueError("tau_saliency must be positive")

    @property
    def dim(self) -> int:
        return self.patch_weight.shape[0]

    @classmethod
    def identity_init(cls, dim: int, tau_saliency: float = DEFAULT_SALIENCY_TEMPERATURE):
        return cls(np.eye(dim), np.eye(dim), tau_saliency)

    @classmethod
    def random_init(cls, dim: int, seed: int, tau_saliency: float = DEFAULT_SALIENCY_TEMPERATURE):
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        return cls(
            rng.standard_normal((dim, dim)) * scale,
            rng.standard_normal((dim, dim)) * scale,
            tau_saliency,
        )


@dataclass(frozen=True)
class InteractionToggles:
    """Ablation switches for the two interaction stages."""

    spatial: bool = True
    temporal: bool = True


@dataclass(frozen=True)
class SpatialResult:
    spatial_scores: Array  # (T,)
    spatial_features: Array  # (T, D)

    def __post_init__(self):
        if self.spatial_scores.ndim != 1 or self.spatial_features.ndim != 2:
            raise ValueError("spatial_scores must be (T,), spatial_features (T, D)")
        if self.spatial_scores.shape[0] != self.spatial_features.shape[0]:
            raise ValueError("spatial scores and features disagree on frame count")
        if np.any(self.spatial_scores < 0):
            raise ValueError("spatial scores must be non-negative")


@dataclass(frozen=True)
class TemporalSaliency:
    weights: Array  # (T,)

    def __post_init__(self):
        if self.weights.ndim != 1:
            raise ValueError("saliency weights must be a vector")
        if np.any(self.weights < 0):
            raise ValueError("saliency weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > SALIENCY_SUM_TOLERANCE:
            raise ValueError("saliency weights must sum to 1")


@dataclass(frozen=True)
class STIOutput:
    video_feature: Array  # (D,)
    spatial: SpatialResult
    temporal: TemporalSaliency

    def __post_init__(self):
        if not np.isfinite(self.video_feature).all():
            raise ValueError("video feature must be finite")


# ---------------------------------------------------------------------------
# tape graph builders (shared by the numpy wrappers, the objective and the
# trainer, so there is exactly one implementation of the math)
#
# Words may come as K segments, one per class, concatenated into one
# (N_w, D) matrix and split by ``segments`` offsets (see
# ``ad.segment_offsets``). Every class is then scored in one pass: spatial
# scores and saliency gain a trailing K axis, (..., T, K), and the feature a
# K axis before D, (..., K, D). With ``segments=None`` all words form one
# segment and no K axis is added.
# ---------------------------------------------------------------------------

def project_nodes(x: TapeTensor, weight: TapeTensor) -> TapeTensor:
    """ReLU(x . W): the shared projection for patches and words."""
    return ad.relu(ad.matmul(x, weight))


def spatial_nodes(proj_patches: TapeTensor, proj_words: TapeTensor, segments=None) -> TapeTensor:
    """Per-frame MaxSim score of each segment of words.

    proj_patches is (..., T, N_p, D) and proj_words (N_w, D); the scores are
    (..., T, K), or (..., T) without segments. They come from the fused
    ``ad.maxsim`` primitive: within a segment, ties resolve to the
    lexicographically smallest (patch, word) pair, and the backward reaches
    only each score's winning patch and word rows.
    """
    return ad.maxsim(proj_patches, proj_words, segments)


def _segment_maps(num_words: int, segments) -> tuple[Array | None, Array]:
    """(spread, pool) constants for the segments of ``num_words`` words.

    spread (K, N_w) copies each segment's value to its words; pool (N_w, K)
    averages each segment's words. Without segments there is nothing to
    spread, and pool is the (N_w,) mean over all words.
    """
    if segments is None:
        return None, np.full(num_words, 1.0 / num_words)
    offsets = ad.segment_offsets(segments, num_words)
    lengths = np.diff(offsets)
    spread = np.repeat(np.eye(lengths.size), lengths, axis=1)
    return spread, spread.T / lengths


def temporal_nodes(
    frames: TapeTensor,
    proj_words: TapeTensor,
    tau: float,
    scores: TapeTensor | None = None,
    segments=None,
) -> TapeTensor:
    """Frame saliency of each segment: a softmax over frames of each word's
    logits, averaged over the segment's words.

    Word w of segment k has logit ``s[..., t, k] * (frames[..., t] . w) / tau``
    at frame t, where s are the spatial ``scores`` ((..., T, K), or (..., T)
    without segments); with the spatial stage off (``scores=None``) s reads
    1. One ``frames @ proj_wordsᵀ`` serves every segment. frames is
    (..., T, D); the saliency is (..., T, K), or (..., T) without segments.
    """
    spread, pool = _segment_maps(proj_words.shape[0], segments)
    tape = frames.tape
    logits = ad.matmul(frames, ad.transpose(proj_words))  # (..., T, N_w)
    if scores is not None:
        scale = (
            ad.expand_dims(scores, -1) if spread is None else ad.matmul(scores, tape.constant(spread))
        )
        logits = ad.mul(logits, scale)
    per_word = ad.softmax(ad.mul(logits, 1.0 / tau), axis=-2)  # softmax over the frame axis
    return ad.matmul(per_word, tape.constant(pool))


def aggregate_nodes(frames: TapeTensor, weights: TapeTensor) -> TapeTensor:
    """Saliency-weighted sum of frame embeddings: (..., T, D) frames against
    (..., T) weights give (..., D); against (..., T, K) weights, (..., K, D)."""
    return ad.weighted_sum(frames, weights)


def sti_pipeline_nodes(
    *,
    patches: TapeTensor,
    frames: TapeTensor,
    words: TapeTensor,
    patch_weight: TapeTensor,
    word_weight: TapeTensor,
    tau_saliency: float,
    toggles: InteractionToggles,
    segments=None,
    proj_patches: TapeTensor | None = None,
) -> dict[str, TapeTensor | None]:
    """Full interaction pipeline on a tape, for every segment of words at once.

    Patches and words are each projected once. With the spatial stage off,
    frames enter the saliency unscaled (scores read as 1). With the temporal
    stage off the aggregation is the exact arithmetic frame mean, so
    disabling both reproduces the mean-pool baseline bitwise; that feature is
    the same for every segment, so with segments it is (..., 1, D).
    ``proj_patches`` may be passed in when the caller has projected the
    patches already.
    """
    if words.shape[0] < 1:
        raise ShapeMismatchError("need at least one attribute word embedding")
    needs_words = toggles.spatial or toggles.temporal
    proj_words = project_nodes(words, word_weight) if needs_words else None

    scores = None
    if toggles.spatial:
        if proj_patches is None:
            proj_patches = project_nodes(patches, patch_weight)
        scores = spatial_nodes(proj_patches, proj_words, segments)

    if toggles.temporal:
        saliency = temporal_nodes(frames, proj_words, tau_saliency, scores, segments)
        feature = aggregate_nodes(frames, saliency)
    else:
        saliency = None
        feature = ad.mean_reduce(frames, axis=-2)
        if segments is not None:
            feature = ad.expand_dims(feature, -2)

    return {"feature": feature, "spatial_scores": scores, "saliency": saliency}


# ---------------------------------------------------------------------------
# array-facing operations
# ---------------------------------------------------------------------------

def _spatial_result(scores: Array, frames: Array) -> SpatialResult:
    """Scores with the frames they rescale: frame t times its score."""
    return SpatialResult(spatial_scores=scores, spatial_features=scores[:, None] * frames)


def spatial_interaction(proj_patches, proj_words, frame_embeddings) -> SpatialResult:
    """MaxSim spatial scoring of already-projected patches against words.

    Args:
        proj_patches: (T, N_p, D) projected patch embeddings.
        proj_words: (N_w, D) projected word embeddings, N_w >= 1.
        frame_embeddings: (T, D) per-frame embeddings to rescale.
    """
    proj_patches = np.asarray(proj_patches, dtype=np.float64)
    proj_words = np.asarray(proj_words, dtype=np.float64)
    frame_embeddings = np.asarray(frame_embeddings, dtype=np.float64)
    if proj_patches.ndim != 3 or proj_words.ndim != 2 or frame_embeddings.ndim != 2:
        raise ShapeMismatchError("expected patches (T,N_p,D), words (N_w,D), frames (T,D)")
    if proj_words.shape[0] < 1:
        raise ShapeMismatchError("need at least one word embedding")
    if proj_patches.shape[-1] != proj_words.shape[-1]:
        raise ShapeMismatchError("patch and word embedding dimensions differ")
    if frame_embeddings.shape[0] != proj_patches.shape[0]:
        raise ShapeMismatchError("frame count mismatch between patches and frame embeddings")
    tape = Tape()
    scores = spatial_nodes(tape.constant(proj_patches), tape.constant(proj_words))
    return _spatial_result(scores.data, frame_embeddings)


def sti_forward(
    frames: FrameEmbeddingSet,
    text: TextEmbeddingSequence,
    params: STIParameters,
    toggles: InteractionToggles | None = None,
) -> STIOutput:
    """Run the full interaction for one (video, class) pair.

    The output keeps the spatial scores and temporal saliency so they can be
    exported for inspection. Disabled stages report neutral intermediates
    (unit scores, uniform saliency).
    """
    toggles = toggles or InteractionToggles()
    if frames.dim != params.dim or text.dim != params.dim:
        raise ShapeMismatchError("embedding dimensions do not match the parameters")
    tape = Tape()
    nodes = sti_pipeline_nodes(
        patches=tape.constant(frames.patch_embeddings),
        frames=tape.constant(frames.frame_class_embeddings),
        words=tape.constant(text.word_embeddings),
        patch_weight=tape.constant(params.patch_weight),
        word_weight=tape.constant(params.word_weight),
        tau_saliency=params.tau_saliency,
        toggles=toggles,
    )
    t = frames.num_frames
    scores = nodes["spatial_scores"]
    saliency = nodes["saliency"]
    spatial = _spatial_result(
        scores.data if scores is not None else np.ones(t), frames.frame_class_embeddings
    )
    temporal = TemporalSaliency(
        weights=saliency.data if saliency is not None else np.full(t, 1.0 / t)
    )
    return STIOutput(video_feature=nodes["feature"].data, spatial=spatial, temporal=temporal)


def saliency_rows(output: STIOutput) -> list[tuple[int, float, float]]:
    """(frame index, spatial score, temporal weight) rows for export."""
    return [
        (t, float(output.spatial.spatial_scores[t]), float(output.temporal.weights[t]))
        for t in range(output.spatial.spatial_scores.shape[0])
    ]
