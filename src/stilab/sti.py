"""Spatial-Temporal Interaction between patch embeddings and attribute words.

Spatial interaction projects patches and words through ReLU linear maps and
scores each frame by the maximum dot product over all (patch, word) pairs;
the score rescales that frame's embedding. Temporal interaction turns
word-to-frame similarities into a softmax saliency over frames (averaged
across words) and aggregates frame embeddings with those weights into one
class-conditional video feature. Both stages can be toggled off; with both
off the result is exactly the mean-pool baseline.
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
# ---------------------------------------------------------------------------

def project_nodes(x: TapeTensor, weight: TapeTensor) -> TapeTensor:
    """ReLU(x . W): the shared projection for patches and words."""
    return ad.relu(ad.matmul(x, weight))


def spatial_nodes(
    proj_patches: TapeTensor, proj_words: TapeTensor, frames: TapeTensor
) -> tuple[TapeTensor, TapeTensor]:
    """Per-frame MaxSim scores and score-rescaled frame features.

    proj_patches is (..., T, N_p, D), proj_words (N_w, D), frames (..., T, D).
    The scores come from the fused ``ad.maxsim`` primitive: ties resolve to
    the lexicographically smallest (patch, word) pair, and the backward
    reaches only each frame's winning patch and word rows.
    """
    scores = ad.maxsim(proj_patches, proj_words)  # (..., T)
    feats = ad.mul(ad.expand_dims(scores, -1), frames)
    return scores, feats


def temporal_nodes(
    spatial_feats: TapeTensor, proj_words: TapeTensor, tau: float
) -> TapeTensor:
    """Frame saliency: per-word softmax over frames, averaged across words."""
    logits = ad.mul(ad.matmul(spatial_feats, ad.transpose(proj_words)), 1.0 / tau)
    per_word = ad.softmax(logits, axis=-2)  # softmax over the frame axis
    return ad.mean_reduce(per_word, axis=-1)  # (..., T)


def aggregate_nodes(frames: TapeTensor, weights: TapeTensor) -> TapeTensor:
    """Saliency-weighted sum of frame embeddings."""
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
    proj_patches: TapeTensor | None = None,
) -> dict[str, TapeTensor | None]:
    """Full interaction pipeline on a tape.

    With the spatial stage off, frame features pass through unscaled (scores
    read as 1). With the temporal stage off the aggregation is the exact
    arithmetic frame mean, so disabling both reproduces the mean-pool
    baseline bitwise. ``proj_patches`` may be passed in to share one patch
    projection across many classes.
    """
    if words.shape[0] < 1:
        raise ShapeMismatchError("need at least one attribute word embedding")
    needs_words = toggles.spatial or toggles.temporal
    proj_words = project_nodes(words, word_weight) if needs_words else None

    if toggles.spatial:
        if proj_patches is None:
            proj_patches = project_nodes(patches, patch_weight)
        scores, spatial_feats = spatial_nodes(proj_patches, proj_words, frames)
    else:
        scores, spatial_feats = None, frames

    if toggles.temporal:
        saliency = temporal_nodes(spatial_feats, proj_words, tau_saliency)
        feature = aggregate_nodes(frames, saliency)
    else:
        saliency = None
        feature = ad.mean_reduce(frames, axis=-2)

    return {
        "feature": feature,
        "spatial_scores": scores,
        "spatial_features": spatial_feats,
        "saliency": saliency,
    }


# ---------------------------------------------------------------------------
# array-facing operations
# ---------------------------------------------------------------------------

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
    scores, feats = spatial_nodes(
        tape.constant(proj_patches), tape.constant(proj_words), tape.constant(frame_embeddings)
    )
    return SpatialResult(spatial_scores=scores.data, spatial_features=feats.data)


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
    spatial = SpatialResult(
        spatial_scores=scores.data if scores is not None else np.ones(t),
        spatial_features=nodes["spatial_features"].data,
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
