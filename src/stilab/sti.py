"""Spatial-Temporal Interaction between patch embeddings and attribute words.

Spatial interaction projects patches and words through ReLU linear maps and
scores each frame by the maximum dot product over all (patch, word) pairs.
The patch projection runs inside the fused MaxSim primitive
(``ad.maxsim(..., weight=W_p)``), so a training step's backward reaches the
projection only through each score's winning patch row. Given raw features
and the video encoder instead of encoded patches and frames, the pipeline
encodes the patches inside the same MaxSim loop (``ad.encoded_maxsim``),
which also yields the frames; that loop runs, for the frames alone, with the
spatial stage off too.
Temporal interaction turns word-to-frame similarities into a softmax
saliency over frames (averaged across words) and aggregates frame embeddings
with those weights into one class-conditional video feature. The spatial
score reaches the feature only through the saliency: it scales that frame's
temporal logits, and the aggregation sums the unscaled frame embeddings.
Both stages can be toggled off; with the temporal stage off the feature is
the frame mean whatever the spatial stage does, so with both off the result
is exactly the mean-pool baseline.

The words are segmented: K classes' words concatenated into one matrix
with K+1 offsets, so that one pass scores every class (see the tape graph
builders below). A single class is the one-segment case of the same code,
and every stage carries the K axis; only ``sti_pipeline_nodes``, called
without segments, drops it, once, at its exit. Training, evaluation and
saliency export (``sti_forward``) all run that one raw-feature pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Tape, TapeTensor
from .encoders import EncoderParams, FrameEmbeddingSet, TextEmbeddingSequence

Array = np.ndarray

DEFAULT_SALIENCY_TEMPERATURE = 0.07


def check_saliency_temperature(tau_saliency: float) -> None:
    """The one rule for a saliency temperature: finite and positive."""
    if not (np.isfinite(tau_saliency) and tau_saliency > 0):
        raise ValueError(f"tau_saliency must be finite and positive: {tau_saliency!r}")


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
        check_saliency_temperature(self.tau_saliency)

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


# ---------------------------------------------------------------------------
# tape graph builders (shared by the numpy wrappers, the objective and the
# trainer, so there is exactly one implementation of the math)
#
# Words come as K segments, one per class, concatenated into one (N_w, D)
# matrix and split by ``segments`` offsets (see ``ad.segment_offsets``), so
# every class is scored in one pass: spatial scores and saliency carry a
# trailing K axis, (..., T, K), and the feature a K axis before D,
# (..., K, D). ``segments=None`` is one segment over every word, K = 1.
# ---------------------------------------------------------------------------

def project_nodes(x: TapeTensor, weight: TapeTensor) -> TapeTensor:
    """ReLU(x . W): the word projection (``spatial_nodes`` projects the
    patches inside the fused MaxSim, by the same arithmetic)."""
    return ad.relu(ad.matmul(x, weight))


def spatial_nodes(
    patches: TapeTensor,
    proj_words: TapeTensor | None,
    segments=None,
    patch_weight: TapeTensor | None = None,
    encoder: tuple[TapeTensor, TapeTensor] | None = None,
):
    """Per-frame MaxSim score of each segment of words.

    patches is (..., T, N_p, D) and proj_words (N_w, D); the scores are
    (..., T, K), or (..., T) without segments. With ``patch_weight`` the
    patches are projected, ReLU(patches . W_p), inside the fused
    ``ad.maxsim`` primitive; without it they are scored as given. Within a
    segment, ties resolve to the lexicographically smallest (patch, word)
    pair, and the backward reaches only each score's winning patch and word
    rows, and the projection through those rows alone.

    With an ``encoder`` pair (W_v, b) the patches are constant raw features,
    encoded chunk by chunk inside the same loop (``ad.encoded_maxsim``), and
    the result is (frames, scores): the (..., T, D) frame means of the
    encoded patches, and the scores, or None when ``proj_words`` is None.
    """
    if encoder is None:
        return ad.maxsim(patches, proj_words, segments, weight=patch_weight)
    return ad.encoded_maxsim(patches, *encoder, proj_words, segments, weight=patch_weight)


def _segment_maps(num_words: int, segments) -> tuple[Array, Array]:
    """(spread, pool) constants for the segments of ``num_words`` words.

    spread (K, N_w) copies each segment's value to its words; pool (N_w, K)
    averages each segment's words.
    """
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
    at frame t, where s are the (..., T, K) spatial ``scores``; with the
    spatial stage off (``scores=None``) s reads 1. One ``frames @
    proj_wordsᵀ`` serves every segment. frames is (..., T, D); the saliency
    is (..., T, K), with K = 1 without segments.
    """
    spread, pool = _segment_maps(proj_words.shape[0], segments)
    tape = frames.tape
    logits = ad.matmul(frames, ad.transpose(proj_words))  # (..., T, N_w)
    if scores is not None:
        logits = ad.mul(logits, ad.matmul(scores, tape.constant(spread)))
    per_word = ad.softmax(ad.mul(logits, 1.0 / tau), axis=-2)  # softmax over the frame axis
    return ad.matmul(per_word, tape.constant(pool))


def aggregate_nodes(frames: TapeTensor, weights: TapeTensor) -> TapeTensor:
    """Saliency-weighted sum of frame embeddings: (..., T, D) frames against
    (..., T, K) weights give one feature per segment, (..., K, D)."""
    return ad.weighted_sum(frames, weights)


def sti_pipeline_nodes(
    *,
    patches: TapeTensor,
    frames: TapeTensor | None = None,
    encoder: tuple[TapeTensor, TapeTensor] | None = None,
    words: TapeTensor,
    patch_weight: TapeTensor,
    word_weight: TapeTensor,
    tau_saliency: float,
    toggles: InteractionToggles,
    segments=None,
) -> dict[str, TapeTensor | None]:
    """Full interaction pipeline on a tape, for every segment of words at once.

    Words are projected once, by ``project_nodes``; the patches are
    projected inside the spatial stage's fused MaxSim, and not at all with
    that stage off. With the spatial stage off, frames enter the saliency
    unscaled (scores read as 1). With the temporal stage off the aggregation
    is the exact arithmetic frame mean, so disabling both reproduces the
    mean-pool baseline bitwise; that feature is the same for every segment,
    so it is (..., 1, D).

    Without ``segments`` all words are one segment, and its size-1 K axis is
    dropped here, once: the feature is (..., D), and the scores and saliency
    (..., T).

    Give either encoded ``patches`` and their ``frames``, or constant raw
    features as ``patches`` with the video ``encoder`` pair (W_v, b): the
    spatial stage then encodes them inside its MaxSim loop and yields the
    frames too, and with that stage off the same loop yields the frames only.
    """
    if (frames is None) == (encoder is None):
        raise ValueError("give either frames or an encoder, not both or neither")
    if words.shape[0] < 1:
        raise ShapeMismatchError("need at least one attribute word embedding")
    one_segment = segments is None
    segments = ad.segment_offsets(segments, words.shape[0])
    needs_words = toggles.spatial or toggles.temporal
    proj_words = project_nodes(words, word_weight) if needs_words else None

    scores = None
    if encoder is not None:
        frames, scores = spatial_nodes(
            patches, proj_words if toggles.spatial else None, segments, patch_weight, encoder
        )
    elif toggles.spatial:
        scores = spatial_nodes(patches, proj_words, segments, patch_weight)

    if toggles.temporal:
        saliency = temporal_nodes(frames, proj_words, tau_saliency, scores, segments)
        feature = aggregate_nodes(frames, saliency)
    else:
        saliency = None
        mean = ad.mean_reduce(frames, axis=-2)
        feature = ad.reshape(mean, mean.shape[:-1] + (1, mean.shape[-1]))

    if one_segment:
        feature = ad.reshape(feature, feature.shape[:-2] + feature.shape[-1:])
        scores, saliency = (
            None if node is None else ad.reshape(node, node.shape[:-1]) for node in (scores, saliency)
        )
    return {"feature": feature, "spatial_scores": scores, "saliency": saliency}


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
    scores = spatial_nodes(tape.constant(proj_patches), tape.constant(proj_words)).data
    return SpatialResult(spatial_scores=scores, spatial_features=scores[:, None] * frame_embeddings)


def sti_forward(
    video: FrameEmbeddingSet,
    text: TextEmbeddingSequence,
    sti_params: STIParameters,
    enc_params: EncoderParams,
    toggles: InteractionToggles | None = None,
) -> dict[str, Array]:
    """Run the scoring pass for one (video, class) pair.

    ``video`` holds raw per-patch features. They are encoded inside the
    MaxSim loop, as training and evaluation encode them: this is
    ``sti_pipeline_nodes`` with the video encoder and one segment. Returns
    its arrays under its keys: the (D,) ``"feature"``, and the (T,)
    ``"spatial_scores"`` and ``"saliency"``, which a disabled stage reports
    as neutral values (unit scores, uniform saliency).
    """
    toggles = toggles or InteractionToggles()
    if not video.dim == text.dim == sti_params.dim == enc_params.dim:
        raise ShapeMismatchError("embedding dimensions do not match the parameters")
    tape = Tape()
    nodes = sti_pipeline_nodes(
        patches=tape.constant(video.patch_embeddings),
        encoder=(tape.constant(enc_params.video_weight), tape.constant(enc_params.video_bias)),
        words=tape.constant(text.word_embeddings),
        patch_weight=tape.constant(sti_params.patch_weight),
        word_weight=tape.constant(sti_params.word_weight),
        tau_saliency=sti_params.tau_saliency,
        toggles=toggles,
    )
    t = video.num_frames
    neutral = {"spatial_scores": np.ones(t), "saliency": np.full(t, 1.0 / t)}
    return {key: neutral[key] if node is None else node.data for key, node in nodes.items()}
