"""Class-conditional score matrix and the symmetric contrastive objective.

Scores are cosine similarities between class embeddings and the
interaction-refined video feature computed *for that class*: saliency
depends on the class's attribute words, so every (video, class) pair gets
its own feature. All K classes share one pass, though: their words are
concatenated into one segmented matrix, and the interaction yields a
(B, K, D) feature per batch. The two directional losses average, over each
anchor's positive set, the negative log-softmax of the matched score along
the opposing axis; the total is their mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import sti
from .autodiff import Tape, TapeTensor
from .encoders import FrameEmbeddingSet, TextEmbeddingSequence, encode_video_nodes
from .sti import InteractionToggles, STIParameters, sti_pipeline_nodes

Array = np.ndarray
project_nodes = sti.project_nodes  # a re-export: perfbench/tracing.py wraps it under this name

TEMPERATURE_FLOOR = 1e-3
INITIAL_TEMPERATURE = 0.07


@dataclass(frozen=True)
class BatchRecord:
    """A training batch: raw-feature frame sets plus 0-based label indices.

    Videos carry *raw* per-patch features; the video encoder runs inside
    scoring so its parameters receive gradients.
    """

    videos: tuple[FrameEmbeddingSet, ...]
    labels: Array

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if len(self.videos) < 1:
            raise ValueError("batch must contain at least one video")
        if self.labels.shape != (len(self.videos),):
            raise ValueError("need exactly one label per video")
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative indices")

    @property
    def size(self) -> int:
        return len(self.videos)


@dataclass(frozen=True)
class PositiveSet:
    """For each anchor i, the batch indices sharing its label."""

    labels: Array

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.labels.ndim != 1 or self.labels.shape[0] < 1:
            raise ValueError("labels must be a non-empty vector")

    @classmethod
    def from_labels(cls, labels) -> "PositiveSet":
        return cls(np.asarray(labels))

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    def members(self, i: int) -> Array:
        return np.nonzero(self.labels == self.labels[i])[0]

    def weight_matrix(self) -> Array:
        """W[k, i] = 1[label_k == label_i] / (B * |K(i)|).

        Contracting W against a log-softmax matrix evaluates the per-anchor
        positive-set averages of both directional losses (W is symmetric
        because |K(i)| is constant on a label group).
        """
        b = self.size
        same = self.labels[:, None] == self.labels[None, :]
        counts = same.sum(axis=0).astype(np.float64)
        return same.astype(np.float64) / (b * counts[None, :])


def _unit(v: Array) -> Array:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("class embedding has zero norm")
    return v / n


def score_matrix_nodes(
    tape: Tape,
    *,
    raw_videos: TapeTensor,
    class_word_embeddings: Sequence[Array],
    class_embeddings: Sequence[Array],
    video_weight: TapeTensor,
    video_bias: TapeTensor,
    patch_weight: TapeTensor,
    word_weight: TapeTensor,
    tau_saliency: float,
    toggles: InteractionToggles,
) -> TapeTensor:
    """Build the (B, K) cosine score matrix on a tape.

    ``raw_videos`` is the stacked (B, T, N_p, D) raw feature tensor; class
    text inputs are frozen constants. The K classes' word embeddings are
    concatenated into one (ΣN_w, D) matrix with one segment per class, so a
    single interaction pass yields every class's (B, K, D) feature; its
    row-wise cosine with the K unit class embeddings gives the scores.
    """
    if len(class_word_embeddings) != len(class_embeddings):
        raise ValueError("need one word-embedding matrix per class embedding")
    patches, frames = encode_video_nodes(raw_videos, video_weight, video_bias)
    segments = np.cumsum([0] + [len(words) for words in class_word_embeddings])
    nodes = sti_pipeline_nodes(
        patches=patches,
        frames=frames,
        words=tape.constant(np.concatenate(class_word_embeddings)),
        patch_weight=patch_weight,
        word_weight=word_weight,
        tau_saliency=tau_saliency,
        toggles=toggles,
        segments=segments,
    )
    units = np.stack([_unit(np.asarray(embedding)) for embedding in class_embeddings])
    normalized = ad.l2_normalize(nodes["feature"], axis=-1)  # (B, K, D) or (B, 1, D)
    cosines = ad.sum_reduce(ad.mul(normalized, tape.constant(units)), axis=-1)
    return ad.clip(cosines, -1.0, 1.0)


def score_matrix(
    batch: BatchRecord,
    class_texts: Sequence[TextEmbeddingSequence],
    sti_params: STIParameters,
    enc_params,
    toggles: InteractionToggles | None = None,
) -> Array:
    """Evaluate the (B, K) score matrix for a batch against K classes."""
    toggles = toggles or InteractionToggles()
    if len(class_texts) < 1:
        raise ValueError("need at least one class")
    if np.any(batch.labels >= len(class_texts)):
        raise ValueError("batch labels exceed the class count")
    shapes = {video.patch_embeddings.shape for video in batch.videos}
    if len(shapes) != 1:
        raise ValueError("all batch videos must share (T, N_p, D)")
    raw = np.stack([video.patch_embeddings for video in batch.videos])
    tape = Tape()
    scores = score_matrix_nodes(
        tape,
        raw_videos=tape.constant(raw),
        class_word_embeddings=[text.word_embeddings for text in class_texts],
        class_embeddings=[text.class_embedding for text in class_texts],
        video_weight=tape.constant(enc_params.video_weight),
        video_bias=tape.constant(enc_params.video_bias),
        patch_weight=tape.constant(sti_params.patch_weight),
        word_weight=tape.constant(sti_params.word_weight),
        tau_saliency=sti_params.tau_saliency,
        toggles=toggles,
    )
    return scores.data


def temperature_node(tape: Tape, log_tau: TapeTensor) -> TapeTensor:
    """Trainable loss temperature: tau = max(exp(log_tau), floor)."""
    return ad.clip(ad.exp(log_tau), TEMPERATURE_FLOOR, None)


def loss_nodes(
    scores: TapeTensor, positives: PositiveSet, tau: TapeTensor
) -> tuple[TapeTensor, TapeTensor, TapeTensor]:
    """Both directional losses and their mean, on the tape.

    ``scores`` must be the (B, B) in-batch matrix with rows = videos and
    columns = in-batch class instances.
    """
    b = positives.size
    if scores.shape != (b, b):
        raise ValueError(f"expected a ({b}, {b}) score matrix, got {scores.shape}")
    tape = scores.tape
    weights = tape.constant(positives.weight_matrix())
    logits = ad.div(scores, tau)
    # video->class: for a class anchor (column), softmax runs over videos (rows)
    v2c = ad.neg(ad.sum_reduce(ad.mul(weights, ad.log_softmax(logits, axis=0))))
    # class->video: for a video anchor (row), softmax runs over class columns
    c2v = ad.neg(ad.sum_reduce(ad.mul(weights, ad.log_softmax(logits, axis=1))))
    total = ad.mul(ad.add(v2c, c2v), 0.5)
    return v2c, c2v, total


def _loss_values(scores, positives: PositiveSet, tau: float):
    if not tau > 0:
        raise ValueError("tau must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    tape = Tape()
    v2c, c2v, total = loss_nodes(tape.constant(scores), positives, tape.constant(tau))
    return float(v2c.data), float(c2v.data), float(total.data)


def loss_v2c(scores, positives: PositiveSet, tau: float) -> float:
    """Video->class contrastive loss over an in-batch score matrix."""
    return _loss_values(scores, positives, tau)[0]


def loss_c2v(scores, positives: PositiveSet, tau: float) -> float:
    """Class->video contrastive loss over an in-batch score matrix."""
    return _loss_values(scores, positives, tau)[1]


def total_loss(scores, positives: PositiveSet, tau: float) -> float:
    """Mean of the two directional losses."""
    return _loss_values(scores, positives, tau)[2]
