"""Zero-shot and few-shot evaluation: top-k metrics, split protocols,
cross-split aggregation, and numeric saliency export."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fileio import atomic_open
from .encoders import FrameEmbeddingSet, TextEmbeddingSequence
from .objective import BatchRecord, score_matrix
from .sti import InteractionToggles, STIParameters, sti_forward

Array = np.ndarray

TOP_K = 5
SALIENCY_SUM_TOLERANCE = 1e-9
# A scoring chunk holds at most 64 videos and at most 2**18 raw patch values:
# 64 videos of 8 x 16 x 32, 8 of 16 x 32 x 64. The stacked raw chunk, at most
# 2 MiB of float64, is the only dense (chunk, T, N_p, D) array scoring
# builds: the fused MaxSim encodes and projects it a few matrices at a time.
_EVAL_BATCH = 64
_EVAL_CHUNK_VALUES = 1 << 18


@dataclass(frozen=True)
class SplitMetrics:
    split_id: int
    top1: float
    top5: float

    def __post_init__(self):
        for name, value in (("top1", self.top1), ("top5", self.top5)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.top5 < self.top1:
            raise ValueError("top5 accuracy cannot be below top1")


@dataclass(frozen=True)
class MetricReport:
    """Per-split accuracies with their mean and sample (n-1) standard deviation."""

    per_split: tuple[SplitMetrics, ...]
    top1_mean: float
    top1_std: float
    top5_mean: float
    top5_std: float

    @classmethod
    def from_splits(cls, splits: Sequence[SplitMetrics]) -> "MetricReport":
        top1_mean, top1_std = _mean_and_std([s.top1 for s in splits])
        top5_mean, top5_std = _mean_and_std([s.top5 for s in splits])
        return cls(
            per_split=tuple(splits),
            top1_mean=top1_mean,
            top1_std=top1_std,
            top5_mean=top5_mean,
            top5_std=top5_std,
        )


def _mean_and_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation, both from exact rational
    sums, so equal values give exactly their value and 0; one value has std 0."""
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return statistics.mean(values), std


def _topk_hits(scores: Array, labels: Array, k: int) -> Array:
    """Whether each row's true label ranks in the top k.

    Rows are ordered by descending score with ties broken toward the
    smallest class index (stable sort on the negated scores).
    """
    order = np.argsort(-scores, axis=1, kind="stable")
    return (order[:, :k] == labels[:, None]).any(axis=1)


def evaluate_split(
    videos: Sequence[FrameEmbeddingSet],
    labels,
    class_texts: Sequence[TextEmbeddingSequence],
    sti_params: STIParameters,
    enc_params,
    toggles: InteractionToggles | None = None,
) -> tuple[float, float]:
    """(top-1, top-k) accuracy over a split; k clamps to the class count.
    The videos are scored in chunks of at most ``_EVAL_BATCH`` videos and at
    most ``_EVAL_CHUNK_VALUES`` raw patch values, one video at the least."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(videos) == 0:
        raise ValueError("cannot evaluate an empty split")
    if labels.shape != (len(videos),):
        raise ValueError("need one label per video")
    k = min(TOP_K, len(class_texts))
    size = max(1, min(_EVAL_BATCH, _EVAL_CHUNK_VALUES // videos[0].patch_embeddings.size))
    hits1 = []
    hitsk = []
    for start in range(0, len(videos), size):
        chunk = list(videos[start : start + size])
        chunk_labels = labels[start : start + size]
        batch = BatchRecord(videos=tuple(chunk), labels=np.zeros(len(chunk), dtype=np.int64))
        scores = score_matrix(batch, class_texts, sti_params, enc_params, toggles)
        hits1.append(_topk_hits(scores, chunk_labels, 1))
        hitsk.append(_topk_hits(scores, chunk_labels, k))
    top1 = float(np.concatenate(hits1).mean())
    topk = float(np.concatenate(hitsk).mean())
    return top1, topk


def aggregate_splits(values) -> tuple[float, float]:
    """Mean and sample standard deviation of exactly three split values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"expected exactly 3 split values, got shape {arr.shape}")
    return _mean_and_std(arr.tolist())


def sample_category_subset(categories: Sequence, subset_size: int, seed: int) -> list:
    """Uniform sample without replacement, deterministic in the seed."""
    if subset_size > len(categories):
        raise ValueError(
            f"subset_size {subset_size} exceeds the {len(categories)} available categories"
        )
    if subset_size < 0:
        raise ValueError("subset_size must be >= 0")
    rng = np.random.default_rng([seed, len(categories)])
    picked = rng.permutation(len(categories))[:subset_size]
    return [categories[int(i)] for i in picked]


def evaluate_three_splits(
    videos: Sequence[FrameEmbeddingSet],
    labels,
    class_texts: Sequence[TextEmbeddingSequence],
    sti_params: STIParameters,
    enc_params,
    *,
    seed: int,
    subset_size: int | None = None,
    toggles: InteractionToggles | None = None,
) -> MetricReport:
    """Three-split protocol: per split, sample a class subset, restrict the
    videos to those classes, and score against the subset only.

    A split whose class set an earlier split already chose reuses that
    split's accuracies instead of scoring the same pairs again; with the
    default subset size (all classes) the three splits coincide.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = len(class_texts)
    subset_size = num_classes if subset_size is None else subset_size
    scored: dict[tuple[int, ...], tuple[float, float]] = {}
    splits = []
    for split_id in (1, 2, 3):
        chosen = tuple(sorted(
            sample_category_subset(list(range(num_classes)), subset_size, seed * 10 + split_id)
        ))
        if chosen not in scored:
            remap = {old: new for new, old in enumerate(chosen)}
            keep = [i for i, label in enumerate(labels) if int(label) in remap]
            if not keep:
                raise ValueError(f"split {split_id} selected classes with no evaluation videos")
            split_videos = [videos[i] for i in keep]
            split_labels = np.array([remap[int(labels[i])] for i in keep])
            split_texts = [class_texts[i] for i in chosen]
            scored[chosen] = evaluate_split(
                split_videos, split_labels, split_texts, sti_params, enc_params, toggles
            )
        top1, top5 = scored[chosen]
        splits.append(SplitMetrics(split_id=split_id, top1=top1, top5=top5))
    return MetricReport.from_splits(splits)


def write_metric_csv(path, report: MetricReport) -> Path:
    """(split_id, top1, top5) rows plus mean/std summary lines."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("split_id,top1,top5\n")
        for split in report.per_split:
            fh.write(f"{split.split_id},{split.top1:.17g},{split.top5:.17g}\n")
        fh.write(f"mean,{report.top1_mean:.17g},{report.top5_mean:.17g}\n")
        fh.write(f"std,{report.top1_std:.17g},{report.top5_std:.17g}\n")
    return path


def export_saliency(
    video: FrameEmbeddingSet,
    class_text: TextEmbeddingSequence,
    sti_params: STIParameters,
    enc_params,
    path,
    toggles: InteractionToggles | None = None,
) -> Path:
    """Write per-frame (index, spatial score, temporal weight) rows.

    ``video`` holds raw features: the export runs the same raw-feature pass
    that training and evaluation score with (``sti_forward``). Values render
    with 17 significant digits, which round-trips float64 exactly. The
    saliency column is checked to sum to 1 before writing, so a saliency
    that overflowed to NaN raises ValueError and writes nothing.
    """
    output = sti_forward(video, class_text, sti_params, enc_params, toggles)
    scores, saliency = output["spatial_scores"], output["saliency"]
    total = float(saliency.sum())
    if not abs(total - 1.0) <= SALIENCY_SUM_TOLERANCE:  # a NaN sum fails too
        raise ValueError(f"saliency column sums to {total!r}, expected 1")
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame_index,s_sp,s_temp\n")
        for index, (spatial, temporal) in enumerate(zip(scores, saliency)):
            fh.write(f"{index},{spatial:.17g},{temporal:.17g}\n")
    return path
