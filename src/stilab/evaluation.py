"""Zero-shot and few-shot evaluation: top-k metrics, split protocols,
cross-split aggregation, and numeric saliency export."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._fileio import atomic_open
from .encoders import FrameEmbeddingSet, TextEmbeddingSequence
from .objective import score_matrix
from .sti import InteractionToggles, STIParameters, sti_forward

Array = np.ndarray

TOP_K = 5
SALIENCY_SUM_TOLERANCE = 1e-9
# A scoring chunk holds at most 64 videos and at most 2**18 raw patch values:
# 64 videos of 8 x 16 x 32, 8 of 16 x 32 x 64. The raw chunk, at most 2 MiB
# of float64, is the only dense (chunk, T, N_p, D) array scoring holds: the
# fused MaxSim projects it a few matrices at a time. A streamed eval holds one
# more, the next chunk, read while this one is scored.
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


def chunk_videos(values_per_video: int) -> int:
    """How many videos of ``values_per_video`` raw patch values one scoring
    chunk holds: at most ``_EVAL_BATCH`` and at most ``_EVAL_CHUNK_VALUES``
    values, one video at the least."""
    return max(1, min(_EVAL_BATCH, _EVAL_CHUNK_VALUES // values_per_video))


def stacked_chunks(videos: Sequence[FrameEmbeddingSet]) -> Iterator[Array]:
    """The videos' raw features in scoring chunks, each stacked into one
    (n, T, N_p, D) array."""
    size = chunk_videos(videos[0].patch_embeddings.size)
    for start in range(0, len(videos), size):
        yield np.stack([video.patch_embeddings for video in videos[start : start + size]])


def _score_chunks(
    chunks: Iterable[Array],
    labels: Array,
    class_sets: Sequence[tuple[int, ...]],
    class_texts: Sequence[TextEmbeddingSequence],
    sti_params: STIParameters,
    enc_params,
    toggles: InteractionToggles | None,
) -> list[tuple[float, float]]:
    """(top-1, top-k) accuracy per class set, from one pass over ``chunks``:
    the raw features of the labelled videos, in order, in (n, T, N_p, D)
    arrays. Each chunk is scored once per class set, on its videos whose
    label lies in the set, against the set's classes alone; k clamps to the
    set's class count. A video scores the same in any chunk, so the chunking
    does not change the accuracies."""
    if labels.size and not 0 <= labels.min() <= labels.max() < len(class_texts):
        raise ValueError("labels must index into class_texts")
    renumber = []  # per set: each class's position in the set, or -1
    for chosen in class_sets:
        positions = np.full(len(class_texts), -1)
        positions[list(chosen)] = np.arange(len(chosen))
        renumber.append(positions)
    texts = [[class_texts[c] for c in chosen] for chosen in class_sets]
    hits = [([], []) for _ in class_sets]
    start = 0
    for raw in chunks:
        chunk_labels = labels[start : start + len(raw)]
        start += len(raw)
        if len(chunk_labels) != len(raw):
            raise ValueError(f"more videos than the {len(labels)} labels")
        for positions, set_texts, (hits1, hitsk) in zip(renumber, texts, hits):
            set_labels = positions[chunk_labels]
            rows = set_labels >= 0
            if not rows.any():
                continue
            scores = score_matrix(raw if rows.all() else raw[rows], set_texts,
                                  sti_params, enc_params, toggles)
            hits1.append(_topk_hits(scores, set_labels[rows], 1))
            hitsk.append(_topk_hits(scores, set_labels[rows], min(TOP_K, len(set_texts))))
    if start != len(labels):
        raise ValueError(f"{start} videos for {len(labels)} labels")
    return [(float(np.concatenate(hits1).mean()), float(np.concatenate(hitsk).mean()))
            for hits1, hitsk in hits]


def evaluate_split(
    videos: Sequence[FrameEmbeddingSet],
    labels,
    class_texts: Sequence[TextEmbeddingSequence],
    sti_params: STIParameters,
    enc_params,
    toggles: InteractionToggles | None = None,
) -> tuple[float, float]:
    """(top-1, top-k) accuracy over a split; k clamps to the class count.
    The videos are scored in ``stacked_chunks``."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(videos) == 0:
        raise ValueError("cannot evaluate an empty split")
    if labels.shape != (len(videos),):
        raise ValueError("need one label per video")
    every_class = tuple(range(len(class_texts)))
    return _score_chunks(stacked_chunks(videos), labels, [every_class], class_texts,
                         sti_params, enc_params, toggles)[0]


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
    chunks: Iterable[Array],
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

    ``chunks`` holds the raw features of the labelled videos, in order, in
    (n, T, N_p, D) arrays (``stacked_chunks``, or a corpus's
    ``CorpusListing.features`` or ``CorpusListing.read_ahead``), and is read
    in one pass after every split has been checked. An error, here or in
    ``chunks``, ends the pass early and leaves ``chunks`` open: the caller
    closes a generator that holds a thread or a file, as
    ``eval_group_three_splits`` closes its read-ahead, whose reader reads
    chunk i + 1 while chunk i is scored. A split whose class set an earlier
    split already chose reuses that split's accuracies instead of scoring
    the same pairs again; with the default subset size (all classes) the
    three splits coincide.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = len(class_texts)
    subset_size = num_classes if subset_size is None else subset_size
    chosen = {}
    for split_id in (1, 2, 3):
        chosen[split_id] = tuple(sorted(
            sample_category_subset(list(range(num_classes)), subset_size, seed * 10 + split_id)
        ))
        if not np.isin(labels, chosen[split_id]).any():
            raise ValueError(f"split {split_id} selected classes with no evaluation videos")
    class_sets = list(dict.fromkeys(chosen.values()))
    scored = dict(zip(class_sets, _score_chunks(
        chunks, labels, class_sets, class_texts, sti_params, enc_params, toggles
    )))
    return MetricReport.from_splits(
        [SplitMetrics(split_id, *scored[classes]) for split_id, classes in chosen.items()]
    )


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
