"""Training loop: adaptive moments with decoupled weight decay, few-shot
fine-tuning, and bitwise-reproducible checkpointing.

All stochasticity (epoch shuffles, few-shot sampling) derives functionally
from (seed, epoch), so resuming from a checkpoint replays the exact same
trajectory as an uninterrupted run.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from ._fileio import PAYLOAD_DTYPE, atomic_open, json_value_fits, parse_counts, read_header
from .autodiff import ParameterStore, ShapeMismatchError, Tape
from .encoders import FrameEmbeddingSet, TextEmbeddingSequence, text_fingerprint
from .objective import (
    INITIAL_TEMPERATURE,
    PositiveSet,
    loss_nodes,
    score_matrix_nodes,
    temperature_node,
)
from .sti import DEFAULT_SALIENCY_TEMPERATURE, InteractionToggles, check_saliency_temperature

Array = np.ndarray

PARAM_VIDEO_WEIGHT = "video_weight"
PARAM_VIDEO_BIAS = "video_bias"
PARAM_PATCH_WEIGHT = "patch_weight"
PARAM_WORD_WEIGHT = "word_weight"
PARAM_LOG_TAU = "log_tau"

_FEWSHOT_STREAM = 9001  # distinguishes the sampling stream from epoch shuffles

CHECKPOINT_MAGIC = b"STICKPT1\n"
CHECKPOINT_VERSION = 3  # versions 1 and 2 gave each array its own header line
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # optimizer settings; the betas line records them
BETAS_TEXT = f"{BETA1!r} {BETA2!r} {EPSILON!r}"  # the only betas line a checkpoint may hold


class NonFiniteGradientError(RuntimeError):
    """A gradient turned non-finite; carries the parameter name."""


class NonFiniteLossError(RuntimeError):
    pass


class CheckpointFormatError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Training settings: rate 5e-5, decay 0.05, 30 epochs and a batch of
    16, sized for desk-scale corpora, plus the interaction toggles, the
    attribute count and the fixed saliency temperature that evaluation
    reuses. ``stilab train`` has one flag per field but ``seed`` (which
    --seed sets), with the field's default and type, so each default is
    stated only here."""

    learning_rate: float = 5e-5
    weight_decay: float = 0.05
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    spatial: bool = True
    temporal: bool = True
    num_attributes: int = 8
    tau_saliency: float = DEFAULT_SALIENCY_TEMPERATURE

    def __post_init__(self):
        # a zero rate is allowed: it freezes the dynamics, which is useful
        # for determinism checks
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        check_saliency_temperature(self.tau_saliency)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.num_attributes < 0:
            raise ValueError("num_attributes must be >= 0")

    @property
    def toggles(self) -> InteractionToggles:
        return InteractionToggles(spatial=self.spatial, temporal=self.temporal)

    @classmethod
    def desk_scale(cls, **overrides) -> "TrainConfig":
        """Same as the constructor: the defaults are already desk scale."""
        return cls(**overrides)


@dataclass
class OptimizerState:
    """Per-parameter first/second moments plus the shared step counter."""

    first_moment: dict[str, Array]
    second_moment: dict[str, Array]
    step: int = 0

    @classmethod
    def for_store(cls, store: ParameterStore) -> "OptimizerState":
        return cls(
            first_moment={n: np.zeros_like(store.value(n)) for n in store.names()},
            second_moment={n: np.zeros_like(store.value(n)) for n in store.names()},
        )


def optimizer_step(
    store: ParameterStore, grads: dict, state: OptimizerState, config: TrainConfig
) -> None:
    """One bias-corrected adaptive-moment update with decoupled decay.

    Both the decay term and the moment step are computed from the current
    parameter value: p <- p - lr*wd*p - lr*m_hat/(sqrt(v_hat)+eps). The step
    is atomic: every gradient is checked for presence, shape and finiteness
    before any parameter or moment changes.
    """
    checked: dict[str, Array] = {}
    for name in store.names():
        if name not in grads:
            raise KeyError(f"gradient map is missing parameter {name!r}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != store.value(name).shape:
            raise ShapeMismatchError(
                f"gradient for parameter {name!r} has shape {g.shape}, "
                f"expected {store.value(name).shape}"
            )
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        checked[name] = g

    t = state.step + 1
    lr, wd = config.learning_rate, config.weight_decay
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, g in checked.items():
        m = state.first_moment[name] = BETA1 * state.first_moment[name] + (1 - BETA1) * g
        v = state.second_moment[name] = BETA2 * state.second_moment[name] + (1 - BETA2) * (g * g)
        value = store.value(name)
        update = (m / bias1) / (np.sqrt(v / bias2) + EPSILON)
        store.set_value(name, value - lr * wd * value - lr * update)
    state.step = t


# ---------------------------------------------------------------------------
# training data and the fit loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassText:
    name: str
    sequence: TextEmbeddingSequence


@dataclass
class TrainingData:
    """Raw-feature videos, labels into ``class_texts``, and frozen class texts."""

    videos: list[FrameEmbeddingSet]
    labels: Array
    class_texts: list[ClassText]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.videos) < 1:
            raise ValueError("training data must contain at least one video")
        if self.labels.shape != (len(self.videos),):
            raise ValueError("need one label per video")
        if np.any(self.labels < 0) or np.any(self.labels >= len(self.class_texts)):
            raise ValueError("labels must index into class_texts")

    @property
    def num_classes(self) -> int:
        return len(self.class_texts)

    @property
    def dim(self) -> int:
        return self.videos[0].dim

    def subset(self, indices) -> "TrainingData":
        indices = list(indices)
        return TrainingData(
            videos=[self.videos[i] for i in indices],
            labels=self.labels[indices],
            class_texts=self.class_texts,
        )


def default_parameter_store(dim: int) -> ParameterStore:
    """Identity-initialized trainable set: the toy stand-in for starting
    from aligned pretrained weights. The text side is not registered; it has
    no trainable parameters at all."""
    store = ParameterStore()
    store.register(PARAM_VIDEO_WEIGHT, np.eye(dim))
    store.register(PARAM_VIDEO_BIAS, np.zeros(dim))
    store.register(PARAM_PATCH_WEIGHT, np.eye(dim))
    store.register(PARAM_WORD_WEIGHT, np.eye(dim))
    store.register(PARAM_LOG_TAU, np.log(INITIAL_TEMPERATURE))
    return store


@dataclass
class Checkpoint:
    config: TrainConfig
    epoch: int  # completed epochs
    store: ParameterStore
    optimizer: OptimizerState
    loss_history: list[float]  # one mean loss per completed epoch


def _epoch_order(seed: int, epoch: int, count: int) -> Array:
    return np.random.default_rng([seed, epoch]).permutation(count)


def training_step_loss(
    store: ParameterStore,
    raw_batch: Array,
    batch_labels: Array,
    data: TrainingData,
    config: TrainConfig,
    patch_means: Array | None = None,
):
    """Build one training step's loss graph; returns the scalar tensor.

    ``patch_means`` are the batch's (B, T, D) raw patch means, if the caller
    holds them; without them the step takes them from ``raw_batch``, to the
    same bits. The (B, B) in-batch matrix is assembled from one column per
    *unique* label and then gathered per instance, which preserves the exact
    duplicate-column semantics of the loss denominator.
    """
    tape = Tape()
    leaves = store.leaves(tape)
    unique_labels, column_of = np.unique(batch_labels, return_inverse=True)
    word_embeddings = [data.class_texts[int(c)].sequence.word_embeddings for c in unique_labels]
    class_embeddings = [data.class_texts[int(c)].sequence.class_embedding for c in unique_labels]
    unique_scores = score_matrix_nodes(
        tape,
        raw_videos=tape.constant(raw_batch),
        class_word_embeddings=word_embeddings,
        class_embeddings=class_embeddings,
        video_weight=leaves[PARAM_VIDEO_WEIGHT],
        video_bias=leaves[PARAM_VIDEO_BIAS],
        patch_weight=leaves[PARAM_PATCH_WEIGHT],
        word_weight=leaves[PARAM_WORD_WEIGHT],
        tau_saliency=config.tau_saliency,
        toggles=config.toggles,
        patch_means=None if patch_means is None else tape.constant(patch_means),
    )
    scores = ad.index_select(unique_scores, column_of, axis=1)  # (B, B)
    tau = temperature_node(tape, leaves[PARAM_LOG_TAU])
    _, _, total = loss_nodes(scores, PositiveSet.from_labels(batch_labels), tau)
    return total


def fit(
    data: TrainingData,
    config: TrainConfig,
    *,
    store: ParameterStore | None = None,
    optimizer: OptimizerState | None = None,
    start_epoch: int = 0,
    loss_history: list[float] | None = None,
) -> Checkpoint:
    """Optimize the trainable parameters on a dataset; returns the state
    after ``config.epochs`` epochs as a checkpoint.

    Deterministic given (seed, config, data): the epoch shuffle derives from
    (seed, epoch) and every reduction runs in a fixed order. The frozen text
    side is fingerprinted before and after as a hard guarantee. Each video's
    raw patch mean, which the encoded frames start from, is computed once
    per fit rather than once per step; a step gathers its batch's rows.
    """
    store = store if store is not None else default_parameter_store(data.dim)
    optimizer = optimizer if optimizer is not None else OptimizerState.for_store(store)
    history = loss_history if loss_history is not None else []

    frozen_before = text_fingerprint(ct.sequence for ct in data.class_texts)
    labels = data.labels
    count = len(data.videos)
    # the same bits as the step's own mean over the stacked batch
    patch_means = np.stack([np.mean(video.patch_embeddings, axis=-2) for video in data.videos])

    for epoch in range(start_epoch, config.epochs):
        order = _epoch_order(config.seed, epoch, count)
        epoch_losses: list[float] = []
        for start in range(0, count, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            # one batch is gathered at a time; the training set is never copied whole
            raw_batch = np.stack([data.videos[i].patch_embeddings for i in batch_idx])
            total = training_step_loss(
                store, raw_batch, labels[batch_idx], data, config, patch_means[batch_idx]
            )
            value = float(total.data)
            if not np.isfinite(value):
                raise NonFiniteLossError(
                    f"loss became non-finite at epoch {epoch}, batch starting {start}: {value!r}"
                )
            grads = ad.parameter_gradients(total, store)
            optimizer_step(store, grads, optimizer, config)
            epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))

    frozen_after = text_fingerprint(ct.sequence for ct in data.class_texts)
    if frozen_after != frozen_before:
        raise RuntimeError("frozen text embeddings changed during training")

    return Checkpoint(
        config=config,
        epoch=config.epochs,
        store=store,
        optimizer=optimizer,
        loss_history=history,
    )


# ---------------------------------------------------------------------------
# few-shot fine-tuning
# ---------------------------------------------------------------------------

@dataclass
class FewShotSample:
    indices: list[int]
    per_class_counts: dict[int, int]
    shortfall_classes: tuple[int, ...]  # classes with fewer than k videos


def few_shot_sample(data: TrainingData, k: int, seed: int) -> FewShotSample:
    """Pick exactly k videos per class (all of them, flagged, when a class
    is smaller). Deterministic in (seed, data order)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(data.videos) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng([seed, _FEWSHOT_STREAM])
    indices: list[int] = []
    counts: dict[int, int] = {}
    shortfall: list[int] = []
    for class_index in range(data.num_classes):
        members = np.nonzero(data.labels == class_index)[0]
        if members.size == 0:
            continue
        if members.size <= k:
            chosen = members
            if members.size < k:
                shortfall.append(class_index)
        else:
            chosen = members[rng.choice(members.size, size=k, replace=False)]
        chosen = np.sort(chosen)
        counts[class_index] = int(chosen.size)
        indices.extend(int(i) for i in chosen)
    return FewShotSample(
        indices=indices, per_class_counts=counts, shortfall_classes=tuple(shortfall)
    )


@dataclass
class FewShotResult:
    fit: Checkpoint
    sample: FewShotSample


def few_shot_finetune(
    store: ParameterStore,
    data: TrainingData,
    k: int,
    epochs: int,
    seed: int,
    *,
    config: TrainConfig | None = None,
) -> FewShotResult:
    """Fine-tune existing parameters on a k-shot subset of the dataset."""
    sample = few_shot_sample(data, k, seed)
    subset = data.subset(sample.indices)
    config = replace(config or TrainConfig(), epochs=epochs, seed=seed)
    result = fit(subset, config, store=store)
    return FewShotResult(fit=result, sample=sample)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path, checkpoint: Checkpoint) -> Path:
    """Serialize training state; round-trips bitwise.

    The format holds one parameter set, ``default_parameter_store(D)``'s for
    one D >= 1; any other store raises CheckpointFormatError before the file
    is opened. The write is atomic: a failed write leaves any previous
    checkpoint untouched and no temporary file behind.
    """
    store, opt = checkpoint.store, checkpoint.optimizer
    got = [(name, store.value(name).shape) for name in store.names()]
    dim = got[0][1][0] if got and got[0][1] else 0
    if dim < 1 or got != _layout(dim):
        layout = ", ".join(  # the shapes at D = 1, with each 1 read as D
            f"{name} {str(shape).replace('1', 'D')}" for name, shape in _layout(1)
        )
        raise CheckpointFormatError(f"parameters {got} are not {layout} for one D >= 1")
    config = asdict(checkpoint.config)
    tau_saliency = config.pop("tau_saliency")  # it has a line of its own
    lines = [
        f"version {CHECKPOINT_VERSION}",
        "config " + json.dumps(config, sort_keys=True),
        f"tau_saliency {float(tau_saliency)!r}",
        f"epoch {checkpoint.epoch}",
        f"step {opt.step}",
        f"betas {BETAS_TEXT}",
        f"dim {dim}",
        f"history {len(checkpoint.loss_history)}",
    ]
    arrays = [array for name in store.names()
              for array in (store.value(name), opt.first_moment[name], opt.second_moment[name])]
    arrays.append(np.asarray(checkpoint.loss_history, dtype=np.float64))
    path = Path(path)
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + "".join(f"{line}\n" for line in lines).encode("ascii"))
        fh.write(np.concatenate([np.ravel(array) for array in arrays], dtype=PAYLOAD_DTYPE))
    return path


def _layout(dim: int) -> list[tuple[str, tuple[int, ...]]]:
    """``default_parameter_store(dim)``'s names and shapes, in its order,
    taken from ``default_parameter_store(1)`` so no (D, D) array is built."""
    template = default_parameter_store(1)
    return [(name, (dim,) * template.value(name).ndim) for name in template.names()]


def _read_text_line(fh, expected_key: str) -> str:
    line = read_header(fh, CheckpointFormatError, f"checkpoint {expected_key!r} line")
    key, _, value = line.partition(" ")
    if key != expected_key:
        raise CheckpointFormatError(f"expected {expected_key!r} line, got {key!r}")
    return value


def _read_count(fh, key: str) -> int:
    (count,) = parse_counts(_read_text_line(fh, key), CheckpointFormatError, f"checkpoint {key!r}")
    return count


def _config_from_json(values: dict) -> TrainConfig:
    """A TrainConfig from the checkpoint's config values, each checked
    against its field's type by the rule ``--config`` files follow."""
    for setting in fields(TrainConfig):
        value = values.get(setting.name, setting.default)
        if not json_value_fits(value, type(setting.default)):
            raise CheckpointFormatError(
                f"checkpoint config value {value!r} for {setting.name!r} has the wrong type"
            )
    return TrainConfig(**values)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``.

    Every malformed file, including a truncated one, one with trailing
    bytes and one holding non-finite values, raises CheckpointFormatError,
    whose message names the file. So does a config that breaks
    TrainConfig's rules, and a file of version 1 or 2, which ``stilab
    train`` must write again.
    """
    path = Path(path)
    raw = path.read_bytes()
    magic = raw[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: bad checkpoint magic {magic!r}")
    try:
        return _parse_checkpoint(raw)
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"{path}: malformed checkpoint: {exc!r}") from exc


def _parse_checkpoint(raw: bytes) -> Checkpoint:
    fh = io.BytesIO(raw)
    fh.seek(len(CHECKPOINT_MAGIC))
    version = _read_count(fh, "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}; re-run "
            "`stilab train` with the same settings to rewrite the checkpoint"
        )
    settings = json.loads(_read_text_line(fh, "config"))
    if not isinstance(settings, dict):
        raise CheckpointFormatError(f"checkpoint config is not a JSON object: {settings!r}")
    if "tau_saliency" in settings:
        raise CheckpointFormatError("checkpoint config names tau_saliency, which has its own line")
    text = _read_text_line(fh, "tau_saliency")
    settings["tau_saliency"] = float(text)
    if repr(settings["tau_saliency"]) != text:  # as for counts, only the written form loads
        raise CheckpointFormatError(f"tau_saliency {text!r} is not written as repr() writes it")
    config = _config_from_json(settings)
    epoch = _read_count(fh, "epoch")
    step = _read_count(fh, "step")
    betas = _read_text_line(fh, "betas")
    if betas != BETAS_TEXT:
        raise CheckpointFormatError(f"unsupported optimizer settings {betas!r}")
    dim = _read_count(fh, "dim")
    count = _read_count(fh, "history")
    if dim < 1:
        raise CheckpointFormatError("checkpoint 'dim' must be >= 1")
    # each parameter's value and two moments, then the loss history; the
    # size is checked before any array is built
    layout = _layout(dim)
    sizes = [math.prod(shape) for _, shape in layout]
    start, nbytes = fh.tell(), 8 * (3 * sum(sizes) + count)
    if len(raw) - start != nbytes:
        raise CheckpointFormatError(
            f"dim {dim} and history {count} take {nbytes} value bytes, file holds {len(raw) - start}"
        )
    values = np.frombuffer(raw, dtype=PAYLOAD_DTYPE, offset=start).astype(np.float64)
    if not np.isfinite(values).all():
        raise CheckpointFormatError("non-finite values in the parameters, moments or loss history")
    store = ParameterStore()
    first: dict[str, Array] = {}
    second: dict[str, Array] = {}
    at = 0
    for (name, shape), size in zip(layout, sizes):
        value, first[name], second[name] = (
            values[at + i * size : at + (i + 1) * size].reshape(shape) for i in range(3)
        )
        store.register(name, value)
        at += 3 * size
    optimizer = OptimizerState(first_moment=first, second_moment=second, step=step)
    return Checkpoint(
        config=config,
        epoch=epoch,
        store=store,
        optimizer=optimizer,
        loss_history=values[at:].tolist(),
    )


def resume_fit(data: TrainingData, checkpoint: Checkpoint) -> Checkpoint:
    """Continue training from a checkpoint to the configured epoch count;
    bitwise identical to the uninterrupted run."""
    return fit(
        data,
        checkpoint.config,
        store=checkpoint.store,
        optimizer=checkpoint.optimizer,
        start_epoch=checkpoint.epoch,
        loss_history=list(checkpoint.loss_history),
    )


def write_loss_csv(path, loss_history: Sequence[float]) -> Path:
    """Mirror a loss trajectory as (epoch, mean_loss) rows."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, value in enumerate(loss_history):
            fh.write(f"{epoch},{value:.17g}\n")
    return path
