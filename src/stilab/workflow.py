"""Composition helpers wiring the corpus, attribute pipeline, encoders,
trainer and evaluation harness into reproducible runs."""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attributes import build_attribute_set
from .autodiff import ParameterStore
from .corpus import CorpusListing, SyntheticCorpus
from .encoders import EncoderParams, FrameEmbeddingSet, encode_sentence
from .sti import DEFAULT_SALIENCY_TEMPERATURE, InteractionToggles, STIParameters
from .trainer import (
    PARAM_PATCH_WEIGHT,
    PARAM_VIDEO_BIAS,
    PARAM_VIDEO_WEIGHT,
    PARAM_WORD_WEIGHT,
    Checkpoint,
    ClassText,
    TrainConfig,
    TrainingData,
    default_parameter_store,
    fit,
)
from .evaluation import MetricReport, chunk_videos, evaluate_split, evaluate_three_splits

Array = np.ndarray


def corpus_encoder_params(corpus: SyntheticCorpus) -> EncoderParams:
    """Pretrained-style encoder for a corpus: the text table shares the
    corpus seed, which is what ties concept latents to token embeddings."""
    return EncoderParams.pretrained(corpus.spec.seed, corpus.spec.dim)


@dataclass
class PreparedClasses:
    texts: list[ClassText]


def prepare_class_texts(
    corpus: SyntheticCorpus,
    class_indices: Sequence[int],
    num_attributes: int,
    enc_params: EncoderParams,
) -> PreparedClasses:
    """Run the attribute pipeline for the given classes and encode the
    resulting prompt sentences."""
    texts: list[ClassText] = []
    for index in class_indices:
        cls = corpus.classes[index]
        record = build_attribute_set(cls.description, num_attributes)
        sequence = encode_sentence(record.prompt_sentence, enc_params)
        texts.append(ClassText(name=cls.name, sequence=sequence))
    return PreparedClasses(texts=texts)


def training_data_for(
    corpus: SyntheticCorpus,
    class_indices: Sequence[int],
    num_attributes: int,
    enc_params: EncoderParams,
) -> tuple[TrainingData, PreparedClasses]:
    """Assemble raw-feature training data over a class subset.

    Labels are positions within ``class_indices``, not corpus-wide indices.
    """
    prepared = prepare_class_texts(corpus, class_indices, num_attributes, enc_params)
    position = {corpus_index: i for i, corpus_index in enumerate(class_indices)}
    videos = []
    labels = []
    for video in corpus.videos:
        if video.class_index in position:
            videos.append(FrameEmbeddingSet.from_raw(video.features))
            labels.append(position[video.class_index])
    data = TrainingData(videos=videos, labels=np.array(labels), class_texts=prepared.texts)
    return data, prepared


def params_from_store(
    store: ParameterStore,
    *,
    text_table_seed: int,
    dim: int,
    tau_saliency: float = DEFAULT_SALIENCY_TEMPERATURE,
) -> tuple[EncoderParams, STIParameters]:
    """View a trainable store as the encoder/interaction parameter objects."""
    enc = EncoderParams(
        text_table_seed=text_table_seed,
        dim=dim,
        video_weight=store.value(PARAM_VIDEO_WEIGHT),
        video_bias=store.value(PARAM_VIDEO_BIAS),
    )
    sti = STIParameters(
        patch_weight=store.value(PARAM_PATCH_WEIGHT),
        word_weight=store.value(PARAM_WORD_WEIGHT),
        tau_saliency=tau_saliency,
    )
    return enc, sti


@dataclass
class TrainedRun:
    result: Checkpoint
    data: TrainingData
    enc_params: EncoderParams
    sti_params: STIParameters


def train_on_corpus(corpus: SyntheticCorpus, config: TrainConfig) -> TrainedRun:
    """Train on the corpus's seen classes with the configured attributes."""
    base_enc = corpus_encoder_params(corpus)
    data, _ = training_data_for(
        corpus, corpus.seen_class_indices, config.num_attributes, base_enc
    )
    store = default_parameter_store(corpus.spec.dim)
    result = fit(data, config, store=store)
    enc, sti = params_from_store(store, text_table_seed=corpus.spec.seed, dim=corpus.spec.dim,
                                 tau_saliency=config.tau_saliency)
    return TrainedRun(result=result, data=data, enc_params=enc, sti_params=sti)


def _group_classes(corpus: SyntheticCorpus, seen: bool) -> tuple[int, ...]:
    """The seen or the unseen class group's corpus class indices."""
    class_indices = corpus.seen_class_indices if seen else corpus.unseen_class_indices
    if not class_indices:
        raise ValueError("requested class group is empty")
    return class_indices


def eval_group(
    corpus: SyntheticCorpus,
    enc_params: EncoderParams,
    sti_params: STIParameters,
    *,
    seen: bool,
    num_attributes: int,
    toggles: InteractionToggles | None = None,
) -> tuple[float, float]:
    """Single-split (top1, top5) over the seen or unseen class group."""
    data, _ = training_data_for(corpus, _group_classes(corpus, seen), num_attributes, enc_params)
    return evaluate_split(
        data.videos, data.labels, [ct.sequence for ct in data.class_texts],
        sti_params, enc_params, toggles,
    )


def eval_group_three_splits(
    listing: CorpusListing,
    enc_params: EncoderParams,
    sti_params: STIParameters,
    *,
    seen: bool,
    num_attributes: int,
    seed: int,
    subset_size: int | None = None,
    toggles: InteractionToggles | None = None,
) -> MetricReport:
    """The three-split protocol over the seen or unseen class group of a
    listed corpus, scored as its videos stream from one pass over
    videos.bin (``CorpusListing.features``) on the calling thread: one
    scoring chunk of features is held at a time, read and then scored.
    videos.bin is closed before this returns or raises."""
    corpus = listing.corpus
    class_indices = _group_classes(corpus, seen)
    prepared = prepare_class_texts(corpus, class_indices, num_attributes, enc_params)
    group = {corpus_index: i for i, corpus_index in enumerate(class_indices)}
    kept = listing.positions(lambda _, cls: cls.index in group)
    chunks = listing.features(kept, chunk_videos(math.prod(listing.video_shape)))
    with closing(chunks):
        return evaluate_three_splits(
            chunks,
            [group[listing.labels[position]] for position in kept],
            [ct.sequence for ct in prepared.texts],
            sti_params,
            enc_params,
            seed=seed,
            subset_size=subset_size,
            toggles=toggles,
        )
