"""Peak-memory guards, measured with tracemalloc (which sees numpy's array
buffers): training gathers one batch at a time, and evaluation scores
byte-bounded chunks, so neither holds a dense copy of its whole video set;
backward frees each tape record's saved arrays as it goes, and the fused
MaxSim keeps only its winning rows, which bounds one training step's working
set."""

import tracemalloc

import numpy as np

from stilab.autodiff import parameter_gradients
from stilab.encoders import EncoderParams, FrameEmbeddingSet
from stilab.evaluation import evaluate_split
from stilab.sti import STIParameters
from stilab.trainer import (
    ClassText,
    TrainConfig,
    TrainingData,
    default_parameter_store,
    fit,
    training_step_loss,
)
from test_sti import text_of


def peak_bytes(run) -> int:
    """The most memory traced while ``run()`` ran, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_videos(rng, count, shape):
    return [FrameEmbeddingSet.from_raw(rng.standard_normal(shape)) for _ in range(count)]


def random_texts(rng, count, dim):
    return [text_of(rng.standard_normal((3, dim))) for _ in range(count)]


def test_fit_peaks_below_its_training_set():
    rng = np.random.default_rng(0)
    videos = random_videos(rng, 512, (4, 8, 16))  # 2 MiB of features, 128 batches
    data = TrainingData(
        videos=videos,
        labels=np.arange(len(videos)) % 4,
        class_texts=[ClassText(f"c{i}", text) for i, text in enumerate(random_texts(rng, 4, 16))],
    )
    feature_bytes = sum(video.patch_embeddings.nbytes for video in videos)
    config = TrainConfig.desk_scale(epochs=1, seed=0, batch_size=4)
    assert peak_bytes(lambda: fit(data, config)) < feature_bytes


def test_evaluate_split_peaks_below_64_large_videos():
    rng = np.random.default_rng(1)
    videos = random_videos(rng, 64, (16, 32, 64))
    labels = np.arange(len(videos)) % 6
    enc = EncoderParams.pretrained(0, 64)
    sti = STIParameters.random_init(64, seed=2)
    feature_bytes = sum(video.patch_embeddings.nbytes for video in videos)
    texts = random_texts(rng, 6, 64)
    assert peak_bytes(lambda: evaluate_split(videos, labels, texts, sti, enc)) < feature_bytes


def test_training_step_peaks_below_five_batches():
    # forward and backward of one step; the bound sits between the 5.5x a
    # backward that holds every record to the end traced and the 4.0x of one
    # that drops each record once its gradient has passed
    rng = np.random.default_rng(2)
    shape = (8, 16, 32)
    raw_batch = rng.standard_normal((16, *shape))
    labels = np.arange(len(raw_batch)) % 4
    data = TrainingData(
        videos=random_videos(rng, 1, shape),
        labels=[0],
        class_texts=[ClassText(f"c{i}", text) for i, text in enumerate(random_texts(rng, 4, 32))],
    )
    store = default_parameter_store(32)

    def step():
        loss = training_step_loss(store, raw_batch, labels, data, TrainConfig())
        parameter_gradients(loss, store)

    assert peak_bytes(step) < 4.75 * raw_batch.nbytes


def test_large_training_step_keeps_no_dense_projection():
    # forward and backward of one step at the train-large shape; the bound
    # sits between the 3.70x of a step that projects the patches in separate
    # matmul and relu records (each keeping a dense (B, T, N_p, D) array for
    # its backward) and the 2.09x of one that projects them chunk by chunk
    # inside the fused MaxSim, which keeps only the winning rows
    rng = np.random.default_rng(3)
    shape = (16, 32, 64)
    raw_batch = rng.standard_normal((32, *shape))
    labels = np.arange(len(raw_batch)) % 8
    data = TrainingData(
        videos=random_videos(rng, 1, shape),
        labels=[0],
        class_texts=[ClassText(f"c{i}", text) for i, text in enumerate(random_texts(rng, 8, 64))],
    )
    store = default_parameter_store(64)

    def step():
        loss = training_step_loss(store, raw_batch, labels, data, TrainConfig())
        parameter_gradients(loss, store)

    assert peak_bytes(step) < 2.9 * raw_batch.nbytes
