"""Peak-memory guards, measured with tracemalloc (which sees numpy's array
buffers): training gathers one batch at a time, and evaluation scores
byte-bounded chunks, so neither holds a dense copy of its whole video set
(``stilab eval`` reads its class group from videos.bin into two chunk
arrays of at most 2 MiB each, allocated on the calling thread: a
one-worker executor fills one while the other is scored); backward frees
each tape record's saved arrays as it goes, and the fused MaxSim encodes
and projects the patches chunk by chunk and keeps only its winning rows,
which bounds one training step's working set."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from stilab import cli
from stilab.autodiff import parameter_gradients
from stilab.corpus import CorpusListing
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


def run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def large_run(tmp_path_factory):
    """A 16 x 32 x 64 corpus, 10 videos per class, and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("large")
    assert run_cli("synth", "--out-dir", root, "--seed", 1, "--videos-per-class", 10,
                   "--frames", 16, "--patches-per-frame", 32, "--dim", 64) == 0
    assert run_cli("train", "--corpus", root / "corpus", "--out-dir", root / "train",
                   "--seed", 1, "--epochs", 1, "--batch-size", 32) == 0
    return root / "corpus", root / "train" / "checkpoint.stickpt"


def test_cli_eval_peaks_below_half_its_class_group(large_run, tmp_path):
    # 80 seen videos of 16 x 32 x 64 hold 21 MB of features; eval streams
    # them from videos.bin in 2 MiB chunks of 8 videos, two at a time: one
    # is scored while the read-ahead's worker thread reads the next
    corpus, checkpoint = large_run
    codes = []
    peak = peak_bytes(lambda: codes.append(run_cli(
        "eval", "--corpus", corpus, "--checkpoint", checkpoint,
        "--out-dir", tmp_path / "eval", "--mode", "seen",
    )))
    assert codes == [0]
    group_bytes = 8 * 10 * 16 * 32 * 64 * 8  # seen classes x videos x values x 8 bytes
    assert peak < group_bytes / 2


@pytest.mark.parametrize("mode", ["zero-shot", "seen"])
def test_cli_eval_read_ahead_writes_the_serial_pass_metrics(large_run, tmp_path, monkeypatch,
                                                            mode):
    # 5 (zero-shot) or 10 (seen) chunks of 8 videos: the read-ahead's worker moves no bit
    corpus, checkpoint = large_run
    args = ["eval", "--corpus", corpus, "--checkpoint", checkpoint, "--mode", mode]
    assert run_cli(*args, "--out-dir", tmp_path / "ahead") == 0
    monkeypatch.setattr(CorpusListing, "read_ahead", CorpusListing.features)
    assert run_cli(*args, "--out-dir", tmp_path / "serial") == 0
    metrics = [(tmp_path / out / "metrics.csv").read_bytes() for out in ("ahead", "serial")]
    assert metrics[0] == metrics[1]


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


def large_training_step_peak():
    """Peak bytes of one step's forward and backward at the train-large
    shape, over the bytes of its raw batch."""
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

    return peak_bytes(step) / raw_batch.nbytes


def test_large_training_step_keeps_no_dense_projection():
    # the bound sits between the 3.70x of a step that projects the patches in
    # separate matmul and relu records (each keeping a dense (B, T, N_p, D)
    # array for its backward) and the 2.09x of one that projects them chunk
    # by chunk inside the fused MaxSim, which keeps only the winning rows
    assert large_training_step_peak() < 2.9


def test_large_training_step_keeps_no_dense_encoding():
    # the bound sits between the 2.09x of a step that encodes the patches in
    # separate matmul, add and mean_reduce records (a dense encoded array, and
    # in backward its dense gradient) and the 1.35x of one that encodes them
    # chunk by chunk inside the fused MaxSim loop, which keeps only the
    # winners' raw, encoded and projected rows and the raw frame means
    assert large_training_step_peak() < 1.7
