"""Every artifact writer is failure-atomic: a write that raises midway leaves
the previous file byte-identical and no temporary file behind."""

import builtins
import errno
import time
from pathlib import Path

import numpy as np
import pytest

from stilab import cli
from stilab._fileio import atomic_open
from stilab.attributes import ClassDescription, run_attribute_pipeline, save_attribute_records
from stilab.corpus import SyntheticCorpusSpec, generate_synthetic_corpus, save_corpus
from stilab.encoders import EncoderParams, FrameEmbeddingSet
from stilab.evaluation import MetricReport, SplitMetrics, export_saliency, write_metric_csv
from stilab.sti import STIParameters
from stilab.trainer import write_loss_csv
from test_sti import text_of


def assert_failed_write_keeps_old_file(path, write_ok, write_failing):
    """``write_ok`` writes ``path``; ``write_failing`` must raise while writing it.
    Returns what ``write_failing`` raised."""
    write_ok()
    before = path.read_bytes()
    listing = sorted(p.name for p in path.parent.iterdir())
    with pytest.raises(Exception) as raised:
        write_failing()
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == listing
    return raised.value


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"

    def write(text, fail):
        with atomic_open(path) as fh:
            fh.write(text)
            if fail:
                raise OSError("disk full")

    assert_failed_write_keeps_old_file(
        path, lambda: write("old\n", False), lambda: write("partial", True)
    )
    write("new\n", False)
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_metric_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    good = MetricReport.from_splits([SplitMetrics(1, 0.5, 0.75)])
    bad = MetricReport(
        per_split=(SplitMetrics(1, 0.5, 0.75), "not a split"),
        top1_mean=0.5, top1_std=0.0, top5_mean=0.75, top5_std=0.0,
    )
    assert_failed_write_keeps_old_file(
        path, lambda: write_metric_csv(path, good), lambda: write_metric_csv(path, bad)
    )


def test_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    assert_failed_write_keeps_old_file(
        path, lambda: write_loss_csv(path, [1.5, 1.25]), lambda: write_loss_csv(path, [1.5, "x"])
    )


def test_saliency_export(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    video = FrameEmbeddingSet.from_raw(rng.standard_normal((4, 3, 6)))
    text = text_of(rng.standard_normal((2, 6)))
    args = (video, text, STIParameters.identity_init(6), EncoderParams.pretrained(0, 6))
    path = tmp_path / "sal.csv"
    # the header is the first write, so the disk fills on the first row

    def write():
        export_saliency(*args, path)

    raised = assert_failed_write_keeps_old_file(
        path, write, lambda: fill_disk_while_writing(monkeypatch, path.name, write)
    )
    assert isinstance(raised, OSError) and raised.errno == errno.ENOSPC


def test_manifest(tmp_path):
    path = tmp_path / cli.MANIFEST_FILENAME

    def write(results):
        cli._write_manifest(tmp_path, "synth", {"seed": 0}, [], results, time.time(), None)

    assert_failed_write_keeps_old_file(
        path, lambda: write({"classes": 2}), lambda: write({"classes": object()})
    )


class _FullDisk:
    """A file opened for writing whose second write fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._fh.__exit__(*exc_info)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def fill_disk_while_writing(monkeypatch, name, write):
    """Run ``write`` with every file whose name contains ``name`` failing
    on its second write, wherever the writer opens it."""
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if "w" in mode and name in Path(file).name else fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", open_)
        write()


SMALL_CORPUS = SyntheticCorpusSpec(num_concepts=8, seen_classes=4, unseen_classes=2,
                                   videos_per_class=2, frames=2, patches_per_frame=3, dim=8)


@pytest.mark.parametrize("name", ["descriptions.jsonl", "videos.bin", "corpus.json"])
def test_corpus_files(tmp_path, monkeypatch, name):
    corpus = generate_synthetic_corpus(SMALL_CORPUS)
    out = tmp_path / "corpus"
    save_corpus(corpus, out)
    fingerprint = cli.corpus_fingerprint(out)
    assert_failed_write_keeps_old_file(
        out / name,
        lambda: save_corpus(corpus, out),
        lambda: fill_disk_while_writing(monkeypatch, name, lambda: save_corpus(corpus, out)),
    )
    assert cli.corpus_fingerprint(out) == fingerprint


def test_attribute_records(tmp_path, monkeypatch):
    path = tmp_path / "attributes.jsonl"
    records = run_attribute_pipeline({
        "salsa": ClassDescription("salsa", "a dance with a partner, the dance has turns"),
        "archery": ClassDescription("archery", "shooting a bow at a target"),
    }, 8)
    assert_failed_write_keeps_old_file(
        path,
        lambda: save_attribute_records(path, records),
        lambda: fill_disk_while_writing(
            monkeypatch, path.name, lambda: save_attribute_records(path, records[::-1])
        ),
    )
