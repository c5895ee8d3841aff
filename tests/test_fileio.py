"""Every artifact writer is failure-atomic: a write that raises midway leaves
the previous file byte-identical and no temporary file behind."""

import time

import numpy as np
import pytest

from stilab import cli, evaluation
from stilab._fileio import atomic_open
from stilab.encoders import EncoderParams, FrameEmbeddingSet
from stilab.evaluation import MetricReport, SplitMetrics, export_saliency, write_metric_csv
from stilab.sti import STIParameters
from stilab.trainer import write_loss_csv
from test_sti import text_of


def assert_failed_write_keeps_old_file(path, write_ok, write_failing):
    """``write_ok`` writes ``path``; ``write_failing`` must raise while writing it."""
    write_ok()
    before = path.read_bytes()
    listing = sorted(p.name for p in path.parent.iterdir())
    with pytest.raises(Exception):
        write_failing()
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == listing


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

    def fail_after_one_row(output):
        yield 0, 0.5, 0.25
        raise OSError("disk full")

    def write_failing():
        monkeypatch.setattr(evaluation, "saliency_rows", fail_after_one_row)
        export_saliency(*args, path)

    assert_failed_write_keeps_old_file(path, lambda: export_saliency(*args, path), write_failing)


def test_manifest(tmp_path):
    path = tmp_path / cli.MANIFEST_FILENAME

    def write(results):
        cli._write_manifest(tmp_path, "synth", {"seed": 0}, [], results, time.time(), None)

    assert_failed_write_keeps_old_file(
        path, lambda: write({"classes": 2}), lambda: write({"classes": object()})
    )
