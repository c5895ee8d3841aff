"""Tests of the benchmark's tracer and checks.

Run from the checkout root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stilab.autodiff as autodiff  # noqa: E402
import stilab.cli as cli  # noqa: E402

from tracing import SPAN_TARGETS, TAPE_OPS, TraceTotals, Tracer, covered  # noqa: E402
from workloads import p95  # noqa: E402


def patched_objects() -> dict:
    """Every object the tracer replaces, keyed by where callers find it."""
    found = {}
    for module_name, attr, _ in SPAN_TARGETS:
        found[(module_name, attr)] = getattr(importlib.import_module(module_name), attr)
    for command, fn in cli._COMMANDS.items():
        found[("stilab.cli._COMMANDS", command)] = fn
    for op in TAPE_OPS:
        found[("stilab.autodiff", op)] = getattr(autodiff, op)
    found[("stilab.autodiff.Tape", "backward")] = autodiff.Tape.backward
    return found


def test_uninstall_restores_every_original():
    before = patched_objects()
    tracer = Tracer()
    tracer.install()
    try:
        during = patched_objects()
        replaced = [key for key in before if during[key] is not before[key]]
        assert replaced == list(before)
    finally:
        tracer.uninstall()
    after = patched_objects()
    assert all(after[key] is before[key] for key in before)


def run_cli_sequence(out: Path) -> dict[str, bytes]:
    """A small synth -> train -> eval -> saliency run; returns artifact bytes."""
    corpus, train = out / "corpus", out / "train"
    checkpoint = train / "checkpoint.stickpt"
    commands = [
        ["synth", "--out-dir", str(out), "--videos-per-class", "4"],
        ["train", "--corpus", str(corpus), "--out-dir", str(train), "--epochs", "2",
         "--batch-size", "8"],
        ["eval", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
         "--out-dir", str(out / "eval")],
        ["saliency", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
         "--out-dir", str(out / "saliency"), "--video-id", "vid10_000",
         "--class-name", "activity11"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.main([*argv, "--seed", "3"]) == 0
    paths = [
        *sorted(corpus.iterdir()),
        checkpoint,
        train / "loss.csv",
        out / "eval" / "metrics.csv",
        *sorted((out / "saliency").glob("saliency_*.csv")),
    ]
    return {str(p.relative_to(out)): p.read_bytes() for p in paths}


def test_traced_outputs_are_bitwise_identical(tmp_path):
    untraced = run_cli_sequence(tmp_path / "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_cli_sequence(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == untraced
    totals = tracer.take("run")
    # every layer the per-layer metrics read was reached
    for span in ("cli.main", "cli.cmd", "corpus.load", "embed_io.load", "sti.spatial",
                 "autodiff.backward", "trainer.optimizer", "evaluation.export_saliency"):
        assert totals.calls[span] > 0, span
    assert all(totals.op_calls[op] > 0 for op in TAPE_OPS)
    assert totals.counts["steps"] == 2 * 4  # 8 seen classes x 4 videos, batches of 8
    assert len(totals.step_ms) == totals.counts["steps"]


def test_spans_nest_and_self_time_excludes_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 3.0, 0],
        ["inner", 2.0, 4.0, 0],  # overlaps the first child: counted once
        ["leaf", 5.0, 6.0, 0],
        ["leaf", 5.5, 5.75, 3],
    ]
    totals = TraceTotals.from_spans(spans)
    assert totals.self_s["outer"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert totals.total_s["inner"] == pytest.approx(4.0)
    assert totals.self_s["leaf"] == pytest.approx(0.75 + 0.25)
    assert totals.calls == {"outer": 1, "inner": 2, "leaf": 2}
    assert covered([]) == 0.0


def test_tracer_records_parent_spans(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--out-dir", str(tmp_path), "--videos-per-class", "2"]) == 0
    finally:
        tracer.uninstall()
    tracer.take("synth")
    tracer.write(tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    parents = {span["name"]: spans[span["parent"]]["name"] for span in spans if span["parent"] >= 0}
    assert spans[0]["name"] == "cli.main" and spans[0]["phase"] == "synth"
    assert parents["cli.cmd"] == "cli.main"
    assert parents["embed_io.save"] == "corpus.save"
    assert parents["cli.corpus_fingerprint"] == "cli.cmd"


def test_p95_interpolates_between_order_statistics():
    assert p95(range(101)) == 95
    assert p95([1.0, 2.0]) == 1.95
