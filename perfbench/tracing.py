"""Per-layer tracing of stilab from outside the program.

The tracer replaces public functions with thin wrappers at the names their
callers look up (``objective`` imports ``project_nodes`` by name, ``corpus``
imports ``save_embeddings``/``load_embeddings`` by name, ``cli`` imports its
helpers from ``workflow``, and so on). Layer functions record spans (name,
start, end, parent) into an in-memory list; tape primitives are counted and
timed per op name without opening spans, so a stage span such as
``sti.spatial`` keeps the cost of the ops it calls in its self time.
``uninstall`` puts every original object back. Spans stay in memory until
``write`` saves them at the end of the run.

Nothing here changes what the wrapped functions compute: wrappers pass
arguments and results through untouched.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name). A module may list the same function twice
# when two callers look it up in different namespaces.
SPAN_TARGETS = (
    ("stilab.cli", "main", "cli.main"),
    ("stilab.cli", "corpus_fingerprint", "cli.corpus_fingerprint"),
    ("stilab.cli", "generate_synthetic_corpus", "corpus.generate"),
    ("stilab.cli", "save_corpus", "corpus.save"),
    ("stilab.cli", "load_corpus", "corpus.load"),
    ("stilab.corpus", "save_embeddings", "embed_io.save"),
    ("stilab.corpus", "load_embeddings", "embed_io.load"),
    ("stilab.cli", "training_data_for", "workflow.training_data_for"),
    ("stilab.workflow", "training_data_for", "workflow.training_data_for"),
    ("stilab.cli", "train_on_corpus", "workflow.train_on_corpus"),
    ("stilab.cli", "eval_group_three_splits", "workflow.eval_group_three_splits"),
    ("stilab.workflow", "build_attribute_set", "attributes.build"),
    ("stilab.workflow", "encode_sentence", "encoders.encode_sentence"),
    ("stilab.workflow", "fit", "trainer.fit"),
    ("stilab.trainer", "training_step_loss", "trainer.forward"),
    ("stilab.trainer", "optimizer_step", "trainer.optimizer"),
    ("stilab.trainer", "score_matrix_nodes", "objective.score_matrix"),
    ("stilab.objective", "score_matrix_nodes", "objective.score_matrix"),
    ("stilab.trainer", "loss_nodes", "objective.loss"),
    ("stilab.cli", "save_checkpoint", "trainer.checkpoint_save"),
    ("stilab.cli", "load_checkpoint", "trainer.checkpoint_load"),
    ("stilab.cli", "write_loss_csv", "trainer.write_loss_csv"),
    ("stilab.workflow", "evaluate_three_splits", "evaluation.evaluate_three_splits"),
    ("stilab.evaluation", "evaluate_split", "evaluation.evaluate_split"),
    ("stilab.evaluation", "score_matrix", "evaluation.score_batch"),
    ("stilab.cli", "write_metric_csv", "evaluation.write_metric_csv"),
    ("stilab.cli", "export_saliency", "evaluation.export_saliency"),
    ("stilab.objective", "encode_video_nodes", "encoders.encode_video_nodes"),
    ("stilab.encoders", "encode_video_nodes", "encoders.encode_video_nodes"),
    ("stilab.encoders", "encode_video", "encoders.encode_video"),
    ("stilab.objective", "project_nodes", "sti.project"),
    ("stilab.sti", "project_nodes", "sti.project"),
    ("stilab.objective", "sti_pipeline_nodes", "sti.pipeline"),
    ("stilab.sti", "sti_pipeline_nodes", "sti.pipeline"),
    ("stilab.sti", "spatial_nodes", "sti.spatial"),
    ("stilab.sti", "temporal_nodes", "sti.temporal"),
    ("stilab.sti", "aggregate_nodes", "sti.aggregate"),
    ("stilab.evaluation", "sti_forward", "sti.forward"),
)

# Tape primitives timed per op. Callers reach them as ``ad.<op>`` (module
# attribute lookup), so patching ``stilab.autodiff`` covers every call site.
TAPE_OPS = (
    "matmul", "max_reduce", "relu", "softmax", "log_softmax", "weighted_sum", "mul",
    "add", "mean_reduce", "l2_normalize", "clip", "stack", "index_select",
)

_clock = time.perf_counter


class Tracer:
    """Spans and counters for one traced run; call ``install`` to start."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.log: list[tuple] = []  # (phase, name, start, end, parent index) of taken spans
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.op_calls: Counter = Counter()
        self.op_seconds: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.step_ms: list[float] = []
        self._step_start: float | None = None
        self._hooks = self._exit_hooks()

    # -- installing -------------------------------------------------------

    def _patch(self, owner, key, wrapper, mapping: bool = False) -> None:
        original = owner[key] if mapping else getattr(owner, key)
        self._patches.append((owner, key, original, mapping))
        if mapping:
            owner[key] = wrapper(original)
        else:
            setattr(owner, key, wrapper(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span_wrapper(span, attr))
        cli = importlib.import_module("stilab.cli")
        for command in list(cli._COMMANDS):  # main looks commands up in this table
            self._patch(cli._COMMANDS, command, self._span_wrapper("cli.cmd", command), True)
        autodiff = importlib.import_module("stilab.autodiff")
        for op in TAPE_OPS:
            self._patch(autodiff, op, self._op_wrapper(op))
        self._patch(autodiff.Tape, "backward", self._backward_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, mapping = self._patches.pop()
            if mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, attr: str):
        spans, opened = self.spans, self._open
        on_exit = self._hooks.get(attr)

        def wrap(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, 0.0, 0.0, opened[-1] if opened else -1])
                opened.append(index)
                start = _clock()
                spans[index][1] = start
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans[index][2] = _clock()
                    opened.pop()
                if on_exit is not None:
                    on_exit(args, kwargs, result, start)
                return result

            traced.__wrapped__ = fn
            return traced

        return wrap

    def _op_wrapper(self, op: str):
        calls, seconds = self.op_calls, self.op_seconds

        def wrap(fn):
            def traced(*args, **kwargs):
                start = _clock()
                result = fn(*args, **kwargs)
                seconds[op] += _clock() - start
                calls[op] += 1
                return result

            traced.__wrapped__ = fn
            return traced

        return wrap

    def _backward_wrapper(self, fn):
        span = self._span_wrapper("autodiff.backward", "backward")(fn)
        counts = self.counts

        def backward(tape, output):
            counts["tape_records"] += len(tape.records)
            counts["backward_calls"] += 1
            return span(tape, output)

        backward.__wrapped__ = fn
        return backward

    def _exit_hooks(self) -> dict:
        counts = self.counts

        def fingerprint(args, kwargs, result, start):
            counts["fingerprint_bytes"] += sum(
                p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file()
            )

        def embeddings_loaded(args, kwargs, result, start):
            counts["embed_bytes_read"] += os.path.getsize(args[0])

        def checkpoint_saved(args, kwargs, result, start):
            counts["checkpoint_bytes"] += os.path.getsize(result)

        def step_started(args, kwargs, result, start):
            self._step_start = start

        def step_finished(args, kwargs, result, start):
            if self._step_start is not None:
                self.step_ms.append((_clock() - self._step_start) * 1e3)
                self._step_start = None
            counts["steps"] += 1

        return {
            "corpus_fingerprint": fingerprint,
            "load_embeddings": embeddings_loaded,
            "save_checkpoint": checkpoint_saved,
            "training_step_loss": step_started,
            "optimizer_step": step_finished,
        }

    # -- reading ----------------------------------------------------------

    def take(self, phase: str) -> "TraceTotals":
        """Totals since the last call; the spans move to ``log`` under ``phase``."""
        if self._open:
            raise RuntimeError("cannot take totals while a span is open")
        totals = TraceTotals.from_spans(self.spans)
        base = len(self.log)
        self.log.extend(
            (phase, name, start, end, parent + base if parent >= 0 else -1)
            for name, start, end, parent in self.spans
        )
        totals.op_calls = Counter(self.op_calls)
        totals.op_seconds = dict(self.op_seconds)
        totals.counts = Counter(self.counts)
        totals.step_ms = list(self.step_ms)
        self.spans.clear()
        self.op_calls.clear()
        self.op_seconds.clear()
        self.counts.clear()
        self.step_ms.clear()
        return totals


    def write(self, path: Path) -> None:
        """Write every taken span as one JSON object per line."""
        keys = ("phase", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.log:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class TraceTotals:
    """Per span name: calls, total (inclusive) seconds and self seconds."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.op_calls: Counter = Counter()
        self.op_seconds: dict = {}
        self.counts: Counter = Counter()
        self.step_ms: list[float] = []

    def add(self, other: "TraceTotals") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.op_calls, other.op_calls),
                             (self.counts, other.counts)):
            mine.update(theirs)
        for mine, theirs in ((self.total_s, other.total_s), (self.self_s, other.self_s)):
            for name, seconds in theirs.items():
                mine[name] += seconds
        for op, seconds in other.op_seconds.items():
            self.op_seconds[op] = self.op_seconds.get(op, 0.0) + seconds
        self.step_ms.extend(other.step_ms)

    @classmethod
    def from_spans(cls, spans) -> "TraceTotals":
        totals = cls()
        children: defaultdict = defaultdict(list)
        for index, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                children[parent].append((start, end))
        for index, (name, start, end, _) in enumerate(spans):
            duration = end - start
            totals.calls[name] += 1
            totals.total_s[name] += duration
            totals.self_s[name] += duration - covered(children.get(index, ()))
        return totals


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    length = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length
