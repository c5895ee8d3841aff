"""The benchmark workloads and the closed-loop session that runs them.

One caller drives ``stilab.cli.main`` in-process and waits for each command
before sending the next. A run repeats cycles of one set-up (``synth``, plus
a 1-epoch ``train`` where the workload trains only to get a checkpoint) and
one measured pass of the workload's command sequence, until the run's
seconds are used up.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import stilab.cli as cli

from tracing import TAPE_OPS, TraceTotals, Tracer

SETUP_REPEATS = 3  # at least; a run sets up once before every pass
SALIENCY_SUM_TOLERANCE = 1e-9
EVAL_MODES = (("zero-shot", "unseen"), ("seen", "seen"))


@dataclass(frozen=True)
class Workload:
    synth_flags: tuple[str, ...]
    # ``train`` flags run in every measured pass, ``setup_train`` flags once
    # per set-up; a workload has exactly one of the two.
    train_flags: tuple[str, ...] | None
    setup_train_flags: tuple[str, ...] | None
    saliency_calls: int  # per pass
    saliency_pairs: int = 0  # distinct pairs a run cycles through; 0: one pass's worth


WORKLOADS = {
    "pipeline-default": Workload(
        synth_flags=(),
        train_flags=("--epochs", "30", "--batch-size", "16"),
        setup_train_flags=None,
        saliency_calls=20,
    ),
    "saliency-burst": Workload(
        synth_flags=(),
        train_flags=None,
        setup_train_flags=("--epochs", "1", "--batch-size", "16"),
        saliency_calls=50,
        saliency_pairs=200,
    ),
    "train-large": Workload(
        synth_flags=("--frames", "16", "--patches-per-frame", "32", "--dim", "64"),
        train_flags=("--epochs", "2", "--batch-size", "32"),
        setup_train_flags=None,
        saliency_calls=10,
    ),
}


def _epochs(flags) -> int:
    return int(flags[flags.index("--epochs") + 1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def p95(values) -> float:
    """95th percentile, interpolated linearly between order statistics."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


class Session:
    """One workload at one seed, in a private directory under ``work_root``."""

    def __init__(self, name: str, seed: int, work_root: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        work_root.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- commands ---------------------------------------------------------

    def command(self, *argv: str) -> float:
        """Run one CLI command; returns its wall time in seconds."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main([*argv, "--seed", str(self.seed)])
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"{argv[0]} returned {code}")
        return elapsed

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def record_digest(self, key: str, digest: str) -> None:
        previous = self.digests.setdefault(key, digest)
        self.check(previous == digest, f"{key} differs between runs at one seed")

    # -- set-up -----------------------------------------------------------

    def setup(self, rep: int) -> dict:
        """synth (+ 1-epoch train); returns timings and the output paths."""
        out = self.dir / f"setup{rep}"
        corpus = out / "corpus"
        seconds = self.command("synth", "--out-dir", str(out), *self.workload.synth_flags)
        for path in sorted(corpus.iterdir()) if corpus.is_dir() else ():
            self.record_digest(f"corpus/{path.name}", sha256(path))
        result = {"dir": out, "corpus": corpus, "checkpoint": None, "train_s": None}
        if self.workload.setup_train_flags is not None:
            train_s = self.command(
                "train", "--corpus", str(corpus), "--out-dir", str(out / "train"),
                *self.workload.setup_train_flags,
            )
            self.check_training(out / "train")
            seconds += train_s
            result.update(checkpoint=out / "train" / "checkpoint.stickpt", train_s=train_s)
        result["setup_s"] = seconds
        return result

    # -- one measured pass ------------------------------------------------

    def run_pass(self, index: int, corpus: Path, checkpoint: Path | None, pairs,
                 block: int) -> dict:
        out = self.dir / f"pass{index}"
        timings: dict = {"train_s": None}
        start = time.perf_counter()
        if self.workload.train_flags is not None:
            timings["train_s"] = self.command(
                "train", "--corpus", str(corpus), "--out-dir", str(out / "train"),
                *self.workload.train_flags,
            )
            checkpoint = out / "train" / "checkpoint.stickpt"
        timings["eval_s"] = sum(
            self.command(
                "eval", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                "--out-dir", str(out / f"eval-{key}"), "--mode", mode,
            )
            for mode, key in EVAL_MODES
        )
        saliency_dir = out / "saliency"
        timings["saliency_ms"] = [
            1e3 * self.command(
                "saliency", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                "--out-dir", str(saliency_dir), "--video-id", video_id, "--class-name", class_name,
            )
            for video_id, class_name in pairs
        ]
        timings["wall_s"] = time.perf_counter() - start
        # outputs are checked after the clock stops
        if self.workload.train_flags is not None:
            self.check_training(out / "train")
        for _, key in EVAL_MODES:
            self.check_eval(out / f"eval-{key}", key)
        self.check_saliency(saliency_dir, len(pairs), block)
        shutil.rmtree(out, ignore_errors=True)
        return timings

    # -- output checks ----------------------------------------------------

    def check_training(self, train_dir: Path) -> None:
        checkpoint, loss = train_dir / "checkpoint.stickpt", train_dir / "loss.csv"
        if not (checkpoint.is_file() and loss.is_file()):
            self.problems.append(f"missing training artifacts in {train_dir.name}")
            return
        values = [float(line.split(",")[1]) for line in loss.read_text().splitlines()[1:]]
        self.check(bool(values) and all(map(math.isfinite, values)), "loss.csv is not finite")
        self.record_digest("checkpoint.stickpt", sha256(checkpoint))
        self.record_digest("loss.csv", sha256(loss))

    def check_eval(self, eval_dir: Path, key: str) -> None:
        manifest, metrics = eval_dir / cli.MANIFEST_FILENAME, eval_dir / "metrics.csv"
        if not (manifest.is_file() and metrics.is_file()):
            self.problems.append(f"missing eval artifacts for {key} classes")
            return
        results = json.loads(manifest.read_text())["results"]
        top1 = results.get("top1_mean")
        self.check(isinstance(top1, float), f"{key} eval manifest lacks top1_mean")
        if isinstance(top1, float):
            self.quality.setdefault(f"quality.{key}_top1", top1)
        self.record_digest(f"metrics.{key}.csv", sha256(metrics))

    def check_saliency(self, saliency_dir: Path, expected: int, block: int) -> None:
        files = sorted(saliency_dir.glob("saliency_*.csv")) if saliency_dir.is_dir() else []
        self.check(len(files) == expected, f"{len(files)} saliency CSVs, expected {expected}")
        combined = hashlib.sha256()
        for path in files:
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            total = math.fsum(float(row[2]) for row in rows)
            self.check(abs(total - 1.0) <= SALIENCY_SUM_TOLERANCE,
                       f"{path.name}: s_temp sums to {total!r}")
            combined.update(path.name.encode())
            combined.update(path.read_bytes())
        self.record_digest(f"saliency.block{block}.csv", combined.hexdigest())


def corpus_shape(corpus: Path) -> dict:
    """Class/video counts per group, read from the generated corpus."""
    meta = json.loads((corpus / "corpus.json").read_text())
    seen = {c["index"] for c in meta["classes"] if c["seen"]}
    unseen = {c["index"] for c in meta["classes"] if not c["seen"]}
    videos = meta["videos"]
    return {
        "seen_classes": len(seen),
        "unseen_classes": len(unseen),
        "seen_videos": sum(v["class_index"] in seen for v in videos),
        "unseen_videos": sum(v["class_index"] in unseen for v in videos),
        "unseen_video_ids": [v["video_id"] for v in videos if v["class_index"] in unseen],
        "unseen_class_names": [c["name"] for c in meta["classes"] if not c["seen"]],
    }


def saliency_pairs(shape: dict, count: int, seed: int) -> list[tuple[str, str]]:
    """``count`` distinct (unseen video, unseen class) pairs drawn from the seed."""
    universe = [
        (video, name)
        for video in shape["unseen_video_ids"]
        for name in shape["unseen_class_names"]
    ]
    return random.Random(seed).sample(universe, count)


def run_session(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
                between_passes=None) -> dict:
    """Run one workload; returns the result object the benchmark prints.

    ``between_passes`` is called in the untimed gap after every pass of an
    untraced run (the import probes use it).
    """
    session = Session(name, seed, work_root)
    tracer = Tracer() if trace else None
    try:
        return _run(session, seconds, tracer, between_passes)
    finally:
        if tracer is not None:
            tracer.uninstall()
        session.close()


def _run(session: Session, seconds: float, tracer: Tracer | None, between_passes) -> dict:
    """Alternate set-ups and passes until a typical pair no longer fits.

    Interleaving spreads the set-up samples over the run instead of bunching
    them at its start. Trace runs trace every set-up and every other pass,
    starting untraced, so tracing.overhead_s compares passes of one process.
    """
    workload = session.workload
    setups, passes, traced_flags = [], [], []
    setup_trace, pass_trace = TraceTotals(), TraceTotals()
    session_rss_mb = None
    blocks = None
    start = time.perf_counter()
    cycles = []
    while True:
        cycle_start = time.perf_counter()
        if setups:
            shutil.rmtree(setups[-1]["dir"], ignore_errors=True)
        setups.append(_traced(tracer, "setup", setup_trace, session.setup, len(setups)))
        last = setups[-1]
        if blocks is None:
            shape = corpus_shape(last["corpus"])
            per_pass = workload.saliency_calls
            pairs = saliency_pairs(shape, max(per_pass, workload.saliency_pairs), session.seed)
            blocks = [pairs[i : i + per_pass] for i in range(0, len(pairs), per_pass)]
        block = len(passes) % len(blocks)
        traced = tracer is not None and len(passes) % 2 == 1
        run = functools.partial(
            session.run_pass, len(passes), last["corpus"], last["checkpoint"], blocks[block],
            block,
        )
        passes.append(_traced(tracer, "pass", pass_trace, run) if traced else run())
        traced_flags.append(traced)
        if session_rss_mb is None:
            # one set-up and one pass: later passes only add allocator drift
            session_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None and between_passes is not None:
            between_passes()
        cycles.append(time.perf_counter() - cycle_start)
        typical = statistics.median(cycles)
        enough = len(passes) >= (1 if tracer is None else 2)
        if enough and time.perf_counter() - start + typical > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        shutil.rmtree(setups[-1]["dir"], ignore_errors=True)
        setups.append(_traced(tracer, "setup", setup_trace, session.setup, len(setups)))

    saliency_ms = [ms for p in passes for ms in p["saliency_ms"]]
    info = {
        "workload": session.name,
        "seed": session.seed,
        "passes": len(passes),
        "setups": len(setups),
        "saliency_calls": len(saliency_ms),
        "quality": session.quality,
        "digests": session.digests,
        "problems": session.problems[:20],
    }
    if tracer is None:
        metrics = end_to_end_metrics(workload, shape, setups, passes, saliency_ms)
        metrics["peak_rss_mb"] = {"value": session_rss_mb, "unit": "MB"}
    else:
        spans_path = session.dir.parent / f"spans-{session.name}-seed{session.seed}.jsonl"
        tracer.write(spans_path)
        info["spans"] = str(spans_path)
        untraced = [p["wall_s"] for p, t in zip(passes, traced_flags) if not t]
        traced = [p["wall_s"] for p, t in zip(passes, traced_flags) if t]
        metrics = per_layer_metrics(
            setup_trace, len(setups), pass_trace, len(traced),
            statistics.median(traced) - statistics.median(untraced),
        )
    return {
        "info": info,
        "correct": session.failed == 0 and not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def _traced(tracer: Tracer | None, phase: str, totals: TraceTotals, fn, *args):
    """Call fn, tracing it into ``totals`` when a tracer is given."""
    if tracer is None:
        return fn(*args)
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()
        totals.add(tracer.take(phase))


def end_to_end_metrics(workload: Workload, shape: dict, setups, passes, saliency_ms) -> dict:
    median = statistics.median
    if workload.train_flags is not None:
        epochs = _epochs(workload.train_flags)
        train_times = [p["train_s"] for p in passes]
    else:
        epochs = _epochs(workload.setup_train_flags)
        train_times = [s["train_s"] for s in setups]
    pairs_per_pass = 3 * (
        shape["unseen_videos"] * shape["unseen_classes"]
        + shape["seen_videos"] * shape["seen_classes"]
    )
    values = {
        "setup_s": (median(s["setup_s"] for s in setups), "s"),
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "train.videos_per_s": (
            median(shape["seen_videos"] * epochs / t for t in train_times), "1/s"),
        "eval.pairs_per_s": (median(pairs_per_pass / p["eval_s"] for p in passes), "1/s"),
        "saliency.call_ms.p50": (median(saliency_ms), "ms"),
        "saliency.call_ms.p95": (p95(saliency_ms), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# per-layer metric -> (span name, what to read)
SPAN_METRICS = {
    "cli.fingerprint_s": ("cli.corpus_fingerprint", "self"),
    "cli.self_s": ("cli.main", "self"),
    "corpus.generate_s": ("corpus.generate", "self"),
    "corpus.load_s": ("corpus.load", "self"),
    "corpus.load_calls": ("corpus.load", "calls"),
    "corpus.save_s": ("corpus.save", "self"),
    "embed_io.load_s": ("embed_io.load", "self"),
    "embed_io.save_s": ("embed_io.save", "self"),
    "attributes.build_s": ("attributes.build", "self"),
    "attributes.build_calls": ("attributes.build", "calls"),
    "encoders.encode_sentence_s": ("encoders.encode_sentence", "self"),
    "encoders.encode_sentence_calls": ("encoders.encode_sentence", "calls"),
    "workflow.training_data_for_s": ("workflow.training_data_for", "self"),
    "workflow.training_data_for_calls": ("workflow.training_data_for", "calls"),
    "encoders.encode_video_nodes_s": ("encoders.encode_video_nodes", "self"),
    "sti.project_s": ("sti.project", "self"),
    "sti.spatial_s": ("sti.spatial", "self"),
    "sti.temporal_s": ("sti.temporal", "self"),
    "sti.aggregate_s": ("sti.aggregate", "self"),
    "sti.pipeline_calls": ("sti.pipeline", "calls"),
    "objective.score_matrix_s": ("objective.score_matrix", "self"),
    "objective.loss_s": ("objective.loss", "self"),
    "autodiff.backward_s": ("autodiff.backward", "self"),
    "trainer.forward_s": ("trainer.forward", "total"),
    "trainer.optimizer_s": ("trainer.optimizer", "self"),
    "trainer.checkpoint_save_s": ("trainer.checkpoint_save", "self"),
    "trainer.checkpoint_load_s": ("trainer.checkpoint_load", "self"),
    "evaluation.evaluate_split_s": ("evaluation.evaluate_split", "total"),
    "evaluation.score_batches": ("evaluation.score_batch", "calls"),
    "evaluation.export_saliency_s": ("evaluation.export_saliency", "total"),
}
# per-layer metric -> tracer counter
COUNT_METRICS = {
    "cli.fingerprint_bytes": "fingerprint_bytes",
    "embed_io.bytes_read": "embed_bytes_read",
    "trainer.checkpoint_bytes": "checkpoint_bytes",
    "trainer.steps": "steps",
}


def _layer_values(totals: TraceTotals) -> dict:
    values = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        source = {"self": totals.self_s, "total": totals.total_s, "calls": totals.calls}[kind]
        values[metric] = source.get(span, 0)
    for metric, counter in COUNT_METRICS.items():
        values[metric] = totals.counts[counter]
    for op in TAPE_OPS:
        values[f"autodiff.{op}.calls"] = totals.op_calls[op]
        values[f"autodiff.{op}.fwd_s"] = totals.op_seconds.get(op, 0.0)
    return values


def per_layer_metrics(setup: TraceTotals, setup_reps: int, passes: TraceTotals,
                      pass_count: int, overhead_s: float) -> dict:
    """Per-session layer numbers: one set-up plus one measured pass."""
    setup_values, pass_values = _layer_values(setup), _layer_values(passes)
    values = {
        metric: setup_values[metric] / setup_reps + pass_values[metric] / pass_count
        for metric in setup_values
    }
    steps = setup.step_ms + passes.step_ms
    records = setup.counts["tape_records"] + passes.counts["tape_records"]
    backwards = setup.counts["backward_calls"] + passes.counts["backward_calls"]
    values["autodiff.records_per_step"] = records / backwards
    values["trainer.step_ms.p50"] = statistics.median(steps)
    values["trainer.step_ms.p95"] = p95(steps)
    values["tracing.overhead_s"] = overhead_s
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def layer_unit(metric: str) -> str:
    if metric.endswith("_ms") or ".step_ms." in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_read"):
        return "bytes"
    return "count"
