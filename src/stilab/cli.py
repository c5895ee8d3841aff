"""Command-line entry point.

Commands: ``attrs``, ``synth``, ``train``, ``eval``, ``saliency``. Every
command takes --seed, --config and --out-dir, writes its artifacts under the
output directory, and records them in a run manifest. All randomness flows
from the single seed; identical flags reproduce identical artifact bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from ._fileio import atomic_open
from .attributes import (
    MOCK_ENDPOINT,
    load_description_corpus,
    run_attribute_pipeline,
    save_attribute_records,
)
from .corpus import SyntheticCorpusSpec, generate_synthetic_corpus, load_corpus, save_corpus
from .encoders import FrameEmbeddingSet
from .evaluation import (
    MetricReport, SplitMetrics, evaluate_split, export_saliency, write_metric_csv,
)
from .sti import DEFAULT_SALIENCY_TEMPERATURE, InteractionToggles
from .trainer import (
    TrainConfig,
    few_shot_finetune,
    load_checkpoint,
    save_checkpoint,
    write_loss_csv,
)
from .workflow import (
    eval_group_three_splits,
    params_from_store,
    prepare_class_texts,
    train_on_corpus,
    training_data_for,
)

MANIFEST_FILENAME = "manifest.json"


class CliError(Exception):
    pass


def _hash_paths(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def corpus_fingerprint(corpus_dir) -> str:
    """Content hash over every file in a corpus directory."""
    corpus_dir = Path(corpus_dir)
    files = [p for p in sorted(corpus_dir.iterdir()) if p.is_file()]
    return _hash_paths(files)


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    artifacts: list[Path],
    results: dict,
    started: float,
    fingerprint: str | None,
) -> Path:
    manifest = {
        "tool": f"stilab {__version__}",
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "corpus_fingerprint": fingerprint,
        "artifacts": sorted(str(p.relative_to(out_dir)) for p in artifacts),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "results": results,
    }
    path = out_dir / MANIFEST_FILENAME
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return path


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    payload = json.loads(Path(path).read_text("utf-8"))
    if not isinstance(payload, dict):
        raise CliError("--config file must hold a JSON object of flag values")
    return payload


def _add_field_flags(parser: argparse.ArgumentParser, settings: type) -> None:
    """One flag per field of a settings dataclass, ``--<field-with-dashes>``,
    with the field's default and that default's type (which the tests hold
    equal to the annotation); ``seed`` is left to --seed."""
    for field in dataclasses.fields(settings):
        if field.name == "seed":
            continue
        flag = "--" + field.name.replace("_", "-")
        if type(field.default) is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction,
                                default=field.default)
        else:
            parser.add_argument(flag, type=type(field.default), default=field.default)


def _from_fields(settings: type, args: argparse.Namespace):
    """Build a settings dataclass from the parsed flags of its fields."""
    return settings(**{field.name: getattr(args, field.name)
                       for field in dataclasses.fields(settings)})


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="stilab",
        description="Descriptive attributes + spatial-temporal interaction, desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"stilab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
        p.add_argument("--config", type=Path, default=None, help="JSON file of flag defaults")
        p.add_argument("--out-dir", type=Path, default=Path("stilab-out"))

    p_attrs = sub.add_parser("attrs", help="build descriptive attributes from a description corpus")
    common(p_attrs)
    p_attrs.add_argument("--corpus", type=Path, required=True, help="descriptions JSONL file")
    p_attrs.add_argument("--num-attributes", type=int, default=8)
    p_attrs.add_argument(
        "--extractor", default=MOCK_ENDPOINT, help='"mock" or an HTTP endpoint URL'
    )

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus directory")
    common(p_synth)
    _add_field_flags(p_synth, SyntheticCorpusSpec)

    p_train = sub.add_parser("train", help="train on a corpus's seen classes")
    common(p_train)
    p_train.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    _add_field_flags(p_train, TrainConfig)
    p_train.add_argument("--tau-saliency", type=float, default=DEFAULT_SALIENCY_TEMPERATURE)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    common(p_eval)
    p_eval.add_argument("--corpus", type=Path, required=True)
    p_eval.add_argument("--checkpoint", type=Path, required=True)
    p_eval.add_argument(
        "--mode", choices=("zero-shot", "seen", "few-shot"), default="zero-shot"
    )
    p_eval.add_argument("--shots", type=int, default=4, help="K for few-shot mode")
    p_eval.add_argument("--finetune-epochs", type=int, default=50)
    p_eval.add_argument("--subset-size", type=int, default=None,
                        help="classes sampled per split (default: all)")
    p_eval.add_argument("--num-attributes", type=int, default=None,
                        help="override the checkpoint's attribute count")
    p_eval.add_argument("--spatial", action=argparse.BooleanOptionalAction, default=None)
    p_eval.add_argument("--temporal", action=argparse.BooleanOptionalAction, default=None)

    p_sal = sub.add_parser("saliency", help="export per-frame saliency for a (video, class) pair")
    common(p_sal)
    p_sal.add_argument("--corpus", type=Path, required=True)
    p_sal.add_argument("--checkpoint", type=Path, required=True)
    p_sal.add_argument("--video-id", required=True)
    p_sal.add_argument("--class-name", required=True)
    p_sal.add_argument("--num-attributes", type=int, default=None)
    commands = {"attrs": p_attrs, "synth": p_synth, "train": p_train, "eval": p_eval,
                "saliency": p_sal}
    return parser, commands


def _has_flag_type(action: argparse.Action, value) -> bool:
    """Whether a --config value can stand for the flag. argparse converts a
    string default with the flag's type, so other values must already have it;
    a bool is not a number here."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return isinstance(value, bool)
    if isinstance(value, str):
        return True
    if isinstance(value, bool):
        return False
    if action.type is int:
        return isinstance(value, int)
    if action.type is float:
        return isinstance(value, (int, float))
    return False


def _parse_args(argv) -> argparse.Namespace:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    # The file's values become defaults of the command's own flags, so an
    # explicit flag wins in any spelling argparse accepts and a file string
    # gets the flag's type. Keys naming none of the command's flags are ignored.
    command = commands[args.command]
    actions = {action.dest: action for action in command._actions}
    defaults = {}
    for key, value in _load_config_file(args.config).items():
        dest = key.replace("-", "_")
        if hasattr(args, dest) and dest != "command":
            action = actions[dest]
            if not _has_flag_type(action, value):
                command.error(f"--config value {value!r} for {key!r} has the wrong type")
            if action.choices is not None and value not in action.choices:
                command.error(f"--config value {value!r} for {key!r} is not one of "
                              f"{', '.join(map(repr, action.choices))}")
            if action.type is float and not isinstance(value, str):
                value = float(value)  # as the flag would give it: an int becomes a float
            defaults[dest] = value
    if defaults:
        command.set_defaults(**defaults)
        args = parser.parse_args(argv)
    return args


def cmd_attrs(args) -> tuple[list[Path], dict, str | None]:
    corpus = load_description_corpus(args.corpus)
    records = run_attribute_pipeline(corpus, args.num_attributes, args.extractor)
    out = save_attribute_records(args.out_dir / "attributes.jsonl", records)
    results = {
        "classes": len(records),
        "shortfall_classes": sum(1 for r in records if r.shortfall),
    }
    return [out], results, _hash_paths([args.corpus])


def cmd_synth(args) -> tuple[list[Path], dict, str | None]:
    corpus = generate_synthetic_corpus(_from_fields(SyntheticCorpusSpec, args))
    corpus_dir = args.out_dir / "corpus"
    artifacts = save_corpus(corpus, corpus_dir)
    results = {
        "classes": len(corpus.classes),
        "videos": len(corpus.videos),
        "corpus_dir": str(corpus_dir),
    }
    return artifacts, results, corpus_fingerprint(corpus_dir)


def cmd_train(args) -> tuple[list[Path], dict, str | None]:
    corpus = load_corpus(args.corpus)
    config = _from_fields(TrainConfig, args)
    run = train_on_corpus(corpus, config, tau_saliency=args.tau_saliency)
    ckpt_path = save_checkpoint(args.out_dir / "checkpoint.stickpt", run.result)
    loss_path = write_loss_csv(args.out_dir / "loss.csv", run.result.loss_history)
    results = {
        "epochs": run.result.epoch,
        "first_epoch_loss": run.result.loss_history[0],
        "final_epoch_loss": run.result.loss_history[-1],
    }
    return [ckpt_path, loss_path], results, corpus_fingerprint(args.corpus)


def _toggles_for_eval(args, config: TrainConfig) -> InteractionToggles:
    spatial = config.spatial if args.spatial is None else args.spatial
    temporal = config.temporal if args.temporal is None else args.temporal
    return InteractionToggles(spatial=spatial, temporal=temporal)


def _load_model(args):
    """Load the corpus and the checkpoint, and view the checkpoint's store as
    model parameters; returns (corpus, checkpoint, num_attributes, enc, sti)."""
    corpus = load_corpus(args.corpus)
    checkpoint = load_checkpoint(args.checkpoint)
    num_attributes = (
        checkpoint.config.num_attributes if args.num_attributes is None else args.num_attributes
    )
    enc, sti = params_from_store(
        checkpoint.store,
        text_table_seed=corpus.spec.seed,
        dim=corpus.spec.dim,
        tau_saliency=checkpoint.tau_saliency,
    )
    return corpus, checkpoint, num_attributes, enc, sti


def cmd_eval(args) -> tuple[list[Path], dict, str | None]:
    corpus, checkpoint, num_attributes, enc, sti = _load_model(args)
    toggles = _toggles_for_eval(args, checkpoint.config)
    if args.mode == "few-shot":
        if not corpus.unseen_class_indices:
            raise CliError("corpus has no unseen classes for few-shot evaluation")
        data, _ = training_data_for(
            corpus, corpus.unseen_class_indices, num_attributes, enc
        )
        config = TrainConfig(
            learning_rate=checkpoint.config.learning_rate,
            weight_decay=checkpoint.config.weight_decay,
            spatial=toggles.spatial,
            temporal=toggles.temporal,
            num_attributes=num_attributes,
        )
        tuned = few_shot_finetune(
            checkpoint.store.copy(), data, args.shots, args.finetune_epochs, args.seed,
            config=config, tau_saliency=checkpoint.tau_saliency,
        )
        enc, sti = params_from_store(
            tuned.fit.store,
            text_table_seed=corpus.spec.seed,
            dim=corpus.spec.dim,
            tau_saliency=checkpoint.tau_saliency,
        )
        tuned_on = set(tuned.sample.indices)
        holdout = [i for i in range(len(data.videos)) if i not in tuned_on]
        if not holdout:
            raise CliError("few-shot sampling consumed every video; nothing left to evaluate")
        eval_data = data.subset(holdout)
        top1, top5 = evaluate_split(
            eval_data.videos, eval_data.labels,
            [ct.sequence for ct in data.class_texts], sti, enc, toggles,
        )
        report = MetricReport.from_splits([SplitMetrics(split_id=1, top1=top1, top5=top5)])
        results = {
            "mode": "few-shot",
            "shots": args.shots,
            "shortfall_classes": list(tuned.sample.shortfall_classes),
            "top1": top1,
            "top5": top5,
        }
    else:
        seen = args.mode == "seen"
        report = eval_group_three_splits(
            corpus, enc, sti,
            seen=seen,
            num_attributes=num_attributes,
            seed=args.seed,
            subset_size=args.subset_size,
            toggles=toggles,
        )
        results = {
            "mode": args.mode,
            "top1_mean": report.top1_mean,
            "top1_std": report.top1_std,
            "top5_mean": report.top5_mean,
            "top5_std": report.top5_std,
        }
    metrics_path = write_metric_csv(args.out_dir / "metrics.csv", report)
    return [metrics_path], results, corpus_fingerprint(args.corpus)


def cmd_saliency(args) -> tuple[list[Path], dict, str | None]:
    corpus, checkpoint, num_attributes, enc, sti = _load_model(args)
    by_id = {video.video_id: video for video in corpus.videos}
    if args.video_id not in by_id:
        raise CliError(f"unknown video id {args.video_id!r}")
    names = [cls.name for cls in corpus.classes]
    if args.class_name not in names:
        raise CliError(f"unknown class name {args.class_name!r}")
    class_index = names.index(args.class_name)
    text = prepare_class_texts(corpus, (class_index,), num_attributes, enc).texts[0]
    video = FrameEmbeddingSet.from_raw(by_id[args.video_id].features)
    out_path = args.out_dir / f"saliency_{args.video_id}_{args.class_name}.csv"
    export_saliency(
        video, text.sequence, sti, enc, out_path,
        toggles=checkpoint.config.toggles,
    )
    results = {"video_id": args.video_id, "class_name": args.class_name}
    return [out_path], results, corpus_fingerprint(args.corpus)


_COMMANDS = {
    "attrs": cmd_attrs,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "saliency": cmd_saliency,
}


def main(argv=None) -> int:
    started = time.time()
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
        args.out_dir.mkdir(parents=True, exist_ok=True)
        artifacts, results, fingerprint = _COMMANDS[args.command](args)
        config = {
            key: (str(value) if isinstance(value, Path) else value)
            for key, value in vars(args).items()
            if key not in ("command",)
        }
        _write_manifest(
            args.out_dir, args.command, config, list(artifacts), results, started, fingerprint
        )
    except SystemExit as exc:  # argparse errors carry their own exit code
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"stilab: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
