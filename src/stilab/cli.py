"""Command-line entry point.

Commands: ``attrs``, ``synth``, ``train``, ``eval``, ``saliency``. Every
command takes --seed, --config and --out-dir, writes its artifacts under the
output directory, and records them in a run manifest. All randomness flows
from the single seed; identical flags reproduce identical artifact bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__
from ._fileio import Fingerprint, atomic_open, json_value_fits
from .attributes import (
    MOCK_ENDPOINT,
    parse_description_corpus,
    run_attribute_pipeline,
    save_attribute_records,
)
from .corpus import (
    SyntheticCorpusSpec,
    corpus_fingerprint,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
)
from .encoders import FrameEmbeddingSet
from .evaluation import (
    MetricReport, SplitMetrics, evaluate_split, export_saliency, write_metric_csv,
)
from .trainer import (
    PARAM_VIDEO_BIAS,
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


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")
    p.add_argument("--config", type=Path, default=None, help="JSON file of flag defaults")
    p.add_argument("--out-dir", type=Path, default=Path("stilab-out"))


def _attrs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", type=Path, required=True, help="descriptions JSONL file")
    p.add_argument("--num-attributes", type=int, default=8)
    p.add_argument("--extractor", default=MOCK_ENDPOINT, help='"mock" or an HTTP endpoint URL')


def _synth_flags(p: argparse.ArgumentParser) -> None:
    _add_field_flags(p, SyntheticCorpusSpec)


def _train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    _add_field_flags(p, TrainConfig)


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--mode", choices=("zero-shot", "seen", "few-shot"), default="zero-shot")
    p.add_argument("--shots", type=int, default=4, help="K for few-shot mode")
    p.add_argument("--finetune-epochs", type=int, default=50)
    p.add_argument("--subset-size", type=int, default=None,
                   help="classes sampled per split (default: all)")
    p.add_argument("--num-attributes", type=int, default=None,
                   help="override the checkpoint's attribute count")
    p.add_argument("--spatial", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--temporal", action=argparse.BooleanOptionalAction, default=None)


def _saliency_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--video-id", required=True)
    p.add_argument("--class-name", required=True)
    p.add_argument("--num-attributes", type=int, default=None)


# Each command's help line and the function that adds its own flags.
_COMMAND_FLAGS = {
    "attrs": ("build descriptive attributes from a description corpus", _attrs_flags),
    "synth": ("generate a synthetic corpus directory", _synth_flags),
    "train": ("train on a corpus's seen classes", _train_flags),
    "eval": ("evaluate a checkpoint on a corpus", _eval_flags),
    "saliency": ("export per-frame saliency for a (video, class) pair", _saliency_flags),
}


def _build_parser(
    flagged=tuple(_COMMAND_FLAGS),
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name.
    Every command is registered, but only those in ``flagged`` get their
    flags: a command line names one, and building the rest costs time."""
    parser = argparse.ArgumentParser(
        prog="stilab",
        description="Descriptive attributes + spatial-temporal interaction, desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"stilab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (help_line, add_flags) in _COMMAND_FLAGS.items():
        commands[name] = sub.add_parser(name, help=help_line)
        if name in flagged:
            _common_flags(commands[name])
            add_flags(commands[name])
    return parser, commands


def _has_flag_type(action: argparse.Action, value) -> bool:
    """Whether a --config value can stand for the flag. argparse converts a
    string default with the flag's type, so other values must already have
    it, by the rule checkpoint configs also follow."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return json_value_fits(value, bool)
    return isinstance(value, str) or json_value_fits(value, action.type)


def _parse_args(argv) -> argparse.Namespace:
    parser, commands = _build_parser(argv[:1])
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
    files = Fingerprint([args.corpus])
    corpus = parse_description_corpus(files.read_bytes(args.corpus), args.corpus)
    records = run_attribute_pipeline(corpus, args.num_attributes, args.extractor)
    out = save_attribute_records(args.out_dir / "attributes.jsonl", records)
    results = {
        "classes": len(records),
        "shortfall_classes": sum(1 for r in records if r.shortfall),
    }
    return [out], results, files.hexdigest()


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
    # training scores the seen classes only; the other videos' values are not read
    corpus = load_corpus(args.corpus, lambda _, cls: cls.seen)
    config = _from_fields(TrainConfig, args)
    run = train_on_corpus(corpus, config)
    ckpt_path = save_checkpoint(args.out_dir / "checkpoint.stickpt", run.result)
    loss_path = write_loss_csv(args.out_dir / "loss.csv", run.result.loss_history)
    results = {
        "epochs": run.result.epoch,
        "first_epoch_loss": run.result.loss_history[0],
        "final_epoch_loss": run.result.loss_history[-1],
    }
    return [ckpt_path, loss_path], results, corpus.fingerprint


def _load_model(args, keep):
    """Load the corpus, keeping the videos ``keep`` selects (as
    ``load_corpus`` takes it), and the checkpoint, and view the checkpoint's
    store as model parameters; returns (corpus, checkpoint, config, enc, sti).
    ``config``, the one effective config, is the checkpoint's with each of the
    command's --num-attributes, --spatial and --temporal values that is given."""
    corpus = load_corpus(args.corpus, keep)
    checkpoint = load_checkpoint(args.checkpoint)
    # load_checkpoint holds every parameter to one dimension D
    dim = checkpoint.store.value(PARAM_VIDEO_BIAS).size
    if dim != corpus.spec.dim:
        raise CliError(f"checkpoint {args.checkpoint} has dimension {dim}, "
                       f"but corpus {args.corpus} has dim {corpus.spec.dim}")
    overrides = {name: getattr(args, name) for name in ("num_attributes", "spatial", "temporal")
                 if getattr(args, name, None) is not None}
    config = dataclasses.replace(checkpoint.config, **overrides)
    enc, sti = params_from_store(checkpoint.store, text_table_seed=corpus.spec.seed,
                                 dim=corpus.spec.dim, tau_saliency=config.tau_saliency)
    return corpus, checkpoint, config, enc, sti


def cmd_eval(args) -> tuple[list[Path], dict, str | None]:
    # each mode scores one class group: seen for --mode seen, unseen otherwise
    seen = args.mode == "seen"
    corpus, checkpoint, config, enc, sti = _load_model(args, lambda _, cls: cls.seen == seen)
    if args.mode == "few-shot":
        if not corpus.unseen_class_indices:
            raise CliError("corpus has no unseen classes for few-shot evaluation")
        data, _ = training_data_for(
            corpus, corpus.unseen_class_indices, config.num_attributes, enc
        )
        # fine-tuning keeps the default batch size, whatever the checkpoint's was
        tuned = few_shot_finetune(
            checkpoint.store.copy(), data, args.shots, args.finetune_epochs, args.seed,
            config=dataclasses.replace(config, batch_size=TrainConfig().batch_size),
        )
        enc, sti = params_from_store(tuned.fit.store, text_table_seed=corpus.spec.seed,
                                     dim=corpus.spec.dim, tau_saliency=config.tau_saliency)
        tuned_on = set(tuned.sample.indices)
        holdout = [i for i in range(len(data.videos)) if i not in tuned_on]
        if not holdout:
            raise CliError("few-shot sampling consumed every video; nothing left to evaluate")
        eval_data = data.subset(holdout)
        top1, top5 = evaluate_split(
            eval_data.videos, eval_data.labels,
            [ct.sequence for ct in data.class_texts], sti, enc, config.toggles,
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
        report = eval_group_three_splits(
            corpus, enc, sti,
            seen=seen,
            num_attributes=config.num_attributes,
            seed=args.seed,
            subset_size=args.subset_size,
            toggles=config.toggles,
        )
        results = {
            "mode": args.mode,
            "top1_mean": report.top1_mean,
            "top1_std": report.top1_std,
            "top5_mean": report.top5_mean,
            "top5_std": report.top5_std,
        }
    metrics_path = write_metric_csv(args.out_dir / "metrics.csv", report)
    return [metrics_path], results, corpus.fingerprint


def cmd_saliency(args) -> tuple[list[Path], dict, str | None]:
    # one video is scored, so the other videos' values are not read
    corpus, _, config, enc, sti = _load_model(args, lambda video_id, _: video_id == args.video_id)
    by_id = {video.video_id: video for video in corpus.videos}
    if args.video_id not in by_id:
        raise CliError(f"unknown video id {args.video_id!r}")
    names = [cls.name for cls in corpus.classes]
    if args.class_name not in names:
        raise CliError(f"unknown class name {args.class_name!r}")
    class_index = names.index(args.class_name)
    text = prepare_class_texts(corpus, (class_index,), config.num_attributes, enc).texts[0]
    video = FrameEmbeddingSet.from_raw(by_id[args.video_id].features)
    out_path = args.out_dir / f"saliency_{args.video_id}_{args.class_name}.csv"
    export_saliency(video, text.sequence, sti, enc, out_path, toggles=config.toggles)
    results = {"video_id": args.video_id, "class_name": args.class_name}
    return [out_path], results, corpus.fingerprint


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
