import argparse
import builtins
import collections
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import typing
from pathlib import Path

import numpy as np
import pytest

import stilab
from stilab import cli, evaluation, trainer
from stilab.attributes import DEFAULT_EXTRACTION_PROMPT, load_attribute_records
from stilab.cli import main
from stilab.corpus import SyntheticCorpusSpec, load_corpus
from stilab.encoders import FrameEmbeddingSet, tokenize
from stilab.evaluation import evaluate_split, export_saliency
from stilab.sti import InteractionToggles
from stilab.trainer import TrainConfig, load_checkpoint
from stilab.workflow import (
    corpus_encoder_params, params_from_store, prepare_class_texts, training_data_for,
)
from test_trainer import earlier_layout

SMALL_SYNTH = [
    "--num-concepts", "8", "--seen-classes", "4", "--unseen-classes", "2",
    "--videos-per-class", "4", "--frames", "4", "--patches-per-frame", "6",
    "--dim", "16",
]
SYNTH_SHAPE = SMALL_SYNTH[:6] + SMALL_SYNTH[8:]  # without --videos-per-class


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert run_cli("synth", "--seed", 3, "--out-dir", out, *SMALL_SYNTH) == 0
    return out


@pytest.fixture()
def trained(synth_dir, tmp_path):
    out = tmp_path / "train"
    code = run_cli(
        "train", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
        "--epochs", 3, "--batch-size", 8,
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_corpus_and_manifest(self, synth_dir):
        assert (synth_dir / "corpus" / "descriptions.jsonl").exists()
        assert (synth_dir / "corpus" / "videos.bin").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["corpus_fingerprint"]
        for artifact in manifest["artifacts"]:
            assert (synth_dir / artifact).exists()

    def test_same_seed_produces_identical_corpus_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--seed", 9, "--out-dir", a, *SMALL_SYNTH)
        run_cli("synth", "--seed", 9, "--out-dir", b, *SMALL_SYNTH)
        for name in ("descriptions.jsonl", "videos.bin", "corpus.json"):
            assert (a / "corpus" / name).read_bytes() == (b / "corpus" / name).read_bytes()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_scale_fails(self, tmp_path, noise, capsys):
        out = tmp_path / "noisy"
        assert run_cli("synth", "--out-dir", out, *SMALL_SYNTH, "--noise-scale", noise) == 1
        assert "noise_scale must be finite" in capsys.readouterr().err
        assert not (out / "corpus").exists()


class TestAttrs:
    def test_mock_attribute_records(self, synth_dir, tmp_path):
        out = tmp_path / "attrs"
        code = run_cli(
            "attrs", "--out-dir", out,
            "--corpus", synth_dir / "corpus" / "descriptions.jsonl",
            "--num-attributes", 8,
        )
        assert code == 0
        records = load_attribute_records(out / "attributes.jsonl")
        assert len(records) == 6
        assert all(len(r.keywords) <= 8 for r in records)
        assert all(r.extractor == "mock" for r in records)

    def test_zero_attributes_gives_bare_sentences(self, synth_dir, tmp_path):
        out = tmp_path / "attrs0"
        run_cli(
            "attrs", "--out-dir", out,
            "--corpus", synth_dir / "corpus" / "descriptions.jsonl",
            "--num-attributes", 0,
        )
        records = load_attribute_records(out / "attributes.jsonl")
        for record in records:
            assert record.keywords == ()
            assert record.prompt_sentence == f"This is a video about {record.class_name}."

    def test_negative_count_fails_on_an_empty_corpus(self, tmp_path, capsys):
        descriptions = tmp_path / "descriptions.jsonl"
        descriptions.write_bytes(b"")
        out = tmp_path / "attrs"
        code = run_cli("attrs", "--out-dir", out, "--corpus", descriptions,
                       "--num-attributes", -1)
        assert code == 1
        assert "num_attributes must be >= 0" in capsys.readouterr().err
        assert not (out / "attributes.jsonl").exists()

    def test_unreadable_corpus_fails_with_error(self, tmp_path, capsys):
        code = run_cli("attrs", "--out-dir", tmp_path / "x", "--corpus", tmp_path / "missing.jsonl")
        assert code == 1
        assert "error" in capsys.readouterr().err

    # sha256 of attributes.jsonl for `synth --seed 0`'s descriptions, per --num-attributes
    ATTRIBUTES_SHA256 = {
        0: "6319c82af5405b1fe37597de6e36adfb11267621b83b71db9a28a8b04e711cd6",
        3: "135629db903135171b1fd55cd3da9348feb5321e9214a18b21b7d6f66af0dc58",
        8: "75e444a20b9d94b12810064cd0ed309225a4238f44439ee41499a63b1cdcc5bc",
    }

    def test_default_corpus_attribute_bytes_are_pinned(self, tmp_path):
        assert run_cli("synth", "--seed", 0, "--out-dir", tmp_path / "synth") == 0
        descriptions = tmp_path / "synth" / "corpus" / "descriptions.jsonl"
        digests = {}
        for count in self.ATTRIBUTES_SHA256:
            out = tmp_path / f"attrs{count}"
            assert run_cli("attrs", "--out-dir", out, "--corpus", descriptions,
                           "--num-attributes", count) == 0
            digests[count] = hashlib.sha256((out / "attributes.jsonl").read_bytes()).hexdigest()
        assert digests == self.ATTRIBUTES_SHA256

    def test_extractor_flag_is_unknown(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "attrs"
        assert run_cli("attrs", "--out-dir", out, "--extractor", "mock",
                       "--corpus", synth_dir / "corpus" / "descriptions.jsonl") == 2
        assert "unrecognized arguments: --extractor" in capsys.readouterr().err
        assert not out.exists()

    def test_help_prints_the_extraction_prompt(self, capsys):
        assert main(["attrs", "--help"]) == 0
        assert DEFAULT_EXTRACTION_PROMPT in " ".join(capsys.readouterr().out.split())

    def test_attrs_writes_the_prompts_training_encodes(self, tmp_path):
        """`attrs` and `prepare_class_texts` build the same prompt for every
        class, on the default corpus at seed 1."""
        assert run_cli("synth", "--seed", 1, "--out-dir", tmp_path / "synth") == 0
        corpus_dir = tmp_path / "synth" / "corpus"
        corpus = load_corpus(corpus_dir, lambda *_: False)
        enc = corpus_encoder_params(corpus)
        every_class = range(len(corpus.classes))
        shortfalls = {}
        for count in (0, 8, 20):
            out = tmp_path / f"attrs{count}"
            assert run_cli("attrs", "--out-dir", out, "--corpus", corpus_dir / "descriptions.jsonl",
                           "--num-attributes", count) == 0
            records = load_attribute_records(out / "attributes.jsonl")
            texts = prepare_class_texts(corpus, every_class, count, enc).texts
            assert [r.class_name for r in records] == [t.name for t in texts]
            for record, text in zip(records, texts):
                assert tuple(tokenize(record.prompt_sentence)) == text.sequence.token_texts
            shortfalls[count] = [r.shortfall for r in records]
        assert len(shortfalls[0]) == 12
        assert not any(shortfalls[0])
        assert shortfalls[8].count(False) == 5
        assert all(shortfalls[20])


class TestTrain:
    def test_writes_checkpoint_loss_and_manifest(self, trained):
        checkpoint = load_checkpoint(trained / "checkpoint.stickpt")
        assert checkpoint.epoch == 3
        lines = (trained / "loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 4
        manifest = json.loads((trained / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"checkpoint.stickpt", "loss.csv"}

    def test_identical_runs_are_byte_identical(self, synth_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run_cli("train", "--seed", 5, "--out-dir", out,
                    "--corpus", synth_dir / "corpus", "--epochs", 2, "--batch-size", 8)
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.stickpt").read_bytes() == (b / "checkpoint.stickpt").read_bytes()
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()

    def test_default_batch_size_is_the_library_default(self, synth_dir, tmp_path):
        out = tmp_path / "default-batch"
        assert run_cli("train", "--out-dir", out, "--corpus", synth_dir / "corpus",
                       "--epochs", 1) == 0
        config = load_checkpoint(out / "checkpoint.stickpt").config
        assert config.batch_size == TrainConfig().batch_size

    @pytest.mark.parametrize("tau", ["0", "-1", "inf", "nan"])
    def test_bad_saliency_temperature_fails_before_writing(self, synth_dir, tmp_path, tau,
                                                         capsys):
        out = tmp_path / "bad-tau"
        code = run_cli("train", "--out-dir", out, "--corpus", synth_dir / "corpus",
                       "--epochs", 1, f"--tau-saliency={tau}")
        assert code == 1
        assert "tau_saliency" in capsys.readouterr().err
        assert not (out / "checkpoint.stickpt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--learning-rate", "--weight-decay"])
    def test_non_finite_rate_or_decay_fails_before_training(self, synth_dir, tmp_path, flag,
                                                           value, capsys):
        out = tmp_path / "bad-rate"
        code = run_cli("train", "--out-dir", out, "--corpus", synth_dir / "corpus",
                       "--epochs", 1, flag, value)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} must be finite" in err
        assert "loss became non-finite" not in err
        assert not (out / "checkpoint.stickpt").exists()


class TestEval:
    def test_zero_shot_metrics_csv(self, synth_dir, trained, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "eval", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "split_id,top1,top5"
        assert len(lines) == 6

    def test_checkpoint_config_of_the_wrong_type_fails(self, synth_dir, trained, tmp_path, capsys):
        checkpoint = tmp_path / "bad.stickpt"
        raw = (trained / "checkpoint.stickpt").read_bytes()
        checkpoint.write_bytes(raw.replace(b'"num_attributes": 8', b'"num_attributes": 2.5', 1))
        code = run_cli(
            "eval", "--seed", 3, "--out-dir", tmp_path / "eval", "--corpus", synth_dir / "corpus",
            "--checkpoint", checkpoint,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint config value 2.5 for 'num_attributes' has the wrong type" in err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    @pytest.mark.parametrize("command, written", [
        (["eval"], "metrics.csv"),
        (["saliency", "--video-id", "vid00_000", "--class-name", "activity00"],
         "saliency_vid00_000_activity00.csv"),
    ], ids=["eval", "saliency"])
    def test_version_2_checkpoint_fails_naming_the_file_and_asking_to_retrain(
        self, synth_dir, tmp_path, capsys, command, written
    ):
        checkpoint = tmp_path / "v2.stickpt"
        checkpoint.write_bytes(earlier_layout(2, dim=16))
        out = tmp_path / "out"
        code = run_cli(*command, "--out-dir", out, "--corpus", synth_dir / "corpus",
                       "--checkpoint", checkpoint)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stilab: error: {checkpoint}: unsupported checkpoint version 2")
        assert "re-run `stilab train`" in err
        assert not (out / written).exists()

    @pytest.mark.parametrize("command", [
        ["eval"], ["saliency", "--video-id", "vid00_000", "--class-name", "activity00"],
    ], ids=["eval", "saliency"])
    def test_checkpoint_of_another_dimension_fails_naming_both(self, trained, tmp_path, capsys,
                                                               command):
        other = tmp_path / "dim8"
        assert run_cli("synth", "--seed", 3, "--out-dir", other, *SMALL_SYNTH[:-1], 8) == 0
        checkpoint = trained / "checkpoint.stickpt"
        out = tmp_path / "out"
        code = run_cli(*command, "--out-dir", out, "--corpus", other / "corpus",
                       "--checkpoint", checkpoint)
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"stilab: error: checkpoint {checkpoint} has dimension 16, "
                       f"but corpus {other / 'corpus'} has dim 8\n")
        assert [path.name for path in out.iterdir()] == []

    def test_mean_pool_toggles_reproduce_library_baseline(self, synth_dir, trained, tmp_path):
        out = tmp_path / "eval-off"
        run_cli(
            "eval", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
            "--no-spatial", "--no-temporal",
        )
        lines = (out / "metrics.csv").read_text().splitlines()
        csv_top1 = float(lines[1].split(",")[1])

        corpus = load_corpus(synth_dir / "corpus")
        checkpoint = load_checkpoint(trained / "checkpoint.stickpt")
        enc, sti = params_from_store(
            checkpoint.store, text_table_seed=corpus.spec.seed, dim=corpus.spec.dim
        )
        data, _ = training_data_for(corpus, corpus.unseen_class_indices, 8, enc)
        top1, _ = evaluate_split(
            data.videos, data.labels, [ct.sequence for ct in data.class_texts],
            sti, enc, InteractionToggles(False, False),
        )
        assert csv_top1 == top1

    def test_default_subset_gives_equal_splits_and_zero_std(self, trained, tmp_path):
        # 20 seen videos: a top-1 of 0.4, whose float mean over three splits is not exact
        synth = tmp_path / "synth5"
        assert run_cli("synth", "--seed", 3, "--out-dir", synth, *SYNTH_SHAPE,
                       "--videos-per-class", 5) == 0
        out = tmp_path / "eval-default"
        assert run_cli(
            "eval", "--seed", 3, "--out-dir", out, "--corpus", synth / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt", "--mode", "seen",
        ) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        rows = [line.split(",", 1)[1] for line in lines[1:4]]
        assert rows[0] == rows[1] == rows[2]
        assert lines[4] == f"mean,{rows[0]}"
        assert lines[5] == "std,0,0"

    def test_few_shot_mode(self, synth_dir, trained, tmp_path):
        out = tmp_path / "eval-few"
        code = run_cli(
            "eval", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
            "--mode", "few-shot", "--shots", 2, "--finetune-epochs", 2,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["mode"] == "few-shot"
        assert manifest["results"]["shots"] == 2

    @pytest.mark.parametrize("size", [1, 3])
    def test_few_shot_mode_rejects_subset_size(self, synth_dir, trained, tmp_path, capsys, size):
        out = tmp_path / "eval-few"
        code = run_cli(
            "eval", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
            "--mode", "few-shot", "--shots", 2, "--finetune-epochs", 2, "--subset-size", size,
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "stilab: error: --subset-size applies to --mode zero-shot and seen, not few-shot\n"
        )
        assert [path.name for path in out.iterdir()] == []

    def test_few_shot_keeps_the_checkpoint_settings_and_the_default_batch_size(
        self, synth_dir, tmp_path, monkeypatch
    ):
        train = tmp_path / "train-b8"
        assert run_cli(
            "train", "--seed", 3, "--out-dir", train, "--corpus", synth_dir / "corpus",
            "--epochs", 1, "--batch-size", 8, "--learning-rate", 1e-3, "--weight-decay", 0.01,
            "--tau-saliency", 0.2, "--num-attributes", 5,
        ) == 0
        configs = []
        real_fit = trainer.fit

        def recording_fit(data, config, **kwargs):
            configs.append(config)
            return real_fit(data, config, **kwargs)

        monkeypatch.setattr(trainer, "fit", recording_fit)
        assert run_cli(
            "eval", "--seed", 4, "--out-dir", tmp_path / "eval-few", "--corpus",
            synth_dir / "corpus", "--checkpoint", train / "checkpoint.stickpt",
            "--mode", "few-shot", "--shots", 2, "--finetune-epochs", 2,
            "--no-temporal", "--num-attributes", 3,
        ) == 0
        assert configs == [TrainConfig(
            learning_rate=1e-3, weight_decay=0.01, epochs=2, batch_size=16, seed=4,
            spatial=True, temporal=False, num_attributes=3, tau_saliency=0.2,
        )]

    def flip_last_value(self, corpus, video_id):
        """Flip one bit of the last value of ``video_id`` in videos.bin."""
        meta = json.loads((corpus / "corpus.json").read_text())
        videos = [v["video_id"] for v in meta["videos"]]
        spec = meta["spec"]
        stride = 8 * spec["frames"] * spec["patches_per_frame"] * spec["dim"]
        path = corpus / "videos.bin"
        data = bytearray(path.read_bytes())
        # the values of the videos after this one end the file
        data[len(data) - (len(videos) - 1 - videos.index(video_id)) * stride - 1] ^= 0x01
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize("mode, video_id", [("zero-shot", "vid05_003"), ("seen", "vid00_000")])
    def test_a_changed_value_of_a_scored_video_fails_and_writes_nothing(
        self, synth_dir, trained, tmp_path, capsys, mode, video_id
    ):
        corpus = synth_dir / "corpus"
        self.flip_last_value(corpus, video_id)
        out = tmp_path / "bad"
        assert run_cli("eval", "--corpus", corpus, "--checkpoint", trained / "checkpoint.stickpt",
                       "--out-dir", out, "--mode", mode) == 1
        err = capsys.readouterr().err
        assert "corpus.json" in err and "videos.bin" in err and repr(video_id) in err
        assert not (out / "metrics.csv").exists() and not (out / "manifest.json").exists()

    @pytest.mark.parametrize("mode, video_id", [("zero-shot", "vid00_000"), ("seen", "vid05_003")])
    def test_a_changed_value_of_the_other_group_is_not_read(
        self, synth_dir, trained, tmp_path, mode, video_id
    ):
        corpus = synth_dir / "corpus"
        fingerprint = cli.corpus_fingerprint(corpus)
        args = ["eval", "--corpus", corpus, "--checkpoint", trained / "checkpoint.stickpt",
                "--mode", mode]
        assert run_cli(*args, "--out-dir", tmp_path / "before") == 0
        self.flip_last_value(corpus, video_id)
        assert run_cli(*args, "--out-dir", tmp_path / "after") == 0
        for name in ("metrics.csv", "manifest.json"):
            assert (tmp_path / "after" / name).is_file()
        before = (tmp_path / "before" / "metrics.csv").read_bytes()
        assert (tmp_path / "after" / "metrics.csv").read_bytes() == before
        manifest = json.loads((tmp_path / "after" / "manifest.json").read_text())
        assert manifest["corpus_fingerprint"] == fingerprint

    @pytest.mark.parametrize("mode, video_id", [("zero-shot", "vid05_003"), ("seen", "vid00_000")])
    @pytest.mark.parametrize("fault", [None, "changed-value", "scoring-raises"])
    def test_a_streamed_eval_joins_its_one_reader_thread_before_returning(
        self, synth_dir, trained, tmp_path, monkeypatch, mode, video_id, fault
    ):
        corpus = synth_dir / "corpus"
        if fault == "changed-value":
            self.flip_last_value(corpus, video_id)
        if fault == "scoring-raises":
            def failing_score_matrix(*args, **kwargs):
                raise RuntimeError("scoring failed")

            monkeypatch.setattr(evaluation, "score_matrix", failing_score_matrix)
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = set(threading.enumerate())
        code = run_cli("eval", "--corpus", corpus, "--checkpoint", trained / "checkpoint.stickpt",
                       "--out-dir", tmp_path / "eval", "--mode", mode)
        assert code == (0 if fault is None else 1)
        assert len(started) == 1 and not started[0].is_alive()
        assert set(threading.enumerate()) == before

    def test_identical_eval_runs_are_byte_identical(self, synth_dir, trained, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            run_cli("eval", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
                    "--checkpoint", trained / "checkpoint.stickpt")
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


class TestSaliency:
    def test_export_for_known_pair(self, synth_dir, trained, tmp_path):
        out = tmp_path / "sal"
        code = run_cli(
            "saliency", "--seed", 3, "--out-dir", out, "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
            "--video-id", "vid00_000", "--class-name", "activity00",
        )
        assert code == 0
        lines = (out / "saliency_vid00_000_activity00.csv").read_text().splitlines()
        assert lines[0] == "frame_index,s_sp,s_temp"
        assert len(lines) == 5  # 4 frames
        weights = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_saliency_uses_the_checkpoint_temperature(self, synth_dir, tmp_path):
        corpus_dir = synth_dir / "corpus"
        train = tmp_path / "train-hot"
        assert run_cli(
            "train", "--seed", 3, "--out-dir", train, "--corpus", corpus_dir,
            "--epochs", 2, "--batch-size", 8, "--tau-saliency", 1.0,
        ) == 0
        checkpoint_path = train / "checkpoint.stickpt"
        out = tmp_path / "sal"
        pair = ("--video-id", "vid00_000", "--class-name", "activity00")
        assert run_cli(
            "saliency", "--out-dir", out, "--corpus", corpus_dir,
            "--checkpoint", checkpoint_path, *pair,
        ) == 0

        corpus = load_corpus(corpus_dir)
        checkpoint = load_checkpoint(checkpoint_path)
        enc, sti = params_from_store(
            checkpoint.store, text_table_seed=corpus.spec.seed, dim=corpus.spec.dim,
            tau_saliency=1.0,
        )
        data, _ = training_data_for(corpus, (0,), 8, enc)
        expected = export_saliency(
            FrameEmbeddingSet.from_raw(corpus.videos[0].features),
            data.class_texts[0].sequence, sti, enc, tmp_path / "expected.csv",
        )
        written = out / "saliency_vid00_000_activity00.csv"
        assert written.read_bytes() == expected.read_bytes()
        # the temperature comes from the checkpoint, not from a flag
        assert run_cli(
            "saliency", "--out-dir", out, "--corpus", corpus_dir,
            "--checkpoint", checkpoint_path, *pair, "--tau-saliency", 1.0,
        ) == 2

    def test_only_the_scored_video_is_kept(self, synth_dir, trained, tmp_path, monkeypatch):
        loaded = []
        real_load = cli.load_corpus

        def recording_load(*args, **kwargs):
            loaded.append(real_load(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_corpus", recording_load)
        assert run_cli(
            "saliency", "--out-dir", tmp_path / "sal", "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
            "--video-id", "vid04_002", "--class-name", "activity05",
        ) == 0
        assert [[video.video_id for video in corpus.videos] for corpus in loaded] == [
            ["vid04_002"]
        ]

    def test_a_changed_value_of_the_scored_video_fails(self, synth_dir, trained, tmp_path,
                                                       capsys):
        corpus = synth_dir / "corpus"
        fingerprint = cli.corpus_fingerprint(corpus)
        path = corpus / "videos.bin"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # a value of the last video, vid05_003
        path.write_bytes(bytes(data))
        pair = ("--checkpoint", trained / "checkpoint.stickpt", "--class-name", "activity05")
        code = run_cli("saliency", "--out-dir", tmp_path / "bad", "--corpus", corpus,
                       "--video-id", "vid05_003", *pair)
        assert code == 1
        err = capsys.readouterr().err
        assert "corpus.json" in err and "videos.bin" in err and "'vid05_003'" in err
        assert not (tmp_path / "bad" / "saliency_vid05_003_activity05.csv").exists()
        # another video's values are not read, so the command runs and vouches for them
        assert run_cli("saliency", "--out-dir", tmp_path / "good", "--corpus", corpus,
                       "--video-id", "vid05_002", *pair) == 0
        manifest = json.loads((tmp_path / "good" / "manifest.json").read_text())
        assert manifest["corpus_fingerprint"] == fingerprint

    @pytest.mark.parametrize("flag, name", [
        ("--class-name", "../../escaped"), ("--video-id", "runs/vid08_000"),
    ])
    def test_name_with_a_path_separator_fails_before_any_read(self, tmp_path, capsys, flag,
                                                             name):
        names = {"--video-id": "vid08_000", "--class-name": "activity08", flag: name}
        out = tmp_path / "sal" / "x"
        code = run_cli("saliency", "--out-dir", out, "--corpus", tmp_path / "no-corpus",
                       "--checkpoint", tmp_path / "missing.stickpt",
                       *[item for pair in names.items() for item in pair])
        assert code == 1
        assert f"{flag} {name!r}" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []
        assert not (out / "manifest.json").exists()

    def test_unknown_video_id_fails(self, synth_dir, trained, tmp_path, capsys):
        code = run_cli(
            "saliency", "--out-dir", tmp_path / "x", "--corpus", synth_dir / "corpus",
            "--checkpoint", trained / "checkpoint.stickpt",
            "--video-id", "nope", "--class-name", "activity00",
        )
        assert code == 1
        assert "unknown video id" in capsys.readouterr().err


class TestManifestEnvironment:
    def test_manifest_records_numpy_blas_and_thread_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        assert run_cli("synth", "--out-dir", out, *SMALL_SYNTH) == 0
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        assert environment["numpy"] == np.__version__
        assert set(environment["blas"]) == {"name", "version"}
        assert environment["threads"] == {
            "OPENBLAS_NUM_THREADS": "3",
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": None,
        }


class TestConfigFile:
    def test_file_values_apply_and_cli_overrides(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"videos-per-class": 3, "dim": 16, "frames": 4,
                                           "patches-per-frame": 6, "num-concepts": 8,
                                           "seen-classes": 4, "unseen-classes": 2}))
        out = tmp_path / "out"
        code = run_cli("synth", "--seed", 1, "--out-dir", out, "--config", config_path,
                       "--videos-per-class", 2)
        assert code == 0
        corpus = load_corpus(out / "corpus")
        assert corpus.spec.videos_per_class == 2  # CLI wins
        assert corpus.spec.dim == 16  # file value applies

    def write_config(self, tmp_path, values):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        return path

    def test_abbreviated_flag_beats_the_file(self, tmp_path):
        config_path = self.write_config(tmp_path, {"videos_per_class": 5})
        out = tmp_path / "out"
        assert run_cli("synth", "--out-dir", out, "--config", config_path,
                       *SYNTH_SHAPE, "--videos-per", 2) == 0
        assert load_corpus(out / "corpus").spec.videos_per_class == 2

    def test_file_path_value_gets_the_flag_type(self, tmp_path):
        out = tmp_path / "from-file"
        config_path = self.write_config(tmp_path, {"out-dir": str(out)})
        assert run_cli("synth", "--config", config_path, *SMALL_SYNTH) == 0
        assert (out / "corpus" / "videos.bin").exists()

    def test_file_string_number_gets_the_flag_type(self, tmp_path):
        config_path = self.write_config(tmp_path, {"videos-per-class": "3"})
        out = tmp_path / "out"
        assert run_cli("synth", "--out-dir", out, "--config", config_path, *SYNTH_SHAPE) == 0
        assert load_corpus(out / "corpus").spec.videos_per_class == 3

    def test_negated_flag_beats_a_file_true(self, synth_dir, tmp_path):
        config_path = self.write_config(tmp_path, {"spatial": True, "epochs": 1})
        out = tmp_path / "train"
        assert run_cli("train", "--out-dir", out, "--corpus", synth_dir / "corpus",
                       "--config", config_path, "--no-spatial") == 0
        config = load_checkpoint(out / "checkpoint.stickpt").config
        assert config.spatial is False
        assert config.epochs == 1

    @pytest.mark.parametrize("command, values", [
        ("synth", {"dim": 16.5}),
        ("synth", {"dim": True}),
        ("synth", {"out-dir": 3}),
        ("train", {"spatial": "no"}),
        ("train", {"spatial": 1}),
        ("train", {"learning-rate": False}),
    ], ids=["float-for-int", "bool-for-int", "int-for-path", "string-for-bool",
            "int-for-bool", "bool-for-float"])
    def test_file_value_of_the_wrong_type_is_a_usage_error(
        self, synth_dir, tmp_path, capsys, command, values
    ):
        config_path = self.write_config(tmp_path, {**values, "epochs": 1})
        out = tmp_path / "out"
        extra = SMALL_SYNTH if command == "synth" else ["--corpus", synth_dir / "corpus"]
        assert run_cli(command, "--out-dir", out, "--config", config_path, *extra) == 2
        assert "has the wrong type" in capsys.readouterr().err
        assert not out.exists()

    def test_file_value_outside_the_choices_is_a_usage_error(
        self, synth_dir, trained, tmp_path, capsys
    ):
        config_path = self.write_config(tmp_path, {"mode": "bogus"})
        flags = ["eval", "--corpus", synth_dir / "corpus",
                 "--checkpoint", trained / "checkpoint.stickpt", "--config", config_path]
        with pytest.raises(SystemExit) as excinfo:
            cli._parse_args([str(flag) for flag in flags])
        assert excinfo.value.code == 2
        out = tmp_path / "out"
        assert run_cli(*flags, "--out-dir", out) == 2
        assert "is not one of" in capsys.readouterr().err
        assert not out.exists()

    def test_file_int_for_a_float_flag_becomes_a_float(self, tmp_path):
        config_path = self.write_config(tmp_path, {"noise-scale": 0})
        out = tmp_path / "out"
        assert run_cli("synth", "--out-dir", out, "--config", config_path, *SMALL_SYNTH) == 0
        noise_scale = json.loads((out / "manifest.json").read_text())["config"]["noise_scale"]
        assert noise_scale == 0.0 and isinstance(noise_scale, float)

    def test_manifest_records_effective_config(self, tmp_path):
        out = tmp_path / "out"
        run_cli("synth", "--seed", 2, "--out-dir", out, *SMALL_SYNTH)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dim"] == 16
        assert manifest["config"]["seed"] == 2

    @pytest.mark.parametrize("content, reason", [
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"dim": 16 "frames": 4}', "Expecting ',' delimiter: line 1 column 12"),
    ], ids=["invalid-utf8", "invalid-json"])
    def test_malformed_file_names_the_flag_and_the_path(self, tmp_path, capsys, content, reason):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        out = tmp_path / "out"
        assert run_cli("synth", "--out-dir", out, "--config", config_path, *SMALL_SYNTH) == 1
        assert f"stilab: error: --config {config_path}: {reason}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, settings, other_flags", [
    ("synth", SyntheticCorpusSpec, set()),
    ("train", TrainConfig, {"corpus"}),
])
def test_flags_mirror_the_settings_fields(command, settings, other_flags):
    argv = [command] + (["--corpus", "c"] if command == "train" else [])
    args = cli._parse_args(argv)
    fields = dataclasses.fields(settings)
    assert {f.name: getattr(args, f.name) for f in fields} == dataclasses.asdict(settings())

    _, commands = cli._build_parser()
    actions = commands[command]._actions
    common = {"help", "seed", "config", "out_dir"}
    assert {a.dest for a in actions} == common | other_flags | {f.name for f in fields}
    types = typing.get_type_hints(settings)
    for field in fields:
        if field.name == "seed":
            continue
        (action,) = [a for a in actions if a.dest == field.name]
        assert f"--{field.name.replace('_', '-')}" in action.option_strings
        assert action.default == field.default
        assert type(action.default) is type(field.default)
        if types[field.name] is bool:
            assert isinstance(action, argparse.BooleanOptionalAction)
        else:
            assert action.type is types[field.name]


SRC = str(Path(stilab.__file__).resolve().parents[1])
# HTTP client modules: importing the CLI loads none of them (test_imports.py
# holds every library module to importing none, in any function).
NETWORK_MODULES = {"http.client", "urllib.request", "ssl", "email", "socket", "requests"}
# The executor and the logging it loads: only a streamed eval's read-ahead
# may load them.
EXECUTOR_MODULES = {"concurrent.futures", "logging"}


@pytest.mark.parametrize("unloaded", [NETWORK_MODULES, EXECUTOR_MODULES],
                         ids=["network", "executor"])
def test_cli_import_loads_no_network_module(unloaded):
    code = ("import sys; bare = set(sys.modules); import stilab.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(result.stdout.split())
    assert {"stilab.cli", "stilab.attributes", "numpy"} <= added
    assert added & unloaded == set()


def without_thread_variables(**settings) -> dict:
    """This process's environment without the BLAS thread variables (which
    importing stilab here may have set), plus ``settings``."""
    env = {k: v for k, v in os.environ.items() if k not in stilab._BLAS_THREAD_VARIABLES}
    return {**env, "PYTHONPATH": SRC, **settings}


def stilab_cli(env, *argv):
    """One CLI command in a fresh process; returns the minor page faults it took."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-m", "stilab.cli", *map(str, argv)], env=env,
                   capture_output=True, check=True, timeout=300)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


class TestBlasThreadPin:
    @pytest.mark.parametrize("settings, seen", [
        ({}, ["1", "1", "1"]),
        ({"OMP_NUM_THREADS": "2"}, [None, "2", None]),
        ({"OPENBLAS_NUM_THREADS": "3"}, ["3", None, None]),
    ])
    def test_import_pins_one_thread_unless_a_variable_is_set(self, settings, seen):
        code = ("import json, os, stilab; "
                "print(json.dumps([os.environ.get(n) for n in stilab._BLAS_THREAD_VARIABLES]))")
        result = subprocess.run(
            [sys.executable, "-c", code], env=without_thread_variables(**settings),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert stilab._BLAS_THREAD_VARIABLES == (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert json.loads(result.stdout) == seen

    def test_artifacts_with_no_variable_set_match_one_thread(self, tmp_path):
        """On a shape whose GEMMs a second OpenBLAS thread would split, a
        run that sets no thread variable writes the bytes of a run at one
        thread: the checkpoint, loss.csv and the saliency CSV."""
        corpus = tmp_path / "synth" / "corpus"
        stilab_cli(without_thread_variables(), "synth", "--seed", 1, "--out-dir", corpus.parent,
                   "--frames", 16, "--patches-per-frame", 32, "--dim", 64)
        meta = json.loads((corpus / "corpus.json").read_text())
        video_id, class_name = meta["videos"][0]["video_id"], meta["classes"][0]["name"]
        artifacts = {}
        for name, env in (("unset", without_thread_variables()),
                          ("one", without_thread_variables(OPENBLAS_NUM_THREADS="1"))):
            out = tmp_path / name
            stilab_cli(env, "train", "--seed", 1, "--corpus", corpus, "--out-dir", out,
                       "--epochs", 2, "--batch-size", 32)
            stilab_cli(env, "saliency", "--corpus", corpus, "--checkpoint",
                       out / "checkpoint.stickpt", "--out-dir", out,
                       "--video-id", video_id, "--class-name", class_name)
            artifacts[name] = [(out / file).read_bytes() for file in (
                "checkpoint.stickpt", "loss.csv", f"saliency_{video_id}_{class_name}.csv")]
        assert artifacts["unset"] == artifacts["one"]


def without_malloc_variables(**settings) -> dict:
    """``without_thread_variables`` without glibc's malloc settings as well,
    plus ``settings``."""
    env = {k: v for k, v in without_thread_variables().items()
           if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    return {**env, **settings}


HAS_MALLOPT = cli._mallopt() is not None
POLICY_CALLS = [[-3, 32 << 20, 1], [-1, 64 << 20, 1]]  # (param, value, result) per mallopt call


class TestHeapPolicy:
    # One small synth through cli.main, with mallopt wrapped to record each
    # call as (param, value, result); prints the calls and the manifest's
    # heap record.
    SPY = """
import json, sys
from pathlib import Path
from stilab import cli

calls, mallopt = [], cli._mallopt()

def recording(param, value):
    calls.append([param, value, mallopt(param, value)])
    return calls[-1][2]

cli._mallopt = lambda: None if mallopt is None else recording
assert cli.main(["synth", "--out-dir", sys.argv[1], *sys.argv[2:]]) == 0
manifest = json.loads((Path(sys.argv[1]) / "manifest.json").read_text())
print(json.dumps([calls, manifest["environment"]["heap"]]))
"""

    def spy(self, tmp_path, env):
        result = subprocess.run(
            [sys.executable, "-c", self.SPY, str(tmp_path / "out"), *SMALL_SYNTH],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        return json.loads(result.stdout.splitlines()[-1])

    @pytest.mark.parametrize("settings", [
        {},
        {"GLIBC_TUNABLES": "glibc.rtld.optional_static_tls=512"},
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"MALLOC_TOP_PAD_": "0"},
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=65536"},
    ])
    def test_main_applies_the_policy_unless_a_malloc_variable_is_set(self, tmp_path, settings):
        calls, heap = self.spy(tmp_path, without_malloc_variables(**settings))
        malloc = {k: v for k, v in settings.items() if k.startswith("MALLOC_")
                  or "glibc.malloc." in v}
        applies = HAS_MALLOPT and not malloc
        assert cli.HEAP_POLICY == ((-3, 32 << 20), (-1, 64 << 20))
        assert calls == (POLICY_CALLS if applies else [])
        assert heap == {"variables": malloc, "policy_applied": applies}

    def test_a_missing_mallopt_is_a_recorded_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_heap_policy", None)  # as in a fresh process
        monkeypatch.setattr(cli, "_mallopt", lambda: None)
        for name in list(os.environ):
            if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
                monkeypatch.delenv(name)
        assert run_cli("synth", "--out-dir", tmp_path, *SMALL_SYNTH) == 0
        environment = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        assert environment["heap"] == {"variables": {}, "policy_applied": False}

    def test_artifacts_do_not_depend_on_the_policy(self, tmp_path):
        """A run with the policy and one with a malloc variable set (so no
        policy, and glibc's 128 KiB thresholds held fixed) write the same
        checkpoint, loss.csv and saliency bytes."""
        corpus = tmp_path / "synth" / "corpus"
        stilab_cli(without_malloc_variables(), "synth", "--seed", 2, "--out-dir", corpus.parent,
                   "--videos-per-class", 6)
        meta = json.loads((corpus / "corpus.json").read_text())
        video_id, class_name = meta["videos"][-1]["video_id"], meta["classes"][-1]["name"]
        artifacts = {}
        for name, env in (("policy", without_malloc_variables()),
                          ("glibc", without_malloc_variables(MALLOC_TRIM_THRESHOLD_="131072"))):
            out = tmp_path / name
            stilab_cli(env, "train", "--seed", 2, "--corpus", corpus, "--out-dir", out,
                       "--epochs", 3, "--batch-size", 8)
            stilab_cli(env, "saliency", "--corpus", corpus, "--checkpoint",
                       out / "checkpoint.stickpt", "--out-dir", out,
                       "--video-id", video_id, "--class-name", class_name)
            heap = json.loads((out / "manifest.json").read_text())["environment"]["heap"]
            assert heap["policy_applied"] == (name == "policy" and HAS_MALLOPT)
            artifacts[name] = [(out / file).read_bytes() for file in (
                "checkpoint.stickpt", "loss.csv", f"saliency_{video_id}_{class_name}.csv")]
        assert artifacts["policy"] == artifacts["glibc"]

    @pytest.mark.skipif(not HAS_MALLOPT, reason="no mallopt: the heap policy cannot apply")
    def test_later_epochs_take_almost_no_page_faults(self, tmp_path):
        """On the default corpus, three more epochs (30 more steps) add under
        2,000 minor faults to a fresh `train`; with glibc's dynamic
        thresholds they added about 17,000, since every step faulted its
        freed arrays in again."""
        env = without_malloc_variables()
        corpus = tmp_path / "synth" / "corpus"
        stilab_cli(env, "synth", "--seed", 1, "--out-dir", corpus.parent)
        faults = {
            epochs: stilab_cli(env, "train", "--seed", 1, "--corpus", corpus,
                               "--out-dir", tmp_path / f"train{epochs}", "--epochs", epochs)
            for epochs in (1, 4)
        }
        assert faults[4] - faults[1] < 2_000, faults


# Each command's parsed flags with only its required flags given: the keys in
# the order the manifest's ``config`` lists them, and every default.
COMMON_DEFAULTS = [("seed", 0), ("config", None), ("out_dir", Path("stilab-out"))]
PARSED = {
    "attrs": (["--corpus", "c"], [
        ("corpus", Path("c")), ("num_attributes", 8),
    ]),
    "synth": ([], [
        ("num_concepts", 12), ("seen_classes", 8), ("unseen_classes", 4),
        ("videos_per_class", 20), ("frames", 8), ("patches_per_frame", 16), ("dim", 32),
        ("noise_scale", 0.1),
    ]),
    "train": (["--corpus", "c"], [
        ("corpus", Path("c")), ("learning_rate", 5e-05), ("weight_decay", 0.05),
        ("epochs", 30), ("batch_size", 16), ("spatial", True), ("temporal", True),
        ("num_attributes", 8), ("tau_saliency", 0.07),
    ]),
    "eval": (["--corpus", "c", "--checkpoint", "k"], [
        ("corpus", Path("c")), ("checkpoint", Path("k")), ("mode", "zero-shot"),
        ("shots", 4), ("finetune_epochs", 50), ("subset_size", None),
        ("num_attributes", None), ("spatial", None), ("temporal", None),
    ]),
    "saliency": (["--corpus", "c", "--checkpoint", "k", "--video-id", "v",
                  "--class-name", "n"], [
        ("corpus", Path("c")), ("checkpoint", Path("k")), ("video_id", "v"),
        ("class_name", "n"), ("num_attributes", None),
    ]),
}


@pytest.mark.parametrize("command", list(PARSED))
def test_an_unknown_flag_is_reported_with_the_commands_usage(command, tmp_path, capsys):
    # reported before any file is read, so the required flags' values are placeholders
    out = tmp_path / "out"
    assert run_cli(command, "--out-dir", out, *PARSED[command][0], "--bogus") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: stilab {command} [-h] ")
    assert f"stilab {command}: error: unrecognized arguments: --bogus\n" in err
    assert not out.exists()


# One file value per command, and the flag it sets.
CONFIG_VALUES = {
    "attrs": ("num_attributes", 3),
    "synth": ("dim", 8),
    "train": ("epochs", 2),
    "eval": ("mode", "seen"),
    "saliency": ("num_attributes", 2),
}


@pytest.mark.parametrize("command", list(PARSED))
def test_each_command_parses_to_its_pinned_keys_and_defaults(command):
    required, flags = PARSED[command]
    args = cli._parse_args([command, *required])
    assert list(vars(args).items()) == [("command", command), *COMMON_DEFAULTS, *flags]


@pytest.mark.parametrize("command", list(PARSED))
def test_each_command_still_takes_config_values(command, tmp_path):
    required, _ = PARSED[command]
    dest, value = CONFIG_VALUES[command]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 7, dest.replace("_", "-"): value}))
    args = cli._parse_args([command, *required, "--config", str(config_path)])
    assert (args.seed, getattr(args, dest)) == (7, value)


def test_a_command_line_builds_only_its_own_parser():
    _, commands = cli._build_parser(["eval", "--mode", "seen"])
    assert list(commands) == ["eval"]
    assert {a.dest for a in commands["eval"]._actions} >= {"corpus", "checkpoint", "mode"}


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name, (help_line, _) in cli._COMMAND_FLAGS.items():
        assert name in out and help_line in out


def test_an_unknown_command_is_an_invalid_choice_naming_all_five(capsys):
    assert main(["nosuch", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    names = ", ".join(repr(name) for name in cli._COMMAND_FLAGS)
    assert f"invalid choice: 'nosuch' (choose from {names})" in err


class TestCorpusReads:
    """train, eval and saliency read each corpus file once: the manifest's
    fingerprint comes from the bytes the command parsed."""

    def count_opens(self, monkeypatch, corpus):
        opened = collections.Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == corpus:
                opened[Path(file).name] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)  # pathlib opens through io.open
        monkeypatch.setattr(builtins, "open", counting_open)
        return opened

    @pytest.mark.parametrize("command", ["train", "eval", "saliency"])
    def test_each_corpus_file_is_opened_once(self, synth_dir, trained, tmp_path, monkeypatch,
                                             command):
        corpus = synth_dir / "corpus"
        extra = {
            "train": ["--epochs", 1, "--batch-size", 8],
            "eval": ["--checkpoint", trained / "checkpoint.stickpt"],
            "saliency": ["--checkpoint", trained / "checkpoint.stickpt",
                         "--video-id", "vid04_000", "--class-name", "activity05"],
        }[command]
        opened = self.count_opens(monkeypatch, corpus)
        out = tmp_path / command
        assert run_cli(command, "--corpus", corpus, "--out-dir", out, *extra) == 0
        monkeypatch.undo()
        assert opened == {"corpus.json": 1, "descriptions.jsonl": 1, "videos.bin": 1}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["corpus_fingerprint"] == cli.corpus_fingerprint(corpus)

    @pytest.mark.parametrize("command, kept", [
        (["train", "--epochs", 1, "--batch-size", 8], 16),
        (["eval", "--mode", "zero-shot"], 8),
        (["saliency", "--video-id", "vid04_000", "--class-name", "activity05"], 1),
    ], ids=["train", "eval-zero-shot", "saliency"])
    def test_videos_bin_values_are_read_only_for_the_kept_videos(
        self, synth_dir, trained, tmp_path, monkeypatch, command, kept
    ):
        corpus = synth_dir / "corpus"
        path = corpus / "videos.bin"
        spec = json.loads((corpus / "corpus.json").read_text())["spec"]
        videos = spec["videos_per_class"] * (spec["seen_classes"] + spec["unseen_classes"])
        values = 8 * spec["frames"] * spec["patches_per_frame"] * spec["dim"]
        read = collections.Counter()
        real_open = io.open

        class CountingReader:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def _count(self, data):
                read[path.name] += data if isinstance(data, int) else len(data)
                return data

            def read(self, *args):
                return self._count(self._fh.read(*args))

            def readline(self, *args):
                return self._count(self._fh.readline(*args))

            def readinto(self, buffer):
                return self._count(self._fh.readinto(buffer))

        def counting_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            named_path = isinstance(file, (str, os.PathLike)) and Path(file) == path
            return CountingReader(fh) if named_path else fh

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        extra = [] if command[0] == "train" else ["--checkpoint", trained / "checkpoint.stickpt"]
        assert run_cli(*command, "--corpus", corpus, "--out-dir", tmp_path / "out", *extra) == 0
        monkeypatch.undo()
        # the magic line and the header line, then the kept videos' values
        assert read == {path.name: path.stat().st_size - (videos - kept) * values}

    def test_attrs_opens_its_descriptions_once(self, synth_dir, tmp_path, monkeypatch):
        corpus = synth_dir / "corpus"
        opened = self.count_opens(monkeypatch, corpus)
        out = tmp_path / "attrs"
        assert run_cli("attrs", "--corpus", corpus / "descriptions.jsonl", "--out-dir", out) == 0
        monkeypatch.undo()
        assert opened == {"descriptions.jsonl": 1}
        path = corpus / "descriptions.jsonl"
        digest = hashlib.sha256(path.name.encode() + path.read_bytes()).hexdigest()
        assert json.loads((out / "manifest.json").read_text())["corpus_fingerprint"] == digest
