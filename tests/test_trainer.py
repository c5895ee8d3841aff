import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stilab import trainer
from stilab.autodiff import ParameterStore, ShapeMismatchError, parameter_gradients
from stilab.corpus import SyntheticCorpusSpec, generate_synthetic_corpus
from stilab.encoders import text_fingerprint
from stilab.trainer import (
    Checkpoint,
    CheckpointFormatError,
    NonFiniteGradientError,
    OptimizerState,
    TrainConfig,
    default_parameter_store,
    few_shot_finetune,
    few_shot_sample,
    fit,
    load_checkpoint,
    optimizer_step,
    resume_fit,
    save_checkpoint,
    training_step_loss,
    write_loss_csv,
)
from stilab.sti import DEFAULT_SALIENCY_TEMPERATURE
from stilab.workflow import corpus_encoder_params, train_on_corpus, training_data_for
from test_embed_io import mutants


def scalar_store(value: float) -> ParameterStore:
    store = ParameterStore()
    store.register("x", np.array(value))
    return store


def reference_adamw(value, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand transcription of the decoupled-decay adaptive-moment update."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        value = value - lr * wd * value - lr * m_hat / (np.sqrt(v_hat) + eps)
    return value


class TestOptimizerStep:
    def test_zero_gradients_without_decay_leave_parameters_unchanged(self):
        store = scalar_store(1.5)
        state = OptimizerState.for_store(store)
        config = TrainConfig(learning_rate=1e-3, weight_decay=0.0, epochs=1, batch_size=1)
        optimizer_step(store, {"x": np.array(0.0)}, state, config)
        assert float(store.value("x")) == 1.5
        assert state.step == 1

    def test_zero_gradients_with_decay_scale_parameters(self):
        store = scalar_store(2.0)
        state = OptimizerState.for_store(store)
        config = TrainConfig(learning_rate=0.01, weight_decay=0.5, epochs=1, batch_size=1)
        optimizer_step(store, {"x": np.array(0.0)}, state, config)
        assert float(store.value("x")) == 2.0 * (1.0 - 0.01 * 0.5)

    def test_three_constant_gradient_steps_match_reference(self):
        lr, wd, g = 0.01, 0.1, 0.7
        store = scalar_store(1.0)
        state = OptimizerState.for_store(store)
        config = TrainConfig(learning_rate=lr, weight_decay=wd, epochs=1, batch_size=1)
        for _ in range(3):
            optimizer_step(store, {"x": np.array(g)}, state, config)
        expected = reference_adamw(1.0, [g, g, g], lr, wd)
        assert abs(float(store.value("x")) - expected) < 1e-15

    def test_non_finite_gradient_reports_parameter_name(self):
        store = scalar_store(1.0)
        state = OptimizerState.for_store(store)
        config = TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(NonFiniteGradientError, match="'x'"):
            optimizer_step(store, {"x": np.array(np.nan)}, state, config)

    def test_missing_gradient_rejected(self):
        store = scalar_store(1.0)
        state = OptimizerState.for_store(store)
        with pytest.raises(KeyError):
            optimizer_step(store, {}, state, TrainConfig(epochs=1, batch_size=1))

    def two_parameter_state(self):
        store = ParameterStore()
        store.register("a", np.array([1.0, -2.0]))
        store.register("b", np.array([[0.5]]))
        state = OptimizerState.for_store(store)
        config = TrainConfig(learning_rate=0.01, weight_decay=0.1, epochs=1, batch_size=1)
        optimizer_step(store, {"a": np.array([0.3, 0.1]), "b": np.array([[-0.2]])}, state, config)
        return store, state, config

    @pytest.mark.parametrize(
        "bad_b, error",
        [
            (np.array([[np.nan]]), NonFiniteGradientError),
            (np.array([0.1, 0.2]), ShapeMismatchError),
            (None, KeyError),
        ],
    )
    def test_rejected_step_changes_nothing(self, bad_b, error):
        store, state, config = self.two_parameter_state()
        fingerprint = store.fingerprint()
        moments = [{n: m.copy() for n, m in d.items()} for d in (state.first_moment, state.second_moment)]
        grads = {"a": np.array([0.4, -0.4])}
        if bad_b is not None:
            grads["b"] = bad_b
        with pytest.raises(error, match="'b'"):
            optimizer_step(store, grads, state, config)
        assert store.fingerprint() == fingerprint
        for before, after in zip(moments, (state.first_moment, state.second_moment)):
            assert before.keys() == after.keys()
            assert all(np.array_equal(before[n], after[n]) for n in before)
        assert state.step == 1


@pytest.fixture(scope="module")
def small_training():
    corpus = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            num_concepts=8,
            seen_classes=4,
            unseen_classes=0,
            videos_per_class=6,
            frames=4,
            patches_per_frame=6,
            dim=16,
            noise_scale=0.1,
            seed=21,
        )
    )
    enc = corpus_encoder_params(corpus)
    data, _ = training_data_for(corpus, corpus.seen_class_indices, 8, enc)
    return corpus, data


class TestFit:
    def test_same_seed_runs_are_bitwise_identical(self, small_training):
        _, data = small_training
        config = TrainConfig.desk_scale(epochs=3, seed=4, batch_size=8)
        a = fit(data, config, store=default_parameter_store(data.dim))
        b = fit(data, config, store=default_parameter_store(data.dim))
        assert a.loss_history == b.loss_history
        assert a.store.fingerprint() == b.store.fingerprint()

    def test_zero_learning_rate_freezes_parameters(self, small_training):
        _, data = small_training
        config = TrainConfig.desk_scale(epochs=2, seed=0, batch_size=8,
                                        learning_rate=0.0, weight_decay=0.0)
        store = default_parameter_store(data.dim)
        before = store.fingerprint()
        fit(data, config, store=store)
        assert store.fingerprint() == before

    def test_text_embeddings_frozen_through_training(self, small_training):
        _, data = small_training
        before = text_fingerprint(ct.sequence for ct in data.class_texts)
        fit(data, TrainConfig.desk_scale(epochs=2, seed=1, batch_size=8),
            store=default_parameter_store(data.dim))
        after = text_fingerprint(ct.sequence for ct in data.class_texts)
        assert before == after

    def test_loss_decreases_on_separable_data(self):
        # smoke-scale version of the training-progress check; the full-size
        # five-seed version runs in the acceptance suite
        drops = []
        for seed in range(3):
            corpus = generate_synthetic_corpus(
                SyntheticCorpusSpec(
                    num_concepts=8, seen_classes=4, unseen_classes=0,
                    videos_per_class=8, frames=4, patches_per_frame=8,
                    dim=16, noise_scale=0.1, seed=30 + seed,
                )
            )
            run = train_on_corpus(corpus, TrainConfig.desk_scale(epochs=8, seed=seed, batch_size=8))
            drops.append(run.result.loss_history[0] - run.result.loss_history[-1])
        assert np.mean(drops) > 0.0

    def test_epoch_count_and_history_length(self, small_training):
        _, data = small_training
        result = fit(data, TrainConfig.desk_scale(epochs=4, seed=2, batch_size=8),
                     store=default_parameter_store(data.dim))
        assert result.epoch == 4
        assert len(result.loss_history) == 4

    def test_result_is_the_checkpoint_of_the_run(self, small_training):
        _, data = small_training
        config = TrainConfig(epochs=1, seed=2, batch_size=8, tau_saliency=0.5)
        result = fit(data, config, store=default_parameter_store(data.dim))
        assert isinstance(result, Checkpoint)
        assert result.config == config
        assert result.epoch == 1

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_saliency_temperature_rejected_before_training(self, tau):
        # the config refuses the temperature, so no step can run with it
        with pytest.raises(ValueError, match="tau_saliency"):
            TrainConfig(epochs=1, batch_size=8, tau_saliency=tau)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    def test_rate_and_decay_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})


class TestFewShot:
    def test_fixed_seed_sampling_is_reproducible(self, small_training):
        _, data = small_training
        a = few_shot_sample(data, 2, seed=9)
        b = few_shot_sample(data, 2, seed=9)
        assert a.indices == b.indices

    def test_exact_k_per_class_when_available(self, small_training):
        _, data = small_training
        for k in (2, 4):
            sample = few_shot_sample(data, k, seed=1)
            assert all(count == k for count in sample.per_class_counts.values())
            assert len(sample.indices) == k * data.num_classes
            assert sample.shortfall_classes == ()

    def test_k_grid_sizes(self, small_training):
        _, data = small_training
        class_size = 6
        for k in (2, 4, 8, 16):
            sample = few_shot_sample(data, k, seed=1)
            expected = min(k, class_size) * data.num_classes
            assert len(sample.indices) == expected

    def test_oversized_k_takes_all_and_flags_shortfall(self, small_training):
        _, data = small_training
        sample = few_shot_sample(data, 16, seed=3)
        assert set(sample.shortfall_classes) == set(range(data.num_classes))
        assert all(count == 6 for count in sample.per_class_counts.values())

    def test_finetune_runs_on_the_sampled_subset(self, small_training):
        _, data = small_training
        store = default_parameter_store(data.dim)
        result = few_shot_finetune(store, data, k=2, epochs=2, seed=5)
        assert result.fit.epoch == 2
        assert len(result.sample.indices) == 2 * data.num_classes

    def test_invalid_k_rejected(self, small_training):
        _, data = small_training
        with pytest.raises(ValueError):
            few_shot_sample(data, 0, seed=0)


class TestTrainingStepTape:
    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_record_count_does_not_grow_with_the_class_count(
        self, default_corpora, spatial, temporal
    ):
        # a batch of 16 videos from 1 class and one of 2 videos from each of 8
        # classes: all classes share one segmented pass, so the tapes match
        corpus = default_corpora[0]
        data, _ = training_data_for(
            corpus, corpus.seen_class_indices, 8, corpus_encoder_params(corpus)
        )
        stacked = np.stack([video.patch_embeddings for video in data.videos])
        store = default_parameter_store(data.dim)
        counts = []
        for distinct in (1, 8):
            per_class = 16 // distinct
            batch = np.concatenate(
                [np.nonzero(data.labels == c)[0][:per_class] for c in range(distinct)]
            )
            loss = training_step_loss(
                store, stacked[batch], data.labels[batch], data,
                TrainConfig(spatial=spatial, temporal=temporal),
            )
            counts.append(len(loss.tape.records))
        assert counts[0] == counts[1] <= 40

    def test_step_tape_is_freed_with_its_loss(self, small_training):
        # the fit loop holds each step's tape only through its loss, so the
        # tape goes as soon as the next step replaces the loss, not whenever
        # the cycle collector next runs
        _, data = small_training
        stacked = np.stack([video.patch_embeddings for video in data.videos[:8]])
        store = default_parameter_store(data.dim)
        gc.disable()
        try:
            loss = training_step_loss(store, stacked, data.labels[:8], data, TrainConfig())
            parameter_gradients(loss, store)
            tape = weakref.ref(loss.tape)
            del loss
            assert tape() is None
        finally:
            gc.enable()


class TestCheckpointing:
    def make_checkpoint(self, data, epochs=3, seed=6):
        config = TrainConfig.desk_scale(epochs=epochs, seed=seed, batch_size=8)
        store = default_parameter_store(data.dim)
        result = fit(data, config, store=store)
        return Checkpoint(
            config=config,
            epoch=result.epoch,
            store=result.store,
            optimizer=result.optimizer,
            loss_history=result.loss_history,
        )

    def test_roundtrip_is_bitwise(self, small_training, tmp_path):
        _, data = small_training
        checkpoint = self.make_checkpoint(data)
        path = save_checkpoint(tmp_path / "ckpt.stickpt", checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.config == checkpoint.config
        assert loaded.epoch == checkpoint.epoch
        assert loaded.loss_history == checkpoint.loss_history
        assert loaded.store.fingerprint() == checkpoint.store.fingerprint()
        for name in checkpoint.store.names():
            assert np.array_equal(
                loaded.optimizer.first_moment[name], checkpoint.optimizer.first_moment[name]
            )
            assert np.array_equal(
                loaded.optimizer.second_moment[name], checkpoint.optimizer.second_moment[name]
            )
        assert loaded.optimizer.step == checkpoint.optimizer.step

    def test_save_load_save_produces_identical_bytes(self, small_training, tmp_path):
        _, data = small_training
        checkpoint = self.make_checkpoint(data)
        first = save_checkpoint(tmp_path / "a.stickpt", checkpoint)
        second = save_checkpoint(tmp_path / "b.stickpt", load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_resume_equals_uninterrupted_run(self, small_training, tmp_path):
        _, data = small_training
        config = TrainConfig.desk_scale(epochs=5, seed=7, batch_size=8)

        straight = fit(data, config, store=default_parameter_store(data.dim))

        partial_config = TrainConfig.desk_scale(epochs=3, seed=7, batch_size=8)
        partial = fit(data, partial_config, store=default_parameter_store(data.dim))
        checkpoint = Checkpoint(
            config=config,  # target epoch count lives in the config
            epoch=3,
            store=partial.store,
            optimizer=partial.optimizer,
            loss_history=partial.loss_history,
        )
        path = save_checkpoint(tmp_path / "mid.stickpt", checkpoint)
        resumed = resume_fit(data, load_checkpoint(path))

        assert resumed.loss_history == straight.loss_history
        assert resumed.store.fingerprint() == straight.store.fingerprint()

    def test_wrong_version_rejected(self, small_training, tmp_path):
        _, data = small_training
        path = save_checkpoint(tmp_path / "v.stickpt", self.make_checkpoint(data))
        raw = path.read_bytes().replace(b"version 2\n", b"version 9\n", 1)
        path.write_bytes(raw)
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.stickpt"
        path.write_bytes(b"NOTACKPT\n")
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, small_training, tmp_path):
        _, data = small_training
        path = save_checkpoint(tmp_path / "t.stickpt", self.make_checkpoint(data))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, small_training, tmp_path, monkeypatch):
        _, data = small_training
        checkpoint = self.make_checkpoint(data)
        path = save_checkpoint(tmp_path / "ckpt.stickpt", checkpoint)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.stickpt"]
        before = path.read_bytes()

        def fail_midway(fh, header, array):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(trainer, "write_array", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, checkpoint)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.stickpt"]


def tiny_checkpoint(tau_saliency: float = 0.07, **config) -> Checkpoint:
    store = default_parameter_store(2)
    return Checkpoint(
        config=TrainConfig(epochs=2, tau_saliency=tau_saliency, **config),
        epoch=2,
        store=store,
        optimizer=OptimizerState.for_store(store),
        loss_history=[1.5, 1.25],
    )


def _nan_log_tau(raw: bytes) -> bytes:
    start = raw.index(b"log_tau 0\n") + len(b"log_tau 0\n")
    return raw[:start] + np.array(np.nan).astype("<f8").tobytes() + raw[start + 8 :]


HUGE = b"9" * 20  # beyond int64

MALFORMED_CHECKPOINTS = {
    "unknown-config-key": lambda raw: raw.replace(b'config {', b'config {"bogus": 1, ', 1),
    "config-not-an-object": lambda raw: raw.replace(b'config {', b'config [{', 1),
    "epoch-not-a-number": lambda raw: raw.replace(b"epoch 2\n", b"epoch x\n", 1),
    "negative-history-count": lambda raw: raw.replace(b"history 2\n", b"history -1\n", 1),
    "trailing-bytes": lambda raw: raw + b"\x00",
    "nan-parameter-block": _nan_log_tau,
    "non-positive-tau": lambda raw: raw.replace(b"tau_saliency 0.07\n", b"tau_saliency 0.0\n", 1),
    "infinite-tau": lambda raw: raw.replace(b"tau_saliency 0.07\n", b"tau_saliency inf\n", 1),
    "nan-tau": lambda raw: raw.replace(b"tau_saliency 0.07\n", b"tau_saliency nan\n", 1),
    # the temperature has its own line; the config object may not name it too
    "config-names-tau": lambda raw: raw.replace(b'config {', b'config {"tau_saliency": 0.07, ', 1),
    # config values TrainConfig refuses
    "nan-learning-rate-config": lambda raw: raw.replace(
        b'"learning_rate": 5e-05', b'"learning_rate": NaN', 1),
    "infinite-weight-decay-config": lambda raw: raw.replace(
        b'"weight_decay": 0.05', b'"weight_decay": Infinity', 1),
    "other-optimizer-betas": lambda raw: raw.replace(b"betas 0.9 ", b"betas 0.5 ", 1),
    # headers promising far more values than the file holds
    "huge-array-header": lambda raw: raw.replace(b"log_tau 0\n", b"log_tau 1 " + HUGE + b"\n", 1),
    "huge-history-count": lambda raw: raw.replace(b"history 2\n", b"history " + HUGE + b"\n", 1),
    # counts in a form other than the canonical decimal the writer emits
    "plus-sign-version": lambda raw: raw.replace(b"version 2\n", b"version +2\n", 1),
    "underscore-epoch": lambda raw: raw.replace(b"epoch 2\n", b"epoch 0_2\n", 1),
    "leading-zero-step": lambda raw: raw.replace(b"step 0\n", b"step 00\n", 1),
    "leading-space-params": lambda raw: raw.replace(b"params 5\n", b"params  5\n", 1),
    "trailing-space-history": lambda raw: raw.replace(b"history 2\n", b"history 2 \n", 1),
    "plus-sign-array-ndim": lambda raw: raw.replace(b"log_tau 0\n", b"log_tau +0\n", 1),
    "double-space-array-dims": lambda raw: raw.replace(
        b"video_weight 2 2 2\n", b"video_weight 2  2 2\n", 1),
    "tab-in-array-dims": lambda raw: raw.replace(
        b"video_weight 2 2 2\n", b"video_weight 2 2\t2\n", 1),
    "underscore-array-dim": lambda raw: raw.replace(b"video_bias 1 2\n", b"video_bias 1 0_2\n", 1),
    # config values of a type their TrainConfig field does not take
    "float-for-int-config": lambda raw: raw.replace(
        b'"num_attributes": 8', b'"num_attributes": 2.5', 1),
    "bool-for-int-config": lambda raw: raw.replace(b'"epochs": 2', b'"epochs": true', 1),
    "int-for-bool-config": lambda raw: raw.replace(b'"spatial": true', b'"spatial": 1', 1),
    "string-for-float-config": lambda raw: raw.replace(
        b'"learning_rate": 5e-05', b'"learning_rate": "5e-05"', 1),
}


def _swap(params, i, j):
    params = list(params)
    params[i], params[j] = params[j], params[i]
    return params


def _replace(params, i, name=None, value=None):
    params = list(params)
    old_name, old_value = params[i]
    params[i] = (name or old_name, old_value if value is None else value)
    return params


# parameter sets other than default_parameter_store(2)'s, as (name, value) lists
BAD_PARAMETER_SETS = {
    "missing": lambda params: params[:2] + params[3:],  # no patch_weight
    "extra": lambda params: params + [("extra_bias", np.zeros(2))],
    "renamed": lambda params: _replace(params, 3, name="text_weight"),
    "reordered": lambda params: _swap(params, 2, 3),
    "misshapen-log-tau": lambda params: _replace(params, 4, value=np.zeros(3)),
    "misshapen-bias": lambda params: _replace(params, 1, value=np.zeros((2, 1))),
    "non-square-weight": lambda params: _replace(params, 0, value=np.zeros((2, 3))),
    "mixed-dim": lambda params: _replace(params, 3, value=np.eye(3)),
    "zero-dim": lambda params: [
        (name, np.zeros((0,) * np.ndim(value))) if np.ndim(value) else (name, value)
        for name, value in params
    ],
    "none": lambda params: [],
}


def checkpoint_with(params) -> Checkpoint:
    store = ParameterStore()
    for name, value in params:
        store.register(name, value)
    checkpoint = tiny_checkpoint()
    checkpoint.store, checkpoint.optimizer = store, OptimizerState.for_store(store)
    return checkpoint


def as_version_1(raw: bytes) -> bytes:
    return raw.replace(b"version 2\n", b"version 1\n", 1).replace(b"tau_saliency 0.07\n", b"", 1)


TINY_CHECKPOINT_CONFIG = (
    b'{"batch_size": 16, "epochs": 2, "learning_rate": 5e-05, "num_attributes": 8, '
    b'"seed": 0, "spatial": true, "temporal": true, "weight_decay": 0.05}'
)


class TestCheckpointFormat:
    def test_tau_saliency_round_trips(self, tmp_path):
        path = save_checkpoint(tmp_path / "hot.stickpt", tiny_checkpoint(tau_saliency=1.0))
        assert b"\ntau_saliency 1.0\n" in path.read_bytes()
        assert load_checkpoint(path).config.tau_saliency == 1.0

    def test_temperature_has_its_own_line_after_the_config(self, tmp_path):
        path = save_checkpoint(tmp_path / "hot.stickpt", tiny_checkpoint(tau_saliency=0.2))
        lines = path.read_bytes().split(b"\n")[:4]
        assert lines == [
            b"STICKPT1", b"version 2", b"config " + TINY_CHECKPOINT_CONFIG, b"tau_saliency 0.2",
        ]
        assert "tau_saliency" not in json.loads(lines[2][len(b"config "):])

    def test_every_config_field_round_trips(self, tmp_path):
        config = TrainConfig(
            learning_rate=1e-3, weight_decay=0.0, epochs=7, batch_size=5, seed=11,
            spatial=False, temporal=False, num_attributes=3, tau_saliency=0.25,
        )
        at_default = [f.name for f in dataclasses.fields(TrainConfig)
                      if getattr(config, f.name) == f.default]
        assert at_default == []
        checkpoint = tiny_checkpoint()
        checkpoint.config = config
        path = save_checkpoint(tmp_path / "all.stickpt", checkpoint)
        assert load_checkpoint(path).config == config

    @pytest.mark.parametrize("version", [1, 2])
    def test_files_of_the_earlier_layout_load_as_before(self, tmp_path, version):
        # bytes as the writer laid them out before the temperature became a
        # config field, with every config value other than its default
        config = (b'{"batch_size": 5, "epochs": 7, "learning_rate": 0.001, "num_attributes": 3, '
                  b'"seed": 11, "spatial": false, "temporal": false, "weight_decay": 0.0}')
        store = default_parameter_store(2)

        def blocks(name: str, value) -> list[bytes]:
            dims = " ".join(map(str, (value.ndim, *value.shape)))
            return [
                f"{name}{suffix} {dims}\n".encode() + np.asarray(v, dtype="<f8").tobytes()
                for suffix, v in (("", value), (".m", value * 0.5), (".v", value * 0.25))
            ]

        raw = b"".join([
            b"STICKPT1\nversion %d\nconfig %s\n" % (version, config),
            b"tau_saliency 0.25\n" if version == 2 else b"",
            b"epoch 3\nstep 9\nbetas 0.9 0.999 1e-08\nparams 5\n",
            *(block for name in store.names() for block in blocks(name, store.value(name))),
            b"history 3\n" + np.array([2.0, 1.5, 1.25], dtype="<f8").tobytes(),
        ])
        path = tmp_path / "earlier.stickpt"
        path.write_bytes(raw)
        loaded = load_checkpoint(path)
        assert loaded.config == TrainConfig(
            learning_rate=1e-3, weight_decay=0.0, epochs=7, batch_size=5, seed=11,
            spatial=False, temporal=False, num_attributes=3,
            tau_saliency=0.25 if version == 2 else DEFAULT_SALIENCY_TEMPERATURE,
        )
        assert (loaded.epoch, loaded.optimizer.step) == (3, 9)
        assert loaded.loss_history == [2.0, 1.5, 1.25]
        assert loaded.store.fingerprint() == store.fingerprint()
        for name in store.names():
            assert np.array_equal(loaded.optimizer.first_moment[name], store.value(name) * 0.5)
            assert np.array_equal(loaded.optimizer.second_moment[name], store.value(name) * 0.25)
        if version == 2:  # a version 2 file is written back byte for byte
            assert save_checkpoint(tmp_path / "again.stickpt", loaded).read_bytes() == raw

    def test_version_1_file_loads_with_default_temperature(self, tmp_path):
        path = save_checkpoint(tmp_path / "v2.stickpt", tiny_checkpoint(tau_saliency=1.0))
        raw = path.read_bytes()
        v1 = raw.replace(b"version 2\n", b"version 1\n", 1).replace(b"tau_saliency 1.0\n", b"", 1)
        path.write_bytes(v1)
        loaded = load_checkpoint(path)
        assert loaded.config.tau_saliency == 0.07
        assert loaded.epoch == 2 and loaded.loss_history == [1.5, 1.25]
        assert loaded.store.fingerprint() == tiny_checkpoint().store.fingerprint()

    @pytest.mark.parametrize("old, new", [
        (b"tau_saliency 0.5\n", b"tau_saliency 1_0\n"),
        (b"tau_saliency 0.5\n", b"tau_saliency  0.5\n"),
        (b"tau_saliency 0.5\n", b"tau_saliency +0.5\n"),
        (b"tau_saliency 0.5\n", b"tau_saliency 0.50\n"),
        (b"betas 0.9 0.999 1e-08\n", b"betas 0.90  0.999 1e-8\n"),
    ], ids=["underscore-tau", "leading-space-tau", "plus-sign-tau", "trailing-zero-tau",
            "respelled-betas"])
    def test_number_lines_load_only_in_their_written_form(self, tmp_path, old, new):
        # each spelling reads as a valid number but would not be re-saved byte for byte
        path = save_checkpoint(tmp_path / "c.stickpt", tiny_checkpoint(tau_saliency=0.5))
        raw = path.read_bytes()
        assert old in raw
        path.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("alter", BAD_PARAMETER_SETS.values(), ids=BAD_PARAMETER_SETS)
    def test_parameter_set_other_than_the_trainers_is_rejected(self, tmp_path, version, alter):
        store = default_parameter_store(2)
        params = alter([(name, store.value(name)) for name in store.names()])
        path = save_checkpoint(tmp_path / "params.stickpt", checkpoint_with(params))
        if version == 1:
            path.write_bytes(as_version_1(path.read_bytes()))
        with pytest.raises(CheckpointFormatError, match=r"params\.stickpt: parameters \["):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_the_trainers_parameter_set_loads_at_any_dim(self, tmp_path, version, dim):
        store = default_parameter_store(dim)
        params = [(name, store.value(name)) for name in store.names()]
        path = save_checkpoint(tmp_path / "params.stickpt", checkpoint_with(params))
        if version == 1:
            path.write_bytes(as_version_1(path.read_bytes()))
        assert load_checkpoint(path).store.fingerprint() == store.fingerprint()

    def test_every_truncation_prefix_raises_format_error(self, tmp_path):
        raw = save_checkpoint(tmp_path / "full.stickpt", tiny_checkpoint()).read_bytes()
        path = tmp_path / "cut.stickpt"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS)
    def test_malformed_file_raises_format_error(self, tmp_path, corrupt):
        path = save_checkpoint(tmp_path / "c.stickpt", tiny_checkpoint())
        raw = path.read_bytes()
        bad = corrupt(raw)
        assert bad != raw
        path.write_bytes(bad)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


    def test_byte_layout(self, tmp_path):
        def block(header: bytes, values) -> bytes:
            return header + b"\n" + np.asarray(values, dtype="<f8").tobytes()

        params = [
            (b"video_weight 2 2 2", np.eye(2)),
            (b"video_bias 1 2", np.zeros(2)),
            (b"patch_weight 2 2 2", np.eye(2)),
            (b"word_weight 2 2 2", np.eye(2)),
            (b"log_tau 0", np.log(0.07)),
        ]
        expected = b"".join([
            b"STICKPT1\n",
            b"version 2\n",
            b"config " + TINY_CHECKPOINT_CONFIG + b"\n",
            b"tau_saliency 0.07\n",
            b"epoch 2\n",
            b"step 0\n",
            b"betas 0.9 0.999 1e-08\n",
            b"params 5\n",
            *(
                block(header.replace(b" ", suffix + b" ", 1), values)
                for header, value in params
                for suffix, values in (
                    (b"", value), (b".m", np.zeros_like(value)), (b".v", np.zeros_like(value))
                )
            ),
            block(b"history 2", [1.5, 1.25]),
        ])
        path = save_checkpoint(tmp_path / "tiny.stickpt", tiny_checkpoint())
        assert path.read_bytes() == expected

    @given(data=st.data())
    @settings(max_examples=300)
    def test_corrupted_file_loads_or_raises_format_error(self, fuzz_dir, data):
        path = save_checkpoint(fuzz_dir / "tiny.stickpt", tiny_checkpoint())
        path.write_bytes(data.draw(mutants(path.read_bytes())))
        try:
            load_checkpoint(path)
        except CheckpointFormatError:
            pass


class TestLossCsv:
    def test_format_and_roundtrip_precision(self, tmp_path):
        history = [1.5, 0.1234567890123456789, 0.75]
        path = write_loss_csv(tmp_path / "loss.csv", history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 4
        for epoch, line in enumerate(lines[1:]):
            index, value = line.split(",")
            assert int(index) == epoch
            assert float(value) == history[epoch]
