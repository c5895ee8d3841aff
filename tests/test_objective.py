import hashlib

import numpy as np
import pytest

from stilab import autodiff as ad
from stilab.autodiff import ParameterStore, Tape, finite_difference_check, parameter_gradients
from stilab.encoders import (
    EncoderParams, FrameEmbeddingSet, TextEmbeddingSequence, encode_video, encode_video_nodes,
)
from stilab.objective import (
    BatchRecord,
    PositiveSet,
    loss_c2v,
    loss_nodes,
    loss_v2c,
    score_matrix,
    score_matrix_nodes,
    temperature_node,
    total_loss,
)
from stilab.sti import InteractionToggles, STIParameters, sti_forward
from stilab.trainer import (
    PARAM_LOG_TAU,
    PARAM_PATCH_WEIGHT,
    PARAM_VIDEO_BIAS,
    PARAM_VIDEO_WEIGHT,
    PARAM_WORD_WEIGHT,
    default_parameter_store,
)
from test_sti import text_of


def transcribed_losses(scores, labels, tau):
    """Independent transcription of the two directional losses: per anchor,
    average over its positive set of the log-softmax of the matched entry,
    denominator over the whole batch."""
    scores = np.asarray(scores, dtype=float)
    b = scores.shape[0]
    v2c = 0.0
    c2v = 0.0
    for i in range(b):
        positives = [k for k in range(b) if labels[k] == labels[i]]
        inner_v = 0.0
        inner_c = 0.0
        for k in positives:
            num = np.exp(scores[k, i] / tau)
            den = sum(np.exp(scores[j, i] / tau) for j in range(b))
            inner_v += np.log(num / den)
            num = np.exp(scores[i, k] / tau)
            den = sum(np.exp(scores[i, j] / tau) for j in range(b))
            inner_c += np.log(num / den)
        v2c -= inner_v / len(positives)
        c2v -= inner_c / len(positives)
    return v2c / b, c2v / b


def cosine(u, v) -> float:
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def pooled_score(feature, class_embedding) -> float:
    """score_matrix entry for a one-frame, one-patch video whose feature is
    exactly ``feature`` (identity encoder, interaction off)."""
    feature = np.asarray(feature, dtype=float)
    d = feature.shape[0]
    batch = BatchRecord(videos=(FrameEmbeddingSet.from_raw(feature.reshape(1, 1, d)),), labels=[0])
    text = TextEmbeddingSequence(
        class_embedding=np.asarray(class_embedding, dtype=float),
        word_embeddings=np.ones((1, d)),
        token_texts=("w",),
    )
    scores = score_matrix(
        batch, [text], STIParameters.identity_init(d), EncoderParams.pretrained(0, d),
        InteractionToggles(False, False),
    )
    return float(scores[0, 0])


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert pooled_score(v, v) == 1.0

    def test_orthogonal(self):
        assert pooled_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_antipodal(self):
        assert pooled_score(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == -1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            pooled_score(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            pooled_score(np.zeros(3), np.ones(3))

    def test_clamped_into_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v = rng.standard_normal(8), rng.standard_normal(8)
            score = pooled_score(u, v)
            assert -1.0 <= score <= 1.0
            assert abs(score - cosine(u, v)) < 1e-12


def make_setup(rng, b=3, k=3, t=3, n_p=4, d=8):
    videos = tuple(FrameEmbeddingSet.from_raw(rng.standard_normal((t, n_p, d))) for _ in range(b))
    texts = [text_of(rng.standard_normal((int(rng.integers(1, 4)), d))) for _ in range(k)]
    sti = STIParameters(
        np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        tau_saliency=0.3,
    )
    enc = EncoderParams(0, d, np.eye(d) + 0.1 * rng.standard_normal((d, d)), 0.1 * rng.standard_normal(d))
    labels = np.arange(b) % k
    return BatchRecord(videos=videos, labels=labels), texts, sti, enc


class TestScoreMatrix:
    def test_single_entry_in_range(self):
        rng = np.random.default_rng(1)
        batch, texts, sti, enc = make_setup(rng, b=1, k=1)
        scores = score_matrix(batch, texts, sti, enc)
        assert scores.shape == (1, 1)
        assert -1.0 <= scores[0, 0] <= 1.0

    def test_duplicated_videos_give_identical_rows(self):
        rng = np.random.default_rng(2)
        batch, texts, sti, enc = make_setup(rng, b=2, k=3)
        doubled = BatchRecord(
            videos=(batch.videos[0], batch.videos[0], batch.videos[1]),
            labels=np.array([0, 0, 1]),
        )
        scores = score_matrix(doubled, texts, sti, enc)
        assert np.array_equal(scores[0], scores[1])

    def test_matches_per_pair_component_composition(self):
        # per-pair oracle: one unbatched sti_forward per (video, class) and a
        # numpy cosine, compared entrywise with the batched shared-projection
        # score matrix
        rng = np.random.default_rng(3)
        batch, texts, sti, enc = make_setup(rng)
        scores = score_matrix(batch, texts, sti, enc)
        for i, video in enumerate(batch.videos):
            for j, text in enumerate(texts):
                feature = sti_forward(video, text, sti, enc)["feature"]
                expected = cosine(text.class_embedding, feature)
                assert abs(scores[i, j] - expected) < 1e-12

    def test_label_range_checked(self):
        rng = np.random.default_rng(4)
        batch, texts, sti, enc = make_setup(rng, b=2, k=2)
        bad = BatchRecord(videos=batch.videos, labels=np.array([0, 5]))
        with pytest.raises(ValueError):
            score_matrix(bad, texts, sti, enc)

    def test_mismatched_video_shapes_rejected(self):
        rng = np.random.default_rng(5)
        batch, texts, sti, enc = make_setup(rng, b=2)
        mixed = BatchRecord(
            videos=(batch.videos[0], FrameEmbeddingSet.from_raw(rng.standard_normal((2, 4, 8)))),
            labels=np.array([0, 1]),
        )
        with pytest.raises(ValueError):
            score_matrix(mixed, texts, sti, enc)

    def test_mean_pool_toggles_ignore_text_content(self):
        rng = np.random.default_rng(6)
        batch, texts, sti, enc = make_setup(rng, b=2, k=2)
        off = InteractionToggles(False, False)
        scores = score_matrix(batch, texts, sti, enc, off)
        for i, video in enumerate(batch.videos):
            encoded = encode_video(video.patch_embeddings, enc)
            pooled = encoded.frame_class_embeddings.mean(axis=0)
            for j, text in enumerate(texts):
                assert abs(scores[i, j] - cosine(text.class_embedding, pooled)) < 1e-12


class TestPositiveSet:
    def test_members_include_self(self):
        ps = PositiveSet.from_labels([3, 1, 3])
        assert 0 in ps.members(0)
        assert list(ps.members(0)) == [0, 2]

    def test_weight_matrix_sums_to_one(self):
        ps = PositiveSet.from_labels([0, 0, 1, 2])
        w = ps.weight_matrix()
        assert np.allclose(w.sum(), 1.0, atol=1e-15)
        assert np.array_equal(w, w.T)


class TestLosses:
    def test_singleton_batch_is_exactly_zero(self):
        ps = PositiveSet.from_labels([0])
        scores = np.array([[0.73]])
        assert loss_v2c(scores, ps, 0.07) == 0.0
        assert loss_c2v(scores, ps, 0.07) == 0.0
        assert total_loss(scores, ps, 0.07) == 0.0

    def test_worked_two_class_case(self):
        # diagonal margin with m/tau = ln 3: direct softmax cross-entropy
        # gives -log(3/4) per anchor in both directions
        m = np.log(3.0)
        scores = np.array([[m, 0.0], [0.0, m]])
        ps = PositiveSet.from_labels([0, 1])
        expected = -np.log(3.0 / 4.0)
        assert abs(loss_v2c(scores, ps, 1.0) - expected) < 1e-12
        assert abs(loss_c2v(scores, ps, 1.0) - expected) < 1e-12
        assert abs(total_loss(scores, ps, 1.0) - expected) < 1e-12

    def test_duplicate_labels_match_transcription(self):
        rng = np.random.default_rng(7)
        labels = [0, 0, 1, 2]
        scores = rng.standard_normal((4, 4))
        ps = PositiveSet.from_labels(labels)
        tau = 0.5
        expected_v2c, expected_c2v = transcribed_losses(scores, labels, tau)
        assert abs(loss_v2c(scores, ps, tau) - expected_v2c) < 1e-12
        assert abs(loss_c2v(scores, ps, tau) - expected_c2v) < 1e-12

    def test_total_is_mean_of_directions(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((3, 3))
        ps = PositiveSet.from_labels([0, 1, 2])
        v, c = loss_v2c(scores, ps, 0.2), loss_c2v(scores, ps, 0.2)
        assert abs(total_loss(scores, ps, 0.2) - (v + c) / 2.0) < 1e-15

    def test_symmetric_matrix_distinct_labels(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 3))
        scores = (a + a.T) / 2.0
        ps = PositiveSet.from_labels([0, 1, 2])
        v, c = loss_v2c(scores, ps, 0.3), loss_c2v(scores, ps, 0.3)
        total = total_loss(scores, ps, 0.3)
        assert abs(v - c) < 1e-12
        assert abs(total - v) < 1e-12

    def test_transpose_duality_with_distinct_labels(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            b = int(rng.integers(2, 6))
            scores = rng.standard_normal((b, b))
            ps = PositiveSet.from_labels(np.arange(b))
            assert abs(loss_c2v(scores, ps, 0.4) - loss_v2c(scores.T, ps, 0.4)) < 1e-12

    def test_nonnegativity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            b = int(rng.integers(1, 6))
            labels = rng.integers(0, 3, size=b)
            scores = rng.standard_normal((b, b)) * 3
            ps = PositiveSet.from_labels(labels)
            assert loss_v2c(scores, ps, 0.5) >= 0.0
            assert loss_c2v(scores, ps, 0.5) >= 0.0

    def test_joint_batch_permutation_leaves_losses_unchanged(self):
        rng = np.random.default_rng(12)
        labels = np.array([0, 1, 1, 2])
        scores = rng.standard_normal((4, 4))
        base = total_loss(scores, PositiveSet.from_labels(labels), 0.3)
        for _ in range(10):
            perm = rng.permutation(4)
            permuted = scores[np.ix_(perm, perm)]
            moved = total_loss(permuted, PositiveSet.from_labels(labels[perm]), 0.3)
            assert abs(moved - base) < 1e-12

    def test_perfect_separation_decreases_monotonically_to_zero(self):
        tau = 0.5
        ps = PositiveSet.from_labels([0, 1, 2])
        values = []
        for ratio in (1.0, 5.0, 10.0):
            m = ratio * tau
            scores = np.full((3, 3), 0.0)
            np.fill_diagonal(scores, m)
            values.append(total_loss(scores, ps, tau))
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.01

    def test_invalid_temperature_rejected(self):
        ps = PositiveSet.from_labels([0, 1])
        with pytest.raises(ValueError):
            total_loss(np.zeros((2, 2)), ps, 0.0)

    def test_wrong_matrix_shape_rejected(self):
        ps = PositiveSet.from_labels([0, 1])
        tape = Tape()
        with pytest.raises(ValueError):
            loss_nodes(tape.constant(np.zeros((2, 3))), ps, tape.constant(1.0))


class TestTemperature:
    def test_floor_applies(self):
        tape = Tape()
        node = temperature_node(tape, tape.constant(np.log(1e-9)))
        assert float(node.data) == 1e-3

    def test_above_floor_is_exponential(self):
        tape = Tape()
        node = temperature_node(tape, tape.constant(np.log(0.07)))
        assert abs(float(node.data) - 0.07) < 1e-15


class TestEndToEndGradients:
    def test_total_loss_gradient_against_finite_differences(self):
        rng = np.random.default_rng(13)
        b, t, n_p, d = 3, 3, 4, 6
        raw = rng.standard_normal((b, t, n_p, d))
        words = [rng.standard_normal((int(rng.integers(1, 4)), d)) for _ in range(b)]
        cls = [rng.standard_normal(d) for _ in range(b)]
        labels = np.array([0, 1, 2])

        store = ParameterStore()
        store.register(PARAM_VIDEO_WEIGHT, np.eye(d) + 0.1 * rng.standard_normal((d, d)))
        store.register(PARAM_VIDEO_BIAS, 0.1 * rng.standard_normal(d))
        store.register(PARAM_PATCH_WEIGHT, np.eye(d) + 0.1 * rng.standard_normal((d, d)))
        store.register(PARAM_WORD_WEIGHT, np.eye(d) + 0.1 * rng.standard_normal((d, d)))
        store.register(PARAM_LOG_TAU, np.log(0.3))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            scores = score_matrix_nodes(
                tape,
                raw_videos=tape.constant(raw),
                class_word_embeddings=words,
                class_embeddings=cls,
                video_weight=leaves[PARAM_VIDEO_WEIGHT],
                video_bias=leaves[PARAM_VIDEO_BIAS],
                patch_weight=leaves[PARAM_PATCH_WEIGHT],
                word_weight=leaves[PARAM_WORD_WEIGHT],
                tau_saliency=0.3,
                toggles=InteractionToggles(True, True),
            )
            tau = temperature_node(tape, leaves[PARAM_LOG_TAU])
            *_, total = loss_nodes(scores, PositiveSet.from_labels(labels), tau)
            return total

        err = finite_difference_check(loss_fn, store, eps=1e-5, coords_per_param=4, seed=7)
        assert err < 1e-5


def per_class_score_matrix(tape, raw, word_sets, class_embeddings, leaves, tau_saliency, toggles):
    """Reference (B, K) score matrix built one class at a time from tape
    primitives: each class rescales the frames by its own MaxSim scores, takes
    its own saliency and feature, and adds one column."""
    patches, frames = encode_video_nodes(
        tape.constant(raw), leaves[PARAM_VIDEO_WEIGHT], leaves[PARAM_VIDEO_BIAS]
    )
    columns = []
    for words, class_embedding in zip(word_sets, class_embeddings):
        proj_words = ad.relu(ad.matmul(tape.constant(words), leaves[PARAM_WORD_WEIGHT]))
        feats = frames
        if toggles.spatial:
            proj_patches = ad.relu(ad.matmul(patches, leaves[PARAM_PATCH_WEIGHT]))
            scores = ad.maxsim(proj_patches, proj_words)
            feats = ad.mul(ad.reshape(scores, scores.shape + (1,)), frames)
        if toggles.temporal:
            logits = ad.mul(ad.matmul(feats, ad.transpose(proj_words)), 1.0 / tau_saliency)
            saliency = ad.mean_reduce(ad.softmax(logits, axis=-2), axis=-1)  # (B, T)
            feature = ad.weighted_sum(frames, ad.reshape(saliency, saliency.shape + (1,)))
        else:
            feature = ad.mean_reduce(frames, axis=-2)
        unit = class_embedding / np.linalg.norm(class_embedding)
        column = ad.matmul(ad.l2_normalize(feature, axis=-1), tape.constant(unit[:, None]))
        columns.append(ad.clip(ad.reshape(column, (raw.shape[0],)), -1.0, 1.0))
    return ad.stack(columns, axis=1)


def segmented_score_matrix(tape, raw, word_sets, class_embeddings, leaves, tau_saliency, toggles):
    return score_matrix_nodes(
        tape,
        raw_videos=tape.constant(raw),
        class_word_embeddings=word_sets,
        class_embeddings=class_embeddings,
        video_weight=leaves[PARAM_VIDEO_WEIGHT],
        video_bias=leaves[PARAM_VIDEO_BIAS],
        patch_weight=leaves[PARAM_PATCH_WEIGHT],
        word_weight=leaves[PARAM_WORD_WEIGHT],
        tau_saliency=tau_saliency,
        toggles=toggles,
    )


class TestSegmentedScoreMatrix:
    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_matches_per_class_reference(self, spatial, temporal):
        # scores and every parameter gradient of the in-batch loss, over
        # random batches with 1 to 4 classes of 1 to 6 words each
        toggles = InteractionToggles(spatial, temporal)
        rng = np.random.default_rng(300 + 2 * spatial + temporal)
        for trial in range(12):
            b, k = int(rng.integers(1, 6)), 1 if trial < 3 else int(rng.integers(2, 5))
            t, n_p, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 7))
            raw = rng.standard_normal((b, t, n_p, d))
            word_sets = [rng.standard_normal((int(rng.integers(1, 7)), d)) for _ in range(k)]
            class_embeddings = [rng.standard_normal(d) for _ in range(k)]
            labels = rng.integers(0, k, size=b)
            store = ParameterStore()
            store.register(PARAM_VIDEO_WEIGHT, np.eye(d) + 0.1 * rng.standard_normal((d, d)))
            store.register(PARAM_VIDEO_BIAS, 0.1 * rng.standard_normal(d))
            store.register(PARAM_PATCH_WEIGHT, np.eye(d) + 0.1 * rng.standard_normal((d, d)))
            store.register(PARAM_WORD_WEIGHT, np.eye(d) + 0.1 * rng.standard_normal((d, d)))
            store.register(PARAM_LOG_TAU, np.log(0.3))

            def run(build):
                tape = Tape()
                leaves = store.leaves(tape)
                scores = build(tape, raw, word_sets, class_embeddings, leaves, 0.3, toggles)
                in_batch = ad.index_select(scores, labels, axis=1)
                tau = temperature_node(tape, leaves[PARAM_LOG_TAU])
                *_, total = loss_nodes(in_batch, PositiveSet.from_labels(labels), tau)
                return scores.data, parameter_gradients(total, store)

            scores, grads = run(segmented_score_matrix)
            want_scores, want_grads = run(per_class_score_matrix)
            assert scores.shape == (b, k)
            assert np.allclose(scores, want_scores, rtol=0.0, atol=1e-12)
            assert set(grads) == set(want_grads) and len(grads) == 5
            for name, grad in grads.items():
                assert np.allclose(grad, want_grads[name], rtol=0.0, atol=1e-12), name

    def test_class_lists_must_pair_up(self):
        rng = np.random.default_rng(310)
        tape = Tape()
        leaves = default_parameter_store(3).leaves(tape)
        with pytest.raises(ValueError):
            segmented_score_matrix(
                tape, rng.standard_normal((1, 2, 2, 3)), [np.ones((2, 3))] * 2, [np.ones(3)],
                leaves, 0.07, InteractionToggles(),
            )


class TestScoreMatrixPins:
    # sha256 of the (13, 5) score matrix's bytes for each toggle combination,
    # as score_matrix wrote it when the video encoder ran as separate matmul,
    # add and mean_reduce records over the whole batch (with the temporal
    # stage off the feature is the frame mean, so the spatial toggle is moot)
    PINNED_SCORES_SHA256 = {
        (True, True): "5fb990469a700eb5df0bde780e4c1f4053d5a0dafeb714706387fabc022e8912",
        (True, False): "262e6c43f1b5e3ebec9c2ba1434613ea7a0bb132b272360562444a457ee522b9",
        (False, True): "28d7b9864022ecd8e933b88581f7825279530ae0e7e63911a0595ae4e2959352",
        (False, False): "262e6c43f1b5e3ebec9c2ba1434613ea7a0bb132b272360562444a457ee522b9",
    }

    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_score_bytes_are_pinned_for_each_toggle(self, spatial, temporal):
        rng = np.random.default_rng(17)
        shape = (8, 32, 64)
        videos = tuple(FrameEmbeddingSet.from_raw(rng.standard_normal(shape)) for _ in range(13))
        per_chunk = ad.MAXSIM_CHUNK_VALUES // (shape[1] * shape[2])
        assert len(videos) * shape[0] > 3 * per_chunk  # three full MaxSim chunks and a part
        enc = EncoderParams(
            0, 64, np.eye(64) + 0.1 * rng.standard_normal((64, 64)), 0.1 * rng.standard_normal(64)
        )
        sti = STIParameters.random_init(64, seed=3, tau_saliency=0.3)
        texts = [text_of(rng.standard_normal((n, 64))) for n in (3, 5, 2, 4, 6)]
        batch = BatchRecord(videos=videos, labels=np.zeros(len(videos), dtype=np.int64))
        scores = score_matrix(batch, texts, sti, enc, InteractionToggles(spatial, temporal))
        assert scores.shape == (13, 5) and scores.dtype == np.float64
        digest = hashlib.sha256(scores.tobytes()).hexdigest()
        assert digest == self.PINNED_SCORES_SHA256[(spatial, temporal)]
