import numpy as np
import pytest

from stilab.autodiff import ParameterStore, ShapeMismatchError, Tape, finite_difference_check
from stilab.encoders import FrameEmbeddingSet, TextEmbeddingSequence
from stilab.sti import (
    InteractionToggles,
    STIParameters,
    SpatialResult,
    aggregate_nodes,
    project_nodes,
    spatial_interaction,
    sti_forward,
    sti_pipeline_nodes,
    temporal_nodes,
)
from stilab import autodiff as ad


def maxsim_enumeration(proj_patches, proj_words, frames):
    """Brute-force oracle: enumerate every (patch, word) pair per frame,
    with ties resolved toward the lexicographically smallest pair."""
    t_count, p_count, _ = proj_patches.shape
    w_count = proj_words.shape[0]
    scores = np.empty(t_count)
    argpairs = []
    for t in range(t_count):
        best = None
        best_pair = None
        for k in range(p_count):
            for l in range(w_count):
                sim = float(np.dot(proj_patches[t, k], proj_words[l]))
                if best is None or sim > best:
                    best, best_pair = sim, (k, l)
        scores[t] = best
        argpairs.append(best_pair)
    feats = scores[:, None] * frames
    return scores, feats, argpairs


def integer_instance(rng, t=3, n_p=4, n_w=3, d=6):
    """Integer-valued projected inputs: every pairwise dot product is exactly
    representable, so any summation order gives identical floats and ties
    genuinely occur."""
    proj_patches = rng.integers(0, 4, size=(t, n_p, d)).astype(float)
    proj_words = rng.integers(0, 4, size=(n_w, d)).astype(float)
    frames = rng.standard_normal((t, d))
    return proj_patches, proj_words, frames


def project(x, weight) -> np.ndarray:
    tape = Tape()
    return project_nodes(tape.constant(x), tape.constant(weight)).data


def saliency(spatial_features, proj_words, tau) -> np.ndarray:
    tape = Tape()
    return temporal_nodes(tape.constant(spatial_features), tape.constant(proj_words), tau).data


def aggregate(frames, weights) -> np.ndarray:
    tape = Tape()
    return aggregate_nodes(tape.constant(frames), tape.constant(weights)).data


def mean_pooled(frames: FrameEmbeddingSet, text: TextEmbeddingSequence) -> np.ndarray:
    """The video feature with both interaction stages off."""
    params = STIParameters.identity_init(frames.dim)
    return sti_forward(frames, text, params, InteractionToggles(False, False))["feature"]


def text_of(words: np.ndarray) -> TextEmbeddingSequence:
    mean = words.mean(axis=0)
    norm = np.linalg.norm(mean)
    cls = mean / norm if norm > 0 else np.full(words.shape[1], words.shape[1] ** -0.5)
    return TextEmbeddingSequence(
        class_embedding=cls,
        word_embeddings=words,
        token_texts=tuple(f"w{i}" for i in range(words.shape[0])),
    )


class TestProjection:
    def test_identity_passes_nonnegative_input_through(self):
        x = np.array([[0.5, 2.0], [0.0, 1.0]])
        assert np.array_equal(project(x, np.eye(2)), x)

    def test_relu_clamps_negatives(self):
        out = project(np.array([[-1.0, 2.0]]), np.eye(2))
        assert np.array_equal(out, [[0.0, 2.0]])

    def test_shapes_preserved_and_nonnegative(self):
        rng = np.random.default_rng(0)
        patches = rng.standard_normal((3, 4, 6))
        out = project(patches, rng.standard_normal((6, 6)))
        assert out.shape == patches.shape
        assert np.all(out >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            project(np.ones((2, 3)), np.eye(4))

    def test_gradient_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4))
        x[np.abs(x) < 0.2] += 0.3  # keep pre-activation values off zero
        store = ParameterStore()
        store.register("w", np.eye(4) + 0.05 * rng.standard_normal((4, 4)))

        def loss_fn(params):
            tape = Tape()
            leaves = params.leaves(tape)
            return ad.sum_reduce(project_nodes(tape.constant(x), leaves["w"]))

        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=6) < 1e-5


class TestSpatialInteraction:
    def test_worked_two_by_two(self):
        patches = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # T=1, N_p=2
        words = np.array([[2.0, 0.0], [0.0, 3.0]])
        frames = np.array([[1.0, 1.0]])
        result = spatial_interaction(patches, words, frames)
        assert result.spatial_scores[0] == 3.0
        assert np.array_equal(result.spatial_features, [[3.0, 3.0]])

    def test_equal_products_give_symmetric_score(self):
        # every patch-word pair dots to exactly c
        c = 1.5
        patches = np.tile(np.array([1.0, 0.0]), (2, 3, 1))
        words = np.tile(np.array([c, 0.0]), (4, 1))
        frames = np.arange(4.0).reshape(2, 2)
        result = spatial_interaction(patches, words, frames)
        assert np.all(result.spatial_scores == c)
        assert np.array_equal(result.spatial_features, c * frames)

    def test_matches_exhaustive_enumeration_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            patches, words, frames = integer_instance(rng)
            result = spatial_interaction(patches, words, frames)
            scores, feats, _ = maxsim_enumeration(patches, words, frames)
            assert np.array_equal(result.spatial_scores, scores)
            assert np.array_equal(result.spatial_features, feats)

    def test_continuous_instance_close_to_enumeration(self):
        rng = np.random.default_rng(3)
        patches = np.abs(rng.standard_normal((3, 4, 6)))
        words = np.abs(rng.standard_normal((3, 6)))
        frames = rng.standard_normal((3, 6))
        result = spatial_interaction(patches, words, frames)
        scores, feats, _ = maxsim_enumeration(patches, words, frames)
        assert np.allclose(result.spatial_scores, scores, rtol=1e-12)
        assert np.allclose(result.spatial_features, feats, rtol=1e-12)

    def test_empty_word_set_rejected(self):
        with pytest.raises(ShapeMismatchError):
            spatial_interaction(np.ones((2, 3, 4)), np.ones((0, 4)), np.ones((2, 4)))

    def test_tie_gradient_routes_to_smallest_pair(self):
        # two identical words: the tie must route to word index 0
        tape = Tape()
        patches = tape.constant(np.ones((1, 1, 2)))
        words = tape.leaf(np.array([[1.0, 1.0], [1.0, 1.0]]))
        from stilab.sti import spatial_nodes

        scores = spatial_nodes(patches, ad.relu(words))
        grads = tape.backward(ad.sum_reduce(scores, axis=0))
        assert np.array_equal(grads[words.tid], [[1.0, 1.0], [0.0, 0.0]])

    def test_tie_gradient_routes_to_smallest_patch(self):
        # two identical patches in one frame: the tie must route to patch 0
        tape = Tape()
        patches = tape.leaf(np.ones((1, 2, 2)))
        words = tape.constant(np.array([[1.0, 2.0]]))
        from stilab.sti import spatial_nodes

        scores = spatial_nodes(patches, words)
        grads = tape.backward(ad.sum_reduce(scores, axis=0))
        assert np.array_equal(grads[patches.tid], [[[1.0, 2.0], [0.0, 0.0]]])

    def test_batched_scores_match_enumeration_with_one_fused_record(self):
        from stilab.sti import spatial_nodes

        rng = np.random.default_rng(4)
        batch = [integer_instance(rng) for _ in range(3)]
        patches = np.stack([b[0] for b in batch])  # (B, T, N_p, D)
        words = batch[0][1]
        frames = np.stack([b[2] for b in batch])
        tape = Tape()
        p = tape.leaf(patches)
        scores = spatial_nodes(p, tape.constant(words))
        assert [rec.op for rec in tape.records] == ["maxsim"]
        grad = tape.backward(ad.sum_reduce(scores))[p.tid]
        for i in range(3):
            want_scores, want_feats, argpairs = maxsim_enumeration(patches[i], words, frames[i])
            assert np.array_equal(scores.data[i], want_scores)
            result = spatial_interaction(patches[i], words, frames[i])
            assert np.array_equal(result.spatial_features, want_feats)
            for t, (k, l) in enumerate(argpairs):
                want = np.zeros_like(patches[i, t])
                want[k] = words[l]
                assert np.array_equal(grad[i, t], want)


class TestTemporalSaliency:
    def test_identical_frames_give_uniform_weights(self):
        feats = np.tile(np.array([0.3, -0.7]), (4, 1))
        words = np.array([[1.0, 0.5]])
        sal = saliency(feats, words, tau=0.07)
        assert np.allclose(sal, 0.25, atol=1e-15)
        assert abs(sal.sum() - 1.0) < 1e-12

    def test_single_frame_gets_weight_one(self):
        sal = saliency(np.array([[2.0, 1.0]]), np.array([[1.0, 0.0]]), tau=1.0)
        assert sal[0] == 1.0

    def test_two_frame_logits_match_direct_softmax(self):
        # logits (0, ln 3) at tau=1 -> softmax (0.25, 0.75) by direct evaluation
        feats = np.array([[0.0], [np.log(3.0)]])
        words = np.array([[1.0]])
        sal = saliency(feats, words, tau=1.0)
        logits = feats @ words.T / 1.0
        oracle = np.exp(logits[:, 0]) / np.exp(logits[:, 0]).sum()
        assert np.allclose(sal, oracle, atol=1e-15)
        assert np.allclose(sal, [0.25, 0.75], atol=1e-15)

    def test_multi_word_average_matches_manual(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((3, 5))
        words = rng.standard_normal((4, 5))
        tau = 0.3
        sal = saliency(feats, words, tau)
        logits = feats @ words.T / tau
        per_word = np.exp(logits - logits.max(axis=0)) / np.exp(logits - logits.max(axis=0)).sum(axis=0)
        assert np.allclose(sal, per_word.mean(axis=1), atol=1e-12)

    def test_invalid_temperature(self):
        # the saliency temperature reaches temporal_nodes only through
        # STIParameters (or a TrainConfig), both of which reject it
        for tau in (0.0, -0.07, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                STIParameters.identity_init(2, tau_saliency=tau)

    def test_large_temperature_approaches_uniform(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((5, 6))
        words = rng.standard_normal((3, 6))
        sal = saliency(feats, words, tau=1e6)
        assert np.all(np.abs(sal - 0.2) < 1e-6)

    def test_zero_projected_words_give_uniform(self):
        feats = np.random.default_rng(6).standard_normal((4, 3))
        sal = saliency(feats, np.zeros((2, 3)), tau=0.07)
        assert np.allclose(sal, 0.25, atol=1e-15)


class TestAggregateVideo:
    def test_uniform_weights_give_mean(self):
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((8, 5))
        out = aggregate(frames, np.full(8, 1.0 / 8))
        assert np.allclose(out, frames.mean(axis=0), atol=1e-12)

    def test_one_hot_selects_a_frame(self):
        frames = np.arange(12.0).reshape(3, 4)
        weights = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(aggregate(frames, weights), frames[1])

    def test_matches_naive_loop_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t, d = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            frames = rng.standard_normal((t, d))
            weights = rng.standard_normal(t)
            naive = frames[0] * weights[0]
            for i in range(1, t):
                naive = naive + frames[i] * weights[i]
            assert np.array_equal(aggregate(frames, weights), naive)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            aggregate(np.ones((3, 2)), np.ones(4))


class TestMeanPoolBaseline:
    def test_single_frame(self):
        frames = FrameEmbeddingSet.from_raw(np.ones((1, 2, 3)))
        text = text_of(np.ones((1, 3)))
        assert np.array_equal(mean_pooled(frames, text), frames.frame_class_embeddings[0])

    def test_two_frames(self):
        fc = np.array([[1.0, 0.0], [0.0, 1.0]])
        frames = FrameEmbeddingSet(fc, fc[:, None, :])
        assert np.array_equal(mean_pooled(frames, text_of(np.ones((1, 2)))), [0.5, 0.5])

    def test_equals_uniform_aggregation(self):
        rng = np.random.default_rng(9)
        frames = FrameEmbeddingSet.from_raw(rng.standard_normal((6, 3, 4)))
        uniform = aggregate(frames.frame_class_embeddings, np.full(6, 1.0 / 6))
        pooled = mean_pooled(frames, text_of(rng.standard_normal((2, 4))))
        assert np.allclose(pooled, uniform, atol=1e-12)


def random_pair(rng, t=4, n_p=5, n_w=3, d=6):
    frames = FrameEmbeddingSet.from_raw(rng.standard_normal((t, n_p, d)))
    text = text_of(rng.standard_normal((n_w, d)))
    params = STIParameters(
        np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        tau_saliency=0.3,
    )
    return frames, text, params


class TestForwardPipeline:
    def test_both_toggles_off_is_mean_pool_bitwise(self):
        rng = np.random.default_rng(10)
        frames, text, params = random_pair(rng)
        out = sti_forward(frames, text, params, InteractionToggles(False, False))
        assert np.array_equal(out["feature"], np.mean(frames.frame_class_embeddings, axis=0))

    def test_temporal_off_spatial_on_means_frames_when_scores_equal(self):
        rng = np.random.default_rng(11)
        d = 6
        # one patch repeated everywhere so every frame's max-sim score is equal
        patch = np.abs(rng.standard_normal(d))
        raw = np.tile(patch, (4, 5, 1))
        frames = FrameEmbeddingSet.from_raw(raw)
        text = text_of(np.abs(rng.standard_normal((3, d))))
        params = STIParameters.identity_init(d)
        out = sti_forward(frames, text, params, InteractionToggles(True, False))
        scores = out["spatial_scores"]
        assert np.allclose(scores, scores[0], atol=1e-12)
        assert np.array_equal(out["feature"], np.mean(frames.frame_class_embeddings, axis=0))

    def test_full_pipeline_matches_straight_line_recomputation(self):
        # independent straight-line oracle composed of the four stages,
        # written directly in numpy
        rng = np.random.default_rng(12)
        frames, text, params = random_pair(rng)
        out = sti_forward(frames, text, params)

        proj_p = np.maximum(frames.patch_embeddings @ params.patch_weight, 0.0)
        proj_w = np.maximum(text.word_embeddings @ params.word_weight, 0.0)
        scores, feats, _ = maxsim_enumeration(proj_p, proj_w, frames.frame_class_embeddings)
        logits = feats @ proj_w.T / params.tau_saliency
        shifted = np.exp(logits - logits.max(axis=0, keepdims=True))
        per_word = shifted / shifted.sum(axis=0, keepdims=True)
        weights = per_word.mean(axis=1)
        feature = np.zeros(frames.dim)
        for t in range(frames.num_frames):
            feature = feature + frames.frame_class_embeddings[t] * weights[t]

        assert np.allclose(out["spatial_scores"], scores, rtol=1e-12, atol=1e-12)
        assert np.allclose(out["saliency"], weights, rtol=1e-12, atol=1e-12)
        assert np.allclose(out["feature"], feature, rtol=1e-12, atol=1e-12)

    def test_frame_permutation_leaves_feature_unchanged(self):
        rng = np.random.default_rng(13)
        frames, text, params = random_pair(rng)
        base = sti_forward(frames, text, params)["feature"]
        for _ in range(20):
            perm = rng.permutation(frames.num_frames)
            permuted = FrameEmbeddingSet(
                frames.frame_class_embeddings[perm], frames.patch_embeddings[perm]
            )
            moved = sti_forward(permuted, text, params)["feature"]
            rel = np.abs(moved - base) / np.maximum(1.0, np.abs(base))
            assert np.max(rel) < 1e-9

    def test_word_permutation_invariance(self):
        rng = np.random.default_rng(14)
        frames, text, params = random_pair(rng)
        base = sti_forward(frames, text, params)
        for _ in range(20):
            perm = rng.permutation(text.num_words)
            permuted = TextEmbeddingSequence(
                class_embedding=text.class_embedding,
                word_embeddings=text.word_embeddings[perm],
                token_texts=tuple(text.token_texts[i] for i in perm),
            )
            moved = sti_forward(frames, permuted, params)
            assert np.array_equal(moved["spatial_scores"], base["spatial_scores"])
            assert np.allclose(moved["saliency"], base["saliency"], atol=1e-12)

    def test_saliency_always_sums_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            frames, text, params = random_pair(
                rng, t=int(rng.integers(1, 6)), n_w=int(rng.integers(1, 5))
            )
            out = sti_forward(frames, text, params)
            assert abs(out["saliency"].sum() - 1.0) < 1e-9
            assert np.all(out["spatial_scores"] >= 0.0)

    def test_parameter_and_result_validation(self):
        with pytest.raises(ValueError):
            STIParameters(np.eye(2), np.eye(2), tau_saliency=0.0)
        with pytest.raises(ValueError):
            SpatialResult(np.array([-0.1]), np.ones((1, 2)))


class TestSegmentedPipeline:
    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_each_segment_matches_its_own_pass(self, spatial, temporal):
        # one pass over K segments against one unsegmented pass per segment
        toggles = InteractionToggles(spatial, temporal)
        rng = np.random.default_rng(17 + 2 * spatial + temporal)
        for _ in range(10):
            b, t, n_p, d = (int(n) for n in rng.integers(1, 5, size=4))
            lengths = rng.integers(1, 7, size=int(rng.integers(1, 5)))
            segments = np.concatenate([[0], np.cumsum(lengths)])
            words = rng.standard_normal((int(segments[-1]), d + 1))
            patches = rng.standard_normal((b, t, n_p, d + 1))
            frames = rng.standard_normal((b, t, d + 1))
            weights = [np.eye(d + 1) + 0.1 * rng.standard_normal((d + 1, d + 1)) for _ in range(2)]

            def run(word_rows, segments=None):
                tape = Tape()
                return sti_pipeline_nodes(
                    patches=tape.constant(patches), frames=tape.constant(frames),
                    words=tape.constant(word_rows), patch_weight=tape.constant(weights[0]),
                    word_weight=tape.constant(weights[1]), tau_saliency=0.3, toggles=toggles,
                    segments=segments,
                )

            together = run(words, segments)
            want_feature_shape = (b, lengths.size if temporal else 1, d + 1)
            assert together["feature"].shape == want_feature_shape
            for k, (lo, hi) in enumerate(zip(segments[:-1], segments[1:])):
                alone = run(words[lo:hi])
                feature = together["feature"].data[:, k if temporal else 0]
                assert np.allclose(feature, alone["feature"].data, rtol=0.0, atol=1e-12)
                for key in ("spatial_scores", "saliency"):
                    if alone[key] is None:
                        assert together[key] is None
                        continue
                    got = together[key].data[..., k]
                    assert np.allclose(got, alone[key].data, rtol=0.0, atol=1e-12), key
            if temporal:
                assert np.allclose(together["saliency"].data.sum(axis=-2), 1.0, atol=1e-12)


class TestEncoderInsidePipeline:
    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_raw_features_with_the_encoder_match_encoded_inputs_bitwise(self, spatial, temporal):
        # every node the pipeline returns, from raw features and the encoder
        # pair, against the same pipeline given encoded patches and frames
        toggles = InteractionToggles(spatial, temporal)
        rng = np.random.default_rng(40 + 2 * spatial + temporal)
        b, t, n_p, d = 3, 4, 5, 6
        raw = rng.standard_normal((b, t, n_p, d))
        words = rng.standard_normal((7, d))
        video_weight = np.eye(d) + 0.1 * rng.standard_normal((d, d))
        video_bias = 0.1 * rng.standard_normal(d)
        weights = [np.eye(d) + 0.1 * rng.standard_normal((d, d)) for _ in range(2)]

        def run(patches, frames=None, encoder=None):
            tape = Tape()
            return sti_pipeline_nodes(
                patches=tape.constant(patches),
                frames=None if frames is None else tape.constant(frames),
                encoder=None if encoder is None else tuple(map(tape.constant, encoder)),
                words=tape.constant(words), patch_weight=tape.constant(weights[0]),
                word_weight=tape.constant(weights[1]), tau_saliency=0.3, toggles=toggles,
                segments=[0, 2, 7],
            )

        encoded = raw @ video_weight + video_bias
        fused = run(patches=raw, encoder=(video_weight, video_bias))
        want = run(patches=encoded, frames=encoded.mean(axis=-2))
        assert fused.keys() == want.keys()
        for key, node in fused.items():
            if want[key] is None:
                assert node is None
                continue
            assert np.array_equal(node.data, want[key].data), key

    def test_frames_and_encoder_are_exclusive(self):
        tape = Tape()
        ones = tape.constant(np.ones((2, 3, 4)))
        common = dict(
            words=tape.constant(np.ones((2, 4))), patch_weight=tape.constant(np.eye(4)),
            word_weight=tape.constant(np.eye(4)), tau_saliency=0.3, toggles=InteractionToggles(),
        )
        encoder = (tape.constant(np.eye(4)), tape.constant(np.zeros(4)))
        with pytest.raises(ValueError, match="either frames or an encoder"):
            sti_pipeline_nodes(patches=ones, **common)
        with pytest.raises(ValueError, match="either frames or an encoder"):
            sti_pipeline_nodes(patches=ones, frames=tape.constant(np.ones((2, 4))),
                               encoder=encoder, **common)
