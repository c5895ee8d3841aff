import hashlib

import numpy as np
import pytest

from stilab.autodiff import ParameterStore, ShapeMismatchError, Tape, finite_difference_check
from stilab.encoders import (
    EncoderParams, FrameEmbeddingSet, TextEmbeddingSequence, encode_video_nodes,
)
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
    """The (T,) saliency of one segment holding every word."""
    tape = Tape()
    out = temporal_nodes(tape.constant(spatial_features), tape.constant(proj_words), tau).data
    assert out.shape == (spatial_features.shape[0], 1)
    return out[:, 0]


def aggregate(frames, weights) -> np.ndarray:
    """(T, D) frames against one (T,) column of weights: the (D,) feature."""
    tape = Tape()
    return aggregate_nodes(tape.constant(frames), tape.constant(weights[:, None])).data[0]


def mean_pooled(video: FrameEmbeddingSet, text: TextEmbeddingSequence) -> np.ndarray:
    """The video feature with both interaction stages off, under the identity
    encoder, which leaves the raw features as they are."""
    params = STIParameters.identity_init(video.dim)
    enc = EncoderParams.pretrained(0, video.dim)
    return sti_forward(video, text, params, enc, InteractionToggles(False, False))["feature"]


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
    """A raw video, a class text, and non-identity interaction and encoder
    parameters."""
    video = FrameEmbeddingSet.from_raw(rng.standard_normal((t, n_p, d)))
    text = text_of(rng.standard_normal((n_w, d)))
    params = STIParameters(
        np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        np.eye(d) + 0.1 * rng.standard_normal((d, d)),
        tau_saliency=0.3,
    )
    enc = EncoderParams(0, d, np.eye(d) + 0.1 * rng.standard_normal((d, d)),
                        0.1 * rng.standard_normal(d))
    return video, text, params, enc


def encoded(video: FrameEmbeddingSet, enc: EncoderParams):
    """Encoded patches and frames of a raw video, in plain numpy."""
    patches = video.patch_embeddings @ enc.video_weight + enc.video_bias
    return patches, patches.mean(axis=1)


class TestForwardPipeline:
    def test_both_toggles_off_is_mean_pool_bitwise(self):
        rng = np.random.default_rng(10)
        video, text, params, enc = random_pair(rng)
        out = sti_forward(video, text, params, enc, InteractionToggles(False, False))
        frames = video.patch_embeddings.mean(axis=1) @ enc.video_weight + enc.video_bias
        assert np.array_equal(out["feature"], np.mean(frames, axis=0))

    def test_temporal_off_spatial_on_means_frames_when_scores_equal(self):
        rng = np.random.default_rng(11)
        d = 6
        # one patch repeated everywhere so every frame's max-sim score is equal
        patch = np.abs(rng.standard_normal(d))
        raw = np.tile(patch, (4, 5, 1))
        video = FrameEmbeddingSet.from_raw(raw)
        text = text_of(np.abs(rng.standard_normal((3, d))))
        params = STIParameters.identity_init(d)
        enc = EncoderParams.pretrained(0, d)
        out = sti_forward(video, text, params, enc, InteractionToggles(True, False))
        scores = out["spatial_scores"]
        assert np.allclose(scores, scores[0], atol=1e-12)
        assert np.array_equal(out["feature"], np.mean(video.frame_class_embeddings, axis=0))

    def test_full_pipeline_matches_straight_line_recomputation(self):
        # independent straight-line oracle composed of the encoder and the
        # four stages, written directly in numpy
        rng = np.random.default_rng(12)
        video, text, params, enc = random_pair(rng)
        out = sti_forward(video, text, params, enc)

        patches, frames = encoded(video, enc)
        proj_p = np.maximum(patches @ params.patch_weight, 0.0)
        proj_w = np.maximum(text.word_embeddings @ params.word_weight, 0.0)
        scores, feats, _ = maxsim_enumeration(proj_p, proj_w, frames)
        logits = feats @ proj_w.T / params.tau_saliency
        shifted = np.exp(logits - logits.max(axis=0, keepdims=True))
        per_word = shifted / shifted.sum(axis=0, keepdims=True)
        weights = per_word.mean(axis=1)
        feature = np.zeros(video.dim)
        for t in range(video.num_frames):
            feature = feature + frames[t] * weights[t]

        assert np.allclose(out["spatial_scores"], scores, rtol=1e-12, atol=1e-12)
        assert np.allclose(out["saliency"], weights, rtol=1e-12, atol=1e-12)
        assert np.allclose(out["feature"], feature, rtol=1e-12, atol=1e-12)

    def test_frame_permutation_leaves_feature_unchanged(self):
        rng = np.random.default_rng(13)
        video, text, params, enc = random_pair(rng)
        base = sti_forward(video, text, params, enc)["feature"]
        for _ in range(20):
            perm = rng.permutation(video.num_frames)
            permuted = FrameEmbeddingSet(
                video.frame_class_embeddings[perm], video.patch_embeddings[perm]
            )
            moved = sti_forward(permuted, text, params, enc)["feature"]
            rel = np.abs(moved - base) / np.maximum(1.0, np.abs(base))
            assert np.max(rel) < 1e-9

    def test_word_permutation_invariance(self):
        rng = np.random.default_rng(14)
        video, text, params, enc = random_pair(rng)
        base = sti_forward(video, text, params, enc)
        for _ in range(20):
            perm = rng.permutation(text.num_words)
            permuted = TextEmbeddingSequence(
                class_embedding=text.class_embedding,
                word_embeddings=text.word_embeddings[perm],
                token_texts=tuple(text.token_texts[i] for i in perm),
            )
            moved = sti_forward(video, permuted, params, enc)
            assert np.array_equal(moved["spatial_scores"], base["spatial_scores"])
            assert np.allclose(moved["saliency"], base["saliency"], atol=1e-12)

    def test_saliency_always_sums_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            video, text, params, enc = random_pair(
                rng, t=int(rng.integers(1, 6)), n_w=int(rng.integers(1, 5))
            )
            out = sti_forward(video, text, params, enc)
            assert abs(out["saliency"].sum() - 1.0) < 1e-9
            assert np.all(out["spatial_scores"] >= 0.0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        video, text, params, _ = random_pair(rng)
        with pytest.raises(ShapeMismatchError):
            sti_forward(video, text, params, EncoderParams.pretrained(0, video.dim + 1))

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
            # one segment is an unsegmented call, bit for bit; with more, the
            # pooling products span every segment and may round differently
            same = np.array_equal if lengths.size == 1 else (
                lambda got, want: np.allclose(got, want, rtol=0.0, atol=1e-12)
            )
            for k, (lo, hi) in enumerate(zip(segments[:-1], segments[1:])):
                alone = run(words[lo:hi])
                feature = together["feature"].data[:, k if temporal else 0]
                assert same(feature, alone["feature"].data)
                for key in ("spatial_scores", "saliency"):
                    if alone[key] is None:
                        assert together[key] is None
                        continue
                    assert same(together[key].data[..., k], alone[key].data), key
            if temporal:
                assert np.allclose(together["saliency"].data.sum(axis=-2), 1.0, atol=1e-12)


class TestUnsegmentedPins:
    # sha256 over each returned node's key, shape and bytes. The frames=
    # form's digests are as the pipeline computed them while unsegmented calls
    # still had their own layout (no K axis in any stage). The encoder= form
    # folds the encoder into the patch projection, so its bits differ in the
    # last places; its digests are as that fold computes them. With the
    # temporal stage on, both forms' digests are as its segment operations
    # compute them.
    PINNED_SHA256 = {
        "frames": {
            (True, True): "83147f2a353a7c0533982bc10645b1fcede544bac6fad1b7829bddcaada597d6",
            (True, False): "e359efef559244984da65568932a616269d3c60791b70c4e5b73ffacd1c5f4c9",
            (False, True): "faa9a1dacde7bd22b87a4c538d583b10644474122feccd8f2b1d19cb9b3258fb",
            (False, False): "3dd92b16ac19ccb70686e3a617d0368e6922a2329421066f9980f9cc8c403144",
        },
        "encoder": {
            (True, True): "b8352a30a1064949c61b28c695b79dcfbdd5a77798c64c2f3b6b5c12d6f8cbc4",
            (True, False): "7b52b94ed02be622f08e3c58483c0fc30079890767b594a387d9b5ffb87ece14",
            (False, True): "832b3a184fcfe28c3e7b9463c84cf488c43821e8eb9bad8774b45fdb75698c86",
            (False, False): "36ae3eddc08694983011ea0bd05076e03b7ea574ea70ddba72c5fe42ac021e7c",
        },
    }

    @pytest.mark.parametrize("form", ["frames", "encoder"])
    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_nodes_are_pinned_for_each_toggle(self, form, spatial, temporal):
        rng = np.random.default_rng(61)
        b, t, n_p, d = 3, 5, 6, 8
        raw = rng.standard_normal((b, t, n_p, d))
        words = rng.standard_normal((7, d))
        video_weight = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        video_bias = 0.1 * rng.standard_normal(d)
        patch_weight, word_weight = (np.eye(d) + 0.2 * rng.standard_normal((d, d)) for _ in range(2))
        tape = Tape()
        if form == "frames":
            encoded = raw @ video_weight + video_bias
            inputs = dict(patches=tape.constant(encoded), frames=tape.constant(encoded.mean(axis=-2)))
        else:
            inputs = dict(patches=tape.constant(raw),
                          encoder=(tape.constant(video_weight), tape.constant(video_bias)))
        nodes = sti_pipeline_nodes(
            **inputs, words=tape.constant(words), patch_weight=tape.constant(patch_weight),
            word_weight=tape.constant(word_weight), tau_saliency=0.3,
            toggles=InteractionToggles(spatial, temporal),
        )
        assert nodes["feature"].shape == (b, d)
        digest = hashlib.sha256()
        for key, node in sorted(nodes.items()):
            if node is not None:
                assert key == "feature" or node.shape == (b, t), key
                digest.update(f"{key} {node.shape}".encode())
                digest.update(node.data.tobytes())
        assert digest.hexdigest() == self.PINNED_SHA256[form][(spatial, temporal)]


TOGGLES = [
    InteractionToggles(spatial, temporal) for spatial in (True, False) for temporal in (True, False)
]


class TestEncoderInsidePipeline:
    """The ``encoder=`` form, which folds the affine video encoder into the
    patch projection, against the ``frames=`` form fed by the encoder as its
    own records (``encode_video_nodes``)."""

    @staticmethod
    def store(rng, d, identity=False):
        store = ParameterStore()
        if identity:
            store.register("video_weight", np.eye(d))
            store.register("video_bias", np.zeros(d))
        else:
            store.register("video_weight", np.eye(d) + 0.2 * rng.standard_normal((d, d)))
            store.register("video_bias", 0.1 * rng.standard_normal(d))
        for name in ("patch_weight", "word_weight"):
            store.register(name, np.eye(d) + 0.2 * rng.standard_normal((d, d)))
        return store

    @staticmethod
    def run(tape, form, raw, words, params, toggles):
        video_weight, video_bias = params["video_weight"], params["video_bias"]
        if form == "encoder":
            inputs = dict(patches=tape.constant(raw), encoder=(video_weight, video_bias))
        else:
            patches, frames = encode_video_nodes(tape.constant(raw), video_weight, video_bias)
            inputs = dict(patches=patches, frames=frames)
        return sti_pipeline_nodes(
            **inputs, words=tape.constant(words), patch_weight=params["patch_weight"],
            word_weight=params["word_weight"], tau_saliency=0.3, toggles=toggles,
            segments=[0, 2, 7],
        )

    def forms(self, seed, toggles, identity=False):
        """Each form's nodes on a (3, 4, 5, 6) raw batch, from constants."""
        rng = np.random.default_rng(seed)
        raw, words = rng.standard_normal((3, 4, 5, 6)), rng.standard_normal((7, 6))
        store = self.store(rng, 6, identity)
        nodes = {}
        for form in ("encoder", "frames"):
            tape = Tape()
            params = {name: tape.constant(store.value(name)) for name in store.names()}
            nodes[form] = self.run(tape, form, raw, words, params, toggles)
        assert nodes["encoder"].keys() == nodes["frames"].keys()
        return [(key, node, nodes["frames"][key]) for key, node in nodes["encoder"].items()]

    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_identity_encoder_matches_the_frames_form_bitwise(self, toggles):
        # x @ I = x and b @ W_p = 0: the fold is exact, so untrained bits hold
        for key, got, want in self.forms(40, toggles, identity=True):
            assert (got is None) == (want is None), key
            assert got is None or np.array_equal(got.data, want.data), key

    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_random_encoder_matches_the_frames_form_closely(self, toggles):
        for key, got, want in self.forms(41, toggles):
            assert (got is None) == (want is None), key
            assert got is None or np.allclose(got.data, want.data, rtol=1e-12, atol=0.0), key

    @pytest.mark.parametrize("toggles", TOGGLES)
    def test_gradients_match_the_frames_form_and_finite_differences(self, toggles):
        rng = np.random.default_rng(42)
        raw, words = rng.standard_normal((3, 4, 5, 6)), rng.standard_normal((7, 6))
        store = self.store(rng, 6)
        upstream = {
            "feature": rng.standard_normal((3, 2 if toggles.temporal else 1, 6)),
            "spatial_scores": rng.standard_normal((3, 4, 2)),
            "saliency": rng.standard_normal((3, 4, 2)),
        }

        def loss_fn(params, form="encoder"):
            tape = Tape()
            nodes = self.run(tape, form, raw, words, params.leaves(tape), toggles)
            terms = [
                ad.sum_reduce(ad.mul(node, tape.constant(upstream[key])))
                for key, node in sorted(nodes.items()) if node is not None
            ]
            loss = terms[0]
            for term in terms[1:]:
                loss = ad.add(loss, term)
            return loss

        grads, want = (
            ad.parameter_gradients(loss_fn(store, form), store) for form in ("encoder", "frames")
        )
        for name in store.names():
            assert np.allclose(grads[name], want[name], rtol=1e-10, atol=1e-12), name
        assert finite_difference_check(loss_fn, store, eps=1e-6, coords_per_param=12) < 1e-6

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
