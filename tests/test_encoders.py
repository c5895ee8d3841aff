import numpy as np
import pytest

from stilab import autodiff as ad
from stilab.autodiff import Tape
from stilab.encoders import (
    EncoderParams,
    FrameEmbeddingSet,
    TextEmbeddingSequence,
    encode_text,
    encode_video,
    encode_video_nodes,
    text_fingerprint,
    token_vector,
    tokenize,
)


class TestTokenize:
    def test_template_sentence(self):
        assert tokenize("This is a video about salsa spin.") == [
            "this", "is", "a", "video", "about", "salsa", "spin",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_two_tokens(self):
        assert tokenize("tennis swing") == ["tennis", "swing"]

    def test_punctuation_and_case(self):
        assert tokenize("Dance, dance; DANCE!") == ["dance", "dance", "dance"]


class TestTokenVectors:
    def test_deterministic_and_unit_norm(self):
        a = token_vector("swing", 7, 32)
        b = token_vector("swing", 7, 32)
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_seed_and_token_sensitivity(self):
        assert not np.array_equal(token_vector("swing", 7, 32), token_vector("swing", 8, 32))
        assert not np.array_equal(token_vector("swing", 7, 32), token_vector("spin", 7, 32))

    def test_cached_vectors_are_read_only(self):
        vec = token_vector("swing", 7, 32)
        with pytest.raises(ValueError):
            vec[0] = 0.0


class TestEncodeText:
    PARAMS = EncoderParams.pretrained(text_table_seed=3, dim=16)

    def test_bitwise_deterministic(self):
        a = encode_text(["swing"], self.PARAMS)
        b = encode_text(["swing"], self.PARAMS)
        assert np.array_equal(a.class_embedding, b.class_embedding)
        assert np.array_equal(a.word_embeddings, b.word_embeddings)

    def test_single_token_class_embedding_is_the_word_embedding(self):
        seq = encode_text(["a"], self.PARAMS)
        assert np.allclose(seq.class_embedding, seq.word_embeddings[0], rtol=0, atol=1e-12)

    def test_rows_are_unit_norm(self):
        seq = encode_text(["a", "b"], self.PARAMS)
        assert seq.num_words == 2
        norms = np.linalg.norm(seq.word_embeddings, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            encode_text([], self.PARAMS)

    def test_sequence_invariants_enforced(self):
        with pytest.raises(ValueError):
            TextEmbeddingSequence(
                class_embedding=np.zeros(4),
                word_embeddings=np.zeros((0, 4)),
                token_texts=(),
            )


class TestEncodeVideo:
    def test_identity_map_passes_patches_through(self):
        rng = np.random.default_rng(0)
        raw = np.abs(rng.standard_normal((3, 4, 8)))
        params = EncoderParams.pretrained(0, 8)
        out = encode_video(raw, params)
        assert np.array_equal(out.patch_embeddings, raw)
        assert np.allclose(out.frame_class_embeddings, raw.mean(axis=1), atol=0)

    def test_zero_input_zero_bias_gives_zero(self):
        params = EncoderParams(0, 8, np.eye(8), np.zeros(8))
        out = encode_video(np.zeros((2, 3, 8)), params)
        assert np.all(out.patch_embeddings == 0.0)
        assert np.all(out.frame_class_embeddings == 0.0)

    def test_linearity_in_input_with_zero_bias(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((2, 3, 8))
        params = EncoderParams(0, 8, rng.standard_normal((8, 8)), np.zeros(8))
        one = encode_video(raw, params)
        two = encode_video(2.0 * raw, params)
        assert np.array_equal(two.patch_embeddings, 2.0 * one.patch_embeddings)

    def test_dimension_mismatch_rejected(self):
        params = EncoderParams.pretrained(0, 8)
        with pytest.raises(ValueError):
            encode_video(np.zeros((2, 3, 9)), params)

    def test_gradient_matches_central_differences(self):
        # independent oracle: perturb each sampled weight coordinate and
        # re-run the plain forward pass
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((2, 3, 5))
        weight = rng.standard_normal((5, 5))
        bias = rng.standard_normal(5)

        tape = Tape()
        w_leaf = tape.leaf(weight, name="w")
        b_leaf = tape.leaf(bias, name="b")
        patches, frames = encode_video_nodes(tape.constant(raw), w_leaf, b_leaf)
        loss = ad.add(ad.sum_reduce(patches), ad.sum_reduce(frames))
        grads = tape.backward(loss)

        eps = 1e-6
        def forward(w, b):
            params = EncoderParams(0, 5, w, b)
            out = encode_video(raw, params)
            return float(out.patch_embeddings.sum() + out.frame_class_embeddings.sum())

        worst = 0.0
        for flat_index in rng.choice(weight.size, size=6, replace=False):
            w_plus, w_minus = weight.copy(), weight.copy()
            w_plus.flat[flat_index] += eps
            w_minus.flat[flat_index] -= eps
            numeric = (forward(w_plus, bias) - forward(w_minus, bias)) / (2 * eps)
            analytic = grads[w_leaf.tid].flat[flat_index]
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
        assert worst < 1e-5


class TestFrameEmbeddingSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameEmbeddingSet(np.zeros((2, 4)), np.zeros((2, 0, 4)))
        with pytest.raises(ValueError):
            FrameEmbeddingSet(np.zeros((3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            FrameEmbeddingSet(np.full((2, 4), np.nan), np.zeros((2, 3, 4)))

    def test_from_raw_uses_patch_means(self):
        raw = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = FrameEmbeddingSet.from_raw(raw)
        assert np.array_equal(out.frame_class_embeddings, raw.mean(axis=1))


class TestTextFingerprint:
    def test_sensitive_to_values_and_stable(self):
        params = EncoderParams.pretrained(5, 8)
        seqs = [encode_text(["a", "b"], params), encode_text(["c"], params)]
        assert text_fingerprint(seqs) == text_fingerprint(seqs)
        other = [encode_text(["a", "b"], params), encode_text(["d"], params)]
        assert text_fingerprint(seqs) != text_fingerprint(other)
