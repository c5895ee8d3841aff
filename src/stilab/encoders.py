"""Deterministic desk-scale stand-ins for the CLIP text and video encoders.

The text side is a frozen hash-embedding table: every token deterministically
maps to a unit vector derived from (token, table seed), so identical tokens
always share an embedding and nothing on the text side can drift during
training. The video side is a single trainable affine map applied per patch,
the smallest parameterization the contrastive objective can actually move.
Training, evaluation and saliency export all run that map chunk by chunk
inside the fused MaxSim (``ad.encoded_maxsim``). ``encode_video_nodes`` is
the same map as separate tape records, and ``encode_video`` applies it to
one video; no pipeline calls either. They are kept for their tests, for
acceptance criterion 3, and as targets of the per-layer tracer
(``perfbench/tracing.py``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, TapeTensor

Array = np.ndarray

_TOKEN_RE = re.compile(r"[0-9a-z]+")
_VECTOR_CACHE: dict[tuple[int, int, str], Array] = {}


def tokenize(sentence: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; digits count as word chars."""
    return _TOKEN_RE.findall(sentence.lower())


def token_vector(token: str, table_seed: int, dim: int) -> Array:
    """The frozen unit embedding for a token under a given table seed.

    The generator is seeded from a keyed hash of (seed, token), so the value
    is stable across processes and platforms. Returned arrays are cached and
    read-only.
    """
    key = (table_seed, dim, token)
    cached = _VECTOR_CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(
        f"{table_seed}\x1f{token}".encode("utf-8"), digest_size=16
    ).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
    vec = rng.standard_normal(dim)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError(f"degenerate zero embedding for token {token!r}")
    vec = vec / norm
    vec.flags.writeable = False
    _VECTOR_CACHE[key] = vec
    return vec


@dataclass(frozen=True)
class TextEmbeddingSequence:
    """Sentence-level class embedding plus per-token word embeddings."""

    class_embedding: Array  # (D,)
    word_embeddings: Array  # (N_w, D)
    token_texts: tuple[str, ...]

    def __post_init__(self):
        if self.word_embeddings.ndim != 2 or self.word_embeddings.shape[0] < 1:
            raise ValueError("word_embeddings must be a non-empty (N_w, D) matrix")
        if self.class_embedding.shape != (self.word_embeddings.shape[1],):
            raise ValueError("class_embedding dimension does not match word embeddings")
        if len(self.token_texts) != self.word_embeddings.shape[0]:
            raise ValueError("token_texts length does not match word embeddings")
        if not (np.isfinite(self.class_embedding).all() and np.isfinite(self.word_embeddings).all()):
            raise ValueError("text embeddings must be finite")

    @property
    def num_words(self) -> int:
        return self.word_embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.word_embeddings.shape[1]


@dataclass(frozen=True)
class FrameEmbeddingSet:
    """Per-frame class-token embedding plus patch embeddings for T frames."""

    frame_class_embeddings: Array  # (T, D)
    patch_embeddings: Array  # (T, N_p, D)

    def __post_init__(self):
        if self.patch_embeddings.ndim != 3:
            raise ValueError("patch_embeddings must be a (T, N_p, D) tensor")
        t, n_p, d = self.patch_embeddings.shape
        if t < 1 or n_p < 1:
            raise ValueError("need at least one frame and one patch")
        if self.frame_class_embeddings.shape != (t, d):
            raise ValueError("frame_class_embeddings must be (T, D) matching patches")
        if not (
            np.isfinite(self.frame_class_embeddings).all()
            and np.isfinite(self.patch_embeddings).all()
        ):
            raise ValueError("frame embeddings must be finite")

    @property
    def num_frames(self) -> int:
        return self.patch_embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.patch_embeddings.shape[2]

    @classmethod
    def from_raw(cls, features) -> "FrameEmbeddingSet":
        """Wrap raw per-patch features; frame vectors are the patch means."""
        feats = np.asarray(features, dtype=np.float64)
        return cls(frame_class_embeddings=feats.mean(axis=1), patch_embeddings=feats)


@dataclass
class EncoderParams:
    """Frozen text table seed plus the trainable per-patch affine video map."""

    text_table_seed: int
    dim: int
    video_weight: Array  # (D, D)
    video_bias: Array  # (D,)

    def __post_init__(self):
        self.video_weight = np.asarray(self.video_weight, dtype=np.float64)
        self.video_bias = np.asarray(self.video_bias, dtype=np.float64)
        if self.video_weight.shape != (self.dim, self.dim):
            raise ValueError("video_weight must be (D, D)")
        if self.video_bias.shape != (self.dim,):
            raise ValueError("video_bias must be (D,)")
        if not (np.isfinite(self.video_weight).all() and np.isfinite(self.video_bias).all()):
            raise ValueError("video encoder parameters must be finite")

    @classmethod
    def pretrained(cls, text_table_seed: int, dim: int) -> "EncoderParams":
        """Identity video map: the toy analogue of loading aligned pretrained weights."""
        return cls(text_table_seed, dim, np.eye(dim), np.zeros(dim))

    @classmethod
    def random(cls, text_table_seed: int, dim: int, seed: int) -> "EncoderParams":
        """Unaligned random video map, for chance-floor baselines."""
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        return cls(text_table_seed, dim, weight, np.zeros(dim))


def encode_text(tokens: list[str] | tuple[str, ...], params: EncoderParams) -> TextEmbeddingSequence:
    """Embed a token sequence: one frozen unit vector per token, and the
    unit-normalized token mean as the sentence-level class embedding."""
    if not tokens:
        raise ValueError("cannot encode an empty token sequence")
    rows = np.stack([token_vector(t, params.text_table_seed, params.dim) for t in tokens])
    mean = rows.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise ValueError("token vectors cancelled to a zero sentence embedding")
    return TextEmbeddingSequence(
        class_embedding=mean / norm,
        word_embeddings=rows,
        token_texts=tuple(tokens),
    )


def encode_sentence(sentence: str, params: EncoderParams) -> TextEmbeddingSequence:
    return encode_text(tokenize(sentence), params)


def encode_video_nodes(
    raw: TapeTensor, weight: TapeTensor, bias: TapeTensor
) -> tuple[TapeTensor, TapeTensor]:
    """Differentiable video encoding on a tape.

    raw is (..., T, N_p, D); returns (patch embeddings, per-frame embeddings)
    where each patch goes through the affine map and the frame embedding is
    the mean of its encoded patches.
    """
    patches = ad.add(ad.matmul(raw, weight), bias)
    frames = ad.mean_reduce(patches, axis=-2)
    return patches, frames


def encode_video(raw_frames, params: EncoderParams) -> FrameEmbeddingSet:
    """Encode a (T, N_p, D) tensor of raw per-patch features.

    Only its tests and the per-layer tracer's target list name this: the
    pipeline encodes inside the fused MaxSim instead.
    """
    raw = np.asarray(raw_frames, dtype=np.float64)
    if raw.ndim != 3:
        raise ValueError("raw_frames must be a (T, N_p, D) tensor")
    if raw.shape[-1] != params.dim:
        raise ValueError(
            f"raw feature dimension {raw.shape[-1]} does not match encoder dim {params.dim}"
        )
    tape = Tape()
    patches, frames = encode_video_nodes(
        tape.constant(raw), tape.constant(params.video_weight), tape.constant(params.video_bias)
    )
    return FrameEmbeddingSet(frame_class_embeddings=frames.data, patch_embeddings=patches.data)


def text_fingerprint(sequences) -> str:
    """Content hash over text embeddings; used to assert the frozen text side."""
    digest = hashlib.sha256()
    for seq in sequences:
        digest.update("\x1f".join(seq.token_texts).encode("utf-8"))
        digest.update(seq.class_embedding.tobytes())
        digest.update(seq.word_embeddings.tobytes())
    return digest.hexdigest()
