"""Synthetic embedding-space corpus for zero-shot experiments.

Each corpus draws a small vocabulary of concept words with latent unit
vectors, assembles classes from 2-4 concepts plus a textual description that
mentions those concepts, and renders videos whose patches carry concept
vectors with additive noise. Unseen classes reuse the seen classes' concept
vocabulary, so text attributes are the bridge that makes zero-shot transfer
possible. Concept latents come from the same token hash table the text
encoder uses (keyed by the corpus seed), which plays the role of the
pretrained joint embedding space.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import embed_io
from ._fileio import Fingerprint, atomic_open, json_value_fits
from .attributes import ClassDescription, parse_description_corpus
from .embed_io import EmbeddingFile, save_embeddings
from .encoders import token_vector

Array = np.ndarray
# a re-export: perfbench/tracing.py wraps it under this name
load_embeddings = embed_io.load_embeddings

CONCEPT_VOCABULARY = (
    "ball", "rope", "water", "board", "horse", "drum", "kick", "spin",
    "jump", "throw", "glide", "climb", "swing", "punch", "dive", "brush",
    "knife", "wheel", "sand", "snow", "grass", "net", "bow", "arrow",
    "racket", "glove", "pedal", "oar", "cliff", "wave", "ice", "bar",
    "mat", "track", "ring", "puck", "club", "dough", "paint", "ladder",
)

FILLER_VOCABULARY = (
    "scene", "person", "motion", "style", "routine", "outdoor", "indoor",
    "speed", "skill", "group", "solo", "practice", "contest", "rhythm",
    "balance", "focus",
)

_FILLERS_PER_CLASS = 4
DESCRIPTION_SOURCE_TAG = "synthetic-v1"


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    """Knobs for corpus generation; the seed fully determines the output.
    ``stilab synth`` has one flag per field but ``seed``, with its default."""

    num_concepts: int = 12
    seen_classes: int = 8
    unseen_classes: int = 4
    videos_per_class: int = 20
    frames: int = 8  # T
    patches_per_frame: int = 16  # N_p
    dim: int = 32  # D
    noise_scale: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        counts = {
            "num_concepts": self.num_concepts,
            "seen_classes": self.seen_classes,
            "videos_per_class": self.videos_per_class,
            "frames": self.frames,
            "patches_per_frame": self.patches_per_frame,
            "dim": self.dim,
        }
        for name, value in counts.items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.unseen_classes < 0:
            raise ValueError("unseen_classes must be >= 0")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale!r}")
        if self.num_concepts > len(CONCEPT_VOCABULARY):
            raise ValueError(
                f"num_concepts must be <= {len(CONCEPT_VOCABULARY)} (vocabulary size)"
            )
        if self.num_concepts < 2:
            raise ValueError("need at least 2 concepts to build distinct classes")


@dataclass(frozen=True)
class CorpusClass:
    index: int
    name: str
    concept_indices: tuple[int, ...]
    filler_words: tuple[str, ...]
    description: ClassDescription
    seen: bool


@dataclass(frozen=True)
class VideoSample:
    video_id: str
    class_index: int
    features: Array  # (T, N_p, D) raw per-patch features
    patch_concepts: Array  # (T, N_p) concept index carried by each patch


@dataclass
class SyntheticCorpus:
    spec: SyntheticCorpusSpec
    concept_words: tuple[str, ...]
    concept_vectors: Array  # (num_concepts, D)
    classes: list[CorpusClass]
    videos: list[VideoSample]
    fingerprint: str | None = None  # of the directory it was loaded from

    @property
    def seen_class_indices(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.classes if c.seen)

    @property
    def unseen_class_indices(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.classes if not c.seen)


def _build_description(concepts: tuple[str, ...], fillers: tuple[str, ...]) -> str:
    # Scaffolding words are all stopwords, so the content words are exactly
    # the concepts (twice each, ranked first) followed by the fillers (once).
    first = "The " + " and the ".join(concepts) + " again."
    second = "A " + " with a ".join(concepts) + ","
    third = "and " + " or ".join(fillers) + "."
    return f"{first} {second} {third}"


def _draw_concept_sets(
    rng: np.random.Generator,
    count: int,
    pool: list[int],
    existing: list[frozenset[int]],
    group_overlap_limit: int,
) -> list[tuple[int, ...]]:
    """Sample concept combinations that stay distinguishable.

    Rules: no set may duplicate or be a subset/superset of any earlier set,
    and sets within this group may share at most ``group_overlap_limit``
    concepts. Constraints relax progressively if sampling stalls.
    """
    group: list[frozenset[int]] = []
    picked: list[tuple[int, ...]] = []
    for _ in range(count):
        attempts = 0
        while True:
            attempts += 1
            size = int(rng.integers(2, 5))
            size = min(size, len(pool))
            candidate = frozenset(int(i) for i in rng.choice(pool, size=size, replace=False))
            relax_overlap = attempts > 2000
            relax_subset = attempts > 6000
            ok = candidate not in existing and candidate not in group
            if ok and not relax_subset:
                for other in list(existing) + group:
                    if candidate <= other or other <= candidate:
                        ok = False
                        break
            if ok and not relax_overlap:
                for other in group:
                    if len(candidate & other) > group_overlap_limit:
                        ok = False
                        break
            if ok:
                group.append(candidate)
                picked.append(tuple(sorted(candidate)))
                break
            if attempts > 10000:
                raise ValueError(
                    "could not draw distinguishable concept sets; "
                    "increase num_concepts or reduce class counts"
                )
    return picked


def generate_synthetic_corpus(spec: SyntheticCorpusSpec) -> SyntheticCorpus:
    """Generate a corpus fully determined by ``spec.seed``."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    word_order = rng.permutation(len(CONCEPT_VOCABULARY))[: spec.num_concepts]
    concept_words = tuple(CONCEPT_VOCABULARY[int(i)] for i in word_order)
    concept_vectors = np.stack(
        [token_vector(word, spec.seed, spec.dim) for word in concept_words]
    )

    all_concepts = list(range(spec.num_concepts))
    seen_sets = _draw_concept_sets(rng, spec.seen_classes, all_concepts, [], 1)
    seen_union = sorted({i for s in seen_sets for i in s})
    unseen_sets = _draw_concept_sets(
        rng, spec.unseen_classes, seen_union, [frozenset(s) for s in seen_sets], 1
    )

    classes: list[CorpusClass] = []
    for index, concept_set in enumerate(seen_sets + unseen_sets):
        name = f"activity{index:02d}"
        fillers = tuple(
            str(w) for w in rng.choice(FILLER_VOCABULARY, size=_FILLERS_PER_CLASS, replace=False)
        )
        concepts = tuple(concept_words[i] for i in concept_set)
        description = ClassDescription(
            class_name=name,
            description=_build_description(concepts, fillers),
            source_tag=DESCRIPTION_SOURCE_TAG,
        )
        classes.append(
            CorpusClass(
                index=index,
                name=name,
                concept_indices=concept_set,
                filler_words=fillers,
                description=description,
                seen=index < spec.seen_classes,
            )
        )

    t, n_p, d = spec.frames, spec.patches_per_frame, spec.dim
    # Most patches in a frame carry the video's own concepts; the rest are
    # off-class distractor concepts. The foreground share varies per frame so
    # temporal saliency has a real signal to latch onto.
    fg_low = max(1, (n_p + 3) // 4)
    fg_high = max(fg_low, n_p - 1)
    # every video's features are rows of one block, which is returned to the
    # system whole when the corpus is dropped, so one video's temporaries
    # reuse the same heap space instead of fragmenting it
    block = np.empty((len(classes) * spec.videos_per_class, t, n_p, d))
    videos: list[VideoSample] = []
    for cls in classes:
        class_set = np.array(cls.concept_indices)
        background_pool = np.array(
            [i for i in all_concepts if i not in set(cls.concept_indices)]
        )
        if background_pool.size == 0:
            background_pool = class_set
        for v in range(spec.videos_per_class):
            patch_concepts = np.empty((t, n_p), dtype=np.int64)
            for frame in range(t):
                patch_concepts[frame] = background_pool[
                    rng.integers(0, background_pool.size, size=n_p)
                ]
                n_fg = int(rng.integers(fg_low, fg_high + 1))
                slots = rng.choice(n_p, size=n_fg, replace=False)
                patch_concepts[frame, slots] = class_set[
                    rng.integers(0, class_set.size, size=n_fg)
                ]
            features = np.take(concept_vectors, patch_concepts, axis=0, out=block[len(videos)])
            if spec.noise_scale > 0:
                features += rng.standard_normal((t, n_p, d)) * spec.noise_scale
            videos.append(
                VideoSample(
                    video_id=f"vid{cls.index:02d}_{v:03d}",
                    class_index=cls.index,
                    features=features,
                    patch_concepts=patch_concepts,
                )
            )

    return SyntheticCorpus(
        spec=spec,
        concept_words=concept_words,
        concept_vectors=concept_vectors,
        classes=classes,
        videos=videos,
    )


DESCRIPTIONS_FILENAME = "descriptions.jsonl"
VIDEOS_FILENAME = "videos.bin"
METADATA_FILENAME = "corpus.json"
# Version 4 goes with the one-header videos.bin and lists each video's
# sha256, the digest of its value bytes. Version 3 listed the digest of a
# per-video record, header line included; version 2 listed none, and version
# 1 also wrote patch_concepts as nested lists of integers instead of one hex
# string. None of them is read.
CORPUS_FORMAT_VERSION = 4
_SHA256 = re.compile(r"[0-9a-f]{64}")  # the text hexdigest() gives


def save_corpus(corpus: SyntheticCorpus, out_dir) -> list[Path]:
    """Write a corpus directory: descriptions.jsonl, videos.bin, corpus.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    descriptions_path = out_dir / DESCRIPTIONS_FILENAME
    with atomic_open(descriptions_path, "w", encoding="utf-8") as fh:
        for cls in corpus.classes:
            fh.write(
                json.dumps(
                    {
                        "class_name": cls.description.class_name,
                        "description": cls.description.description,
                        "source_tag": cls.description.source_tag,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )

    videos_path = out_dir / VIDEOS_FILENAME
    spec = corpus.spec
    digests = save_embeddings(videos_path, [video.features for video in corpus.videos],
                              (spec.frames, spec.patches_per_frame, spec.dim))

    meta = {
        "format_version": CORPUS_FORMAT_VERSION,
        "spec": asdict(corpus.spec),
        "concept_words": list(corpus.concept_words),
        "classes": [
            {
                "index": cls.index,
                "name": cls.name,
                "concept_indices": list(cls.concept_indices),
                "filler_words": list(cls.filler_words),
                "seen": cls.seen,
            }
            for cls in corpus.classes
        ],
        "videos": [
            {
                "video_id": video.video_id,
                "class_index": video.class_index,
                # One byte per index is enough: validate() caps num_concepts
                # at the 40-word vocabulary.
                "patch_concepts": video.patch_concepts.astype(np.uint8).tobytes().hex(),
                "sha256": digest,
            }
            for video, digest in zip(corpus.videos, digests)
        ],
    }
    metadata_path = out_dir / METADATA_FILENAME
    with atomic_open(metadata_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    return [descriptions_path, videos_path, metadata_path]


def corpus_fingerprint(corpus_dir) -> str:
    """Content hash of a corpus directory: the ``Fingerprint`` of every
    regular file in it but videos.bin, which it reaches through the
    per-video sha256 that corpus.json lists. A corpus that ``load_corpus``
    read carries the same value, from the bytes it parsed."""
    return Fingerprint(_fingerprinted_files(corpus_dir)).hexdigest()


def _fingerprinted_files(corpus_dir) -> list[Path]:
    return [path for path in Path(corpus_dir).iterdir()
            if path.is_file() and path.name != VIDEOS_FILENAME]


@dataclass(frozen=True)
class CorpusListing:
    """A corpus directory as its corpus.json lists it, checked against its
    descriptions.jsonl, before any feature is read: ``corpus`` holds every
    class and the fingerprint but no videos, and the other fields hold each
    video's id, class index, listed sha256 and patch concepts, in file
    order. ``features`` is the one reader of videos.bin."""

    directory: Path
    corpus: SyntheticCorpus
    video_ids: tuple[str, ...]
    labels: tuple[int, ...]
    digests: tuple[str, ...]
    patch_concepts: Array  # (videos, T, N_p) uint8

    @property
    def video_shape(self) -> tuple[int, int, int]:
        spec = self.corpus.spec
        return spec.frames, spec.patches_per_frame, spec.dim

    def positions(self, keep=None) -> list[int]:
        """The file positions of the videos ``keep(video_id, cls)`` returns
        true for, or of every video when ``keep`` is None."""
        classes = self.corpus.classes
        pairs = enumerate(zip(self.video_ids, self.labels))
        return [position for position, (video_id, label) in pairs
                if keep is None or keep(video_id, classes[label])]

    def features(self, positions, chunk_videos: int) -> Iterator[Array]:
        """The features of the videos at ``positions``, which must rise
        strictly within the listed videos: (n, T, N_p, D) chunks of at most
        ``chunk_videos`` videos, in order, each a view of one
        (chunk_videos, T, N_p, D) float64 array allocated here, which every
        chunk overwrites in turn. Other positions or a ``chunk_videos``
        below 1 raise ValueError before any file is opened. This is the one
        reader of videos.bin.

        The file's magic, header and size are checked first, so a malformed
        videos.bin raises its reader's own typed errors, and a video count
        or shape other than corpus.json's raises a ValueError naming
        corpus.json, before any value is read. Then only the kept videos'
        values are read, each straight from its offset, and each must hash
        to the sha256 that corpus.json lists for it before its chunk is
        yielded; a changed byte in a video not kept goes unseen. A kept
        video whose bytes do not match raises a ValueError naming
        corpus.json, and no chunk follows it.
        """
        if chunk_videos < 1:
            raise ValueError(f"chunk_videos must be >= 1, got {chunk_videos}")
        positions = list(positions)
        bounded = [-1, *positions, len(self.video_ids)]
        if any(a >= b for a, b in zip(bounded, bounded[1:])):
            raise ValueError(f"positions must rise strictly within [0, {len(self.video_ids)}), "
                             f"got {positions!r:.80}")
        buffer = np.empty((chunk_videos, *self.video_shape))
        with EmbeddingFile(self.directory / VIDEOS_FILENAME) as videos:
            listed = (len(self.video_ids), self.video_shape)
            if (videos.count, videos.shape) != listed:
                raise ValueError(f"{self.directory / METADATA_FILENAME}: lists {listed[0]} videos "
                                 f"of shape {listed[1]}, {VIDEOS_FILENAME} holds {videos.count} "
                                 f"of shape {videos.shape}")
            for start in range(0, len(positions), chunk_videos):
                chunk = positions[start:start + chunk_videos]
                for row, position in enumerate(chunk):
                    digest = videos.read(position, buffer[row])
                    if digest != self.digests[position]:
                        raise ValueError(
                            f"{self.directory / METADATA_FILENAME}: video "
                            f"{self.video_ids[position]!r}: its {VIDEOS_FILENAME} values have "
                            f"sha256 {digest}, corpus.json lists {self.digests[position]}")
                yield buffer[:len(chunk)]


def read_listing(corpus_dir) -> CorpusListing:
    """Parse corpus.json and descriptions.jsonl, reading each once, and
    carry the corpus fingerprint, ``corpus_fingerprint(corpus_dir)``,
    computed from the bytes read here. Malformed metadata, including a
    missing or mistyped entry, a repeated class name or video id and one
    that disagrees with descriptions.jsonl, raises ValueError naming
    corpus.json; a malformed descriptions.jsonl raises its reader's own
    typed errors.
    Every video must have valid patch concepts and a well-formed sha256."""
    corpus_dir = Path(corpus_dir)
    try:
        return _parse_listing(corpus_dir, Fingerprint(_fingerprinted_files(corpus_dir)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        metadata_path = corpus_dir / METADATA_FILENAME
        raise ValueError(f"{metadata_path}: malformed corpus metadata: {exc!r}") from exc


def load_corpus(corpus_dir, keep=None) -> SyntheticCorpus:
    """Load a corpus directory written by save_corpus, reading each file once:
    ``read_listing``, then the kept videos' features, collected from
    ``CorpusListing.features`` and checked as it checks them.

    ``keep(video_id, cls)``, given each video's id and CorpusClass,
    selects the videos whose features are kept: those it returns true for
    (``lambda _, cls: cls.seen`` keeps the seen group), or all of them when
    ``keep`` is None. ``videos`` holds the kept videos, in file order, each
    with its own int64 copy of its patch concepts; their features are rows
    of one block.
    """
    listing = read_listing(corpus_dir)
    kept = listing.positions(keep)
    features = [video for chunk in listing.features(kept, max(1, len(kept))) for video in chunk]
    videos = [
        VideoSample(
            video_id=listing.video_ids[position],
            class_index=listing.labels[position],
            features=video_features,
            patch_concepts=listing.patch_concepts[position].astype(np.int64),
        )
        for position, video_features in zip(kept, features, strict=True)
    ]
    return replace(listing.corpus, videos=videos)


def _typed(entry: dict, key: str, kind: type):
    """``entry[key]``, which must be a JSON value of type ``kind``."""
    value = entry[key]
    if not json_value_fits(value, kind):
        raise TypeError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _typed_tuple(entry: dict, key: str, kind: type) -> tuple:
    """``entry[key]``, which must be a list of JSON values of type ``kind``."""
    values = entry[key]
    if not (isinstance(values, list) and all(json_value_fits(v, kind) for v in values)):
        raise TypeError(f"{key!r} must be a list of {kind.__name__}, got {values!r}")
    return tuple(values)


def _patch_concepts(entries: list, shape: tuple[int, int], num_concepts: int) -> Array:
    """Every video's (T, N_p) concept indices as one (videos, T, N_p) uint8
    array, decoded and checked in one pass over all videos.

    Each entry is one string: the video's indices in row-major order, one
    byte each, as the lowercase hex that ``bytes.hex`` writes. Only that
    exact text is accepted, so every file that loads re-saves byte for byte.
    """
    texts = [entry["patch_concepts"] for entry in entries]
    width = 2 * shape[0] * shape[1]
    for position, text in enumerate(texts):
        if not (isinstance(text, str) and len(text) == width):
            raise ValueError(
                f"video {position}: 'patch_concepts' must be a string of {width} hex digits, "
                f"two per patch of a {shape[0]} x {shape[1]} video, got {text!r:.60}"
            )
    joined = "".join(texts)
    data = bytes.fromhex(joined)
    if data.hex() != joined:  # fromhex also takes uppercase digits and whitespace
        raise ValueError("'patch_concepts' must be lowercase hex digits only")
    values = np.frombuffer(data, dtype=np.uint8)
    if values.size and values.max() >= num_concepts:
        raise ValueError(f"patch_concepts must lie in [0, {num_concepts})")
    return values.reshape(len(texts), *shape)


def _parse_listing(corpus_dir: Path, files: Fingerprint) -> CorpusListing:
    # The fingerprinted files are read in name order, as the fingerprint hashes them.
    meta = json.loads(files.read_bytes(corpus_dir / METADATA_FILENAME).decode("utf-8"))
    if not isinstance(meta, dict):
        raise TypeError(f"expected a JSON object, got {type(meta).__name__}")
    if meta.get("format_version") != CORPUS_FORMAT_VERSION:
        raise ValueError(
            f"unsupported corpus format version {meta.get('format_version')!r}, expected "
            f"{CORPUS_FORMAT_VERSION}; re-run `stilab synth` with the same settings to rewrite "
            "the corpus (videos.bin and descriptions.jsonl come out byte for byte the same)"
        )
    spec_values = meta["spec"]
    if not isinstance(spec_values, dict):
        raise TypeError(f"'spec' must be an object, got {spec_values!r}")
    for setting in fields(SyntheticCorpusSpec):
        if setting.name in spec_values:
            _typed(spec_values, setting.name, type(setting.default))
    spec = SyntheticCorpusSpec(**spec_values)
    spec.validate()

    concept_words = _typed_tuple(meta, "concept_words", str)
    if len(concept_words) != spec.num_concepts:
        raise ValueError(f"{len(concept_words)} concept words for {spec.num_concepts} concepts")
    concept_vectors = np.stack(
        [token_vector(word, spec.seed, spec.dim) for word in concept_words]
    )

    descriptions_path = corpus_dir / DESCRIPTIONS_FILENAME
    descriptions = parse_description_corpus(files.read_bytes(descriptions_path), descriptions_path)

    classes = []
    for position, entry in enumerate(meta["classes"]):
        if _typed(entry, "index", int) != position:
            raise ValueError(f"class {position} has index {entry['index']}")
        concept_indices = _typed_tuple(entry, "concept_indices", int)
        if not all(0 <= i < spec.num_concepts for i in concept_indices):
            raise ValueError(f"class {position} has concept_indices {concept_indices}, "
                             f"corpus has {spec.num_concepts} concepts")
        classes.append(
            CorpusClass(
                index=position,
                name=_typed(entry, "name", str),
                concept_indices=concept_indices,
                filler_words=_typed_tuple(entry, "filler_words", str),
                description=descriptions[entry["name"]],
                seen=_typed(entry, "seen", bool),
            )
        )
    repeated = [name for name, n in Counter(cls.name for cls in classes).items() if n > 1]
    if repeated:
        raise ValueError(f"class name {repeated[0]!r} is listed more than once")

    entries = meta["videos"]
    video_ids = [_typed(entry, "video_id", str) for entry in entries]
    repeated = [video_id for video_id, n in Counter(video_ids).items() if n > 1]
    if repeated:
        raise ValueError(f"video id {repeated[0]!r} is listed more than once")
    labels = [_typed(entry, "class_index", int) for entry in entries]
    listed = [_typed(entry, "sha256", str) for entry in entries]
    for video_id, digest in zip(video_ids, listed):
        if not _SHA256.fullmatch(digest):
            raise ValueError(f"video {video_id!r}: 'sha256' must be 64 lowercase hex digits, "
                             f"got {digest!r:.80}")
    for video_id, class_index in zip(video_ids, labels):
        if not 0 <= class_index < len(classes):
            raise ValueError(
                f"video {video_id!r} has class_index {class_index}, "
                f"corpus has {len(classes)} classes"
            )
    return CorpusListing(
        directory=corpus_dir,
        corpus=SyntheticCorpus(
            spec=spec,
            concept_words=concept_words,
            concept_vectors=concept_vectors,
            classes=classes,
            videos=[],
            fingerprint=files.hexdigest(),
        ),
        video_ids=tuple(video_ids),
        labels=tuple(labels),
        digests=tuple(listed),
        patch_concepts=_patch_concepts(
            entries, (spec.frames, spec.patches_per_frame), spec.num_concepts
        ),
    )
