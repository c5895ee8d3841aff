import hashlib
import json
import math
import os
import threading
import time
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stilab.attributes import CorpusFormatError, build_attribute_set, load_stopwords
from stilab.corpus import (
    CORPUS_FORMAT_VERSION,
    SyntheticCorpusSpec,
    corpus_fingerprint,
    generate_synthetic_corpus,
    load_corpus,
    read_listing,
    save_corpus,
)
from stilab.embed_io import (
    MAGIC, EmbeddingIOError, HeaderFormatError, load_embeddings, save_embeddings,
)
from stilab.encoders import tokenize
from stilab.trainer import TrainConfig, save_checkpoint
from stilab.workflow import train_on_corpus


def without(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


def mutated(change):
    """An edit that changes the metadata in place and returns it."""
    return lambda meta: (change(meta), meta)[1]


def edit_patch_concepts(change):
    """An edit of the first video's ``patch_concepts`` text."""
    return mutated(lambda meta: meta["videos"][0].update(
        patch_concepts=change(meta["videos"][0]["patch_concepts"])))


SMALL = SyntheticCorpusSpec(
    num_concepts=8,
    seen_classes=4,
    unseen_classes=2,
    videos_per_class=3,
    frames=4,
    patches_per_frame=6,
    dim=16,
    noise_scale=0.1,
    seed=5,
)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = generate_synthetic_corpus(SMALL)
        b = generate_synthetic_corpus(SMALL)
        assert a.concept_words == b.concept_words
        assert [c.concept_indices for c in a.classes] == [c.concept_indices for c in b.classes]
        for va, vb in zip(a.videos, b.videos):
            assert va.video_id == vb.video_id
            assert np.array_equal(va.features, vb.features)
            assert np.array_equal(va.patch_concepts, vb.patch_concepts)

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(SMALL)
        b = generate_synthetic_corpus(SyntheticCorpusSpec(**{**SMALL.__dict__, "seed": 6}))
        assert not np.array_equal(a.videos[0].features, b.videos[0].features)

    # sha256 of videos.bin as written before the generator put every video's
    # features into rows of one block
    PINNED_VIDEOS_BIN_SHA256 = {
        0.1: "4661facf461fea28ac2f6fd213143a60d0fcfe0f3cae78c5b477cffdaa2ecbe4",
        0.0: "18509bf700e3332bd0bb405a2011bd95d5659e06ba50515a87ea35ce39714215",
    }

    @pytest.mark.parametrize("noise_scale", [0.1, 0.0])
    def test_videos_bin_bytes_are_pinned(self, tmp_path, noise_scale):
        spec = SyntheticCorpusSpec(**{**SMALL.__dict__, "noise_scale": noise_scale})
        raw = corpus_bytes(spec, tmp_path)["videos.bin"]
        assert hashlib.sha256(raw).hexdigest() == self.PINNED_VIDEOS_BIN_SHA256[noise_scale]


class TestStructure:
    def test_zero_noise_patches_equal_concept_latents(self):
        spec = SyntheticCorpusSpec(**{**SMALL.__dict__, "noise_scale": 0.0})
        corpus = generate_synthetic_corpus(spec)
        for video in corpus.videos:
            expected = corpus.concept_vectors[video.patch_concepts]
            assert np.array_equal(video.features, expected)

    def test_zero_noise_cosine_exactly_one(self):
        spec = SyntheticCorpusSpec(**{**SMALL.__dict__, "noise_scale": 0.0})
        corpus = generate_synthetic_corpus(spec)
        video = corpus.videos[0]
        for t in range(spec.frames):
            for k in range(spec.patches_per_frame):
                patch = video.features[t, k]
                latent = corpus.concept_vectors[video.patch_concepts[t, k]]
                cos = patch @ latent / (np.linalg.norm(patch) * np.linalg.norm(latent))
                assert abs(cos - 1.0) < 1e-12

    def test_no_unseen_split(self):
        spec = SyntheticCorpusSpec(**{**SMALL.__dict__, "unseen_classes": 0})
        corpus = generate_synthetic_corpus(spec)
        assert corpus.unseen_class_indices == ()
        assert len(corpus.seen_class_indices) == spec.seen_classes
        assert len(corpus.videos) == spec.seen_classes * spec.videos_per_class

    def test_every_frame_has_a_class_concept_patch(self):
        corpus = generate_synthetic_corpus(SMALL)
        for video in corpus.videos:
            own = set(corpus.classes[video.class_index].concept_indices)
            for frame in video.patch_concepts:
                assert own & set(int(i) for i in frame)

    def test_class_concept_sets_are_distinguishable(self):
        corpus = generate_synthetic_corpus(SMALL)
        sets = [frozenset(c.concept_indices) for c in corpus.classes]
        assert len(set(sets)) == len(sets)
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                assert not (a <= b or b <= a)

    def test_unseen_concepts_come_from_seen_vocabulary(self):
        corpus = generate_synthetic_corpus(SMALL)
        seen_union = set()
        for index in corpus.seen_class_indices:
            seen_union |= set(corpus.classes[index].concept_indices)
        for index in corpus.unseen_class_indices:
            assert set(corpus.classes[index].concept_indices) <= seen_union

    def test_descriptions_mention_all_concepts(self):
        corpus = generate_synthetic_corpus(SMALL)
        for cls in corpus.classes:
            tokens = set(tokenize(cls.description.description))
            for concept_index in cls.concept_indices:
                assert corpus.concept_words[concept_index] in tokens

    def test_description_content_words_rank_concepts_first(self):
        # the extraction mock should surface exactly the class concepts as
        # the top-ranked keywords, in first-occurrence order
        corpus = generate_synthetic_corpus(SMALL)
        for cls in corpus.classes:
            concepts = tuple(corpus.concept_words[i] for i in cls.concept_indices)
            selected = build_attribute_set(cls.description, len(concepts))
            assert selected.keywords == concepts

    def test_scaffold_words_are_stopwords(self):
        stops = load_stopwords()
        corpus = generate_synthetic_corpus(SMALL)
        for cls in corpus.classes:
            content = [t for t in tokenize(cls.description.description) if t not in stops]
            concepts = {corpus.concept_words[i] for i in cls.concept_indices}
            assert set(content) == concepts | set(cls.filler_words)


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(num_concepts=0).validate()
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(unseen_classes=-1).validate()
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(noise_scale=-0.5).validate()
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(num_concepts=999).validate()

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_rejects_non_finite_noise_scale(self, noise):
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            SyntheticCorpusSpec(noise_scale=noise).validate()

    def test_generate_validates(self):
        with pytest.raises(ValueError):
            generate_synthetic_corpus(SyntheticCorpusSpec(videos_per_class=0))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded.spec == corpus.spec
        assert loaded.concept_words == corpus.concept_words
        assert np.array_equal(loaded.concept_vectors, corpus.concept_vectors)
        assert [c.name for c in loaded.classes] == [c.name for c in corpus.classes]
        assert loaded.classes[0].description == corpus.classes[0].description
        for va, vb in zip(loaded.videos, corpus.videos):
            assert va.video_id == vb.video_id
            assert va.class_index == vb.class_index
            assert np.array_equal(va.features, vb.features)
            assert np.array_equal(va.patch_concepts, vb.patch_concepts)

    def test_rejects_unknown_version(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path / "corpus")
        meta_path = tmp_path / "corpus" / "corpus.json"
        meta_path.write_text(meta_path.read_text().replace(
            f'"format_version": {CORPUS_FORMAT_VERSION}', '"format_version": 9'))
        with pytest.raises(ValueError, match="format version"):
            load_corpus(tmp_path / "corpus")

    def test_rejects_videos_that_do_not_match_the_spec(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path / "corpus")
        features = [video.features for video in corpus.videos]
        features[1] = features[1][..., :8]  # dim 8 in a dim-16 corpus
        save_embeddings(tmp_path / "corpus" / "videos.bin", features)
        with pytest.raises(ValueError, match=corpus.videos[1].video_id):
            load_corpus(tmp_path / "corpus")

    def test_rejects_out_of_range_class_index(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path / "corpus")
        meta_path = tmp_path / "corpus" / "corpus.json"
        meta = json.loads(meta_path.read_text())
        meta["videos"][2]["class_index"] = len(corpus.classes)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=corpus.videos[2].video_id):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("edit", [
        lambda meta: {**meta, "spec": {**meta["spec"], "frames_per_second": 30}},
        lambda meta: {**meta, "spec": {**meta["spec"], "dim": "8"}},
        lambda meta: without(meta, "spec"),
        lambda meta: {**meta, "videos": [without(v, "class_index") for v in meta["videos"]]},
        lambda meta: {**meta, "classes": [{**c, "name": c["name"] + "x"} for c in meta["classes"]]},
        lambda meta: [meta],
        mutated(lambda meta: meta["videos"][0].update(class_index=0.5)),
        mutated(lambda meta: meta["videos"][0].update(class_index=True)),
        mutated(lambda meta: meta["videos"][0].update(video_id=7)),
        mutated(lambda meta: meta["classes"][0].update(index="zero")),
        mutated(lambda meta: meta["classes"][1].update(index=0)),
        mutated(lambda meta: meta["classes"][0].update(seen=1)),
        mutated(lambda meta: meta["classes"][0].update(concept_indices=[0, 99])),
        mutated(lambda meta: meta["classes"][0].update(filler_words="scene")),
        mutated(lambda meta: meta.update(concept_words=list(range(len(meta["concept_words"]))))),
        mutated(lambda meta: meta.update(concept_words=meta["concept_words"][:-1])),
        mutated(lambda meta: meta["spec"].update(dim=16.0)),
        mutated(lambda meta: meta["spec"].update(noise_scale="0.1")),
        mutated(lambda meta: meta["spec"].update(noise_scale=float("nan"))),
        mutated(lambda meta: meta["spec"].update(noise_scale=float("inf"))),
        mutated(lambda meta: meta["videos"][0].update(patch_concepts="x")),
        # SMALL has 8 concepts and 4 x 6 patches: 48 hex digits per video
        edit_patch_concepts(lambda text: 7),
        edit_patch_concepts(lambda text: text[:-2]),
        edit_patch_concepts(lambda text: text + "00"),
        edit_patch_concepts(lambda text: "0A" + text[2:]),
        edit_patch_concepts(lambda text: text[:2] + "  " + text[2:-2]),
        edit_patch_concepts(lambda text: "0g" + text[2:]),
        edit_patch_concepts(lambda text: "08" + text[2:]),
        edit_patch_concepts(lambda text: "ff" + text[2:]),
    ], ids=["unknown-spec-key", "string-dim", "missing-spec", "video-without-class-index",
            "class-without-description", "not-an-object", "float-class-index",
            "bool-class-index", "int-video-id", "string-index", "index-out-of-place",
            "int-seen", "concept-out-of-range", "string-fillers", "int-concept-words",
            "too-few-concept-words", "float-dim", "string-noise", "nan-noise", "infinite-noise",
            "string-patch-concepts",
            "int-patch-concepts", "one-patch-short", "one-patch-extra",
            "uppercase-patch-concepts", "whitespace-in-patch-concepts", "non-hex-patch-concepts",
            "patch-concept-out-of-range", "ff-patch-concept"])
    def test_malformed_metadata_is_a_value_error_naming_the_file(self, tmp_path, edit):
        save_corpus(generate_synthetic_corpus(SMALL), tmp_path / "corpus")
        meta_path = tmp_path / "corpus" / "corpus.json"
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        with pytest.raises(ValueError, match="corpus.json"):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("edit", [str.upper, lambda text: text[:2] + "  " + text[2:-2]],
                             ids=["uppercase", "whitespace"])
    def test_patch_concepts_must_be_the_written_hex(self, tmp_path, edit):
        # 16 concepts, so indices 10-15 are written with the digits a-f
        corpus = generate_synthetic_corpus(SyntheticCorpusSpec(**{**SMALL.__dict__,
                                                                  "num_concepts": 16}))
        save_corpus(corpus, tmp_path)
        meta_path = tmp_path / "corpus.json"
        meta = json.loads(meta_path.read_text())
        video = next(v for v in meta["videos"] if set(v["patch_concepts"]) & set("abcdef"))
        video["patch_concepts"] = edit(video["patch_concepts"])
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="corpus.json.*lowercase hex digits only"):
            load_corpus(tmp_path)

    def test_version_1_corpus_is_rejected_with_a_hint(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path)
        meta_path = tmp_path / "corpus.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        for entry, video in zip(meta["videos"], corpus.videos):
            entry["patch_concepts"] = video.patch_concepts.tolist()
        meta_path.write_text(json.dumps(meta, indent=1) + "\n")
        with pytest.raises(ValueError, match="corpus.json.*version 1.*stilab synth"):
            load_corpus(tmp_path)

    def test_version_2_corpus_is_rejected_with_a_hint(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        meta_path = tmp_path / "corpus.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 2
        for entry in meta["videos"]:
            del entry["sha256"]
        meta_path.write_text(json.dumps(meta, indent=1) + "\n")
        with pytest.raises(ValueError, match="corpus.json.*version 2.*stilab synth"):
            load_corpus(tmp_path)

    def test_top_concept_index_round_trips(self, tmp_path):
        corpus = generate_synthetic_corpus(SyntheticCorpusSpec(**{**SMALL.__dict__,
                                                                  "num_concepts": 40}))
        assert any((video.patch_concepts == 39).any() for video in corpus.videos)
        save_corpus(corpus, tmp_path)
        for got, want in zip(load_corpus(tmp_path).videos, corpus.videos, strict=True):
            assert got.patch_concepts.dtype == np.int64
            assert np.array_equal(got.patch_concepts, want.patch_concepts)

    def test_resaving_a_loaded_corpus_reproduces_its_bytes(self, tmp_path):
        written = corpus_bytes(SMALL, tmp_path / "first")
        save_corpus(load_corpus(tmp_path / "first"), tmp_path / "again")
        assert written == {path.name: path.read_bytes()
                           for path in sorted((tmp_path / "again").iterdir())}

    def test_malformed_description_record_reports_its_index(self, tmp_path):
        save_corpus(generate_synthetic_corpus(SMALL), tmp_path / "corpus")
        path = tmp_path / "corpus" / "descriptions.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({"description": "a class without a name"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=r"descriptions\.jsonl: record 2: class_name"):
            load_corpus(tmp_path / "corpus")


def corpus_bytes(spec: SyntheticCorpusSpec, directory) -> dict[str, bytes]:
    save_corpus(generate_synthetic_corpus(spec), directory)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestFingerprint:
    """``load_corpus`` hashes the bytes it parses; the value must equal
    ``corpus_fingerprint`` of the directory, so manifests keep their bytes."""

    def test_default_corpus_matches_the_rule(self, tmp_path):
        files = corpus_bytes(SyntheticCorpusSpec(), tmp_path)
        rule = hashlib.sha256()
        for name, data in sorted(files.items()):
            if name != "videos.bin":  # reached through corpus.json's per-video sha256
                rule.update(name.encode("utf-8") + data)
        assert corpus_fingerprint(tmp_path) == rule.hexdigest()
        assert load_corpus(tmp_path).fingerprint == rule.hexdigest()

    @pytest.mark.parametrize("extra", ["a-notes.txt", "data.bin", "zz.log"],
                             ids=["before", "between", "after"])
    def test_extra_files_are_hashed_in_their_place(self, tmp_path, extra):
        corpus_bytes(SMALL, tmp_path)
        without_extra = corpus_fingerprint(tmp_path)
        (tmp_path / extra).write_bytes(bytes(range(256)) * 6000)  # more than one 1 MiB piece
        (tmp_path / "subdir").mkdir()  # directories are not hashed
        loaded = load_corpus(tmp_path)
        assert loaded.fingerprint == corpus_fingerprint(tmp_path) != without_extra

    def test_one_changed_payload_byte_raises_when_kept_and_is_unseen_when_not(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        before = corpus_fingerprint(tmp_path)
        path = tmp_path / "videos.bin"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # the last byte of the last value
        path.write_bytes(bytes(data))
        last = json.loads((tmp_path / "corpus.json").read_text())["videos"][-1]["video_id"]
        with pytest.raises(ValueError, match=f"corpus.json.*{last}.*videos.bin"):
            load_corpus(tmp_path)
        loaded = load_corpus(tmp_path, lambda video_id, _: video_id != last)
        assert loaded.fingerprint == corpus_fingerprint(tmp_path) == before

    @pytest.mark.parametrize("name", ["corpus.json", "descriptions.jsonl", "videos.bin"])
    def test_missing_corpus_file_is_not_found(self, tmp_path, name):
        corpus_bytes(SMALL, tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(FileNotFoundError, match=name):
            load_corpus(tmp_path)

    def test_generated_corpus_has_no_fingerprint(self):
        assert generate_synthetic_corpus(SMALL).fingerprint is None


def named(*video_ids):
    """A ``load_corpus`` keep predicate that selects the given video ids."""
    return lambda video_id, _: video_id in video_ids


def value_offset(data: bytes, index: int) -> int:
    """Where the values of record ``index`` start in the bytes of a videos.bin."""
    position = len(MAGIC)
    for _ in range(index + 1):
        end = data.index(b"\n", position) + 1
        position = end + 8 * math.prod(int(count) for count in data[position:end].split()[1:])
    return end


def flipped_value_bit(data: bytes, index: int) -> bytes:
    """``data`` with the lowest bit of the first value of record ``index`` flipped."""
    changed = bytearray(data)
    changed[value_offset(data, index)] ^= 0x01
    return bytes(changed)


def flip_value_bit(path, index: int) -> None:
    """Flip the lowest bit of the first value of record ``index``."""
    path.write_bytes(flipped_value_bit(path.read_bytes(), index))


class TestRecordDigests:
    """corpus.json lists each video's sha256, the digest of its videos.bin
    record; ``load_corpus`` checks the records it keeps against it."""

    def test_each_video_lists_its_record_sha256(self, tmp_path):
        files = corpus_bytes(SMALL, tmp_path)
        data = files["videos.bin"]
        entries = json.loads(files["corpus.json"])["videos"]
        header = f"2 {SMALL.frames} {SMALL.patches_per_frame} {SMALL.dim}\n".encode()
        starts = [value_offset(data, index) - len(header) for index in range(len(entries))]
        records = [data[start:end] for start, end in zip(starts, starts[1:] + [len(data)])]
        assert [entry["sha256"] for entry in entries] == [
            hashlib.sha256(record).hexdigest() for record in records
        ]

    # SMALL has 3 videos per class, so vid01_002 is record 5, of a seen class
    @pytest.mark.parametrize("keep", [None, named("vid01_002")], ids=["all", "that-one"])
    def test_a_changed_value_in_a_kept_record_raises(self, tmp_path, keep):
        corpus_bytes(SMALL, tmp_path)
        flip_value_bit(tmp_path / "videos.bin", 5)
        with pytest.raises(ValueError, match=r"corpus\.json.*'vid01_002'.*videos\.bin"):
            load_corpus(tmp_path, keep)

    def test_a_changed_value_in_a_record_not_kept_loads_with_the_same_fingerprint(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        before = load_corpus(tmp_path, lambda _, cls: not cls.seen)
        flip_value_bit(tmp_path / "videos.bin", 5)
        after = load_corpus(tmp_path, lambda _, cls: not cls.seen)
        assert after.fingerprint == before.fingerprint == corpus_fingerprint(tmp_path)
        assert all(np.array_equal(a.features, b.features)
                   for a, b in zip(after.videos, before.videos, strict=True))

    @pytest.mark.parametrize("edit", [
        lambda digest: digest[:-1],
        str.upper,
        lambda digest: "g" + digest[1:],
        None,
        lambda digest: int(digest[:8], 16),
    ], ids=["63-digits", "uppercase", "non-hex", "missing", "non-string"])
    @pytest.mark.parametrize("keep", [None, named("vid00_001")], ids=["all", "another-kept"])
    def test_a_malformed_sha256_raises_even_when_not_kept(self, tmp_path, edit, keep):
        corpus_bytes(SMALL, tmp_path)
        meta_path = tmp_path / "corpus.json"
        meta = json.loads(meta_path.read_text())
        entry = meta["videos"][0]
        if edit is None:
            del entry["sha256"]
        else:
            changed = edit(entry["sha256"])
            assert changed != entry["sha256"]
            entry["sha256"] = changed
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="corpus.json"):
            load_corpus(tmp_path, keep)

    @pytest.mark.parametrize("keep", [None, named("vid02_000")], ids=["all", "one-kept"])
    def test_videos_bin_of_other_features_beside_the_old_metadata_raises(self, tmp_path, keep):
        corpus_bytes(SMALL, tmp_path)
        other = generate_synthetic_corpus(SyntheticCorpusSpec(**{**SMALL.__dict__, "seed": 6}))
        save_embeddings(tmp_path / "videos.bin", [video.features for video in other.videos])
        with pytest.raises(ValueError, match=r"corpus\.json.*videos\.bin"):
            load_corpus(tmp_path, keep)


class TestLoadedFeatures:
    def test_features_are_writeable_contiguous_float64(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        for video in load_corpus(tmp_path).videos:
            assert video.features.dtype == np.float64
            assert video.features.flags.c_contiguous and video.features.flags.writeable
            assert video.patch_concepts.dtype == np.int64

    @pytest.mark.parametrize("corrupt", [
        lambda data: data[:-5],
        lambda data: data.replace(b"\n2 4 6 16\n", b"\n2 4 6 99\n", 1),
        lambda data: data.replace(b"\n2 4 6 16\n", b"\n3 4 6 16\n", 1),
        lambda data: data.replace(b"\n2 4 6 16\n", b"\n2 4 6 16 \n", 1),
        lambda data: b"STIEMB2" + data[7:],
        # record 1, kept on every path, no longer hashes to its listed sha256
        lambda data: flipped_value_bit(data, 1)[:-5],
    ], ids=["truncated", "promises-too-much", "unknown-kind", "trailing-space", "bad-magic",
            "changed-value-then-truncated"])
    # the other corruptions hit the first or the last record, which "one-kept" does not keep
    @pytest.mark.parametrize("keep", [None, lambda video_id, _: video_id == "vid00_001"],
                             ids=["all", "one-kept"])
    def test_videos_bin_errors_are_the_readers_typed_errors(self, tmp_path, corrupt, keep):
        corpus_bytes(SMALL, tmp_path)
        path = tmp_path / "videos.bin"
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(EmbeddingIOError) as direct:
            load_embeddings(path)
        listing = read_listing(tmp_path)
        readers = [
            lambda: load_corpus(tmp_path, keep),
            lambda: list(listing.features(listing.positions(), 4)),
            lambda: list(listing.features(listing.positions(lambda _, cls: cls.seen), 4)),
        ]
        for read in readers:
            with pytest.raises(EmbeddingIOError) as through_corpus:
                read()
            assert type(through_corpus.value) is type(direct.value)
            assert str(through_corpus.value) == str(direct.value)


class TestFeatureStream:
    """``CorpusListing.features``, the one reader of videos.bin records."""

    SELECTIONS = {
        "all": None,
        "seen": lambda _, cls: cls.seen,
        "scattered": named("vid00_001", "vid01_001", "vid01_002", "vid03_000", "vid05_002"),
    }

    @pytest.mark.parametrize("chunk", [1, 2, 3, 18])
    @pytest.mark.parametrize("selection", sorted(SELECTIONS))
    def test_chunks_hold_the_loaded_features_in_file_order(self, tmp_path, chunk, selection):
        corpus_bytes(SMALL, tmp_path)
        keep = self.SELECTIONS[selection]
        listing = read_listing(tmp_path)
        positions = listing.positions(keep)
        chunks = [block.copy() for block in listing.features(positions, chunk)]
        assert [len(block) for block in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= chunk
        want = np.stack([video.features for video in load_corpus(tmp_path, keep).videos])
        assert np.array_equal(np.concatenate(chunks), want)

    def test_an_empty_selection_yields_nothing_but_checks_every_header(self, tmp_path):
        files = corpus_bytes(SMALL, tmp_path)
        listing = read_listing(tmp_path)
        assert list(listing.features([], 4)) == []
        data = files["videos.bin"]
        header = b"2 4 6 16\n"
        last = value_offset(data, len(listing.video_ids) - 1) - len(header)
        assert data[last:last + len(header)] == header
        (tmp_path / "videos.bin").write_bytes(data[:last] + b"3 4 6 16\n" + data[last + len(header):])
        with pytest.raises(HeaderFormatError):
            list(listing.features([], 4))

    def test_no_chunk_follows_a_record_that_disagrees(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        flip_value_bit(tmp_path / "videos.bin", 1)
        listing = read_listing(tmp_path)
        yielded = []
        with pytest.raises(ValueError, match=r"corpus\.json.*'vid00_001'.*videos\.bin"):
            for block in listing.features(listing.positions(), 1):
                yielded.append(block.copy())
        assert len(yielded) == 1
        assert np.array_equal(yielded[0][0], load_corpus(tmp_path, named("vid00_000")).videos[0].features)

    def test_a_count_mismatch_is_reported_before_a_disagreeing_record(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path)
        features = [video.features for video in corpus.videos[:-1]]
        features[1] = features[1][..., :8]  # dim 8 in a dim-16 corpus
        save_embeddings(tmp_path / "videos.bin", features)
        with pytest.raises(ValueError, match=r"corpus\.json: lists 18 videos, videos\.bin holds 17"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("chunk", [0, -1])
    @pytest.mark.parametrize("reader", ["features", "read_ahead"])
    def test_a_chunk_below_one_video_is_rejected_before_any_file_is_opened(
        self, tmp_path, chunk, reader
    ):
        corpus_bytes(SMALL, tmp_path)
        listing = read_listing(tmp_path)
        (tmp_path / "videos.bin").unlink()
        with pytest.raises(ValueError, match=f"chunk_videos must be >= 1, got {chunk}"):
            list(getattr(listing, reader)(listing.positions(), chunk))


def copied_chunks(chunks) -> tuple[list, BaseException | None]:
    """A copy of each chunk ``chunks`` yields, and the error that ended it."""
    copies = []
    try:
        for chunk in chunks:
            copies.append(chunk.copy())
    except Exception as exc:  # noqa: BLE001 - compared with the serial pass's error
        return copies, exc
    return copies, None


def with_bad_header(data: bytes, index: int) -> bytes:
    """``data`` with record ``index``'s header of an unknown record kind."""
    start = value_offset(data, index) - len(b"2 4 6 16\n")
    assert data[start:start + 2] == b"2 "
    return data[:start] + b"3" + data[start + 1:]


class TestCorpusReads:
    """``CorpusListing.read_ahead``: ``features``' pass, one chunk ahead on a
    reader thread."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 18])
    @pytest.mark.parametrize("selection", sorted(TestFeatureStream.SELECTIONS))
    def test_chunks_equal_the_serial_pass(self, tmp_path, chunk, selection):
        corpus_bytes(SMALL, tmp_path)
        listing = read_listing(tmp_path)
        positions = listing.positions(TestFeatureStream.SELECTIONS[selection])
        ahead, error = copied_chunks(listing.read_ahead(positions, chunk))
        serial, _ = copied_chunks(listing.features(positions, chunk))
        assert error is None
        assert len(ahead) == len(serial) >= 1
        assert all(a.shape == s.shape and np.array_equal(a, s) for a, s in zip(ahead, serial))

    @pytest.mark.parametrize("corrupt", [
        lambda data: flipped_value_bit(data, 0),
        lambda data: flipped_value_bit(data, 4),
        lambda data: flipped_value_bit(data, 17),
        lambda data: with_bad_header(data, 9),
        lambda data: data[:-5],
    ], ids=["flipped-0", "flipped-4", "flipped-17", "bad-header-9", "truncated"])
    @pytest.mark.parametrize("chunk", [1, 4])
    @pytest.mark.parametrize("selection", sorted(TestFeatureStream.SELECTIONS))
    def test_an_error_follows_the_chunks_the_serial_pass_yields(
        self, tmp_path, corrupt, chunk, selection
    ):
        corpus_bytes(SMALL, tmp_path)
        path = tmp_path / "videos.bin"
        path.write_bytes(corrupt(path.read_bytes()))
        listing = read_listing(tmp_path)
        positions = listing.positions(TestFeatureStream.SELECTIONS[selection])
        ahead, ahead_error = copied_chunks(listing.read_ahead(positions, chunk))
        serial, serial_error = copied_chunks(listing.features(positions, chunk))
        # a flipped value goes unseen in a record that is not kept
        assert serial_error is not None or selection != "all"
        assert type(ahead_error) is type(serial_error)
        assert str(ahead_error) == str(serial_error)
        assert len(ahead) == len(serial)
        assert all(np.array_equal(a, s) for a, s in zip(ahead, serial))

    def consumers(self, listing):
        """Ways to take the pass: in full, stopping after the first chunk
        and closing it, and raising while a chunk is held."""
        positions = listing.positions()

        def full():
            return copied_chunks(listing.read_ahead(positions, 2))

        def stops_after_one():
            chunks = listing.read_ahead(positions, 2)
            next(chunks)
            chunks.close()

        def raises_holding_a_chunk():
            with pytest.raises(RuntimeError, match="scoring failed"):
                with closing(listing.read_ahead(positions, 2)) as chunks:
                    for _ in chunks:
                        raise RuntimeError("scoring failed")

        return {"full": full, "stops-after-one": stops_after_one,
                "raises-holding-a-chunk": raises_holding_a_chunk}

    @pytest.mark.parametrize("consumer", ["full", "stops-after-one", "raises-holding-a-chunk"])
    @pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "flipped-17"])
    def test_the_reader_thread_is_gone_when_the_pass_ends(self, tmp_path, consumer, corrupt):
        corpus_bytes(SMALL, tmp_path)
        if corrupt:
            flip_value_bit(tmp_path / "videos.bin", 17)
        before = set(threading.enumerate())
        self.consumers(read_listing(tmp_path))[consumer]()
        assert set(threading.enumerate()) == before

    def test_a_chunk_is_not_overwritten_before_the_next_is_asked_for(self, tmp_path):
        # the reader may fill chunk i + 1 while chunk i is held, but not chunk i + 2
        corpus_bytes(SMALL, tmp_path)
        listing = read_listing(tmp_path)
        want = [chunk.copy() for chunk in listing.features(listing.positions(), 1)]
        got = []
        for chunk in listing.read_ahead(listing.positions(), 1):
            time.sleep(0.005)  # time for the reader to run ahead, if it could
            got.append(chunk.copy())
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestSelectedVideos:
    """``load_corpus(dir, keep)`` keeps only the videos ``keep`` names but
    checks every record header of ``videos.bin``."""

    def test_named_videos_keep_their_values_and_the_fingerprint(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        full = load_corpus(tmp_path)
        wanted = [full.videos[4], full.videos[1]]
        picked = load_corpus(tmp_path, named(*(video.video_id for video in wanted)))
        assert [video.video_id for video in picked.videos] == [
            full.videos[1].video_id, full.videos[4].video_id
        ]
        for got in picked.videos:
            want = next(v for v in full.videos if v.video_id == got.video_id)
            assert got.class_index == want.class_index
            assert np.array_equal(got.features, want.features)
            assert got.features.flags.c_contiguous and got.features.flags.writeable
            assert np.array_equal(got.patch_concepts, want.patch_concepts)
        assert picked.classes == full.classes
        assert picked.fingerprint == full.fingerprint == corpus_fingerprint(tmp_path)

    def test_a_kept_video_owns_its_patch_concepts(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        full = load_corpus(tmp_path)
        (picked,) = load_corpus(tmp_path, named(full.videos[3].video_id)).videos
        # a view would keep every video's indices alive with this one
        assert picked.patch_concepts.flags.owndata
        assert picked.patch_concepts.dtype == np.int64
        assert np.array_equal(picked.patch_concepts, full.videos[3].patch_concepts)

    def test_a_repeated_video_id_is_malformed_metadata(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        meta_path = tmp_path / "corpus.json"
        meta = json.loads(meta_path.read_text())
        meta["videos"][4]["video_id"] = "vid00_000"
        meta_path.write_text(json.dumps(meta))
        for read in (read_listing, lambda directory: load_corpus(directory, named("vid00_000"))):
            with pytest.raises(ValueError, match=r"corpus\.json.*'vid00_000' is listed more than once"):
                read(tmp_path)

    def test_an_unknown_id_keeps_no_video(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        picked = load_corpus(tmp_path, named("no-such-video"))
        assert picked.videos == []
        assert picked.fingerprint == corpus_fingerprint(tmp_path)

    def test_only_kept_videos_are_checked_against_the_spec(self, tmp_path):
        corpus = generate_synthetic_corpus(SMALL)
        save_corpus(corpus, tmp_path)
        features = [video.features for video in corpus.videos]
        features[1] = features[1][..., :8]  # dim 8 in a dim-16 corpus
        save_embeddings(tmp_path / "videos.bin", features)
        with pytest.raises(ValueError, match=corpus.videos[1].video_id):
            load_corpus(tmp_path, named(corpus.videos[1].video_id))
        with pytest.raises(ValueError, match=corpus.videos[1].video_id):
            load_corpus(tmp_path, named(corpus.videos[0].video_id))


def bytes_read_by_this_process() -> int:
    """The ``rchar`` count of /proc/self/io: every byte read() has returned."""
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("rchar:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_a_one_video_load_reads_little_beyond_what_it_needs(tmp_path):
    # 32 KiB records: a read-ahead buffer of a few KiB would pull the values
    # after each header of a record the load seeks past
    spec = SyntheticCorpusSpec(seen_classes=2, unseen_classes=2, videos_per_class=3, seed=1)
    corpus = generate_synthetic_corpus(spec)
    save_corpus(corpus, tmp_path)
    keep = named(corpus.videos[3].video_id)
    load_corpus(tmp_path, keep)  # so that no first-use read falls in the count
    before = bytes_read_by_this_process()
    (video,) = load_corpus(tmp_path, keep).videos
    read = bytes_read_by_this_process() - before
    header = f"2 {spec.frames} {spec.patches_per_frame} {spec.dim}\n".encode()
    needed = (
        (tmp_path / "corpus.json").stat().st_size
        + (tmp_path / "descriptions.jsonl").stat().st_size
        + len(MAGIC) + len(corpus.videos) * len(header) + video.features.nbytes
    )
    assert needed <= read <= needed + 128 * len(corpus.videos)


class TestClassGroupSelection:
    """``load_corpus(dir, keep)`` with a predicate on each video's class."""

    @pytest.mark.parametrize("seen", [True, False])
    def test_a_group_keeps_its_videos_and_the_fingerprint(self, tmp_path, seen):
        corpus_bytes(SMALL, tmp_path)
        full = load_corpus(tmp_path)
        group = load_corpus(tmp_path, lambda _, cls: cls.seen == seen)
        want = [v for v in full.videos if full.classes[v.class_index].seen == seen]
        assert [v.video_id for v in group.videos] == [v.video_id for v in want]
        assert all(np.array_equal(g.features, w.features) for g, w in zip(group.videos, want))
        assert group.classes == full.classes
        assert group.fingerprint == full.fingerprint

    def test_a_group_loaded_corpus_trains_a_byte_equal_checkpoint(self, tmp_path):
        corpus_bytes(SMALL, tmp_path / "corpus")
        config = TrainConfig.desk_scale(epochs=2, seed=3, batch_size=4)
        written = []
        for name, keep in (("whole", None), ("seen", lambda _, cls: cls.seen)):
            run = train_on_corpus(load_corpus(tmp_path / "corpus", keep), config)
            written.append(save_checkpoint(tmp_path / f"{name}.stickpt", run.result).read_bytes())
        assert written[0] == written[1]


class TestNonUtf8Bytes:
    def test_non_utf8_metadata_is_a_value_error_naming_the_file(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        path = tmp_path / "corpus.json"
        path.write_bytes(path.read_bytes().replace(b"activity00", b"activit\xff00", 1))
        with pytest.raises(ValueError, match="corpus.json: malformed corpus metadata"):
            load_corpus(tmp_path)

    def test_non_utf8_description_is_a_format_error_naming_the_file(self, tmp_path):
        corpus_bytes(SMALL, tmp_path)
        path = tmp_path / "descriptions.jsonl"
        path.write_bytes(path.read_bytes().replace(b"The ", b"Th\xe9 ", 1))
        with pytest.raises(CorpusFormatError, match=r"descriptions\.jsonl: record 1: not UTF-8"):
            load_corpus(tmp_path)


def one_byte_or_prefix(raw: bytes):
    """Strategy: ``raw`` with one byte replaced, or a prefix of ``raw``."""
    replaced = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)).map(
        lambda change: raw[:change[0]] + bytes([change[1]]) + raw[change[0] + 1:]
    )
    return st.one_of(replaced, st.integers(0, len(raw)).map(lambda cut: raw[:cut]))


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-corpus")
    spec = SyntheticCorpusSpec(num_concepts=6, seen_classes=2, unseen_classes=1,
                               videos_per_class=2, frames=2, patches_per_frame=3, dim=4)
    return directory, corpus_bytes(spec, directory)


@pytest.mark.parametrize("name", ["corpus.json", "descriptions.jsonl"])
@given(data=st.data())
@settings(max_examples=250)
def test_corrupted_text_file_loads_or_raises_a_typed_error_naming_it(fuzz_corpus, name, data):
    directory, original = fuzz_corpus
    path = directory / name
    path.write_bytes(data.draw(one_byte_or_prefix(original[name])))
    try:
        load_corpus(directory)
    except CorpusFormatError as exc:
        assert "descriptions.jsonl" in str(exc)
    except ValueError as exc:
        assert "corpus.json" in str(exc)
    finally:
        path.write_bytes(original[name])
