import json

import numpy as np
import pytest

from stilab.attributes import CorpusFormatError, build_attribute_set, load_stopwords
from stilab.corpus import (
    SyntheticCorpusSpec,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
)
from stilab.embed_io import save_embeddings
from stilab.encoders import tokenize


def without(entry: dict, key: str) -> dict:
    return {k: v for k, v in entry.items() if k != key}


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
        meta_path.write_text(meta_path.read_text().replace('"format_version": 1', '"format_version": 9'))
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
    ], ids=["unknown-spec-key", "string-dim", "missing-spec", "video-without-class-index",
            "class-without-description", "not-an-object"])
    def test_malformed_metadata_is_a_value_error_naming_the_file(self, tmp_path, edit):
        save_corpus(generate_synthetic_corpus(SMALL), tmp_path / "corpus")
        meta_path = tmp_path / "corpus" / "corpus.json"
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        with pytest.raises(ValueError, match="corpus.json"):
            load_corpus(tmp_path / "corpus")

    def test_malformed_description_record_reports_its_index(self, tmp_path):
        save_corpus(generate_synthetic_corpus(SMALL), tmp_path / "corpus")
        path = tmp_path / "corpus" / "descriptions.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({"description": "a class without a name"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=r"descriptions\.jsonl: record 2: class_name"):
            load_corpus(tmp_path / "corpus")
