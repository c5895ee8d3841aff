import hashlib
import math
import threading

import numpy as np
import pytest

from stilab import evaluation
from stilab.corpus import (
    SyntheticCorpusSpec, generate_synthetic_corpus, read_listing, save_corpus,
)
from stilab.encoders import EncoderParams, FrameEmbeddingSet
from stilab.evaluation import (
    MetricReport,
    SplitMetrics,
    _topk_hits,
    aggregate_splits,
    evaluate_split,
    evaluate_three_splits,
    export_saliency,
    sample_category_subset,
    stacked_chunks,
    write_metric_csv,
)
from stilab.objective import BatchRecord, score_matrix
from stilab.sti import InteractionToggles, STIParameters
from stilab.workflow import (
    corpus_encoder_params, eval_group_three_splits, params_from_store, training_data_for,
)
from stilab.trainer import default_parameter_store
from test_sti import text_of


@pytest.fixture(scope="module")
def clean_corpus_setup():
    """Noise-free corpus with identity parameters: predictions are driven
    purely by the concept structure. Candidate classes come from one group
    (here: seen), matching how the zero-shot protocol scopes candidates."""
    corpus = generate_synthetic_corpus(
        SyntheticCorpusSpec(
            num_concepts=12,
            seen_classes=4,
            unseen_classes=2,
            videos_per_class=4,
            frames=6,
            patches_per_frame=12,
            dim=32,
            noise_scale=0.0,
            seed=0,
        )
    )
    store = default_parameter_store(corpus.spec.dim)
    enc_params, sti_params = params_from_store(
        store, text_table_seed=corpus.spec.seed, dim=corpus.spec.dim
    )
    data, _ = training_data_for(corpus, corpus.seen_class_indices, 8, enc_params)
    return corpus, data, sti_params, enc_params


def classify(video, class_texts, sti, enc):
    """Zero-shot prediction for one video: the argmax of its score row
    (ties go to the smallest class index)."""
    batch = BatchRecord(videos=(video,), labels=np.zeros(1, dtype=np.int64))
    scores = score_matrix(batch, class_texts, sti, enc)[0]
    return int(np.argmax(scores)), scores


class TestZeroShotClassify:
    def test_single_class_always_wins(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        index, scores = classify(data.videos[0], [data.class_texts[0].sequence], sti, enc)
        assert index == 0
        assert scores.shape == (1,)

    def test_noise_free_corpus_is_classified_correctly(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        for video, label in zip(data.videos, data.labels):
            predicted, _ = classify(video, texts, sti, enc)
            assert predicted == int(label)

    def test_duplicate_class_ties_break_to_smallest_index(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        video = data.videos[-1]
        true = int(data.labels[-1])
        duplicated = texts[:true] + [texts[true], texts[true]]
        predicted, scores = classify(video, duplicated, sti, enc)
        assert predicted == true
        assert scores[true] == scores[true + 1]

    def test_empty_class_list_rejected(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        with pytest.raises(ValueError):
            classify(data.videos[0], [], sti, enc)


class TestEvaluateSplit:
    def test_all_correct_gives_ones(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        top1, top5 = evaluate_split(data.videos, data.labels, texts, sti, enc)
        assert top1 == 1.0
        assert top5 == 1.0

    def test_topk_clamps_to_class_count(self):
        scores = np.array([[0.9, 0.1, 0.5]])
        assert bool(_topk_hits(scores, np.array([1]), k=3)[0])
        assert not bool(_topk_hits(scores, np.array([1]), k=2)[0])

    def test_counting_fraction(self):
        # 7 of 10 rows have the true label on top
        scores = np.zeros((10, 3))
        labels = np.zeros(10, dtype=np.int64)
        scores[:7, 0] = 1.0
        scores[7:, 1] = 1.0
        hits = _topk_hits(scores, labels, k=1)
        assert float(hits.mean()) == 0.7

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((40, 6))
        labels = rng.integers(0, 6, size=40)
        fractions = [float(_topk_hits(scores, labels, k).mean()) for k in range(1, 7)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_tie_rows_rank_by_smallest_index(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        assert bool(_topk_hits(scores, np.array([0]), k=1)[0])
        assert not bool(_topk_hits(scores, np.array([1]), k=1)[0])

    def test_empty_split_rejected(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        with pytest.raises(ValueError):
            evaluate_split([], np.array([]), [data.class_texts[0].sequence], sti, enc)


class TestAggregateSplits:
    def test_spread_of_one(self):
        mean, std = aggregate_splits((78.0, 79.0, 80.0))
        assert mean == 79.0
        assert std == 1.0

    def test_constant_values(self):
        mean, std = aggregate_splits((0.5, 0.5, 0.5))
        assert mean == 0.5
        assert std == 0.0

    def test_formula_against_direct_evaluation(self):
        mean, std = aggregate_splits((0.0, 0.0, 3.0))
        assert abs(mean - 1.0) < 1e-12
        assert abs(std - math.sqrt(3.0)) < 1e-12

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            aggregate_splits((1.0, 2.0))

    def test_equal_values_are_exact(self):
        # float summation would give 0.94999999999999984 and std 1.36e-16
        assert aggregate_splits((0.95, 0.95, 0.95)) == (0.95, 0.0)
        report = MetricReport.from_splits([SplitMetrics(i, 0.95, 0.95) for i in (1, 2, 3)])
        assert (report.top1_mean, report.top1_std) == (0.95, 0.0)
        assert (report.top5_mean, report.top5_std) == (0.95, 0.0)

    def test_report_and_aggregate_agree(self):
        values = (0.1, 0.7, 0.3)
        report = MetricReport.from_splits([SplitMetrics(i, v, 1.0) for i, v in enumerate(values)])
        assert (report.top1_mean, report.top1_std) == aggregate_splits(values)

    def test_single_split_has_zero_std(self):
        report = MetricReport.from_splits([SplitMetrics(1, 0.3, 0.6)])
        assert (report.top1_mean, report.top1_std) == (0.3, 0.0)
        assert (report.top5_mean, report.top5_std) == (0.6, 0.0)


class TestCategorySampling:
    def test_paper_scale_protocol(self):
        categories = [f"cat{i:03d}" for i in range(220)]
        subset = sample_category_subset(categories, 160, seed=0)
        assert len(subset) == 160
        assert len(set(subset)) == 160
        assert sample_category_subset(categories, 160, seed=0) == subset
        assert sample_category_subset(categories, 160, seed=1) != subset

    def test_full_size_sample_is_a_shuffle(self):
        categories = list("abcdefg")
        subset = sample_category_subset(categories, len(categories), seed=3)
        assert sorted(subset) == sorted(categories)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            sample_category_subset(["a"], 2, seed=0)


class TestThreeSplitProtocol:
    def test_report_consistency(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        report = evaluate_three_splits(
            stacked_chunks(data.videos), data.labels, texts, sti, enc, seed=5, subset_size=4
        )
        assert len(report.per_split) == 3
        top1s = [s.top1 for s in report.per_split]
        mean, std = aggregate_splits(tuple(top1s))
        assert abs(report.top1_mean - mean) < 1e-15
        assert abs(report.top1_std - std) < 1e-15

    def test_split_spec_validation(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        chunks = stacked_chunks(data.videos)
        with pytest.raises(ValueError, match="no evaluation videos"):
            evaluate_three_splits(chunks, data.labels, texts, sti, enc, seed=0, subset_size=0)
        with pytest.raises(ValueError):
            evaluate_three_splits(chunks, data.labels, texts, sti, enc, seed=0, subset_size=-1)
        with pytest.raises(ValueError, match="exceeds"):
            evaluate_three_splits(
                chunks, data.labels, texts, sti, enc, seed=0, subset_size=len(texts) + 1
            )

    def test_default_subset_scores_one_split(self, clean_corpus_setup, monkeypatch):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        videos = list(data.videos) * 5  # 80 videos: two 64-video batches per split
        labels = np.tile(data.labels, 5)
        calls = []

        def counting_score_matrix(raw, *args):
            calls.append(len(raw))
            return score_matrix(raw, *args)

        monkeypatch.setattr(evaluation, "score_matrix", counting_score_matrix)
        report = evaluate_three_splits(stacked_chunks(videos), labels, texts, sti, enc, seed=1)
        assert calls == [64, 16]
        assert report.per_split[0].top1 == report.per_split[1].top1 == report.per_split[2].top1
        assert report.top1_std == 0.0 and report.top5_std == 0.0

    def test_large_videos_are_scored_in_chunks_of_at_most_eight(self, monkeypatch):
        # 16 x 32 x 64 videos hold 2**15 values each: eight make one 2**18 chunk
        rng = np.random.default_rng(7)
        videos = [FrameEmbeddingSet.from_raw(rng.standard_normal((16, 32, 64)))
                  for _ in range(18)]
        labels = np.arange(len(videos)) % 6
        texts = [text_of(rng.standard_normal((3, 64))) for _ in range(6)]
        enc = EncoderParams.random(0, 64, seed=8)
        sti = STIParameters.random_init(64, seed=9)
        whole = BatchRecord(videos=tuple(videos), labels=np.zeros(len(videos), dtype=np.int64))
        scores = score_matrix(whole, texts, sti, enc)
        want = (float(_topk_hits(scores, labels, 1).mean()),
                float(_topk_hits(scores, labels, 5).mean()))
        calls = []

        def counting_score_matrix(raw, *args):
            calls.append(len(raw))
            return score_matrix(raw, *args)

        monkeypatch.setattr(evaluation, "score_matrix", counting_score_matrix)
        assert evaluate_split(videos, labels, texts, sti, enc) == want
        assert calls == [8, 8, 2]
        assert 0.0 < want[0] < want[1] < 1.0  # a split that tells chunkings apart

    @pytest.mark.parametrize("seed, scored", [(2, 2), (0, 3)])
    def test_distinct_splits_are_scored_once_each(
        self, clean_corpus_setup, monkeypatch, seed, scored
    ):
        corpus, data, _, _ = clean_corpus_setup
        # random parameters, so the accuracies differ between class subsets
        enc = EncoderParams.random(corpus.spec.seed, corpus.spec.dim, seed=100)
        sti = STIParameters.random_init(corpus.spec.dim, seed=200)
        texts = [ct.sequence for ct in data.class_texts]
        assert len(texts) == 4 and len(data.videos) <= 64  # one chunk
        calls = []

        def counting_score_matrix(raw, class_texts, *args):
            calls.append(len(class_texts))
            return score_matrix(raw, class_texts, *args)

        monkeypatch.setattr(evaluation, "score_matrix", counting_score_matrix)
        report = evaluate_three_splits(
            stacked_chunks(data.videos), data.labels, texts, sti, enc, seed=seed, subset_size=2
        )
        assert calls == [2] * scored
        for split in report.per_split:
            chosen = sorted(sample_category_subset(list(range(4)), 2, seed * 10 + split.split_id))
            keep = [i for i, label in enumerate(data.labels) if int(label) in chosen]
            top1, top5 = evaluate_split(
                [data.videos[i] for i in keep],
                np.array([chosen.index(int(data.labels[i])) for i in keep]),
                [texts[c] for c in chosen], sti, enc,
            )
            assert (split.top1, split.top5) == (top1, top5)

    def test_one_pass_scores_a_split_as_its_own_videos_would(self, monkeypatch):
        # 40 large videos in five 8-video chunks; a 2-class split keeps some
        # rows of each chunk and scores them as the split's own videos score
        rng = np.random.default_rng(4)
        videos = [FrameEmbeddingSet.from_raw(rng.standard_normal((16, 32, 64)))
                  for _ in range(40)]
        labels = rng.integers(0, 5, size=len(videos))
        texts = [text_of(rng.standard_normal((3, 64))) for _ in range(5)]
        enc = EncoderParams.random(0, 64, seed=8)
        sti = STIParameters.random_init(64, seed=9)
        report = evaluate_three_splits(
            stacked_chunks(videos), labels, texts, sti, enc, seed=3, subset_size=2
        )
        for split in report.per_split:
            chosen = sorted(sample_category_subset(list(range(5)), 2, 30 + split.split_id))
            keep = [i for i, label in enumerate(labels) if int(label) in chosen]
            want = evaluate_split(
                [videos[i] for i in keep], np.array([chosen.index(int(labels[i])) for i in keep]),
                [texts[c] for c in chosen], sti, enc,
            )
            assert (split.top1, split.top5) == want

    def test_more_chunked_videos_than_labels_fails(self, clean_corpus_setup):
        _, data, sti, enc = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        with pytest.raises(ValueError, match="labels"):
            evaluate_three_splits(stacked_chunks(data.videos), data.labels[:-1], texts, sti,
                                  enc, seed=0)
        with pytest.raises(ValueError, match="labels"):
            evaluate_three_splits(stacked_chunks(data.videos[:-1]), data.labels, texts, sti,
                                  enc, seed=0)

    def test_metric_report_invariants(self):
        with pytest.raises(ValueError):
            SplitMetrics(split_id=1, top1=0.8, top5=0.5)
        with pytest.raises(ValueError):
            SplitMetrics(split_id=1, top1=1.2, top5=1.3)

    def test_metric_csv_format(self, clean_corpus_setup, tmp_path):
        report = MetricReport.from_splits(
            [
                SplitMetrics(1, 0.5, 0.75),
                SplitMetrics(2, 0.25, 0.5),
                SplitMetrics(3, 0.75, 1.0),
            ]
        )
        path = write_metric_csv(tmp_path / "metrics.csv", report)
        lines = path.read_text().splitlines()
        assert lines[0] == "split_id,top1,top5"
        assert len(lines) == 6
        assert lines[4].startswith("mean,")
        assert lines[5].startswith("std,")
        assert float(lines[4].split(",")[1]) == report.top1_mean


def test_a_scoring_error_joins_the_read_ahead_before_it_propagates(tmp_path, monkeypatch):
    # the raised error's traceback keeps the chunk generator reachable, so
    # only an explicit close ends the reader thread before the error is handled
    spec = SyntheticCorpusSpec(num_concepts=8, seen_classes=4, unseen_classes=2,
                               videos_per_class=3, frames=4, patches_per_frame=6, dim=16, seed=5)
    save_corpus(generate_synthetic_corpus(spec), tmp_path)
    listing = read_listing(tmp_path)
    enc = corpus_encoder_params(listing.corpus)
    sti = STIParameters.random_init(spec.dim, seed=1)

    def failing_score_matrix(*args, **kwargs):
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(evaluation, "score_matrix", failing_score_matrix)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="scoring failed") as raised:
        eval_group_three_splits(listing, enc, sti, seen=True, num_attributes=4, seed=0)
    assert raised.tb is not None
    assert set(threading.enumerate()) == before


class TestChanceFloor:
    def test_random_parameters_score_at_chance(self, clean_corpus_setup):
        corpus, data, _, _ = clean_corpus_setup
        texts = [ct.sequence for ct in data.class_texts]
        k = len(texts)
        hits = 0
        trials = 0
        for resample in range(20):
            enc = EncoderParams.random(corpus.spec.seed, corpus.spec.dim, seed=100 + resample)
            sti = STIParameters.random_init(corpus.spec.dim, seed=200 + resample)
            top1, _ = evaluate_split(data.videos, data.labels, texts, sti, enc)
            hits += top1 * len(data.videos)
            trials += len(data.videos)
        p = 1.0 / k
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * sigma


class TestSaliencyExport:
    def test_row_count_and_header(self, tmp_path):
        rng = np.random.default_rng(1)
        video = FrameEmbeddingSet.from_raw(rng.standard_normal((8, 4, 6)))
        text = text_of(rng.standard_normal((3, 6)))
        enc = EncoderParams.pretrained(0, 6)
        sti = STIParameters.identity_init(6)
        path = export_saliency(video, text, sti, enc, tmp_path / "sal.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "frame_index,s_sp,s_temp"
        assert len(lines) == 9

    def test_uniform_video_gets_uniform_saliency(self, tmp_path):
        patch = np.abs(np.random.default_rng(2).standard_normal(6))
        video = FrameEmbeddingSet.from_raw(np.tile(patch, (8, 4, 1)))
        text = text_of(np.abs(np.random.default_rng(3).standard_normal((2, 6))))
        path = export_saliency(
            video, text, STIParameters.identity_init(6), EncoderParams.pretrained(0, 6),
            tmp_path / "sal.csv",
        )
        weights = [float(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]
        assert np.allclose(weights, 1.0 / 8, atol=1e-12)

    def test_export_roundtrips_float64_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        video = FrameEmbeddingSet.from_raw(rng.standard_normal((5, 4, 6)))
        text = text_of(rng.standard_normal((3, 6)))
        enc = EncoderParams.pretrained(0, 6)
        sti = STIParameters.identity_init(6)
        path = export_saliency(video, text, sti, enc, tmp_path / "sal.csv")

        from stilab.sti import sti_forward

        output = sti_forward(video, text, sti, enc)
        for line, t in zip(path.read_text().splitlines()[1:], range(5)):
            _, s_sp, s_temp = line.split(",")
            assert float(s_sp) == output["spatial_scores"][t]
            assert float(s_temp) == output["saliency"][t]

    def test_overflowing_saliency_raises_and_writes_nothing(self, tmp_path):
        # finite inputs whose frame-word logits overflow to inf: the saliency
        # softmax is NaN, which the sum-to-1 check must not let through
        raw = np.full((3, 2, 4), 1e300)
        raw[1] *= -1
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            export_saliency(
                FrameEmbeddingSet.from_raw(raw), text_of(np.full((2, 4), 1e300)),
                STIParameters.identity_init(4), EncoderParams.pretrained(0, 4),
                tmp_path / "sal.csv",
            )
        assert list(tmp_path.iterdir()) == []

    # sha256 of each CSV below, as the export wrote it when sti_forward still
    # wrapped its arrays in validated result classes
    PINNED_CSV_SHA256 = {
        (True, True): "5a73f8a49d941662cf0a14b873fa5af8a9049d52c800c13485ac36769441f717",
        (True, False): "fc29b931829dbbde48e5ac34c829c61ed32bceaea92aa3de47a62e2e1f8fa1c3",
        (False, True): "74fa262c1359a54fd9d200fd7db1cd46b258e0f302c5dc5111efd77850ff97b0",
        (False, False): "89b106477f2fc93f9b521cc47f1b122ad4e1afcac8bb3751ef4032d2191d593b",
    }

    @pytest.mark.parametrize("spatial", [True, False])
    @pytest.mark.parametrize("temporal", [True, False])
    def test_csv_bytes_are_pinned_for_each_toggle(self, tmp_path, spatial, temporal):
        # a disabled stage exports its neutral value: unit spatial scores,
        # uniform 1/T saliency
        t = 5
        rng = np.random.default_rng(5)
        video = FrameEmbeddingSet.from_raw(rng.standard_normal((t, 4, 6)))
        text = text_of(rng.standard_normal((3, 6)))
        path = export_saliency(
            video, text, STIParameters.random_init(6, 1, 0.3), EncoderParams.pretrained(0, 6),
            tmp_path / "sal.csv", toggles=InteractionToggles(spatial, temporal),
        )
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [int(index) for index, _, _ in rows] == list(range(t))
        if not spatial:
            assert all(s_sp == "1" for _, s_sp, _ in rows)
        if not temporal:
            assert all(s_temp == f"{1 / t:.17g}" for _, _, s_temp in rows)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_CSV_SHA256[(spatial, temporal)]
