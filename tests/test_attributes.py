import json
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from stilab import attributes
from stilab.attributes import (
    AttributeRecord,
    ClassDescription,
    CorpusFormatError,
    DEFAULT_EXTRACTION_PROMPT,
    DuplicateClassError,
    ExtractionError,
    build_attribute_set,
    extract_keywords,
    load_attribute_records,
    load_description_corpus,
    load_stopwords,
    run_attribute_pipeline,
    save_attribute_records,
)


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestLoadDescriptionCorpus:
    def test_two_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(
            path,
            [
                {"class_name": "swing", "description": "a rhythmic dance", "source_tag": "t"},
                {"class_name": "archery", "description": "shooting arrows at a target"},
            ],
        )
        corpus = load_description_corpus(path)
        assert len(corpus) == 2
        assert corpus["swing"].description == "a rhythmic dance"
        assert corpus["archery"].source_tag == ""

    def test_empty_file_gives_empty_map(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_description_corpus(path) == {}

    def test_duplicate_class_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_corpus(
            path,
            [
                {"class_name": "swing", "description": "a dance"},
                {"class_name": "swing", "description": "a seat on ropes"},
            ],
        )
        with pytest.raises(DuplicateClassError, match=r"dup\.jsonl: record 2: .*'swing'") as excinfo:
            load_description_corpus(path)
        assert excinfo.value.record_index == 2

    def test_malformed_json_reports_record_index(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"class_name": "a", "description": "b"}\nnot json\n')
        with pytest.raises(CorpusFormatError, match=r"bad\.jsonl: record 2: invalid JSON"):
            load_description_corpus(path)

    def test_empty_description_reports_record_index(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_corpus(path, [{"class_name": "swing", "description": ""}])
        with pytest.raises(CorpusFormatError, match=r"bad\.jsonl: record 1: "):
            load_description_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_description_corpus(tmp_path / "nope.jsonl")

    def test_non_utf8_byte_reports_file_and_record(self, tmp_path):
        path = tmp_path / "latin.jsonl"
        path.write_bytes(b'{"class_name": "a", "description": "b"}\n'
                         b'{"class_name": "caf\xe9", "description": "c"}\n')
        with pytest.raises(CorpusFormatError, match=r"latin\.jsonl: record 2: not UTF-8") as exc:
            load_description_corpus(path)
        assert exc.value.record_index == 2

    @pytest.mark.parametrize("record", [
        {"class_name": 5, "description": "a dance"},
        {"class_name": "swing", "description": ["a", "dance"]},
        {"class_name": "swing", "description": "a dance", "source_tag": None},
    ], ids=["int-name", "list-description", "null-tag"])
    def test_non_string_field_reports_file_and_record(self, tmp_path, record):
        path = tmp_path / "typed.jsonl"
        write_corpus(path, [record])
        with pytest.raises(CorpusFormatError, match=r"typed\.jsonl: record 1: .* must be a string"):
            load_description_corpus(path)

    def test_every_line_ending_splits_records(self, tmp_path):
        records = [json.dumps({"class_name": name, "description": "d   e"})
                   for name in ("a", "b", "c", "d")]
        path = tmp_path / "endings.jsonl"
        path.write_bytes("\r\n".join(records[:2]).encode() + b"\r" + records[2].encode()
                         + b"\n\n" + records[3].encode())
        assert list(load_description_corpus(path)) == ["a", "b", "c", "d"]
        path.write_bytes(b"\n".join(r.encode() for r in records[:2]) + b"\nnot json\n")
        with pytest.raises(CorpusFormatError, match="record 3"):
            load_description_corpus(path)


class TestExtractKeywords:
    def test_mock_ranks_by_frequency_then_first_occurrence(self):
        keywords = extract_keywords("salsa", "a dance with a partner, the dance has turns")
        assert keywords == ["dance", "partner", "turns"]

    def test_mock_single_content_word(self):
        assert extract_keywords("run", "run run run") == ["run"]

    def test_mock_is_deterministic(self):
        args = ("swing", "a dance with swing music and partner turns")
        assert extract_keywords(*args) == extract_keywords(*args)

    def test_mock_all_stopwords_raises(self):
        with pytest.raises(ExtractionError, match="no content words"):
            extract_keywords("x", "the and of a")

    def test_empty_description_rejected(self):
        with pytest.raises(ValueError):
            extract_keywords("x", "")

    @given(st.lists(st.sampled_from(["The", "dance", "DANCE", "Partner", "and", "a", "turns",
                                     ",", "Kw1", "kw1", "é", "É"]), min_size=1, max_size=20))
    def test_mock_keywords_are_lowercase_unique_content_words(self, words):
        """The mock's keywords need no further filtering before selection."""
        stops = load_stopwords()
        try:
            keywords = extract_keywords("x", " ".join(words))
        except ExtractionError:
            return
        assert all(k and k == k.lower() and k not in stops for k in keywords)
        assert len(set(keywords)) == len(keywords)

    def test_prompt_template_has_both_slots(self):
        assert "{description}" in DEFAULT_EXTRACTION_PROMPT
        assert "{action_name}" in DEFAULT_EXTRACTION_PROMPT


def pool_of(n, class_name="swing"):
    """A class whose mock candidates are exactly kw0 .. kw{n-1}, in order."""
    return ClassDescription(class_name, " ".join(f"kw{i}" for i in range(n)))


class TestSelectDescriptiveAttributes:
    def test_top_eight_of_ten(self):
        selected = build_attribute_set(pool_of(10), 8)
        assert selected.keywords == tuple(f"kw{i}" for i in range(8))
        assert not selected.shortfall

    def test_pool_limited_sets_shortfall(self):
        selected = build_attribute_set(pool_of(3), 8)
        assert selected.keywords == ("kw0", "kw1", "kw2")
        assert selected.shortfall

    def test_zero_attribute_arm(self):
        selected = build_attribute_set(pool_of(5), 0)
        assert selected.keywords == ()
        assert not selected.shortfall

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_attribute_set(pool_of(3), -1)

    def test_negative_rejected_for_an_empty_corpus(self):
        with pytest.raises(ValueError, match="num_attributes must be >= 0"):
            run_attribute_pipeline({}, -1)

    def test_negative_rejected_before_extraction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(attributes, "extract_keywords",
                            lambda *args: calls.append(args) or ["dance"])
        corpus = {"salsa": ClassDescription("salsa", "a dance with a partner")}
        with pytest.raises(ValueError, match="num_attributes"):
            run_attribute_pipeline(corpus, -1)
        with pytest.raises(ValueError, match="num_attributes"):
            build_attribute_set(corpus["salsa"], -1)
        assert calls == []

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
    def test_monotone_nesting(self, small, extra):
        large = small + extra
        pool = pool_of(5, "c")
        a = build_attribute_set(pool, small)
        b = build_attribute_set(pool, large)
        assert b.keywords[: len(a.keywords)] == a.keywords


class TestComposeAttributeSentence:
    def test_two_keywords(self):
        entry = ClassDescription("salsa spin", "dance turn")
        record = build_attribute_set(entry, 2)
        assert record.prompt_sentence == "This is a video about salsa spin dance turn."

    def test_zero_keywords(self):
        record = build_attribute_set(ClassDescription("swing", "a dance"), 0)
        assert record.prompt_sentence == "This is a video about swing."

    def test_single_keyword(self):
        record = build_attribute_set(ClassDescription("archery", "bow"), 1)
        assert record.prompt_sentence == "This is a video about archery bow."


class TestAttributeRecord:
    def test_sentence_must_compose_class_and_keywords(self):
        record = AttributeRecord("salsa", ("dance",), "mock",
                                 "This is a video about salsa dance.", False)
        assert record.prompt_sentence == "This is a video about salsa dance."
        for sentence in ("This is a video about salsa.", "This is a video about dance salsa.",
                         "this is a video about salsa dance."):
            with pytest.raises(ValueError, match="prompt_sentence must be"):
                AttributeRecord("salsa", ("dance",), "mock", sentence, False)

    @pytest.mark.parametrize("extractor", ["", "Mock", "http://extractor.test/v1"])
    def test_extractor_must_be_mock_or_endpoint(self, extractor):
        with pytest.raises(ValueError, match="extractor must be one of"):
            AttributeRecord("salsa", (), extractor, "This is a video about salsa.", False)


class TestPipeline:
    def test_deterministic_end_to_end(self):
        entry = ClassDescription("salsa", "a dance with a partner, the dance has turns")
        first = build_attribute_set(entry, 2)
        second = build_attribute_set(entry, 2)
        assert first == second
        assert first.keywords == ("dance", "partner")

    def test_records_roundtrip(self, tmp_path):
        corpus = {
            "salsa": ClassDescription("salsa", "a dance with a partner, the dance has turns"),
            "archery": ClassDescription("archery", "shooting a bow at a target"),
        }
        records = run_attribute_pipeline(corpus, 8)
        assert [r.class_name for r in records] == ["salsa", "archery"]
        assert all(r.extractor == "mock" for r in records)
        assert records[0].prompt_sentence.startswith("This is a video about salsa")
        path = save_attribute_records(tmp_path / "attrs.jsonl", records)
        assert load_attribute_records(path) == records

    def test_attribute_sets_never_contain_stopwords_or_repeats(self):
        stops = load_stopwords()
        entry = ClassDescription(
            "kite", "the kite and the wind with a string, the kite in the wind"
        )
        selected = build_attribute_set(entry, 8)
        assert all(k not in stops for k in selected.keywords)
        assert len(set(selected.keywords)) == len(selected.keywords)



GOOD_RECORD = {"class": "salsa", "keywords": ["dance", "partner"], "extractor": "mock",
               "prompt_sentence": "This is a video about salsa dance partner.",
               "shortfall": False}
GOOD_LINE = json.dumps(GOOD_RECORD).encode()
_MISSING = object()


def _record_line(**changes) -> bytes:
    """GOOD_RECORD with ``changes``; a field changed to _MISSING is left out."""
    return json.dumps({key: value for key, value in {**GOOD_RECORD, **changes}.items()
                       if value is not _MISSING}).encode()

MALFORMED_ATTRIBUTE_LINES = {
    "invalid-json": b'{"class": "salsa",',
    "not-an-object": b'["salsa"]',
    "not-utf8": GOOD_LINE.replace(b"salsa", b"caf\xe9", 1),
    "missing-class": _record_line(**{"class": _MISSING}),
    "missing-keywords": _record_line(keywords=_MISSING),
    "int-class": _record_line(**{"class": 5}),
    "string-keywords": _record_line(keywords="ball"),
    "int-keyword": _record_line(keywords=["ball", 3]),
    "null-extractor": _record_line(extractor=None),
    "list-prompt": _record_line(prompt_sentence=["This", "is"]),
    "string-shortfall": _record_line(shortfall="false"),
    "int-shortfall": _record_line(shortfall=0),
    "empty-class": _record_line(**{"class": ""}),
    "repeated-keyword": _record_line(keywords=["dance", "dance"]),
    "foreign-sentence": _record_line(prompt_sentence="This is a video about archery bow."),
    "sentence-of-other-keywords": _record_line(keywords=["dance"]),
    "sentence-with-doubled-space": _record_line(
        prompt_sentence="This is a video about salsa  dance partner."),
    "unknown-extractor": _record_line(extractor="carrier-pigeon"),
}
# A first record of another class, so that no malformed line repeats a class.
OTHER_LINE = _record_line(**{"class": "tango",
                             "prompt_sentence": "This is a video about tango dance partner."})


class TestLoadAttributeRecords:
    def test_good_records_load(self, tmp_path):
        path = tmp_path / "attributes.jsonl"
        path.write_bytes(GOOD_LINE + b"\n\n" + OTHER_LINE + b"\n")
        first, second = load_attribute_records(path)
        assert (first.class_name, second.class_name) == ("salsa", "tango")
        assert first.keywords == second.keywords == ("dance", "partner")
        assert first.shortfall is False

    @pytest.mark.parametrize("line", MALFORMED_ATTRIBUTE_LINES.values(),
                             ids=MALFORMED_ATTRIBUTE_LINES)
    def test_malformed_record_names_file_and_record(self, tmp_path, line):
        path = tmp_path / "attributes.jsonl"
        path.write_bytes(OTHER_LINE + b"\n\n" + line + b"\n")
        with pytest.raises(CorpusFormatError, match=r"attributes\.jsonl: record 3: ") as exc:
            load_attribute_records(path)
        assert exc.value.record_index == 3
        assert not isinstance(exc.value, DuplicateClassError)

    def test_endpoint_records_load(self, tmp_path):
        path = tmp_path / "attributes.jsonl"
        path.write_bytes(_record_line(extractor="endpoint", shortfall=True) + b"\n")
        (record,) = load_attribute_records(path)
        assert (record.extractor, record.shortfall) == ("endpoint", True)

    def test_repeated_class_is_rejected_by_name(self, tmp_path):
        path = tmp_path / "attributes.jsonl"
        path.write_bytes(GOOD_LINE + b"\n" + OTHER_LINE + b"\n" + GOOD_LINE + b"\n")
        with pytest.raises(DuplicateClassError,
                           match=r"attributes\.jsonl: record 3: duplicate class 'salsa'") as exc:
            load_attribute_records(path)
        assert exc.value.record_index == 3

class TestStopwordFile:
    def test_default_file_loads_and_contains_basics(self):
        stops = load_stopwords()
        assert {"the", "and", "a", "with", "has"} <= stops
        assert "dance" not in stops
        assert load_stopwords() is stops  # read once per process

    def test_packaged_comments_and_blanks_are_not_words(self):
        text = resources.files("stilab").joinpath("data/stopwords.txt").read_text("utf-8")
        lines = [line.strip() for line in text.splitlines()]
        assert any(line.startswith("#") for line in lines)
        stops = load_stopwords()
        assert "" not in stops and not any(word.startswith("#") for word in stops)
        assert stops == {line for line in lines if line and not line.startswith("#")}
