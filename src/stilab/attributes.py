"""Descriptive-attribute pipeline: class descriptions in, one AttributeRecord
per class out.

Stages: keyword extraction by the deterministic mock (content words ranked
by frequency), top-N selection, and composition of the final prompt
sentence. Every stage is a pure function, so the pipeline is a deterministic
test oracle. An LLM extractor runs outside the package, offline, sent
DEFAULT_EXTRACTION_PROMPT, and writes ``attributes.jsonl`` itself.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from ._fileio import atomic_open, json_value_fits
from .encoders import tokenize

SENTENCE_TEMPLATE = "This is a video about {}."

# The paper's extraction prompt, for an LLM run offline; `stilab attrs --help`
# prints it.
DEFAULT_EXTRACTION_PROMPT = (
    "Extract 5-10 essential keywords from {description} that best describe the "
    "action {action_name} in the paragraph. Focus on objects, motions, and "
    "contexts related to the action."
)


class AttributePipelineError(Exception):
    """Base error for the attribute pipeline."""


class CorpusFormatError(AttributePipelineError):
    """A record of a description corpus or of an attribute-records file is
    malformed; carries the record's 1-based index."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class DuplicateClassError(CorpusFormatError):
    pass


class ExtractionError(AttributePipelineError):
    """The extractor found no keyword in a class description."""


@dataclass(frozen=True)
class ClassDescription:
    """One action class with its free-text description."""

    class_name: str
    description: str
    source_tag: str = ""

    def __post_init__(self):
        if not self.class_name:
            raise ValueError("class_name must be non-empty")
        if not self.description:
            raise ValueError(f"description for {self.class_name!r} must be non-empty")


@dataclass(frozen=True)
class AttributeRecord:
    """The attribute pipeline's result for one class, one line of
    ``attributes.jsonl``.

    ``prompt_sentence`` must be the class name and the keywords, single-space
    joined, in SENTENCE_TEMPLATE, and ``extractor`` "mock" (what this
    package writes) or "endpoint" (a file an external extractor wrote).
    ``shortfall`` is set when the candidate pool was smaller than the
    requested count, in which case all candidates are kept.
    """

    class_name: str
    keywords: tuple[str, ...]
    extractor: str  # "mock" | "endpoint"
    prompt_sentence: str
    shortfall: bool

    def __post_init__(self):
        if not self.class_name:
            raise ValueError("class_name must be non-empty")
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError("keywords must be unique")
        if self.extractor not in ("mock", "endpoint"):
            raise ValueError(f"extractor must be one of 'mock', 'endpoint', got {self.extractor!r}")
        sentence = _compose_sentence(self.class_name, self.keywords)
        if self.prompt_sentence != sentence:
            raise ValueError(f"prompt_sentence must be {sentence!r} for its class and "
                             f"keywords, got {self.prompt_sentence!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "class": self.class_name,
                "keywords": list(self.keywords),
                "extractor": self.extractor,
                "prompt_sentence": self.prompt_sentence,
                "shortfall": self.shortfall,
            },
            ensure_ascii=False,
        )


def _compose_sentence(class_name: str, keywords: Sequence[str]) -> str:
    """The class name and the keywords, single-space joined, in the sentence
    template."""
    return SENTENCE_TEMPLATE.format(" ".join((class_name, *keywords)))


@functools.cache
def load_stopwords() -> frozenset[str]:
    """The versioned stopword list shipped in the package, read once."""
    text = resources.files("stilab").joinpath("data/stopwords.txt").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word)
    return frozenset(words)


def load_description_corpus(path) -> dict[str, ClassDescription]:
    """Read a line-delimited JSON corpus of {class_name, description, source_tag}."""
    return parse_description_corpus(Path(path).read_bytes(), path)


def _json_objects(data: bytes, path):
    """Yield (index, where, object) for each non-blank line of the JSON-lines
    bytes read from ``path``: the line's 1-based index, the error prefix
    naming it, and its parsed object. Lines end at ``\\n``, ``\\r\\n`` or
    ``\\r``; a line that is not UTF-8 JSON text of an object raises
    CorpusFormatError."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for index, raw in enumerate(lines, start=1):
        where = f"{path}: record {index}"
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{where}: not UTF-8 text: {exc}", index) from exc
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{where}: invalid JSON: {exc}", index) from exc
        if not isinstance(payload, dict):
            raise CorpusFormatError(f"{where}: expected an object", index)
        yield index, where, payload


def parse_description_corpus(data: bytes, path) -> dict[str, ClassDescription]:
    """Parse the bytes of a description corpus read from ``path``.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and blank lines are
    skipped. A record that is not UTF-8 JSON text, not an object of string
    fields, or that repeats a class name raises CorpusFormatError with the
    file's path and the record's 1-based index.
    """
    corpus: dict[str, ClassDescription] = {}
    for index, where, payload in _json_objects(data, path):
        fields = {key: payload.get(key, "") for key in ("class_name", "description", "source_tag")}
        for key, value in fields.items():
            if not json_value_fits(value, str):
                raise CorpusFormatError(f"{where}: {key} must be a string, got {value!r}", index)
        try:
            entry = ClassDescription(**fields)
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: {exc}", index) from exc
        if entry.class_name in corpus:
            raise DuplicateClassError(f"{where}: duplicate class {entry.class_name!r}", index)
        corpus[entry.class_name] = entry
    return corpus


def extract_keywords(class_name: str, description: str) -> list[str]:
    """The mock extractor: the content words of ``description``, ranked by
    descending frequency, ties broken by first occurrence. They are
    lowercase, unique and free of stopwords. A description without content
    words is an error, never a silent empty result."""
    if not description:
        raise ValueError("description must be non-empty")
    stopwords = load_stopwords()
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for position, token in enumerate(tokenize(description)):
        if token in stopwords:
            continue
        counts[token] = counts.get(token, 0) + 1
        first_seen.setdefault(token, position)
    if not counts:
        raise ExtractionError(f"mock extractor found no content words for class {class_name!r}")
    return sorted(counts, key=lambda w: (-counts[w], first_seen[w]))


def build_attribute_set(entry: ClassDescription, num_attributes: int) -> AttributeRecord:
    """Extract one class's keywords, keep the first ``num_attributes``, and
    compose its prompt sentence.

    A smaller pool keeps everything and sets the shortfall flag; zero keeps
    nothing (the label-only ablation arm). A negative count is rejected
    before anything is extracted.
    """
    if num_attributes < 0:
        raise ValueError("num_attributes must be >= 0")
    keywords = tuple(extract_keywords(entry.class_name, entry.description)[:num_attributes])
    return AttributeRecord(
        class_name=entry.class_name,
        keywords=keywords,
        extractor="mock",
        prompt_sentence=_compose_sentence(entry.class_name, keywords),
        shortfall=len(keywords) < num_attributes,
    )


def run_attribute_pipeline(
    corpus: Mapping[str, ClassDescription], num_attributes: int
) -> list[AttributeRecord]:
    """Produce one AttributeRecord per corpus entry, in corpus order. A
    negative count is rejected even when the corpus is empty."""
    if num_attributes < 0:
        raise ValueError("num_attributes must be >= 0")
    return [build_attribute_set(entry, num_attributes) for entry in corpus.values()]


def save_attribute_records(path, records: Sequence[AttributeRecord]) -> Path:
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")
    return path


def load_attribute_records(path) -> list[AttributeRecord]:
    """Read the records ``save_attribute_records`` wrote. A record that is not
    UTF-8 JSON text, not an object holding each field with its written type,
    or one that AttributeRecord rejects (among them a prompt sentence other
    than its class's and keywords', and an extractor other than "mock" or
    "endpoint") raises CorpusFormatError with the file's path and the
    record's 1-based index; a repeated class raises DuplicateClassError.

    ``shortfall`` is read as written and not checked: the file does not
    record the requested count it was set against."""
    records: dict[str, AttributeRecord] = {}
    for index, where, payload in _json_objects(Path(path).read_bytes(), path):
        for key, kind in (("class", str), ("extractor", str), ("prompt_sentence", str),
                          ("shortfall", bool)):
            if not json_value_fits(payload.get(key), kind):
                raise CorpusFormatError(
                    f"{where}: {key} must be a {kind.__name__}, got {payload.get(key)!r}", index)
        keywords = payload.get("keywords")
        if not (isinstance(keywords, list) and all(json_value_fits(k, str) for k in keywords)):
            raise CorpusFormatError(
                f"{where}: keywords must be a list of strings, got {keywords!r}", index)
        try:
            record = AttributeRecord(
                class_name=payload["class"],
                keywords=tuple(keywords),
                extractor=payload["extractor"],
                prompt_sentence=payload["prompt_sentence"],
                shortfall=payload["shortfall"],
            )
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: {exc}", index) from exc
        if record.class_name in records:
            raise DuplicateClassError(f"{where}: duplicate class {record.class_name!r}", index)
        records[record.class_name] = record
    return list(records.values())
