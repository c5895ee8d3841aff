"""Descriptive-attribute pipeline: class descriptions in, keyword sets out.

Stages: keyword extraction from an endpoint (the deterministic mock or a
live HTTP endpoint, sent one fixed prompt), stopword/duplicate filtering,
top-N selection, and composition of the final prompt sentence. Everything
except the live endpoint is a pure function, so the mock pipeline is a
deterministic test oracle.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import threading
import urllib.request
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._fileio import atomic_open, json_value_fits
from .encoders import tokenize

ENDPOINT_ENV_VAR = "STILAB_EXTRACTOR_ENDPOINT"
MOCK_ENDPOINT = "mock"
SENTENCE_TEMPLATE = "This is a video about {}."

DEFAULT_EXTRACTION_PROMPT = (
    "Extract 5-10 essential keywords from {description} that best describe the "
    "action {action_name} in the paragraph. Focus on objects, motions, and "
    "contexts related to the action."
)

# Request settings sent to a live endpoint with every prompt.
_SAMPLING_TEMPERATURE = 0.7
_MAX_OUTPUT_TOKENS = 256
_ENDPOINT_TIMEOUT_SECONDS = 10.0


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
    """The extraction client failed: unreachable endpoint, empty or
    unparseable completion."""


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
class KeywordCandidateList:
    """Filtered keywords with consecutive 1-based ranks."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for position, (keyword, rank) in enumerate(self.entries, start=1):
            if rank != position:
                raise ValueError(f"ranks must be consecutive from 1, got {rank} at {position}")
            if keyword != keyword.lower():
                raise ValueError(f"keyword {keyword!r} is not lowercase")
            if keyword in seen:
                raise ValueError(f"duplicate keyword {keyword!r}")
            seen.add(keyword)

    @property
    def keywords(self) -> tuple[str, ...]:
        return tuple(keyword for keyword, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DescriptiveAttributeSet:
    """The selected keywords for one class.

    ``shortfall`` is set when the candidate pool was smaller than the
    requested count, in which case all candidates are kept.
    """

    class_name: str
    keywords: tuple[str, ...]
    requested_count: int
    shortfall: bool = False

    def __post_init__(self):
        if not self.class_name:
            raise ValueError("class_name must be non-empty")
        if self.requested_count < 0:
            raise ValueError("requested_count must be >= 0")
        if len(set(self.keywords)) != len(self.keywords):
            raise ValueError("keywords must be unique")
        if not self.shortfall and len(self.keywords) != self.requested_count:
            raise ValueError("keyword count must equal the requested count unless shortfall is set")


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


def _resolved_endpoint(endpoint: str) -> str:
    return os.environ.get(ENDPOINT_ENV_VAR) or endpoint


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


def _mock_keywords(description: str) -> list[str]:
    """Deterministic extraction stand-in: content words of the description,
    ranked by descending frequency, ties broken by first occurrence."""
    stopwords = load_stopwords()
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for position, token in enumerate(tokenize(description)):
        if token in stopwords:
            continue
        counts[token] = counts.get(token, 0) + 1
        first_seen.setdefault(token, position)
    return sorted(counts, key=lambda w: (-counts[w], first_seen[w]))


def _parse_endpoint_completion(text: str) -> list[str]:
    """Parse a newline- or comma-separated keyword list; anything else fails."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) == 1 and "," in lines[0]:
        lines = [part.strip() for part in lines[0].split(",") if part.strip()]
    return lines


_ENDPOINT_LOCKS: dict[str, threading.Lock] = {}
_ENDPOINT_LOCKS_GUARD = threading.Lock()


def _endpoint_lock(endpoint: str) -> threading.Lock:
    # requests to one endpoint are serialized; different endpoints proceed
    # in parallel
    with _ENDPOINT_LOCKS_GUARD:
        return _ENDPOINT_LOCKS.setdefault(endpoint, threading.Lock())


def _endpoint_keywords(class_name: str, description: str, endpoint: str) -> list[str]:
    prompt = DEFAULT_EXTRACTION_PROMPT.format(description=description, action_name=class_name)
    body = json.dumps(
        {
            "prompt": prompt,
            "temperature": _SAMPLING_TEMPERATURE,
            "max_tokens": _MAX_OUTPUT_TOKENS,
        }
    ).encode("utf-8")
    try:
        request = urllib.request.Request(
            endpoint, data=body, headers={"Content-Type": "application/json"}, method="POST"
        )
        with _endpoint_lock(endpoint):
            with urllib.request.urlopen(request, timeout=_ENDPOINT_TIMEOUT_SECONDS) as response:
                text = response.read().decode("utf-8")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        # OSError covers refused connections, timeouts and HTTP error
        # statuses; ValueError covers a malformed URL and a non-UTF-8 body
        raise ExtractionError(f"extraction endpoint unreachable: {endpoint}: {exc}") from exc
    keywords = _parse_endpoint_completion(text)
    if not keywords:
        raise ExtractionError(
            f"extraction endpoint {endpoint} returned an unparseable or empty completion"
        )
    return keywords


def extract_keywords(
    class_name: str, description: str, endpoint: str = MOCK_ENDPOINT
) -> list[str]:
    """Raw (pre-filtering) keyword list from the extractor at ``endpoint``.

    ``endpoint`` is an HTTP URL or the literal ``"mock"``; the
    STILAB_EXTRACTOR_ENDPOINT environment variable overrides it. Empty
    completions are an error, never a silent empty result.
    """
    if not description:
        raise ValueError("description must be non-empty")
    endpoint = _resolved_endpoint(endpoint)
    if endpoint == MOCK_ENDPOINT:
        keywords = _mock_keywords(description)
        if not keywords:
            raise ExtractionError(
                f"mock extractor found no content words for class {class_name!r}"
            )
        return keywords
    return _endpoint_keywords(class_name, description, endpoint)


def normalize_and_filter(
    raw: Iterable[str], stopwords: frozenset[str]
) -> KeywordCandidateList:
    """Lowercase, drop stopwords, drop duplicates keeping first occurrence,
    and reassign consecutive ranks. An empty result is legal."""
    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for keyword in raw:
        keyword = keyword.lower()
        if not keyword or keyword in stopwords or keyword in seen:
            continue
        seen.add(keyword)
        entries.append((keyword, len(entries) + 1))
    return KeywordCandidateList(tuple(entries))


def select_descriptive_attributes(
    class_name: str, candidates: KeywordCandidateList, num_attributes: int
) -> DescriptiveAttributeSet:
    """Keep the first ``num_attributes`` candidates by rank.

    A smaller pool keeps everything and sets the shortfall flag; zero keeps
    nothing (the label-only ablation arm).
    """
    if num_attributes < 0:
        raise ValueError("num_attributes must be >= 0")
    keywords = candidates.keywords[:num_attributes]
    return DescriptiveAttributeSet(
        class_name=class_name,
        keywords=keywords,
        requested_count=num_attributes,
        shortfall=len(keywords) < num_attributes,
    )


def compose_attribute_sentence(attribute_set: DescriptiveAttributeSet) -> str:
    """Single-space join of the class name and its keywords inside the
    sentence template, with a trailing period."""
    if not attribute_set.class_name:
        raise ValueError("class_name must be non-empty")
    body = " ".join((attribute_set.class_name,) + attribute_set.keywords)
    return SENTENCE_TEMPLATE.format(body)


@dataclass(frozen=True)
class AttributeRecord:
    """Serialized pipeline output for one class."""

    class_name: str
    keywords: tuple[str, ...]
    extractor: str  # "mock" | "endpoint"
    prompt_sentence: str
    shortfall: bool

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


def build_attribute_set(
    entry: ClassDescription, num_attributes: int, endpoint: str = MOCK_ENDPOINT
) -> DescriptiveAttributeSet:
    """Run extraction + filtering + selection for one class."""
    raw = extract_keywords(entry.class_name, entry.description, endpoint)
    candidates = normalize_and_filter(raw, load_stopwords())
    return select_descriptive_attributes(entry.class_name, candidates, num_attributes)


def run_attribute_pipeline(
    corpus: Mapping[str, ClassDescription],
    num_attributes: int,
    endpoint: str = MOCK_ENDPOINT,
) -> list[AttributeRecord]:
    """Produce one AttributeRecord per corpus entry, in corpus order."""
    extractor = "mock" if _resolved_endpoint(endpoint) == MOCK_ENDPOINT else "endpoint"
    records = []
    for entry in corpus.values():
        selected = build_attribute_set(entry, num_attributes, endpoint)
        records.append(
            AttributeRecord(
                class_name=entry.class_name,
                keywords=selected.keywords,
                extractor=extractor,
                prompt_sentence=compose_attribute_sentence(selected),
                shortfall=selected.shortfall,
            )
        )
    return records


def save_attribute_records(path, records: Sequence[AttributeRecord]) -> Path:
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")
    return path


def load_attribute_records(path) -> list[AttributeRecord]:
    """Read the records ``save_attribute_records`` wrote. A record that is not
    UTF-8 JSON text, or not an object holding each field with its written
    type, raises CorpusFormatError with the file's path and the record's
    1-based index."""
    records = []
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
        records.append(AttributeRecord(
            class_name=payload["class"],
            keywords=tuple(keywords),
            extractor=payload["extractor"],
            prompt_sentence=payload["prompt_sentence"],
            shortfall=payload["shortfall"],
        ))
    return records
