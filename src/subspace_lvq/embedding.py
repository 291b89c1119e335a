"""Word embeddings and text preprocessing.

Loads whitespace-format embedding files (one ``word c_1 ... c_D`` entry per
line) through a validated binary cache kept beside each file, tokenizes raw
case text, removes stop words, and assembles the per-document word-vector
matrix consumed by the subspace layer.
"""

from __future__ import annotations

import hashlib
import io
import logging
import zlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import DimensionError, EmptyDocumentError, FormatError

log = logging.getLogger(__name__)

# Pure-digit tokens longer than this carry no embedding signal (years and
# application numbers are shorter or contain separators).
_MAX_DIGIT_RUN = 4

#: Appended to an embedding file's name to give the path of its parsed-table cache.
CACHE_SUFFIX = ".slvq-cache"
_CACHE_VERSION = 1
# ``checksum`` is the CRC-32 of the duplicate count, the word bytes and the
# matrix bytes; it catches damage that leaves every array well-formed.
_CACHE_META = np.dtype([("version", "<u4"), ("digest", "S64"), ("duplicates", "<u8"),
                        ("checksum", "<u4")])
_CHUNK = 1 << 20


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable word -> vector map of fixed dimension.

    Safe to share across threads once loaded; vectors are float64 and all
    have length ``dim``.
    """

    dim: int
    entries: dict[str, np.ndarray]
    source_name: str = ""

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def vector(self, word: str) -> np.ndarray | None:
        return self.entries.get(word)


@dataclass
class PreprocessedDoc:
    """Token stream of one document after tokenization and stop-word removal.

    ``dropped_oov`` and ``coverage`` are filled in by :func:`embed`:
    coverage = embedded / (embedded + dropped_oov).
    """

    doc_id: str
    kept_tokens: list[str]
    dropped_stopwords: int = 0
    dropped_oov: int = 0
    coverage: float = 1.0


@dataclass
class WordMatrix:
    """D x n matrix whose column j is the embedding of ``tokens[j]``."""

    doc_id: str
    columns: np.ndarray
    tokens: list[str] = field(default_factory=list)

    @property
    def n_words(self) -> int:
        return self.columns.shape[1]


def load_embeddings(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Load a text-format embedding file.

    Each line is a token followed by D space-separated decimal floats.
    Duplicate words keep the last occurrence (a warning with the duplicate
    count is logged).

    The parsed table is kept in a binary cache beside the file
    (``<name>.slvq-cache``), keyed by the file's SHA-256.  A later load of
    the same bytes reads the cache instead of parsing the text; an edited
    file, or a cache that is missing, stale or damaged in any way, is
    parsed again and the cache rewritten.  Both paths give bit-identical
    vectors, and every entry is a row view of one ``(V, D)`` matrix.

    Raises
    ------
    FormatError
        On unreadable or non-UTF-8 files, malformed floats, inconsistent
        dimensions, or an empty file.
    DimensionError
        If ``expected_dim`` is given and does not match the file.
    """
    path = Path(path)
    try:
        digest = _sha256(path)
    except OSError as exc:
        raise FormatError(f"cannot read embedding file: {exc}", path=path) from exc
    cache = path.with_name(path.name + CACHE_SUFFIX)
    cached = _read_cache(cache, digest)
    if cached is None:
        words, matrix, duplicates, digest = _parse_text(path)
        _write_cache(cache, digest, words, matrix, duplicates)
    else:
        words, matrix, duplicates = cached
    if duplicates:
        log.warning("%s: %d duplicate words, last occurrence kept", path, duplicates)
    dim = matrix.shape[1]
    if expected_dim is not None and dim != expected_dim:
        raise DimensionError(
            f"{path}: embedding dimension {dim} does not match expected {expected_dim}"
        )
    return EmbeddingTable(dim=dim, entries=dict(zip(words, matrix)), source_name=path.name)


class _HashingReader(io.RawIOBase):
    """Binary reader that feeds every byte it returns into a hash."""

    def __init__(self, raw, digest):
        self._raw = raw
        self._digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        self._digest.update(memoryview(buffer)[:count])
        return count

    def close(self) -> None:
        self._raw.close()
        super().close()


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _row_capacity(path: Path) -> int:
    """Upper bound on the number of lines text-mode reading will yield.

    Universal newlines end a line at LF, CR or CR LF, so counting LF and CR
    bytes never undercounts.  Rows left unused (blank lines, duplicates,
    CR LF counted twice) are never written, so their pages stay untouched.
    """
    breaks = 0
    with path.open("rb") as handle:
        while chunk := handle.read(_CHUNK):
            breaks += chunk.count(b"\n") + chunk.count(b"\r")
    return breaks + 1


def _parse_text(path: Path):
    """Parse the text format: (words, (V, D) matrix, duplicates, SHA-256 of the bytes read).

    The digest is taken from the bytes the parser reads, not from an earlier
    pass, so a cache never pairs one version of the file with another's data.
    """
    try:
        capacity = _row_capacity(path)
        raw = path.open("rb")
    except OSError as exc:
        raise FormatError(f"cannot read embedding file: {exc}", path=path) from exc
    digest = hashlib.sha256()
    rows: dict[str, int] = {}
    matrix = None
    duplicates = 0
    with io.TextIOWrapper(io.BufferedReader(_HashingReader(raw, digest), _CHUNK),
                          encoding="utf-8") as handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                parts = line.rstrip("\n").split(" ")
                if parts == [""]:
                    continue
                if len(parts) < 2:
                    raise FormatError("expected a token and at least one float",
                                      path=path, line=lineno)
                try:
                    values = [float(p) for p in parts[1:]]
                except ValueError as exc:
                    raise FormatError(f"malformed float: {exc}", path=path, line=lineno) from exc
                if matrix is None:
                    matrix = np.empty((capacity, len(values)), dtype=np.float64)
                elif len(values) != matrix.shape[1]:
                    raise FormatError(
                        f"inconsistent dimension: expected {matrix.shape[1]}, got {len(values)}",
                        path=path, line=lineno,
                    )
                row = rows.get(parts[0])
                if row is not None:
                    duplicates += 1
                elif len(rows) == capacity:
                    raise FormatError("file changed while it was read", path=path)
                else:
                    row = rows[parts[0]] = len(rows)
                matrix[row] = values
                if not np.isfinite(matrix[row]).all():
                    raise FormatError("non-finite embedding component", path=path, line=lineno)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}", path=path) from exc
    if matrix is None:
        raise FormatError("empty embedding file", path=path)
    return list(rows), matrix[: len(rows)], duplicates, digest.hexdigest()


def _checksum(duplicates: int, blob: np.ndarray, matrix: np.ndarray) -> int:
    crc = zlib.crc32(duplicates.to_bytes(8, "little"))
    return zlib.crc32(matrix, zlib.crc32(blob, crc))


def _read_cache(cache: Path, digest: str):
    """(words, matrix, duplicates) from a valid cache of the text whose SHA-256 is ``digest``.

    Returns None, and the caller parses the text, when the cache is missing,
    was written for other bytes or by another cache version, or fails any
    check.
    """
    try:
        with cache.open("rb") as handle:
            meta, blob, matrix = (np.load(handle, allow_pickle=False) for _ in range(3))
            trailing = handle.read(1)
    except FileNotFoundError:
        return None
    except Exception as exc:  # noqa: BLE001 - an unreadable cache is rebuilt, never fatal
        log.info("%s: unreadable embedding cache, rebuilding: %r", cache, exc)
        return None
    if (meta.dtype == _CACHE_META and meta.shape == () and not trailing
            and meta["version"] == _CACHE_VERSION and meta["digest"] == digest.encode("ascii")
            and blob.dtype == np.uint8 and blob.ndim == 1
            and matrix.dtype == np.float64 and matrix.ndim == 2 and matrix.shape[1] > 0
            and matrix.flags.c_contiguous
            and meta["checksum"] == _checksum(int(meta["duplicates"]), blob, matrix)
            and np.isfinite(matrix).all()):
        try:
            words = blob.tobytes().decode("utf-8").split("\n")
        except UnicodeDecodeError:
            words = []
        if len(words) == matrix.shape[0] == len(set(words)):
            return words, matrix, int(meta["duplicates"])
    log.info("%s: stale or damaged embedding cache, rebuilding", cache)
    return None


def _write_cache(cache: Path, digest: str, words: list[str], matrix: np.ndarray,
                 duplicates: int) -> None:
    """Store a parsed table as three ``np.save`` records: meta, words, matrix.

    Words are joined by newlines (no word contains one) into UTF-8 bytes.
    An unwritable directory costs only the cache, never the load.
    """
    blob = np.frombuffer("\n".join(words).encode("utf-8"), dtype=np.uint8)
    meta = np.array((_CACHE_VERSION, digest.encode("ascii"), duplicates,
                     _checksum(duplicates, blob, matrix)), dtype=_CACHE_META)
    try:
        with atomic_write(cache) as handle:
            for record in (meta, blob, matrix):
                np.save(handle, record, allow_pickle=False)
    except OSError as exc:
        log.warning("%s: cannot write embedding cache: %s", cache, exc)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write a table back to the text format, bit-exactly round-trippable."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for word, vec in table.entries.items():
            handle.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization.

    Leading/trailing characters that are not letters or digits are stripped,
    empty results are dropped, and pure-digit tokens longer than four
    characters are discarded.  Deterministic and idempotent.
    """
    tokens = []
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        tok = raw[start:end]
        if not tok:
            continue
        if tok.isdigit() and len(tok) > _MAX_DIGIT_RUN:
            continue
        tokens.append(tok)
    return tokens


def default_stopwords_path() -> Path:
    """Path of the English stop-word list shipped with the package."""
    return Path(str(resources.files("subspace_lvq").joinpath("data/stopwords_en.txt")))


def load_stopwords(path=None) -> frozenset[str]:
    """Read a stop-word file: one lowercase word per line, ``#`` comments.

    Without a path, the packaged default English list is used.
    """
    path = Path(path) if path is not None else default_stopwords_path()
    words = set()
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read stop-word file: {exc}", path=path) from exc
    with handle:
        for line in handle:
            word = line.strip()
            if word and not word.startswith("#"):
                words.add(word.lower())
    return frozenset(words)


def remove_stopwords(tokens: list[str], stoplist) -> tuple[list[str], int]:
    """Filter tokens against a stop list, preserving order.

    Returns the kept tokens and the number dropped.
    """
    kept = [t for t in tokens if t not in stoplist]
    return kept, len(tokens) - len(kept)


def preprocess(doc_id: str, text: str, stoplist) -> PreprocessedDoc:
    """Tokenize and stop-filter one document."""
    tokens = tokenize(text)
    kept, dropped = remove_stopwords(tokens, stoplist)
    return PreprocessedDoc(doc_id=doc_id, kept_tokens=kept, dropped_stopwords=dropped)


def embed(doc: PreprocessedDoc, table: EmbeddingTable) -> WordMatrix:
    """Map a document's kept tokens to an embedding matrix.

    Out-of-vocabulary tokens are skipped entirely (no zero columns, which
    would distort the SVD basis); ``doc.dropped_oov`` and ``doc.coverage``
    are updated in place.

    Raises
    ------
    EmptyDocumentError
        If no token has an embedding.  Batch callers typically skip the
        document with a warning; single-document callers abort.
    """
    vectors = []
    tokens = []
    oov = 0
    for tok in doc.kept_tokens:
        vec = table.entries.get(tok)
        if vec is None:
            oov += 1
        else:
            vectors.append(vec)
            tokens.append(tok)
    doc.dropped_oov = oov
    if not vectors:
        doc.coverage = 0.0
        raise EmptyDocumentError(doc.doc_id)
    doc.coverage = len(tokens) / (len(tokens) + oov)
    columns = np.column_stack(vectors)
    return WordMatrix(doc_id=doc.doc_id, columns=columns, tokens=tokens)
