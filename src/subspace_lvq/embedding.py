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
import os
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import DimensionError, EmptyDocumentError, FormatError, reading

log = logging.getLogger(__name__)

# Pure-digit tokens longer than this carry no embedding signal (years and
# application numbers are shorter or contain separators).
_MAX_DIGIT_RUN = 4

#: Appended to an embedding file's name to give the path of its parsed-table cache.
CACHE_SUFFIX = ".slvq-cache"
# A cache is this header, then a byte copy of the text, then the
# newline-joined UTF-8 words, then the (V, D) matrix as row-major
# little-endian float64.  The header holds the magic, the version, the
# text's SHA-256 as ASCII hex, the duplicate count, the CRC-32 of the digest,
# words and matrix (see _checksum), the text's byte count, the word-byte
# count, V and D.
_CACHE_HEADER = struct.Struct("<8sI64sQIQQQQ")
_CACHE_MAGIC = b"SLVQEMB\0"
_CACHE_VERSION = 3
_CACHE_FLOAT = np.dtype("<f8")
_CHUNK = 1 << 20
# Bytes per read of the text and of its copy in the cache, for both the
# comparison on a hit (two buffers) and the copy on a miss (one buffer).
_TEXT_CHUNK = 1 << 17
# float64 values per read slice of a cached matrix (1 MiB): each slice is
# checked while it is in cache, so a hit holds the matrix plus one slice's
# ``np.isfinite`` temporary.
_SLICE = (1 << 20) // 8


@dataclass(frozen=True, eq=False)
class EmbeddingTable(Mapping):
    """Immutable, read-only word -> vector mapping over one ``(V, D)`` matrix.

    Safe to share across threads once loaded.  ``rows`` maps each word to
    its row of ``matrix``, and each value is a float64 view of that row.
    Neither field is shown by ``repr``: a table may hold hundreds of
    thousands of words.  Two tables are equal when they map the same words
    to equal vectors, in any row order; a table is not hashable.
    """

    rows: dict[str, int] = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @classmethod
    def from_vectors(cls, dim: int, vectors: Mapping[str, np.ndarray]) -> EmbeddingTable:
        """Stack a word -> vector mapping, in its order, into one table."""
        matrix = np.array(list(vectors.values()), dtype=np.float64)
        return cls({word: row for row, word in enumerate(vectors)},
                   matrix.reshape(len(vectors), dim))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def entries(self) -> EmbeddingTable:
        """The table itself, for ``perfbench/workloads.py``, which reads it as a mapping."""
        return self

    def __getitem__(self, word: str) -> np.ndarray:
        return self.matrix[self.rows[word]]

    def __contains__(self, word) -> bool:
        return word in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mapping):
            return NotImplemented
        return self.keys() == other.keys() and all(
            np.array_equal(vector, other[word]) for word, vector in self.items())


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
    (``<name>.slvq-cache``), together with a byte copy of the text it was
    parsed from.  A later load of the same bytes reads the cache instead of
    parsing the text; an edited file, or a cache that is missing, stale or
    damaged in any way, is parsed again and the cache rewritten.  Both
    paths give bit-identical vectors, and every entry is a row view of one
    ``(V, D)`` matrix.

    When there is no cache file, the text is parsed at once, then copied
    into the new cache.  Otherwise, for a file larger than one read chunk
    (1 MiB), the text is compared with its copy on one worker thread while
    the calling thread reads and checks the cache.  Both release the GIL,
    so the two passes overlap, at the cost of one thread and two 128 KiB
    read buffers per load.  The checks are those of a smaller file, which
    is compared first and its cache read after, because a thread start
    would cost more than it saves there.  No worker is left running when
    this function returns or raises.  The cached matrix is read and checked
    in 1 MiB slices, so a hit holds the matrix and little else.

    Raises
    ------
    FormatError
        On unreadable or non-UTF-8 files, malformed floats, inconsistent
        dimensions, or an empty file.
    DimensionError
        If ``expected_dim`` is given and does not match the file.
    """
    path = Path(path)
    cache = path.with_name(path.name + CACHE_SUFFIX)
    with reading(path, "embedding file"):
        # Without a cache file the text is parsed at once, and the parse hashes it.
        cached = _read_hit(path, cache) if cache.exists() else None
        if cached is None:
            rows, matrix, duplicates, digest = _parse_text(path)
            _write_cache(path, cache, digest, rows, matrix, duplicates)
        else:
            rows, matrix, duplicates, _ = cached
    if duplicates:
        log.warning("%s: %d duplicate words, last occurrence kept", path, duplicates)
    dim = matrix.shape[1]
    if expected_dim is not None and dim != expected_dim:
        raise DimensionError(
            f"{path}: embedding dimension {dim} does not match expected {expected_dim}"
        )
    return EmbeddingTable(rows, matrix)


def _read_hit(path: Path, cache: Path):
    """(word -> row, matrix, duplicates, the text's SHA-256 as ASCII hex) from ``cache``, or None.

    One open of the cache reads and checks its header: the magic, the
    version, D > 0 and sizes that account for every byte.  The text is
    compared with the copy (:func:`_same_text`), and the words and matrix
    are read from the same handle (:func:`_read_table`).  The digest is the
    parse's, so no hit hashes the text.  A text that cannot be opened
    raises, and a cache that fails a check is logged.
    """
    with path.open("rb", buffering=0) as text:
        try:
            with cache.open("rb") as handle:
                # A short header raises struct.error, which is reported below.
                header = _CACHE_HEADER.unpack(handle.read(_CACHE_HEADER.size))
                magic, version, digest, duplicates, _, text_bytes, word_bytes, count, dim = header
                opened = os.fstat(handle.fileno())
                if not (magic == _CACHE_MAGIC and version == _CACHE_VERSION and dim > 0
                        and _CACHE_HEADER.size + text_bytes + word_bytes + 8 * count * dim
                        == opened.st_size):
                    table = None
                # A worker thread on every load raised the median load time of an
                # 82 KB table from 0.56 to 0.93 ms (BENCH_7.json), so small files
                # stay sequential.
                elif os.fstat(text.fileno()).st_size <= _CHUNK:
                    table = (_same_text(text, cache, text_bytes, opened)
                             and _read_table(handle, header))
                else:
                    # Imported only here: the module adds ~0.35 MiB of peak RSS,
                    # which a process that loads only small tables need not pay.
                    from concurrent.futures import ThreadPoolExecutor

                    with ThreadPoolExecutor(max_workers=1) as pool:
                        comparing = pool.submit(_same_text, text, cache, text_bytes, opened)
                        table = _read_table(handle, header)
                        table = comparing.result() and table
        except FileNotFoundError:   # removed since the caller saw it
            return None
        except Exception as exc:  # noqa: BLE001 - an unreadable cache is rebuilt, never fatal
            log.info("%s: unreadable embedding cache, rebuilding: %r", cache, exc)
            return None
    if table:
        return *table, duplicates, digest
    log.info("%s: stale or damaged embedding cache, rebuilding", cache)
    return None


def _same_text(text, cache: Path, left: int, opened: os.stat_result) -> bool:
    """Whether the open ``text`` is exactly the ``left`` bytes that follow ``cache``'s header.

    The cache must be the file whose ``os.fstat`` the caller took, ``opened``:
    an inode cannot be reused while the caller holds it open, so a cache
    replaced in between fails.  Any failure gives False.
    """
    try:
        with cache.open("rb", buffering=0) as copy:
            if not os.path.samestat(os.fstat(copy.fileno()), opened):
                return False
            copy.seek(_CACHE_HEADER.size)
            # Two reused bytearrays compared with ``==`` run at memcmp
            # speed; comparing memoryview slices, element by element,
            # was slower than hashing the text.
            mine, theirs = bytearray(min(left, _TEXT_CHUNK)), bytearray(min(left, _TEXT_CHUNK))
            while left:
                if left < len(mine):   # the last, shorter read: shrink in place
                    del mine[left:], theirs[left:]
                if not (text.readinto(mine) == copy.readinto(theirs) == len(mine)
                        and mine == theirs):
                    return False
                left -= len(mine)
            return not text.read(1)
    except Exception:  # noqa: BLE001 - a cache that cannot be compared is rebuilt
        return False


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
    """Parse the text format: (word -> row, (V, D) matrix, duplicates, SHA-256 of the bytes read).

    The digest is taken from the bytes the parser reads, not from an earlier
    pass, so a cache never pairs one version of the file with another's data.
    Read and decode errors propagate to the caller's :func:`reading` block.
    """
    capacity = _row_capacity(path)
    digest = hashlib.sha256()
    rows: dict[str, int] = {}
    matrix = None
    duplicates = 0
    with io.TextIOWrapper(io.BufferedReader(_HashingReader(path.open("rb"), digest), _CHUNK),
                          encoding="utf-8") as handle:
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
    if matrix is None:
        raise FormatError("empty embedding file", path=path)
    return rows, matrix[: len(rows)], duplicates, digest.hexdigest()


def _checksum(duplicates: int, *parts) -> int:
    """CRC-32 of the duplicate count, then of each buffer; a reader may chain on."""
    crc = zlib.crc32(duplicates.to_bytes(8, "little"))
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc


def _read_table(handle, header):
    """(word -> row, matrix) from an open cache past its ``header``, or None if a check fails.

    The matrix is read slice by slice into one ``(V, D)`` array, each slice
    checksummed and tested for finite values while it is in cache.
    """
    _, _, digest, duplicates, checksum, text_bytes, word_bytes, count, dim = header
    handle.seek(text_bytes, os.SEEK_CUR)
    blob = handle.read(word_bytes)
    words = str(blob, "utf-8").split("\n")
    rows = dict(zip(words, range(len(words))))
    if not len(words) == len(rows) == count:   # a missing, extra or repeated word
        return None
    crc = _checksum(duplicates, digest, blob)
    matrix = np.empty((count, dim), dtype=_CACHE_FLOAT)
    values = matrix.reshape(-1)
    # One mask for every slice: a fresh 128 KiB one per slice is mapped and
    # unmapped by malloc each time.
    finite = np.empty(min(values.size, _SLICE), dtype=bool)
    for start in range(0, values.size, _SLICE):
        piece = values[start:start + _SLICE]
        if (handle.readinto(piece) != piece.nbytes
                or not np.isfinite(piece, out=finite[:piece.size]).all()):
            return None
        crc = zlib.crc32(piece, crc)
    return (rows, matrix) if crc == checksum else None


def _write_cache(path: Path, cache: Path, digest: str, rows: dict[str, int],
                 matrix: np.ndarray, duplicates: int) -> None:
    """Store a table parsed from ``path`` in the cache layout: header, text, words, matrix.

    The text is streamed into the cache and hashed as it is copied.  If that
    hash is not ``digest``, the parse's, the file changed after the parse
    read it, and the cache is not written: its copy would not be the text
    the table came from.  Words are joined in row order by newlines (no word
    contains one) into UTF-8 bytes.  An unwritable directory, or a changed
    text, costs only the cache, never the load.
    """
    blob = "\n".join(rows).encode("utf-8")
    matrix = np.ascontiguousarray(matrix, dtype=_CACHE_FLOAT)
    digest = digest.encode("ascii")
    checksum = _checksum(duplicates, digest, blob, matrix)
    try:
        with path.open("rb", buffering=0) as text, atomic_write(cache) as handle:
            size = os.fstat(text.fileno()).st_size
            handle.write(_CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, digest, duplicates,
                                            checksum, size, len(blob), *matrix.shape))
            copied = hashlib.sha256()
            buffer = memoryview(bytearray(_TEXT_CHUNK))
            while count := text.readinto(buffer):
                copied.update(buffer[:count])
                handle.write(buffer[:count])
                size -= count
            if size or copied.hexdigest().encode("ascii") != digest:
                raise OSError(f"{path} changed after it was parsed")
            handle.write(blob)
            handle.write(matrix)
    except OSError as exc:
        log.warning("%s: cannot write embedding cache: %s", cache, exc)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write a table back to the text format, bit-exactly round-trippable."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for word, vec in table.items():
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
    with reading(path, "stop-word file"), path.open("r", encoding="utf-8") as handle:
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
    rows = table.rows
    tokens = [tok for tok in doc.kept_tokens if tok in rows]
    oov = len(doc.kept_tokens) - len(tokens)
    doc.dropped_oov = oov
    if not tokens:
        doc.coverage = 0.0
        raise EmptyDocumentError(doc.doc_id)
    doc.coverage = len(tokens) / (len(tokens) + oov)
    # C order: reductions over the columns (explain's word norms) round
    # differently on a transposed view.
    columns = np.take(table.matrix, [rows[tok] for tok in tokens], axis=0).T.copy()
    return WordMatrix(doc_id=doc.doc_id, columns=columns, tokens=tokens)
