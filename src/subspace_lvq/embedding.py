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
_CACHE_VERSION = 1
# ``checksum`` is the CRC-32 of the duplicate count, the word bytes and the
# matrix bytes; it catches damage that leaves every array well-formed.
_CACHE_META = np.dtype([("version", "<u4"), ("digest", "S64"), ("duplicates", "<u8"),
                        ("checksum", "<u4")])
_CHUNK = 1 << 20
# float64 values per read slice of a cached matrix (1 MiB): each slice is
# checked while it is in cache, so a hit holds the matrix plus one slice's
# ``np.isfinite`` temporary.
_SLICE = (1 << 20) // 8
# The hashing buffer.  Hashing a 57 MB file took the same ~40 ms with this
# and with a 1 MiB buffer, but the 1 MiB one, allocated on the hashing
# thread, raised peak RSS by about 1 MiB more.
_HASH_CHUNK = 1 << 18


class RowMap(Mapping):
    """Read-only word -> vector mapping over the rows of one ``(V, D)`` matrix.

    ``rows`` maps each word to its row; every value is a view of that row.
    """

    def __init__(self, rows: dict[str, int], matrix: np.ndarray):
        self.rows = rows
        self.matrix = matrix

    def __getitem__(self, word: str) -> np.ndarray:
        return self.matrix[self.rows[word]]

    def __contains__(self, word) -> bool:
        return word in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable word -> vector map of fixed dimension.

    Safe to share across threads once loaded; vectors are float64 and all
    have length ``dim``.  ``entries`` is a :class:`RowMap`: ``matrix`` is
    the ``(V, D)`` table, ``rows`` maps each word to its row, and each
    value is a row view.  Any other mapping given as ``entries`` is
    stacked into one.
    """

    dim: int
    entries: Mapping[str, np.ndarray]

    def __post_init__(self):
        if not isinstance(self.entries, RowMap):
            matrix = np.array(list(self.entries.values()), dtype=np.float64)
            object.__setattr__(self, "entries", RowMap(
                {word: row for row, word in enumerate(self.entries)},
                matrix.reshape(len(self.entries), self.dim)))

    @property
    def matrix(self) -> np.ndarray:
        return self.entries.matrix

    @property
    def rows(self) -> dict[str, int]:
        return self.entries.rows

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

    When there is no cache file, the text is parsed at once and hashed by
    the parse.  Otherwise, for a file larger than one read chunk (1 MiB),
    the SHA-256 is computed on one worker thread while the calling thread
    reads and checks the cache.  Both release the GIL, so the two passes
    overlap, at the cost of one thread and one 256 KiB read buffer per
    load.  The key and every check are those of a smaller file, which is
    hashed first and its cache read after, because a thread start would
    cost more than it saves there.  No worker is left running when this
    function returns or raises.  The cached matrix is read and checked in
    1 MiB slices, so a hit holds the matrix and little else.

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
            _write_cache(cache, digest, rows, matrix, duplicates)
        else:
            rows, matrix, duplicates, _ = cached
    if duplicates:
        log.warning("%s: %d duplicate words, last occurrence kept", path, duplicates)
    dim = matrix.shape[1]
    if expected_dim is not None and dim != expected_dim:
        raise DimensionError(
            f"{path}: embedding dimension {dim} does not match expected {expected_dim}"
        )
    return EmbeddingTable(dim=dim, entries=RowMap(rows, matrix))


def _read_hit(path: Path, cache: Path):
    """:func:`_read_cache`'s result if the cache is keyed by the text's SHA-256, else None."""
    # A worker thread on every load raised the median load time of an
    # 82 KB table from 0.56 to 0.93 ms (BENCH_7.json), so small files
    # stay sequential.
    if path.stat().st_size <= _CHUNK:
        digest = _sha256(path)
        cached = _read_cache(cache)
    else:
        # Imported only here: the module adds ~0.35 MiB of peak RSS,
        # which a process that loads only small tables need not pay.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            hashing = pool.submit(_sha256, path)
            cached = _read_cache(cache)
            digest = hashing.result()
    if cached is not None and cached[3] != digest.encode("ascii"):
        log.info("%s: stale or damaged embedding cache, rebuilding", cache)
        return None
    return cached


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
    # Unlike bytearray, np.empty leaves the buffer unzeroed, so a small file
    # touches only the pages it fills.
    buffer = np.empty(_HASH_CHUNK, dtype=np.uint8)
    with path.open("rb", buffering=0) as handle:
        while count := handle.readinto(buffer):
            digest.update(buffer[:count])
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


def _read_cache(cache: Path):
    """(word -> row, matrix, duplicates, the text's SHA-256 as ASCII hex) from a valid cache.

    Returns None, and the caller parses the text, when the cache is missing,
    was written by another cache version, or fails any check.  The caller
    compares the returned digest with the text's own.
    """
    try:
        with cache.open("rb") as handle:
            cached = _read_cache_records(handle)
    except FileNotFoundError:
        return None
    except Exception as exc:  # noqa: BLE001 - an unreadable cache is rebuilt, never fatal
        log.info("%s: unreadable embedding cache, rebuilding: %r", cache, exc)
        return None
    if cached is None:
        log.info("%s: stale or damaged embedding cache, rebuilding", cache)
    return cached


def _read_cache_records(handle):
    """:func:`_read_cache`'s result from an open cache, or None if a check fails.

    The matrix record is not loaded whole: its header is checked against
    the bytes left in the file, and its data is read into one ``(V, D)``
    array slice by slice, each slice checksummed and tested for finite
    values while it is in cache.
    """
    meta = np.load(handle, allow_pickle=False)
    blob = np.load(handle, allow_pickle=False)
    if not (meta.dtype == _CACHE_META and meta.shape == () and meta["version"] == _CACHE_VERSION
            and blob.dtype == np.uint8 and blob.ndim == 1):
        return None
    if np.lib.format.read_magic(handle) != (1, 0):   # np.save writes 2.0 only past 64 KiB
        return None
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
    if not (dtype == np.float64 and len(shape) == 2 and shape[1] > 0 and not fortran_order
            and 8 * shape[0] * shape[1] == os.fstat(handle.fileno()).st_size - handle.tell()):
        return None
    words = str(blob, "utf-8").split("\n")
    rows = dict(zip(words, range(len(words))))
    if not len(words) == len(rows) == shape[0]:   # a missing, extra or repeated word
        return None
    duplicates = int(meta["duplicates"])
    crc = _checksum(duplicates, blob)
    matrix = np.empty(shape, dtype=np.float64)
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
    if crc != meta["checksum"]:
        return None
    return rows, matrix, duplicates, bytes(meta["digest"])


def _write_cache(cache: Path, digest: str, rows: dict[str, int], matrix: np.ndarray,
                 duplicates: int) -> None:
    """Store a parsed table as three ``np.save`` records: meta, words, matrix.

    Words are joined in row order by newlines (no word contains one) into
    UTF-8 bytes.  An unwritable directory costs only the cache, never the load.
    """
    blob = np.frombuffer("\n".join(rows).encode("utf-8"), dtype=np.uint8)
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
