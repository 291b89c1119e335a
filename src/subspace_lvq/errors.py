"""Exception types shared across the toolkit, the input-file read guard, the
strict JSON decode and the per-record skip loop.

Every error raised by this package derives from :class:`ToolkitError` and
carries a short machine-readable ``category`` used by the CLI for exit
reporting.
"""

import json
import logging
from contextlib import contextmanager

log = logging.getLogger(__name__)


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"


class FormatError(ToolkitError):
    """A file does not conform to its documented format."""

    category = "format"

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = str(path)
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(loc + message)
        self.path = path
        self.line = line


@contextmanager
def reading(path, what: str):
    """Report a failure to read the input file ``path`` as a :class:`FormatError`.

    An ``OSError`` becomes "cannot read <what>: ..." and a
    ``UnicodeDecodeError`` "not UTF-8 text: ...", both naming the file.
    Open the file inside the block, so that a failed open is reported too.
    """
    try:
        yield
    except OSError as exc:
        raise FormatError(f"cannot read {what}: {exc}", path=path) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}", path=path) from exc


def strict_json(text: str, path, line=None):
    """``json.loads(text)``, with a repeated key or a lone surrogate a :class:`FormatError`.

    Both errors name ``path`` and ``line``.  A lone surrogate (U+D800–U+DFFF)
    has no UTF-8 form, and decoded UTF-8 ``text`` holds none, so only a
    ``\\ud800``-style escape can give one; an escaped pair is one character.
    Text that is not JSON raises ``json.JSONDecodeError``.
    """
    def pairs(items):
        obj = {}
        for key, value in items:
            if key in obj:
                raise FormatError(f"repeated key {key!r}", path=path, line=line)
            obj[key] = value
        return obj

    value = json.loads(text, object_pairs_hook=pairs)
    if "\\u" in text:
        try:   # what a UTF-8 writer of the value would fail on
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"string holds a lone surrogate, U+{ord(exc.object[exc.start]):04X}",
                              path=path, line=line) from None
    return value


class DimensionError(ToolkitError):
    """Incompatible dimensions between inputs (embeddings, bases, models)."""

    category = "dimension"


class DataError(ToolkitError):
    """Structurally invalid data: duplicate ids, empty classes, bad bands."""

    category = "data"


class EmptyDocumentError(DataError):
    """A document has nothing to reduce: no embeddable tokens, or only zero vectors."""

    def __init__(self, doc_id, message=None):
        super().__init__(message or f"document {doc_id!r} has no embeddable tokens")
        self.doc_id = doc_id


class NotOrthonormalError(ToolkitError):
    """A basis matrix fails the orthonormality check."""

    category = "numeric"


class DegenerateSampleError(ToolkitError):
    """Both winner distances are zero; the relative difference is undefined."""

    category = "numeric"


class NumericError(ToolkitError):
    """Non-finite values or an undefined numerical operation."""

    category = "numeric"


class UsageError(ToolkitError):
    """Invalid command-line or configuration input."""

    category = "usage"


#: A document's own faults, which batch pipelines skip and report (all-OOV or
#: empty documents, zero matrices, degenerate scores); anything else, such as
#: a dimension mismatch or a run-level :class:`DataError`, aborts the run.
PER_RECORD_ERRORS = (EmptyDocumentError, DegenerateSampleError)


def map_records(records, fn) -> tuple[list, list[tuple[str, str]]]:
    """Apply ``fn`` to each record, skipping and logging per-record failures.

    Returns the results in input order, and ``(case_id, reason)`` for each
    record whose ``fn`` raised one of :data:`PER_RECORD_ERRORS`.  After the
    per-record lines, a batch with skips logs one ``skipped N of M records``.
    """
    results = []
    skipped: list[tuple[str, str]] = []
    for rec in records:
        try:
            results.append(fn(rec))
        except PER_RECORD_ERRORS as exc:
            skipped.append((rec.case_id, str(exc)))
            log.warning("skipping %s: %s", rec.case_id, exc)
    if skipped:
        log.warning("skipped %d of %d records", len(skipped), len(results) + len(skipped))
    return results, skipped
