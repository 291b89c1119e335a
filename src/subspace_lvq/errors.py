"""Exception types shared across the toolkit, the input-file read guard and
the per-record skip loop.

Every error raised by this package derives from :class:`ToolkitError` and
carries a short machine-readable ``category`` used by the CLI for exit
reporting.
"""

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
    record whose ``fn`` raised one of :data:`PER_RECORD_ERRORS`.
    """
    results = []
    skipped: list[tuple[str, str]] = []
    for rec in records:
        try:
            results.append(fn(rec))
        except PER_RECORD_ERRORS as exc:
            skipped.append((rec.case_id, str(exc)))
            log.warning("skipping %s: %s", rec.case_id, exc)
    return results, skipped
