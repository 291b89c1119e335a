"""Exception types shared across the toolkit, and the per-record skip loop.

Every error raised by this package derives from :class:`ToolkitError` and
carries a short machine-readable ``category`` used by the CLI for exit
reporting.
"""

import logging

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


class DimensionError(ToolkitError):
    """Incompatible dimensions between inputs (embeddings, bases, models)."""

    category = "dimension"


class EmptyDocumentError(ToolkitError):
    """A document has no in-vocabulary tokens left to embed."""

    category = "data"

    def __init__(self, doc_id, message=None):
        super().__init__(message or f"document {doc_id!r} has no embeddable tokens")
        self.doc_id = doc_id


class DataError(ToolkitError):
    """Structurally invalid data: duplicate ids, empty classes, bad bands."""

    category = "data"


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


#: Per-record failures that batch pipelines skip and report (all-OOV or
#: empty documents, zero matrices, degenerate scores); anything else, such
#: as a dimension mismatch, aborts the whole run.
PER_RECORD_ERRORS = (EmptyDocumentError, DataError, DegenerateSampleError)


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
