"""Exception hierarchy shared across the package.

A class exists here only when code in the package catches it by type or
reads its data, or when it names a fault a caller counts apart (the backend
faults). Otherwise a precondition on a plain argument raises ``ValueError``,
and bad input data (a dataset row, a run file, a gold label, a class too
small to split) raises ``SchemaError`` with a message naming its source.
"""

from __future__ import annotations


class TagcraftError(Exception):
    """Base class for all package-specific errors."""


class FileIOError(TagcraftError):
    """A file could not be read or written."""


class SchemaError(TagcraftError):
    """Input data does not have the expected shape; the message names its source."""


class TransportError(TagcraftError):
    """Backend network-level failure or server error; retryable."""


class RateLimitedError(TagcraftError):
    """Backend HTTP 429; retryable with backoff."""


class BackendRejectedError(TagcraftError):
    """Non-retryable 4xx rejection from the backend."""


class FallbackParseError(TagcraftError):
    """Completion-based label scoring matched no candidate (or several)."""


class UnboundPlaceholderError(TagcraftError, KeyError):
    """A prompt template placeholder was left unbound."""

    def __init__(self, placeholder: str):
        super().__init__(placeholder)
        self.placeholder = placeholder

    def __str__(self) -> str:
        return f"unbound template placeholder: {self.placeholder!r}"


class DescriptorParseError(TagcraftError):
    """No usable descriptor JSON could be extracted from a completion."""


class ContrastDroppedAllError(TagcraftError):
    """A contrast reply matched none of the existing category names."""


class DuplicateNameError(TagcraftError):
    """A category with this name (case-insensitively) already exists."""


class UnknownCategoryError(TagcraftError):
    """The named category does not exist in the taxonomy."""


class PromptBudgetError(TagcraftError):
    """A classification prompt exceeded the configured character budget.

    Descriptions are never truncated for classification; the operation
    fails loudly instead.
    """


class ClassificationError(TagcraftError):
    """A document could not be classified."""

    def __init__(self, document_id: str, message: str):
        super().__init__(document_id, message)
        self.document_id = document_id
        self.message = message

    def __str__(self) -> str:
        return f"classification failed for document {self.document_id!r}: {self.message}"


class RefinementAbortedError(TagcraftError):
    """The refinement loop failed partway; partial iteration records are kept.

    The underlying stage error is available as ``__cause__``.
    """

    def __init__(self, message: str, iterations: list):
        super().__init__(message)
        self.iterations = iterations
