"""Exception types shared across the package."""


class DeltaMinError(Exception):
    """Base class for all package errors."""


class GraphFormatError(DeltaMinError):
    """Raised when textual graph input cannot be decoded.

    ``offset`` is the byte position inside the payload at which decoding
    failed, when that position is meaningful.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DomainError(DeltaMinError):
    """Raised when an argument violates a documented precondition."""


class ClassificationError(DeltaMinError):
    """Raised when a delta edge admits no class, i.e. the colouring under
    classification is not delta-minimum."""


class ContractViolationError(DeltaMinError):
    """Raised when an internal invariant that callers rely on fails, e.g. a
    Kempe swap applied to a stale decomposition."""


class ResourceLimitError(DeltaMinError):
    """Raised when an enumeration would exceed its documented size guard."""


class BatchError(DeltaMinError):
    """Raised when a batch command cannot go on: an unreadable input (a
    file, or standard input asked for twice), a colouring file with more
    lines than graphs, or a worker that died before returning its graphs.
    The command prints it as one line and exits 2."""
