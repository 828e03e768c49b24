"""Exception hierarchy for the PS3 reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class. Narrow subclasses exist for the common failure
modes (schema problems, unsupported queries, picker misuse).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A column is missing, duplicated, or used with the wrong type."""


class QueryScopeError(ReproError):
    """The query falls outside the scope PS3 supports (paper section 2.2)."""


class ExecutionError(ReproError):
    """Query execution failed (e.g., division by zero in a projection)."""


class NotFittedError(ReproError):
    """A component that requires training was used before ``fit``."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ServingError(ReproError):
    """Base class for serving-plane failures.

    Catch this to handle any way a request submitted to a
    :class:`~repro.engine.serving.ServingFrontEnd` can fail for reasons
    other than the query itself (overload, deadline, worker death,
    shutdown). Per-request query errors (bad column, bad budget) keep
    their own types.
    """


class ServingStoppedError(ServingError):
    """A request was submitted to (or stranded in) a stopped front end.

    Futures still queued when :meth:`ServingFrontEnd.stop` drains the
    admission queue fail with this error rather than hanging forever.
    Also raised when the serving worker has crashed past its restart
    cap and the front end has permanently failed.
    """


class ServingOverloadError(ServingError):
    """A request was shed at admission because the queue was full.

    Raised by ``submit``/``query`` when the bounded admission queue
    (``ServingConfig.max_queue_depth``) is at capacity; an admitted
    request always runs at its own resolved budget.
    """


class ServingTimeoutError(ServingError):
    """A request missed its deadline before an answer was produced.

    Raised when a request is already expired at admission or pick time
    (failing fast instead of wasting a sweep on it), or when a blocking
    ``query`` call's wait outlives the deadline (e.g. the worker is
    wedged mid-batch).
    """


class StorageError(ReproError):
    """An on-disk artifact could not be written, read, or trusted.

    Distinct from :class:`ConfigError`: config misuse is the caller's
    bug; storage errors describe damage or transient failures in the
    world (torn writes, bit-rot, ENOSPC, EIO).
    """


class CorruptBundleError(StorageError):
    """A persisted bundle failed a checksum or structural integrity check."""


class UnsupportedBundleError(StorageError):
    """A statistics bundle is in a format version this tree does not read
    (versions 1 and 2, which stored only sketch encodings)."""


class WalReplayError(StorageError):
    """The write-ahead log is damaged beyond its torn-tail tolerance.

    A torn final record (the expected artifact of a crash mid-append) is
    recovered from silently; this error means corruption was detected
    *before* intact records — replaying past it could fabricate state.
    """


class DegradedLoadWarning(UserWarning):
    """A load succeeded, but in degraded mode (fallback or partial data).

    Carries a machine-readable ``reason`` (e.g. ``"bak-fallback"``,
    ``"wal-torn-tail"``) so services can alert on
    specific degradations instead of string-matching messages.
    """

    def __init__(self, message: str, *, reason: str = "degraded") -> None:
        super().__init__(message)
        self.reason = reason
