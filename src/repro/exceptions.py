"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Invalid graph construction or access (unknown node, duplicate edge...)."""


class TaxonomyError(ReproError):
    """Invalid taxonomy construction or lookup (cycle, unknown label...)."""


class FormatError(ReproError):
    """Malformed input while parsing a graph database or taxonomy file."""


class MiningError(ReproError):
    """Invalid mining configuration (bad support threshold, empty DB...)."""


class StoreError(ReproError):
    """A persistent pattern store is missing, corrupt, or incompatible.

    Raised by :mod:`repro.incremental` when opening a store whose format
    version is unknown, whose files fail their integrity checksums, or
    whose options/taxonomy fingerprint does not match the requested run.
    """


class WALError(StoreError):
    """A write-ahead log is corrupt or was asked for truncated history.

    Raised by :mod:`repro.streaming` when a WAL segment fails a record
    checksum away from the torn tail (a bit flip rather than a crashed
    append, which is repaired silently), when segment numbering is not
    contiguous, or when a reader requests records that were already
    truncated after being applied.
    """


class ReplicationError(StoreError):
    """Replication between a primary and its followers broke down.

    Raised by :mod:`repro.replication` when a shipped segment fails
    digest verification, a signed manifest fails authentication, the
    replication stream arrives out of order, a follower has fallen
    behind truncated history and cannot bootstrap, or a router finds no
    replica able to satisfy a request's staleness bound.
    """


class CompressionError(ReproError):
    """A compression codec is unknown, unavailable, or produced bad data.

    Raised by :mod:`repro.util.compression` when a store or WAL names a
    codec this installation cannot decode (anything but ``zlib``, e.g.
    ``zstd``) or when a compressed container fails to parse.
    """


class MemoryBudgetExceeded(ReproError):
    """A mining run exceeded its configured memory budget.

    Used by the level-wise TAcGM comparator to reproduce the paper's
    out-of-memory failure mode deterministically: the budget counts stored
    candidate/embedding cells rather than real process memory, so the
    failure point is machine-independent.
    """

    def __init__(self, used: int, budget: int, message: str = "") -> None:
        detail = f"memory budget exceeded ({message})" if message else (
            "memory budget exceeded"
        )
        super().__init__(f"{detail}: used {used} cells of {budget} allowed")
        self.used = used
        self.budget = budget
