"""Batch query execution: group by pattern class, fan out over threads.

A :class:`~repro.serving.reader.StoreReader` loads each class's
occurrence rows at most once per store version, so the expensive part of
a cold batch is the *first* query touching each class.  The executor
therefore groups queries by :meth:`StoreReader.class_key` and runs each
group as one unit on a thread pool: the group's first query pays the row
load, the rest hit the in-memory rows (or the result cache), and
distinct classes load in parallel.

Failures are per-query: a query whose pattern has an unknown label (or
any other :class:`~repro.exceptions.ReproError`) yields that exception
object in its result slot instead of poisoning the whole batch; an
unexpected non-library exception is wrapped in a :class:`ReproError`
(with ``__cause__`` preserved) rather than allowed to abandon the
other groups mid-flight.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.exceptions import ReproError
from repro.serving.reader import (
    SIMILARITY_OPS,
    Query,
    ServingAnswer,
    StoreReader,
)

__all__ = ["BatchExecutor", "Query"]


def _as_repro_error(exc: Exception) -> ReproError:
    """Library errors pass through; anything else is wrapped so callers
    can keep matching result slots with ``isinstance(..., ReproError)``."""
    if isinstance(exc, ReproError):
        return exc
    wrapped = ReproError(f"query failed: {exc!r}")
    wrapped.__cause__ = exc
    return wrapped


class BatchExecutor:
    """Run many queries against one reader, grouped per pattern class."""

    def __init__(self, reader: StoreReader, max_workers: int = 4) -> None:
        self.reader = reader
        self.max_workers = max(1, max_workers)

    def run(self, queries: list[Query]) -> list[ServingAnswer | ReproError]:
        """Answers in input order; failed queries hold their exception."""
        results: list[ServingAnswer | ReproError | None] = [None] * len(
            queries
        )
        groups: dict[object, list[int]] = {}
        for index, query in enumerate(queries):
            try:
                key = self._group_key(query)
            except Exception as exc:
                results[index] = _as_repro_error(exc)
                continue
            groups.setdefault(key, []).append(index)

        def run_group(indices: list[int]) -> None:
            # Any exception is recorded per query: letting one escape
            # would surface through future.result() and abandon every
            # group still holding None slots.
            for index in indices:
                query = queries[index]
                try:
                    results[index] = self.reader.query(
                        query.op, query.pattern, **query.arguments()
                    )
                except Exception as exc:
                    results[index] = _as_repro_error(exc)

        if groups:
            with ThreadPoolExecutor(
                max_workers=min(self.max_workers, len(groups))
            ) as pool:
                for future in [
                    pool.submit(run_group, indices)
                    for indices in groups.values()
                ]:
                    future.result()
        return results  # type: ignore[return-value]

    def _group_key(self, query: Query) -> object:
        if query.op == "top_k":
            return ("top_k",)
        if query.pattern is None:
            raise ReproError(f"op {query.op!r} requires a pattern")
        if query.op in SIMILARITY_OPS:
            # Similarity ops share a per-version engine (and treelet
            # index), not per-class rows — group them together so the
            # first query pays the index build and the rest reuse it
            # without racing class-row loads for pool slots.
            return ("similarity", self.reader.class_key(query.pattern))
        return ("class", self.reader.class_key(query.pattern))
