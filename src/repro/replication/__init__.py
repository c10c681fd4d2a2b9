"""Replication: WAL-shipped follower replicas + scatter-gather routing.

The streaming tier (:mod:`repro.streaming`) made ingestion durable on
one box; this package turns that single-writer design into horizontally
scalable reads by shipping the write-ahead log:

* :mod:`repro.replication.shipper` — the primary side.
  :class:`SegmentShipper` publishes the WAL's segments as verified byte
  ranges plus a signed, versioned manifest (offset watermark, per-
  segment SHA-256s); :class:`PrimaryService` mounts the endpoints on
  the ingest service's existing HTTP socket.
* :mod:`repro.replication.follower` — the replica side.
  :class:`Follower` pulls segments, verifies checksums, re-journals the
  records into its *own* local WAL and replays them through the
  standard :class:`~repro.streaming.applier.StreamApplier`, so the
  applied offset commits atomically with the store version and a
  ``kill -9`` at any instant recovers by idempotent replay.  A replica
  that has fallen behind truncated history bootstraps from a fenced
  store snapshot.  :class:`FollowerService` adds the read-only query
  endpoints and a background sync loop.
* :mod:`repro.replication.router` — the front door.
  :class:`QueryRouter` fans ``support`` / ``contains`` / ``top_k`` /
  ``specializations`` across replicas (or shard-partitioned stores),
  merges exact supports with the :mod:`repro.parallel.merge` bit-set
  re-basing, enforces per-request staleness bounds (429 + Retry-After)
  and evicts unhealthy replicas.  :class:`RouterService` serves it over
  HTTP on the same :class:`~repro.serving.aserver.AsyncHTTPFront` as
  every other role.

Every routed answer is bit-identical to a single-store
:class:`~repro.serving.reader.StoreReader` at the same committed offset
— the differential harness in ``tests/test_replication_differential.py``
pins exactly that.
"""

from repro.replication.follower import (
    Follower,
    FollowerOptions,
    FollowerService,
    PrimaryClient,
)
from repro.replication.router import (
    HTTPReplica,
    LocalReplica,
    QueryRouter,
    ReplicaOverloaded,
    RouterOptions,
    RouterService,
    StaleReplicasError,
    router_routes,
)
from repro.replication.shipper import (
    PrimaryService,
    SegmentShipper,
    sign_manifest,
    verify_manifest,
)

__all__ = [
    "Follower",
    "FollowerOptions",
    "FollowerService",
    "HTTPReplica",
    "LocalReplica",
    "PrimaryClient",
    "PrimaryService",
    "QueryRouter",
    "ReplicaOverloaded",
    "RouterOptions",
    "RouterService",
    "SegmentShipper",
    "StaleReplicasError",
    "router_routes",
    "sign_manifest",
    "verify_manifest",
]
