"""Post-chaos invariant checks.

A chaos run proves nothing by surviving; the evidence is collected
here, after the traffic stops:

* :func:`verify_no_lost_acks` — the durability contract.  Every write
  the server acknowledged (``202`` journal ack or ``200`` applied)
  carries a WAL sequence; after faults, recovery and a flush, the
  service's applied watermark must have reached the largest acked
  sequence with the applier alive.  Because the applier replays the
  journal strictly in order, watermark coverage implies every acked
  record was applied exactly once.
* :func:`verify_version_monotonic` — the consistency contract.  Each
  client (runner worker) observes committed ``store_version`` values;
  they must never move backwards, or a query was served off a torn or
  superseded store image.
* :func:`store_digest` / :func:`verify_stores_match` — follower
  convergence: after the dust settles, a follower's store files must
  be byte-identical to the primary's.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.exceptions import ReplicationError
from repro.loadtest.harness import LoadReport
from repro.serving.client import HTTPClient

__all__ = [
    "store_digest",
    "verify_no_lost_acks",
    "verify_stores_match",
    "verify_version_monotonic",
    "wait_for_applied",
]


def wait_for_applied(
    base_url: str,
    min_seq: int,
    timeout: float = 60.0,
    interval: float = 0.05,
) -> dict:
    """Poll ``GET /lag`` until ``applied_seq >= min_seq``.

    Transport errors are retried inside the deadline (the service may
    be mid-restart).  Returns the final lag snapshot; raises
    ``TimeoutError`` with the last snapshot when the watermark never
    arrives — including when the applier died, which would otherwise
    look like an eternal lag.
    """
    deadline = time.monotonic() + timeout
    last: dict | None = None
    with HTTPClient(base_url, timeout=10.0) as client:
        while time.monotonic() < deadline:
            try:
                last = json.loads(client.get("/lag")[0])
            except (OSError, ReplicationError, ValueError):
                time.sleep(interval)
                continue
            if int(last.get("applied_seq", -1)) >= min_seq:
                return last
            if not last.get("applier_alive", True):
                raise TimeoutError(
                    f"applier died before reaching seq {min_seq}: {last}"
                )
            time.sleep(interval)
    raise TimeoutError(
        f"applied_seq never reached {min_seq} within {timeout}s; "
        f"last snapshot: {last}"
    )


def verify_no_lost_acks(
    base_url: str, report: LoadReport, timeout: float = 60.0
) -> dict:
    """Assert every acked write survived; returns the lag snapshot."""
    max_acked = report.max_acked_seq
    if max_acked is None:
        with HTTPClient(base_url, timeout=10.0) as client:
            return json.loads(client.get("/lag")[0])
    snapshot = wait_for_applied(base_url, max_acked, timeout=timeout)
    journaled = int(snapshot.get("journaled_seq", -1))
    if journaled < max_acked:
        raise AssertionError(
            f"journal lost acked writes: journaled_seq {journaled} < "
            f"max acked seq {max_acked} ({snapshot})"
        )
    return snapshot


def verify_version_monotonic(report: LoadReport) -> None:
    violations = report.version_regressions()
    if violations:
        raise AssertionError(
            "store_version moved backwards:\n  " + "\n  ".join(violations)
        )


def store_digest(store_dir: str | Path) -> str:
    """SHA-256 over the store's files (names + contents), fence-free.

    Callers quiesce the store first (stop traffic, flush); this is a
    plain filesystem fingerprint for convergence comparisons.
    """
    root = Path(store_dir)
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
    return hasher.hexdigest()


def verify_stores_match(
    primary_dir: str | Path, replica_dir: str | Path
) -> None:
    primary = store_digest(primary_dir)
    replica = store_digest(replica_dir)
    if primary != replica:
        raise AssertionError(
            f"stores diverged: primary {primary[:16]}... vs replica "
            f"{replica[:16]}..."
        )
