"""Table (key-value) storage — the Azure Table / DynamoDB stand-in.

Tables hold the Durable Task Framework's *history table* (the event-source
log for orchestrations) and the persisted state of durable entities.
Entities are addressed by ``(partition_key, row_key)``; every read, insert,
update and range query is a billable transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

import numpy as np

from repro.sim.kernel import Environment
from repro.storage.latency import StorageLatencyModel, default_table_latency
from repro.storage.meter import TransactionMeter
from repro.storage.payload import Payload


class EntityNotFound(KeyError):
    """Raised when reading a row that does not exist."""


class PreconditionFailed(RuntimeError):
    """A conditional update lost the optimistic-concurrency race.

    Mirrors HTTP 412 from Azure Table storage / DynamoDB's conditional
    check failure: the caller's ``if_match`` etag no longer matches the
    stored row.
    """

    def __init__(self, key: Tuple[str, str], expected: int,
                 actual: Optional[int]):
        self.key = key
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"etag mismatch on {key}: if_match={expected}, stored={actual}")


@dataclass
class TableEntity:
    """One table row."""

    partition_key: str
    row_key: str
    payload: Payload
    etag: int = 0

    @property
    def value(self) -> Any:
        return self.payload.value

    @property
    def size(self) -> int:
        return self.payload.size


class TableStore:
    """A partitioned key-value table with latency and metering."""

    def __init__(self, env: Environment, meter: TransactionMeter,
                 rng: np.random.Generator, name: str = "table",
                 account: str = "storage",
                 latency: Optional[StorageLatencyModel] = None):
        self.env = env
        self.meter = meter
        self.rng = rng
        self.name = name
        self.account = account
        self.latency = latency or default_table_latency()
        # partition_key -> row_key -> entity; a partition's dict exists
        # only while it holds rows, and ``_count`` is the total row count.
        self._partitions: Dict[str, Dict[str, TableEntity]] = {}
        self._count = 0
        #: Rows read by ``read_partition`` plus rows removed by
        #: ``delete_partition``: a deterministic work counter for
        #: complexity gates.  Diagnostic only; it never feeds outcomes,
        #: checksums or cache keys.
        self.rows_visited = 0

    def __len__(self) -> int:
        return self._count

    # -- synchronous inspection helpers --------------------------------------

    def contains(self, partition_key: str, row_key: str) -> bool:
        """True if the row exists (no transaction recorded)."""
        return row_key in self._partitions.get(partition_key, ())

    def partition_size(self, partition_key: str) -> int:
        """Number of rows in a partition (inspection only)."""
        return len(self._partitions.get(partition_key, ()))

    def _get(self, partition_key: str, row_key: str) -> Optional[TableEntity]:
        partition = self._partitions.get(partition_key)
        return None if partition is None else partition.get(row_key)

    def _put(self, entity: TableEntity) -> None:
        partition = self._partitions.setdefault(entity.partition_key, {})
        if entity.row_key not in partition:
            self._count += 1
        partition[entity.row_key] = entity

    # -- simulated operations -------------------------------------------------

    def insert(self, partition_key: str, row_key: str, value: Any,
               size: Optional[int] = None) -> Generator:
        """Insert or replace a row; yields for the round trip."""
        payload = Payload(value, size) if size is not None else Payload.wrap(value)
        duration = self.latency.operation_time(self.rng, payload.size)
        yield self.env.timeout(duration)
        current = self._get(partition_key, row_key)
        etag = current.etag + 1 if current is not None else 0
        self._put(TableEntity(partition_key, row_key, payload, etag))
        self.meter.record("table", self.account, "insert", size=payload.size)
        return etag

    def update(self, partition_key: str, row_key: str, value: Any,
               if_match: int, size: Optional[int] = None) -> Generator:
        """Replace a row only if its etag still equals ``if_match``.

        Returns the new etag on success; raises
        :class:`PreconditionFailed` when another writer got there first
        (the round trip is still billed, as on the real service) and
        :class:`EntityNotFound` when the row has vanished.
        """
        payload = Payload(value, size) if size is not None else Payload.wrap(value)
        duration = self.latency.operation_time(self.rng, payload.size)
        yield self.env.timeout(duration)
        key = (partition_key, row_key)
        entity = self._get(partition_key, row_key)
        self.meter.record("table", self.account, "update", size=payload.size)
        if entity is None:
            raise EntityNotFound(key)
        if entity.etag != if_match:
            raise PreconditionFailed(key, if_match, entity.etag)
        etag = entity.etag + 1
        self._put(TableEntity(partition_key, row_key, payload, etag))
        return etag

    def read(self, partition_key: str, row_key: str) -> Generator:
        """Read one row's value; yields for the round trip."""
        entity = self._get(partition_key, row_key)
        if entity is None:
            duration = self.latency.operation_time(self.rng, 0)
            yield self.env.timeout(duration)
            self.meter.record("table", self.account, "read", size=0)
            raise EntityNotFound((partition_key, row_key))
        duration = self.latency.operation_time(self.rng, entity.size)
        yield self.env.timeout(duration)
        self.meter.record("table", self.account, "read", size=entity.size)
        return entity.value

    def read_partition(self, partition_key: str) -> Generator:
        """Read a whole partition in row-key order (the history replay path)."""
        partition = self._partitions.get(partition_key, {})
        self.rows_visited += len(partition)
        rows = [partition[row_key] for row_key in sorted(partition)]
        size = sum(entity.size for entity in rows)
        duration = self.latency.operation_time(self.rng, size)
        yield self.env.timeout(duration)
        self.meter.record("table", self.account, "query", size=size)
        return [entity.value for entity in rows]

    def delete(self, partition_key: str, row_key: str) -> Generator:
        """Delete one row (idempotent)."""
        duration = self.latency.operation_time(self.rng, 0)
        yield self.env.timeout(duration)
        partition = self._partitions.get(partition_key)
        if partition is not None and partition.pop(row_key, None) is not None:
            self._count -= 1
            if not partition:
                del self._partitions[partition_key]
        self.meter.record("table", self.account, "delete")
        return None

    def delete_partition(self, partition_key: str) -> Generator:
        """Delete a whole partition (end-of-orchestration cleanup)."""
        duration = self.latency.operation_time(self.rng, 0)
        yield self.env.timeout(duration)
        removed = len(self._partitions.pop(partition_key, ()))
        self.rows_visited += removed
        self._count -= removed
        self.meter.record("table", self.account, "delete")
        return removed

    def __repr__(self) -> str:
        return f"TableStore(name={self.name!r}, rows={self._count})"
