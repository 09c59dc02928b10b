"""The partition-keyed TableStore against the flat-dict store it replaced.

``FlatTableStore`` below is the previous ``TableStore``, which kept every
row in one ``(partition_key, row_key)`` dict and scanned all of it for
partition reads and deletes.  It is the exactness oracle: seeded random
operation sequences must give the same return values, errors, row counts,
meter records and simulated clock through both stores.
"""

import random
from typing import Any, Dict, Generator, Optional, Tuple

import numpy as np
import pytest

from repro.core.parallel import CampaignSpec, execute_spec
from repro.sim import Environment
from repro.storage import EntityNotFound, TableStore, TransactionMeter
from repro.storage.latency import StorageLatencyModel, default_table_latency
from repro.storage.payload import Payload
from repro.storage.table import PreconditionFailed, TableEntity


class FlatTableStore:
    """The flat-dict table store, kept verbatim as the oracle."""

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
        self._rows: Dict[Tuple[str, str], TableEntity] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def contains(self, partition_key: str, row_key: str) -> bool:
        return (partition_key, row_key) in self._rows

    def partition_size(self, partition_key: str) -> int:
        return sum(1 for pk, _ in self._rows if pk == partition_key)

    def insert(self, partition_key: str, row_key: str, value: Any,
               size: Optional[int] = None) -> Generator:
        payload = Payload(value, size) if size is not None else Payload.wrap(value)
        duration = self.latency.operation_time(self.rng, payload.size)
        yield self.env.timeout(duration)
        key = (partition_key, row_key)
        etag = self._rows[key].etag + 1 if key in self._rows else 0
        self._rows[key] = TableEntity(partition_key, row_key, payload, etag)
        self.meter.record("table", self.account, "insert", size=payload.size)
        return etag

    def update(self, partition_key: str, row_key: str, value: Any,
               if_match: int, size: Optional[int] = None) -> Generator:
        payload = Payload(value, size) if size is not None else Payload.wrap(value)
        duration = self.latency.operation_time(self.rng, payload.size)
        yield self.env.timeout(duration)
        key = (partition_key, row_key)
        entity = self._rows.get(key)
        self.meter.record("table", self.account, "update", size=payload.size)
        if entity is None:
            raise EntityNotFound(key)
        if entity.etag != if_match:
            raise PreconditionFailed(key, if_match, entity.etag)
        etag = entity.etag + 1
        self._rows[key] = TableEntity(partition_key, row_key, payload, etag)
        return etag

    def read(self, partition_key: str, row_key: str) -> Generator:
        key = (partition_key, row_key)
        if key not in self._rows:
            duration = self.latency.operation_time(self.rng, 0)
            yield self.env.timeout(duration)
            self.meter.record("table", self.account, "read", size=0)
            raise EntityNotFound(key)
        entity = self._rows[key]
        duration = self.latency.operation_time(self.rng, entity.size)
        yield self.env.timeout(duration)
        self.meter.record("table", self.account, "read", size=entity.size)
        return entity.value

    def read_partition(self, partition_key: str) -> Generator:
        rows = sorted(
            (entity for (pk, _), entity in self._rows.items()
             if pk == partition_key),
            key=lambda entity: entity.row_key)
        size = sum(entity.size for entity in rows)
        duration = self.latency.operation_time(self.rng, size)
        yield self.env.timeout(duration)
        self.meter.record("table", self.account, "query", size=size)
        return [entity.value for entity in rows]

    def delete(self, partition_key: str, row_key: str) -> Generator:
        duration = self.latency.operation_time(self.rng, 0)
        yield self.env.timeout(duration)
        self._rows.pop((partition_key, row_key), None)
        self.meter.record("table", self.account, "delete")
        return None

    def delete_partition(self, partition_key: str) -> Generator:
        duration = self.latency.operation_time(self.rng, 0)
        yield self.env.timeout(duration)
        keys = [key for key in self._rows if key[0] == partition_key]
        for key in keys:
            del self._rows[key]
        self.meter.record("table", self.account, "delete")
        return len(keys)


PARTITIONS = ("orch-1", "orch-2", "orch-10", "entity@a")
ROWS = ("0000", "0001", "0002", "0010", "0100", "b", "a")


class Harness:
    """One store on its own kernel, meter and latency stream."""

    def __init__(self, store_class, seed: int):
        self.env = Environment()
        self.meter = TransactionMeter(clock=lambda: self.env.now)
        self.store = store_class(self.env, self.meter,
                                 np.random.default_rng(seed))

    def call(self, method: str, *args, **kwargs):
        """Drive one operation; return ``("ok", value)`` or the error."""
        generator = getattr(self.store, method)(*args, **kwargs)

        def process(env):
            return (yield from generator)

        try:
            return ("ok", self.env.run(until=self.env.process(
                process(self.env))))
        except (EntityNotFound, PreconditionFailed) as error:
            return (type(error).__name__, error.args)

    def state(self):
        store = self.store
        return (len(store), self.env.now, list(self.meter.records),
                [store.partition_size(pk) for pk in PARTITIONS + ("none",)],
                [store.contains(pk, rk) for pk in PARTITIONS
                 for rk in ROWS])


def random_value(draw: random.Random):
    kind = draw.randrange(4)
    if kind == 0:
        return draw.randrange(-10, 10 ** 6)
    if kind == 1:
        return "é" * draw.randrange(40) + "x" * draw.randrange(400)
    if kind == 2:
        return {"step": draw.randrange(50), "input": [1.5] * draw.randrange(30)}
    return None


def random_operation(draw: random.Random, oracle: FlatTableStore):
    partition = draw.choice(PARTITIONS + ("unknown",))
    row = draw.choice(ROWS)
    roll = draw.random()
    if roll < 0.30:
        size = draw.choice([None, None, draw.randrange(0, 70_000)])
        return "insert", (partition, row, random_value(draw)), {"size": size}
    if roll < 0.45:
        if oracle._rows and draw.random() < 0.7:   # mostly a live row
            partition, row = draw.choice(sorted(oracle._rows))
        stored = oracle._rows.get((partition, row))
        etag = 0 if stored is None else stored.etag
        if_match = etag + draw.choice([0, 0, -1, 1])   # sometimes stale
        return ("update", (partition, row, random_value(draw)),
                {"if_match": if_match})
    if roll < 0.60:
        return "read", (partition, row), {}
    if roll < 0.78:
        return "read_partition", (partition,), {}
    if roll < 0.92:
        return "delete", (partition, row), {}
    return "delete_partition", (partition,), {}


@pytest.mark.parametrize("seed", range(12))
def test_partitioned_store_matches_flat_store(seed):
    draw = random.Random(seed)
    oracle = Harness(FlatTableStore, seed)
    store = Harness(TableStore, seed)
    outcomes = set()
    for _ in range(300):
        method, args, kwargs = random_operation(draw, oracle.store)
        expected = oracle.call(method, *args, **kwargs)
        assert store.call(method, *args, **kwargs) == expected, (
            method, args, kwargs)
        assert store.state() == oracle.state()
        outcomes.add((method, expected[0]))
    # the sequence reached every success and error path
    assert {("update", "PreconditionFailed"), ("update", "EntityNotFound"),
            ("update", "ok"), ("read", "EntityNotFound"), ("read", "ok"),
            ("read_partition", "ok"), ("delete_partition", "ok")} <= outcomes


def test_delete_then_reinsert_resets_etag_in_both_stores():
    for store_class in (FlatTableStore, TableStore):
        harness = Harness(store_class, 0)
        assert harness.call("insert", "p", "r", 1) == ("ok", 0)
        assert harness.call("insert", "p", "r", 2) == ("ok", 1)
        assert harness.call("update", "p", "r", 3, if_match=1) == ("ok", 2)
        assert harness.call("delete", "p", "r") == ("ok", None)
        assert harness.call("update", "p", "r", 4, if_match=2) == (
            "EntityNotFound", (("p", "r"),))
        assert harness.call("insert", "p", "r", 5) == ("ok", 0)
        assert harness.call("delete_partition", "p") == ("ok", 1)
        assert harness.call("delete_partition", "p") == ("ok", 0)
        assert harness.call("insert", "p", "r", 6) == ("ok", 0)
        assert len(harness.store) == 1


def test_rows_visited_counts_only_the_partition_touched():
    harness = Harness(TableStore, 0)
    for row in ROWS:
        harness.call("insert", "big", row, 1)
    harness.call("insert", "small", "0", 1)
    harness.call("read", "big", "a")
    harness.call("delete", "big", "b")
    assert harness.store.rows_visited == 0
    assert harness.call("read_partition", "small") == ("ok", [1])
    assert harness.store.rows_visited == 1
    harness.call("read_partition", "unknown")
    assert harness.store.rows_visited == 1
    assert harness.call("delete_partition", "big") == ("ok", len(ROWS) - 1)
    assert harness.store.rows_visited == len(ROWS)
    assert len(harness.store) == 1


# -- linear scaling of history replay ---------------------------------------

def overload_spec(horizon_s: float) -> CampaignSpec:
    return CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                        campaign="overload", arrival="poisson",
                        arrival_rate_per_s=2.0, horizon_s=horizon_s,
                        seed=0, workload_seed=0, audit=True)


def table_work(monkeypatch, horizon_s: float) -> Tuple[int, int]:
    """Rows the campaign's tables visited, and the rows the flat store's
    full scans would have visited for the same partition operations."""
    tables = []
    flat_scan = [0]
    init = TableStore.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    def scanning(method):
        def wrapper(self, partition_key):
            flat_scan[0] += len(self)
            return method(self, partition_key)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(TableStore, "__init__", tracking_init)
        for name in ("read_partition", "delete_partition"):
            patch.setattr(TableStore, name,
                          scanning(getattr(TableStore, name)))
        outcome = execute_spec(overload_spec(horizon_s))
    assert outcome.audit is not None and outcome.audit.passed
    assert outcome.overload.succeeded > 0
    return sum(table.rows_visited for table in tables), flat_scan[0]


@pytest.mark.overload
def test_history_replay_table_work_scales_linearly(monkeypatch):
    horizon_s = 60.0
    visited, flat = table_work(monkeypatch, horizon_s)
    visited_2x, flat_2x = table_work(monkeypatch, 2 * horizon_s)
    assert visited > 0
    assert visited_2x / visited <= 2.2
    # The gate can fail: a whole-table scan grows about 4x here.
    assert flat_2x / flat > 3.0
