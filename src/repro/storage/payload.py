"""Payload modeling: every value that crosses a function boundary has a size.

Both platforms enforce payload-size limits (AWS Step Functions: 256 KB,
Azure Durable cross-function messages: 64 KB) and both charge for data
movement indirectly via execution time.  To make those limits and transfer
times meaningful in simulation, values are wrapped in :class:`Payload`
objects carrying an explicit byte size.

For plain Python/numpy values an estimated serialized size is derived
automatically; workload code can also declare sizes explicitly (e.g. "this
trained model serializes to 5.2 MB") which is how the paper's reported
object sizes are honoured.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

import numpy as np

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


def estimate_size(value: Any) -> int:
    """Estimate the serialized size of ``value`` in bytes.

    The estimate approximates a JSON/pickle hybrid: numpy arrays count
    their buffer, containers count their members plus small per-item
    overhead, strings/bytes count their length.  Exact framing overhead is
    irrelevant — limits are triggered by kilobytes, not bytes.

    This is on every storage operation's path, so the common built-in
    types are matched exactly first; subclasses (``bool``, ``np.float64``,
    ``OrderedDict``, namedtuples, ...) fall through to
    :func:`_estimate_by_kind`, which gives the same sizes.
    """
    kind = type(value)
    if kind is dict:
        return _mapping_size(value)
    if kind is str:
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if kind is int or kind is float:
        return 8
    if kind is list or kind is tuple:
        return _collection_size(value)
    return _estimate_by_kind(value)


def _estimate_by_kind(value: Any) -> int:
    if value is None:
        return 4
    if isinstance(value, Payload):
        return value.size
    if isinstance(value, bool):
        return 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + 96
    if isinstance(value, np.generic):
        return int(value.nbytes)
    if isinstance(value, dict):
        return _mapping_size(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return _collection_size(value)
    size_hint = getattr(value, "payload_size", None)
    if size_hint is not None:
        return int(size_hint)
    # Fall back to a conservative flat charge for opaque objects.
    return 256


def _mapping_size(value: dict) -> int:
    total = 2
    for key, item in value.items():
        total += estimate_size(key) + estimate_size(item) + 2
    return total


def _collection_size(value: Any) -> int:
    total = 2
    for item in value:
        total += estimate_size(item) + 1
    return total


class Payload:
    """A value plus its serialized size in bytes.

    >>> Payload({'a': 1}).size > 0
    True
    >>> Payload('x' * 1000, size=5000).size
    5000
    """

    __slots__ = ("value", "size")

    def __init__(self, value: Any, size: int | None = None):
        self.value = value
        self.size = int(size) if size is not None else estimate_size(value)
        if self.size < 0:
            raise ValueError(f"negative payload size: {self.size}")

    @classmethod
    def wrap(cls, value: Any) -> "Payload":
        """Return ``value`` unchanged if already a payload, else wrap it."""
        if isinstance(value, Payload):
            return value
        return cls(value)

    def __repr__(self) -> str:
        return f"Payload(size={self.size}, value={type(self.value).__name__})"


class SizedObject:
    """Mixin for domain objects with a declared serialized size.

    Workload artifacts (trained models, encoders, video chunks) subclass or
    compose this so :func:`estimate_size` honours the size the paper
    reports rather than the in-memory numpy footprint.
    """

    def __init__(self, payload_size: int):
        self.payload_size = int(payload_size)


def total_size(values: Iterable[Any]) -> int:
    """Sum of estimated sizes over ``values``."""
    return sum(estimate_size(value) for value in values)


def human_size(size: int) -> str:
    """Render a byte count for reports: ``human_size(5452595) == '5.2MB'``."""
    if size >= GB:
        return f"{size / GB:.1f}GB"
    if size >= MB:
        return f"{size / MB:.1f}MB"
    if size >= KB:
        return f"{size / KB:.1f}KB"
    return f"{size}B"
