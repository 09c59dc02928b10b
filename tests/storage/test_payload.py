"""Tests for payload size estimation and wrapping."""

import enum
from collections import OrderedDict, defaultdict
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Payload, estimate_size
from repro.storage.payload import KB, MB, SizedObject, human_size, total_size


def test_scalar_sizes():
    assert estimate_size(None) == 4
    assert estimate_size(True) == 5
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8


def test_string_size_is_utf8_length():
    assert estimate_size("abc") == 3
    assert estimate_size("é") == 2


def test_bytes_size_is_length():
    assert estimate_size(b"\x00" * 100) == 100
    assert estimate_size(bytearray(50)) == 50


def test_numpy_array_counts_buffer():
    array = np.zeros(1000, dtype=np.float64)
    assert estimate_size(array) == 8000 + 96


def test_container_sizes_sum_members():
    assert estimate_size([1, 2, 3]) == 3 * (8 + 1) + 2
    assert estimate_size({"a": 1}) == 1 + 8 + 2 + 2


def test_payload_size_hint_attribute_wins():
    class Model(SizedObject):
        pass

    model = Model(payload_size=5 * MB)
    assert estimate_size(model) == 5 * MB


def test_opaque_object_gets_flat_charge():
    class Opaque:
        pass

    assert estimate_size(Opaque()) == 256


def test_payload_explicit_size_overrides_estimate():
    payload = Payload("tiny", size=10 * KB)
    assert payload.size == 10 * KB


def test_payload_rejects_negative_size():
    with pytest.raises(ValueError):
        Payload("x", size=-1)


def test_payload_wrap_is_idempotent():
    payload = Payload(1)
    assert Payload.wrap(payload) is payload
    assert estimate_size(payload) == payload.size


def test_total_size_sums():
    assert total_size([1, 2.0]) == 16


def test_human_size_formatting():
    assert human_size(512) == "512B"
    assert human_size(2048) == "2.0KB"
    assert human_size(int(5.2 * MB)) == "5.2MB"
    assert human_size(3 * 1024 ** 3) == "3.0GB"


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=5), children, max_size=5),
    max_leaves=20))
@settings(max_examples=100, deadline=None)
def test_estimate_size_is_nonnegative_for_json_like_values(value):
    assert estimate_size(value) >= 0


# The isinstance-chain estimator that the exact-type fast path sits in
# front of, kept verbatim as the parity oracle.
def isinstance_estimate_size(value):
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
        return sum(
            isinstance_estimate_size(key) + isinstance_estimate_size(item) + 2
            for key, item in value.items()) + 2
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(isinstance_estimate_size(item) + 1 for item in value) + 2
    size_hint = getattr(value, "payload_size", None)
    if size_hint is not None:
        return int(size_hint)
    return 256


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Point(NamedTuple):
    x: float
    y: bool


class Model(SizedObject):
    pass


class Opaque:
    pass


def nested(depth: int):
    value = {"leaf": [True, 1, 1.5, "ü"]}
    for level in range(depth):
        value = {f"level{level}": [value, (level, None)], "flag": False}
    return value


PARITY_CASES = [
    True, False, {"ok": True, 1: False}, [True, False, None],
    Level.HIGH, {Level.LOW: [Level.HIGH]},
    np.float64(2.5), np.int64(7), np.bool_(True), [np.float64(1.0)] * 3,
    Label("named"), Label("naïve"), "naïve 東京 🙂", "", "ascii only",
    OrderedDict([("a", 1), ("b", [1, 2])]),
    defaultdict(list, {"k": [1.5, "v"]}),
    Point(1.0, True), [Point(0.5, False)],
    {1, 2, 3}, frozenset({"x", "yz"}), (1, "two", 3.0),
    Payload("x", size=1234), [Payload({"a": 1})],
    Model(payload_size=5 * MB), {"model": Model(payload_size=10)},
    Opaque(), [Opaque(), None],
    b"bytes", bytearray(3), memoryview(b"abcd"), np.zeros((3, 4)),
    nested(30), 10 ** 30, -0.0, float("inf"),
]


@pytest.mark.parametrize("value", PARITY_CASES,
                         ids=lambda value: type(value).__name__)
def test_exact_type_fast_path_matches_isinstance_chain(value):
    assert estimate_size(value) == isinstance_estimate_size(value)


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=20) | st.binary(max_size=10),
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=5) | st.integers(), children,
                      max_size=5),
    max_leaves=30))
@settings(max_examples=200, deadline=None)
def test_fast_path_matches_isinstance_chain_on_random_values(value):
    assert estimate_size(value) == isinstance_estimate_size(value)
