"""Unit tests for the tagged binary serialization codec."""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime import serialization
from repro.runtime.serialization import (
    SerializationError,
    dumps,
    loads,
    register_record,
    serialized_size,
)


class TestScalarRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            -255,
            2**31,
            -(2**31),
            2**62,
            -(2**62),
            0.0,
            1.5,
            -3.25e300,
            float("inf"),
            "",
            "hello",
            "unicode: héllo wörld ✓",
            b"",
            b"\x00\x01\xff",
        ],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_big_integer_roundtrip(self):
        value = 2**200 + 12345
        assert loads(dumps(value)) == value
        assert loads(dumps(-value)) == -value

    def test_nan_roundtrip(self):
        import math

        result = loads(dumps(float("nan")))
        assert math.isnan(result)

    def test_bool_is_not_confused_with_int(self):
        assert loads(dumps(True)) is True
        assert loads(dumps(1)) == 1
        assert loads(dumps(1)) is not True or loads(dumps(1)) == 1

    def test_numpy_scalars_are_converted(self):
        import numpy as np

        assert loads(dumps(np.int64(42))) == 42
        assert loads(dumps(np.float64(2.5))) == 2.5


class TestContainerRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, 2, 3],
            (1, "a", None),
            {"k": [1, 2], 3: (4, 5)},
            {1, 2, 3},
            frozenset({"a", "b"}),
            [[1, [2, [3]]], {"deep": {"deeper": (1,)}}],
            [(0, 5, True), (1, 3, False)],
        ],
    )
    def test_roundtrip(self, value):
        assert loads(dumps(value)) == value

    def test_tuple_and_list_are_distinguished(self):
        assert isinstance(loads(dumps((1, 2))), tuple)
        assert isinstance(loads(dumps([1, 2])), list)

    def test_set_and_frozenset_are_distinguished(self):
        assert isinstance(loads(dumps({1, 2})), set)
        assert isinstance(loads(dumps(frozenset({1, 2}))), frozenset)

    def test_dict_keys_of_mixed_types(self):
        value = {1: "a", "b": 2, (1, 2): [3]}
        assert loads(dumps(value)) == value


class TestRecords:
    def setup_method(self):
        # Snapshot the registry so types registered at import time elsewhere in
        # the library (e.g. DirectedEdgeMeta) survive these isolation tests.
        self._saved = serialization.registered_records()
        serialization.clear_registry()

    def teardown_method(self):
        serialization.clear_registry()
        for name, cls in self._saved.items():
            serialization.register_record(cls, name=name)

    def test_registered_dataclass_roundtrip(self):
        @register_record
        @dataclasses.dataclass(frozen=True)
        class EdgeMeta:
            timestamp: float
            label: str

        value = EdgeMeta(12.5, "purchase")
        assert loads(dumps(value)) == value

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class NotRegistered:
            x: int

        with pytest.raises(SerializationError):
            dumps(NotRegistered(1))

    def test_non_dataclass_cannot_be_registered(self):
        class Plain:
            pass

        with pytest.raises(SerializationError):
            register_record(Plain)

    def test_duplicate_name_rejected(self):
        @dataclasses.dataclass
        class A:
            x: int

        register_record(A, name="shared")

        @dataclasses.dataclass
        class B:
            y: int

        with pytest.raises(SerializationError):
            register_record(B, name="shared")

    def test_nested_records(self):
        @register_record
        @dataclasses.dataclass(frozen=True)
        class Inner:
            value: int

        @register_record
        @dataclasses.dataclass(frozen=True)
        class Outer:
            inner: "Inner"
            items: list

        value = Outer(Inner(3), [Inner(1), Inner(2)])
        assert loads(dumps(value)) == value


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(SerializationError):
            dumps(object())

    def test_truncated_payload_rejected(self):
        payload = dumps([1, 2, 3])
        with pytest.raises(SerializationError):
            loads(payload[:-1])

    def test_trailing_bytes_rejected(self):
        payload = dumps(42) + b"\x00"
        with pytest.raises(SerializationError):
            loads(payload)

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"\xfe")

    def test_empty_payload_rejected(self):
        with pytest.raises(SerializationError):
            loads(b"")


class TestSizes:
    def test_small_ints_are_compact(self):
        assert serialized_size(0) == 2  # tag + single varint byte
        assert serialized_size(63) == 2
        assert serialized_size(10**6) > serialized_size(100)

    def test_strings_scale_with_length(self):
        assert serialized_size("x" * 100) - serialized_size("x" * 10) == 90

    def test_no_padding_for_variable_length_strings(self):
        # The paper stores FQDNs without padding; short and long strings must
        # cost proportionally, not a fixed record size.
        short = serialized_size("a.com")
        long = serialized_size("a-very-long-domain-name.example.org")
        assert long > short
        assert long < short + 64

    def test_deterministic_output(self):
        value = {"a": [1, 2, 3], "b": {4: (5, 6)}, "s": {7, 8, 9}}
        assert dumps(value) == dumps(value)


class TestIntSizeArray:
    """int_size_array replays serialized_size for whole int64 columns."""

    def test_matches_scalar_across_varint_boundaries(self):
        np = pytest.importorskip("numpy")
        from repro.runtime.serialization import int_size_array

        values = (
            list(range(-300, 300))
            + [2**k for k in range(1, 63)]
            + [-(2**k) for k in range(1, 64)]
            + [2**63 - 1, -(2**63), 12345678901234567]
        )
        sizes = int_size_array(np.asarray(values, dtype=np.int64))
        assert sizes.tolist() == [serialized_size(v) for v in values]

    def test_matches_scalar_on_random_int64(self):
        np = pytest.importorskip("numpy")
        from repro.runtime.serialization import int_size_array

        rng = np.random.default_rng(42)
        values = rng.integers(-(2**63), 2**63 - 1, size=5000, dtype=np.int64)
        assert int_size_array(values).tolist() == [
            serialized_size(int(v)) for v in values.tolist()
        ]


class TestSerializedSizeArray:
    """serialized_size_array replays serialized_size for whole columns."""

    @pytest.mark.parametrize(
        "values",
        [
            [0, 1, -1, 63, 64, -65, 2**40, 2**63 - 1, -(2**63)],
            [True, False, True],
            [0.5, -1.0, 1e300],
            [None, None],
            ["", "a.com", "é" * 40],
            [(1, 2.0), ("x", None, (3,))],
            [1, True, 0, False, 2**20],
            [1, 2**63, -(2**63) - 1, 2**200],
            [],
        ],
        ids=["int", "bool", "float", "none", "str", "tuple", "int-bool", "big-int", "empty"],
    )
    def test_matches_scalar(self, values):
        from repro.runtime.serialization import serialized_size_array

        sizes = serialized_size_array(values)
        assert str(sizes.dtype) == "int64"
        assert sizes.tolist() == [serialized_size(v) for v in values]
