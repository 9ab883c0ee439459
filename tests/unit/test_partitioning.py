"""Regression tests for the shared key partitioner.

The producer and the transactional session must agree on where a key
lives, across processes and releases — keyed ordering and compaction are
per-partition properties.  These tests pin the byte encoding and the
resulting assignments so any change to the hash shows up as an explicit
diff, not as silently re-shuffled topics.
"""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.common import partitioning
from repro.common.clock import SimClock
from repro.common.partitioning import key_to_bytes, partition_for_key, stable_hash
from repro.messaging.cluster import MessagingCluster
from repro.messaging.producer import Producer
from repro.messaging.transactions import TransactionalProducer


class TestKeyToBytes:
    def test_bytes_pass_through(self):
        assert key_to_bytes(b"raw") == b"raw"
        assert key_to_bytes(bytearray(b"ba")) == b"ba"
        assert key_to_bytes(memoryview(b"mv")) == b"mv"

    def test_str_is_utf8(self):
        assert key_to_bytes("héllo") == "héllo".encode("utf-8")

    def test_bool_is_one_byte_not_int(self):
        # bool is an int subclass; it must NOT hash like 0/1.
        assert key_to_bytes(True) == b"\x01"
        assert key_to_bytes(False) == b"\x00"
        assert key_to_bytes(True) != key_to_bytes(1)

    def test_int_is_signed_big_endian_64(self):
        assert key_to_bytes(1) == (1).to_bytes(8, "big", signed=True)
        assert key_to_bytes(-1) == (-1).to_bytes(8, "big", signed=True)

    def test_huge_int_falls_back_to_repr(self):
        huge = 1 << 80
        assert key_to_bytes(huge) == repr(huge).encode("utf-8")

    def test_other_types_fall_back_to_repr(self):
        assert key_to_bytes((1, "x")) == repr((1, "x")).encode("utf-8")
        assert key_to_bytes(None) == b"None"

    def test_hash_is_crc32_of_encoding(self):
        for key in ["a", b"b", 7, None, 2.5]:
            assert stable_hash(key) == zlib.crc32(key_to_bytes(key))


class TestPinnedAssignments:
    """Golden values: changing any of these re-shuffles user data."""

    # A list, not a dict: 0/False and 1/True are equal as dict keys but must
    # be pinned separately (bool encodes differently from int on purpose).
    PINNED = [
        ("a", 3904355907, 3),
        ("user-42", 2097592435, 3),
        ("", 0, 0),
        (b"bytes-key", 4268147361, 1),
        (0, 1696784233, 1),
        (1, 304476159, 3),
        (-1, 558161692, 0),
        (123456789, 2341825385, 1),
        (True, 2768625435, 3),
        (False, 3523407757, 1),
        (None, 3751981041, 1),
    ]

    def test_hashes_and_partitions_are_pinned(self):
        for key, expected_hash, expected_p4 in self.PINNED:
            assert stable_hash(key) == expected_hash, key
            assert partition_for_key(key, 4) == expected_p4, key

    def test_partition_always_in_range(self):
        for key, _h, _p in self.PINNED:
            for n in (1, 2, 3, 7, 64):
                assert 0 <= partition_for_key(key, n) < n


class TestStrFastPath:
    """``partition_for_key`` hashes an exact ``str`` in place; the result is
    ``stable_hash(key) % n`` all the same."""

    @given(st.text(), st.integers(1, 64))
    def test_any_text_lands_where_stable_hash_puts_it(self, key, n):
        assert partition_for_key(key, n) == stable_hash(key) % n
        assert stable_hash(key) == zlib.crc32(key.encode("utf-8"))

    def test_non_ascii_and_empty(self):
        for key in ("", "é", "☃𝄞", "user-é-42"):
            assert partition_for_key(key, 7) == stable_hash(key) % 7

    def test_str_subclass_takes_the_general_path_to_the_same_partition(
        self, monkeypatch
    ):
        class Name(str):
            pass

        seen = []
        real = partitioning.stable_hash
        monkeypatch.setattr(
            partitioning, "stable_hash", lambda key: seen.append(key) or real(key)
        )
        assert partition_for_key(Name("user-é"), 5) == partition_for_key("user-é", 5)
        assert seen == ["user-é"] and type(seen[0]) is Name

    def test_lone_surrogate_is_refused_on_both_paths(self):
        for path in (stable_hash, lambda key: partition_for_key(key, 4)):
            with pytest.raises(UnicodeEncodeError):
                path("\ud800")


class TestClientsAgree:
    def test_producer_and_transactions_use_the_shared_partitioner(self):
        cluster = MessagingCluster(num_brokers=3, clock=SimClock())
        cluster.create_topic("t", num_partitions=4, replication_factor=3)
        producer = Producer(cluster)
        txn = TransactionalProducer(cluster, "txn-1")
        txn.begin()
        for key in ["a", "user-42", "zzz", b"bin"]:
            expected = partition_for_key(key, 4)
            ack = producer.send("t", "v", key=key)
            assert ack.partition.partition == expected
            txn_ack = txn.send("t", "v", key=key)
            assert txn_ack.partition.partition == expected
        txn.abort()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
