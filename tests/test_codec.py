"""Byte encoding: canonical layout, round trips, and strict rejection."""

import random
import struct

import pytest

from bcounter import BoundedCounter, MalformedEncoding, Polarity

from test_crdt import random_counter


def test_frozen_layout():
    c = BoundedCounter(
        polarity=Polarity.LOWER,
        bound=10,
        n=3,
        rights={(0, 0): 30, (0, 1): 10, (0, 2): 10, (1, 1): 1},
        used={0: 5, 1: 4, 2: 2},
    )
    expected = (
        b"BCT1"
        + struct.pack(">BqI", 0, 10, 3)
        + struct.pack(">I", 4)
        + struct.pack(">IIq", 0, 0, 30)
        + struct.pack(">IIq", 0, 1, 10)
        + struct.pack(">IIq", 0, 2, 10)
        + struct.pack(">IIq", 1, 1, 1)
        + struct.pack(">I", 3)
        + struct.pack(">Iq", 0, 5)
        + struct.pack(">Iq", 1, 4)
        + struct.pack(">Iq", 2, 2)
    )
    assert c.encode() == expected


def test_empty_counter_layout():
    c = BoundedCounter.new(Polarity.UPPER, -3, 2, creator=1)
    assert c.encode() == b"BCT1" + struct.pack(">BqI", 1, -3, 2) + struct.pack(">II", 0, 0)


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        c = random_counter(rng)
        assert BoundedCounter.decode(c.encode()) == c


def test_equal_states_encode_identically():
    # reach the same state along two orders
    a = BoundedCounter.new(Polarity.LOWER, 0, 3, creator=0, initial=6)
    x = a.decrement(0, 2).transfer(0, 2, 1)
    y = a.transfer(0, 2, 1).decrement(0, 2)
    assert x == y
    assert x.encode() == y.encode()


def rights_entry(i, j, v):
    return struct.pack(">IIq", i, j, v)


def header(pol=0, bound=0, n=3):
    return b"BCT1" + struct.pack(">BqI", pol, bound, n)


class TestRejection:
    def test_bad_magic(self):
        blob = BoundedCounter.new(Polarity.LOWER, 0, 1, creator=0).encode()
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(b"XXX1" + blob[4:])

    def test_truncated(self):
        blob = BoundedCounter.new(Polarity.LOWER, 0, 2, creator=0, initial=3).encode()
        for cut in range(len(blob)):
            with pytest.raises(MalformedEncoding):
                BoundedCounter.decode(blob[:cut])

    def test_trailing_garbage(self):
        blob = BoundedCounter.new(Polarity.LOWER, 0, 1, creator=0).encode()
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob + b"\x00")

    def test_bad_polarity_byte(self):
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(header(pol=2) + struct.pack(">II", 0, 0))

    def test_zero_replicas(self):
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(header(n=0) + struct.pack(">II", 0, 0))

    def test_replica_index_out_of_range(self):
        blob = header(n=2) + struct.pack(">I", 1) + rights_entry(2, 0, 1) + struct.pack(">I", 0)
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob)

    def test_zero_entry_rejected(self):
        blob = header() + struct.pack(">I", 1) + rights_entry(0, 0, 0) + struct.pack(">I", 0)
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob)

    def test_negative_entry_rejected(self):
        blob = header() + struct.pack(">I", 0) + struct.pack(">I", 1) + struct.pack(">Iq", 0, -4)
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob)

    def test_unsorted_rights_rejected(self):
        blob = (
            header()
            + struct.pack(">I", 2)
            + rights_entry(1, 0, 5)
            + rights_entry(0, 0, 5)
            + struct.pack(">I", 0)
        )
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob)

    def test_duplicate_rights_rejected(self):
        blob = (
            header()
            + struct.pack(">I", 2)
            + rights_entry(0, 0, 5)
            + rights_entry(0, 0, 5)
            + struct.pack(">I", 0)
        )
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob)

    def test_unsorted_used_rejected(self):
        blob = (
            header()
            + struct.pack(">I", 0)
            + struct.pack(">I", 2)
            + struct.pack(">Iq", 1, 2)
            + struct.pack(">Iq", 0, 2)
        )
        with pytest.raises(MalformedEncoding):
            BoundedCounter.decode(blob)

    def test_random_bytes_never_crash(self):
        rng = random.Random(5)
        for _ in range(2000):
            blob = rng.randbytes(rng.randint(0, 60))
            try:
                BoundedCounter.decode(blob)
            except MalformedEncoding:
                pass


def test_prefixes_and_byte_flips_reject_or_round_trip():
    # every proper prefix and every single-byte flip of a valid encoding is
    # either rejected as malformed (never a struct.error) or is itself the
    # canonical encoding of the state it decodes to
    rng = random.Random(11)
    blobs = [random_counter(rng).encode() for _ in range(40)]
    blobs.append(BoundedCounter.new(Polarity.UPPER, -3, 2, creator=1).encode())
    for blob in blobs:
        variants = [blob[:cut] for cut in range(len(blob))]
        for pos in range(len(blob)):
            for flip in (0x01, 0x80, 0xFF):
                variants.append(blob[:pos] + bytes([blob[pos] ^ flip]) + blob[pos + 1:])
        for data in variants:
            try:
                state = BoundedCounter.decode(data)
            except MalformedEncoding:
                continue
            assert state.encode() == data
