"""Wire protocol: framing, exact batch payloads, tagged results."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import protocol
from repro.workloads.streams import TimestampedBatch, timestamp_batch
from repro.workloads.tuples import TupleBatch


def make_batch(n=64, seed=3):
    rng = np.random.default_rng(seed)
    batch = TupleBatch(
        keys=rng.integers(0, 2**63, size=n, dtype=np.uint64),
        values=rng.integers(-2**31, 2**31, size=n, dtype=np.int64),
    )
    return timestamp_batch(batch, start=1.5e-6)


def frame(batch, **fields):
    return protocol.encode({"type": "batch", "job_id": "job-0",
                            **protocol.batch_payload(batch), **fields})


def round_trip(batch):
    return protocol.decode_batch(protocol.decode(frame(batch)))


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"type": "hello", "tenant": "alice", "token": None}
        assert protocol.decode(protocol.encode(message)) == message

    def test_encode_is_one_line(self):
        line = protocol.encode({"type": "ack", "note": "a\nb"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_malformed_json_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"{not json}\n")

    def test_non_object_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_missing_type_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"tenant": "x"}\n')

    def test_oversized_line_raises(self):
        line = b'{"type": "batch", "pad": "' \
            + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)


class TestBatchPayload:
    def test_round_trip_is_bit_identical(self):
        batch = make_batch()
        restored = round_trip(batch)
        assert np.array_equal(restored.batch.keys, batch.batch.keys)
        assert np.array_equal(restored.batch.values, batch.batch.values)
        assert np.array_equal(restored.timestamps, batch.timestamps)
        assert restored.batch.keys.dtype == np.uint64
        assert restored.batch.values.dtype == np.int64
        assert restored.timestamps.dtype == np.float64

    def test_uint64_top_bit_survives(self):
        batch = TimestampedBatch(
            np.array([0.0]),
            TupleBatch(np.array([2**64 - 1], dtype=np.uint64),
                       np.array([-2**63], dtype=np.int64)))
        restored = round_trip(batch)
        assert restored.batch.keys[0] == np.uint64(2**64 - 1)
        assert restored.batch.values[0] == np.int64(-2**63)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch(
                {"keys": [1, 2], "values": [1], "timestamps": [0.0, 0.0]})

    def test_missing_field_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch({"keys": [1], "values": [1]})


#: Stamps whose decimal print and parse is where a text format slips:
#: denormals, signed zeros, the largest finite doubles, the smallest
#: normal.
EDGE_STAMPS = [5e-324, -5e-324, 0.0, -0.0, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308]
EDGE_KEYS = [0, 1, 2**63, 2**64 - 1]
EDGE_VALUES = [0, -1, -2**63, 2**63 - 1]


def relaid(array, layout):
    """The same numbers in a layout the wire format must normalise."""
    if layout == "strided":
        wide = np.empty(2 * len(array), dtype=array.dtype)
        wide[::2] = array
        return wide[::2]
    if layout == "big-endian":
        return array.astype(array.dtype.newbyteorder(">"))
    return array


@st.composite
def batches(draw):
    """(batch as the client holds it, its columns as native arrays)."""
    size = draw(st.one_of(st.integers(0, 48), st.integers(0, 10_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    values = rng.integers(-2**63, 2**63, size=size, dtype=np.int64)
    # Random bit patterns: every exponent, denormals included.
    stamps = rng.integers(0, 2**64, size=size,
                          dtype=np.uint64).view(np.float64)
    stamps[~np.isfinite(stamps)] = 0.0
    for column, edges in ((keys, EDGE_KEYS), (values, EDGE_VALUES),
                          (stamps, EDGE_STAMPS)):
        picked = draw(st.lists(st.sampled_from(edges), max_size=size))
        column[:len(picked)] = picked
    layout = draw(st.sampled_from(["native", "strided", "big-endian"]))
    batch = TimestampedBatch(stamps, TupleBatch(keys, values))
    # Past the constructors, which would hand batch_payload native
    # arrays: it must cope with whatever a caller's batch holds.
    batch.batch.keys = relaid(keys, layout)
    batch.batch.values = relaid(values, layout)
    batch.timestamps = relaid(stamps, layout)
    return batch, (keys, values, stamps)


class TestBatchRoundTripGenerated:
    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_frame_round_trip_is_bit_for_bit(self, case):
        batch, (keys, values, stamps) = case
        wire = frame(batch)
        assert len(wire) == wire.index(b"\n") + 1 + 24 * len(keys)
        restored = protocol.decode_batch(protocol.decode(wire))
        for got, sent in ((restored.batch.keys, keys),
                          (restored.batch.values, values),
                          (restored.timestamps, stamps)):
            assert got.dtype == sent.dtype
            assert got.tobytes() == sent.tobytes()
            assert not got.flags.writeable  # mapped onto the bytes


def raw_frame(header, payload=b""):
    return json.dumps(header).encode() + b"\n" + payload


def batch_header(count=2, **fields):
    header = {"type": "batch", "job_id": "job-0", "count": count,
              "dtypes": ["<u8", "<i8", "<f8"],
              "payload_bytes": 24 * count}
    header.update(fields)
    return header


#: name -> frame that must be refused.  Payloads are as long as the
#: header's *true* count unless the case is about their length.
HOSTILE = {
    "truncated payload": raw_frame(batch_header(), bytes(47)),
    "trailing bytes": raw_frame(batch_header(), bytes(49)),
    "no payload at all": raw_frame(batch_header()),
    "payload_bytes negative": raw_frame(batch_header(payload_bytes=-24)),
    "payload_bytes true": raw_frame(
        batch_header(count=0, payload_bytes=True), bytes(1)),
    "payload_bytes float": raw_frame(
        batch_header(payload_bytes=48.0), bytes(48)),
    "payload_bytes string": raw_frame(
        batch_header(payload_bytes="48"), bytes(48)),
    "payload_bytes null": raw_frame(
        batch_header(payload_bytes=None), bytes(48)),
    "payload_bytes over the cap": raw_frame(batch_header(
        count=2**40 // 24, payload_bytes=2**40 // 24 * 24)),
    "count too small": raw_frame(batch_header(count=1, payload_bytes=48),
                                 bytes(48)),
    "count too large": raw_frame(batch_header(count=3, payload_bytes=48),
                                 bytes(48)),
    "count negative": raw_frame(batch_header(count=-2, payload_bytes=48),
                                bytes(48)),
    "count true": raw_frame(batch_header(count=True, payload_bytes=24),
                            bytes(24)),
    "count missing": raw_frame(
        {k: v for k, v in batch_header().items() if k != "count"},
        bytes(48)),
    "dtypes wrong": raw_frame(
        batch_header(dtypes=["<u4", "<i8", "<f8"]), bytes(48)),
    "dtypes reordered": raw_frame(
        batch_header(dtypes=["<i8", "<u8", "<f8"]), bytes(48)),
    "dtypes big-endian": raw_frame(
        batch_header(dtypes=[">u8", ">i8", ">f8"]), bytes(48)),
    "dtypes missing": raw_frame(
        {k: v for k, v in batch_header().items() if k != "dtypes"},
        bytes(48)),
    "payload on another verb": raw_frame(
        {"type": "end", "job_id": "job-0", "count": 2,
         "payload_bytes": 48}, bytes(48)),
    "payload_bytes missing": raw_frame(
        {k: v for k, v in batch_header().items()
         if k != "payload_bytes"}),
    "payload smuggled as JSON": raw_frame(
        {k: v for k, v in batch_header(payload="x" * 48).items()
         if k != "payload_bytes"}),
    "protocol 2 batch": raw_frame(
        {"type": "batch", "job_id": "job-0", "keys": [1, 2],
         "values": [1, 1], "timestamps": [0.0, 0.5]}),
    "not utf-8": b"\xff\xfe\n",
    "nested past the recursion limit": b'{"type":' + b"[" * 100_000 + b"\n",
}


class RecordingStream(io.BytesIO):
    """Remembers the size of every ``read`` the reader asks for."""

    def __init__(self, data):
        super().__init__(data)
        self.reads = []

    def read(self, size=-1):
        self.reads.append(size)
        return super().read(size)


class TestHostileFrames:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_whole_frame_is_refused(self, name):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_batch(protocol.decode(HOSTILE[name]))

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_stream_reader_refuses_and_reads_nothing_unchecked(self, name):
        stream = RecordingStream(HOSTILE[name])
        reader = protocol.FrameReader(stream)
        with pytest.raises(protocol.ProtocolError):
            # To the end of the stream: what trails a frame there is
            # the next frame, and that is where it fails.
            for message in iter(reader.read, None):
                protocol.decode_batch(message)
        # A payload read happens only for a declaration that passed
        # every check, and then for exactly that many bytes.
        assert all(0 <= size <= 72 and size % 24 == 0
                   for size in stream.reads), stream.reads

    @pytest.mark.parametrize("name", [
        "payload_bytes negative", "payload_bytes true",
        "payload_bytes float", "payload_bytes string",
        "payload_bytes over the cap", "count too small",
        "count too large", "payload on another verb",
        "truncated payload"])
    def test_bad_declaration_loses_the_framing(self, name):
        """The bytes behind such a header cannot be skipped, so these
        are the errors a gateway disconnects on."""
        with pytest.raises(protocol.FramingError):
            protocol.FrameReader(io.BytesIO(HOSTILE[name])).read()

    def test_protocol_2_batch_error_names_protocol_3(self):
        with pytest.raises(protocol.ProtocolError, match="protocol 3"):
            protocol.decode_batch(
                protocol.decode(HOSTILE["protocol 2 batch"]))

    def test_encode_refuses_a_payload_its_header_misdeclares(self):
        message = {"type": "batch", "job_id": "job-0",
                   **protocol.batch_payload(make_batch(4))}
        message["payload_bytes"] += 24
        with pytest.raises(protocol.ProtocolError):
            protocol.encode(message)


class TestFrameReader:
    def test_cuts_a_stream_of_mixed_frames(self):
        batch = make_batch(5)
        hello = protocol.encode({"type": "hello", "tenant": "alice"})
        stream = io.BytesIO(hello + frame(batch) + frame(make_batch(0))
                            + protocol.encode({"type": "bye"}))
        reader = protocol.FrameReader(stream)
        assert reader.read() == {"type": "hello", "tenant": "alice"}
        assert reader.frame_bytes == len(hello)
        restored = protocol.decode_batch(reader.read())
        assert reader.frame_bytes == len(frame(batch))
        assert np.array_equal(restored.batch.keys, batch.batch.keys)
        assert np.array_equal(restored.timestamps, batch.timestamps)
        assert len(protocol.decode_batch(reader.read())) == 0
        assert reader.read() == {"type": "bye"}
        assert reader.read() is None
        assert reader.frame_bytes == 0

    def test_cap_applies_to_line_and_payload_alike(self):
        batch = make_batch(100)
        reader = protocol.FrameReader(io.BytesIO(frame(batch)),
                                      max_bytes=24 * 100)
        assert len(protocol.decode_batch(reader.read())) == 100
        stream = RecordingStream(frame(batch))
        with pytest.raises(protocol.FramingError):
            protocol.FrameReader(stream, max_bytes=24 * 100 - 1).read()
        assert stream.reads == []
        with pytest.raises(protocol.FramingError):
            protocol.FrameReader(io.BytesIO(b"x" * 4096 + b"\n"),
                                 max_bytes=1024).read()

    def test_frame_bytes_counts_a_refused_frame(self):
        reader = protocol.FrameReader(
            io.BytesIO(HOSTILE["truncated payload"]))
        with pytest.raises(protocol.FramingError):
            reader.read()
        assert reader.frame_bytes == len(HOSTILE["truncated payload"])


class TestResultPayload:
    def round_trip(self, obj):
        return protocol.from_wire(
            json.loads(json.dumps(protocol.to_wire(obj))))

    def test_ndarray_round_trip(self):
        arr = np.arange(16, dtype=np.int64) * -3
        back = self.round_trip(arr)
        assert isinstance(back, np.ndarray)
        assert back.dtype == np.int64
        assert np.array_equal(back, arr)

    def test_dict_with_int_keys_round_trip(self):
        obj = {7: [1, 2, 3], 2**40: [4]}
        assert self.round_trip(obj) == obj

    def test_numpy_scalar_round_trip(self):
        back = self.round_trip(np.uint64(2**63 + 5))
        assert back == np.uint64(2**63 + 5)
        assert back.dtype == np.uint64

    def test_nested_mixture_round_trip(self):
        obj = {"counts": np.array([1, 2], dtype=np.uint64),
               "pairs": (3, "x"), "flat": [1.5, None, True]}
        back = self.round_trip(obj)
        assert np.array_equal(back["counts"], obj["counts"])
        assert back["pairs"] == (3, "x")
        assert back["flat"] == [1.5, None, True]
