"""Unit tests for the wire format: tagged values, the JSON codec, framing."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.errors import SimulationError
from repro.net import frames
from repro.storm.tuples import StormTuple


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        42,
        3.5,
        "text",
        (1, 2, "x"),
        [1, (2, 3), "y"],
        {"plain": {"nested": (1, 2)}},
        {(1, "k"): "tuple-key", 2: "int-key"},
        {"!": "looks-like-a-tag"},
        {1, 2, 3},
        frozenset({("a", 1), ("b", 2)}),
        b"\x00\x01binary",
        ((), ((),), {"deep": [frozenset()]}),
    ],
)
def test_value_roundtrip(value):
    encoded = frames.encode_value(value)
    dumps, loads = frames.make_codec("json")
    assert frames.decode_value(loads(dumps(encoded))) == value


def test_roundtrip_preserves_types():
    value = {"t": (1, 2), "s": {3}, "f": frozenset({4})}
    out = frames.decode_value(frames.encode_value(value))
    assert isinstance(out["t"], tuple)
    assert isinstance(out["s"], set) and not isinstance(out["s"], frozenset)
    assert isinstance(out["f"], frozenset)


def test_storm_tuple_roundtrip():
    tup = StormTuple(("word", 3), batch=7)
    out = frames.decode_value(frames.encode_value(tup))
    assert isinstance(out, StormTuple)
    assert out.values == ("word", 3)
    assert out.batch == 7


def test_unknown_codec_rejected():
    with pytest.raises(SimulationError, match="unknown codec"):
        frames.make_codec("protobuf")


def test_unknown_tag_rejected():
    with pytest.raises(SimulationError, match="unknown frame tag"):
        frames.decode_value({"!": "zz", "v": []})


def test_value_outside_the_vocabulary_is_refused_at_the_sender():
    class Opaque:
        pass

    with pytest.raises(SimulationError, match="cannot put a .*Opaque on the wire"):
        frames.encode_value(("nested", [Opaque()]))


def test_serialized_object_frames_are_rejected_like_any_unknown_tag():
    """What a peer sends is parsed as data, never deserialized: the tag an
    earlier codec used for arbitrary objects is not in the vocabulary."""
    import base64

    hostile = {"!": "pk", "v": base64.b64encode(b"cos\nsystem\n(S'true'\ntR.").decode()}
    with pytest.raises(SimulationError, match="unknown frame tag 'pk'"):
        frames.decode_value({"!": "tu", "v": [1, hostile]})


def test_frame_roundtrip_over_stream():
    dumps, loads = frames.make_codec("json")
    frame = {"src": "a", "dst": "b", "kind": "k", "payload": [1, 2]}
    data = frames.pack_frame(frame, dumps)
    (length,) = struct.unpack(">I", data[:4])
    assert length == len(data) - 4

    async def read_it():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        first = await frames.read_frame(reader, loads)
        second = await frames.read_frame(reader, loads)
        return first, second

    first, second = asyncio.run(read_it())
    assert first == frame
    assert second is None  # clean EOF


def test_oversized_frame_rejected():
    dumps, _ = frames.make_codec("json")
    with pytest.raises(SimulationError, match="exceeds"):
        frames.pack_frame({"blob": "x" * (frames.MAX_FRAME + 1)}, dumps)
