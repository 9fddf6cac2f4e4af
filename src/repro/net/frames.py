"""The wire format: length-prefixed frames of tagged JSON.

A frame is one message (or one control record) between two nodes:

    4-byte big-endian length | JSON-encoded body

JSON does not speak the payload vocabulary the apps actually send —
tuples, sets, frozensets, Storm tuples, dicts with tuple keys — so values
pass through a tagging layer first: containers JSON cannot represent
round-trip as ``{"!": tag, ...}`` objects.  The vocabulary is closed both
ways: the sender refuses a value outside it (a ``SimulationError`` naming
the type) and the receiver rejects any tag it does not know — bytes read
off a socket are parsed as data, never deserialized into objects.
Round-tripping is exact for everything the registered apps put on the
wire; the simulator and socket backends therefore deliver equal payload
*values* (the simulator delivers the same object, the transport an equal
copy — apps treating payloads as values, which the channel contract
requires, cannot tell the difference).
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any

from repro.errors import SimulationError

__all__ = [
    "CODEC",
    "MAX_FRAME",
    "decode_value",
    "encode_value",
    "make_codec",
    "pack_frame",
    "read_frame",
]

# Far above any app frame; a corrupt length prefix fails fast instead of
# waiting on a gigabyte read.
MAX_FRAME = 1 << 26

# The one body codec; named in every socket run's transport summary.
CODEC = "json"

_TAG = "!"


def _storm_tuple():
    # on first use: a Bloom-only socket run never loads the storm package
    from repro.storm.tuples import StormTuple

    return StormTuple


def encode_value(value: Any) -> Any:
    """Render ``value`` as a JSON-able structure, tagging what JSON can't."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TAG: "tu", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        tag = "se" if isinstance(value, set) else "fs"
        return {_TAG: tag, "v": [encode_value(item) for item in value]}
    if isinstance(value, bytes):
        return {_TAG: "by", "v": base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        if _TAG not in value and all(isinstance(key, str) for key in value):
            return {key: encode_value(item) for key, item in value.items()}
        return {
            _TAG: "dk",
            "v": [
                [encode_value(key), encode_value(item)]
                for key, item in value.items()
            ],
        }
    if isinstance(value, _storm_tuple()):
        return {
            _TAG: "st",
            "v": [encode_value(item) for item in value.values],
            "b": value.batch,
        }
    raise SimulationError(
        f"cannot put a {type(value).__qualname__} on the wire: the frame "
        f"codec carries JSON scalars, tuples, lists, sets, bytes, dicts and "
        f"Storm tuples only"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if not isinstance(value, dict):
        return value
    tag = value.get(_TAG)
    if tag is None:
        return {key: decode_value(item) for key, item in value.items()}
    if tag == "tu":
        return tuple(decode_value(item) for item in value["v"])
    if tag == "se":
        return {decode_value(item) for item in value["v"]}
    if tag == "fs":
        return frozenset(decode_value(item) for item in value["v"])
    if tag == "by":
        return base64.b64decode(value["v"])
    if tag == "dk":
        return {
            decode_value(key): decode_value(item) for key, item in value["v"]
        }
    if tag == "st":
        return _storm_tuple()(
            tuple(decode_value(item) for item in value["v"]), value["b"]
        )
    raise SimulationError(f"unknown frame tag {tag!r}")


def make_codec(name: str):
    """``(dumps, loads)`` of the frame-body codec (``"json"`` is the only one)."""
    if name != CODEC:
        raise SimulationError(f"unknown codec {name!r}; have {CODEC}")
    return (
        lambda obj: json.dumps(
            obj, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8"),
        lambda data: json.loads(data.decode("utf-8")),
    )


def pack_frame(frame: dict, dumps) -> bytes:
    """One wire frame: length prefix + encoded body."""
    body = dumps(frame)
    if len(body) > MAX_FRAME:
        raise SimulationError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", len(body)) + body


async def read_frame(reader, loads) -> dict | None:
    """Read one frame from an asyncio stream; ``None`` on a clean EOF."""
    import asyncio

    try:
        prefix = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = struct.unpack(">I", prefix)
    if length > MAX_FRAME:
        raise SimulationError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return loads(body)
