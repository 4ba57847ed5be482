"""Wire protocol of the serving tier: length-prefixed JSON frames.

Every message — request or response — travels as one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.  JSON
keeps the protocol debuggable (``nc`` + a hex dump reads it) and, because
Python's ``json`` round-trips ``float`` values through ``repr``, estimate
values survive the wire **bit-identically** — the serving parity gate
(``BENCH_serve.json``) depends on that.

Requests carry an ``op`` plus a client-chosen ``id`` the server echoes back,
so clients can pipeline many requests over one connection and demultiplex
responses by id.  Responses carry a ``status``:

========================  ====================================================
``ok``                    the answer; ``values``/``value``/``estimates`` set.
``retry_later``           admission control shed the request (queue full);
                          the client should back off and retry.
``deadline_exceeded``     the request's ``deadline_ms`` elapsed before a
                          coalesced batch could answer it.
``shutting_down``         the server is draining; re-connect elsewhere.
``error``                 the request was malformed or the backend raised.
========================  ====================================================

``retry_later`` / ``shutting_down`` / ``deadline_exceeded`` are *typed*
overload semantics, not errors: the server sheds load instead of buffering
without bound, and clients see exactly why.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import List, Optional, Tuple, Union

from repro.graph.edge import EdgeKey

#: Protocol revision, negotiated via the server's ``hello`` frame.
PROTOCOL_VERSION = 1

#: Frames larger than this are rejected before any JSON parse (both sides):
#: a corrupt or hostile length prefix cannot make a peer allocate gigabytes.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Bytes of the length prefix in front of every frame body.
HEADER_BYTES = _HEADER.size

#: One compact encoder for every frame: ``json.dumps`` with ``separators``
#: builds a new ``JSONEncoder`` per call.  Same bytes as
#: ``json.dumps(payload, separators=(",", ":"))``.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

# -- operations -------------------------------------------------------------
OP_HELLO = "hello"
OP_PING = "ping"
OP_HEALTH = "health"
OP_QUERY_EDGES = "query_edges"
OP_QUERY_SUBGRAPH = "query_subgraph"
OP_INGEST = "ingest"

# -- health states (the ``health`` op's ``state`` field) --------------------
STATE_STARTING = "starting"
STATE_SERVING = "serving"
STATE_DRAINING = "draining"

# -- response statuses ------------------------------------------------------
STATUS_OK = "ok"
STATUS_RETRY_LATER = "retry_later"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_SHUTTING_DOWN = "shutting_down"
STATUS_ERROR = "error"


class WireError(ValueError):
    """A frame or message violates the wire protocol."""


def encode_frame(payload: dict) -> bytes:
    """One message as bytes: 4-byte big-endian length + compact UTF-8 JSON."""
    body = _encode_json(payload).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def body_length(data: Union[bytes, bytearray], offset: int, max_frame_bytes: int) -> int:
    """The body length announced by the frame header at ``data[offset:]``.

    Raises :class:`WireError` for a length beyond ``max_frame_bytes``,
    before any of the body is read.
    """
    (length,) = _HEADER.unpack_from(data, offset)
    if length > max_frame_bytes:
        raise WireError(f"frame of {length} bytes exceeds the {max_frame_bytes} byte cap")
    return length


def truncated(received: int) -> WireError:
    """The error for a connection closed ``received`` bytes into a frame."""
    where = "header" if received < HEADER_BYTES else "frame"
    return WireError(f"connection closed mid-{where}")


def decode_body(body: Union[bytes, bytearray]) -> dict:
    """Parse a frame body; raises :class:`WireError` on malformed JSON."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(f"frame body must be a JSON object, got {type(message).__name__}")
    return message


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Optional[dict]:
    """Read one frame from ``reader``; ``None`` on clean EOF.

    A length prefix beyond ``max_frame_bytes`` or a truncated body raises
    :class:`WireError` — a half-written frame is a protocol violation, not
    an empty message.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between frames
        raise truncated(len(exc.partial)) from exc
    length = body_length(header, 0, max_frame_bytes)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise truncated(HEADER_BYTES + len(exc.partial)) from exc
    return decode_body(body)


def edges_from_wire(raw: object) -> List[EdgeKey]:
    """Validate and canonicalize a request's ``edges`` field.

    JSON has no tuples, so edges arrive as two-element arrays; labels must be
    JSON scalars (the hashable types the sketch key function accepts).
    """
    if not isinstance(raw, list) or not raw:
        raise WireError("'edges' must be a non-empty list of [source, target] pairs")
    edges: List[EdgeKey] = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise WireError(f"edge {item!r} is not a [source, target] pair")
        source, target = item
        if isinstance(source, (list, dict)) or isinstance(target, (list, dict)):
            raise WireError(f"edge labels must be JSON scalars, got {item!r}")
        edges.append((source, target))
    return edges


def edges_to_wire(edges: List[EdgeKey]) -> List[List]:
    """The JSON form of a batch of edge keys."""
    return [[source, target] for source, target in edges]


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (the CLI's ``--connect`` argument)."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise WireError(f"expected HOST:PORT, got {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise WireError(f"invalid port in {address!r}") from exc
