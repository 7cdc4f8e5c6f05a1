"""Wire framing for simulated protocols.

Messages are dictionaries of JSON-able values plus raw byte strings;
encoding renders honest byte counts so the network's throughput charge
reflects real payload sizes (an 8 MB ``put`` costs 8 MB of transfer).

Like the paper's Chirp, which sends a text request line and then the
raw data, a frame keeps its payloads out of band::

    prefix    8 bytes: header length, slot-list length (big-endian u32s)
    header    the message as JSON, every bytes value written as null
    slots     JSON list of [path, length], one per payload (absent if none)
    segments  the payloads' raw bytes, in slot order

A path is the list of dict keys and list indices leading from the
message to the payload's null.  Nothing in the header marks a payload,
so no user value can be mistaken for one.  The declared lengths must
account for every byte: a frame that is short, long, or whose slots do
not each land on a null is a :class:`ProtocolError`.
"""

from __future__ import annotations

import struct
from json import JSONDecodeError, JSONDecoder
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any


class ProtocolError(ValueError):
    """A frame failed to decode or had the wrong shape."""


_PREFIX = struct.Struct(">II")

#: The scanner ``json.loads`` runs (C where CPython has it), and the
#: whitespace ``json.loads`` skips around the value.
_scan = JSONDecoder().scan_once
_WHITESPACE = " \t\n\r"


def _encoder(default: Any) -> Any:
    """CPython's C JSON encoder set up exactly as ``json.dumps(message,
    separators=(",", ":"), sort_keys=True, default=default)`` sets it up:
    ASCII escaping, NaN and infinities allowed, and fresh circular-check
    markers (the C encoder leaves stale ones behind when it raises)."""
    return c_make_encoder(
        {}, default, encode_basestring_ascii, None, ":", ",", True, False, True
    )


def _collect(value: Any, path: list, out: list, encode: Any) -> None:
    """Append ``(path, payload)`` for every bytes value under ``value``;
    ``encode`` spells a non-string key as the header does."""
    if isinstance(value, bytes):
        out.append((path, value))
    elif isinstance(value, dict):
        for key in sorted(value):
            # a non-string key is named as the header spells it (1 -> "1")
            step = key if isinstance(key, str) else "".join(encode(key, 0))
            _collect(value[key], [*path, step], out, encode)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _collect(item, [*path, index], out, encode)


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize a message dict to wire bytes.

    One pass of the C encoder writes the header; its ``default`` hook
    turns each bytes value into null.  Only when the hook fired does a
    walk find the payloads' paths.
    """
    payloads: list[bytes] = []

    def nullify(value: Any) -> None:
        if isinstance(value, bytes):
            payloads.append(value)
            return None
        raise ProtocolError(f"cannot encode {type(value).__name__} on the wire")

    encode = _encoder(nullify)
    try:
        header = "".join(encode(message, 0)).encode("utf-8")
        if not payloads:
            return _PREFIX.pack(len(header), 0) + header
        found: list[tuple[list, bytes]] = []
        _collect(message, [], found, encode)
    except (TypeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"unencodable message: {exc}") from exc
    slots = "".join(encode([[path, len(data)] for path, data in found], 0)).encode("utf-8")
    return b"".join(
        [_PREFIX.pack(len(header), len(slots)), header, slots]
        + [data for _, data in found]
    )


def _fill(message: dict[str, Any], path: list, data: bytes) -> None:
    """Put one payload at ``path``, which must lead to a null."""
    parent: Any = None
    step: Any = None
    node: Any = message
    for step in path:
        parent = node
        if isinstance(node, dict) and type(step) is str and step in node:
            node = node[step]
        elif isinstance(node, list) and type(step) is int and 0 <= step < len(node):
            node = node[step]
        else:
            raise ProtocolError(f"slot path {path!r} leads nowhere")
    if parent is None or node is not None:
        raise ProtocolError(f"slot path {path!r} does not point at a null")
    parent[step] = data


def _parse(data: bytes) -> Any:
    """``json.loads(data.decode("utf-8"))`` without its per-call wrappers:
    the same scanner and the same whitespace rule give the same value or
    the same error."""
    text = data.decode("utf-8")
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except StopIteration as exc:
        if text.startswith("\ufeff"):
            raise JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            ) from None
        raise JSONDecodeError("Expecting value", text, exc.value) from None
    if end != len(text):
        rest = text[end:].lstrip(_WHITESPACE)
        if rest:
            raise JSONDecodeError("Extra data", text, len(text) - len(rest))
    return value


def decode_message(frame: bytes) -> dict[str, Any]:
    """Parse wire bytes back into a message dict."""
    if len(frame) < _PREFIX.size:
        raise ProtocolError(f"frame of {len(frame)} bytes has no prefix")
    header_len, slots_len = _PREFIX.unpack_from(frame)
    header_end = _PREFIX.size + header_len
    slots_end = header_end + slots_len
    if slots_end > len(frame):
        raise ProtocolError(f"prefix declares {slots_end} bytes, frame has {len(frame)}")
    try:
        message = _parse(frame[_PREFIX.size : header_end])
        slots = _parse(frame[header_end:slots_end]) if slots_len else ()
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame is not a message dict: {type(message).__name__}")
    if slots_len and not (isinstance(slots, list) and slots):
        raise ProtocolError("slot section is not a non-empty list")
    offset = slots_end
    for slot in slots:
        path, length = slot if isinstance(slot, list) and len(slot) == 2 else (None, None)
        if not isinstance(path, list) or type(length) is not int or length < 0:
            raise ProtocolError(f"malformed slot {slot!r}")
        _fill(message, path, frame[offset : offset + length])
        offset += length
    if offset != len(frame):  # a truncated segment, or trailing bytes
        raise ProtocolError(
            f"slots declare {offset - slots_end} payload bytes, frame has {len(frame) - slots_end}"
        )
    return message
