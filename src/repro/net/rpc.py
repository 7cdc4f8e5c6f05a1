"""Wire framing for simulated protocols.

Messages are dictionaries of JSON-able values plus raw byte strings;
encoding renders honest byte counts so the network's throughput charge
reflects real payload sizes (an 8 MB ``put`` costs 8 MB of transfer).
Bytes values are tagged and base64-encoded inside the JSON envelope.

Every frame takes one ``json.dumps`` / ``json.loads`` pass.  The
recursive tag walk below runs only for frames that could hold a user
dict shaped like a tag envelope; it defines the wire format, and the
single pass produces exactly its bytes whenever it is skipped.
"""

from __future__ import annotations

import base64
import json
from typing import Any


class ProtocolError(ValueError):
    """A frame failed to decode or had the wrong shape."""


_BYTES_TAG = "__b64__"
_ESCAPE_TAG = "__esc__"
_TAG_SHAPES = ({_BYTES_TAG}, {_ESCAPE_TAG})
#: The bytes tag as it appears in a rendered frame (key or string value).
_QUOTED_BYTES_TAG = f'"{_BYTES_TAG}"'


def _encode_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        encoded = {k: _encode_value(v) for k, v in value.items()}
        if set(encoded.keys()) in _TAG_SHAPES:
            # a user dict that *looks* like one of our tag envelopes must
            # not round-trip as bytes: wrap it so decode can tell them apart
            return {_ESCAPE_TAG: encoded}
        return encoded
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ProtocolError(f"cannot encode {type(value).__name__} on the wire")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        keys = set(value.keys())
        if keys == {_BYTES_TAG}:
            payload = value[_BYTES_TAG]
            if not isinstance(payload, str):
                raise ProtocolError(f"bytes tag holds {type(payload).__name__}, not text")
            return base64.b64decode(payload)
        if keys == {_ESCAPE_TAG} and isinstance(value[_ESCAPE_TAG], dict):
            # escaped user dict: its values decode normally, but the dict
            # itself is returned verbatim rather than treated as a tag
            inner = value[_ESCAPE_TAG]
            return {k: _decode_value(v) for k, v in inner.items()}
        return {k: _decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def encode_message(message: dict[str, Any]) -> bytes:
    """Serialize a message dict to wire bytes.

    ``json.dumps`` tags bytes as it meets them.  A user dict shaped like
    a tag needs an ``__esc__`` wrapper that pass cannot add, so the frame
    is re-encoded through the tag walk when it may hold one: when some
    ``"__b64__"`` in the output was not written by the tagger (each tag
    writes exactly one, and base64 text cannot contain another), or when
    ``__esc__`` appears at all.
    """
    tagged = 0

    def tag(value: Any) -> Any:
        nonlocal tagged
        if isinstance(value, bytes):
            tagged += 1
            return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
        raise ProtocolError(f"cannot encode {type(value).__name__} on the wire")

    try:
        text = json.dumps(message, separators=(",", ":"), sort_keys=True, default=tag)
        if text.count(_QUOTED_BYTES_TAG) != tagged or _ESCAPE_TAG in text:
            text = json.dumps(_encode_value(message), separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message: {exc}") from exc
    return text.encode("utf-8")


def decode_message(frame: bytes) -> dict[str, Any]:
    """Parse wire bytes back into a message dict.

    The tag walk runs only when a tag could be present: spelled out, or
    hidden behind a ``\\u`` escape in a key.
    """
    try:
        text = frame.decode("utf-8")
        decoded = json.loads(text)
        if _BYTES_TAG in text or _ESCAPE_TAG in text or "\\u" in text:
            decoded = _decode_value(decoded)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ProtocolError(f"frame is not a message dict: {type(decoded).__name__}")
    return decoded
