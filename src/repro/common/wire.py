"""Byte-level wire formats: framing, compression, encryption, checksums.

Heterogeneous-unsafe parameters related to compression, encryption, and
transport protocols fail because "these parameters affect the data format
in a file or in a network communication, and thus if two nodes have
different parameter values, one node will not be able to read data
correctly" (§7.1).  To reproduce those failures *mechanistically* rather
than by fiat, peers in our simulated systems exchange real byte strings:

* the **sender** encodes a JSON payload according to *its* configuration
  (compression codec, encryption on/off, SSL layering);
* the **receiver** decodes according to *its own* configuration and gets a
  genuine :class:`~repro.common.errors.DecodeError` /
  :class:`~repro.common.errors.SslError` when the layers disagree.

Checksums (``dfs.bytes-per-checksum``, ``dfs.checksum.type``) are computed
per chunk exactly as HDFS does, so a reader with a different chunk size or
algorithm fails verification on honest data.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import ChecksumError, DecodeError, SaslError, SslError

_PLAIN_MAGIC = b"ZCP1"
_SSL_MAGIC = b"TLS\x16"  # 0x16 = TLS handshake record type

#: codec name -> (frame magic, compress, decompress)
_CODECS = {
    "gzip": (b"GZ\x1f\x8b", lambda b: zlib.compress(b, 6)),
    "snappy": (b"SNZY", lambda b: zlib.compress(b, 1)),
    "lz4": (b"LZ4\x18", lambda b: zlib.compress(b, 2)),
    "zstd": (b"ZSTD", lambda b: zlib.compress(b, 9)),
}

SUPPORTED_CODECS = tuple(sorted(_CODECS))


def _xor_stream(data: bytes, key: bytes) -> bytes:
    if not key:
        raise ValueError("empty encryption key")
    # Bulk XOR via big-int arithmetic: ~50x faster than a per-byte loop
    # and bit-for-bit identical to it (tests/test_wire.py keeps the loop
    # as the reference).
    size = len(data)
    stream = (key * (size // len(key) + 1))[:size]
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(size, "little")


def encode_payload(payload: Any, *, codec: Optional[str] = None,
                   encryption_key: Optional[bytes] = None,
                   ssl: bool = False) -> bytes:
    """Serialize ``payload`` with the sender's format settings."""
    data = _PLAIN_MAGIC + json.dumps(payload, sort_keys=True).encode("utf-8")
    if codec is not None:
        magic, compress = _codec(codec)
        data = magic + compress(data)
    if encryption_key is not None:
        data = _xor_stream(data, encryption_key)
    if ssl:
        data = _SSL_MAGIC + _xor_stream(data, b"\x5c")
    return data


def decode_payload(data: bytes, *, codec: Optional[str] = None,
                   encryption_key: Optional[bytes] = None,
                   ssl: bool = False) -> Any:
    """Parse bytes with the *receiver's* format settings.

    Raises :class:`SslError` or :class:`DecodeError` when the receiver's
    expectations do not match what is actually on the wire.
    """
    if ssl:
        if not data.startswith(_SSL_MAGIC):
            raise SslError("expected TLS record, peer sent plaintext")
        data = _xor_stream(data[len(_SSL_MAGIC):], b"\x5c")
    elif data.startswith(_SSL_MAGIC):
        raise SslError("peer sent TLS record to a plaintext endpoint")
    if encryption_key is not None:
        data = _xor_stream(data, encryption_key)
    if codec is not None:
        magic, _ = _codec(codec)
        if not data.startswith(magic):
            raise DecodeError("bad %s header: %r" % (codec, data[:4]))
        try:
            data = zlib.decompress(data[len(magic):])
        except zlib.error as exc:
            raise DecodeError("decompression failed: %s" % exc)
    if not data.startswith(_PLAIN_MAGIC):
        raise DecodeError("bad frame magic: %r" % data[:4])
    try:
        return json.loads(data[len(_PLAIN_MAGIC):].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError("payload parse failed: %s" % exc)


def _codec(name: str) -> Tuple[bytes, Any]:
    try:
        return _CODECS[name]
    except KeyError:
        raise DecodeError("unknown compression codec %r" % name)


def transfer(payload: Any, sender_opts: dict, receiver_opts: dict) -> Any:
    """Encode with the sender's options and decode with the receiver's."""
    return decode_payload(encode_payload(payload, **sender_opts), **receiver_opts)


class _JsonFallback(Exception):
    """Structure the structural copier cannot reproduce exactly."""


#: Exact types json round-trips unchanged: the same value and type back.
#: Subclasses (IntEnum, str subclasses) are deliberately not members.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _json_copy(obj: Any) -> Any:
    """A fresh object equal to ``json.loads(json.dumps(obj, sort_keys=True))``.

    Only exact-type JSON natives are copied structurally; anything json
    would coerce (IntEnum, str subclasses, non-string dict keys) or
    reject raises :class:`_JsonFallback` so the caller takes the real
    serialisation path and its exact semantics — including TypeError on
    unserialisable payloads.  Exact-type scalar items of a list or dict
    are copied inline rather than by one recursive call each.
    """
    t = type(obj)
    if t in _JSON_SCALARS:
        return obj
    if t is list or t is tuple:
        return [item if type(item) in _JSON_SCALARS else _json_copy(item)
                for item in obj]
    if t is dict:
        out = {}
        # sort_keys=True means the decoded dict iterates in sorted-key
        # order; reproduce that, and bail on any non-str key (json would
        # coerce it to a string).
        try:
            keys = sorted(obj)
        except TypeError:
            raise _JsonFallback
        for key in keys:
            if type(key) is not str:
                raise _JsonFallback
            value = obj[key]
            out[key] = (value if type(value) in _JSON_SCALARS
                        else _json_copy(value))
        return out
    raise _JsonFallback


def roundtrip_payload(payload: Any, *, codec: Optional[str] = None,
                      encryption_key: Optional[bytes] = None,
                      ssl: bool = False) -> Any:
    """``decode_payload(encode_payload(payload, opts), opts)``, optimised.

    RPC between same-configured endpoints serialises a payload and
    immediately parses it back, purely so the receiver gets a *fresh*
    object with JSON semantics (tuples become lists, dicts re-keyed in
    sorted order) and unserialisable payloads still fail.  For plain
    frames that result is built structurally, skipping the dumps/loads
    pair; layered frames keep the real byte transforms since format
    errors are the point of those layers.
    """
    layered = codec is not None or encryption_key is not None or ssl
    if not layered:
        try:
            return _json_copy(payload)
        except _JsonFallback:
            pass
    return decode_payload(
        encode_payload(payload, codec=codec, encryption_key=encryption_key,
                       ssl=ssl),
        codec=codec, encryption_key=encryption_key, ssl=ssl)


# ---------------------------------------------------------------------------
# checksums (dfs.bytes-per-checksum / dfs.checksum.type)
# ---------------------------------------------------------------------------
CHECKSUM_TYPES = ("CRC32", "CRC32C", "NULL")


def _crc(chunk: bytes, ctype: str) -> int:
    if ctype == "CRC32":
        return zlib.crc32(chunk) & 0xFFFFFFFF
    if ctype == "CRC32C":
        # Simulated Castagnoli variant: same engine, different tweak, so
        # values genuinely differ from CRC32 on the same data.
        return (zlib.crc32(chunk, 0x1EDC6F41) ^ 0xA5A5A5A5) & 0xFFFFFFFF
    if ctype == "NULL":
        return 0
    raise ChecksumError("unknown checksum type %r" % ctype)


def compute_checksums(data: bytes, bytes_per_checksum: int, ctype: str) -> List[int]:
    """Per-chunk checksums as written by an HDFS block writer."""
    if bytes_per_checksum <= 0:
        raise ChecksumError("bytes-per-checksum must be positive, got %d"
                            % bytes_per_checksum)
    return [_crc(data[i:i + bytes_per_checksum], ctype)
            for i in range(0, max(len(data), 1), bytes_per_checksum)]


def verify_checksums(data: bytes, checksums: Sequence[int],
                     bytes_per_checksum: int, ctype: str) -> None:
    """Verify data against stored checksums using *this node's* settings.

    A node whose ``bytes_per_checksum`` or checksum type differs from the
    writer's recomputes different values and fails, exactly like a
    DataNode verifying a replica streamed from a differently-configured
    peer (Table 3: dfs.bytes-per-checksum, dfs.checksum.type).
    """
    if ctype == "NULL" and all(c == 0 for c in checksums):
        return
    expected = compute_checksums(data, bytes_per_checksum, ctype)
    if list(checksums) != expected:
        raise ChecksumError(
            "checksum mismatch: %d stored vs %d computed chunks (type=%s, bpc=%d)"
            % (len(checksums), len(expected), ctype, bytes_per_checksum))


# ---------------------------------------------------------------------------
# SASL-style protection negotiation (hadoop.rpc.protection,
# dfs.data.transfer.protection)
# ---------------------------------------------------------------------------
SASL_LEVELS = ("authentication", "integrity", "privacy")


def negotiate_sasl(client_level: str, server_level: str, what: str = "rpc") -> str:
    """Negotiate a SASL QOP; mismatched single-valued QOP lists fail.

    Hadoop nodes advertise exactly the QOP from their configuration; when
    client and server advertise disjoint lists the SASL handshake aborts
    ("RPC client fails to connect to RPC servers", Table 3).
    """
    for level in (client_level, server_level):
        if level not in SASL_LEVELS:
            raise SaslError("invalid %s protection level %r" % (what, level))
    if client_level != server_level:
        raise SaslError(
            "%s SASL negotiation failed: client offers %r, server requires %r"
            % (what, client_level, server_level))
    return client_level
