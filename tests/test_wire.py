"""Unit tests for wire formats: framing, codecs, encryption, SSL,
checksums, SASL negotiation."""

from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import wire
from repro.common.errors import ChecksumError, DecodeError, SaslError, SslError
from repro.common.wire import (SASL_LEVELS, SUPPORTED_CODECS,
                               compute_checksums, decode_payload,
                               encode_payload, negotiate_sasl,
                               roundtrip_payload, transfer, verify_checksums)

PAYLOAD = {"op": "write", "block": 17, "data": "0011aabb"}


class _Qop(enum.IntEnum):
    AUTH = 1
    PRIVACY = 3


class _Tag(str):
    pass


def _shape(obj):
    """Value, exact type and dict key order, recursively."""
    if isinstance(obj, dict):
        return ("dict", [(type(k), k, _shape(v)) for k, v in obj.items()])
    if isinstance(obj, list):
        return ("list", [_shape(item) for item in obj])
    return (type(obj), obj)


#: leaves JSON keeps (exact scalars) or coerces (IntEnum, str subclass);
#: NaN is left out only because it never equals itself.
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=4), st.sampled_from(list(_Qop)),
    st.text(max_size=4).map(_Tag))

#: nested lists, tuples and dicts of those leaves; some dicts have int
#: keys (coerced to strings) or mixed keys (json.dumps raises TypeError).
_NESTED = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=4),
    st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)),
                    children, max_size=3)), max_leaves=12)


class TestFraming:
    def test_plain_round_trip(self):
        assert decode_payload(encode_payload(PAYLOAD)) == PAYLOAD

    @pytest.mark.parametrize("codec", SUPPORTED_CODECS)
    def test_codec_round_trip(self, codec):
        wire = encode_payload(PAYLOAD, codec=codec)
        assert decode_payload(wire, codec=codec) == PAYLOAD

    def test_encrypted_round_trip(self):
        wire = encode_payload(PAYLOAD, encryption_key=b"k1")
        assert decode_payload(wire, encryption_key=b"k1") == PAYLOAD

    def test_ssl_round_trip(self):
        wire = encode_payload(PAYLOAD, ssl=True)
        assert decode_payload(wire, ssl=True) == PAYLOAD

    def test_all_layers_round_trip(self):
        options = {"codec": "gzip", "encryption_key": b"secret", "ssl": True}
        assert transfer(PAYLOAD, options, dict(options)) == PAYLOAD

    def test_unknown_codec_rejected(self):
        with pytest.raises(DecodeError):
            encode_payload(PAYLOAD, codec="brotli-ish")

    @given(st.binary(max_size=300), st.binary(min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_xor_stream_matches_per_byte_loop(self, data, key):
        expected = bytes(b ^ key[i % len(key)] for i, b in enumerate(data))
        assert wire._xor_stream(data, key) == expected


class TestRoundtripPayload:
    """``roundtrip_payload`` builds plain frames structurally; it must
    equal the real serialise-then-parse pair, key order and types too."""

    @pytest.mark.parametrize("payload", [
        PAYLOAD,
        ("a", 1, [2, (3, 4)]),
        {"z": {"y": 1, "b": [{"d": 0, "c": None}]}, "a": (True, 2.5)},
        {"qop": _Qop.PRIVACY, "levels": [_Qop.AUTH, 7]},
        {"name": _Tag("dn-0"), _Tag("k"): "v", "plain": "s"},
        {2: "two", 1: {10: "ten", 3: "three"}},
        [],
        "bare",
        None,
        # leaves the copier decides inline, without recursing per item
        [_Qop.AUTH, 1, "s"],
        {"qop": _Qop.PRIVACY, "n": 1},
        [_Tag("dn-0"), "plain"],
        {"name": _Tag("dn-1"), "id": 1},
        [True, False, 1, 0, 2.5, -0.0, 1e300, None],
        {"z": True, "y": 0.125, "x": False, "w": 3.0, "v": None},
        [[1.5, True], {"b": False, "a": 2.0}, (0.5, "t")],
    ])
    def test_equals_encode_then_decode(self, payload):
        expected = decode_payload(encode_payload(payload))
        assert _shape(roundtrip_payload(payload)) == _shape(expected)

    @given(_NESTED)
    @settings(max_examples=300, deadline=None)
    def test_nested_payloads_match_json(self, payload):
        try:
            expected = json.loads(json.dumps(payload, sort_keys=True))
        except TypeError as exc:
            with pytest.raises(TypeError) as raised:
                roundtrip_payload(payload)
            assert str(raised.value) == str(exc)
        else:
            assert _shape(roundtrip_payload(payload)) == _shape(expected)

    def test_result_is_a_fresh_object(self):
        payload = {"blocks": [1, 2], "meta": {"gen": 7}}
        copy = roundtrip_payload(payload)
        copy["blocks"].append(3)
        copy["meta"]["gen"] = 8
        assert payload == {"blocks": [1, 2], "meta": {"gen": 7}}

    @pytest.mark.parametrize("payload", [
        {"conf": object()},
        [{1, 2}],
        {1: "int key", "a": "str key"},
    ])
    def test_unserialisable_raises_the_same_type_error(self, payload):
        with pytest.raises(TypeError) as expected:
            encode_payload(payload)
        with pytest.raises(TypeError) as raised:
            roundtrip_payload(payload)
        assert str(raised.value) == str(expected.value)


class TestMismatches:
    """Each mismatch is the mechanism behind a Table-3 failure."""

    def test_receiver_expects_compression_sender_sent_plain(self):
        with pytest.raises(DecodeError):
            transfer(PAYLOAD, {}, {"codec": "gzip"})

    def test_receiver_expects_plain_sender_compressed(self):
        with pytest.raises(DecodeError):
            transfer(PAYLOAD, {"codec": "gzip"}, {})

    def test_codec_mismatch(self):
        with pytest.raises(DecodeError):
            transfer(PAYLOAD, {"codec": "gzip"}, {"codec": "snappy"})

    def test_encryption_mismatch(self):
        with pytest.raises(DecodeError):
            transfer(PAYLOAD, {"encryption_key": b"k1"}, {})

    def test_wrong_key(self):
        with pytest.raises(DecodeError):
            transfer(PAYLOAD, {"encryption_key": b"k1"},
                     {"encryption_key": b"k2"})

    def test_plaintext_to_ssl_endpoint(self):
        with pytest.raises(SslError):
            transfer(PAYLOAD, {}, {"ssl": True})

    def test_ssl_to_plaintext_endpoint(self):
        with pytest.raises(SslError):
            transfer(PAYLOAD, {"ssl": True}, {})

    @given(st.sampled_from(SUPPORTED_CODECS), st.sampled_from(SUPPORTED_CODECS))
    @settings(max_examples=20, deadline=None)
    def test_codec_pairs_fail_iff_different(self, send, receive):
        if send == receive:
            assert transfer(PAYLOAD, {"codec": send},
                            {"codec": receive}) == PAYLOAD
        else:
            with pytest.raises(DecodeError):
                transfer(PAYLOAD, {"codec": send}, {"codec": receive})


class TestChecksums:
    def test_chunk_count(self):
        data = b"x" * 1000
        assert len(compute_checksums(data, 256, "CRC32")) == 4

    def test_empty_data_has_one_chunk(self):
        assert len(compute_checksums(b"", 512, "CRC32")) == 1

    def test_verify_accepts_own_checksums(self):
        data = b"block-data" * 50
        sums = compute_checksums(data, 128, "CRC32C")
        verify_checksums(data, sums, 128, "CRC32C")

    def test_bytes_per_checksum_mismatch_detected(self):
        data = b"block-data" * 50
        sums = compute_checksums(data, 128, "CRC32")
        with pytest.raises(ChecksumError):
            verify_checksums(data, sums, 64, "CRC32")

    def test_checksum_type_mismatch_detected(self):
        data = b"block-data" * 50
        sums = compute_checksums(data, 128, "CRC32")
        with pytest.raises(ChecksumError):
            verify_checksums(data, sums, 128, "CRC32C")

    def test_null_writer_null_reader_passes(self):
        data = b"abc" * 10
        sums = compute_checksums(data, 16, "NULL")
        verify_checksums(data, sums, 16, "NULL")

    def test_crc_writer_null_reader_detected(self):
        data = b"abc" * 10
        sums = compute_checksums(data, 16, "CRC32")
        with pytest.raises(ChecksumError):
            verify_checksums(data, sums, 16, "NULL")

    def test_nonpositive_chunk_size_rejected(self):
        with pytest.raises(ChecksumError):
            compute_checksums(b"x", 0, "CRC32")

    def test_unknown_type_rejected(self):
        with pytest.raises(ChecksumError):
            compute_checksums(b"x", 8, "MD5ish")

    @given(st.binary(min_size=1, max_size=2048),
           st.integers(min_value=1, max_value=512),
           st.sampled_from(("CRC32", "CRC32C")))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data, chunk, ctype):
        sums = compute_checksums(data, chunk, ctype)
        verify_checksums(data, sums, chunk, ctype)

    @given(st.binary(min_size=4, max_size=512),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_corruption_detected_property(self, data, chunk):
        sums = compute_checksums(data, chunk, "CRC32")
        corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
        with pytest.raises(ChecksumError):
            verify_checksums(corrupted, sums, chunk, "CRC32")


class TestSasl:
    @pytest.mark.parametrize("level", SASL_LEVELS)
    def test_matching_levels_negotiate(self, level):
        assert negotiate_sasl(level, level) == level

    @given(st.sampled_from(SASL_LEVELS), st.sampled_from(SASL_LEVELS))
    @settings(max_examples=20, deadline=None)
    def test_mismatch_fails_iff_different(self, client, server):
        if client == server:
            assert negotiate_sasl(client, server) == client
        else:
            with pytest.raises(SaslError):
                negotiate_sasl(client, server)

    def test_invalid_level_rejected(self):
        with pytest.raises(SaslError):
            negotiate_sasl("maximum", "privacy")
