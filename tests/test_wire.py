"""Codec and password-transform tests against frozen oracle vectors.

The expected octets below were produced by tests/vector_oracle.py, a
standalone serializer written before the package code.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxradius import wire
from ctxradius.wire import Attribute, Packet, PacketCode, WireError

from vectors import FULL_REQUEST_IMAGE, HIDE_VECTORS, RA, RESPONSE_DIGEST

ALL_PAD = r"^recovered nothing but pad octets; wrong secret or corrupt data$"


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_minimal_header():
    raw = wire.encode_packet(Packet(PacketCode.ACCESS_REQUEST, 0, bytes(16)))
    assert len(raw) == 20
    assert raw[:4] == bytes([0x01, 0x00, 0x00, 0x14])


def test_encode_length_field_counts_attributes():
    pkt = Packet(PacketCode.ACCESS_ACCEPT, 7, RA, (Attribute(18, b"ok"),))
    raw = wire.encode_packet(pkt)
    assert raw[2:4] == (24).to_bytes(2, "big")
    assert len(raw) == 24


def test_encode_full_request_matches_oracle_image():
    hidden = wire.hide_password(b"hello", b"secret", RA)
    pkt = Packet(
        PacketCode.ACCESS_REQUEST, 42, RA,
        (
            Attribute(wire.USER_NAME, b"alice"),
            Attribute(wire.USER_PASSWORD, hidden),
            Attribute(wire.SERVICE_TYPE, (1).to_bytes(4, "big")),
        ),
    )
    assert wire.encode_packet(pkt).hex() == FULL_REQUEST_IMAGE


def test_attribute_too_long_rejected():
    with pytest.raises(WireError, match=r"^attribute value is 254 octets, maximum is 253$"):
        Attribute(18, b"x" * 254)


def test_packet_too_long_rejected():
    attrs = tuple(Attribute(18, b"x" * 253) for _ in range(16))
    with pytest.raises(WireError, match=r"^encoded packet is 4100 octets, maximum is 4096$"):
        wire.encode_packet(Packet(PacketCode.ACCESS_ACCEPT, 1, RA, attrs))


def test_decode_minimal_image():
    pkt = wire.decode_packet(bytes([0x01, 0x00, 0x00, 0x14]) + bytes(16))
    assert pkt.code is PacketCode.ACCESS_REQUEST
    assert pkt.identifier == 0
    assert pkt.attributes == ()


def test_decode_19_octets_truncated():
    with pytest.raises(WireError, match=r"^19 octets is below the 20-octet header$"):
        wire.decode_packet(bytes(19))


def test_decode_attribute_length_one_malformed():
    raw = bytes([0x01, 0x00, 0x00, 0x17]) + bytes(16) + bytes([18, 1, 0])
    with pytest.raises(WireError, match=r"^attribute length 1 is below 2$"):
        wire.decode_packet(raw)


def test_decode_unknown_code():
    raw = bytes([0x05, 0x00, 0x00, 0x14]) + bytes(16)
    with pytest.raises(WireError, match=r"^packet code 5 is not a known code$"):
        wire.decode_packet(raw)


def test_decode_ignores_surplus_octets():
    raw = wire.encode_packet(Packet(PacketCode.ACCESS_REQUEST, 9, RA))
    pkt = wire.decode_packet(raw + b"\xde\xad\xbe\xef")
    assert pkt.identifier == 9
    assert pkt.attributes == ()


def test_decode_attribute_overrun_malformed():
    # attribute claims 10 octets but only 4 remain inside the declared length
    raw = bytes([0x01, 0x00, 0x00, 0x18]) + bytes(16) + bytes([1, 10, 0, 0])
    with pytest.raises(WireError, match=r"^attribute overruns the declared packet length$"):
        wire.decode_packet(raw)


# ---------------------------------------------------------------------------
# password hiding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("plaintext,secret,ra,hidden_hex", HIDE_VECTORS)
def test_hide_matches_oracle(plaintext, secret, ra, hidden_hex):
    assert wire.hide_password(plaintext, secret, ra).hex() == hidden_hex


@pytest.mark.parametrize("plaintext,secret,ra,hidden_hex", HIDE_VECTORS)
def test_recover_inverts_oracle_vectors(plaintext, secret, ra, hidden_hex):
    assert wire.recover_password(bytes.fromhex(hidden_hex), secret, ra) == plaintext


def test_hide_pads_to_block_multiple():
    assert len(wire.hide_password(b"x" * 20, b"secret", RA)) == 32


def test_recover_with_wrong_secret_differs():
    hidden = bytes.fromhex(HIDE_VECTORS[0][3])
    try:
        recovered = wire.recover_password(hidden, b"wrong", RA)
    except WireError as exc:
        assert re.match(ALL_PAD, str(exc))
        return
    assert recovered != b"hello"


def test_hide_input_validation():
    with pytest.raises(WireError, match=r"^password must not be empty$"):
        wire.hide_password(b"", b"secret", RA)
    with pytest.raises(WireError, match=r"^password is 129 octets, maximum is 128$"):
        wire.hide_password(b"x" * 129, b"secret", RA)
    with pytest.raises(WireError, match=r"^password contains the 0x00 pad octet$"):
        wire.hide_password(b"ab\x00cd", b"secret", RA)
    with pytest.raises(WireError, match=r"^shared secret must not be empty$"):
        wire.hide_password(b"hello", b"", RA)
    with pytest.raises(WireError, match=r"^request authenticator must be exactly 16 octets$"):
        wire.hide_password(b"hello", b"secret", b"short")


@pytest.mark.parametrize("length", [15, 0, 17, 144])
def test_recover_bad_lengths(length):
    fault = rf"^hidden password of {length} octets is not a positive multiple of 16 at most 128$"
    with pytest.raises(WireError, match=fault):
        wire.recover_password(b"\x01" * length, b"secret", RA)


def test_recover_all_pad():
    # hiding nothing but pad is exactly the chained MD5 keystream
    import hashlib

    keystream = hashlib.md5(b"secret" + RA).digest()
    with pytest.raises(WireError, match=ALL_PAD):
        wire.recover_password(keystream, b"secret", RA)


# ---------------------------------------------------------------------------
# response authenticator
# ---------------------------------------------------------------------------

def _response() -> Packet:
    return Packet(
        PacketCode.ACCESS_ACCEPT, 7, bytes(16),
        (Attribute(wire.REPLY_MESSAGE, b"granted: default"),),
    )


def test_response_authenticator_matches_oracle():
    digest = wire.stamp_response(wire.encode_packet(_response()), RA, b"secret")[4:20]
    assert digest.hex() == RESPONSE_DIGEST


def test_verify_self_produced_response():
    digest = wire.stamp_response(wire.encode_packet(_response()), RA, b"secret")[4:20]
    stamped = Packet(PacketCode.ACCESS_ACCEPT, 7, digest, _response().attributes)
    assert wire.verify_response_authenticator(stamped, RA, b"secret")


def test_flipping_attribute_octet_changes_digest():
    base = wire.stamp_response(wire.encode_packet(_response()), RA, b"secret")[4:20]
    for i in range(len(b"granted: default")):
        mutated = bytearray(b"granted: default")
        mutated[i] ^= 0x01
        pkt = Packet(PacketCode.ACCESS_ACCEPT, 7, bytes(16),
                     (Attribute(wire.REPLY_MESSAGE, bytes(mutated)),))
        assert wire.stamp_response(wire.encode_packet(pkt), RA, b"secret")[4:20] != base


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

attribute_st = st.builds(
    Attribute,
    attr_type=st.integers(min_value=1, max_value=255),
    value=st.binary(max_size=64),
)

packet_st = st.builds(
    Packet,
    code=st.sampled_from(list(PacketCode)),
    identifier=st.integers(min_value=0, max_value=255),
    authenticator=st.binary(min_size=16, max_size=16),
    attributes=st.lists(attribute_st, max_size=12).map(tuple),
)

password_st = st.binary(min_size=1, max_size=128).filter(lambda b: b"\x00" not in b)


@given(packet_st)
def test_packet_round_trip(pkt):
    assert wire.decode_packet(wire.encode_packet(pkt)) == pkt


@given(password_st, st.binary(min_size=1, max_size=32),
       st.binary(min_size=16, max_size=16))
def test_cipher_round_trip(plaintext, secret, ra):
    assert wire.recover_password(wire.hide_password(plaintext, secret, ra), secret, ra) == plaintext


@given(st.binary(min_size=17, max_size=128).filter(lambda b: b"\x00" not in b),
       st.binary(min_size=1, max_size=32),
       st.binary(min_size=16, max_size=16),
       st.integers(min_value=0, max_value=15))
def test_block_chaining(plaintext, secret, ra, flip_at):
    """Corrupting cipher block i-1 corrupts the recovered block i."""
    hidden = bytearray(wire.hide_password(plaintext, secret, ra))
    hidden[flip_at] ^= 0x01
    try:
        recovered = wire.recover_password(bytes(hidden), secret, ra)
    except WireError as exc:
        assert re.match(ALL_PAD, str(exc))
        recovered = b""
    padded = plaintext + b"\x00" * (-len(plaintext) % 16)
    recovered += b"\x00" * (len(padded) - len(recovered))
    assert recovered[16:32] != padded[16:32]


@given(password_st)
def test_length_law(plaintext):
    hidden = wire.hide_password(plaintext, b"secret", RA)
    assert len(hidden) == 16 * ((len(plaintext) + 15) // 16)


@given(st.binary(max_size=256))
def test_decode_total_on_arbitrary_input(data):
    try:
        wire.decode_packet(data)
    except WireError:
        pass


def test_decode_total_on_seeded_corpus():
    rng = random.Random(20240817)
    for _ in range(2000):
        data = rng.randbytes(rng.randrange(0, 200))
        try:
            wire.decode_packet(data)
        except WireError:
            pass
