"""RFC 2865-style packet codec and shared-secret password hiding.

Everything in here is a pure function of its inputs; no shared state.
MD5 appears because the wire format mandates it, not as general-purpose
cryptography.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import struct
from enum import IntEnum

HEADER_LEN = 20
MAX_PACKET_LEN = 4096
MAX_ATTR_VALUE_LEN = 253
MAX_PASSWORD_LEN = 128
BLOCK_LEN = 16

# Attribute types used by this server
USER_NAME = 1
USER_PASSWORD = 2
NAS_IP_ADDRESS = 4
SERVICE_TYPE = 6
REPLY_MESSAGE = 18
STATE = 24

# Service-Type values
SERVICE_LOGIN_USER = 1
SERVICE_ADMINISTRATIVE_USER = 6

ATTRIBUTE_NAMES = {
    USER_NAME: "User-Name",
    USER_PASSWORD: "User-Password",
    NAS_IP_ADDRESS: "NAS-IP-Address",
    SERVICE_TYPE: "Service-Type",
    REPLY_MESSAGE: "Reply-Message",
    STATE: "State",
}


class PacketCode(IntEnum):
    ACCESS_REQUEST = 1
    ACCESS_ACCEPT = 2
    ACCESS_REJECT = 3
    ACCESS_CHALLENGE = 11


CODE_NAMES = {
    PacketCode.ACCESS_REQUEST: "AccessRequest",
    PacketCode.ACCESS_ACCEPT: "AccessAccept",
    PacketCode.ACCESS_REJECT: "AccessReject",
    PacketCode.ACCESS_CHALLENGE: "AccessChallenge",
}


class WireError(ValueError):
    """Any codec or password-transform failure; the message names the fault."""


def _md5(data: bytes) -> bytes:
    return hashlib.md5(data, usedforsecurity=False).digest()


def _chain(data: bytes, secret: bytes, ra: bytes, hiding: bool) -> bytes:
    """XOR each 16-octet block of `data` with MD5(secret + previous cipher
    block), the chain seeded by `ra`; the cipher block is the output when
    hiding and the input when recovering."""
    out = []
    prev = ra
    for i in range(0, len(data), BLOCK_LEN):
        block = data[i:i + BLOCK_LEN]
        key = int.from_bytes(_md5(secret + prev), "big")
        out.append((int.from_bytes(block, "big") ^ key).to_bytes(BLOCK_LEN, "big"))
        prev = out[-1] if hiding else block
    return b"".join(out)


class Attribute:
    """One type-length-value attribute; unknown types are carried opaquely."""

    __slots__ = ("attr_type", "value")

    def __init__(self, attr_type: int, value: bytes) -> None:
        if not 1 <= attr_type <= 255:
            raise WireError(f"attribute type {attr_type} outside 1-255")
        if len(value) > MAX_ATTR_VALUE_LEN:
            raise WireError(
                f"attribute value is {len(value)} octets, maximum is {MAX_ATTR_VALUE_LEN}")
        self.attr_type = attr_type
        self.value = value

    def __eq__(self, other: object) -> bool:
        if type(other) is not Attribute:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class Packet:
    """One protocol message: header fields plus an ordered attribute list."""

    __slots__ = ("code", "identifier", "authenticator", "attributes")

    def __init__(self, code: PacketCode, identifier: int, authenticator: bytes,
                 attributes: tuple[Attribute, ...] = ()) -> None:
        try:
            self.code = PacketCode(code)
        except ValueError:
            raise WireError(f"packet code {code} is not a known code") from None
        if not 0 <= identifier <= 255:
            raise WireError(f"identifier {identifier} outside 0-255")
        if len(authenticator) != 16:
            raise WireError("authenticator must be exactly 16 octets")
        self.identifier = identifier
        self.authenticator = authenticator
        self.attributes = tuple(attributes)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Packet:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def first(self, attr_type: int) -> bytes | None:
        """Value of the first attribute of the given type, or None."""
        for attr in self.attributes:
            if attr.attr_type == attr_type:
                return attr.value
        return None


def random_authenticator() -> bytes:
    """Fresh 16-octet random Request Authenticator."""
    return secrets.token_bytes(16)


def encode_attribute(attr_type: int, value: bytes) -> bytes:
    """One attribute: its type, length and value octets."""
    return bytes((attr_type, len(value) + 2)) + value


def frame(code: int, identifier: int, authenticator: bytes, body: bytes) -> bytes:
    """A packet: code(1) id(1) length(2,BE) authenticator(16) body; WireError past the limit."""
    length = HEADER_LEN + len(body)
    if length > MAX_PACKET_LEN:
        raise WireError(f"encoded packet is {length} octets, maximum is {MAX_PACKET_LEN}")
    return struct.pack("!BBH", code, identifier, length) + authenticator + body


def encode_packet(packet: Packet) -> bytes:
    """Serialise a packet; the Attribute itself bounds each value."""
    body = b"".join(encode_attribute(attr.attr_type, attr.value) for attr in packet.attributes)
    return frame(packet.code, packet.identifier, packet.authenticator, body)


def scan_packet(data: bytes) -> tuple[int, int, bytes, list[tuple[int, bytes]]]:
    """Walk a datagram once, with no per-attribute objects: its code,
    identifier, authenticator and `(type, value)` pairs in wire order.

    Total over arbitrary input: raises only WireError, for each attribute's
    fault in turn, then an unknown code.  The declared length
    governs; surplus octets beyond it are ignored."""
    if len(data) < HEADER_LEN:
        raise WireError(f"{len(data)} octets is below the {HEADER_LEN}-octet header")
    code, identifier, length = struct.unpack_from("!BBH", data)
    if length < HEADER_LEN:
        raise WireError(f"declared length {length} is below the header size")
    if len(data) < length:
        raise WireError(f"{len(data)} octets received, {length} declared")

    attributes = []
    pos = HEADER_LEN
    while pos < length:
        if length - pos < 2:
            raise WireError("dangling attribute octet")
        attr_type = data[pos]
        attr_len = data[pos + 1]
        if attr_len < 2:
            raise WireError(f"attribute length {attr_len} is below 2")
        if pos + attr_len > length:
            raise WireError("attribute overruns the declared packet length")
        if not attr_type:
            raise WireError("attribute type 0 outside 1-255")
        attributes.append((attr_type, data[pos + 2:pos + attr_len]))
        pos += attr_len
    if code not in CODE_NAMES:
        raise WireError(f"packet code {code} is not a known code")
    return code, identifier, data[4:HEADER_LEN], attributes


def decode_packet(data: bytes) -> Packet:
    """`scan_packet`'s result as a Packet; total over input in the same way."""
    code, identifier, authenticator, pairs = scan_packet(data)
    return Packet(code, identifier, authenticator, tuple(Attribute(*pair) for pair in pairs))


def hide_password(plaintext: bytes, secret: bytes, ra: bytes) -> bytes:
    """Transform a password into concatenated 16-octet cipher blocks.

    The plaintext is zero-padded to a block boundary and split into blocks
    p_1..p_n; block i is XORed with MD5(secret + previous cipher block),
    where the chain is seeded by the Request Authenticator.
    """
    if not plaintext:
        raise WireError("password must not be empty")
    if len(plaintext) > MAX_PASSWORD_LEN:
        raise WireError(f"password is {len(plaintext)} octets, maximum is {MAX_PASSWORD_LEN}")
    if b"\x00" in plaintext:
        raise WireError("password contains the 0x00 pad octet")
    if not secret:
        raise WireError("shared secret must not be empty")
    if len(ra) != 16:
        raise WireError("request authenticator must be exactly 16 octets")

    return _chain(plaintext + b"\x00" * (-len(plaintext) % BLOCK_LEN), secret, ra, True)


def recover_password(hidden: bytes, secret: bytes, ra: bytes) -> bytes:
    """Invert hide_password and strip the trailing zero pad."""
    if not hidden or len(hidden) % BLOCK_LEN != 0 or len(hidden) > MAX_PASSWORD_LEN:
        raise WireError(
            f"hidden password of {len(hidden)} octets is not a positive multiple "
            f"of {BLOCK_LEN} at most {MAX_PASSWORD_LEN}"
        )
    if len(ra) != 16:
        raise WireError("request authenticator must be exactly 16 octets")

    plain = _chain(hidden, secret, ra, False).rstrip(b"\x00")
    if not plain:
        raise WireError("recovered nothing but pad octets; wrong secret or corrupt data")
    return plain


def stamp_response(raw: bytes, request_ra: bytes, secret: bytes) -> bytes:
    """Put MD5(code + id + length + request RA + attributes + secret) in
    the authenticator field of an encoded response; request RA is the
    Request Authenticator of the request being answered."""
    head, body = raw[:4], raw[HEADER_LEN:]
    return head + _md5(head + request_ra + body + secret) + body


def verify_response_authenticator(response: Packet, request_ra: bytes, secret: bytes) -> bool:
    """Constant-time check of a response's authenticator field against the
    one stamp_response gives it (Accept, Reject or Challenge)."""
    expected = stamp_response(encode_packet(response), request_ra, secret)[4:HEADER_LEN]
    return hmac.compare_digest(response.authenticator, expected)
