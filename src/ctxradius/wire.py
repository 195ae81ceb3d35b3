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
from dataclasses import dataclass, field
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
    """Base class for codec and password-transform failures."""


class AttributeTooLong(WireError):
    pass


class PacketTooLong(WireError):
    pass


class Truncated(WireError):
    pass


class MalformedAttribute(WireError):
    pass


class UnknownCode(WireError):
    pass


class EmptyPassword(WireError):
    pass


class PasswordTooLong(WireError):
    pass


class PasswordContainsPad(WireError):
    pass


class EmptySecret(WireError):
    pass


class BadLength(WireError):
    pass


class AllPadRecovered(WireError):
    pass


def _md5(data: bytes) -> bytes:
    return hashlib.md5(data, usedforsecurity=False).digest()


@dataclass(frozen=True)
class Attribute:
    """One type-length-value attribute; unknown types are carried opaquely."""

    attr_type: int
    value: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.attr_type <= 255:
            raise MalformedAttribute(f"attribute type {self.attr_type} outside 1-255")
        if len(self.value) > MAX_ATTR_VALUE_LEN:
            raise AttributeTooLong(
                f"attribute value is {len(self.value)} octets, maximum is {MAX_ATTR_VALUE_LEN}"
            )


@dataclass(frozen=True)
class Packet:
    """One protocol message: header fields plus an ordered attribute list."""

    code: PacketCode
    identifier: int
    authenticator: bytes
    attributes: tuple[Attribute, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "code", PacketCode(self.code))
        except ValueError:
            raise UnknownCode(f"packet code {self.code} is not a known code") from None
        if not 0 <= self.identifier <= 255:
            raise WireError(f"identifier {self.identifier} outside 0-255")
        if len(self.authenticator) != 16:
            raise WireError("authenticator must be exactly 16 octets")
        object.__setattr__(self, "attributes", tuple(self.attributes))

    def first(self, attr_type: int) -> bytes | None:
        """Value of the first attribute of the given type, or None."""
        for attr in self.attributes:
            if attr.attr_type == attr_type:
                return attr.value
        return None


def random_authenticator() -> bytes:
    """Fresh 16-octet random Request Authenticator."""
    return secrets.token_bytes(16)


def encode_packet(packet: Packet) -> bytes:
    """Serialise a packet: code(1) id(1) length(2,BE) authenticator(16) attrs.

    Raises AttributeTooLong / PacketTooLong when the result would exceed
    the wire limits.
    """
    body = b""
    for attr in packet.attributes:
        if len(attr.value) > MAX_ATTR_VALUE_LEN:
            raise AttributeTooLong(f"attribute value of {len(attr.value)} octets")
        body += struct.pack("!BB", attr.attr_type, len(attr.value) + 2) + attr.value
    length = HEADER_LEN + len(body)
    if length > MAX_PACKET_LEN:
        raise PacketTooLong(f"encoded packet is {length} octets, maximum is {MAX_PACKET_LEN}")
    header = struct.pack("!BBH", packet.code, packet.identifier, length)
    return header + packet.authenticator + body


def decode_packet(data: bytes) -> Packet:
    """Parse a datagram into a Packet.

    Total over arbitrary input: returns a Packet or raises a WireError
    subclass, never anything else.  The declared length field governs;
    surplus octets beyond it are ignored.
    """
    if len(data) < HEADER_LEN:
        raise Truncated(f"{len(data)} octets is below the {HEADER_LEN}-octet header")
    code, identifier, length = struct.unpack("!BBH", data[:4])
    if length < HEADER_LEN:
        raise Truncated(f"declared length {length} is below the header size")
    if len(data) < length:
        raise Truncated(f"{len(data)} octets received, {length} declared")
    try:
        code = PacketCode(code)
    except ValueError:
        raise UnknownCode(f"packet code {code}") from None
    authenticator = data[4:20]

    attributes = []
    pos = HEADER_LEN
    while pos < length:
        if length - pos < 2:
            raise MalformedAttribute("dangling attribute octet")
        attr_type = data[pos]
        attr_len = data[pos + 1]
        if attr_len < 2:
            raise MalformedAttribute(f"attribute length {attr_len} is below 2")
        if pos + attr_len > length:
            raise MalformedAttribute("attribute overruns the declared packet length")
        if attr_type == 0:
            raise MalformedAttribute("attribute type 0 is reserved")
        attributes.append(Attribute(attr_type, data[pos + 2:pos + attr_len]))
        pos += attr_len

    return Packet(code, identifier, authenticator, tuple(attributes))


def hide_password(plaintext: bytes, secret: bytes, ra: bytes) -> bytes:
    """Transform a password into concatenated 16-octet cipher blocks.

    The plaintext is zero-padded to a block boundary and split into blocks
    p_1..p_n; block i is XORed with MD5(secret + previous cipher block),
    where the chain is seeded by the Request Authenticator.
    """
    if not plaintext:
        raise EmptyPassword("password must not be empty")
    if len(plaintext) > MAX_PASSWORD_LEN:
        raise PasswordTooLong(
            f"password is {len(plaintext)} octets, maximum is {MAX_PASSWORD_LEN}"
        )
    if b"\x00" in plaintext:
        raise PasswordContainsPad("password contains the 0x00 pad octet")
    if not secret:
        raise EmptySecret("shared secret must not be empty")
    if len(ra) != 16:
        raise WireError("request authenticator must be exactly 16 octets")

    padded = plaintext + b"\x00" * (-len(plaintext) % BLOCK_LEN)
    blocks = []
    prev = ra
    for i in range(0, len(padded), BLOCK_LEN):
        key = _md5(secret + prev)
        cipher = bytes(p ^ k for p, k in zip(padded[i:i + BLOCK_LEN], key))
        blocks.append(cipher)
        prev = cipher
    return b"".join(blocks)


def recover_password(hidden: bytes, secret: bytes, ra: bytes) -> bytes:
    """Invert hide_password and strip the trailing zero pad."""
    if not hidden or len(hidden) % BLOCK_LEN != 0 or len(hidden) > MAX_PASSWORD_LEN:
        raise BadLength(
            f"hidden password of {len(hidden)} octets is not a positive multiple "
            f"of {BLOCK_LEN} at most {MAX_PASSWORD_LEN}"
        )
    if len(ra) != 16:
        raise WireError("request authenticator must be exactly 16 octets")

    plain = b""
    prev = ra
    for i in range(0, len(hidden), BLOCK_LEN):
        cipher = hidden[i:i + BLOCK_LEN]
        key = _md5(secret + prev)
        plain += bytes(c ^ k for c, k in zip(cipher, key))
        prev = cipher
    plain = plain.rstrip(b"\x00")
    if not plain:
        raise AllPadRecovered("recovered nothing but pad octets; wrong secret or corrupt data")
    return plain


def stamp_response(raw: bytes, request_ra: bytes, secret: bytes) -> bytes:
    """Put MD5(code + id + length + request RA + attributes + secret) in
    the authenticator field of an encoded response; request RA is the
    Request Authenticator of the request being answered."""
    head, body = raw[:4], raw[HEADER_LEN:]
    return head + _md5(head + request_ra + body + secret) + body


def compute_response_authenticator(response: Packet, request_ra: bytes, secret: bytes) -> bytes:
    """The authenticator stamp_response would give a response packet
    (Accept, Reject or Challenge)."""
    return stamp_response(encode_packet(response), request_ra, secret)[4:HEADER_LEN]


def verify_response_authenticator(response: Packet, request_ra: bytes, secret: bytes) -> bool:
    """Constant-time check of a response's authenticator field."""
    expected = compute_response_authenticator(response, request_ra, secret)
    return hmac.compare_digest(response.authenticator, expected)
