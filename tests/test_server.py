"""Datagram-level tests driving handle_datagram directly, no sockets."""

from __future__ import annotations

import io
import itertools
import os
import secrets
import sys
import threading
from datetime import datetime, timedelta
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxradius import server as server_module
from ctxradius import wire
from ctxradius.auth import (
    MAX_PENDING_PER_USER,
    AuthPolicy,
    UserRecord,
    UserStore,
    latest_otp,
)
from ctxradius.context import (
    ConfigError,
    ContextConfig,
    ImplausibilityReason,
    evaluate_plausibility,
    stamp,
)
from ctxradius.scenarios import DEMO_SECRET, DEMO_USERS, write_demo_fixtures
from ctxradius.server import (
    ROLE_NAMES,
    ClientEntry,
    EventLog,
    Server,
    ServerConfig,
    ServerStartupError,
    load_server_config,
)
from ctxradius.wire import Attribute, Packet, PacketCode

PEER = IPv4Address("127.0.0.1")
ALICE, ALICE_PW = DEMO_USERS[0][0], DEMO_USERS[0][1]


@pytest.fixture
def server(tmp_path):
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    return Server(config, EventLog(stream=io.StringIO()))


def access_request(username: str | None, password: str, secret: bytes = DEMO_SECRET,
                   service_type: int | None = wire.SERVICE_LOGIN_USER,
                   identifier: int = 1, nas_ip: str | None = None,
                   state: bytes | None = None, ra: bytes | None = None) -> bytes:
    ra = ra or wire.random_authenticator()
    attrs = [] if username is None else [Attribute(wire.USER_NAME, username.encode())]
    if password:
        attrs.append(Attribute(
            wire.USER_PASSWORD, wire.hide_password(password.encode(), secret, ra)))
    if service_type is not None:
        attrs.append(Attribute(wire.SERVICE_TYPE, service_type.to_bytes(4, "big")))
    if nas_ip is not None:
        attrs.append(Attribute(wire.NAS_IP_ADDRESS, IPv4Address(nas_ip).packed))
    if state is not None:
        attrs.append(Attribute(wire.STATE, state))
    return wire.encode_packet(
        Packet(PacketCode.ACCESS_REQUEST, identifier, ra, tuple(attrs)))


def handle(server: Server, raw: bytes, peer: IPv4Address = PEER) -> Packet | None:
    response = server.handle_datagram(raw, peer, server.clock())
    return wire.decode_packet(response) if response is not None else None


def demo_server(directory) -> tuple[Server, io.StringIO]:
    """A Server on the demo fixtures, and the stream its event lines go to."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(directory, port=0))
    return Server(config, EventLog(stream=events)), events


def root_leg(identifier: int, password: str = ALICE_PW, state: bytes | None = None) -> bytes:
    """alice asking for root access, or answering the challenge `state`."""
    return access_request(ALICE, password, service_type=wire.SERVICE_ADMINISTRATIVE_USER,
                          identifier=identifier, state=state)


def challenged(server: Server, count: int = 1) -> tuple[str, bytes]:
    """Challenge `count` root requests by alice; the OTP delivered for the
    last one and its State."""
    for identifier in range(1, count + 1):
        response = handle(server, root_leg(identifier))
        assert response.code is PacketCode.ACCESS_CHALLENGE
    return latest_otp(server.config.delivery_log_path, "sms:alice"), response.first(wire.STATE)


def flooded(server: Server) -> bytes:
    """A root request by alice past the pending maximum."""
    challenged(server, MAX_PENDING_PER_USER)
    return root_leg(9)


def repeated(server: Server, same: bool) -> bytes:
    """After a request with identifier 1: the same bytes, or a new request
    with the same identifier."""
    first = access_request(ALICE, ALICE_PW)
    handle(server, first)
    return first if same else access_request(ALICE, ALICE_PW)


ACCEPT, CHALLENGE, REJECT = (
    PacketCode.ACCESS_ACCEPT, PacketCode.ACCESS_CHALLENGE, PacketCode.ACCESS_REJECT)
ELSEWHERE = IPv4Address("192.0.2.1")  # in no client network
# One datagram per decision path: (case, the datagram, sent after the legs it
# answers or repeats; its peer; the reply code, None for a drop; its event
# line after the instant; how often it takes the Server's lock).
LEGS = [
    ("authenticate-accept", lambda s: access_request(ALICE, ALICE_PW), PEER, ACCEPT,
     ("accept", ALICE, "granted: default"), 1),
    ("authenticate-challenge", lambda s: root_leg(9), PEER, CHALLENGE,
     ("challenge", ALICE, "otp challenge issued"), 1),
    ("authenticate-flood", flooded, PEER, REJECT,
     ("reject", ALICE, "ChallengeFloodLimit"), 1),
    ("authenticate-bad-credentials", lambda s: access_request(ALICE, "wrong"), PEER, REJECT,
     ("reject", ALICE, "BadCredentials"), 1),
    ("authenticate-malformed", lambda s: access_request(ALICE, ""), PEER, REJECT,
     ("reject", ALICE, "MalformedRequest"), 1),
    ("complete-accept", lambda s: root_leg(9, *challenged(s)), PEER, ACCEPT,
     ("accept", ALICE, "granted: root"), 1),
    ("complete-wrong-otp", lambda s: root_leg(9, "wrong", challenged(s)[1]), PEER, REJECT,
     ("reject", ALICE, "BadOtp"), 1),
    ("complete-unknown", lambda s: root_leg(9, "123456", b"\x99" * 16), PEER, REJECT,
     ("reject", ALICE, "UnknownChallenge"), 1),
    ("replay", lambda s: repeated(s, same=True), PEER, ACCEPT,
     ("replay", str(PEER), "id=1"), 1),
    ("duplicate-id", lambda s: repeated(s, same=False), PEER, None,
     ("drop", str(PEER), "duplicate id=1 in dedup window"), 1),
    ("unknown-client", lambda s: access_request(ALICE, ALICE_PW), ELSEWHERE, None,
     ("drop", str(ELSEWHERE), "unknown client"), 0),
    ("undecodable", lambda s: b"\x00", PEER, None,
     ("drop", str(PEER), "undecodable: 1 octets is below the 20-octet header"), 0),
]


def test_scenario1_single_accept(server):
    raw = access_request(ALICE, ALICE_PW, identifier=7)
    request = wire.decode_packet(raw)
    response = handle(server, raw)
    assert response.code is PacketCode.ACCESS_ACCEPT
    assert response.identifier == 7
    assert response.first(wire.REPLY_MESSAGE) == b"granted: default"
    assert wire.verify_response_authenticator(
        response, request.authenticator, DEMO_SECRET)


def test_root_request_challenged_then_accepted(server):
    first = handle(server, access_request(
        ALICE, ALICE_PW, service_type=wire.SERVICE_ADMINISTRATIVE_USER, identifier=1))
    assert first.code is PacketCode.ACCESS_CHALLENGE
    state = first.first(wire.STATE)
    assert state is not None

    otp = latest_otp(server.config.delivery_log_path, "sms:alice")
    second = handle(server, access_request(
        ALICE, otp, service_type=wire.SERVICE_ADMINISTRATIVE_USER,
        identifier=2, state=state))
    assert second.code is PacketCode.ACCESS_ACCEPT
    assert second.first(wire.REPLY_MESSAGE) == b"granted: root"


def test_otp_leg_bound_to_its_user_name(tmp_path):
    """A State token and its OTP complete only the leg that names the user
    they were issued to; other legs leave the challenge live."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    admin = wire.SERVICE_ADMINISTRATIVE_USER
    first = handle(server, access_request(ALICE, ALICE_PW, service_type=admin, identifier=1))
    assert first.code is PacketCode.ACCESS_CHALLENGE
    state = first.first(wire.STATE)
    otp = latest_otp(config.delivery_log_path, "sms:alice")

    def last_event():
        return events.getvalue().splitlines()[-1].split("\t")[1:]

    nameless = handle(server, access_request(
        None, otp, service_type=admin, identifier=2, state=state))
    assert nameless.code is PacketCode.ACCESS_REJECT
    assert last_event() == ["reject", "127.0.0.1", "MalformedRequest"]
    bobs = handle(server, access_request(
        "bob", otp, service_type=admin, identifier=3, state=state))
    assert bobs.code is PacketCode.ACCESS_REJECT
    assert last_event() == ["reject", "bob", "UnknownChallenge"]
    assert server.auth.session_for("bob", stamp(server.clock())) is None

    alices = handle(server, access_request(
        ALICE, otp, service_type=admin, identifier=4, state=state))
    assert alices.code is PacketCode.ACCESS_ACCEPT
    assert last_event() == ["accept", ALICE, "granted: root"]


def test_claimed_offsite_source_challenged(server):
    response = handle(server, access_request(ALICE, ALICE_PW, nas_ip="203.0.113.7"))
    assert response.code is PacketCode.ACCESS_CHALLENGE


def test_unknown_peer_dropped(server):
    raw = access_request(ALICE, ALICE_PW)
    assert server.handle_datagram(raw, IPv4Address("192.0.2.99"), server.clock()) is None


def test_undecodable_datagram_dropped(server):
    assert server.handle_datagram(b"\x01\x02\x03", PEER, server.clock()) is None


def datagram(code: int, attrs: bytes, length: int | None = None) -> bytes:
    """A header declaring `length` (by default the true length), then `attrs`."""
    length = wire.HEADER_LEN + len(attrs) if length is None else length
    return bytes((code, 1)) + length.to_bytes(2, "big") + bytes(16) + attrs


# (case, a datagram with more than one fault, the detail of its drop line): the
# attributes are walked in order, each checked for a dangling octet, a length
# below 2, an overrun and type 0, and the code is checked only after the walk.
FIRST_FAULTS = [
    ("unknown-code-and-type-0", datagram(99, b"\x00\x02"), "attribute type 0 outside 1-255"),
    ("type-0-then-dangling", datagram(1, b"\x00\x02\x01"), "attribute type 0 outside 1-255"),
    ("length-1-then-type-0", datagram(1, b"\x01\x01\x00\x02"), "attribute length 1 is below 2"),
    ("unknown-code", datagram(99, b"\x01\x07alice"), "packet code 99 is not a known code"),
    ("length-below-header", datagram(1, b"", length=19),
     "declared length 19 is below the header size"),
    ("length-past-data", datagram(1, b"", length=30), "20 octets received, 30 declared"),
]


@pytest.mark.parametrize("raw, detail", [row[1:] for row in FIRST_FAULTS],
                         ids=[row[0] for row in FIRST_FAULTS])
def test_undecodable_detail_names_the_first_fault(tmp_path, raw, detail):
    server, events = demo_server(tmp_path)
    assert server.handle_datagram(raw, PEER, server.clock()) is None
    assert events.getvalue().split("\t")[1:] == ["drop", str(PEER), f"undecodable: {detail}\n"]


def test_response_code_datagram_dropped(server):
    raw = wire.encode_packet(Packet(PacketCode.ACCESS_ACCEPT, 1, bytes(16)))
    assert server.handle_datagram(raw, PEER, server.clock()) is None


def test_wrong_secret_never_accepts(server):
    for identifier in range(20):
        response = handle(server, access_request(
            ALICE, ALICE_PW, secret=b"not-the-secret", identifier=identifier))
        assert response is None or response.code is not PacketCode.ACCESS_ACCEPT


def test_wrong_password_rejected(server):
    response = handle(server, access_request(ALICE, "nope"))
    assert response.code is PacketCode.ACCESS_REJECT


def test_unknown_user_indistinguishable_from_wrong_password(server):
    reject_a = handle(server, access_request("nobody", "x", identifier=5))
    reject_b = handle(server, access_request(ALICE, "wrong", identifier=6))
    assert reject_a.code is reject_b.code is PacketCode.ACCESS_REJECT
    assert reject_a.attributes == reject_b.attributes


def test_missing_username_rejected(server):
    ra = wire.random_authenticator()
    hidden = wire.hide_password(b"pw", DEMO_SECRET, ra)
    raw = wire.encode_packet(Packet(
        PacketCode.ACCESS_REQUEST, 3, ra,
        (Attribute(wire.USER_PASSWORD, hidden),)))
    assert handle(server, raw).code is PacketCode.ACCESS_REJECT


def test_missing_password_rejected(server):
    raw = access_request(ALICE, "")
    assert handle(server, raw).code is PacketCode.ACCESS_REJECT


def test_absent_service_type_means_default(server):
    response = handle(server, access_request(ALICE, ALICE_PW, service_type=None))
    assert response.first(wire.REPLY_MESSAGE) == b"granted: default"


def test_retransmission_replays_identical_bytes(server):
    raw = access_request(ALICE, ALICE_PW, identifier=9)
    first = server.handle_datagram(raw, PEER, server.clock())
    replay = server.handle_datagram(raw, PEER, server.clock())
    assert replay == first


def test_reused_identifier_different_packet_dropped(server):
    now = server.clock()
    assert server.handle_datagram(
        access_request(ALICE, ALICE_PW, identifier=9), PEER, now) is not None
    assert server.handle_datagram(
        access_request(ALICE, ALICE_PW, identifier=9), PEER, now) is None


def test_concurrent_copies_of_one_request_get_one_decision(server):
    """Dedup lookup, decision and store are one critical section: copies of
    a request handled on several threads at once all get the same bytes."""
    raw = access_request(ALICE, ALICE_PW, identifier=3,
                         service_type=wire.SERVICE_ADMINISTRATIVE_USER)
    now = server.clock()
    responses = []
    threads = [threading.Thread(
        target=lambda: responses.append(server.handle_datagram(raw, PEER, now)))
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert responses[0] is not None
    assert responses == [responses[0]] * 8
    assert len(server.config.delivery_log_path.read_text().splitlines()) == 1


def last_event(events: io.StringIO) -> str:
    return events.getvalue().splitlines()[-1].split("\t")[1]


def test_dedup_window_expires(tmp_path):
    """An entry is live while stored_at > now - window: a retransmission
    1 us inside the window is replayed, one at the window edge is decided
    anew, and a new packet with the identifier after the window too."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    window = timedelta(seconds=config.dedup_window_seconds)
    now = server.clock()
    raw = access_request(ALICE, ALICE_PW, identifier=9)
    first = server.handle_datagram(raw, PEER, now)
    edge = now + window
    assert server.handle_datagram(raw, PEER, edge - timedelta(microseconds=1)) == first
    assert last_event(events) == "replay"
    assert server.handle_datagram(raw, PEER, edge) == first
    assert last_event(events) == "accept"
    later = edge + timedelta(seconds=31)
    assert server.handle_datagram(
        access_request(ALICE, ALICE_PW, identifier=9), PEER, later) is not None
    assert last_event(events) == "accept"


def test_dedup_entry_outlives_a_time_rotation(tmp_path):
    """An entry cached 20 s before the current generation started is still
    answered from the previous generation until its own window ends."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    start = server.clock()
    server.handle_datagram(access_request(ALICE, ALICE_PW, identifier=1), PEER, start)
    raw = access_request(ALICE, ALICE_PW, identifier=2)
    cached_at = start + timedelta(seconds=15)
    first = server.handle_datagram(raw, PEER, cached_at)
    rotated_at = cached_at + timedelta(seconds=20)  # past the first generation's window
    server.handle_datagram(access_request(ALICE, ALICE_PW, identifier=3), PEER, rotated_at)
    assert len(server._dedup) == 1 and len(server._dedup_old) == 2

    later = rotated_at + timedelta(seconds=5)
    assert server.handle_datagram(raw, PEER, later) == first
    assert last_event(events) == "replay"
    assert server.handle_datagram(
        access_request(ALICE, ALICE_PW, identifier=2), PEER, later) is None
    assert last_event(events) == "drop"


def test_dedup_cache_is_bounded(tmp_path, monkeypatch):
    """Two generations of DEDUP_GENERATION entries bound the cache; the
    newest entries still replay and an evicted one is decided anew."""
    monkeypatch.setattr(server_module, "DEDUP_GENERATION", 4)
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    now = server.clock()
    raws = [access_request(ALICE, ALICE_PW, identifier=i) for i in range(13)]
    firsts = [server.handle_datagram(raw, PEER, now) for raw in raws]
    assert len(server._dedup) + len(server._dedup_old) <= 8
    for raw, first in zip(raws[-4:], firsts[-4:]):
        assert server.handle_datagram(raw, PEER, now) == first
        assert last_event(events) == "replay"
    assert server.handle_datagram(raws[0], PEER, now) == firsts[0]
    assert last_event(events) == "accept"


def test_session_reentry_is_single_message(server):
    handle(server, access_request(ALICE, ALICE_PW, identifier=1))
    before = server.config.delivery_log_path.read_text()
    response = handle(server, access_request(ALICE, ALICE_PW, identifier=2))
    assert response.code is PacketCode.ACCESS_ACCEPT
    assert server.config.delivery_log_path.read_text() == before  # no OTP issued


def test_challenge_flood_rejected_with_its_own_reason(tmp_path):
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    codes = [handle(server, access_request(
        ALICE, ALICE_PW, service_type=wire.SERVICE_ADMINISTRATIVE_USER,
        identifier=identifier)).code for identifier in range(1, 5)]
    assert codes == [PacketCode.ACCESS_CHALLENGE] * 3 + [PacketCode.ACCESS_REJECT]
    _, event, subject, detail = events.getvalue().splitlines()[-1].split("\t")
    assert (event, subject, detail) == ("reject", ALICE, "ChallengeFloodLimit")

    # expired challenges stop counting toward the limit
    expired = server.clock() + timedelta(seconds=config.auth_policy.otp_ttl_seconds)
    response = server.handle_datagram(access_request(
        ALICE, ALICE_PW, service_type=wire.SERVICE_ADMINISTRATIVE_USER,
        identifier=5), PEER, expired)
    assert wire.decode_packet(response).code is PacketCode.ACCESS_CHALLENGE


def test_non_ascii_otp_counts_as_a_wrong_otp(tmp_path):
    """A non-ASCII OTP leg reaches the challenge: it spends an attempt like
    any wrong OTP, and with an unknown State it is an unknown challenge."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    admin = wire.SERVICE_ADMINISTRATIVE_USER
    first = handle(server, access_request(ALICE, ALICE_PW, service_type=admin, identifier=1))
    state = first.first(wire.STATE)
    otp = latest_otp(config.delivery_log_path, "sms:alice")

    def leg(password: str, identifier: int, state: bytes) -> list[str]:
        response = handle(server, access_request(
            ALICE, password, service_type=admin, identifier=identifier, state=state))
        assert response.code is PacketCode.ACCESS_REJECT
        return events.getvalue().splitlines()[-1].split("\t")[1:]

    for identifier in range(2, 2 + config.auth_policy.otp_max_attempts):
        assert leg("\u00e9\u00e9", identifier, state) == ["reject", ALICE, "BadOtp"]
    assert leg(otp, 10, state) == ["reject", ALICE, "UnknownChallenge"]
    assert leg("\u00e9\u00e9", 11, bytes(16)) == ["reject", ALICE, "UnknownChallenge"]


def test_challenge_table_dropped_with_its_last_challenge(server):
    """A user's challenge table goes when its last challenge is answered or
    spends its last attempt, so the store keeps no table for that user."""
    _, state = challenged(server)
    attempts = server.config.auth_policy.otp_max_attempts
    for identifier in range(2, 2 + attempts):
        assert ALICE in server.auth._challenges
        assert handle(server, root_leg(identifier, "wrong", state)).code is REJECT
    assert ALICE not in server.auth._challenges

    state = handle(server, root_leg(10)).first(wire.STATE)
    otp = latest_otp(server.config.delivery_log_path, "sms:alice")
    assert ALICE in server.auth._challenges
    assert handle(server, root_leg(11, otp, state)).code is ACCEPT
    assert ALICE not in server.auth._challenges


# The 2x2 matrix on every request, sessions included.  Sessions are set up
# and probed an hour before the working day ends, inside the session TTL, so
# the out-of-hours probe still finds the session live.
IN_HOURS = datetime.fromisoformat("2026-08-04T17:00:00+00:00")
OUT_OF_HOURS = datetime.fromisoformat("2026-08-04T18:30:00+00:00")
OFF_SITE_NAS = "203.0.113.7"
PROMPT = "one-time password required"

# session state -> (service type, NAS-IP-Address) of the login that sets it
SESSION_LOGINS = {
    "none": None,
    "default/1": (wire.SERVICE_LOGIN_USER, None),
    "default/2": (wire.SERVICE_LOGIN_USER, OFF_SITE_NAS),
    "root/2": (wire.SERVICE_ADMINISTRATIVE_USER, None),
}
CONTEXTS = {  # context -> (NAS-IP-Address, now)
    "on site": (None, IN_HOURS),
    "off site": (OFF_SITE_NAS, IN_HOURS),
    "out of hours": (None, OUT_OF_HOURS),
}
ACCESS = {"default": wire.SERVICE_LOGIN_USER, "root": wire.SERVICE_ADMINISTRATIVE_USER}
ACCEPT, CHALLENGE = PacketCode.ACCESS_ACCEPT, PacketCode.ACCESS_CHALLENGE

MATRIX_GRID = [
    # session      context         access     code       Reply-Message
    ("none",      "on site",      "default", ACCEPT,    "granted: default"),
    ("none",      "on site",      "root",    CHALLENGE, PROMPT),
    ("none",      "off site",     "default", CHALLENGE, PROMPT),
    ("none",      "off site",     "root",    CHALLENGE, PROMPT),
    ("default/1", "on site",      "default", ACCEPT,    "granted: default"),
    ("default/1", "on site",      "root",    CHALLENGE, PROMPT),
    ("default/1", "off site",     "default", CHALLENGE, PROMPT),
    ("default/1", "off site",     "root",    CHALLENGE, PROMPT),
    ("default/1", "out of hours", "default", CHALLENGE, PROMPT),
    ("default/2", "on site",      "default", ACCEPT,    "granted: default"),
    ("default/2", "on site",      "root",    ACCEPT,    "granted: root"),
    ("default/2", "off site",     "default", ACCEPT,    "granted: default"),
    ("default/2", "off site",     "root",    ACCEPT,    "granted: root"),
    ("root/2",    "on site",      "default", ACCEPT,    "granted: root"),
    ("root/2",    "on site",      "root",    ACCEPT,    "granted: root"),
    ("root/2",    "off site",     "default", ACCEPT,    "granted: root"),
    ("root/2",    "off site",     "root",    ACCEPT,    "granted: root"),
]


@pytest.mark.parametrize("session, context, access, code, reply", MATRIX_GRID,
                         ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in MATRIX_GRID])
def test_matrix_holds_with_and_without_a_session(server, session, context, access,
                                                 code, reply):
    login = SESSION_LOGINS[session]
    if login is not None:
        service_type, nas_ip = login
        first = server.handle_datagram(access_request(
            ALICE, ALICE_PW, service_type=service_type, identifier=1, nas_ip=nas_ip),
            PEER, IN_HOURS)
        state = wire.decode_packet(first).first(wire.STATE)
        if state is not None:
            otp = latest_otp(server.config.delivery_log_path, "sms:alice")
            server.handle_datagram(access_request(
                ALICE, otp, service_type=service_type, identifier=2, state=state),
                PEER, IN_HOURS)
        held = server.auth.session_for(ALICE, stamp(IN_HOURS))
        assert f"{ROLE_NAMES[held.granted_role]}/{held.factors_verified}" == session

    nas_ip, now = CONTEXTS[context]
    raw = access_request(ALICE, ALICE_PW, service_type=ACCESS[access],
                         identifier=3, nas_ip=nas_ip)
    response = wire.decode_packet(server.handle_datagram(raw, PEER, now))
    assert response.code is code
    assert response.first(wire.REPLY_MESSAGE) == reply.encode()


def test_no_password_or_otp_in_event_log(tmp_path):
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    handle(server, access_request(
        ALICE, ALICE_PW, service_type=wire.SERVICE_ADMINISTRATIVE_USER))
    otp = latest_otp(tmp_path / "otp-delivery.log", "sms:alice")
    log_text = events.getvalue()
    assert ALICE_PW not in log_text
    assert otp not in log_text
    assert DEMO_SECRET.hex() not in log_text and "demo-shared-secret" not in log_text


@pytest.mark.parametrize("leg, peer, line", [(row[1], row[2], row[4]) for row in LEGS],
                         ids=[row[0] for row in LEGS])
def test_event_log_format(tmp_path, leg, peer, line):
    server, events = demo_server(tmp_path)
    handle(server, leg(server), peer)
    instant, *fields = events.getvalue().splitlines()[-1].split("\t")
    assert tuple(fields) == line
    datetime.fromisoformat(instant)


# case -> the reply as hex: code, identifier and length; the Response
# Authenticator; each attribute.  None for a drop.
GOLDEN_REPLIES = {
    "authenticate-accept": (
        "02010026"
        "d8dd96c6384a65b73894b80ba61b1995"
        "12126772616e7465643a2064656661756c74"),
    "authenticate-challenge": (
        "0b090042"
        "aa058b353f6aa92b37f77614c075c062"
        "181200000000000000000000000000000002"
        "121c6f6e652d74696d652070617373776f7264207265717569726564"),
    "authenticate-flood": (
        "03090023"
        "cd6102b4f4171182c16fb63ffd18984b"
        "120f6163636573732064656e696564"),
    "authenticate-bad-credentials": (
        "03010023"
        "9c0d77001592b8669f20ca086184af0f"
        "120f6163636573732064656e696564"),
    "authenticate-malformed": (
        "03010023"
        "9c0d77001592b8669f20ca086184af0f"
        "120f6163636573732064656e696564"),
    "complete-accept": (
        "02090023"
        "961d2677df6a2faca5bed0c1445c4206"
        "120f6772616e7465643a20726f6f74"),
    "complete-wrong-otp": (
        "03090023"
        "7caea6d7b15706cc0430be569bc75ceb"
        "120f6163636573732064656e696564"),
    "complete-unknown": (
        "03090023"
        "f4ad5a0aca298eab8bda0741406487f0"
        "120f6163636573732064656e696564"),
    "replay": (
        "02010026"
        "d8dd96c6384a65b73894b80ba61b1995"
        "12126772616e7465643a2064656661756c74"),
    "duplicate-id": None,
    "unknown-client": None,
    "undecodable": None,
}


@pytest.mark.parametrize("leg, peer, case", [(row[1], row[2], row[0]) for row in LEGS],
                         ids=[row[0] for row in LEGS])
def test_reply_bytes_are_pinned(tmp_path, monkeypatch, leg, peer, case):
    """The exact bytes each leg's reply carries.  Request Authenticators and
    State tokens come from a counter; the OTP never appears in a reply."""
    server, _ = demo_server(tmp_path)
    counter = itertools.count(1)
    monkeypatch.setattr(secrets, "token_bytes",
                        lambda nbytes: next(counter).to_bytes(nbytes, "big"))
    response = server.handle_datagram(leg(server), peer, server.clock())
    assert (None if response is None else response.hex()) == GOLDEN_REPLIES[case]


@pytest.mark.parametrize("leg, peer", [(row[1], row[2]) for row in LEGS],
                         ids=[row[0] for row in LEGS])
def test_peer_as_address_or_dotted_string_is_one_request(tmp_path, monkeypatch, leg, peer):
    """A peer given as an IPv4Address, or as the dotted string the socket
    reports, gets the same reply bytes and writes the same event lines."""
    outcomes = []
    for form in (peer, str(peer)):
        server, events = demo_server(tmp_path / type(form).__name__)
        counter = itertools.count(1)
        monkeypatch.setattr(secrets, "token_bytes",
                            lambda nbytes: next(counter).to_bytes(nbytes, "big"))
        outcomes.append((server.handle_datagram(leg(server), form, server.clock()),
                         events.getvalue()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("network", [
    "10.0.0.0/8", "192.168.1.0/24", "203.0.113.7/32", "0.0.0.0/0"], ids=str)
def test_int_address_placed_as_ipaddress_places_it(tmp_path, network):
    """`_client_for` and `evaluate_plausibility` place an int address as
    `ipaddress` places the IPv4Address: at a network's first and last
    address, and at the addresses just outside it."""
    from ipaddress import IPv4Network

    network = IPv4Network(network)
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    entry = ClientEntry(network, DEMO_SECRET)
    server = Server(ServerConfig(config.context, (entry,), config.user_store_path,
                                 config.delivery_log_path, clock_override=config.clock_override),
                    EventLog(stream=io.StringIO()))
    demo = config.context
    context = ContextConfig(demo.working_days, demo.day_start, demo.day_end, demo.utc_offset,
                            (network,))
    first, last = int(network.network_address), int(network.broadcast_address)
    for value in (first, last, (first - 1) % 2**32, (last + 1) % 2**32):
        address = IPv4Address(value)
        assert (server._client_for(value) is entry) is (address in network)
        verdict = evaluate_plausibility(address, stamp(server.clock()), context)
        assert evaluate_plausibility(value, stamp(server.clock()), context) is verdict
        assert (ImplausibilityReason.OFF_SITE not in verdict.reasons) is (address in network)


def test_request_cannot_forge_an_event_line(tmp_path):
    """A User-Name carrying a newline and tabs stays inside its own field."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    forged = f"{server.clock().isoformat()}\taccept\talice\tgranted: root"
    handle(server, access_request(f"mallory\n{forged}", "wrong"))
    lines = events.getvalue().splitlines()
    assert len(lines) == 1
    _, event, subject, detail = lines[0].split("\t")
    assert (event, detail) == ("reject", "BadCredentials")
    assert subject == "mallory\\n" + forged.replace("\t", "\\t")


def first_wins_request(*attrs: tuple[int, bytes]) -> bytes:
    """An Access-Request carrying `attrs` in order; User-Password values are
    given in the clear and hidden here."""
    ra = wire.random_authenticator()
    return wire.encode_packet(Packet(PacketCode.ACCESS_REQUEST, 1, ra, tuple(
        Attribute(kind, wire.hide_password(value, DEMO_SECRET, ra)
                  if kind == wire.USER_PASSWORD else value)
        for kind, value in attrs)))


NAME, PASSWORD = (wire.USER_NAME, ALICE.encode()), (wire.USER_PASSWORD, ALICE_PW.encode())
LOGIN = (wire.SERVICE_TYPE, wire.SERVICE_LOGIN_USER.to_bytes(4, "big"))
ADMIN = (wire.SERVICE_TYPE, wire.SERVICE_ADMINISTRATIVE_USER.to_bytes(4, "big"))
OFF_SITE = (wire.NAS_IP_ADDRESS, IPv4Address("203.0.113.7").packed)
ON_SITE = (wire.NAS_IP_ADDRESS, IPv4Address("10.1.2.3").packed)
# (case, the request's attributes in order, the reply code); alice is logged
# in every case.
FIRST_WINS = [
    ("two-user-names", [NAME, (wire.USER_NAME, b"bob"), PASSWORD], ACCEPT),
    ("two-passwords", [NAME, PASSWORD, (wire.USER_PASSWORD, b"wrong")], ACCEPT),
    ("login-then-admin", [NAME, PASSWORD, LOGIN, ADMIN], ACCEPT),
    ("admin-then-login", [NAME, PASSWORD, ADMIN, LOGIN], CHALLENGE),
    ("one-octet-admin", [NAME, PASSWORD, (wire.SERVICE_TYPE, b"\x06")], CHALLENGE),
    ("empty-service-type", [NAME, PASSWORD, (wire.SERVICE_TYPE, b"")], ACCEPT),
    ("off-site-then-on-site", [NAME, PASSWORD, OFF_SITE, ON_SITE], CHALLENGE),
    ("three-octet-nas-ip", [NAME, PASSWORD, (wire.NAS_IP_ADDRESS, b"\xcb\x00\x71")], ACCEPT),
]


@pytest.mark.parametrize("attrs, code", [row[1:] for row in FIRST_WINS],
                         ids=[row[0] for row in FIRST_WINS])
def test_first_attribute_of_each_type_counts(tmp_path, attrs, code):
    """The first of each attribute the server reads decides; Service-Type is
    an integer of any length, and NAS-IP-Address counts only at 4 octets."""
    server, events = demo_server(tmp_path)
    assert handle(server, first_wins_request(*attrs)).code is code
    assert events.getvalue().split("\t")[2] == ALICE


# Datagrams of every shape: raw bytes, or packets of the four codes with
# random attributes of the types the server reads, Reply-Message and
# Message-Authenticator.
ANY_ATTRIBUTE = st.builds(Attribute, st.sampled_from([1, 2, 4, 6, 18, 24, 80]),
                          st.binary(max_size=40))
ANY_PACKET = st.builds(Packet, st.sampled_from([PacketCode(c) for c in (1, 2, 3, 11)]),
                       st.integers(0, 255), st.binary(min_size=16, max_size=16),
                       st.lists(ANY_ATTRIBUTE, max_size=8).map(tuple))
ANY_DATAGRAM = st.one_of(
    st.text(max_size=60).map(lambda name: access_request(name, "wrong")),
    st.binary(max_size=80),
    ANY_PACKET.map(wire.encode_packet),
)
EVENTS = {"accept", "challenge", "reject", "replay", "drop"}


def test_any_user_name_writes_one_line_of_four_fields(tmp_path):
    """Any datagram, from a configured peer or not, on a fresh or a reused
    port, writes exactly one event line of four fields."""
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    ports = itertools.count(1)  # a fresh dedup key per request

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(ANY_DATAGRAM, st.sampled_from([PEER, ELSEWHERE]), st.booleans())
    def one_datagram(raw, peer, reuse_port):
        before = len(events.getvalue().splitlines())
        server.handle_datagram(raw, peer, server.clock(),
                               port=0 if reuse_port else next(ports))
        lines = events.getvalue().splitlines()
        assert len(lines) == before + 1
        fields = lines[-1].split("\t")
        assert len(fields) == 4 and fields[1] in EVENTS

    one_datagram()


def test_missing_user_store_is_startup_error(tmp_path):
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    (tmp_path / "users.json").unlink()
    with pytest.raises(ServerStartupError):
        Server(config)


def test_client_table_requires_entries(tmp_path):
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["clients"] = []
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError):
        load_server_config(config_path)


@pytest.mark.parametrize("window", ["30", 0, -5, True, float("inf")])
def test_dedup_window_must_be_a_positive_number(tmp_path, window):
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["dedup_window_seconds"] = window
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="dedup_window_seconds"):
        load_server_config(config_path)


@pytest.mark.parametrize("section, key, value, name", [
    ("otp", "digits", "6", "otp_digits"),
    ("otp", "digits", 0, "otp_digits"),
    ("otp", "digits", wire.MAX_PASSWORD_LEN + 1, "otp_digits"),
    ("otp", "digits", True, "otp_digits"),
    ("otp", "max_attempts", 0, "otp_max_attempts"),
    ("otp", "max_attempts", 2.5, "otp_max_attempts"),
    ("otp", "ttl_seconds", 0, "otp_ttl_seconds"),
    ("otp", "ttl_seconds", float("nan"), "otp_ttl_seconds"),
    ("session", "ttl_seconds", -5, "session_ttl_seconds"),
    ("session", "ttl_seconds", float("inf"), "session_ttl_seconds"),
    # below one microsecond a duration would round to 0 on the clock
    ("otp", "ttl_seconds", 1e-7, "otp_ttl_seconds"),
    ("session", "ttl_seconds", 5e-7, "session_ttl_seconds"),
    (None, "dedup_window_seconds", 1e-7, "dedup_window_seconds"),
    (None, "port", "1812", "port"),
    (None, "port", 70000, "port"),
    (None, "port", -1, "port"),
    (None, "bind_address", 127, "bind_address"),
])
def test_policy_and_port_validated_at_load(tmp_path, section, key, value, name):
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    (raw[section] if section else raw)[key] = value
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=name):
        load_server_config(config_path)


def test_policy_and_port_bounds_are_inclusive(tmp_path):
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["port"] = 65535
    raw["dedup_window_seconds"] = 1e-6
    raw["otp"] = {"digits": wire.MAX_PASSWORD_LEN, "max_attempts": 1, "ttl_seconds": 1e-6}
    raw["session"] = {"ttl_seconds": 1e-6}
    config_path.write_text(json.dumps(raw))
    config = load_server_config(config_path)
    assert config.port == 65535
    assert config.auth_policy.otp_digits == wire.MAX_PASSWORD_LEN
    assert config.auth_policy.session_ttl_seconds == 1e-6
    assert Server(config)._dedup_window_us == 1


@pytest.mark.parametrize("malform, name", [
    (lambda raw: raw["clients"][0].update(address=2130706433), "client address"),
    (lambda raw: raw["context"].update(trusted_networks=[5]), "trusted_networks"),
    (lambda raw: raw["context"].update(trusted_networks=["10.0.0.1/8"]), "trusted_networks"),
], ids=["client-int", "trusted-int", "trusted-host-bits"])
def test_networks_must_be_json_strings(tmp_path, malform, name):
    """A network is a JSON string; a trusted network has no host bits set."""
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    malform(raw)
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=name):
        load_server_config(config_path)


def test_client_address_may_have_host_bits(tmp_path):
    import json
    from ipaddress import IPv4Network

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["clients"][0]["address"] = "127.0.0.1/8"
    config_path.write_text(json.dumps(raw))
    assert load_server_config(config_path).clients[0].network == IPv4Network("127.0.0.0/8")


def test_empty_client_secret_rejected():
    from ipaddress import IPv4Network

    with pytest.raises(ConfigError):
        ClientEntry(IPv4Network("127.0.0.0/8"), b"")


@pytest.mark.parametrize("malform, name", [
    (lambda raw: raw.update(dedup_window_second=60), "dedup_window_second"),
    (lambda raw: raw["otp"].update(max_attempt=10), "max_attempt"),
    (lambda raw: raw["session"].update(ttl=60), "session_ttl"),
    (lambda raw: raw["clients"][0].update(require_message_authenticator=True),
     "require_message_authenticator"),
    (lambda raw: raw["context"].update(trusted_network=["10.0.0.0/8"]), "trusted_network"),
    (lambda raw: raw["clients"][0].update(secret_hex="64656d6f2d..."), "secret_hex"),
], ids=["top-level", "otp", "session", "client", "context", "secret-not-hex"])
def test_unknown_key_or_bad_secret_named_at_load(tmp_path, malform, name):
    """A key the loader does not read is an error, not ignored, as is a non-hex secret."""
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    malform(raw)
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=name):
        load_server_config(config_path)


@pytest.mark.parametrize("malform, key", [
    (lambda raw: raw.pop("user_store_path"), "user_store_path"),
    (lambda raw: raw["clients"][0].pop("address"), "address"),
    (lambda raw: raw["context"].pop("working_days"), "working_days"),
], ids=["user_store_path", "client-address", "working_days"])
def test_missing_key_named_at_load(tmp_path, malform, key):
    """A required key that is absent is a ConfigError saying so."""
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    malform(raw)
    config_path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=f"missing key '{key}'"):
        load_server_config(config_path)


def test_absent_keys_take_the_declared_defaults(tmp_path):
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    for key in ("bind_address", "port", "session", "clock_override"):
        del raw[key]
    raw["otp"] = {"digits": 8}
    config_path.write_text(json.dumps(raw))
    config = load_server_config(config_path)
    assert (config.bind_address, config.port) == ("127.0.0.1", 1812)
    assert config.dedup_window_seconds == 30
    assert config.clock_override is None
    assert config.auth_policy == AuthPolicy(otp_ttl_seconds=120, otp_max_attempts=3,
                                            otp_digits=8, session_ttl_seconds=28800)


def test_readme_config_example_loads(tmp_path):
    """The first JSON block under the README's "Server configuration" loads."""
    import re
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Server configuration\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "config.json").write_text(example, encoding="utf-8")
    UserStore.save(tmp_path / "users.json", [UserRecord.create(ALICE, ALICE_PW, "sms:alice")])
    config = load_server_config(tmp_path / "config.json")
    Server(config, EventLog(stream=io.StringIO()))
    assert config.port == 1812
    assert config.dedup_window_seconds == 30
    assert config.clients[0].shared_secret == DEMO_SECRET
    assert config.auth_policy == AuthPolicy(otp_ttl_seconds=120, otp_max_attempts=3,
                                            otp_digits=6, session_ttl_seconds=28800)


@pytest.mark.parametrize("clients, secret_for_127_0_0_1", [
    ([("127.0.0.1/32", b"secret-a"), ("127.0.0.0/8", b"secret-b")], b"secret-a"),
    ([("127.0.0.0/8", b"secret-b"), ("127.0.0.1/32", b"secret-a")], b"secret-b"),
], ids=["host-first", "network-first"])
def test_overlapping_clients_first_entry_in_config_order_wins(tmp_path, clients,
                                                              secret_for_127_0_0_1):
    import json

    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["clients"] = [{"address": address, "secret_hex": secret.hex()}
                      for address, secret in clients]
    config_path.write_text(json.dumps(raw))
    server = Server(load_server_config(config_path), EventLog(stream=io.StringIO()))
    for peer, secret in [("127.0.0.1", secret_for_127_0_0_1), ("127.0.0.2", b"secret-b")]:
        ra = wire.random_authenticator()
        reply = handle(server, access_request(ALICE, ALICE_PW, secret=secret, ra=ra),
                       IPv4Address(peer))
        assert reply.code is ACCEPT
        assert wire.verify_response_authenticator(reply, ra, secret)


def test_delivery_line_escapes_a_backslash_channel(tmp_path):
    """A channel's backslash is escaped in its delivery line as an event
    field's is, and `latest_otp` still finds the channel's OTP."""
    config_path = write_demo_fixtures(tmp_path, port=0)
    channel = "sms:a\\b"
    UserStore.save(tmp_path / "users.json", [UserRecord.create(ALICE, ALICE_PW, channel)])
    server = Server(load_server_config(config_path), EventLog(stream=io.StringIO()))
    reply = handle(server, root_leg(1))
    assert reply.code is CHALLENGE
    otp = latest_otp(server.config.delivery_log_path, channel)
    assert otp is not None and otp.isdigit()
    assert server.config.delivery_log_path.read_text() == (
        f"{server.clock().isoformat()}\tsms:a\\\\b\t{otp}\n")
    assert handle(server, root_leg(2, otp, reply.first(wire.STATE))).code is ACCEPT


def test_challenge_opens_no_file(tmp_path, monkeypatch):
    """The delivery log is opened at startup: issuing a challenge opens no
    file, and its OTP line is in the file when `handle_datagram` returns."""
    import builtins

    server, _ = demo_server(tmp_path)

    def no_open(*args, **kwargs):
        raise AssertionError("open called")

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", no_open)
        reply = handle(server, root_leg(1))
    assert reply.code is CHALLENGE
    otp = latest_otp(server.config.delivery_log_path, "sms:alice")
    assert handle(server, root_leg(2, otp, reply.first(wire.STATE))).code is ACCEPT


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_dropped_servers_leave_no_descriptor_open(tmp_path):
    import gc

    def open_descriptors() -> int:
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    before = open_descriptors()
    for _ in range(50):
        server = Server(config, EventLog(stream=io.StringIO()))
        assert handle(server, root_leg(1)).code is CHALLENGE
        del server
    assert open_descriptors() <= before
