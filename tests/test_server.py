"""Datagram-level tests driving handle_datagram directly, no sockets."""

from __future__ import annotations

import io
import sys
import threading
from datetime import datetime, timedelta
from ipaddress import IPv4Address

import pytest

from ctxradius import server as server_module
from ctxradius import wire
from ctxradius.auth import latest_otp
from ctxradius.context import ConfigError
from ctxradius.scenarios import DEMO_SECRET, DEMO_USERS, write_demo_fixtures
from ctxradius.server import (
    ROLE_NAMES,
    ClientEntry,
    EventLog,
    Server,
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
    assert server.auth.session_for("bob", server.clock()) is None

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
    assert server.auth.pending_challenges(ALICE) == 1


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
        held = server.auth.session_for(ALICE, IN_HOURS)
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


def test_event_log_format(tmp_path):
    events = io.StringIO()
    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    server = Server(config, EventLog(stream=events))
    handle(server, access_request(ALICE, ALICE_PW))
    line = events.getvalue().splitlines()[-1]
    instant, event, subject, detail = line.split("\t")
    assert event == "accept"
    assert subject == ALICE
    assert detail == "granted: default"
    datetime.fromisoformat(instant)


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


def test_empty_client_secret_rejected():
    from ipaddress import IPv4Network

    with pytest.raises(ConfigError):
        ClientEntry(IPv4Network("127.0.0.0/8"), b"")
