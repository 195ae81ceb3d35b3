"""Acceptance gate: one test per criterion, each printing a pass line.

Every criterion is checked at its stated budget; the wall-clock bounds are
asserted, not just aspired to.  Run with -s to see the per-criterion lines.
"""

from __future__ import annotations

import hashlib
import random
import socket
import time
from datetime import timedelta
from ipaddress import IPv4Address

import pytest

from ctxradius import wire
from ctxradius.auth import Role, latest_otp
from ctxradius.context import ContextVerdict, ImplausibilityReason, stamp
from ctxradius.policy import RequestedAction, SecurityLevel, required_security
from ctxradius.scenarios import DEMO_SECRET, DEMO_USERS, SCRIPTS, run_scenario
from ctxradius.server import EventLog, Server, load_server_config
from ctxradius.wire import Attribute, Packet, PacketCode, WireError

from vectors import HIDE_VECTORS

PEER = IPv4Address("127.0.0.1")


def _report(criterion: int, description: str) -> None:
    print(f"criterion {criterion} ({description}): PASS")


@pytest.fixture
def direct_server(tmp_path):
    from ctxradius.scenarios import write_demo_fixtures
    import io

    config = load_server_config(write_demo_fixtures(tmp_path, port=0))
    return Server(config, EventLog(stream=io.StringIO()))


def _request(username, password_or_otp, secret=DEMO_SECRET, *, root=False,
             identifier=0, nas_ip=None, state=None):
    ra = wire.random_authenticator()
    service = wire.SERVICE_ADMINISTRATIVE_USER if root else wire.SERVICE_LOGIN_USER
    attrs = [
        Attribute(wire.USER_NAME, username.encode()),
        Attribute(wire.USER_PASSWORD,
                  wire.hide_password(password_or_otp.encode(), secret, ra)),
        Attribute(wire.SERVICE_TYPE, service.to_bytes(4, "big")),
    ]
    if nas_ip:
        attrs.append(Attribute(wire.NAS_IP_ADDRESS, IPv4Address(nas_ip).packed))
    if state is not None:
        attrs.append(Attribute(wire.STATE, state))
    return wire.encode_packet(
        Packet(PacketCode.ACCESS_REQUEST, identifier, ra, tuple(attrs)))


def _handle(server, raw, now=None):
    response = server.handle_datagram(raw, PEER, now or server.clock())
    return wire.decode_packet(response) if response is not None else None


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_criterion_1_policy_table_fidelity():
    started = time.monotonic()
    plausible = ContextVerdict(True, frozenset())
    implausible = ContextVerdict(
        False, frozenset({ImplausibilityReason.OFF_SITE}))
    table = {
        (True, RequestedAction.DEFAULT_ACCESS): SecurityLevel.LOW,
        (True, RequestedAction.ROOT_ACCESS): SecurityLevel.HIGH,
        (False, RequestedAction.DEFAULT_ACCESS): SecurityLevel.HIGH,
        (False, RequestedAction.ROOT_ACCESS): SecurityLevel.HIGH,
    }
    for (is_plausible, action), expected in table.items():
        verdict = plausible if is_plausible else implausible
        assert required_security(verdict, action) is expected
    assert time.monotonic() - started < 1.0
    _report(1, "policy table fidelity, all 4 cells")


# ---------------------------------------------------------------------------
# criteria 2 and 7
# ---------------------------------------------------------------------------

def _drive_scenarios(live_server):
    """Run S1, S2, S3 over loopback, returning every (request RA,
    raw response) pair for independent digest checks."""
    captured = []
    for scenario_id in ("S1", "S2", "S3"):
        captured.extend(_raw_scenario(live_server, SCRIPTS[scenario_id]))
    return captured


def _raw_scenario(live_server, script):
    """Replay a script with a bare socket; no client-side verification."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(2)
    exchanges = []
    try:
        identifier = random.randrange(256)
        action_root = script.actions[-1] is RequestedAction.ROOT_ACCESS
        raw = _request(script.username, script.password, live_server.secret,
                       root=action_root, identifier=identifier,
                       nas_ip=str(script.claimed_source) if script.claimed_source else None)
        sock.sendto(raw, live_server.endpoint)
        response, _ = sock.recvfrom(4096)
        exchanges.append((wire.decode_packet(raw).authenticator, response))

        decoded = wire.decode_packet(response)
        if decoded.code is PacketCode.ACCESS_CHALLENGE:
            otp = latest_otp(live_server.delivery_log, script.otp_channel)
            raw = _request(script.username, otp, live_server.secret,
                           root=action_root, identifier=(identifier + 1) % 256,
                           nas_ip=str(script.claimed_source) if script.claimed_source else None,
                           state=decoded.first(wire.STATE))
            sock.sendto(raw, live_server.endpoint)
            response, _ = sock.recvfrom(4096)
            exchanges.append((wire.decode_packet(raw).authenticator, response))
    finally:
        sock.close()
    return exchanges


def test_criterion_2_scenario_fidelity(live_server):
    started = time.monotonic()
    s1 = run_scenario(SCRIPTS["S1"], live_server.endpoint, live_server.secret,
                      live_server.delivery_log)
    s2 = run_scenario(SCRIPTS["S2"], live_server.endpoint, live_server.secret,
                      live_server.delivery_log)
    s3 = run_scenario(SCRIPTS["S3"], live_server.endpoint, live_server.secret,
                      live_server.delivery_log)
    assert s1.verdict, s1.failure
    assert len(s1.entries) == 2
    assert s1.entries[-1].code is PacketCode.ACCESS_ACCEPT

    assert s2.verdict, s2.failure
    assert len(s2.entries) == 4
    assert [e.code for e in s2.entries] == [
        PacketCode.ACCESS_REQUEST, PacketCode.ACCESS_CHALLENGE,
        PacketCode.ACCESS_REQUEST, PacketCode.ACCESS_ACCEPT]

    assert s3.verdict, s3.failure
    assert len(s3.entries) == 4
    assert time.monotonic() - started < 5.0
    _report(2, "S1 in 2 messages, S2/S3 in 4, roles default/root/default")


def test_criterion_7_response_integrity(live_server):
    captured = _drive_scenarios(live_server)
    assert captured
    for request_ra, raw_response in captured:
        # independent recomputation: header + RA + attributes + secret
        declared = int.from_bytes(raw_response[2:4], "big")
        digest = hashlib.md5(
            raw_response[:4] + request_ra + raw_response[20:declared]
            + live_server.secret).digest()
        assert raw_response[4:20] == digest
    _report(7, f"{len(captured)} response authenticators independently recomputed")


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------

def test_criterion_3_cipher_round_trip_and_oracle():
    started = time.monotonic()
    rng = random.Random(0xE11)
    for i in range(1024):
        length = (i % 128) + 1
        plaintext = bytes(rng.randrange(1, 256) for _ in range(length))
        secret = bytes(rng.randrange(0, 256) for _ in range(rng.randrange(1, 33)))
        ra = rng.randbytes(16)
        hidden = wire.hide_password(plaintext, secret, ra)
        assert wire.recover_password(hidden, secret, ra) == plaintext

    assert len(HIDE_VECTORS) >= 11
    assert any(len(p) > 16 for p, _, _, _ in HIDE_VECTORS)  # multi-block present
    for plaintext, secret, ra, hidden_hex in HIDE_VECTORS:
        assert wire.hide_password(plaintext, secret, ra).hex() == hidden_hex
    assert time.monotonic() - started < 5.0
    _report(3, "1024 random round trips + octet-exact oracle vectors")


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

def test_criterion_4_escalation_updates_same_session(direct_server):
    started = time.monotonic()
    server = direct_server
    username, password, channel = DEMO_USERS[3]

    accept = _handle(server, _request(username, password, identifier=1))
    assert accept.code is PacketCode.ACCESS_ACCEPT
    session = server.auth.session_for(username, stamp(server.clock()))
    assert session.factors_verified == 1
    original = session
    log_lines_before = server.config.delivery_log_path.read_text().count("\n")

    challenge = _handle(server, _request(username, password, root=True, identifier=2))
    assert challenge.code is PacketCode.ACCESS_CHALLENGE
    log_lines_after = server.config.delivery_log_path.read_text().count("\n")
    assert log_lines_after - log_lines_before == 1  # exactly one OTP challenge

    otp = latest_otp(server.config.delivery_log_path, channel)
    accept = _handle(server, _request(username, otp, root=True, identifier=3,
                                      state=challenge.first(wire.STATE)))
    assert accept.code is PacketCode.ACCESS_ACCEPT
    assert accept.first(wire.REPLY_MESSAGE) == b"granted: root"

    session = server.auth.session_for(username, stamp(server.clock()))
    assert session is original
    assert session.granted_role is Role.ROOT
    assert session.factors_verified == 2
    assert time.monotonic() - started < 2.0
    _report(4, "escalation: one challenge, same session, root with 2 factors")


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

def test_criterion_5_security_invariants(direct_server):
    started = time.monotonic()
    server = direct_server
    ids = iter(range(256))  # identifiers stay unique within the dedup window

    # (a) factor floor across all four policy cells, driven end to end
    cells = [
        (DEMO_USERS[0], False, None, SecurityLevel.LOW),     # plausible, default
        (DEMO_USERS[1], True, None, SecurityLevel.HIGH),     # plausible, root
        (DEMO_USERS[2], False, "203.0.113.7", SecurityLevel.HIGH),  # implausible, default
        (DEMO_USERS[3], True, "203.0.113.7", SecurityLevel.HIGH),   # implausible, root
    ]
    for (username, password, channel), root, nas_ip, level in cells:
        response = _handle(server, _request(
            username, password, root=root, identifier=next(ids), nas_ip=nas_ip))
        if response.code is PacketCode.ACCESS_CHALLENGE:
            otp = latest_otp(server.config.delivery_log_path, channel)
            response = _handle(server, _request(
                username, otp, root=root, identifier=next(ids), nas_ip=nas_ip,
                state=response.first(wire.STATE)))
        assert response.code is PacketCode.ACCESS_ACCEPT
        session = server.auth.session_for(username, stamp(server.clock()))
        assert session.factors_verified >= level.required_factors

    # (b) a consumed state token is rejected on every one of 100 replays
    username, password, channel = DEMO_USERS[0]
    challenge = _handle(server, _request(username, password, root=True,
                                         identifier=next(ids)))
    assert challenge.code is PacketCode.ACCESS_CHALLENGE
    state = challenge.first(wire.STATE)
    otp = latest_otp(server.config.delivery_log_path, channel)
    accept = _handle(server, _request(username, otp, root=True,
                                      identifier=next(ids), state=state))
    assert accept.code is PacketCode.ACCESS_ACCEPT
    rejections = 0
    for _ in range(100):
        replay = _handle(server, _request(username, otp, root=True,
                                          identifier=next(ids), state=state))
        assert replay.code is PacketCode.ACCESS_REJECT
        rejections += 1
    assert rejections == 100

    # (c) an OTP presented after its TTL is rejected; sessions from (a)/(b)
    # have lapsed by then too, so the full flow restarts
    t9 = server.clock() + timedelta(hours=9)
    challenge = _handle(server, _request(username, password, root=True,
                                         identifier=next(ids)), now=t9)
    assert challenge.code is PacketCode.ACCESS_CHALLENGE
    otp = latest_otp(server.config.delivery_log_path, channel)
    response = _handle(server, _request(username, otp, root=True,
                                        identifier=next(ids),
                                        state=challenge.first(wire.STATE)),
                       now=t9 + timedelta(seconds=121))
    assert response.code is PacketCode.ACCESS_REJECT

    # (d) a wrong shared secret never yields an Accept
    for _ in range(100):
        raw = _request(username, password, secret=b"wrong-secret",
                       identifier=next(ids))
        response = server.handle_datagram(raw, PEER, server.clock())
        assert (response is None
                or wire.decode_packet(response).code is not PacketCode.ACCESS_ACCEPT)
    assert time.monotonic() - started < 10.0
    _report(5, "factor floor, 100/100 replays rejected, expiry, wrong secret")


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

def test_criterion_6_codec_robustness():
    started = time.monotonic()
    rng = random.Random(0xC0DEC)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 4097))
        try:
            wire.decode_packet(data)
        except WireError:
            pass

    for _ in range(1_000):
        attrs = tuple(
            Attribute(rng.randrange(1, 256), rng.randbytes(rng.randrange(0, 101)))
            for _ in range(rng.randrange(0, 11))
        )
        pkt = Packet(
            rng.choice(list(PacketCode)), rng.randrange(256), rng.randbytes(16), attrs)
        assert wire.decode_packet(wire.encode_packet(pkt)) == pkt
    assert time.monotonic() - started < 10.0
    _report(6, "10k arbitrary inputs survived, 1k valid packets round-tripped")
