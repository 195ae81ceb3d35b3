"""Known-defect counters, run untimed through ``Server.handle_datagram``.

The traffic avoids two defects of the server on purpose, so they are
counted here instead; a count is reported, never treated as a failure.
"""

from __future__ import annotations

import contextlib
import io
import random
from datetime import datetime
from ipaddress import IPv4Address
from pathlib import Path

from ctxradius import scenarios, wire

import traffic
from traffic import CHALLENGE, DEFAULT, NONE, ROOT, SECRET

CONTEXT = traffic.context("08:00", "18:00", days=traffic.WEEK[:5])
SETUP_AT = datetime.fromisoformat("2026-08-04T17:00:00+00:00")  # a Tuesday
IN_HOURS = datetime.fromisoformat("2026-08-04T17:30:00+00:00")
OUT_OF_HOURS = datetime.fromisoformat("2026-08-04T18:30:00+00:00")
# Session states of the grid: (role, factors) and the login that makes it.
STATES = ((NONE, 0, ()), (DEFAULT, 1, ((DEFAULT, True),)),
          (DEFAULT, 2, ((DEFAULT, False),)), (ROOT, 2, ((ROOT, True),)))


class CheckError(Exception):
    """The server answered a set-up step wrongly."""


class _Nas:
    """Sends datagrams from fresh (address, identifier) pairs."""

    def __init__(self, server, octet: int):
        self.server = server
        self.addresses = traffic.NasAddresses(octet)
        self.address = None
        self.identifier = 256

    def send(self, datagram: bytes, now: datetime):
        if self.identifier == 256:
            self.address = IPv4Address(self.addresses.take())
            self.identifier = 0
        data = traffic.with_identifier(datagram, self.identifier)
        self.identifier += 1
        raw = self.server.handle_datagram(data, self.address, now)
        if raw is None:
            return None
        response = wire.decode_packet(raw)
        if not wire.verify_response_authenticator(response, data[4:20], SECRET):
            raise CheckError("response authenticator does not verify")
        return response


def _server(workdir: Path, rng: random.Random, users: list[traffic.User]):
    workdir.mkdir()
    traffic.write_user_store(workdir / "users.json", rng, users)
    traffic.write_config(workdir / "config.json", "users.json", "otp.log", CONTEXT)
    events = open(workdir / "events.log", "w", encoding="utf-8")
    server = traffic.open_server(workdir / "config.json", events)
    return server, events, traffic.DeliveryTail(workdir / "otp.log")


def reused_id_drops(workdir: Path, rng: random.Random) -> int:
    """Requests dropped when one NAS address sends 512 distinct requests
    inside one dedup window (RFC 5080 section 2.2.2 keys on more than the
    identifier)."""
    user = traffic.make_users(rng, {"reuse": 1})[0]
    server, events, tail = _server(workdir, rng, [user])
    peer = IPv4Address("127.2.0.1")
    drops = 0
    with events, contextlib.closing(tail):
        for n in range(512):
            datagram = traffic.encode_request(user.name, user.password, rng.randbytes(16),
                                              DEFAULT, traffic.nas_ip(True, 0))
            data = traffic.with_identifier(datagram, n % 256)
            drops += server.handle_datagram(data, peer, SETUP_AT) is None
    return drops


def matrix_violations(workdir: Path, rng: random.Random) -> int:
    """Cases of the 32-case grid whose answer differs from the matrix:
    session state x working hours x site x requested access."""
    users = traffic.make_users(rng, {"grid": 32})
    server, events, tail = _server(workdir, rng, users)
    nas = _Nas(server, 3)
    violations = 0
    cases = [(s, t, site, role) for s in STATES for t in (IN_HOURS, OUT_OF_HOURS)
             for site in (True, False) for role in (DEFAULT, ROOT)]
    with events, contextlib.closing(tail):
        for user, ((s_role, s_factors, setup), now, on_site, role) in zip(users, cases):
            try:
                for leg_role, leg_site in setup:
                    _login(nas, tail, user, leg_role, leg_site, SETUP_AT)
                datagram = traffic.encode_request(user.name, user.password, rng.randbytes(16),
                                                  role, traffic.nas_ip(on_site, user.index))
                response = nas.send(datagram, now)
            except CheckError:
                violations += 1
                continue
            code, granted = traffic.matrix_answer(s_role, s_factors, role,
                                                  on_site and now is IN_HOURS)
            reply = f"granted: {traffic.ROLE_NAME[granted]}".encode() if granted else None
            if response is None or response.code is not code or (
                    granted and response.first(wire.REPLY_MESSAGE) != reply):
                violations += 1
    return violations


def _login(nas: _Nas, tail: traffic.DeliveryTail, user: traffic.User, role: int,
           on_site: bool, now: datetime) -> None:
    """Establish a session, answering the OTP challenge if one comes."""
    ip = traffic.nas_ip(on_site, user.index)
    response = nas.send(traffic.encode_request(user.name, user.password, bytes(16), role, ip), now)
    if response is not None and response.code is CHALLENGE:
        otp = tail.take(user.channel)
        if otp is None:
            raise CheckError("no OTP delivered")
        response = nas.send(traffic.encode_request(
            user.name, otp.encode(), bytes(range(16)), role, ip,
            response.first(wire.STATE)), now)
    if response is None or response.code is not traffic.ACCEPT:
        raise CheckError("session set-up was not accepted")


def scenarios_passed(endpoint: tuple[str, int], delivery_log: Path) -> int:
    """Scenarios S1, S2, S3 and E1 replayed against a running daemon."""
    passed = 0
    for scenario_id in scenarios.SCENARIO_ORDER:
        with contextlib.redirect_stdout(io.StringIO()):
            passed += scenarios.run_all(endpoint, SECRET, delivery_log,
                                        scenarios.DEFAULT_TIMEOUT_MS, (scenario_id,)) == 0
    return passed
