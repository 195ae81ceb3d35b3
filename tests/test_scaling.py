"""Scaling guards: the cost of one request must not grow with the state tables.

Each case counts the Python "line" trace events (`sys.settrace`) of one
request through `Server.handle_datagram`, on a server with small tables and
on one with 20k-entry tables, and asserts that the large count is at most
the small count plus `SLACK`.  A line count does not swing with the host's
speed, as a timing does.  The slack covers the dedup generation swap and the
rejection-sampling loop of `secrets.randbelow`.

Blind spot: a loop inside C code makes no line events.  A scan written as
`bytes.join`, `dict(reversed(pairs))`, `sorted(table)` or `{**table}` passes
these guards; one written as a `for` loop, a comprehension or a generator
expression does not.

The client entries and trusted networks of the config are not covered here.
"""

from __future__ import annotations

import io
import sys

import pytest

from ctxradius import wire
from ctxradius.auth import MAX_PENDING_PER_USER, UserRecord, UserStore, latest_otp
from ctxradius.context import stamp
from ctxradius.scenarios import DEMO_USERS, write_demo_fixtures
from ctxradius.server import EventLog, Server, load_server_config
from test_server import PEER, access_request

LARGE = 20_000
SLACK = 16
ROOT = wire.SERVICE_ADMINISTRATIVE_USER
# Each case is measured as its own demo user, so the cases share the servers.
(ALICE, ALICE_PW, _), (BOB, BOB_PW, _), (CAROL, CAROL_PW, CAROL_SMS), (DAVE, DAVE_PW, _) = (
    DEMO_USERS)


def count_lines(call) -> tuple[int, object]:
    """The line events `call()` makes, in every frame it enters, and its result."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    sys.settrace(lambda frame, event, arg: local)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return lines, result


class Sender:
    """Sends each datagram from a fresh (port, identifier) pair, so none is a
    duplicate within the dedup window."""

    def __init__(self, server: Server):
        self.server = server
        self.sent = 0

    def __call__(self, raw: bytes) -> bytes | None:
        port, identifier = divmod(self.sent, 256)
        self.sent += 1
        raw = raw[:1] + bytes([identifier]) + raw[2:]
        return self.server.handle_datagram(raw, PEER, self.server.clock(), port=port + 1)


def build(directory, users: int, fill: bool) -> tuple[Server, Sender]:
    """A demo server whose store adds `users` users; with `fill`, each of them
    holds a session and a challenge table, set up through `handle_datagram`."""
    server = Server(load_server_config(write_demo_fixtures(directory, port=0)),
                    EventLog(io.StringIO()))
    extra = [UserRecord.create(f"user-{i:05d}", "pw", f"sms:user-{i:05d}")
             for i in range(users)]
    demo = [server.auth.users.get(name) for name, _, _ in DEMO_USERS]
    server.auth.users = UserStore(demo + extra)
    send = Sender(server)
    if fill:
        for record in extra:
            send(access_request(record.username, "pw"))
            send(access_request(record.username, "pw", service_type=ROOT))
    return server, send


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """Small tables, a large store with empty tables, and large tables."""
    return {name: build(tmp_path_factory.mktemp(name), users, fill)
            for name, users, fill in (("small", 4, True), ("store", LARGE, False),
                                      ("large", LARGE, True))}


def accept_and_replay(server: Server, send: Sender) -> list[int]:
    raw = access_request(ALICE, ALICE_PW)
    accept, first = count_lines(lambda: send(raw))
    send.sent -= 1  # the same datagram again: a retransmission
    replay, again = count_lines(lambda: send(raw))
    assert first is not None and again == first
    return [accept, replay]


def login_and_reentry(server: Server, send: Sender) -> list[int]:
    raw = access_request(BOB, BOB_PW)
    login, _ = count_lines(lambda: send(raw))
    reentry, _ = count_lines(lambda: send(raw))
    assert server.auth.session_for(BOB, stamp(server.clock())) is not None
    return [login, reentry]


def challenge_and_completion(server: Server, send: Sender) -> list[int]:
    for _ in range(MAX_PENDING_PER_USER - 1):
        send(access_request(CAROL, CAROL_PW, service_type=ROOT))
    raw = access_request(CAROL, CAROL_PW, service_type=ROOT)
    issue, reply = count_lines(lambda: send(raw))
    state = wire.decode_packet(reply).first(wire.STATE)
    otp = latest_otp(server.config.delivery_log_path, CAROL_SMS)
    raw = access_request(CAROL, otp, service_type=ROOT, state=state)
    complete, reply = count_lines(lambda: send(raw))
    assert wire.decode_packet(reply).code is wire.PacketCode.ACCESS_ACCEPT
    return [issue, complete]


def accept_in_store(server: Server, send: Sender) -> list[int]:
    raw = access_request(DAVE, DAVE_PW)
    return [count_lines(lambda: send(raw))[0]]


@pytest.mark.parametrize("measure, large", [
    (accept_and_replay, "large"),
    (login_and_reentry, "large"),
    (challenge_and_completion, "large"),
    (accept_in_store, "store"),
], ids=["dedup-accept-and-replay", "sessions-login-and-reentry",
        "challenges-issue-and-completion", "store-accept"])
def test_request_cost_does_not_grow_with_tables(servers, measure, large):
    small_counts = measure(*servers["small"])
    large_counts = measure(*servers[large])
    print(measure.__name__, small_counts, large_counts)
    assert all(big <= small + SLACK for small, big in zip(small_counts, large_counts)), (
        small_counts, large_counts)
