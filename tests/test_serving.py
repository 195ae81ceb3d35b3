"""The UDP serving loop, driven through the live loopback server."""

from __future__ import annotations

import io
import socket
import threading

from ctxradius import wire
from ctxradius.scenarios import DEMO_USERS, write_demo_fixtures
from ctxradius.server import EventLog, Server, load_server_config
from ctxradius.wire import PacketCode
from test_server import ALICE, ALICE_PW, access_request


def udp_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(2)
    return sock


def receive(sock: socket.socket) -> wire.Packet:
    data, _ = sock.recvfrom(wire.MAX_PACKET_LEN)
    return wire.decode_packet(data)


def test_same_identifier_from_two_ports_both_answered(live_server):
    """RFC 5080 keys duplicates on the source port too: two NAS processes
    on one host may use the same identifier at the same time."""
    with udp_socket() as first, udp_socket() as second:
        for sock in (first, second):
            sock.sendto(access_request(ALICE, ALICE_PW, identifier=42),
                        live_server.endpoint)
        for sock in (first, second):
            response = receive(sock)
            assert response.code is PacketCode.ACCESS_ACCEPT
            assert response.identifier == 42


def test_handler_error_is_logged_and_loop_survives(live_server, monkeypatch):
    server = live_server.server
    handle = server.handle_datagram
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("handler fault")
        return handle(*args, **kwargs)

    monkeypatch.setattr(server, "handle_datagram", fails_once)
    with udp_socket() as sock:
        sock.sendto(access_request(ALICE, ALICE_PW, identifier=1), live_server.endpoint)
        sock.sendto(access_request(ALICE, ALICE_PW, identifier=2), live_server.endpoint)
        response = receive(sock)
    assert response.code is PacketCode.ACCESS_ACCEPT
    assert response.identifier == 2
    errors = [line.split("\t") for line in live_server.events.getvalue().splitlines()
              if line.split("\t")[1] == "error"]
    assert [e[2:] for e in errors] == [["127.0.0.1", "RuntimeError('handler fault')"]]


def test_shutdown_stops_the_loop_within_a_second(live_server):
    live_server.server.shutdown()
    live_server.thread.join(timeout=1)
    assert not live_server.thread.is_alive()
    last = live_server.events.getvalue().splitlines()[-1]
    assert last.split("\t")[1:3] == ["shutdown", "-"]


class FlushCounter(io.StringIO):
    flushes = 0

    def flush(self) -> None:
        self.flushes += 1
        super().flush()


def bound_server(directory, bind_address: str = "127.0.0.1") -> tuple[Server, FlushCounter]:
    config = load_server_config(write_demo_fixtures(directory, port=0))
    config.bind_address = bind_address
    events = FlushCounter()
    server = Server(config, EventLog(stream=events))
    server.bind()
    return server, events


def test_bound_socket_blocks_without_a_timeout(tmp_path):
    server, _ = bound_server(tmp_path)
    try:
        assert server._socket.gettimeout() is None
    finally:
        server._socket.close()


def test_burst_is_answered_in_order_with_one_flush_per_batch(tmp_path):
    """32 requests queued before the loop starts are drained as one batch:
    each answered in arrival order, their event lines flushed together."""
    server, events = bound_server(tmp_path)
    users = [DEMO_USERS[i % 2] for i in range(32)]
    with udp_socket() as sock:
        for identifier, (name, password, _) in enumerate(users):
            sock.sendto(access_request(name, password, identifier=identifier),
                        ("127.0.0.1", server.bound_port))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            replies = [receive(sock) for _ in users]
        finally:
            server.shutdown()
            thread.join(timeout=1)
    assert not thread.is_alive()
    assert [r.identifier for r in replies] == list(range(32))
    assert {r.code for r in replies} == {PacketCode.ACCESS_ACCEPT}
    lines = [line.split("\t")[1:3] for line in events.getvalue().splitlines()]
    assert lines[1:-1] == [["accept", name] for name, _, _ in users]
    assert events.flushes <= 4


def test_shutdown_wakes_a_loop_bound_to_any_address(tmp_path):
    server, events = bound_server(tmp_path, "0.0.0.0")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.shutdown()
    thread.join(timeout=1)
    assert not thread.is_alive()
    last = events.getvalue().splitlines()[-1]
    assert last.split("\t")[1:3] == ["shutdown", "-"]
