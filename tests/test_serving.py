"""The UDP serving loop, driven through the live loopback server."""

from __future__ import annotations

import socket

from ctxradius import wire
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
