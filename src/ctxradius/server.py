"""The network daemon: UDP transport, client table, dedup cache, event log.

Ties the codec, context, policy and auth layers together.  Datagrams from
unknown peers and undecodable packets are dropped without a reply; every
in-protocol failure is answered with an Access-Reject carrying a uniform
message, so the wire never discloses whether a username exists.

The dedup cache is two generations of at most `DEDUP_GENERATION` entries
each, so a lookup and an insert cost the same at any table size and the
cache never holds more than twice that many responses.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import sys
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address, IPv4Network
from pathlib import Path
from typing import Callable, TextIO

from . import wire
from .auth import (
    AuthDecision,
    AuthPolicy,
    Authenticator,
    DeliveryLog,
    Outcome,
    RejectReason,
    Role,
    UserStore,
)
from .context import ConfigError, ContextConfig, snapshot_context
from .policy import RequestedAction
from .wire import Attribute, Packet, PacketCode, WireError

REJECT_MESSAGE = b"access denied"
ROLE_NAMES = {Role.DEFAULT: "default", Role.ROOT: "root"}

# Entries per dedup generation; two generations bound the cache at 16384
# entries, FreeRADIUS's default max_requests.
DEDUP_GENERATION = 8192
# A dedup entry is one bytes value: stored-at instant, request authenticator,
# response.  The instant is integer microseconds, so the window edge is exact.
_STAMP = struct.Struct("<q")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


class ServerStartupError(Exception):
    pass


@dataclass(frozen=True)
class ClientEntry:
    """A peer allowed to talk to the server, with its shared secret."""

    network: IPv4Network
    shared_secret: bytes

    def __post_init__(self) -> None:
        if not self.shared_secret:
            raise ConfigError("client shared secret must not be empty")


@dataclass(frozen=True)
class ServerConfig:
    context: ContextConfig
    clients: tuple[ClientEntry, ...]
    user_store_path: Path
    delivery_log_path: Path
    bind_address: str = "127.0.0.1"
    port: int = 1812
    auth_policy: AuthPolicy = field(default_factory=AuthPolicy)
    dedup_window_seconds: int = 30
    clock_override: datetime | None = None

    def __post_init__(self) -> None:
        if not self.clients:
            raise ConfigError("at least one client entry is required")
        window = self.dedup_window_seconds
        if (isinstance(window, bool) or not isinstance(window, (int, float))
                or not 0 < window < math.inf):
            raise ConfigError(
                f"dedup_window_seconds must be a positive number, got {window!r}")


def load_server_config(path: str | Path) -> ServerConfig:
    """Parse the JSON config file; relative paths are anchored at the file."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)

    clients = tuple(
        ClientEntry(IPv4Network(entry["address"], strict=False),
                    bytes.fromhex(entry["secret_hex"]))
        for entry in raw.get("clients", [])
    )
    otp = raw.get("otp", {})
    session = raw.get("session", {})
    policy = AuthPolicy(
        otp_ttl_seconds=otp.get("ttl_seconds", 120),
        otp_max_attempts=otp.get("max_attempts", 3),
        otp_digits=otp.get("digits", 6),
        session_ttl_seconds=session.get("ttl_seconds", 8 * 3600),
    )
    override = raw.get("clock_override")
    base = path.parent
    return ServerConfig(
        context=ContextConfig.from_dict(raw["context"]),
        clients=clients,
        user_store_path=base / raw["user_store_path"],
        delivery_log_path=base / raw["delivery_log_path"],
        bind_address=raw.get("bind_address", "127.0.0.1"),
        port=raw.get("port", 1812),
        auth_policy=policy,
        dedup_window_seconds=raw.get("dedup_window_seconds", 30),
        clock_override=datetime.fromisoformat(override) if override else None,
    )


class EventLog:
    """One TSV event line per row: instant, event, username-or-peer, detail.

    Secrets, passwords and OTP values never pass through here.
    """

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def log(self, now: datetime, event: str, subject: str, detail: str = "") -> None:
        line = f"{now.isoformat()}\t{event}\t{subject}\t{detail}\n"
        with self._lock:
            self._stream.write(line)
            self._stream.flush()


class Server:
    """Datagram handler plus the optional UDP serving loop around it."""

    def __init__(self, config: ServerConfig, event_log: EventLog | None = None):
        try:
            users = UserStore.load(config.user_store_path)
        except (OSError, ValueError, KeyError) as exc:
            raise ServerStartupError(f"cannot load user store: {exc}") from exc
        try:
            delivery = DeliveryLog(config.delivery_log_path)
        except OSError as exc:
            raise ServerStartupError(f"cannot open delivery log: {exc}") from exc

        self.config = config
        self.auth = Authenticator(users, delivery, config.auth_policy)
        self.events = event_log or EventLog()
        # Keyed on (peer, port, identifier) packed into one int, each value one
        # packed bytes: live entries set peak memory.  `_dedup` holds entries
        # stored since `_dedup_since`, `_dedup_old` the generation before it,
        # so dropping `_dedup_old` once `_dedup_since` is past the window
        # drops only expired entries.
        # Lock order: dedup, auth, delivery log, event log; none in reverse.
        self._dedup: dict[int, bytes] = {}
        self._dedup_old: dict[int, bytes] = {}
        self._dedup_since = 0
        self._dedup_lock = threading.Lock()
        self._dedup_window_us = round(config.dedup_window_seconds * 1_000_000)
        self._socket: socket.socket | None = None
        self._stop = threading.Event()
        if config.clock_override is not None:
            self.clock: Callable[[], datetime] = lambda: config.clock_override
        else:
            self.clock = lambda: datetime.now(timezone.utc)

    # -- request handling ----------------------------------------------------

    def handle_datagram(self, data: bytes, peer: IPv4Address, now: datetime,
                        *, port: int = 0) -> bytes | None:
        """Process one datagram from `peer`:`port`; None means drop silently.

        Dedup lookup, decision and store form one critical section, so any
        thread may call this.
        """
        client = self._client_for(peer)
        if client is None:
            self.events.log(now, "drop", str(peer), "unknown client")
            return None
        try:
            request = wire.decode_packet(data)
        except WireError as exc:
            self.events.log(now, "drop", str(peer), f"undecodable: {exc}")
            return None
        if request.code is not PacketCode.ACCESS_REQUEST:
            self.events.log(now, "drop", str(peer), f"unexpected code {request.code.name}")
            return None

        key = int(peer) << 24 | port << 8 | request.identifier
        stamp = _stamp(now)
        cutoff = stamp - self._dedup_window_us
        with self._dedup_lock:
            # the current generation holds the newer entry; a value is never empty
            cached = self._dedup.get(key) or self._dedup_old.get(key)
            if cached and _STAMP.unpack_from(cached)[0] > cutoff:
                if cached[8:24] == request.authenticator:
                    self.events.log(now, "replay", str(peer), f"id={request.identifier}")
                    return cached[24:]
                self.events.log(now, "drop", str(peer),
                                f"duplicate id={request.identifier} in dedup window")
                return None
            decision, username = self._decide(request, client, peer, now)
            response = self._render(decision, request, client.shared_secret)
            if self._dedup_since <= cutoff or len(self._dedup) >= DEDUP_GENERATION:
                self._dedup_old, self._dedup, self._dedup_since = self._dedup, {}, stamp
            self._dedup[key] = _STAMP.pack(stamp) + request.authenticator + response

        subject = username or str(peer)
        if decision.outcome is Outcome.ACCEPT:
            self.events.log(now, "accept", subject,
                            f"granted: {ROLE_NAMES[decision.granted_role]}")
        elif decision.outcome is Outcome.CHALLENGE:
            self.events.log(now, "challenge", subject, "otp challenge issued")
        else:
            self.events.log(now, "reject", subject, decision.reason.value)
        return response

    def _client_for(self, peer: IPv4Address) -> ClientEntry | None:
        for entry in self.config.clients:
            if peer in entry.network:
                return entry
        return None

    def _decide(self, request: Packet, client: ClientEntry, peer: IPv4Address,
                now: datetime) -> tuple[AuthDecision, str | None]:
        """Recover the request's fields and run the decision flow."""
        username = None
        raw_name = request.first(wire.USER_NAME)
        if raw_name is not None:
            try:
                username = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                return AuthDecision.reject(RejectReason.MALFORMED_REQUEST), None

        hidden = request.first(wire.USER_PASSWORD)
        password = None
        if hidden is not None:
            try:
                password = wire.recover_password(
                    hidden, client.shared_secret, request.authenticator)
            except WireError:
                return AuthDecision.reject(RejectReason.MALFORMED_REQUEST), username
        if username is None or password is None:
            return AuthDecision.reject(RejectReason.MALFORMED_REQUEST), username

        state = request.first(wire.STATE)
        if state is not None:
            # A non-ASCII OTP cannot match; it still spends an attempt.
            otp = password.decode("ascii", "replace")
            return self.auth.complete_challenge(state, otp, username, now), username

        action = self._requested_action(request)
        source = self._context_source(request, peer)
        snapshot = snapshot_context(source, now, self.config.context)
        return self.auth.authenticate(username, password, action, snapshot, now), username

    @staticmethod
    def _requested_action(request: Packet) -> RequestedAction:
        value = request.first(wire.SERVICE_TYPE)
        if value and int.from_bytes(value, "big") == wire.SERVICE_ADMINISTRATIVE_USER:
            return RequestedAction.ROOT_ACCESS
        return RequestedAction.DEFAULT_ACCESS

    @staticmethod
    def _context_source(request: Packet, peer: IPv4Address) -> IPv4Address:
        value = request.first(wire.NAS_IP_ADDRESS)
        if value is not None and len(value) == 4:
            return IPv4Address(value)
        return peer

    def _render(self, decision: AuthDecision, request: Packet, secret: bytes) -> bytes:
        if decision.outcome is Outcome.ACCEPT:
            code = PacketCode.ACCESS_ACCEPT
            role = ROLE_NAMES[decision.granted_role]
            attrs = (Attribute(wire.REPLY_MESSAGE, f"granted: {role}".encode()),)
        elif decision.outcome is Outcome.CHALLENGE:
            code = PacketCode.ACCESS_CHALLENGE
            attrs = (
                Attribute(wire.STATE, decision.state_token),
                Attribute(wire.REPLY_MESSAGE, decision.prompt.encode()),
            )
        else:
            code = PacketCode.ACCESS_REJECT
            attrs = (Attribute(wire.REPLY_MESSAGE, REJECT_MESSAGE),)

        return wire.stamp_response(
            wire.encode_packet(Packet(code, request.identifier, bytes(16), attrs)),
            request.authenticator, secret)

    # -- UDP lifecycle ---------------------------------------------------------

    def bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind((self.config.bind_address, self.config.port))
        except OSError as exc:
            sock.close()
            raise ServerStartupError(
                f"cannot bind {self.config.bind_address}:{self.config.port}: {exc}"
            ) from exc
        sock.settimeout(0.2)
        self._socket = sock

    @property
    def bound_port(self) -> int:
        if self._socket is None:
            raise RuntimeError("server is not bound")
        return self._socket.getsockname()[1]

    def serve_forever(self) -> None:
        """Serve datagrams one at a time, in arrival order, until shutdown().

        A stop request is noticed within the 0.2 s receive timeout;
        datagrams still queued in the socket then go unanswered.
        """
        if self._socket is None:
            self.bind()
        self.events.log(self.clock(), "listen",
                        f"{self.config.bind_address}:{self.bound_port}", "")
        while not self._stop.is_set():
            try:
                data, addr = self._socket.recvfrom(wire.MAX_PACKET_LEN + 1)
            except socket.timeout:
                continue
            except OSError:
                break
            self._serve_one(data, addr)
        self._socket.close()
        self._socket = None
        self.events.log(self.clock(), "shutdown", "-", "")

    def _serve_one(self, data: bytes, addr: tuple[str, int]) -> None:
        try:
            response = self.handle_datagram(
                data, IPv4Address(addr[0]), self.clock(), port=addr[1])
        except Exception as exc:  # never let a handler kill the loop
            self.events.log(self.clock(), "error", addr[0], repr(exc))
            return
        if response is not None:
            try:
                self._socket.sendto(response, addr)
            except OSError:
                pass

    def shutdown(self) -> None:
        self._stop.set()


def _stamp(now: datetime) -> int:
    """`now` in integer microseconds since the epoch; naive instants count as UTC."""
    if now.tzinfo is None:
        now = now.replace(tzinfo=timezone.utc)
    return (now - _EPOCH) // _MICROSECOND


def run_server(config: ServerConfig) -> None:
    """Bind, install signal handlers and serve until interrupted."""
    import signal

    server = Server(config)
    server.bind()

    def _stop(signum, frame):
        server.shutdown()

    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGTERM, _stop)
    server.serve_forever()
