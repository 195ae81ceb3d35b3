"""The network daemon: UDP transport, client table, dedup cache, event log.

Ties the codec, context, policy and auth layers together.  Datagrams from
unknown peers and undecodable packets are dropped without a reply; every
in-protocol failure is answered with an Access-Reject carrying a uniform
message, so the wire never discloses whether a username exists.

The dedup cache is two generations of at most `DEDUP_GENERATION` entries
each, so a lookup and an insert cost the same at any table size and the
cache never holds more than twice that many responses.

The Server's lock is the only lock on decision state: it covers a
datagram's dedup lookup, decision and store, and `Authenticator` and
`DeliveryLog` hold none.  `EventLog` keeps its own lock for the lines the
serving loop writes.  Each datagram writes exactly one event line, from one
place in `handle_datagram`, after the Server's lock is released, so no
thread ever holds two locks.
"""

from __future__ import annotations

import json
import socket
import struct
import sys
import threading
from datetime import datetime, timezone
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
from .context import (
    ConfigError,
    ContextConfig,
    evaluate_plausibility,
    require_duration,
    require_list,
    require_network,
    require_number,
    require_object,
    require_string,
    stamp,
)
from .policy import RequestedAction
from .wire import PacketCode, WireError

ROLE_NAMES = {Role.DEFAULT: "default", Role.ROOT: "root"}
# Encoded reply attributes; each Accept's is keyed by the role granted.
_ACCEPTS = {role: (wire.encode_attribute(wire.REPLY_MESSAGE, f"granted: {name}".encode()),
                   f"granted: {name}") for role, name in ROLE_NAMES.items()}
_REJECT_BODY = wire.encode_attribute(wire.REPLY_MESSAGE, b"access denied")
_PROMPT = wire.encode_attribute(wire.REPLY_MESSAGE, b"one-time password required")

# Entries per dedup generation; two generations bound the cache at 16384
# entries, FreeRADIUS's default max_requests.
DEDUP_GENERATION = 8192
# A dedup entry is one bytes value: stored-at instant, request authenticator,
# response.  The instant is integer microseconds, so the window edge is exact.
_STAMP = struct.Struct("<q")


class ServerStartupError(Exception):
    pass


class ClientEntry:
    """A peer allowed to talk to the server, with its shared secret."""

    __slots__ = ("network", "shared_secret")

    def __init__(self, network: IPv4Network, shared_secret: bytes) -> None:
        if not shared_secret:
            raise ConfigError("client shared secret must not be empty")
        self.network = network
        self.shared_secret = shared_secret


class ServerConfig:
    __slots__ = ("context", "clients", "user_store_path", "delivery_log_path", "bind_address",
                 "port", "auth_policy", "dedup_window_seconds", "clock_override")

    def __init__(self, context: ContextConfig, clients: tuple[ClientEntry, ...],
                 user_store_path: Path, delivery_log_path: Path,
                 bind_address: str = "127.0.0.1", port: int = 1812,
                 auth_policy: AuthPolicy | None = None, dedup_window_seconds: int = 30,
                 clock_override: datetime | None = None) -> None:
        if not clients:
            raise ConfigError("at least one client entry is required")
        if not isinstance(bind_address, str):
            raise ConfigError(f"bind_address must be a str, got {bind_address!r}")
        require_duration("dedup_window_seconds", dedup_window_seconds)
        require_number("port", port, (int,), 0, 65536, "an int from 0 to 65535")
        if clock_override is not None and clock_override.tzinfo is None:
            raise ConfigError(
                f"clock_override needs a UTC offset, got {clock_override.isoformat()!r}")
        self.context = context
        self.clients = clients
        self.user_store_path = user_store_path
        self.delivery_log_path = delivery_log_path
        self.bind_address = bind_address
        self.port = port
        self.auth_policy = AuthPolicy() if auth_policy is None else auth_policy
        self.dedup_window_seconds = dedup_window_seconds
        self.clock_override = clock_override


def load_server_config(path: str | Path) -> ServerConfig:
    """Parse the JSON config file; relative paths are anchored at the file.

    Keys under "otp" and "session" set the `otp_` and `session_` fields.
    An unknown or missing key, or a value of the wrong JSON type, raises a
    ConfigError that names the key.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ConfigError(f"malformed config {path}: JSON nested too deeply") from None

    if not isinstance(raw, dict):
        raise ConfigError(
            f"malformed config {path}: must be a JSON object, got {type(raw).__name__}")
    base = path.parent
    try:
        raw = {**raw}
        clients = []
        entries = require_list("clients", raw.pop("clients", []))
        if not entries:
            raise ConfigError("clients: at least one client entry is required")
        for entry in entries:
            entry = {**require_object("clients entry", entry)}
            network = require_network("client address", entry.pop("address"), strict=False)
            secret_hex = require_string("secret_hex", entry.pop("secret_hex"))
            try:
                secret = bytes.fromhex(secret_hex)
            except ValueError as exc:
                raise ConfigError(f"secret_hex: {exc}") from None
            if not secret:
                raise ConfigError("secret_hex: client shared secret must not be empty")
            clients.append(ClientEntry(network, secret, **entry))
        otp = require_object("otp", raw.pop("otp", {}))
        session = require_object("session", raw.pop("session", {}))
        policy = AuthPolicy(**{f"otp_{k}": v for k, v in otp.items()},
                            **{f"session_{k}": v for k, v in session.items()})
        override = raw.pop("clock_override", None)
        if override is not None:
            text = require_string("clock_override", override)
            try:
                override = datetime.fromisoformat(text)
            except ValueError as exc:
                raise ConfigError(f"clock_override: {exc}") from None
        context = ContextConfig.from_dict(require_object("context", raw.pop("context")))
        user_store_path = base / require_string("user_store_path", raw.pop("user_store_path"))
        delivery_log_path = base / require_string("delivery_log_path",
                                                  raw.pop("delivery_log_path"))
        return ServerConfig(context, tuple(clients), user_store_path, delivery_log_path,
                            auth_policy=policy, clock_override=override, **raw)
    except TypeError as exc:
        # only an unknown keyword at a constructor, whose message names it
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"malformed config {path}: missing key {exc}") from exc


# Escapes for event-log fields: backslash, tab, CR and LF by name, the other
# C0 controls, DEL and the C1 controls as \xNN, and the two separators that
# str.splitlines also splits on as \uNNNN.
_FIELD_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_FIELD_ESCAPES.update({ord("\\"): "\\\\", ord("\t"): "\\t", ord("\r"): "\\r",
                       ord("\n"): "\\n", 0x2028: "\\u2028", 0x2029: "\\u2029"})


def _field(text: str) -> str:
    """`text` with nothing that could end its field or its line."""
    if text.isprintable() and "\\" not in text:
        return text
    return text.translate(_FIELD_ESCAPES)


class EventLog:
    """One TSV event line per row: instant, event, username-or-peer, detail.

    Each field is escaped, so one call writes exactly one line of four
    fields whatever a request carries.  Secrets, passwords and OTP values
    never pass through here.  `log` leaves the line in the stream's buffer;
    the serving loop calls `flush` once per batch of datagrams.
    """

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def log(self, when: str, event: str, subject: str, detail: str = "") -> None:
        line = f"{when}\t{_field(event)}\t{_field(subject)}\t{_field(detail)}\n"
        with self._lock:
            self._stream.write(line)

    def flush(self) -> None:
        with self._lock:
            self._stream.flush()


class Server:
    """Datagram handler plus the optional UDP serving loop around it."""

    def __init__(self, config: ServerConfig, event_log: EventLog | None = None):
        try:
            users = UserStore.load(config.user_store_path)
        except (OSError, ValueError) as exc:
            raise ServerStartupError(f"cannot load user store: {exc}") from exc
        try:
            delivery = DeliveryLog(config.delivery_log_path)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ServerStartupError(f"cannot open delivery log: {exc}") from exc

        self.config = config
        self.auth = Authenticator(users, delivery, config.auth_policy)
        self.events = event_log or EventLog()
        # Keyed on (peer, port, identifier) packed into one int, each value one
        # packed bytes: live entries set peak memory.  `_dedup` holds entries
        # stored since `_dedup_since`, `_dedup_old` the generation before it,
        # so dropping `_dedup_old` once `_dedup_since` is past the window
        # drops only expired entries.
        self._dedup: dict[int, bytes] = {}
        self._dedup_old: dict[int, bytes] = {}
        self._dedup_since = 0
        self._lock = threading.Lock()  # the only lock on decision state
        self._dedup_window_us = round(config.dedup_window_seconds * 1_000_000)
        self._socket: socket.socket | None = None
        self._stop = threading.Event()
        if config.clock_override is not None:
            self.clock: Callable[[], datetime] = lambda: config.clock_override
        else:
            self.clock = lambda: datetime.now(timezone.utc)

    # -- request handling ----------------------------------------------------

    def handle_datagram(self, data: bytes, peer: IPv4Address | str, now: datetime,
                        *, port: int = 0) -> bytes | None:
        """Process one datagram from `peer`:`port`; None means drop silently.

        `peer` is an IPv4Address or its dotted string.  `now`, timezone-aware,
        is read once into integer microseconds and once into the text that
        the event and delivery lines print.  Dedup lookup, decision, render
        and store form one critical section under the Server's lock, so any
        thread may call this.  Every datagram writes exactly one event line,
        here, after the lock is released.
        """
        when = now.isoformat()
        event, subject, detail, response = self._handle(data, str(peer), stamp(now), when, port)
        self.events.log(when, event, subject, detail)
        return response

    def _handle(self, data: bytes, name: str, now: int, when: str,
                port: int) -> tuple[str, str, str, bytes | None]:
        """The event, subject and detail of the datagram's event line, and its reply."""
        peer = int.from_bytes(socket.inet_aton(name), "big")
        client = self._client_for(peer)
        if client is None:
            return "drop", name, "unknown client", None
        try:
            code, identifier, ra, attributes = wire.scan_packet(data)
        except WireError as exc:
            return "drop", name, f"undecodable: {exc}", None
        if code != PacketCode.ACCESS_REQUEST:
            return "drop", name, f"unexpected code {PacketCode(code).name}", None

        key = peer << 24 | port << 8 | identifier
        cutoff = now - self._dedup_window_us
        with self._lock:
            # the current generation holds the newer entry; a value is never empty
            cached = self._dedup.get(key) or self._dedup_old.get(key)
            if cached and _STAMP.unpack_from(cached)[0] > cutoff:
                if cached[8:24] == ra:
                    return "replay", name, f"id={identifier}", cached[24:]
                return "drop", name, f"duplicate id={identifier} in dedup window", None
            decision, username = self._decide(attributes, ra, client, peer, now, when)
            code, body, detail = _outcome(decision)
            response = wire.stamp_response(
                wire.frame(code, identifier, bytes(16), body), ra, client.shared_secret)
            if self._dedup_since <= cutoff or len(self._dedup) >= DEDUP_GENERATION:
                self._dedup_old, self._dedup, self._dedup_since = self._dedup, {}, now
            self._dedup[key] = _STAMP.pack(now) + ra + response
        return decision.outcome.value, username or name, detail, response

    def _client_for(self, peer: int) -> ClientEntry | None:
        for entry in self.config.clients:
            if peer & int(entry.network.netmask) == int(entry.network.network_address):
                return entry
        return None

    def _decide(self, attributes: list[tuple[int, bytes]], ra: bytes, client: ClientEntry,
                peer: int, now: int, when: str) -> tuple[AuthDecision, str | None]:
        """Recover the request's fields, the first of each type, and decide."""
        first = dict(reversed(attributes))
        username = None
        raw_name = first.get(wire.USER_NAME)
        if raw_name is not None:
            try:
                username = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                return AuthDecision.reject(RejectReason.MALFORMED_REQUEST), None

        hidden = first.get(wire.USER_PASSWORD)
        password = None
        if hidden is not None:
            try:
                password = wire.recover_password(hidden, client.shared_secret, ra)
            except WireError:
                return AuthDecision.reject(RejectReason.MALFORMED_REQUEST), username
        if username is None or password is None:
            return AuthDecision.reject(RejectReason.MALFORMED_REQUEST), username

        state = first.get(wire.STATE)
        if state is not None:
            # A non-ASCII OTP cannot match; it still spends an attempt.
            otp = password.decode("ascii", "replace")
            return self.auth.complete_challenge(state, otp, username, now), username

        service = first.get(wire.SERVICE_TYPE)
        root = service and int.from_bytes(service, "big") == wire.SERVICE_ADMINISTRATIVE_USER
        action = RequestedAction.ROOT_ACCESS if root else RequestedAction.DEFAULT_ACCESS
        nas_ip = first.get(wire.NAS_IP_ADDRESS)
        source = int.from_bytes(nas_ip, "big") if nas_ip is not None and len(nas_ip) == 4 else peer
        verdict = evaluate_plausibility(source, now, self.config.context)
        return self.auth.authenticate(username, password, action, verdict, now, when), username

    # -- UDP lifecycle ---------------------------------------------------------

    def bind(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.bind((self.config.bind_address, self.config.port))
        except (OSError, TypeError) as exc:  # TypeError: a NUL or unencodable host name
            sock.close()
            raise ServerStartupError(
                f"cannot bind {self.config.bind_address}:{self.config.port}: {exc}"
            ) from exc
        self._socket = sock

    @property
    def bound_port(self) -> int:
        if self._socket is None:
            raise RuntimeError("server is not bound")
        return self._socket.getsockname()[1]

    def serve_forever(self) -> None:
        """Serve datagrams one at a time, in arrival order, until shutdown().

        Call `bind` first.  The loop blocks for a datagram, then drains the
        socket's queue, answering each datagram before it reads the next,
        and flushes the batch's event lines once the queue is empty.  A stop
        request is noticed before the next datagram is served, and
        `shutdown` sends one to wake a blocked loop; datagrams still queued
        then go unanswered.
        """
        sock = self._socket
        self.events.log(self.clock().isoformat(), "listen",
                        f"{self.config.bind_address}:{self.bound_port}", "")
        self.events.flush()
        flags = 0
        while True:
            try:
                data, addr = sock.recvfrom(wire.MAX_PACKET_LEN + 1, flags)
            except BlockingIOError:  # the queue is drained
                self.events.flush()
                flags = 0
                continue
            except OSError:
                break
            if self._stop.is_set():
                break
            self._serve_one(data, addr)
            flags = socket.MSG_DONTWAIT
        sock.close()
        self._socket = None
        self.events.log(self.clock().isoformat(), "shutdown", "-", "")
        self.events.flush()

    def _serve_one(self, data: bytes, addr: tuple[str, int]) -> None:
        try:
            response = self.handle_datagram(data, addr[0], self.clock(), port=addr[1])
        except Exception as exc:  # never let a handler kill the loop
            self.events.log(self.clock().isoformat(), "error", addr[0], repr(exc))
            return
        if response is not None:
            try:
                self._socket.sendto(response, addr)
            except OSError:
                pass

    def shutdown(self) -> None:
        """Stop `serve_forever`, waking its blocked receive with an empty datagram."""
        self._stop.set()
        sock = self._socket
        if sock is None:
            return
        try:
            host, port = sock.getsockname()
            sock.sendto(b"", ("127.0.0.1" if host == "0.0.0.0" else host, port))
        except OSError:  # closed: the loop has stopped already
            pass


def _outcome(decision: AuthDecision) -> tuple[int, bytes, str]:
    """The reply code, the encoded reply attributes and the event detail of a decision."""
    if decision.outcome is Outcome.ACCEPT:
        return (PacketCode.ACCESS_ACCEPT, *_ACCEPTS[decision.granted_role])
    if decision.outcome is Outcome.CHALLENGE:
        return (PacketCode.ACCESS_CHALLENGE,
                wire.encode_attribute(wire.STATE, decision.state_token) + _PROMPT,
                "otp challenge issued")
    return PacketCode.ACCESS_REJECT, _REJECT_BODY, decision.reason.value


def run_server(config: ServerConfig) -> None:
    """Bind, install signal handlers and serve until interrupted.

    The event lines go to a block-buffered stream of the daemon's own on
    descriptor 2, which the loop flushes once per batch: `sys.stderr`
    writes through on every line under PYTHONUNBUFFERED.
    """
    import signal

    with open(2, "w", encoding=sys.stderr.encoding, errors=sys.stderr.errors,
              closefd=False) as stream:
        server = Server(config, EventLog(stream))
        server.bind()

        def _stop(signum, frame):
            server.shutdown()

        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
        server.serve_forever()
