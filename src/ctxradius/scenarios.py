"""Protocol client replaying the evaluation scenarios against a live server.

Each scripted scenario states the exact packet-code sequence it must
observe; the runner records a transcript, verifies every response's
authenticator, and reads challenge OTPs from the simulated delivery log
in place of a phone.
"""

from __future__ import annotations

import json
import secrets
import socket
from dataclasses import dataclass, field
from ipaddress import IPv4Address
from pathlib import Path

from . import wire
from .auth import UserRecord, UserStore, latest_otp
from .policy import RequestedAction
from .wire import Attribute, Packet, PacketCode

DEFAULT_TIMEOUT_MS = 2000
DEFAULT_RETRIES = 3


class ScenarioError(Exception):
    pass


class Timeout(ScenarioError):
    pass


class SequenceMismatch(ScenarioError):
    pass


class AuthenticatorMismatch(ScenarioError):
    pass


@dataclass(frozen=True)
class ScenarioScript:
    """One scripted exchange and what it must look like on the wire."""

    scenario_id: str
    username: str
    password: str
    otp_channel: str
    actions: tuple[RequestedAction, ...]
    expected_sequence: tuple[PacketCode, ...]
    expected_role: str
    claimed_source: IPv4Address | None = None


@dataclass
class TranscriptEntry:
    direction: str  # "→" sent, "←" received
    code: PacketCode
    identifier: int
    attr_names: tuple[str, ...]

    def __str__(self) -> str:
        attrs = ",".join(self.attr_names)
        return f"{self.direction} {wire.CODE_NAMES[self.code]} id={self.identifier} attrs=[{attrs}]"


@dataclass
class Transcript:
    scenario_id: str
    entries: list[TranscriptEntry] = field(default_factory=list)
    verdict: bool = False
    failure: str | None = None

    @property
    def codes(self) -> tuple[PacketCode, ...]:
        return tuple(e.code for e in self.entries)

    def record(self, direction: str, packet: Packet) -> None:
        names = tuple(
            wire.ATTRIBUTE_NAMES.get(a.attr_type, f"Attr-{a.attr_type}")
            for a in packet.attributes
        )
        self.entries.append(TranscriptEntry(direction, packet.code, packet.identifier, names))


REQ = PacketCode.ACCESS_REQUEST
ACCEPT = PacketCode.ACCESS_ACCEPT
CHALLENGE = PacketCode.ACCESS_CHALLENGE

# Fixture users the demo scripts authenticate as; write_demo_fixtures
# materialises the matching server-side store.
DEMO_USERS = (
    ("alice", "wonderland-tea-party", "sms:alice"),
    ("bob", "can-we-fix-it", "sms:bob"),
    ("carol", "night-shift-rota", "sms:carol"),
    ("dave", "gradual-ambitions", "sms:dave"),
)

DEMO_SECRET = b"demo-shared-secret"

# Frozen at a Tuesday 10:00 inside the demo working hours.
DEMO_CLOCK = "2026-08-04T10:00:00+00:00"

SCRIPTS = {
    "S1": ScenarioScript(
        scenario_id="S1",
        username="alice", password="wonderland-tea-party", otp_channel="sms:alice",
        actions=(RequestedAction.DEFAULT_ACCESS,),
        expected_sequence=(REQ, ACCEPT),
        expected_role="default",
    ),
    "S2": ScenarioScript(
        scenario_id="S2",
        username="bob", password="can-we-fix-it", otp_channel="sms:bob",
        actions=(RequestedAction.ROOT_ACCESS,),
        expected_sequence=(REQ, CHALLENGE, REQ, ACCEPT),
        expected_role="root",
    ),
    "S3": ScenarioScript(
        scenario_id="S3",
        username="carol", password="night-shift-rota", otp_channel="sms:carol",
        actions=(RequestedAction.DEFAULT_ACCESS,),
        expected_sequence=(REQ, CHALLENGE, REQ, ACCEPT),
        expected_role="default",
        claimed_source=IPv4Address("203.0.113.7"),  # outside every trusted net
    ),
    "E1": ScenarioScript(
        scenario_id="E1",
        username="dave", password="gradual-ambitions", otp_channel="sms:dave",
        actions=(RequestedAction.DEFAULT_ACCESS, RequestedAction.ROOT_ACCESS),
        expected_sequence=(REQ, ACCEPT, REQ, CHALLENGE, REQ, ACCEPT),
        expected_role="root",
    ),
}

SCENARIO_ORDER = ("S1", "S2", "S3", "E1")

SERVICE_TYPE_FOR_ACTION = {
    RequestedAction.DEFAULT_ACCESS: wire.SERVICE_LOGIN_USER,
    RequestedAction.ROOT_ACCESS: wire.SERVICE_ADMINISTRATIVE_USER,
}


class ProtocolClient:
    """Blocking request/response client with retransmission on timeout."""

    def __init__(self, server: tuple[str, int], secret: bytes,
                 timeout_ms: int = DEFAULT_TIMEOUT_MS):
        self.server = server
        self.secret = secret
        self.timeout = timeout_ms / 1000.0
        self._identifier = secrets.randbelow(256)
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.settimeout(self.timeout)

    def close(self) -> None:
        self._socket.close()

    def __enter__(self) -> ProtocolClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def next_identifier(self) -> int:
        self._identifier = (self._identifier + 1) % 256
        return self._identifier

    def build_request(self, username: str, hidden_password: bytes, ra: bytes,
                      action: RequestedAction,
                      claimed_source: IPv4Address | None = None,
                      state: bytes | None = None) -> Packet:
        attrs = [
            Attribute(wire.USER_NAME, username.encode()),
            Attribute(wire.USER_PASSWORD, hidden_password),
            Attribute(wire.SERVICE_TYPE,
                      SERVICE_TYPE_FOR_ACTION[action].to_bytes(4, "big")),
        ]
        if claimed_source is not None:
            attrs.append(Attribute(wire.NAS_IP_ADDRESS, claimed_source.packed))
        if state is not None:
            attrs.append(Attribute(wire.STATE, state))
        return Packet(PacketCode.ACCESS_REQUEST, self.next_identifier(), ra,
                      tuple(attrs))

    def exchange(self, request: Packet) -> Packet:
        """Send, retransmitting the identical datagram on timeout, and
        verify the response's authenticator before returning it."""
        raw = wire.encode_packet(request)
        for _ in range(DEFAULT_RETRIES):
            self._socket.sendto(raw, self.server)
            try:
                data, _ = self._socket.recvfrom(wire.MAX_PACKET_LEN + 1)
            except (TimeoutError, socket.timeout):
                continue
            response = wire.decode_packet(data)
            if response.identifier != request.identifier:
                continue  # stray datagram; keep waiting
            if not wire.verify_response_authenticator(
                    response, request.authenticator, self.secret):
                raise AuthenticatorMismatch(
                    f"response id={response.identifier} failed verification")
            return response
        raise Timeout(f"no response after {DEFAULT_RETRIES} tries of {self.timeout:.1f}s")


def run_scenario(script: ScenarioScript, server: tuple[str, int], secret: bytes,
                 delivery_log: str | Path, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> Transcript:
    """Replay one script; the verdict is pass only if the observed code
    sequence and the final granted role both match the script."""
    transcript = Transcript(script.scenario_id)
    final_reply = None
    try:
        with ProtocolClient(server, secret, timeout_ms) as client:
            for action in script.actions:
                response = _one_exchange(client, script, action, transcript, delivery_log)
                final_reply = response.first(wire.REPLY_MESSAGE)
        if transcript.codes != script.expected_sequence:
            raise SequenceMismatch(
                f"expected {_names(script.expected_sequence)}, observed {_names(transcript.codes)}")
        expected_reply = f"granted: {script.expected_role}".encode()
        if final_reply != expected_reply:
            raise SequenceMismatch(
                f"final reply {final_reply!r}, expected {expected_reply!r}")
        transcript.verdict = True
    except (ScenarioError, wire.WireError, OSError) as exc:
        transcript.verdict = False
        transcript.failure = f"{type(exc).__name__}: {exc}"
    return transcript


def _one_exchange(client: ProtocolClient, script: ScenarioScript,
                  action: RequestedAction, transcript: Transcript,
                  delivery_log: str | Path) -> Packet:
    """One logical request, following up once if challenged."""
    ra = wire.random_authenticator()
    hidden = wire.hide_password(script.password.encode(), client.secret, ra)
    request = client.build_request(script.username, hidden, ra, action,
                                   script.claimed_source)
    transcript.record("→", request)
    response = client.exchange(request)
    transcript.record("←", response)

    if response.code is not PacketCode.ACCESS_CHALLENGE:
        return response

    state = response.first(wire.STATE)
    if state is None:
        raise SequenceMismatch("challenge carried no State attribute")
    otp = latest_otp(delivery_log, script.otp_channel)
    if otp is None:
        raise SequenceMismatch(f"no OTP delivered to {script.otp_channel}")
    ra = wire.random_authenticator()
    hidden_otp = wire.hide_password(otp.encode(), client.secret, ra)
    follow_up = client.build_request(script.username, hidden_otp, ra, action,
                                     script.claimed_source, state=state)
    transcript.record("→", follow_up)
    response = client.exchange(follow_up)
    transcript.record("←", response)
    return response


def _names(codes: tuple[PacketCode, ...]) -> str:
    return "[" + ", ".join(wire.CODE_NAMES[c] for c in codes) + "]"


def run_all(server: tuple[str, int], secret: bytes, delivery_log: str | Path,
            timeout_ms: int = DEFAULT_TIMEOUT_MS,
            scenario_ids: tuple[str, ...] = SCENARIO_ORDER) -> int:
    """Run the given scenarios in order, print transcripts, 0 iff all pass."""
    all_passed = True
    for scenario_id in scenario_ids:
        transcript = run_scenario(SCRIPTS[scenario_id], server, secret,
                                  delivery_log, timeout_ms)
        for entry in transcript.entries:
            print(entry)
        if transcript.verdict:
            print(f"{scenario_id} PASS")
        else:
            print(f"{scenario_id} FAIL: {transcript.failure}")
            all_passed = False
    return 0 if all_passed else 1


def write_demo_fixtures(directory: str | Path, port: int = 1812) -> Path:
    """Materialise server-side fixture files matching the demo scripts.

    Writes users.json, an empty delivery log and config.json into the
    directory; returns the config path.  The config pins the clock inside
    working hours so the scripts behave the same at any desk time.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    UserStore.save(directory / "users.json", [
        UserRecord.create(name, password, channel)
        for name, password, channel in DEMO_USERS
    ])
    (directory / "otp-delivery.log").touch()
    config = {
        "bind_address": "127.0.0.1",
        "port": port,
        "clients": [{"address": "127.0.0.0/8", "secret_hex": DEMO_SECRET.hex()}],
        "context": {
            "working_days": ["monday", "tuesday", "wednesday", "thursday", "friday"],
            "day_start": "08:00",
            "day_end": "18:00",
            "timezone": "+00:00",
            "trusted_networks": ["127.0.0.0/8", "10.0.0.0/8"],
        },
        "otp": {"ttl_seconds": 120, "max_attempts": 3, "digits": 6},
        "session": {"ttl_seconds": 28800},
        "user_store_path": "users.json",
        "delivery_log_path": "otp-delivery.log",
        "clock_override": DEMO_CLOCK,
    }
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
