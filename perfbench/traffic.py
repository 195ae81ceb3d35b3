"""Login traffic: users, pre-encoded first legs, the expected answers and
the client side of each login.

Every answer is checked against the paper's 2x2 matrix as applied to the
user's session, which this module models on the client side: the model is
updated only from verified answers, so it always knows whether a user holds
a session and how many OTP challenges the user has left pending.  Sessions
(8 h) and challenges (120 s) outlive a phase, so the model needs no clock.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

from ctxradius import wire
from ctxradius.auth import UserRecord, UserStore
from ctxradius.scenarios import DEMO_USERS
from ctxradius.wire import Attribute, Packet, PacketCode

SECRET = b"perfbench-shared-secret"
MAX_PENDING = 3  # AuthPolicy.max_pending_per_user at its default
NONE, DEFAULT, ROOT = 0, 1, 2
ROLE_NAME = {DEFAULT: "default", ROOT: "root"}
ACCEPT = PacketCode.ACCESS_ACCEPT
REJECT = PacketCode.ACCESS_REJECT
CHALLENGE = PacketCode.ACCESS_CHALLENGE
SERVICE_TYPE = {DEFAULT: wire.SERVICE_LOGIN_USER, ROOT: wire.SERVICE_ADMINISTRATIVE_USER}

# Login types: each leg is (requested role, on site).  Every NAS claims a
# NAS-IP-Address, so the context verdict depends on it and on the clock.
KINDS = {
    "S1": ((DEFAULT, True),),
    "S2": ((ROOT, True),),
    "S3": ((DEFAULT, False),),
    "E1": ((DEFAULT, True), (ROOT, True)),
    "wrong": ((DEFAULT, True),),      # wrong password: rejected
    "abandon": ((ROOT, True),),       # challenged, OTP never sent
}
RETURNING_LEGS = {"E1": ((ROOT, True),)}  # a returning E1 user asks for root again

FRESH_MIX = (("S1", 60), ("S2", 10), ("S3", 10), ("E1", 10), ("wrong", 5), ("abandon", 5))
RETURNING_MIX = (("S1", 60), ("S2", 10), ("S3", 10), ("E1", 10))


def matrix_answer(session_role: int, session_factors: int, role: int,
                  plausible: bool) -> tuple[PacketCode, int]:
    """The answer the paper's matrix demands: (code, granted role).

    A request needs two factors when its context is implausible or it asks
    for root.  A live session covers it only with that many factors; with
    two factors a session may also be raised to root in place.
    """
    needed = 1 if plausible and role == DEFAULT else 2
    if session_role and session_factors >= needed and (
            session_role >= role or session_factors >= 2):
        return ACCEPT, max(session_role, role)
    if needed == 1:
        return ACCEPT, max(session_role, DEFAULT)
    return CHALLENGE, NONE


def with_identifier(datagram: bytes, identifier: int) -> bytes:
    # The identifier is covered by neither the Request Authenticator nor the
    # password hiding, so a pre-encoded request can take any identifier.
    return datagram[:1] + bytes((identifier,)) + datagram[2:]


def encode_request(username: str, secret_input: bytes, ra: bytes, role: int,
                   nas_ip: bytes, state: bytes | None = None,
                   secret: bytes = SECRET) -> bytes:
    attrs = [
        Attribute(wire.USER_NAME, username.encode()),
        Attribute(wire.USER_PASSWORD, wire.hide_password(secret_input, secret, ra)),
        Attribute(wire.SERVICE_TYPE, SERVICE_TYPE[role].to_bytes(4, "big")),
        Attribute(wire.NAS_IP_ADDRESS, nas_ip),
    ]
    if state is not None:
        attrs.append(Attribute(wire.STATE, state))
    return wire.encode_packet(Packet(PacketCode.ACCESS_REQUEST, 0, ra, tuple(attrs)))


def nas_ip(on_site: bool, index: int) -> bytes:
    if on_site:
        return bytes((10, 20, index // 250 % 250, index % 250 + 1))
    return bytes((203, 0, 113, index % 250 + 1))


class NasAddresses:
    """Source addresses for NAS sockets: each serves 256 identifiers, then
    retires, so no (address, identifier) pair repeats inside a run."""

    def __init__(self, second_octet: int = 1):
        self._octet = second_octet
        self._next = 0

    def take(self) -> str:
        n = self._next
        self._next += 1
        if n >= 254 * 256:
            raise RuntimeError("NAS address range exhausted")
        return f"127.{self._octet}.{n // 254}.{n % 254 + 1}"


class DeliveryTail:
    """Reads OTPs from the delivery log by file offset, newest per channel."""

    def __init__(self, path: Path):
        self._fh = open(path, "rb")
        self._rest = b""
        self._latest: dict[str, str] = {}

    def take(self, channel: str) -> str | None:
        otp = self._latest.pop(channel, None)
        if otp is None:
            data = self._rest + self._fh.read()
            lines = data.split(b"\n")
            self._rest = lines.pop()
            for line in lines:
                parts = line.decode().split("\t")
                if len(parts) == 3:
                    self._latest[parts[1]] = parts[2]
            otp = self._latest.pop(channel, None)
        return otp

    def close(self) -> None:
        self._fh.close()


@dataclass
class User:
    name: str
    password: bytes
    kind: str
    index: int
    role: int = NONE       # role of the session, NONE without one
    factors: int = 0
    pending: int = 0       # challenges left unanswered
    broken: bool = False   # an answer failed; the model no longer knows

    @property
    def channel(self) -> str:
        return f"sms:{self.name}"

    def forget(self) -> None:
        """Back to no session and no pending challenge, as for a new server."""
        self.role, self.factors, self.pending, self.broken = NONE, 0, 0, False


def make_users(rng: random.Random, pools: dict[str, int]) -> list[User]:
    users = []
    for kind, size in pools.items():
        for i in range(size):
            users.append(User(f"{kind.lower()}-{i:06d}", f"pw-{rng.getrandbits(48):x}".encode(),
                              kind, len(users)))
    return users


def write_user_store(path: Path, rng: random.Random, users: list[User]) -> None:
    records = [_record(rng, u.name, u.password, u.channel) for u in users]
    records += [_record(rng, name, pw.encode(), channel) for name, pw, channel in DEMO_USERS]
    UserStore.save(path, records)


def _record(rng: random.Random, name: str, password: bytes, channel: str) -> UserRecord:
    salt = rng.randbytes(16)
    return UserRecord(name, salt, sha256(salt + password).digest(), channel)


def pool_sizes(mix, capacity: int) -> dict[str, int]:
    total = sum(w for _, w in mix)
    return {kind: max(4, math.ceil(capacity * w / total)) for kind, w in mix}


def make_plans(rng: random.Random, users: list[User], mix, count: int,
               returning: bool) -> list[tuple[User, tuple]]:
    """`count` logins drawn from the mix; users of a kind are taken in turn.

    Each plan is (user, legs) with legs ((role, on site, datagram), ...), the
    datagrams encoded now with identifier 0.
    """
    by_kind: dict[str, list[User]] = {}
    for u in users:
        by_kind.setdefault(u.kind, []).append(u)
    cursor = {k: 0 for k in by_kind}
    kinds = [k for k, _ in mix]
    weights = [w for _, w in mix]
    plans = []
    for kind in rng.choices(kinds, weights, k=count):
        pool = by_kind[kind]
        user = pool[cursor[kind] % len(pool)]
        cursor[kind] += 1
        shape = RETURNING_LEGS.get(kind, KINDS[kind]) if returning else KINDS[kind]
        legs = []
        for role, on_site in shape:
            password = b"not-" + user.password if kind == "wrong" else user.password
            datagram = encode_request(user.name, password, rng.randbytes(16), role,
                                      nas_ip(on_site, user.index))
            legs.append((role, on_site, datagram))
        plans.append((user, tuple(legs)))
    return plans


class Login:
    """One login in flight: the next datagram to send and what must come back."""

    __slots__ = ("user", "legs", "leg", "datagram", "expect", "otp_leg", "repeat", "started")

    def __init__(self, user: User, legs: tuple, started: int):
        self.user = user
        self.legs = legs
        self.leg = 0
        self.started = started
        self.otp_leg = False
        self.repeat = False
        self.datagram = b""
        self.expect = (REJECT, NONE)


AGAIN, NEXT, DONE, FAILED = range(4)  # what Engine.answer asks the transport to do


class Engine:
    """The client side of the traffic, independent of the transport.

    `start` opens the next login and `answer` checks one answer and moves
    the login on.  The transport sends `login.datagram` under a fresh
    identifier on NEXT, resends the same datagram on AGAIN, and stops on
    DONE or FAILED.  `limit` bounds the number of logins started.
    """

    def __init__(self, plans, tail: DeliveryTail, rng: random.Random, retransmit: bool,
                 limit: float = math.inf):
        self.plans = plans
        self.tail = tail
        self.rng = rng
        self.retransmit = retransmit
        self.limit = limit
        self._next = 0
        self.requests = array("q")   # ns from send to verified answer
        self.logins = array("q")     # ns from first send to final answer
        self.failed = 0
        self.failures: list[str] = []

    def start(self, t_ns: int) -> Login | None:
        """The next login, or None when the limit is reached or no user is
        left whose state the model still knows."""
        for _ in range(len(self.plans)):
            if self._next >= self.limit:
                return None
            user, legs = self.plans[self._next % len(self.plans)]
            self._next += 1
            if not user.broken:
                break
        else:
            return None
        login = Login(user, legs, t_ns)
        self._first_leg(login)
        return login

    def _first_leg(self, login: Login) -> None:
        role, on_site, datagram = login.legs[login.leg]
        user = login.user
        login.otp_leg = False
        login.datagram = datagram
        login.repeat = self.retransmit
        if user.kind == "wrong":
            login.expect = (REJECT, NONE)
            return
        code, granted = matrix_answer(user.role, user.factors, role, on_site)
        if code is CHALLENGE and user.pending >= MAX_PENDING:
            code = REJECT
        login.expect = (code, granted)

    def answer(self, login: Login, raw: bytes | None, sent: int, received: int,
               identifier: int) -> int:
        """Check one answer and say what to send next."""
        response, problem = self._check(login, raw, identifier)
        if problem:
            return self.fail(login, problem)
        self.requests.append(received - sent)
        if login.repeat:
            login.repeat = False   # a NAS that lost the reply sends it again
            return AGAIN
        user = login.user
        code, granted = login.expect
        if code is ACCEPT:
            self._admit(user, granted, 2 if login.otp_leg else 1)
        elif code is CHALLENGE:
            if user.kind == "abandon":
                user.pending += 1
            else:
                otp = self.tail.take(user.channel)
                if otp is None:
                    return self.fail(login, f"no OTP delivered to {user.channel}")
                role, on_site, _ = login.legs[login.leg]
                login.datagram = encode_request(
                    user.name, otp.encode(), self.rng.randbytes(16), role,
                    nas_ip(on_site, user.index), response.first(wire.STATE))
                login.expect = (ACCEPT, max(user.role, role))
                login.otp_leg = True
                login.repeat = self.retransmit
                return NEXT
        login.leg += 1
        if login.leg < len(login.legs):
            self._first_leg(login)
            return NEXT
        login.datagram = None
        self.logins.append(received - login.started)
        return DONE

    @staticmethod
    def _admit(user: User, granted: int, factors: int) -> None:
        user.role = max(user.role, granted)
        user.factors = max(user.factors, factors)

    def _check(self, login: Login, raw: bytes | None,
               identifier: int) -> tuple[Packet | None, str | None]:
        """The decoded answer, or what is wrong with it."""
        if raw is None:
            return None, "no answer"
        try:
            response = wire.decode_packet(raw)
        except wire.WireError as exc:
            return None, f"undecodable answer: {exc}"
        if response.identifier != identifier:
            return None, f"answer id {response.identifier}, sent {identifier}"
        ra = login.datagram[4:20]
        if not wire.verify_response_authenticator(response, ra, SECRET):
            return None, "response authenticator does not verify"
        code, granted = login.expect
        if response.code is not code:
            return None, f"{login.user.name}: got {response.code.name}, expected {code.name}"
        if code is ACCEPT:
            reply = response.first(wire.REPLY_MESSAGE)
            if reply != f"granted: {ROLE_NAME[granted]}".encode():
                return None, f"{login.user.name}: reply {reply!r}, expected {ROLE_NAME[granted]}"
        if code is CHALLENGE and response.first(wire.STATE) is None:
            return None, "challenge without State"
        return response, None

    def fail(self, login: Login, problem: str) -> int:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(problem)
        login.user.broken = True
        login.datagram = None
        return FAILED


WEEK = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")


def context(day_start: str, day_end: str, offset: str = "+00:00", days=WEEK) -> dict:
    """The config's context section; 127/8 (the NAS sockets) and 10/8 are on site."""
    return {"working_days": list(days), "day_start": day_start, "day_end": day_end,
            "timezone": offset, "trusted_networks": ["127.0.0.0/8", "10.0.0.0/8"]}


def write_config(path: Path, users_path: str, delivery_path: str, context: dict) -> None:
    config = {
        "bind_address": "127.0.0.1",
        "port": 0,
        "clients": [{"address": "127.0.0.0/8", "secret_hex": SECRET.hex()}],
        "context": context,
        "otp": {"ttl_seconds": 120, "max_attempts": 3, "digits": 6},
        "session": {"ttl_seconds": 8 * 3600},
        "user_store_path": users_path,
        "delivery_log_path": delivery_path,
        "dedup_window_seconds": 30,
    }
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def open_server(config_path: Path, events):
    """An in-process Server built the way `ctxradius serve` builds it."""
    from ctxradius.server import EventLog, Server, load_server_config

    return Server(load_server_config(config_path), EventLog(events))
