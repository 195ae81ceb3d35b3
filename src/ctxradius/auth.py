"""Authentication flow: first factor, OTP second factor, sessions; and the
line log that the OTP delivery log and the server's event log write.

`Authenticator` has two entry points: `authenticate` decides a request
that carries a password, and issues an OTP challenge when the context
calls for a second factor; `complete_challenge` decides the OTP leg that
answers it.  The caller judges the request's context and passes the
verdict in.  The user store is read-only at runtime.  The challenge and
session stores are shared mutable state and hold no lock: the caller runs
one decision at a time, as `Server` does under its lock, so a session
cannot change between the check that it covers a request and the accept,
a state token is consumed at most once, and attempt counters never race.
Instants and expiries are integer microseconds since the epoch.

Both stores are keyed by username, so no decision reads another user's
entries.  A challenge is registered only after the first factor passes
and its delivery line is written, a user's expired challenges are dropped
when that user is next challenged, and a user's table is dropped with its
last challenge; the challenge store therefore holds no empty table, and at
most `MAX_PENDING_PER_USER` entries per user in the user store, as the
session store holds at most one.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import math
import secrets
import sys
import threading
from enum import Enum, IntEnum
from pathlib import Path
from typing import NamedTuple, TextIO

from .context import ContextVerdict, require_duration, require_number
from .policy import RequestedAction, SecurityLevel, required_security
from .wire import MAX_ATTR_VALUE_LEN, MAX_PASSWORD_LEN

# Live challenges one user may hold; a High request past it is rejected.
MAX_PENDING_PER_USER = 3

_DUMMY_SALT = b"\x00" * 16
_ENTRY_KEYS = frozenset({"username", "salt", "digest", "otp_channel"})  # of a user store entry


class Role(IntEnum):
    DEFAULT = 1
    ROOT = 2


ROLE_FOR_ACTION = {
    RequestedAction.DEFAULT_ACCESS: Role.DEFAULT,
    RequestedAction.ROOT_ACCESS: Role.ROOT,
}


class Outcome(Enum):
    ACCEPT = "accept"
    CHALLENGE = "challenge"
    REJECT = "reject"


class RejectReason(Enum):
    BAD_CREDENTIALS = "BadCredentials"
    MALFORMED_REQUEST = "MalformedRequest"
    BAD_OTP = "BadOtp"
    UNKNOWN_CHALLENGE = "UnknownChallenge"
    CHALLENGE_FLOOD = "ChallengeFloodLimit"


class AuthDecision(NamedTuple):
    outcome: Outcome
    granted_role: Role | None = None
    state_token: bytes | None = None
    reason: RejectReason | None = None

    @classmethod
    def accept(cls, role: Role) -> AuthDecision:
        return cls(Outcome.ACCEPT, granted_role=role)

    @classmethod
    def challenge(cls, state_token: bytes) -> AuthDecision:
        return cls(Outcome.CHALLENGE, state_token=state_token)

    @classmethod
    def reject(cls, reason: RejectReason) -> AuthDecision:
        return cls(Outcome.REJECT, reason=reason)


class UserRecord(NamedTuple):
    """Stored identity; the plaintext password is never kept."""

    username: str
    password_salt: bytes
    password_digest: bytes
    otp_channel: str

    @classmethod
    def create(cls, username: str, password: str | bytes, otp_channel: str) -> UserRecord:
        if isinstance(password, str):
            password = password.encode()
        salt = secrets.token_bytes(16)
        return cls(username, salt, hashlib.sha256(salt + password).digest(), otp_channel)


def _entry_record(entry: dict) -> UserRecord:
    """The record a user store entry holds; TypeError or ValueError says why
    the entry holds none."""
    if entry.keys() != _ENTRY_KEYS:
        raise ValueError(f"keys must be {sorted(_ENTRY_KEYS)}, got {sorted(entry)}")
    name, channel = entry["username"], entry["otp_channel"]
    if not isinstance(name, str) or not isinstance(channel, str):
        raise ValueError("username and otp_channel must be strings")
    # a User-Name attribute carries 1 to 253 octets
    if not 0 < len(name.encode()) <= MAX_ATTR_VALUE_LEN:
        raise ValueError(f"username must be 1 to {MAX_ATTR_VALUE_LEN} UTF-8 octets")
    if not channel or not channel.isprintable():
        raise ValueError(f"otp_channel must be printable and non-empty: {channel!r}")
    salt, digest = bytes.fromhex(entry["salt"]), bytes.fromhex(entry["digest"])
    if len(salt) < 16:
        raise ValueError("salt must be at least 16 octets")
    if len(digest) != 32:
        raise ValueError("digest must be exactly 32 octets")
    return tuple.__new__(UserRecord, (name, salt, digest, channel))


class UserStore:
    """Read-only map of usernames to records, loaded once at startup."""

    def __init__(self, records: list[UserRecord] | None = None):
        self._records = {r.username: r for r in records or []}

    def get(self, username: str) -> UserRecord | None:
        return self._records.get(username)

    @classmethod
    def load(cls, path: str | Path) -> UserStore:
        """Read a store that `save` wrote.

        The file is a JSON list of objects with exactly the keys username,
        salt, digest and otp_channel; the username and channel are strings,
        the username 1 to 253 octets in UTF-8, the channel printable and
        non-empty, the salt hex of at least 16 octets, the digest hex of
        exactly 32, and no username repeats.  Any
        fault is a ValueError naming the entry, or the store if too deep.

        Each object becomes its record as the decoder builds it, so a load
        never holds the file's objects beside the records.  The first
        object that is no valid entry stops the decode; the file is then
        read again as plain JSON, so that the fault is named in entry order.
        """
        store = cls()
        records = store._records
        with open(path, encoding="utf-8") as fh:
            try:
                decoded = json.load(fh, object_hook=_entry_record)
            except (RecursionError, TypeError, ValueError):
                decoded = None
        if type(decoded) is list:
            for record in decoded:
                if type(record) is not UserRecord or record.username in records:
                    break
                records[record.username] = record
            else:
                return store
            records.clear()
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply") from None
        if not isinstance(raw, list):
            raise ValueError(f"must be a JSON list of objects, got {type(raw).__name__}")
        for index, entry in enumerate(raw):
            try:
                if not isinstance(entry, dict):
                    raise ValueError(f"must be an object, got {type(entry).__name__}")
                record = _entry_record(entry)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"entry {index}: {exc}") from None
            if record.username in records:
                raise ValueError(f"entry {index}: duplicate username {record.username!r}")
            records[record.username] = record
        return store

    @staticmethod
    def save(path: str | Path, records: list[UserRecord]) -> None:
        rows = [
            {
                "username": r.username,
                "salt": r.password_salt.hex(),
                "digest": r.password_digest.hex(),
                "otp_channel": r.otp_channel,
            }
            for r in records
        ]
        Path(path).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")


def verify_first_factor(username: str, password: bytes, store: UserStore) -> bool:
    """Check the knowledge factor against the salted digest.

    Unknown users and wrong passwords are indistinguishable in the result,
    and a digest is computed either way.
    """
    record = store.get(username)
    if record is None:
        hashlib.sha256(_DUMMY_SALT + password).digest()
        return False
    candidate = hashlib.sha256(record.password_salt + password).digest()
    return hmac.compare_digest(candidate, record.password_digest)


class OtpChallenge:
    __slots__ = ("otp_value", "expires_at", "attempts_remaining", "role")

    def __init__(self, otp_value: str, expires_at: int, attempts_remaining: int,
                 role: Role) -> None:
        self.otp_value = otp_value
        self.expires_at = expires_at
        self.attempts_remaining = attempts_remaining
        self.role = role


class Session:
    __slots__ = ("granted_role", "factors_verified", "expires_at")

    def __init__(self, granted_role: Role, factors_verified: int, expires_at: int) -> None:
        self.granted_role = granted_role
        self.factors_verified = factors_verified
        self.expires_at = expires_at


# Escapes for log fields: backslash, tab, CR and LF by name, the other C0
# controls, DEL and the C1 controls as \xNN, and the two separators that
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
    """Append-only log of tab-separated lines, one line per `log` call.

    Each field is escaped, so one call writes exactly one line of as many
    fields as it is given, whatever they hold.  The server's event log
    writes instant, event, username-or-peer and detail, and never a secret,
    password or OTP; the OTP delivery log, the simulated out-of-band
    channel, writes instant, channel and OTP.  `log` leaves the line in the
    stream's buffer, so a line-buffered stream holds it in the file when
    `log` returns; `flush` empties a block-buffered one.  The lock is a
    leaf: nothing is taken under it.
    """

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def log(self, *fields: str) -> None:
        line = "\t".join(map(_field, fields)) + "\n"
        with self._lock:
            self._stream.write(line)

    def flush(self) -> None:
        with self._lock:
            self._stream.flush()


def latest_otp(path: str | Path, channel: str) -> str | None:
    """Newest OTP delivered to a channel, read from a delivery log's file."""
    written, newest = _field(channel), None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3 and parts[1] == written:
                newest = parts[2]
    return newest


class AuthPolicy:
    """Tunable hygiene limits; defaults are conventional OTP practice."""

    __slots__ = ("otp_ttl_seconds", "otp_max_attempts", "otp_digits", "session_ttl_seconds")

    def __init__(self, otp_ttl_seconds: int = 120, otp_max_attempts: int = 3,
                 otp_digits: int = 6, session_ttl_seconds: int = 8 * 3600) -> None:
        require_duration("otp_ttl_seconds", otp_ttl_seconds)
        require_duration("session_ttl_seconds", session_ttl_seconds)
        require_number("otp_max_attempts", otp_max_attempts, (int,), 1, math.inf,
                       "a positive int")
        # the OTP travels in User-Password
        require_number("otp_digits", otp_digits, (int,), 1, MAX_PASSWORD_LEN + 1,
                       f"an int from 1 to {MAX_PASSWORD_LEN}")
        self.otp_ttl_seconds = otp_ttl_seconds
        self.otp_max_attempts = otp_max_attempts
        self.otp_digits = otp_digits
        self.session_ttl_seconds = session_ttl_seconds

    def __eq__(self, other: object) -> bool:
        if type(other) is not AuthPolicy:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class Authenticator:
    """Drives the decision flow over the user, challenge and session stores."""

    def __init__(self, users: UserStore, delivery: EventLog,
                 policy: AuthPolicy | None = None):
        self.users = users
        self.delivery = delivery
        self.policy = policy or AuthPolicy()
        self._challenges: dict[str, dict[bytes, OtpChallenge]] = {}  # by username, token
        self._sessions: dict[str, Session] = {}  # one per username

    # -- session helpers ---------------------------------------------------

    def session_for(self, username: str, now: int) -> Session | None:
        """The user's unexpired session, if any; expired ones behave as absent."""
        session = self._sessions.get(username)
        if session is None:
            return None
        if now >= session.expires_at:
            del self._sessions[username]
            return None
        return session

    def _admit(self, username: str, role: Role, factors: int, now: int) -> Session:
        """Create or update the user's session after a successful flow."""
        session = self.session_for(username, now)
        if session is None:
            session = Session(
                granted_role=role,
                factors_verified=factors,
                expires_at=now + round(self.policy.session_ttl_seconds * 1_000_000),
            )
            self._sessions[username] = session
        else:
            session.granted_role = max(session.granted_role, role)
            session.factors_verified = max(session.factors_verified, factors)
        return session

    # -- OTP challenges ------------------------------------------------------

    def _random_otp(self) -> str:
        digits = self.policy.otp_digits
        return f"{secrets.randbelow(10 ** digits):0{digits}d}"

    # -- decision flow -------------------------------------------------------

    def authenticate(self, username: str, password: bytes, action: RequestedAction,
                     verdict: ContextVerdict, now: int, when: str) -> AuthDecision:
        """One pass of the decision flow for a credentials-bearing request.

        After the first factor passes, the context verdict and action set the
        required level.  A live session covers the request when its factors
        meet that level and it already holds the role or holds two factors;
        the role is then raised in place.  Otherwise a Low request is
        admitted on one factor and a High one is challenged; completing the
        challenge upgrades the same session.  The delivery line prints `when`,
        and is written before the challenge is stored.
        """
        if not username or not password:
            return AuthDecision.reject(RejectReason.MALFORMED_REQUEST)

        # The knowledge factor is present in every request, so it is checked
        # before the already-authenticated branch: a live session must never
        # launder garbage credentials (e.g. a client with the wrong secret).
        if not verify_first_factor(username, password, self.users):
            return AuthDecision.reject(RejectReason.BAD_CREDENTIALS)

        role = ROLE_FOR_ACTION[action]
        level = required_security(verdict, action)
        session = self.session_for(username, now)
        if (session is not None
                and session.factors_verified >= level.required_factors
                and (session.granted_role >= role or session.factors_verified >= 2)):
            session.granted_role = max(session.granted_role, role)
            return AuthDecision.accept(session.granted_role)
        if level is SecurityLevel.LOW:
            self._admit(username, role, 1, now)
            return AuthDecision.accept(role)
        pending = {t: c for t, c in self._challenges.get(username, {}).items()
                   if now < c.expires_at}
        if len(pending) >= MAX_PENDING_PER_USER:
            return AuthDecision.reject(RejectReason.CHALLENGE_FLOOD)
        otp = self._random_otp()
        # delivered before it is stored: a failed write leaves no challenge
        self.delivery.log(when, self.users.get(username).otp_channel, otp)
        token = secrets.token_bytes(16)
        pending[token] = OtpChallenge(
            otp_value=otp,
            expires_at=now + round(self.policy.otp_ttl_seconds * 1_000_000),
            attempts_remaining=self.policy.otp_max_attempts,
            role=role,
        )
        self._challenges[username] = pending
        return AuthDecision.challenge(token)

    def complete_challenge(self, state_token: bytes, otp: str, username: str,
                           now: int) -> AuthDecision:
        """Second leg of a challenged exchange: verify the OTP, then admit.

        A token is looked up only among the named user's challenges, so a
        token that is unknown, expired or issued to another user is unknown
        to this leg, and another user's leg leaves the challenge and its
        attempts as they were.  Every leg takes the challenge out, and only a
        wrong OTP with attempts left puts it back, so a token is single-use.
        A table left empty is dropped with it.
        """
        pending = self._challenges.get(username, {})
        challenge = pending.pop(state_token, None)
        if challenge is None or now >= challenge.expires_at:
            decision = AuthDecision.reject(RejectReason.UNKNOWN_CHALLENGE)
        elif not hmac.compare_digest(otp.encode(), challenge.otp_value.encode()):
            challenge.attempts_remaining -= 1
            if challenge.attempts_remaining > 0:
                pending[state_token] = challenge
            decision = AuthDecision.reject(RejectReason.BAD_OTP)
        else:
            session = self._admit(username, challenge.role, 2, now)
            decision = AuthDecision.accept(session.granted_role)
        if not pending:
            self._challenges.pop(username, None)
        return decision
