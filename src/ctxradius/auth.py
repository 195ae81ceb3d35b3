"""Authentication flow: first factor, OTP second factor, sessions.

`Authenticator` has two entry points: `authenticate` decides a request
that carries a password, and issues an OTP challenge when the context
calls for a second factor; `complete_challenge` decides the OTP leg that
answers it.  The user store is read-only at runtime.  The challenge and
session stores are shared mutable state; each decision reads and updates
them in one critical section under one lock, so a session cannot change
between the check that it covers a request and the accept, a state token
is consumed at most once, and attempt counters never race.

Both stores are keyed by username, so no decision reads another user's
entries.  A challenge is registered only after the first factor passes,
and a user's expired challenges are dropped when that user is next
challenged; the challenge store therefore holds at most
`max_pending_per_user` entries per user in the user store, as the session
store holds at most one.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum, IntEnum
from pathlib import Path

from .context import ContextSnapshot, evaluate_plausibility
from .policy import RequestedAction, SecurityLevel, required_security

OTP_PROMPT = "one-time password required"

_DUMMY_SALT = b"\x00" * 16


class Role(IntEnum):
    NONE = 0
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


@dataclass(frozen=True)
class AuthDecision:
    outcome: Outcome
    granted_role: Role | None = None
    state_token: bytes | None = None
    prompt: str | None = None
    reason: RejectReason | None = None

    @classmethod
    def accept(cls, role: Role) -> AuthDecision:
        return cls(Outcome.ACCEPT, granted_role=role)

    @classmethod
    def challenge(cls, state_token: bytes, prompt: str = OTP_PROMPT) -> AuthDecision:
        return cls(Outcome.CHALLENGE, state_token=state_token, prompt=prompt)

    @classmethod
    def reject(cls, reason: RejectReason) -> AuthDecision:
        return cls(Outcome.REJECT, reason=reason)


@dataclass(frozen=True)
class UserRecord:
    """Stored identity; the plaintext password is never kept."""

    username: str
    password_salt: bytes
    password_digest: bytes
    otp_channel: str

    def __post_init__(self) -> None:
        if len(self.password_salt) < 16:
            raise ValueError("password salt must be at least 16 octets")

    @classmethod
    def create(cls, username: str, password: str | bytes, otp_channel: str) -> UserRecord:
        if isinstance(password, str):
            password = password.encode()
        salt = secrets.token_bytes(16)
        return cls(username, salt, hashlib.sha256(salt + password).digest(), otp_channel)


class UserStore:
    """Read-only map of usernames to records, loaded once at startup."""

    def __init__(self, records: list[UserRecord] | None = None):
        self._records = {r.username: r for r in records or []}

    def get(self, username: str) -> UserRecord | None:
        return self._records.get(username)

    @classmethod
    def load(cls, path: str | Path) -> UserStore:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        records = [
            UserRecord(
                username=entry["username"],
                password_salt=bytes.fromhex(entry["salt"]),
                password_digest=bytes.fromhex(entry["digest"]),
                otp_channel=entry["otp_channel"],
            )
            for entry in raw
        ]
        return cls(records)

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


@dataclass(slots=True)
class OtpChallenge:
    state_token: bytes
    otp_value: str
    expires_at: datetime
    attempts_remaining: int
    pending_action: RequestedAction


@dataclass(slots=True)
class Session:
    granted_role: Role
    factors_verified: int
    expires_at: datetime


class DeliveryLog:
    """Append-only simulated out-of-band channel, one line per OTP sent."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._lock = threading.Lock()
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.touch(exist_ok=True)

    def append(self, instant: datetime, channel: str, otp: str) -> None:
        line = f"{instant.isoformat()}\t{channel}\t{otp}\n"
        with self._lock, open(self._path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()


def latest_otp(path: str | Path, channel: str) -> str | None:
    """Newest OTP delivered to a channel, per the delivery-log file format."""
    newest = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3 and parts[1] == channel:
                newest = parts[2]
    return newest


@dataclass(frozen=True)
class AuthPolicy:
    """Tunable hygiene limits; defaults are conventional OTP practice."""

    otp_ttl_seconds: int = 120
    otp_max_attempts: int = 3
    otp_digits: int = 6
    max_pending_per_user: int = 3
    session_ttl_seconds: int = 8 * 3600


class Authenticator:
    """Drives the decision flow over the user, challenge and session stores."""

    def __init__(self, users: UserStore, delivery: DeliveryLog,
                 policy: AuthPolicy | None = None):
        self.users = users
        self.delivery = delivery
        self.policy = policy or AuthPolicy()
        self._lock = threading.Lock()
        self._challenges: dict[str, dict[bytes, OtpChallenge]] = {}  # by username, token
        self._sessions: dict[str, Session] = {}  # one per username

    # -- session helpers ---------------------------------------------------

    def session_for(self, username: str, now: datetime) -> Session | None:
        """The user's unexpired session, if any; expired ones behave as absent."""
        with self._lock:
            return self._live_session(username, now)

    def _live_session(self, username: str, now: datetime) -> Session | None:
        session = self._sessions.get(username)
        if session is None:
            return None
        if now >= session.expires_at:
            del self._sessions[username]
            return None
        return session

    def _admit(self, username: str, role: Role, factors: int, now: datetime) -> Session:
        """Create or update the user's session after a successful flow."""
        session = self._live_session(username, now)
        if session is None:
            session = Session(
                granted_role=role,
                factors_verified=factors,
                expires_at=now + timedelta(seconds=self.policy.session_ttl_seconds),
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
                     snapshot: ContextSnapshot, now: datetime) -> AuthDecision:
        """One pass of the decision flow for a credentials-bearing request.

        After the first factor passes, the context and action set the
        required level.  A live session covers the request when its factors
        meet that level and it already holds the role or holds two factors;
        the role is then raised in place.  Otherwise a Low request is
        admitted on one factor and a High one is challenged; completing the
        challenge upgrades the same session.
        """
        if not username or not password:
            return AuthDecision.reject(RejectReason.MALFORMED_REQUEST)

        # The knowledge factor is present in every request, so it is checked
        # before the already-authenticated branch: a live session must never
        # launder garbage credentials (e.g. a client with the wrong secret).
        if not verify_first_factor(username, password, self.users):
            return AuthDecision.reject(RejectReason.BAD_CREDENTIALS)

        role = ROLE_FOR_ACTION[action]
        level = required_security(evaluate_plausibility(snapshot), action)
        with self._lock:
            session = self._live_session(username, now)
            if (session is not None
                    and session.factors_verified >= level.required_factors
                    and (session.granted_role >= role or session.factors_verified >= 2)):
                session.granted_role = max(session.granted_role, role)
                return AuthDecision.accept(session.granted_role)
            if level is SecurityLevel.LOW:
                self._admit(username, role, 1, now)
                return AuthDecision.accept(role)
            pending = self._challenges[username] = {
                t: c for t, c in self._challenges.get(username, {}).items()
                if now < c.expires_at}
            if len(pending) >= self.policy.max_pending_per_user:
                return AuthDecision.reject(RejectReason.CHALLENGE_FLOOD)
            challenge = OtpChallenge(
                state_token=secrets.token_bytes(16),
                otp_value=self._random_otp(),
                expires_at=now + timedelta(seconds=self.policy.otp_ttl_seconds),
                attempts_remaining=self.policy.otp_max_attempts,
                pending_action=action,
            )
            pending[challenge.state_token] = challenge
        # outside the lock: file IO; the log is flushed before we return
        self.delivery.append(now, self.users.get(username).otp_channel, challenge.otp_value)
        return AuthDecision.challenge(challenge.state_token)

    def complete_challenge(self, state_token: bytes, otp: str, username: str,
                           now: datetime) -> AuthDecision:
        """Second leg of a challenged exchange: verify the OTP, then admit.

        A token is looked up only among the named user's challenges, so a
        token that is unknown, expired or issued to another user is unknown
        to this leg, and another user's leg leaves the challenge and its
        attempts as they were.  A wrong OTP spends one attempt; the last one
        spent ends the challenge.  A right OTP consumes the token.
        """
        with self._lock:
            pending = self._challenges.get(username, {})
            challenge = pending.get(state_token)
            if challenge is None or now >= challenge.expires_at:
                pending.pop(state_token, None)
                return AuthDecision.reject(RejectReason.UNKNOWN_CHALLENGE)
            if not hmac.compare_digest(otp.encode(), challenge.otp_value.encode()):
                challenge.attempts_remaining -= 1
                if challenge.attempts_remaining <= 0:
                    del pending[state_token]
                return AuthDecision.reject(RejectReason.BAD_OTP)
            del pending[state_token]  # single-use
            session = self._admit(username, ROLE_FOR_ACTION[challenge.pending_action], 2, now)
            return AuthDecision.accept(session.granted_role)

    # -- observability for tests ---------------------------------------------

    def pending_challenges(self, username: str) -> int:
        with self._lock:
            return len(self._challenges.get(username, {}))
