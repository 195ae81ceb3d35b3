from __future__ import annotations

import sys
import threading
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address

import pytest

from ctxradius.auth import (
    AuthPolicy,
    Authenticator,
    DeliveryLog,
    Outcome,
    RejectReason,
    Role,
    UserRecord,
    UserStore,
    latest_otp,
    verify_first_factor,
)
from ctxradius.context import ContextSnapshot
from ctxradius.policy import RequestedAction

NOW = datetime(2026, 8, 4, 10, 0, tzinfo=timezone.utc)
ADDR = IPv4Address("10.0.0.5")

PLAUSIBLE = ContextSnapshot(NOW, ADDR, True, True)
OFF_SITE = ContextSnapshot(NOW, IPv4Address("203.0.113.7"), True, False)
ROOT, DEFAULT = RequestedAction.ROOT_ACCESS, RequestedAction.DEFAULT_ACCESS


@pytest.fixture
def users():
    return UserStore([
        UserRecord.create("alice", "wonderland", "sms:alice"),
        UserRecord.create("bob", "builder", "sms:bob"),
    ])


@pytest.fixture
def log(tmp_path):
    return tmp_path / "otp.log"


@pytest.fixture
def engine(users, log):
    return Authenticator(users, DeliveryLog(log))


def challenge_alice(engine, log):
    """Challenge a plausible root request by alice; the state token and the
    OTP delivered for it."""
    decision = engine.authenticate("alice", b"wonderland", ROOT, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.CHALLENGE
    return decision.state_token, latest_otp(log, "sms:alice")


def wrong(otp):
    return "000000" if otp != "000000" else "111111"


# ---------------------------------------------------------------------------
# first factor and user store
# ---------------------------------------------------------------------------

def test_first_factor_correct(users):
    assert verify_first_factor("alice", b"wonderland", users)


def test_first_factor_wrong_password(users):
    assert not verify_first_factor("alice", b"through the looking glass", users)


def test_first_factor_unknown_user(users):
    assert not verify_first_factor("mallory", b"anything", users)


def test_user_store_save_load_round_trip(tmp_path):
    records = [UserRecord.create("alice", "wonderland", "sms:alice")]
    path = tmp_path / "users.json"
    UserStore.save(path, records)
    loaded = UserStore.load(path)
    assert verify_first_factor("alice", b"wonderland", loaded)
    assert loaded.get("alice").otp_channel == "sms:alice"


def test_short_salt_rejected():
    with pytest.raises(ValueError):
        UserRecord("x", b"short", b"digest" * 6, "sms:x")


# ---------------------------------------------------------------------------
# OTP challenges
# ---------------------------------------------------------------------------

def test_challenge_expiry_arithmetic(engine, log):
    """A challenge lives otp_ttl_seconds from its issue, half-open."""
    first_token, first_otp = challenge_alice(engine, log)
    last_token, last_otp = challenge_alice(engine, log)
    assert len(first_otp) == 6 and first_otp.isdigit()
    inside, expiry = NOW + timedelta(seconds=119), NOW + timedelta(seconds=120)
    assert engine.complete_challenge(
        first_token, first_otp, "alice", inside).granted_role is Role.ROOT
    assert engine.complete_challenge(
        last_token, last_otp, "alice", expiry).reason is RejectReason.UNKNOWN_CHALLENGE


def test_challenges_are_fresh(users, log):
    engine = Authenticator(users, DeliveryLog(log), AuthPolicy(max_pending_per_user=200))
    tokens, otps = set(), []
    for _ in range(100):
        token, otp = challenge_alice(engine, log)
        tokens.add(token)
        otps.append(otp)
    assert len(tokens) == 100
    assert len(set(otps)) > 1


def test_delivery_log_one_line_per_issue(engine, log):
    token, _ = challenge_alice(engine, log)
    lines = log.read_text().splitlines()
    assert len(lines) == 1
    instant, channel, otp = lines[0].split("\t")
    assert instant == NOW.isoformat()
    assert channel == "sms:alice"
    assert latest_otp(log, "sms:alice") == otp
    assert engine.complete_challenge(token, otp, "alice", NOW).outcome is Outcome.ACCEPT


def test_flood_limit(engine, log):
    for _ in range(3):
        challenge_alice(engine, log)
    decision = engine.authenticate("alice", b"wonderland", ROOT, PLAUSIBLE, NOW)
    assert decision.reason is RejectReason.CHALLENGE_FLOOD
    assert engine.pending_challenges("alice") == 3
    # an unrelated user is unaffected
    decision = engine.authenticate("bob", b"builder", ROOT, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.CHALLENGE


def test_verify_otp_single_use(engine, log):
    token, otp = challenge_alice(engine, log)
    assert engine.complete_challenge(token, otp, "alice", NOW).outcome is Outcome.ACCEPT
    assert engine.complete_challenge(
        token, otp, "alice", NOW).reason is RejectReason.UNKNOWN_CHALLENGE


def test_verify_otp_attempt_exhaustion(engine, log):
    token, otp = challenge_alice(engine, log)
    for _ in range(3):
        assert engine.complete_challenge(
            token, wrong(otp), "alice", NOW).reason is RejectReason.BAD_OTP
    assert engine.complete_challenge(
        token, otp, "alice", NOW).reason is RejectReason.UNKNOWN_CHALLENGE
    assert engine.session_for("alice", NOW) is None


def test_verify_otp_expiry_half_open(engine, log):
    token, otp = challenge_alice(engine, log)
    expires_at = NOW + timedelta(seconds=120)
    assert engine.complete_challenge(
        token, otp, "alice", expires_at).reason is RejectReason.UNKNOWN_CHALLENGE
    assert engine.pending_challenges("alice") == 0


def test_verify_otp_single_success_under_contention(engine, log):
    token, otp = challenge_alice(engine, log)
    results = []
    barrier = threading.Barrier(8)

    def attempt():
        barrier.wait(timeout=5)
        results.append(engine.complete_challenge(token, otp, "alice", NOW))

    threads = [threading.Thread(target=attempt) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [d.outcome for d in results].count(Outcome.ACCEPT) == 1
    assert {d.reason for d in results if d.outcome is Outcome.REJECT} == {
        RejectReason.UNKNOWN_CHALLENGE}


def test_other_users_leg_leaves_the_challenge_untouched(engine, log):
    token, otp = challenge_alice(engine, log)
    for guess in (wrong(otp), wrong(otp), wrong(otp), otp):
        assert engine.complete_challenge(
            token, guess, "bob", NOW).reason is RejectReason.UNKNOWN_CHALLENGE
    assert engine.session_for("bob", NOW) is None
    assert engine.complete_challenge(token, otp, "alice", NOW).granted_role is Role.ROOT


class CountingLock:
    """A threading.Lock that counts how often it is taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


LOCK_LEGS = [
    # (case, root challenges issued first, the leg, expected outcome and reason)
    ("authenticate-accept", 0,
     lambda e, token, otp: e.authenticate("alice", b"wonderland", DEFAULT, PLAUSIBLE, NOW),
     (Outcome.ACCEPT, None)),
    ("authenticate-challenge", 0,
     lambda e, token, otp: e.authenticate("alice", b"wonderland", ROOT, PLAUSIBLE, NOW),
     (Outcome.CHALLENGE, None)),
    ("authenticate-flood", 3,
     lambda e, token, otp: e.authenticate("alice", b"wonderland", ROOT, PLAUSIBLE, NOW),
     (Outcome.REJECT, RejectReason.CHALLENGE_FLOOD)),
    ("complete-accept", 1,
     lambda e, token, otp: e.complete_challenge(token, otp, "alice", NOW),
     (Outcome.ACCEPT, None)),
    ("complete-wrong-otp", 1,
     lambda e, token, otp: e.complete_challenge(token, wrong(otp), "alice", NOW),
     (Outcome.REJECT, RejectReason.BAD_OTP)),
    ("complete-unknown", 0,
     lambda e, token, otp: e.complete_challenge(b"\x99" * 16, "123456", "alice", NOW),
     (Outcome.REJECT, RejectReason.UNKNOWN_CHALLENGE)),
]


@pytest.mark.parametrize("issued, leg, expected", [row[1:] for row in LOCK_LEGS],
                         ids=[row[0] for row in LOCK_LEGS])
def test_each_leg_takes_the_lock_once(engine, log, issued, leg, expected):
    """Each decision reads and updates the stores in one critical section."""
    lock = engine._lock = CountingLock()
    token = otp = None
    for _ in range(issued):
        token, otp = challenge_alice(engine, log)
    lock.acquired = 0
    decision = leg(engine, token, otp)
    assert (decision.outcome, decision.reason) == expected
    assert lock.acquired == 1


# ---------------------------------------------------------------------------
# decision flow
# ---------------------------------------------------------------------------

def test_plausible_default_accepts_on_one_factor(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.ACCEPT
    assert decision.granted_role is Role.DEFAULT
    assert engine.session_for("alice", NOW).factors_verified == 1
    assert engine.pending_challenges("alice") == 0


def test_plausible_root_demands_challenge(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.CHALLENGE
    assert decision.state_token is not None


def test_implausible_default_demands_challenge(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW)
    assert decision.outcome is Outcome.CHALLENGE


def test_concurrent_root_requests_respect_the_pending_maximum(engine):
    """The pending count is checked and the challenge stored in one
    critical section: past the maximum, requests get their own reason."""
    results = []
    barrier = threading.Barrier(8)

    def attempt():
        barrier.wait(timeout=5)
        results.append(engine.authenticate(
            "alice", b"wonderland", RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW))

    threads = [threading.Thread(target=attempt) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(d.outcome.value for d in results) == ["challenge"] * 3 + ["reject"] * 5
    assert {d.reason for d in results if d.outcome is Outcome.REJECT} == {
        RejectReason.CHALLENGE_FLOOD}
    assert engine.pending_challenges("alice") == 3


def test_bad_credentials_rejected_before_policy(engine):
    decision = engine.authenticate("alice", b"wrong",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.REJECT
    assert decision.reason is RejectReason.BAD_CREDENTIALS
    assert engine.session_for("alice", NOW) is None


def test_unknown_user_rejected_identically(engine):
    decision = engine.authenticate("mallory", b"anything",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW)
    assert decision.reason is RejectReason.BAD_CREDENTIALS


def test_missing_fields_malformed(engine):
    assert engine.authenticate("", b"x", RequestedAction.DEFAULT_ACCESS,
                               PLAUSIBLE, NOW).reason is RejectReason.MALFORMED_REQUEST
    assert engine.authenticate("alice", b"", RequestedAction.DEFAULT_ACCESS,
                               PLAUSIBLE, NOW).reason is RejectReason.MALFORMED_REQUEST


def test_session_reentry_skips_factors(engine):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    later = NOW + timedelta(hours=1)
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, later)
    assert decision.outcome is Outcome.ACCEPT
    assert engine.pending_challenges("alice") == 0


def test_live_session_never_launders_bad_credentials(engine):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    decision = engine.authenticate("alice", b"garbage-from-wrong-secret",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.REJECT
    assert decision.reason is RejectReason.BAD_CREDENTIALS


def test_expired_session_behaves_as_absent(engine):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    after_ttl = NOW + timedelta(hours=9)
    assert engine.session_for("alice", after_ttl) is None


def test_root_challenge_completion_grants_root(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.outcome is Outcome.ACCEPT
    assert outcome.granted_role is Role.ROOT
    session = engine.session_for("alice", NOW)
    assert session.granted_role is Role.ROOT
    assert session.factors_verified == 2


def test_implausible_default_completion_grants_default_two_factors(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW)
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.granted_role is Role.DEFAULT
    assert engine.session_for("alice", NOW).factors_verified == 2


def test_consumed_token_replay_is_unknown(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = latest_otp(log, "sms:alice")
    engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    replay = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert replay.reason is RejectReason.UNKNOWN_CHALLENGE


def test_never_issued_token_rejected(engine):
    decision = engine.complete_challenge(b"\x99" * 16, "123456", "alice", NOW)
    assert decision.reason is RejectReason.UNKNOWN_CHALLENGE


def test_wrong_otp_rejected_with_bad_otp(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, wrong(otp), "alice", NOW)
    assert outcome.reason is RejectReason.BAD_OTP


# ---------------------------------------------------------------------------
# escalation
# ---------------------------------------------------------------------------

def test_escalation_updates_same_session(engine, log):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    original = engine.session_for("alice", NOW)

    # a one-factor session never covers root, from any context
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, OFF_SITE, NOW)
    assert decision.outcome is Outcome.CHALLENGE
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.granted_role is Role.ROOT

    after = engine.session_for("alice", NOW)
    assert after is original
    assert after.granted_role is Role.ROOT
    assert after.factors_verified == 2


def test_escalation_with_two_factors_held_is_immediate(engine, log):
    # admitted as Default under an implausible context: two factors on record
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW)
    otp = latest_otp(log, "sms:alice")
    engine.complete_challenge(decision.state_token, otp, "alice", NOW)

    outcome = engine.authenticate("alice", b"wonderland",
                                  RequestedAction.ROOT_ACCESS, OFF_SITE, NOW)
    assert outcome.outcome is Outcome.ACCEPT
    assert outcome.granted_role is Role.ROOT
    assert engine.pending_challenges("alice") == 0


def test_escalating_expired_session_starts_a_new_one(engine, log):
    """An expired session behaves as absent: a root request is challenged
    afresh, and completing it creates a new session."""
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    original = engine.session_for("alice", NOW)
    late = NOW + timedelta(hours=9)
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, late)
    assert decision.outcome is Outcome.CHALLENGE
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", late)
    assert outcome.granted_role is Role.ROOT
    after = engine.session_for("alice", late)
    assert after is not original
    assert after.factors_verified == 2


def test_wire_style_escalation_through_authenticate(engine, log):
    """A root request from a user holding a one-factor Default session is
    challenged, then the same session is raised."""
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    original = engine.session_for("alice", NOW)
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.CHALLENGE
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.granted_role is Role.ROOT
    assert engine.session_for("alice", NOW) is original


def test_root_session_reentry_covers_default(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = latest_otp(log, "sms:alice")
    engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    # a Root session satisfies a later default-access request outright
    again = engine.authenticate("alice", b"wonderland",
                                RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW)
    assert again.outcome is Outcome.ACCEPT
    assert again.granted_role is Role.ROOT
