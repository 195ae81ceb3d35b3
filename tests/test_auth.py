from __future__ import annotations

import sys
import threading
from datetime import datetime, timedelta, timezone
from ipaddress import IPv4Address

import pytest

from ctxradius.auth import (
    AuthPolicy,
    Authenticator,
    ChallengeFloodLimit,
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


@pytest.fixture
def users():
    return UserStore([
        UserRecord.create("alice", "wonderland", "sms:alice"),
        UserRecord.create("bob", "builder", "sms:bob"),
    ])


@pytest.fixture
def engine(users, tmp_path):
    return Authenticator(users, DeliveryLog(tmp_path / "otp.log"))


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

def test_challenge_expiry_arithmetic(engine):
    challenge = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    assert challenge.expires_at == NOW + timedelta(seconds=120)
    assert challenge.attempts_remaining == 3
    assert len(challenge.otp_value) == 6 and challenge.otp_value.isdigit()


def test_challenges_are_fresh(users, tmp_path):
    engine = Authenticator(users, DeliveryLog(tmp_path / "otp.log"),
                           AuthPolicy(max_pending_per_user=200))
    tokens, otps = set(), []
    for _ in range(100):
        ch = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
        tokens.add(ch.state_token)
        otps.append(ch.otp_value)
    assert len(tokens) == 100
    assert len(set(otps)) > 1


def test_delivery_log_one_line_per_issue(engine, tmp_path):
    ch = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    lines = (tmp_path / "otp.log").read_text().splitlines()
    assert len(lines) == 1
    instant, channel, otp = lines[0].split("\t")
    assert instant == NOW.isoformat()
    assert channel == "sms:alice"
    assert otp == ch.otp_value
    assert latest_otp(tmp_path / "otp.log", "sms:alice") == ch.otp_value


def test_flood_limit(engine):
    for _ in range(3):
        engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    with pytest.raises(ChallengeFloodLimit):
        engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    # an unrelated user is unaffected
    engine.issue_otp_challenge("bob", RequestedAction.ROOT_ACCESS, NOW)


def test_verify_otp_single_use(engine):
    ch = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    assert engine.verify_otp(ch.state_token, ch.otp_value, NOW)
    assert not engine.verify_otp(ch.state_token, ch.otp_value, NOW)


def test_verify_otp_attempt_exhaustion(engine):
    ch = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    wrong = "000000" if ch.otp_value != "000000" else "111111"
    for _ in range(3):
        assert not engine.verify_otp(ch.state_token, wrong, NOW)
    assert not engine.verify_otp(ch.state_token, ch.otp_value, NOW)


def test_verify_otp_expiry_half_open(engine):
    ch = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    assert not engine.verify_otp(ch.state_token, ch.otp_value, ch.expires_at)


def test_verify_otp_single_success_under_contention(engine):
    ch = engine.issue_otp_challenge("alice", RequestedAction.ROOT_ACCESS, NOW)
    results = []
    barrier = threading.Barrier(8)

    def attempt():
        barrier.wait()
        results.append(engine.verify_otp(ch.state_token, ch.otp_value, NOW))

    threads = [threading.Thread(target=attempt) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count(True) == 1


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


def test_root_challenge_completion_grants_root(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = engine.delivery.latest_for("sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, NOW)
    assert outcome.outcome is Outcome.ACCEPT
    assert outcome.granted_role is Role.ROOT
    session = engine.session_for("alice", NOW)
    assert session.granted_role is Role.ROOT
    assert session.factors_verified == 2


def test_implausible_default_completion_grants_default_two_factors(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW)
    otp = engine.delivery.latest_for("sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, NOW)
    assert outcome.granted_role is Role.DEFAULT
    assert engine.session_for("alice", NOW).factors_verified == 2


def test_consumed_token_replay_is_unknown(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = engine.delivery.latest_for("sms:alice")
    engine.complete_challenge(decision.state_token, otp, NOW)
    replay = engine.complete_challenge(decision.state_token, otp, NOW)
    assert replay.reason is RejectReason.UNKNOWN_CHALLENGE


def test_never_issued_token_rejected(engine):
    decision = engine.complete_challenge(b"\x99" * 16, "123456", NOW)
    assert decision.reason is RejectReason.UNKNOWN_CHALLENGE


def test_wrong_otp_rejected_with_bad_otp(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = engine.delivery.latest_for("sms:alice")
    wrong = "000000" if otp != "000000" else "111111"
    outcome = engine.complete_challenge(decision.state_token, wrong, NOW)
    assert outcome.reason is RejectReason.BAD_OTP


# ---------------------------------------------------------------------------
# escalation
# ---------------------------------------------------------------------------

def test_escalation_updates_same_session(engine):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    original_id = engine.session_for("alice", NOW).session_id

    # a one-factor session never covers root, from any context
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, OFF_SITE, NOW)
    assert decision.outcome is Outcome.CHALLENGE
    otp = engine.delivery.latest_for("sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, NOW)
    assert outcome.granted_role is Role.ROOT

    after = engine.session_for("alice", NOW)
    assert after.session_id == original_id
    assert after.granted_role is Role.ROOT
    assert after.factors_verified == 2


def test_escalation_with_two_factors_held_is_immediate(engine):
    # admitted as Default under an implausible context: two factors on record
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW)
    otp = engine.delivery.latest_for("sms:alice")
    engine.complete_challenge(decision.state_token, otp, NOW)

    outcome = engine.authenticate("alice", b"wonderland",
                                  RequestedAction.ROOT_ACCESS, OFF_SITE, NOW)
    assert outcome.outcome is Outcome.ACCEPT
    assert outcome.granted_role is Role.ROOT
    assert engine.pending_challenges("alice") == 0


def test_escalating_expired_session_starts_a_new_one(engine):
    """An expired session behaves as absent: a root request is challenged
    afresh, and completing it creates a new session."""
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    original_id = engine.session_for("alice", NOW).session_id
    late = NOW + timedelta(hours=9)
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, late)
    assert decision.outcome is Outcome.CHALLENGE
    otp = engine.delivery.latest_for("sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, late)
    assert outcome.granted_role is Role.ROOT
    after = engine.session_for("alice", late)
    assert after.session_id != original_id
    assert after.factors_verified == 2


def test_wire_style_escalation_through_authenticate(engine):
    """A root request from a user holding a one-factor Default session is
    challenged, then the same session is raised."""
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW)
    original_id = engine.session_for("alice", NOW).session_id
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    assert decision.outcome is Outcome.CHALLENGE
    otp = engine.delivery.latest_for("sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, NOW)
    assert outcome.granted_role is Role.ROOT
    assert engine.session_for("alice", NOW).session_id == original_id


def test_root_session_reentry_covers_default(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW)
    otp = engine.delivery.latest_for("sms:alice")
    engine.complete_challenge(decision.state_token, otp, NOW)
    # a Root session satisfies a later default-access request outright
    again = engine.authenticate("alice", b"wonderland",
                                RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW)
    assert again.outcome is Outcome.ACCEPT
    assert again.granted_role is Role.ROOT
