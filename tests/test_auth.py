from __future__ import annotations

import errno
import hashlib
import json
import sys
import threading
import tracemalloc
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxradius import auth as auth_module
from ctxradius import wire
from ctxradius.auth import (
    MAX_PENDING_PER_USER,
    Authenticator,
    EventLog,
    Outcome,
    RejectReason,
    Role,
    UserRecord,
    UserStore,
    latest_otp,
    verify_first_factor,
)
from ctxradius.context import ContextVerdict, ImplausibilityReason, stamp
from ctxradius.policy import RequestedAction
from store_oracle import expected_load
from test_server import (
    ACCEPT,
    ALICE,
    CHALLENGE,
    LEGS,
    PEER,
    REJECT,
    challenged,
    demo_server,
    root_leg,
)

WHEN = "2026-08-04T10:00:00+00:00"
NOW = stamp(datetime.fromisoformat(WHEN))
SECOND = 1_000_000

PLAUSIBLE = ContextVerdict(plausible=True, reasons=frozenset())
OFF_SITE = ContextVerdict(plausible=False,
                          reasons=frozenset({ImplausibilityReason.OFF_SITE}))
ROOT = RequestedAction.ROOT_ACCESS


@pytest.fixture
def users():
    return UserStore([
        UserRecord.create("alice", "wonderland", "sms:alice"),
        UserRecord.create("bob", "builder", "sms:bob"),
    ])


@pytest.fixture
def log(tmp_path):
    return tmp_path / "otp.log"


def delivery_log(path):
    """The delivery log's stream as `Server` opens it."""
    return open(path, "a", buffering=1, encoding="utf-8")


@pytest.fixture
def engine(users, log):
    with delivery_log(log) as stream:
        yield Authenticator(users, EventLog(stream))


def challenge_alice(engine, log):
    """Challenge a plausible root request by alice; the state token and the
    OTP delivered for it."""
    decision = engine.authenticate("alice", b"wonderland", ROOT, PLAUSIBLE, NOW, WHEN)
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


def test_username_of_253_octets_loads(tmp_path):
    """The longest username a User-Name attribute can carry is in bounds."""
    name = "\u00e9" * 126 + "x"
    path = tmp_path / "users.json"
    UserStore.save(path, [UserRecord.create(name, "pw", "sms:x")])
    assert verify_first_factor(name, b"pw", UserStore.load(path))


def test_short_salt_rejected(tmp_path):
    """A short salt is rejected where the store enters the program, at load."""
    path = tmp_path / "users.json"
    UserStore.save(path, [UserRecord("x", b"short", b"d" * 32, "sms:x")])
    with pytest.raises(ValueError, match="entry 0: salt must be at least 16 octets"):
        UserStore.load(path)


def test_user_store_load_peaks_near_what_it_keeps(tmp_path):
    """Entries are checked as the decoder builds them, so a load never holds
    the whole file's objects beside the records: bytes traced at the peak stay
    within 1.8 times the bytes the store keeps."""
    path = tmp_path / "users.json"
    UserStore.save(path, [UserRecord.create(f"user-{i:06d}", "pw", f"sms:user-{i:06d}")
                          for i in range(2000)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        store = UserStore.load(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.get("user-001999") is not None
    assert peak - base <= 1.8 * (kept - base)


def weighted(*choices: tuple[int, st.SearchStrategy]) -> st.SearchStrategy:
    """Draw from one of the strategies, each as often as its weight says."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(
        lambda strategy: strategy)


# A small pool of names, so that draws repeat usernames.
VALID_ENTRIES = st.builds(
    lambda name, salt, channel: {"username": name, "salt": salt.hex(),
                                 "digest": hashlib.sha256(salt).hexdigest(),
                                 "otp_channel": channel},
    st.sampled_from(["alice", "bob", "carol", "dave", "eve", "\u00e9" * 126 + "x"]),
    st.binary(min_size=16, max_size=18), st.sampled_from(["sms:a", "mail:b"]))
JUNK = (st.none() | st.booleans() | st.integers() | st.text(max_size=3)
        | st.lists(st.integers(), max_size=2) | st.just({}))


@st.composite
def faulty_entries(draw) -> dict:
    """A valid entry with one fault: a value of the wrong type, an
    entry-shaped object or a list of one as a value, a missing or an extra
    key, a bad username, a salt or digest of the wrong length, or a bad
    channel."""
    entry = draw(VALID_ENTRIES)
    key = draw(st.sampled_from(sorted(entry)))
    fault = draw(st.sampled_from(["type", "nested", "nested-list", "missing", "extra",
                                  "username", "length", "channel"]))
    if fault == "type":
        entry[key] = draw(JUNK)
    elif fault == "nested":
        entry[key] = draw(VALID_ENTRIES)
    elif fault == "nested-list":
        entry[key] = [draw(VALID_ENTRIES)]
    elif fault == "missing":
        del entry[key]
    elif fault == "extra":
        entry[draw(st.sampled_from(["extra", "Username"]))] = draw(JUNK | VALID_ENTRIES)
    elif fault == "username":
        entry["username"] = draw(st.sampled_from(["", "\ud800", "\u00e9" * 127]))
    elif fault == "length":
        entry[draw(st.sampled_from(["salt", "digest"]))] = draw(st.binary(max_size=40)).hex()
    else:
        entry["otp_channel"] = draw(st.sampled_from(["", "sms:a\tb", "\n"]))
    return entry


ITEMS = weighted((8, VALID_ENTRIES), (3, faulty_entries()), (1, JUNK),
                 (1, st.lists(VALID_ENTRIES, max_size=1)),
                 (1, st.fixed_dictionaries({"username": VALID_ENTRIES})))
STORES = weighted((12, st.lists(ITEMS, max_size=6)), (1, VALID_ENTRIES), (1, faulty_entries()),
                  (1, JUNK), (1, st.dictionaries(st.sampled_from(["users", "alice"]),
                                                 st.lists(VALID_ENTRIES, max_size=2),
                                                 max_size=2)))


def test_user_store_load_agrees_with_an_independent_oracle(tmp_path):
    """`UserStore.load` keeps what `store_oracle` says a store holds, or
    names the entry or the top-level form the oracle finds first at fault.
    The draws nest entry-shaped objects as values and as whole files."""
    path = tmp_path / "users.json"

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(STORES)
    def check(store):
        text = json.dumps(store)
        path.write_text(text, encoding="utf-8")
        kind, detail = expected_load(text)
        try:
            loaded = UserStore.load(path)
        except ValueError as exc:
            if kind == "entry":
                assert str(exc).startswith(f"entry {detail}: ")
            else:
                assert kind == "top", f"a valid store failed: {exc}"
                assert str(exc) == f"must be a JSON list of objects, got {detail}"
        else:
            assert kind == "ok"
            assert sorted(loaded._records.values()) == detail

    check()


# ---------------------------------------------------------------------------
# OTP challenges
# ---------------------------------------------------------------------------

def test_challenge_expiry_arithmetic(engine, log):
    """A challenge lives otp_ttl_seconds from its issue, half-open."""
    first_token, first_otp = challenge_alice(engine, log)
    last_token, last_otp = challenge_alice(engine, log)
    assert len(first_otp) == 6 and first_otp.isdigit()
    inside, expiry = NOW + 119 * SECOND, NOW + 120 * SECOND
    assert engine.complete_challenge(
        first_token, first_otp, "alice", inside).granted_role is Role.ROOT
    assert engine.complete_challenge(
        last_token, last_otp, "alice", expiry).reason is RejectReason.UNKNOWN_CHALLENGE


def test_challenges_are_fresh(users, log, monkeypatch):
    monkeypatch.setattr(auth_module, "MAX_PENDING_PER_USER", 200)
    tokens, otps = set(), []
    with delivery_log(log) as stream:
        engine = Authenticator(users, EventLog(stream))
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
    assert instant == WHEN
    assert channel == "sms:alice"
    assert latest_otp(log, "sms:alice") == otp
    assert engine.complete_challenge(token, otp, "alice", NOW).outcome is Outcome.ACCEPT


def test_flood_limit(engine, log):
    for _ in range(3):
        challenge_alice(engine, log)
    decision = engine.authenticate("alice", b"wonderland", ROOT, PLAUSIBLE, NOW, WHEN)
    assert decision.reason is RejectReason.CHALLENGE_FLOOD
    assert engine.authenticate(
        "alice", b"wonderland", ROOT, PLAUSIBLE, NOW, WHEN).reason is RejectReason.CHALLENGE_FLOOD
    assert len(log.read_text().splitlines()) == 3  # no OTP for a flood reject
    # an unrelated user is unaffected
    decision = engine.authenticate("bob", b"builder", ROOT, PLAUSIBLE, NOW, WHEN)
    assert decision.outcome is Outcome.CHALLENGE


class FullDisk:
    """A text stream whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_delivery_leaves_no_challenge(tmp_path):
    """A challenge whose OTP line cannot be written gets no reply and is not
    stored, so it cannot count against the pending maximum."""
    server, _ = demo_server(tmp_path)
    now = server.clock()
    delivery = server.auth.delivery
    server.auth.delivery = EventLog(FullDisk())
    for identifier in range(1, MAX_PENDING_PER_USER + 1):
        with pytest.raises(OSError):
            server.handle_datagram(root_leg(identifier), PEER, now)
    assert "alice" not in server.auth._challenges
    server.auth.delivery = delivery
    response = server.handle_datagram(root_leg(MAX_PENDING_PER_USER + 1), PEER, now)
    assert wire.decode_packet(response).code is CHALLENGE
    assert len(server.auth._challenges["alice"]) == 1


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
    delivered = log.read_text()
    expires_at = NOW + 120 * SECOND
    assert engine.complete_challenge(
        token, otp, "alice", expires_at).reason is RejectReason.UNKNOWN_CHALLENGE
    assert log.read_text() == delivered


def race(attempts):
    """Run each callable on its own thread, all released at once under a
    short switch interval; their results, in completion order."""
    results = []
    barrier = threading.Barrier(len(attempts))

    def run(attempt):
        barrier.wait(timeout=5)
        results.append(attempt())

    threads = [threading.Thread(target=run, args=(attempt,)) for attempt in attempts]
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
    return results


def test_verify_otp_single_success_under_contention(tmp_path):
    """Eight right answers to one challenge, each with its own identifier:
    the Server's lock lets exactly one consume the State."""
    server, events = demo_server(tmp_path)
    otp, state = challenged(server)
    now = server.clock()
    results = race([lambda i=i: server.handle_datagram(root_leg(i, otp, state), PEER, now)
                    for i in range(2, 10)])
    codes = [wire.decode_packet(r).code for r in results]
    assert codes.count(ACCEPT) == 1 and codes.count(REJECT) == 7
    details = [line.split("\t")[3] for line in events.getvalue().splitlines()[1:]]
    assert sorted(details) == ["UnknownChallenge"] * 7 + ["granted: root"]


def test_other_users_leg_leaves_the_challenge_untouched(engine, log):
    token, otp = challenge_alice(engine, log)
    for guess in (wrong(otp), wrong(otp), wrong(otp), otp):
        assert engine.complete_challenge(
            token, guess, "bob", NOW).reason is RejectReason.UNKNOWN_CHALLENGE
    assert engine.session_for("bob", NOW) is None
    assert engine.complete_challenge(token, otp, "alice", NOW).granted_role is Role.ROOT


class CountingLock:
    """A threading.Lock that counts how often it is taken and how often any
    of the CountingLocks it watches was held then."""

    def __init__(self, *watch: CountingLock):
        self._lock = threading.Lock()
        self.watch = watch
        self.acquired = self.nested = 0
        self.held = False

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        self.nested += any(lock.held for lock in self.watch)
        self.held = True
        return self

    def __exit__(self, *exc):
        self.held = False
        self._lock.release()


@pytest.mark.parametrize("leg, peer, code, line, takes",
                         [row[1:] for row in LEGS], ids=[row[0] for row in LEGS])
def test_each_leg_takes_the_lock_once(tmp_path, leg, peer, code, line, takes):
    """A datagram's lookup, decision and store take the Server's lock once,
    a drop before the lookup takes it not at all, a challenge's delivery
    line is written under it, and its one event line is written with the
    lock released.  Both line logs' locks are leaves."""
    server, _ = demo_server(tmp_path)
    raw = leg(server)
    lock = server._lock = CountingLock()
    delivery_lock = server.auth.delivery._lock = CountingLock(lock)
    lock.watch = (delivery_lock,)
    events_lock = server.events._lock = CountingLock(lock, delivery_lock)
    response = server.handle_datagram(raw, peer, server.clock())
    assert (response and wire.decode_packet(response).code) == code
    assert (lock.acquired, lock.nested) == (takes, 0)
    issued = int(line[0] == "challenge")
    assert (delivery_lock.acquired, delivery_lock.nested) == (issued, issued)
    assert (events_lock.acquired, events_lock.nested) == (1, 0)


# ---------------------------------------------------------------------------
# decision flow
# ---------------------------------------------------------------------------

def test_plausible_default_accepts_on_one_factor(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert decision.outcome is Outcome.ACCEPT
    assert decision.granted_role is Role.DEFAULT
    assert engine.session_for("alice", NOW).factors_verified == 1
    assert log.read_text() == ""  # no OTP delivered


def test_plausible_root_demands_challenge(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert decision.outcome is Outcome.CHALLENGE
    assert decision.state_token is not None


def test_implausible_default_demands_challenge(engine):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW, WHEN)
    assert decision.outcome is Outcome.CHALLENGE


def test_concurrent_root_requests_respect_the_pending_maximum(tmp_path):
    """The pending count is checked and the challenge stored under the
    Server's lock: past the maximum, requests get their own reason."""
    server, events = demo_server(tmp_path)
    now = server.clock()
    results = race([lambda i=i: server.handle_datagram(root_leg(i), PEER, now)
                    for i in range(1, 9)])
    codes = [wire.decode_packet(r).code for r in results]
    assert codes.count(CHALLENGE) == 3 and codes.count(REJECT) == 5
    assert len(server.config.delivery_log_path.read_text().splitlines()) == 3
    lines = [line.split("\t")[1:] for line in events.getvalue().splitlines()]
    assert lines.count(["reject", ALICE, "ChallengeFloodLimit"]) == 5
    assert wire.decode_packet(server.handle_datagram(root_leg(9), PEER, now)).code is REJECT
    assert events.getvalue().splitlines()[-1].endswith("\tChallengeFloodLimit")


def test_bad_credentials_rejected_before_policy(engine):
    decision = engine.authenticate("alice", b"wrong",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert decision.outcome is Outcome.REJECT
    assert decision.reason is RejectReason.BAD_CREDENTIALS
    assert engine.session_for("alice", NOW) is None


def test_unknown_user_rejected_identically(engine):
    decision = engine.authenticate("mallory", b"anything",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert decision.reason is RejectReason.BAD_CREDENTIALS


def test_missing_fields_malformed(engine):
    assert engine.authenticate("", b"x", RequestedAction.DEFAULT_ACCESS,
                               PLAUSIBLE, NOW, WHEN).reason is RejectReason.MALFORMED_REQUEST
    assert engine.authenticate("alice", b"", RequestedAction.DEFAULT_ACCESS,
                               PLAUSIBLE, NOW, WHEN).reason is RejectReason.MALFORMED_REQUEST


def test_session_reentry_skips_factors(engine, log):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW, WHEN)
    later = NOW + 3600 * SECOND
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, later, WHEN)
    assert decision.outcome is Outcome.ACCEPT
    assert log.read_text() == ""  # no OTP delivered


def test_live_session_never_launders_bad_credentials(engine):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW, WHEN)
    decision = engine.authenticate("alice", b"garbage-from-wrong-secret",
                                   RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert decision.outcome is Outcome.REJECT
    assert decision.reason is RejectReason.BAD_CREDENTIALS


def test_expired_session_behaves_as_absent(engine):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW, WHEN)
    after_ttl = NOW + 9 * 3600 * SECOND
    assert engine.session_for("alice", after_ttl) is None


def test_root_challenge_completion_grants_root(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW, WHEN)
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.outcome is Outcome.ACCEPT
    assert outcome.granted_role is Role.ROOT
    session = engine.session_for("alice", NOW)
    assert session.granted_role is Role.ROOT
    assert session.factors_verified == 2


def test_implausible_default_completion_grants_default_two_factors(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW, WHEN)
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.granted_role is Role.DEFAULT
    assert engine.session_for("alice", NOW).factors_verified == 2


def test_consumed_token_replay_is_unknown(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW, WHEN)
    otp = latest_otp(log, "sms:alice")
    engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    replay = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert replay.reason is RejectReason.UNKNOWN_CHALLENGE


def test_never_issued_token_rejected(engine):
    decision = engine.complete_challenge(b"\x99" * 16, "123456", "alice", NOW)
    assert decision.reason is RejectReason.UNKNOWN_CHALLENGE


def test_wrong_otp_rejected_with_bad_otp(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW, WHEN)
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, wrong(otp), "alice", NOW)
    assert outcome.reason is RejectReason.BAD_OTP


# ---------------------------------------------------------------------------
# escalation
# ---------------------------------------------------------------------------

def test_escalation_updates_same_session(engine, log):
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW, WHEN)
    original = engine.session_for("alice", NOW)

    # a one-factor session never covers root, from any context
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, OFF_SITE, NOW, WHEN)
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
                                   RequestedAction.DEFAULT_ACCESS, OFF_SITE, NOW, WHEN)
    otp = latest_otp(log, "sms:alice")
    engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    delivered = log.read_text()

    outcome = engine.authenticate("alice", b"wonderland",
                                  RequestedAction.ROOT_ACCESS, OFF_SITE, NOW, WHEN)
    assert outcome.outcome is Outcome.ACCEPT
    assert outcome.granted_role is Role.ROOT
    assert log.read_text() == delivered  # no OTP delivered


def test_escalating_expired_session_starts_a_new_one(engine, log):
    """An expired session behaves as absent: a root request is challenged
    afresh, and completing it creates a new session."""
    engine.authenticate("alice", b"wonderland", RequestedAction.DEFAULT_ACCESS,
                        PLAUSIBLE, NOW, WHEN)
    original = engine.session_for("alice", NOW)
    late = NOW + 9 * 3600 * SECOND
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, late, WHEN)
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
                        PLAUSIBLE, NOW, WHEN)
    original = engine.session_for("alice", NOW)
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert decision.outcome is Outcome.CHALLENGE
    otp = latest_otp(log, "sms:alice")
    outcome = engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    assert outcome.granted_role is Role.ROOT
    assert engine.session_for("alice", NOW) is original


def test_root_session_reentry_covers_default(engine, log):
    decision = engine.authenticate("alice", b"wonderland",
                                   RequestedAction.ROOT_ACCESS, PLAUSIBLE, NOW, WHEN)
    otp = latest_otp(log, "sms:alice")
    engine.complete_challenge(decision.state_token, otp, "alice", NOW)
    # a Root session satisfies a later default-access request outright
    again = engine.authenticate("alice", b"wonderland",
                                RequestedAction.DEFAULT_ACCESS, PLAUSIBLE, NOW, WHEN)
    assert again.outcome is Outcome.ACCEPT
    assert again.granted_role is Role.ROOT
