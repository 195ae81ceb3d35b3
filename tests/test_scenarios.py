"""End-to-end scenario runs over loopback UDP, plus the CLI surface."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ctxradius
from ctxradius import cli, scenarios, wire
from ctxradius.cli import main, scenario_main
from ctxradius.scenarios import (
    DEMO_SECRET,
    SCRIPTS,
    ProtocolClient,
    run_all,
    run_scenario,
    write_demo_fixtures,
)
from ctxradius.wire import PacketCode

REQ = PacketCode.ACCESS_REQUEST
ACCEPT = PacketCode.ACCESS_ACCEPT
CHALLENGE = PacketCode.ACCESS_CHALLENGE
REJECT = PacketCode.ACCESS_REJECT


def run(live_server, script):
    return run_scenario(script, live_server.endpoint, live_server.secret,
                        live_server.delivery_log)


def test_scenario_1_two_messages(live_server):
    transcript = run(live_server, SCRIPTS["S1"])
    assert transcript.verdict, transcript.failure
    assert transcript.codes == (REQ, ACCEPT)


def test_scenario_2_four_messages_root(live_server):
    transcript = run(live_server, SCRIPTS["S2"])
    assert transcript.verdict, transcript.failure
    assert transcript.codes == (REQ, CHALLENGE, REQ, ACCEPT)


def test_scenario_3_four_messages_default(live_server):
    transcript = run(live_server, SCRIPTS["S3"])
    assert transcript.verdict, transcript.failure
    assert transcript.codes == (REQ, CHALLENGE, REQ, ACCEPT)


def test_escalation_six_messages_root(live_server):
    transcript = run(live_server, SCRIPTS["E1"])
    assert transcript.verdict, transcript.failure
    assert transcript.codes == (REQ, ACCEPT, REQ, CHALLENGE, REQ, ACCEPT)


def test_wrong_password_fails_with_sequence_mismatch(live_server):
    bad = replace(SCRIPTS["S1"], password="not-alice-password")
    transcript = run(live_server, bad)
    assert not transcript.verdict
    assert "SequenceMismatch" in transcript.failure
    assert transcript.codes == (REQ, REJECT)


def test_plaintext_password_never_on_the_wire(live_server):
    script = SCRIPTS["S1"]
    with ProtocolClient(live_server.endpoint, live_server.secret) as client:
        ra = wire.random_authenticator()
        hidden = wire.hide_password(script.password.encode(), client.secret, ra)
        request = client.build_request(script.username, hidden, ra,
                                       SCRIPTS["S1"].actions[0])
        raw = wire.encode_packet(request)
    assert script.password.encode() not in raw
    assert hidden != script.password.encode()


def test_retransmission_byte_identical(live_server):
    script = SCRIPTS["S1"]
    with ProtocolClient(live_server.endpoint, live_server.secret) as client:
        ra = wire.random_authenticator()
        hidden = wire.hide_password(script.password.encode(), client.secret, ra)
        request = client.build_request(script.username, hidden, ra, script.actions[0])
        raw = wire.encode_packet(request)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2)
        try:
            sock.sendto(raw, live_server.endpoint)
            first, _ = sock.recvfrom(4096)
            sock.sendto(raw, live_server.endpoint)
            second, _ = sock.recvfrom(4096)
        finally:
            sock.close()
    assert first == second


def test_run_all_prints_pass_lines(live_server, capsys):
    code = run_all(live_server.endpoint, live_server.secret, live_server.delivery_log)
    out = capsys.readouterr().out
    assert code == 0
    for scenario_id in ("S1", "S2", "S3", "E1"):
        assert f"{scenario_id} PASS" in out
    assert "FAIL" not in out


def test_transcript_line_format(live_server, capsys):
    run_all(live_server.endpoint, live_server.secret, live_server.delivery_log,
            scenario_ids=("S1",))
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("→ AccessRequest id=")
    assert "attrs=[User-Name,User-Password,Service-Type]" in out[0]
    assert out[1].startswith("← AccessAccept id=")


def test_dead_server_times_out(tmp_path, capsys):
    # a bound-but-unserved port guarantees silence
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    try:
        transcript = run_scenario(SCRIPTS["S1"], ("127.0.0.1", port), b"x",
                                  tmp_path / "none.log", timeout_ms=100)
        code = run_all(("127.0.0.1", port), b"x", tmp_path / "none.log",
                       timeout_ms=100, scenario_ids=("S1",))
    finally:
        sock.close()
    assert not transcript.verdict
    assert "Timeout" in transcript.failure
    assert code != 0
    assert "S1 FAIL" in capsys.readouterr().out


def test_wrong_client_secret_fails_authenticator_check(live_server):
    transcript = run_scenario(SCRIPTS["S1"], live_server.endpoint,
                              b"not-the-shared-secret", live_server.delivery_log)
    assert not transcript.verdict
    assert "AuthenticatorMismatch" in transcript.failure


def test_hundred_interleaved_requests(live_server):
    """Distinct identifiers, concurrent sends; every response must be an
    Accept whose authenticator recomputes against its own request."""
    from concurrent.futures import ThreadPoolExecutor

    script = SCRIPTS["S1"]

    def one(identifier: int) -> None:
        ra = wire.random_authenticator()
        hidden = wire.hide_password(script.password.encode(),
                                    live_server.secret, ra)
        request = wire.Packet(
            REQ, identifier, ra,
            (wire.Attribute(wire.USER_NAME, script.username.encode()),
             wire.Attribute(wire.USER_PASSWORD, hidden),
             wire.Attribute(wire.SERVICE_TYPE, (1).to_bytes(4, "big"))))
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(5)
        try:
            sock.sendto(wire.encode_packet(request), live_server.endpoint)
            data, _ = sock.recvfrom(4096)
        finally:
            sock.close()
        response = wire.decode_packet(data)
        assert response.code is ACCEPT
        assert response.identifier == identifier
        assert wire.verify_response_authenticator(response, ra, live_server.secret)

    with ThreadPoolExecutor(max_workers=20) as pool:
        list(pool.map(one, range(100)))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_scenario_run(live_server, capsys):
    code = scenario_main([
        "run", "S1",
        "--server", f"127.0.0.1:{live_server.port}",
        "--secret", live_server.secret.hex(),
        "--delivery-log", str(live_server.delivery_log),
    ])
    assert code == 0
    assert "S1 PASS" in capsys.readouterr().out


def test_cli_scenario_all_via_main(live_server, capsys):
    code = main([
        "scenario", "run", "all",
        "--server", f"127.0.0.1:{live_server.port}",
        "--secret", live_server.secret.hex(),
        "--delivery-log", str(live_server.delivery_log),
    ])
    assert code == 0
    assert capsys.readouterr().out.count("PASS") == 4


def test_cli_rejects_bad_server_spec(capsys):
    code = scenario_main(["run", "S1", "--server", "nonsense",
                          "--secret", "00", "--delivery-log", "x"])
    assert code == 2


def test_cli_write_fixtures(tmp_path, capsys):
    code = main(["write-fixtures", str(tmp_path / "demo"), "--port", "18120"])
    assert code == 0
    assert (tmp_path / "demo" / "config.json").exists()
    assert (tmp_path / "demo" / "users.json").exists()


def test_cli_serve_startup_failure_exits_nonzero(tmp_path, capsys):
    config_path = write_demo_fixtures(tmp_path, port=0)
    (tmp_path / "users.json").unlink()
    code = main(["serve", "--config", str(config_path)])
    assert code == 1
    assert "startup failed" in capsys.readouterr().err

    # a port the socket layer cannot take fails at load, not with a traceback
    config_path = write_demo_fixtures(tmp_path / "bad-port", port=70000)
    code = main(["serve", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("server startup failed:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("malform, key", [
    (lambda raw: raw.update(bind_address=127), "bind_address"),
    (lambda raw: raw.update(clock_override=123), "clock_override"),
    (lambda raw: raw["context"].update(timezone=5), "timezone"),
    (lambda raw: raw.update(clients={"nas": raw["clients"][0]}), "clients"),
    (lambda raw: raw.update(clients=["127.0.0.0/8"]), "clients"),
    (lambda raw: raw["clients"][0].update(secret_hex=5), "secret_hex"),
    (lambda raw: raw.update(user_store_path=5), "user_store_path"),
    (lambda raw: raw["clients"][0].update(address=2130706433), "address"),
    (lambda raw: raw["context"].update(trusted_networks=[5]), "trusted_networks"),
    (lambda raw: raw.update(dedup_window_second=60), "dedup_window_second"),
    (lambda raw: raw["otp"].update(max_attempt=10), "max_attempt"),
    (lambda raw: raw["session"].update(ttl=60), "ttl"),
    (lambda raw: raw["clients"][0].update(require_message_authenticator=True),
     "require_message_authenticator"),
    (lambda raw: raw["context"].update(trusted_network=["10.0.0.0/8"]), "trusted_network"),
    (lambda raw: raw["clients"][0].update(secret_hex="64656d6f2d..."), "secret_hex"),
    (lambda raw: raw.pop("user_store_path"), "user_store_path"),
    (lambda raw: raw["clients"][0].pop("address"), "address"),
    (lambda raw: raw.update(clock_override="2026-08-04T10:00:00"), "clock_override"),
    (lambda raw: raw["context"].update(timezone="+-5:00"), "timezone"),
    (lambda raw: raw["context"].update(day_start="8:00"), "day_start"),
    (lambda raw: b"[" * 100_000 + b"]" * 100_000, "config.json"),
    (lambda raw: raw.update(dedup_window_seconds=1e308), "dedup_window_seconds"),
    (lambda raw: raw["session"].update(ttl_seconds=1e308), "ttl_seconds"),
    (lambda raw: raw["otp"].update(ttl_seconds=1e308), "ttl_seconds"),
    (lambda raw: raw.update(dedup_window_seconds=1e-7), "dedup_window_seconds"),
    (lambda raw: raw["session"].update(ttl_seconds=1e-7), "ttl_seconds"),
    (lambda raw: raw["otp"].update(ttl_seconds=1e-7), "ttl_seconds"),
    (lambda raw: raw["context"].update(working_days={"monday": "x", "friday": 0}),
     "working_days"),
    (lambda raw: raw["context"].update(trusted_networks={"10.0.0.0/8": False}),
     "trusted_networks"),
    (lambda raw: raw.update(clients=[5]), "clients"),
    (lambda raw: raw.update(clients={"x": 1}), "clients"),
    (lambda raw: raw.update(context=5), "context"),
    (lambda raw: raw.update(otp=[]), "otp"),
    (lambda raw: raw.update(session=5), "session"),
    (lambda raw: raw.update(delivery_log_path=[]), "delivery_log_path"),
    (lambda raw: raw["context"].update(working_days=[1]), "working_days"),
    (lambda raw: raw["context"].update(working_days=[None]), "working_days"),
    (lambda raw: raw.update(clock_override=""), "clock_override"),
    (lambda raw: raw.update(clock_override=0), "clock_override"),
    (lambda raw: raw.update(clock_override=False), "clock_override"),
    (lambda raw: raw.update(clock_override=[]), "clock_override"),
    (lambda raw: raw.update(clock_override={}), "clock_override"),
    (lambda raw: raw.update(clock_override=5), "clock_override"),
    (lambda raw: raw.update(clock_override="x"), "clock_override"),
    (lambda raw: raw.update(clients=[]), "clients"),
    (lambda raw: raw["context"].update(trusted_networks=[]), "trusted_networks"),
    (lambda raw: raw["clients"][0].update(secret_hex=""), "secret_hex"),
], ids=["bind_address", "clock_override", "timezone", "clients-object", "client-string",
        "secret_hex", "user_store_path", "client-int-address", "trusted-int-network",
        "unknown-top-level-key", "unknown-otp-key", "unknown-session-key",
        "unknown-client-key", "unknown-context-key", "secret_hex-not-hex",
        "missing-user-store-path", "missing-client-address", "clock_override-naive",
        "timezone-two-signs", "day_start-one-digit", "nested-too-deeply",
        "dedup-window-1e308", "session-ttl-1e308", "otp-ttl-1e308",
        "dedup-window-1e-7", "session-ttl-1e-7", "otp-ttl-1e-7",
        "working_days-object", "trusted_networks-object",
        "clients-int-entry", "clients-object-int", "context-int", "otp-list", "session-int",
        "delivery_log_path-list", "working_days-int-entry", "working_days-null-entry",
        "clock_override-empty", "clock_override-zero", "clock_override-false",
        "clock_override-list", "clock_override-object", "clock_override-5",
        "clock_override-not-iso", "clients-empty", "trusted_networks-empty",
        "secret_hex-empty"])
def test_cli_serve_malformed_config_exits_nonzero(tmp_path, capsys, monkeypatch, malform, key):
    """A value of the wrong JSON type fails at load with one line, not a traceback,
    and that line names the key (or, for a file too deep to parse, the file).
    A case that returns bytes replaces the whole file with them."""
    def loaded(config):
        raise AssertionError("config loaded")

    # a config the loader wrongly accepts fails here instead of serving forever
    monkeypatch.setattr("ctxradius.cli.run_server", loaded)
    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    text = malform(raw)
    config_path.write_bytes(text if isinstance(text, bytes) else json.dumps(raw).encode())
    code = main(["serve", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("server startup failed:") == 1
    assert "Traceback" not in err
    assert key in err.replace(str(tmp_path), "")


@pytest.mark.parametrize("malform, detail", [
    (lambda rows: {"alice": 1}, "must be a JSON list of objects"),
    (lambda rows: [1], "entry 0: must be an object"),
    (lambda rows: [{**rows[0], "salt": 5}], "entry 0: "),
    (lambda rows: [{**rows[0], "username": 5}], "entry 0: username and otp_channel"),
    (lambda rows: [{**rows[0], "otp_channel": 5}], "entry 0: username and otp_channel"),
    (lambda rows: rows[:1] + rows, "entry 1: duplicate username"),
    (lambda rows: [{**rows[0], "digest": "00"}], "entry 0: digest must be exactly 32 octets"),
    (lambda rows: [{**rows[0], "extra": 1}], "entry 0: keys must be"),
    (lambda rows: [{**rows[0], "salt": "zz" * 16}], "entry 0: non-hexadecimal"),
    (lambda rows: [{k: v for k, v in rows[0].items() if k != "otp_channel"}],
     "entry 0: keys must be"),
    (lambda rows: [rows[0], {**rows[1], "otp_channel": "sms:eve\tx"}],
     "entry 1: otp_channel must be printable"),
    (lambda rows: [{**rows[0], "otp_channel": ""}], "entry 0: otp_channel must be printable"),
    (lambda rows: b"[" * 100_000 + b"]" * 100_000, "users.json: JSON nested too deeply"),
    (lambda rows: [{**rows[0], "username": ""}], "entry 0: username must be 1 to 253"),
    (lambda rows: [{**rows[0], "username": "\u00e9" * 127}], "entry 0: username must be 1 to 253"),
], ids=["top-level-object", "entry-not-object", "salt-int", "username-int", "otp_channel-int",
        "duplicate-username", "digest-short", "unknown-key", "salt-not-hex", "missing-key",
        "otp_channel-tab", "otp_channel-empty", "nested-too-deeply", "username-empty",
        "username-254-octets"])
def test_cli_serve_malformed_user_store_exits_nonzero(tmp_path, capsys, monkeypatch,
                                                      malform, detail):
    """A store `UserStore.save` could not have written fails at load with one line.
    A case that returns bytes writes them as the whole file."""
    def bind(self):
        raise AssertionError("user store loaded")

    # a store the loader wrongly accepts fails here instead of serving forever
    monkeypatch.setattr("ctxradius.server.Server.bind", bind)
    config_path = write_demo_fixtures(tmp_path, port=0)
    store = tmp_path / "users.json"
    text = malform(json.loads(store.read_text()))
    store.write_bytes(text if isinstance(text, bytes) else json.dumps(text).encode())
    code = main(["serve", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("server startup failed:") == 1
    assert detail in err
    assert "Traceback" not in err


def test_cli_serve_nul_bind_address_exits_nonzero(tmp_path, capsys, monkeypatch):
    """A host name the socket layer refuses with a TypeError, not an OSError,
    still fails as one `cannot bind` line."""
    def serve_forever(self):
        raise AssertionError("bound")

    monkeypatch.setattr("ctxradius.server.Server.serve_forever", serve_forever)
    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["bind_address"] = "\u0000"
    config_path.write_text(json.dumps(raw))
    code = main(["serve", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("server startup failed: cannot bind ") == 1
    assert "Traceback" not in err


def test_cli_serve_nul_delivery_log_path_exits_nonzero(tmp_path, capsys, monkeypatch):
    """A path the OS layer refuses with a ValueError, not an OSError, still
    fails as one `cannot open delivery log` line."""
    def bind(self):
        raise AssertionError("delivery log opened")

    monkeypatch.setattr("ctxradius.server.Server.bind", bind)
    config_path = write_demo_fixtures(tmp_path, port=0)
    raw = json.loads(config_path.read_text())
    raw["delivery_log_path"] = "otp\u0000delivery.log"
    config_path.write_text(json.dumps(raw))
    code = main(["serve", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("server startup failed: cannot open delivery log: ") == 1
    assert "Traceback" not in err


def test_cli_serve_occupied_port_exits_nonzero(tmp_path, capsys):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    try:
        config_path = write_demo_fixtures(tmp_path, port=port)
        code = main(["serve", "--config", str(config_path)])
    finally:
        sock.close()
    assert code == 1


def child_env() -> dict[str, str]:
    """An environment whose Python imports the ctxradius this test imported,
    installed or not."""
    src = str(Path(ctxradius.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_serve_does_not_import_the_scenario_client():
    """The daemon's start-up pays nothing for the replay client, nor for
    `dataclasses` and the modules it imports."""
    probe = ("import sys; from ctxradius.cli import build_parser; "
             "build_parser().parse_args(['serve', '--config', 'x']); "
             "sys.exit(sorted({'ctxradius.scenarios', 'dataclasses', 'inspect', 'ast', 'dis', "
             "'tokenize'} & sys.modules.keys()) or None)")
    subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True, timeout=60)


def test_cli_scenario_constants_match_the_client():
    assert cli.SCENARIO_ORDER == scenarios.SCENARIO_ORDER
    assert cli.DEFAULT_TIMEOUT_MS == scenarios.DEFAULT_TIMEOUT_MS


def test_server_subprocess_lifecycle(tmp_path):
    """Start the daemon, run a scenario against it, terminate, exit 0.  The
    event lines the daemon held when SIGTERM came are on its stderr."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    config_path = write_demo_fixtures(tmp_path, port=port)

    with subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from ctxradius.cli import main; sys.exit(main(sys.argv[1:]))",
             "serve", "--config", str(config_path)],
            stderr=subprocess.PIPE, text=True, env=child_env()) as proc:
        try:
            deadline = time.monotonic() + 5
            transcript = None
            while time.monotonic() < deadline:
                transcript = run_scenario(SCRIPTS["S1"], ("127.0.0.1", port),
                                          DEMO_SECRET, tmp_path / "otp-delivery.log",
                                          timeout_ms=300)
                if transcript.verdict:
                    break
            assert transcript is not None and transcript.verdict, transcript.failure
        finally:
            proc.terminate()
            try:
                _, err = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
    assert proc.returncode == 0
    events = [line.split("\t")[1:3] for line in err.splitlines()]
    assert events[0][0] == "listen"
    assert ["accept", "alice"] in events
    assert events[-1] == ["shutdown", "-"]
