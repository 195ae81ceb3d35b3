"""End-to-end scenario runs over loopback UDP, plus the CLI surface."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import ctxradius
from ctxradius import wire
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


def test_server_subprocess_lifecycle(tmp_path):
    """Start the daemon, run a scenario against it, terminate, exit 0."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    config_path = write_demo_fixtures(tmp_path, port=port)
    # the daemon imports the ctxradius this test imported, installed or not
    src = str(Path(ctxradius.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from ctxradius.cli import main; sys.exit(main(sys.argv[1:]))",
         "serve", "--config", str(config_path)],
        stderr=subprocess.PIPE, text=True, env=env)
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
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert proc.returncode == 0
