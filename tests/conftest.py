from __future__ import annotations

import io
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

from ctxradius.scenarios import DEMO_SECRET, write_demo_fixtures
from ctxradius.server import EventLog, Server, load_server_config


@dataclass
class LiveServer:
    server: Server
    host: str
    port: int
    secret: bytes
    delivery_log: Path
    fixture_dir: Path
    events: io.StringIO
    thread: threading.Thread

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)


@pytest.fixture
def live_server(tmp_path):
    """A demo-fixture server bound to an ephemeral loopback port."""
    config_path = write_demo_fixtures(tmp_path, port=0)
    config = load_server_config(config_path)
    events = io.StringIO()
    server = Server(config, EventLog(stream=events))
    server.bind()
    port = server.bound_port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield LiveServer(
        server=server,
        host="127.0.0.1",
        port=port,
        secret=DEMO_SECRET,
        delivery_log=tmp_path / "otp-delivery.log",
        fixture_dir=tmp_path,
        events=events,
        thread=thread,
    )
    server.shutdown()
    thread.join(timeout=3)
