"""Every input boundary is total: a config or a user store drawn from
arbitrary JSON either stops `ctxradius serve` with one startup line, or
loads into a server that answers requests and lets every user read their
challenge.

Each draw runs through `cli.main(["serve", ...])` with `run_server`
replaced by a stand-in that builds the server on an in-memory event log
and pushes one default and one root request through `handle_datagram`,
so no socket is bound.  A draw replaces the whole config file, one config
section or field, one user-store entry or one field of an entry.  A config
section or field that fails startup is named in its startup line.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxradius import wire
from ctxradius.auth import latest_otp
from ctxradius.cli import main
from ctxradius.scenarios import DEMO_USERS, write_demo_fixtures
from ctxradius.server import EventLog, Server
from test_server import PEER, access_request


EDGES = st.sampled_from([0, -1, 2**64, -2**64, 1e308, -1e308, 5e-324, 1e-7, float("inf"),
                         float("nan"), "", "\x00", "\t", "x" * 300, [], {}])


def json_values(text: st.SearchStrategy[str] = st.text()) -> st.SearchStrategy[object]:
    """Any JSON value, its strings (and object keys) drawn from `text`; half
    the draws are scalars, which a field of the config or the store holds,
    with the edges of each JSON type drawn as often as any other scalar."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | text | EDGES
    return scalars | st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
        max_leaves=8)


ANY_JSON = json_values()
# A path key's strings hold no separator, so every file a draw names lies
# in its own directory (or is its parent, which cannot be opened as a file).
PATH_JSON = json_values(st.text(st.characters(blacklist_characters="/")))
PATH_KEYS = {"user_store_path", "delivery_log_path"}
ROLES = {"user_store_path": "user store", "delivery_log_path": "delivery log"}


def config_fields(raw: dict) -> list[tuple]:
    """The path of every top-level section and of every field inside one."""
    fields = [(key,) for key in raw]
    for key, section in raw.items():
        if isinstance(section, dict):
            fields += [(key, name) for name in section]
    fields += [("clients", 0, name) for name in raw["clients"][0]]
    return fields


def named(config: dict, path: tuple) -> set[str]:
    """What a startup line that a draw at `path` fails may name: the drawn
    key, a key the whole section at `path` holds, or the role of the file
    a path key names."""
    key = path[-1]
    section = config[key] if len(path) == 1 else {}
    if isinstance(section, list):
        section = section[0]
    return {key, ROLES.get(key, key), *(section if isinstance(section, dict) else ())}


def replace(doc, path: tuple, value) -> None:
    *parents, last = path
    for step in parents:
        doc = doc[step]
    doc[last] = value


def test_any_config_or_store_fails_with_one_line_or_serves(tmp_path, monkeypatch):
    template = write_demo_fixtures(tmp_path / "template", port=0)
    base_config = json.loads(template.read_text())
    base_rows = json.loads((template.parent / "users.json").read_text())
    passwords = {(row["salt"], row["digest"]): password
                 for row, (_, password, _) in zip(base_rows, DEMO_USERS)}
    directories = (tmp_path / str(n) for n in itertools.count())
    ports = itertools.count(1)  # a fresh dedup key per request
    built: list[Server] = []

    def handle(server: Server, raw: bytes) -> bytes | None:
        return server.handle_datagram(raw, PEER, server.clock(), port=next(ports))

    def run_server(config):
        server = Server(config, EventLog(io.StringIO()))
        built.append(server)
        name, password, _ = DEMO_USERS[0]
        for service in (wire.SERVICE_LOGIN_USER, wire.SERVICE_ADMINISTRATIVE_USER):
            handle(server, access_request(name, password, service_type=service))

    monkeypatch.setattr("ctxradius.cli.run_server", run_server)

    fields = config_fields(base_config)

    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(st.data())
    def serve(data):
        directory = next(directories)
        directory.mkdir()
        config, rows = json.loads(json.dumps(base_config)), [dict(row) for row in base_rows]
        kind = data.draw(st.sampled_from(["file", "config field", "entry", "entry field"]))
        if kind == "file":
            config = data.draw(ANY_JSON, "file")
        elif kind == "config field":
            path = data.draw(st.sampled_from(fields), "field")
            replace(config, path, data.draw(PATH_JSON if path[0] in PATH_KEYS else ANY_JSON))
        else:
            index = data.draw(st.integers(0, len(rows) - 1), "entry")
            if kind == "entry":
                rows[index] = data.draw(ANY_JSON)
            else:
                key = data.draw(st.sampled_from(sorted(rows[index])), "key")
                rows[index][key] = data.draw(ANY_JSON)
        (directory / "config.json").write_text(json.dumps(config))
        (directory / "users.json").write_text(json.dumps(rows))
        (directory / "otp-delivery.log").touch()
        built.clear()

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["serve", "--config", str(directory / "config.json")])
        if not built:
            assert code == 1
            assert err.getvalue().count("server startup failed:") == 1
            assert "Traceback" not in err.getvalue()
            if kind == "config field":
                assert any(name in err.getvalue() for name in named(base_config, path)), path
            return
        # a fault while answering must not pass for a startup failure
        assert code == 0, err.getvalue()
        server, = built
        if kind == "file" or kind == "config field":
            return
        # every user whose password is known can be challenged and answer
        for row in rows:
            password = passwords.get((row["salt"], row["digest"]))
            if password is None:
                continue
            ask = access_request(row["username"], password,
                                 service_type=wire.SERVICE_ADMINISTRATIVE_USER)
            challenge = wire.decode_packet(handle(server, ask))
            assert challenge.code is wire.PacketCode.ACCESS_CHALLENGE
            otp = latest_otp(server.config.delivery_log_path, row["otp_channel"])
            assert otp is not None, row
            answer = access_request(row["username"], otp,
                                    service_type=wire.SERVICE_ADMINISTRATIVE_USER,
                                    state=challenge.first(wire.STATE))
            accept = wire.decode_packet(handle(server, answer))
            assert accept.code is wire.PacketCode.ACCESS_ACCEPT, row

    serve()
