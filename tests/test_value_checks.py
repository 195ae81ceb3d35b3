"""Each value class checks its fields when it is built: every check raises
its own exception type with its whole message."""

from __future__ import annotations

from datetime import datetime
from ipaddress import IPv4Network
from pathlib import Path

import pytest

from ctxradius.auth import AuthPolicy
from ctxradius.context import ConfigError, ContextConfig, ContextVerdict, ImplausibilityReason
from ctxradius.server import ClientEntry, ServerConfig
from ctxradius.wire import Attribute, Packet, WireError

NETWORK = IPv4Network("10.0.0.0/8")
CONTEXT = dict(working_days=frozenset({0}), day_start=0, day_end=60, utc_offset=0,
               trusted_networks=(NETWORK,))
DURATION = "must be a number from 1e-06 to below 1000000000, got"


def server_config(**overrides) -> ServerConfig:
    fields = dict(context=ContextConfig(**CONTEXT), clients=(ClientEntry(NETWORK, b"s"),),
                  user_store_path=Path("users.json"), delivery_log_path=Path("otp.log"))
    return ServerConfig(**{**fields, **overrides})


CHECKS = {
    "attribute-type-0": (lambda: Attribute(0, b""),
                         WireError, "attribute type 0 outside 1-255"),
    "attribute-type-256": (lambda: Attribute(256, b""),
                           WireError, "attribute type 256 outside 1-255"),
    "attribute-value-254": (lambda: Attribute(18, bytes(254)),
                            WireError, "attribute value is 254 octets, maximum is 253"),
    "packet-code-99": (lambda: Packet(99, 0, bytes(16)),
                       WireError, "packet code 99 is not a known code"),
    "packet-identifier-256": (lambda: Packet(1, 256, bytes(16)),
                              WireError, "identifier 256 outside 0-255"),
    "packet-authenticator-15": (lambda: Packet(1, 0, bytes(15)),
                                WireError, "authenticator must be exactly 16 octets"),
    "context-no-days": (lambda: ContextConfig(**{**CONTEXT, "working_days": frozenset()}),
                        ConfigError, "working_days must not be empty"),
    "context-day-7": (lambda: ContextConfig(**{**CONTEXT, "working_days": frozenset({7})}),
                      ConfigError, "working_days entries must be 0 (Monday) to 6 (Sunday)"),
    "context-empty-window": (lambda: ContextConfig(**{**CONTEXT, "day_start": 60}),
                             ConfigError, "day_start must be strictly before day_end"),
    "context-no-networks": (lambda: ContextConfig(**{**CONTEXT, "trusted_networks": ()}),
                            ConfigError, "at least one trusted network is required"),
    "verdict-plausible-with-reason": (
        lambda: ContextVerdict(True, frozenset({ImplausibilityReason.OFF_SITE})),
        ValueError, "plausible verdicts carry no reasons and vice versa"),
    "verdict-implausible-without-reason": (
        lambda: ContextVerdict(False, frozenset()),
        ValueError, "plausible verdicts carry no reasons and vice versa"),
    "policy-otp-ttl-0": (lambda: AuthPolicy(otp_ttl_seconds=0),
                         ConfigError, f"otp_ttl_seconds {DURATION} 0"),
    "policy-session-ttl-0": (lambda: AuthPolicy(session_ttl_seconds=0),
                             ConfigError, f"session_ttl_seconds {DURATION} 0"),
    "policy-attempts-0": (lambda: AuthPolicy(otp_max_attempts=0),
                          ConfigError, "otp_max_attempts must be a positive int, got 0"),
    "policy-digits-129": (lambda: AuthPolicy(otp_digits=129),
                          ConfigError, "otp_digits must be an int from 1 to 128, got 129"),
    "client-empty-secret": (lambda: ClientEntry(NETWORK, b""),
                            ConfigError, "client shared secret must not be empty"),
    "server-no-clients": (lambda: server_config(clients=()),
                          ConfigError, "at least one client entry is required"),
    "server-bind-address-int": (lambda: server_config(bind_address=127),
                                ConfigError, "bind_address must be a str, got 127"),
    "server-dedup-window-0": (lambda: server_config(dedup_window_seconds=0),
                              ConfigError, f"dedup_window_seconds {DURATION} 0"),
    "server-port-65536": (lambda: server_config(port=65536),
                          ConfigError, "port must be an int from 0 to 65535, got 65536"),
    "server-naive-clock": (lambda: server_config(clock_override=datetime(2026, 8, 4, 10)),
                           ConfigError,
                           "clock_override needs a UTC offset, got '2026-08-04T10:00:00'"),
}


@pytest.mark.parametrize("build, kind, message", CHECKS.values(), ids=CHECKS.keys())
def test_each_check_raises_its_whole_message(build, kind, message):
    with pytest.raises(kind) as info:
        build()
    assert type(info.value) is kind
    assert str(info.value) == message
