"""Situational context of a request: clock and source network checks.

`evaluate_plausibility` judges a request's instant and source address
against the configured working hours and trusted networks.  Both checks are
pure and deterministic, and the answer is one of four shared verdicts.  An
instant is integer microseconds since the epoch, by `stamp`.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from enum import Enum
from ipaddress import IPv4Address, IPv4Network

WEEKDAYS = {
    "monday": 0,
    "tuesday": 1,
    "wednesday": 2,
    "thursday": 3,
    "friday": 4,
    "saturday": 5,
    "sunday": 6,
}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = datetime.resolution
# A duration must be at least one microsecond, so that it never rounds to 0
# on the clock, and below about 31.7 years, so that its count of
# microseconds is a finite int the clock can add.
MIN_DURATION_SECONDS = 1e-6
MAX_DURATION_SECONDS = 10**9
_CLOCK = re.compile(r"([+-]?)([01]\d|2[0-3]):([0-5]\d)", re.ASCII)  # HH:MM, signed or not


class ConfigError(ValueError):
    pass


def stamp(now: datetime) -> int:
    """`now`, which must be timezone-aware, in integer microseconds since the epoch."""
    return (now - _EPOCH) // _MICROSECOND


def require_number(name: str, value: object, kinds: tuple[type, ...],
                   low: float, high: float, rule: str) -> None:
    """Raise ConfigError unless `value` is an instance of `kinds` from `low`
    up to but not including `high`; a bool is neither an int nor a float."""
    if isinstance(value, bool) or not isinstance(value, kinds) or not low <= value < high:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def require_duration(name: str, value: object) -> None:
    """Raise ConfigError unless `value` is a number of seconds the
    microsecond clock can hold."""
    require_number(name, value, (int, float), MIN_DURATION_SECONDS, MAX_DURATION_SECONDS,
                   f"a number from {MIN_DURATION_SECONDS} to below {MAX_DURATION_SECONDS}")


def require_string(name: str, value: object) -> str:
    """`value`, unless it is not a JSON string: then ConfigError names `name`."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def require_list(name: str, value: object) -> list:
    """`value`, unless it is not a JSON list: then ConfigError names `name`."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a JSON list, got {value!r}")
    return value


def require_object(name: str, value: object) -> dict:
    """`value`, unless it is not a JSON object: then ConfigError names `name`."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


def require_network(name: str, value: object, strict: bool = True) -> IPv4Network:
    """`value`, a JSON string "a.b.c.d/len", as a network; ConfigError names
    `name` for any other type or a bad string.  `strict` forbids host bits."""
    text = require_string(name, value)
    try:
        return IPv4Network(text, strict=strict)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


class ImplausibilityReason(Enum):
    OUTSIDE_WORKING_HOURS = "OutsideWorkingHours"
    OFF_SITE = "OffSite"


class ContextConfig:
    """Working-hours window and trusted source networks.

    Times are int seconds: the window's ends after local midnight, the
    fixed offset (no DST rules) east of UTC.  The window is half-open: an
    instant exactly at day_start is inside, one exactly at day_end is
    outside, so a day_end of 86400 ("24:00") keeps the window open to midnight.
    Overnight windows (end <= start) are rejected.
    """

    __slots__ = ("working_days", "day_start", "day_end", "utc_offset", "trusted_networks")

    def __init__(self, working_days: frozenset[int], day_start: int, day_end: int,
                 utc_offset: int, trusted_networks: tuple[IPv4Network, ...]) -> None:
        if not working_days:
            raise ConfigError("working_days must not be empty")
        if not all(0 <= d <= 6 for d in working_days):
            raise ConfigError("working_days entries must be 0 (Monday) to 6 (Sunday)")
        if day_start >= day_end:
            raise ConfigError("day_start must be strictly before day_end")
        if not trusted_networks:
            raise ConfigError("at least one trusted network is required")
        self.working_days = working_days
        self.day_start = day_start
        self.day_end = day_end
        self.utc_offset = utc_offset
        self.trusted_networks = trusted_networks

    @classmethod
    def from_dict(cls, raw: dict) -> ContextConfig:
        """Build from config-file keys: a list of weekday names, "HH:MM"
        times, "+HH:MM" offset, a list of "a.b.c.d/len" networks.  A bad
        value is a ConfigError naming its key; another key is a TypeError
        and a missing one a KeyError naming it."""
        raw = {**raw}
        for key in ("working_days", "trusted_networks"):
            require_list(key, raw.get(key, []))
        names = raw.pop("working_days")
        for name in names:
            if not isinstance(name, str) or name.lower() not in WEEKDAYS:
                raise ConfigError(f"working_days entries must be weekday names, got {name!r}")
        networks = tuple(require_network("trusted_networks entry", n)
                         for n in raw.pop("trusted_networks"))
        if not networks:
            raise ConfigError("trusted_networks: at least one trusted network is required")

        def clock(key: str) -> int:
            try:
                return parse_clock(raw.pop(key), signed=key == "timezone")
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}") from None

        return cls(
            working_days=frozenset(WEEKDAYS[name.lower()] for name in names),
            day_start=clock("day_start"),
            day_end=clock("day_end"),
            utc_offset=clock("timezone"),
            trusted_networks=networks,
            **raw,
        )


class ContextVerdict:
    __slots__ = ("plausible", "reasons")

    def __init__(self, plausible: bool, reasons: frozenset[ImplausibilityReason]) -> None:
        if plausible != (not reasons):
            raise ValueError("plausible verdicts carry no reasons and vice versa")
        self.plausible = plausible
        self.reasons = reasons


# The four verdicts, by (in working hours, on site).  Nothing changes a
# verdict, so every request shares them.
_OUTSIDE_HOURS = ImplausibilityReason.OUTSIDE_WORKING_HOURS
_OFF_SITE = ImplausibilityReason.OFF_SITE
_VERDICTS = {
    (True, True): ContextVerdict(True, frozenset()),
    (False, True): ContextVerdict(False, frozenset({_OUTSIDE_HOURS})),
    (True, False): ContextVerdict(False, frozenset({_OFF_SITE})),
    (False, False): ContextVerdict(False, frozenset({_OUTSIDE_HOURS, _OFF_SITE})),
}


def parse_clock(text: str, signed: bool = False) -> int:
    """Seconds of a strict "HH:MM", two ASCII digits each, 00:00 to 23:59,
    or "24:00", the midnight that ends a day; `signed` asks for a "+HH:MM" /
    "-HH:MM" offset east of UTC instead, with hours to 23."""
    if not signed and text == "24:00":
        return 86400
    match = isinstance(text, str) and _CLOCK.fullmatch(text)
    if not match or bool(match[1]) != signed:
        raise ConfigError(f"expected {'+HH:MM offset' if signed else 'HH:MM'}, got {text!r}")
    seconds = int(match[2]) * 3600 + int(match[3]) * 60
    return -seconds if match[1] == "-" else seconds


def evaluate_plausibility(source_address: IPv4Address | int, now: int,
                          config: ContextConfig) -> ContextVerdict:
    """A request is plausible iff it is in working hours AND on site.

    `now` (see `stamp`) is read in the configured offset; the epoch was a Thursday.
    """
    local = now // 1_000_000 + config.utc_offset
    in_hours = ((local // 86400 + 3) % 7 in config.working_days
                and config.day_start <= local % 86400 < config.day_end)
    on_site = any(int(source_address) & int(net.netmask) == int(net.network_address)
                  for net in config.trusted_networks)
    return _VERDICTS[in_hours, on_site]
