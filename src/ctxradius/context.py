"""Situational context of a request: clock and source network checks.

`evaluate_plausibility` judges a request's instant and source address
against the configured working hours and trusted networks.  Both checks are
pure and deterministic, and the answer is one of four shared, frozen
verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, time, timedelta, timezone
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


class ConfigError(ValueError):
    pass


def require_number(name: str, value: object, kinds: tuple[type, ...],
                   low: float, high: float, rule: str) -> None:
    """Raise ConfigError unless `value` is an instance of `kinds` strictly
    between `low` and `high`; a bool is neither an int nor a float."""
    if isinstance(value, bool) or not isinstance(value, kinds) or not low < value < high:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def require_network(name: str, value: object, strict: bool = True) -> IPv4Network:
    """`value`, a JSON string "a.b.c.d/len", as a network; ConfigError names
    `name` for any other type or a bad string.  `strict` forbids host bits."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    try:
        return IPv4Network(value, strict=strict)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


class ImplausibilityReason(Enum):
    OUTSIDE_WORKING_HOURS = "OutsideWorkingHours"
    OFF_SITE = "OffSite"


@dataclass(frozen=True)
class ContextConfig:
    """Working-hours window and trusted source networks.

    The window is half-open: an instant exactly at day_start is inside,
    one exactly at day_end is outside.  The timezone is a fixed offset,
    no DST rules.  Overnight windows (end <= start) are rejected.
    """

    working_days: frozenset[int]
    day_start: time
    day_end: time
    utc_offset: timezone
    trusted_networks: tuple[IPv4Network, ...]

    def __post_init__(self) -> None:
        if not self.working_days:
            raise ConfigError("working_days must not be empty")
        if not all(0 <= d <= 6 for d in self.working_days):
            raise ConfigError("working_days entries must be 0 (Monday) to 6 (Sunday)")
        if self.day_start >= self.day_end:
            raise ConfigError("day_start must be strictly before day_end")
        if not self.trusted_networks:
            raise ConfigError("at least one trusted network is required")

    @classmethod
    def from_dict(cls, raw: dict) -> ContextConfig:
        """Build from config-file keys: weekday names, "HH:MM" times,
        "+HH:MM" offset, "a.b.c.d/len" networks; another key is a TypeError
        and a missing one a KeyError naming it."""
        raw = {**raw}
        names = raw.pop("working_days")
        try:
            days = frozenset(WEEKDAYS[d.lower()] for d in names)
        except KeyError as exc:
            raise ConfigError(f"unknown weekday name {exc}") from None
        return cls(
            working_days=days,
            day_start=_parse_hhmm(raw.pop("day_start")),
            day_end=_parse_hhmm(raw.pop("day_end")),
            utc_offset=parse_utc_offset(raw.pop("timezone")),
            trusted_networks=tuple(require_network("trusted_networks entry", n)
                                   for n in raw.pop("trusted_networks")),
            **raw,
        )


@dataclass(frozen=True)
class ContextVerdict:
    plausible: bool
    reasons: frozenset[ImplausibilityReason]

    def __post_init__(self) -> None:
        if self.plausible != (not self.reasons):
            raise ValueError("plausible verdicts carry no reasons and vice versa")


# The four verdicts, by (in working hours, on site).  They are frozen, so
# every request shares them.
_OUTSIDE_HOURS = ImplausibilityReason.OUTSIDE_WORKING_HOURS
_OFF_SITE = ImplausibilityReason.OFF_SITE
_VERDICTS = {
    (True, True): ContextVerdict(True, frozenset()),
    (False, True): ContextVerdict(False, frozenset({_OUTSIDE_HOURS})),
    (True, False): ContextVerdict(False, frozenset({_OFF_SITE})),
    (False, False): ContextVerdict(False, frozenset({_OUTSIDE_HOURS, _OFF_SITE})),
}


def _parse_hhmm(text: str) -> time:
    try:
        hours, minutes = text.split(":")
        return time(int(hours), int(minutes))
    except (ValueError, AttributeError):
        raise ConfigError(f"expected HH:MM, got {text!r}") from None


def parse_utc_offset(text: str) -> timezone:
    """Parse a fixed "+HH:MM" / "-HH:MM" offset."""
    if len(text) != 6 or text[0] not in "+-" or text[3] != ":":
        raise ConfigError(f"expected +HH:MM offset, got {text!r}")
    try:
        delta = timedelta(hours=int(text[1:3]), minutes=int(text[4:6]))
    except ValueError:
        raise ConfigError(f"expected +HH:MM offset, got {text!r}") from None
    return timezone(-delta if text[0] == "-" else delta)


def evaluate_plausibility(source_address: IPv4Address | int, now: datetime,
                          config: ContextConfig) -> ContextVerdict:
    """A request is plausible iff it is in working hours AND on site.

    `now` must be timezone-aware; it is read in the configured offset.
    """
    local = now.astimezone(config.utc_offset)
    in_hours = (
        local.weekday() in config.working_days
        and config.day_start <= local.time() < config.day_end
    )
    on_site = any(int(source_address) & int(net.netmask) == int(net.network_address)
                  for net in config.trusted_networks)
    return _VERDICTS[in_hours, on_site]
