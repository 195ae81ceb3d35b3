from __future__ import annotations

from datetime import date, datetime, time, timedelta, timezone
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxradius.context import (
    ConfigError,
    ContextConfig,
    ContextVerdict,
    WEEKDAYS,
    ImplausibilityReason,
    evaluate_plausibility,
    parse_clock,
    stamp,
)

UTC = timezone.utc
HOUR = 3600


def office_config(**overrides) -> ContextConfig:
    kwargs = dict(
        working_days=frozenset(range(5)),  # Mon-Fri
        day_start=8 * HOUR,
        day_end=18 * HOUR,
        utc_offset=0,
        trusted_networks=(IPv4Network("10.0.0.0/8"),),
    )
    kwargs.update(overrides)
    return ContextConfig(**kwargs)


# 2026-08-04 is a Tuesday
TUE_10H = datetime(2026, 8, 4, 10, 0, tzinfo=UTC)
TUE_02H = datetime(2026, 8, 4, 2, 0, tzinfo=UTC)
ON_SITE, OFF_SITE = IPv4Address("10.0.0.5"), IPv4Address("203.0.113.7")
OUTSIDE_HOURS = ImplausibilityReason.OUTSIDE_WORKING_HOURS


def reasons(address: IPv4Address, now: datetime, config: ContextConfig | None = None):
    return evaluate_plausibility(address, stamp(now), config or office_config()).reasons


def test_inside_hours_and_network():
    assert reasons(ON_SITE, TUE_10H) == frozenset()


def test_night_request_out_of_hours():
    assert reasons(ON_SITE, TUE_02H) == {OUTSIDE_HOURS}


def test_untrusted_source_off_site():
    assert reasons(OFF_SITE, TUE_10H) == {ImplausibilityReason.OFF_SITE}


def test_weekend_out_of_hours():
    sat = datetime(2026, 8, 8, 10, 0, tzinfo=UTC)
    assert reasons(ON_SITE, sat) == {OUTSIDE_HOURS}


def test_boundary_half_open():
    at_start = TUE_10H.replace(hour=8, minute=0)
    at_end = TUE_10H.replace(hour=18, minute=0)
    assert reasons(ON_SITE, at_start) == frozenset()
    assert reasons(ON_SITE, at_end) == {OUTSIDE_HOURS}


def test_offset_shifts_local_time():
    # 17:30 UTC is 19:30 at +02:00, past the 18:00 end of day
    cfg = office_config(utc_offset=parse_clock("+02:00", signed=True))
    late = datetime(2026, 8, 4, 17, 30, tzinfo=UTC)
    assert reasons(ON_SITE, late, cfg) == {OUTSIDE_HOURS}
    assert reasons(ON_SITE, late) == frozenset()


def test_determinism():
    args = (IPv4Address("10.1.2.3"), stamp(TUE_10H), office_config())
    assert evaluate_plausibility(*args) is evaluate_plausibility(*args)


@pytest.mark.parametrize("bad", [
    dict(working_days=frozenset()),
    dict(day_start=18 * HOUR, day_end=8 * HOUR),
    dict(day_start=9 * HOUR, day_end=9 * HOUR),
    dict(trusted_networks=()),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        office_config(**bad)


def test_from_dict():
    cfg = ContextConfig.from_dict({
        "working_days": ["Monday", "tuesday", "Friday"],
        "day_start": "08:30",
        "day_end": "17:00",
        "timezone": "-05:00",
        "trusted_networks": ["10.0.0.0/8", "192.168.1.0/24"],
    })
    assert cfg.working_days == frozenset({0, 1, 4})
    assert cfg.day_start == 8 * HOUR + 30 * 60
    assert cfg.utc_offset == -5 * HOUR
    assert len(cfg.trusted_networks) == 2


def test_from_dict_rejects_an_unknown_key_and_leaves_its_argument():
    raw = {"working_days": ["monday"], "day_start": "08:00", "day_end": "17:00",
           "timezone": "+00:00", "trusted_networks": ["10.0.0.0/8"]}
    before = dict(raw)
    ContextConfig.from_dict(raw)
    assert raw == before
    with pytest.raises(TypeError, match="trusted_network"):
        ContextConfig.from_dict({**raw, "trusted_network": ["10.0.0.0/8"]})


def test_from_dict_names_a_missing_working_days():
    raw = {"day_start": "08:00", "day_end": "17:00", "timezone": "+00:00",
           "trusted_networks": ["10.0.0.0/8"]}
    with pytest.raises(KeyError, match="working_days"):
        ContextConfig.from_dict(raw)


@pytest.mark.parametrize("key, value", [
    ("working_days", {"monday": "x", "friday": 0}),
    ("working_days", "monday"),
    ("trusted_networks", {"10.0.0.0/8": False}),
    ("trusted_networks", "10.0.0.0/8"),
], ids=["working_days-object", "working_days-string", "trusted_networks-object",
        "trusted_networks-string"])
def test_from_dict_requires_a_list(key, value):
    """An object would be read as its keys, and a string as its characters."""
    raw = {"working_days": ["monday"], "day_start": "08:00", "day_end": "17:00",
           "timezone": "+00:00", "trusted_networks": ["10.0.0.0/8"], key: value}
    with pytest.raises(ConfigError) as info:
        ContextConfig.from_dict(raw)
    assert str(info.value) == f"{key} must be a JSON list, got {value!r}"


@pytest.mark.parametrize("entry", [1, None])
def test_from_dict_names_a_working_day_that_is_not_a_string(entry):
    raw = {"working_days": [entry], "day_start": "08:00", "day_end": "17:00",
           "timezone": "+00:00", "trusted_networks": ["10.0.0.0/8"]}
    with pytest.raises(ConfigError) as info:
        ContextConfig.from_dict(raw)
    assert str(info.value) == f"working_days entries must be weekday names, got {entry!r}"


@pytest.mark.parametrize("text", ["utc", "+2:00", "+0200", "+aa:bb", "+-5:00", "+05:99",
                                  "+ 5:00", "+24:00", "+0\u0668:00", "05:00", "+05:00\n"])
def test_bad_offset_rejected(text):
    with pytest.raises(ConfigError):
        parse_clock(text, signed=True)


@pytest.mark.parametrize("text", ["8:00", " 8: 00", "\u0668:00", "08:60", "0800",
                                  "+08:00", "08:00\n", 800, "24:01", "+24:00", "24:00\n"])
def test_bad_hhmm_rejected(text):
    raw = {"working_days": ["monday"], "day_start": text, "day_end": "23:00",
           "timezone": "+00:00", "trusted_networks": ["10.0.0.0/8"]}
    with pytest.raises(ConfigError, match="expected HH:MM"):
        ContextConfig.from_dict(raw)


def test_day_end_24_00_is_the_midnight_that_ends_the_day():
    """A window may run to local midnight: its last microsecond is in hours."""
    assert parse_clock("24:00") == 86400
    config = ContextConfig.from_dict({
        "working_days": ["tuesday"], "day_start": "00:00", "day_end": "24:00",
        "timezone": "+02:00", "trusted_networks": ["10.0.0.0/8"]})
    assert config.day_end == 86400
    tue_midnight = datetime(2026, 8, 4, tzinfo=timezone(timedelta(hours=2)))
    assert reasons(ON_SITE, tue_midnight, config) == frozenset()
    last = tue_midnight + timedelta(days=1, microseconds=-1)
    assert reasons(ON_SITE, last, config) == frozenset()
    assert reasons(ON_SITE, last + timedelta(microseconds=1), config) == {OUTSIDE_HOURS}


@pytest.mark.parametrize("key, text, fault", [
    ("day_start", "24:00", "day_start must be strictly before day_end"),
    ("timezone", "24:00", r"expected \+HH:MM offset"),
    ("timezone", "+24:00", r"expected \+HH:MM offset"),
    ("day_end", "+24:00", "expected HH:MM"),
], ids=["day_start", "timezone-unsigned", "timezone-signed", "day_end-signed"])
def test_24_00_only_ends_a_day(key, text, fault):
    raw = {"working_days": ["monday"], "day_start": "08:00", "day_end": "23:00",
           "timezone": "+00:00", "trusted_networks": ["10.0.0.0/8"], key: text}
    with pytest.raises(ConfigError, match=fault):
        ContextConfig.from_dict(raw)


@pytest.mark.parametrize("in_hours,on_site,expected_reasons", [
    (True, True, set()),
    (False, True, {OUTSIDE_HOURS}),
    (True, False, {ImplausibilityReason.OFF_SITE}),
    (False, False, {OUTSIDE_HOURS, ImplausibilityReason.OFF_SITE}),
])
def test_plausibility_truth_table(in_hours, on_site, expected_reasons):
    verdict = evaluate_plausibility(ON_SITE if on_site else OFF_SITE,
                                    stamp(TUE_10H if in_hours else TUE_02H), office_config())
    assert verdict.reasons == frozenset(expected_reasons)
    assert verdict.plausible == (not expected_reasons)


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        ContextVerdict(plausible=True, reasons=frozenset({ImplausibilityReason.OFF_SITE}))
    with pytest.raises(ValueError):
        ContextVerdict(plausible=False, reasons=frozenset())


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=32))
def test_adding_network_never_revokes_trust(addr_int, extra_net_int, extra_len):
    """Monotonicity: growing trusted_networks cannot turn on_site off."""
    address = IPv4Address(addr_int)
    base = office_config()
    extra = IPv4Network((extra_net_int, extra_len), strict=False)
    grown = office_config(trusted_networks=base.trusted_networks + (extra,))
    before = ImplausibilityReason.OFF_SITE not in reasons(address, TUE_10H, base)
    after = ImplausibilityReason.OFF_SITE not in reasons(address, TUE_10H, grown)
    assert not before or after


def _hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _in_hours_by_datetime(now: datetime, days: frozenset[int], start: time, end: time,
                          tz: timezone) -> bool:
    """Reference oracle: the working-hours check done with datetime objects;
    an `end` of None is the midnight that ends the day."""
    local = now.astimezone(tz)
    return (local.weekday() in days and start <= local.time()
            and (end is None or local.time() < end))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_int_clock_check_matches_the_datetime_reference(data):
    """The integer-microsecond check agrees with `astimezone`, `weekday()` and
    `time()` for any offset, days and minute-aligned window, at any instant
    from 1900 to 2100 and on either side of each window edge."""
    offset = data.draw(st.integers(-(23 * 60 + 59), 23 * 60 + 59), "offset minutes")
    days = data.draw(st.frozensets(st.integers(0, 6), min_size=1), "working days")
    start = data.draw(st.integers(0, 24 * 60 - 2), "start minute")
    end = data.draw(st.integers(start + 1, 24 * 60), "end minute")
    sign = "-" if offset < 0 else "+"
    config = ContextConfig.from_dict({
        "working_days": [name for name, day in WEEKDAYS.items() if day in days],
        "day_start": _hhmm(start), "day_end": _hhmm(end),
        "timezone": sign + _hhmm(abs(offset)), "trusted_networks": ["10.0.0.0/8"]})
    tz = timezone(timedelta(minutes=offset))
    if data.draw(st.booleans(), "at an edge"):
        day = data.draw(st.dates(date(1900, 1, 2), date(2099, 12, 30)))
        edge = data.draw(st.sampled_from((start, end)))
        now = (datetime.combine(day, time(), tz) + timedelta(minutes=edge)
               + timedelta(microseconds=data.draw(st.sampled_from((-1, 0, 1)))))
    else:
        zone = timezone(timedelta(minutes=data.draw(st.integers(-1439, 1439), "zone")))
        now = data.draw(st.datetimes(datetime(1900, 1, 2), datetime(2099, 12, 30),
                                     timezones=st.just(zone)))
    expected = _in_hours_by_datetime(now, days, time(*divmod(start, 60)),
                                     time(*divmod(end, 60)) if end < 24 * 60 else None, tz)
    assert (OUTSIDE_HOURS not in reasons(ON_SITE, now, config)) == expected
