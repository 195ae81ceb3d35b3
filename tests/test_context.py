from __future__ import annotations

from datetime import datetime, time, timezone
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxradius.context import (
    ConfigError,
    ContextConfig,
    ContextVerdict,
    ImplausibilityReason,
    evaluate_plausibility,
    parse_utc_offset,
)

UTC = timezone.utc


def office_config(**overrides) -> ContextConfig:
    kwargs = dict(
        working_days=frozenset(range(5)),  # Mon-Fri
        day_start=time(8, 0),
        day_end=time(18, 0),
        utc_offset=UTC,
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
    return evaluate_plausibility(address, now, config or office_config()).reasons


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
    cfg = office_config(utc_offset=parse_utc_offset("+02:00"))
    late = datetime(2026, 8, 4, 17, 30, tzinfo=UTC)
    assert reasons(ON_SITE, late, cfg) == {OUTSIDE_HOURS}
    assert reasons(ON_SITE, late) == frozenset()


def test_determinism():
    args = (IPv4Address("10.1.2.3"), TUE_10H, office_config())
    assert evaluate_plausibility(*args) is evaluate_plausibility(*args)


@pytest.mark.parametrize("bad", [
    dict(working_days=frozenset()),
    dict(day_start=time(18, 0), day_end=time(8, 0)),
    dict(day_start=time(9, 0), day_end=time(9, 0)),
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
    assert cfg.day_start == time(8, 30)
    assert cfg.utc_offset.utcoffset(None).total_seconds() == -5 * 3600
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


@pytest.mark.parametrize("text", ["utc", "+2:00", "+0200", "+aa:bb"])
def test_bad_offset_rejected(text):
    with pytest.raises(ConfigError):
        parse_utc_offset(text)


@pytest.mark.parametrize("in_hours,on_site,expected_reasons", [
    (True, True, set()),
    (False, True, {OUTSIDE_HOURS}),
    (True, False, {ImplausibilityReason.OFF_SITE}),
    (False, False, {OUTSIDE_HOURS, ImplausibilityReason.OFF_SITE}),
])
def test_plausibility_truth_table(in_hours, on_site, expected_reasons):
    verdict = evaluate_plausibility(ON_SITE if on_site else OFF_SITE,
                                    TUE_10H if in_hours else TUE_02H, office_config())
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
