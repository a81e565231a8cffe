import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

import ecal
from ecal.transmission import (
    BLE5,
    LORAWAN,
    PayloadSpec,
    TechnologyProfile,
    ZIGBEE,
    cumulative_transmission_energy,
    fixed_overhead_profile,
    packet_count,
    payload_bits,
    technology_profile,
    transmission_energy,
    transmission_energy_per_bit,
    transmitted_bits,
    without_packet_override,
)
from ecal.units import BitCount, BitRate, FieldError, FieldTypeError, Power

DOUBLE_256 = PayloadSpec(64, 256)


def test_payload_bits():
    assert payload_bits(DOUBLE_256).bits == 16384
    assert payload_bits(PayloadSpec(32, 256)).bits == 8192
    assert payload_bits(PayloadSpec(64, 0)).bits == 0


def test_packet_counts_for_builtin_profiles():
    assert packet_count(BLE5, DOUBLE_256) == 8
    assert packet_count(ZIGBEE, DOUBLE_256) == 13
    # The bundled LoRaWAN profile pins 9 packets; the pure capacity rule
    # (ceil(16384 / 2048)) yields 8.
    assert packet_count(LORAWAN, DOUBLE_256) == 9
    assert packet_count(without_packet_override(LORAWAN), DOUBLE_256) == 8
    assert without_packet_override(BLE5) is BLE5  # nothing pinned, nothing to drop


def test_packet_count_empty_payload_is_zero_even_with_override():
    assert packet_count(LORAWAN, PayloadSpec(64, 0)) == 0


def test_packet_override_must_cover_payload():
    with pytest.raises(ValueError):
        packet_count(LORAWAN, PayloadSpec(64, 512))  # needs 16 > 9 packets


def test_transmit_power_must_be_positive():
    with pytest.raises(ValueError, match="transmit_power"):
        TechnologyProfile("mute", BitCount(2000), BitCount(100), Power(0.0), BitRate(1e3))


def test_transmitted_bits_published_values():
    assert transmitted_bits(BLE5, DOUBLE_256).bits == 17728
    assert transmitted_bits(ZIGBEE, DOUBLE_256).bits == 19920
    assert transmitted_bits(LORAWAN, DOUBLE_256).bits == 18796
    assert transmitted_bits(without_packet_override(LORAWAN), DOUBLE_256).bits == 18528


def test_transmitted_bits_generic_overhead_profiles():
    assert transmitted_bits(fixed_overhead_profile(1.0), DOUBLE_256).bits == 16564
    assert transmitted_bits(fixed_overhead_profile(70.0), DOUBLE_256).bits == 28984


def test_overhead_fractions_match_published_table():
    published = {"ble5": 7.93, "zigbee": 21.12, "lorawan": 13.09}
    for name, expected_pct in published.items():
        profile = technology_profile(name)
        pct = 100.0 * profile.packet_overhead.bits / profile.packet_capacity.bits
        assert abs(pct - expected_pct) < 0.01


def test_transmission_energy_worked_example():
    # 256 double samples, 2000-bit packets, P=10 mW, R=1e3 b/s.
    low = fixed_overhead_profile(1.0)
    high = fixed_overhead_profile(70.0)
    e_low = transmission_energy(low, transmitted_bits(low, DOUBLE_256))
    e_high = transmission_energy(high, transmitted_bits(high, DOUBLE_256))
    assert e_low.joules == pytest.approx(0.16564, rel=1e-15)
    assert e_high.joules == pytest.approx(0.28984, rel=1e-15)
    # Per-bit cost is payload-independent and identical for both.
    assert transmission_energy_per_bit(low).joules_per_bit == 1e-5
    assert transmission_energy_per_bit(high).joules_per_bit == 1e-5


def test_transmission_energy_zero_bits():
    assert transmission_energy(BLE5, BitCount(0)).joules == 0.0


def test_energy_per_bit_published_values():
    assert transmission_energy_per_bit(BLE5).joules_per_bit == 3.1628e-9
    assert transmission_energy_per_bit(ZIGBEE).joules_per_bit == 4.0e-8
    assert transmission_energy_per_bit(LORAWAN).joules_per_bit == 2.0e-6


def test_unknown_technology_name():
    with pytest.raises(KeyError):
        technology_profile("wifi7")


def test_cumulative_series_ble_two_minutes():
    series = cumulative_transmission_energy(BLE5, DOUBLE_256, 60.0, 120.0)
    e_t = transmission_energy(BLE5, transmitted_bits(BLE5, DOUBLE_256)).joules
    assert [t for t, _ in series] == [0.0, 60.0, 120.0]
    assert series[0][1].joules == 0.0
    assert series[1][1].joules == e_t
    assert series[1][1].joules == pytest.approx(5.607e-5, rel=1e-3)
    assert series[2][1].joules == 2 * e_t


def test_cumulative_series_single_transmission():
    series = cumulative_transmission_energy(BLE5, DOUBLE_256, 60.0, 60.0)
    assert len(series) == 2
    assert series[-1][1].joules == transmission_energy(
        BLE5, transmitted_bits(BLE5, DOUBLE_256)
    ).joules


def test_cumulative_series_zigbee_full_day():
    series = cumulative_transmission_energy(ZIGBEE, DOUBLE_256, 60.0, 86400.0)
    assert len(series) == 1441
    per_transfer = 19920 * 4.0e-8
    # 1440 transmissions/day at one per minute.
    assert series[-1][1].joules == 1440 * per_transfer
    assert series[-1][1].joules == pytest.approx(1.147392, rel=1e-12)


def test_cumulative_series_rejects_bad_intervals():
    with pytest.raises(ValueError):
        cumulative_transmission_energy(BLE5, DOUBLE_256, 0.0, 60.0)
    with pytest.raises(ValueError):
        cumulative_transmission_energy(BLE5, DOUBLE_256, -1.0, 60.0)
    with pytest.raises(ValueError):
        cumulative_transmission_energy(BLE5, DOUBLE_256, 120.0, 60.0)


profiles = st.sampled_from([BLE5, ZIGBEE, without_packet_override(LORAWAN)])
payloads = st.builds(
    PayloadSpec,
    st.sampled_from([32, 64]),
    st.integers(min_value=0, max_value=4096),
)


@given(profiles, payloads)
def test_transmitted_at_least_payload(profile, spec):
    total = transmitted_bits(profile, spec).bits
    payload = payload_bits(spec).bits
    assert total >= payload
    if profile.packet_overhead.bits > 0 and spec.sample_count > 0:
        assert total > payload
    else:
        assert total == payload


@given(payloads)
def test_equality_holds_for_zero_overhead(spec):
    zero = TechnologyProfile(
        "zero", BitCount(2000), BitCount(0), Power(1e-3), BitRate(1e3)
    )
    assert transmitted_bits(zero, spec).bits == payload_bits(spec).bits


@given(profiles, st.sampled_from([32, 64]), st.integers(min_value=0, max_value=4000))
def test_transmitted_bits_monotone_in_sample_count(profile, alpha, n):
    smaller = transmitted_bits(profile, PayloadSpec(alpha, n)).bits
    larger = transmitted_bits(profile, PayloadSpec(alpha, n + 1)).bits
    assert larger >= smaller


@given(profiles, st.integers(min_value=0, max_value=10**9))
def test_energy_equals_per_bit_times_bits(profile, bits):
    # Same arithmetic path, so the identity is bit-for-bit.
    expected = transmission_energy_per_bit(profile).joules_per_bit * bits
    assert transmission_energy(profile, BitCount(bits)).joules == expected


@given(profiles, st.integers(min_value=1, max_value=500))
def test_cumulative_series_is_affine(profile, k):
    series = cumulative_transmission_energy(BLE5, DOUBLE_256, 1.0, float(k))
    point_one = series[1][1].joules
    assert series[k][1].joules == k * point_one


@pytest.mark.parametrize("pct, error, message", [
    (math.inf, FieldError, "overhead_pct must be in [0, 100], got inf"),
    (math.nan, FieldError, "overhead_pct must be in [0, 100], got nan"),
    (-5, FieldError, "overhead_pct must be in [0, 100], got -5.0"),
    (150, FieldError, "overhead_pct must be in [0, 100], got 150.0"),
    ("5", FieldTypeError, "overhead_pct must be a real number, got str"),
], ids=["inf", "nan", "negative", "over 100", "string"])
def test_fixed_overhead_profile_checks_the_percentage(pct, error, message):
    with pytest.raises(error) as caught:
        fixed_overhead_profile(pct)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_fixed_overhead_profile_accepts_the_whole_percentage_range():
    assert fixed_overhead_profile(0).packet_overhead.bits == 0
    assert fixed_overhead_profile(100).packet_overhead.bits == 2000
    assert fixed_overhead_profile(30).name == fixed_overhead_profile(30.0).name == "generic_30pct"


@pytest.mark.parametrize("interval_s, horizon_s, message", [
    (1.0, math.inf, "horizon_s must be positive and finite, got inf"),
    (1.0, math.nan, "horizon_s must be positive and finite, got nan"),
    (math.nan, 60.0, "interval_s must be positive and finite, got nan"),
    (0.0, 60.0, "interval_s must be positive and finite, got 0.0"),
    (120.0, 60.0, "interval_s (120.0) must not exceed horizon_s (60.0)"),
], ids=["inf horizon", "nan horizon", "nan interval", "zero interval", "interval over horizon"])
def test_cumulative_series_names_the_bad_time(interval_s, horizon_s, message):
    with pytest.raises(FieldError) as caught:
        cumulative_transmission_energy(BLE5, DOUBLE_256, interval_s, horizon_s)
    assert str(caught.value) == message


def test_a_series_past_the_point_cap_is_rejected_before_it_is_allocated():
    # Building such a series would exhaust memory, so the calls run in a child
    # process whose address space is capped at 512 MB: a regression fails
    # there with MemoryError instead of growing on the host.
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
        from ecal.transmission import BLE5, PayloadSpec, cumulative_transmission_energy
        for interval_s, horizon_s in ((1.0, 1e6), (1e-300, 1.0)):
            try:
                cumulative_transmission_energy(BLE5, PayloadSpec(64, 256), interval_s, horizon_s)
            except ValueError as exc:
                print(type(exc).__name__, exc)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ecal.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "FieldError horizon_s gives 1000001 points at interval_s=1.0, over the maximum of 1000000",
        "FieldError horizon_s gives 1e+300 points at interval_s=1e-300, "
        "over the maximum of 1000000",
    ]
