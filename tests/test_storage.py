import math

import pytest
from hypothesis import given, strategies as st

from ecal.storage import (
    HDD,
    SSD,
    StorageProfile,
    storage_energy,
    storage_energy_per_bit,
    storage_profile,
)
from ecal.units import BitCount

PAYLOAD_256_DOUBLES = BitCount(16384)


def test_published_dataset_energies():
    assert storage_energy(HDD, PAYLOAD_256_DOUBLES).joules == pytest.approx(4.79e-6, rel=0.01)
    assert storage_energy(SSD, PAYLOAD_256_DOUBLES).joules == pytest.approx(8.85e-6, rel=0.01)
    # Exact values of the 0.65 / 1.2 Wh/TB conversion applied to 16384 bits.
    assert storage_energy(HDD, PAYLOAD_256_DOUBLES).joules == 4.79232e-6
    assert storage_energy(SSD, PAYLOAD_256_DOUBLES).joules == 8.84736e-6


def test_published_per_bit_energies():
    assert storage_energy_per_bit(HDD).joules_per_bit == pytest.approx(2.92e-10, rel=0.01)
    assert storage_energy_per_bit(SSD).joules_per_bit == pytest.approx(5.4e-10, rel=0.01)
    assert storage_energy_per_bit(HDD).joules_per_bit == 2.925e-10
    assert storage_energy_per_bit(SSD).joules_per_bit == 5.4e-10


def test_empty_dataset_costs_nothing():
    assert storage_energy(HDD, BitCount(0)).joules == 0.0
    assert storage_energy_per_bit(StorageProfile("free", 0.0)).joules_per_bit == 0.0


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        StorageProfile("bad", -0.1)


def test_infinite_density_rejected():
    with pytest.raises(ValueError, match="wh_per_terabyte must be non-negative and finite"):
        StorageProfile("x", math.inf)


def test_unknown_profile_name():
    for name in ("tape", [5]):
        with pytest.raises(LookupError) as caught:
            storage_profile(name)
        assert str(caught.value) == f"unknown storage medium {name!r}; known: hdd, ssd"
    assert storage_profile("hdd") is HDD
    assert storage_profile("ssd") is SSD


@given(st.integers(min_value=0, max_value=10**12))
def test_energy_equals_per_bit_times_bits(bits):
    expected = storage_energy_per_bit(HDD).joules_per_bit * bits
    assert storage_energy(HDD, BitCount(bits)).joules == expected


@given(st.integers(min_value=0, max_value=10**11))
def test_doubling_payload_doubles_energy_exactly(bits):
    single = storage_energy(HDD, BitCount(bits)).joules
    assert storage_energy(HDD, BitCount(2 * bits)).joules == 2 * single


@given(
    st.integers(min_value=0, max_value=10**10),
    st.integers(min_value=0, max_value=10**10),
)
def test_linearity_in_payload(a, b):
    # Linear in exact arithmetic; each float product rounds once, so the
    # split evaluation may differ from the joint one by an ulp.
    split = storage_energy(HDD, BitCount(a)).joules + storage_energy(HDD, BitCount(b)).joules
    joint = storage_energy(HDD, BitCount(a + b)).joules
    assert math.isclose(split, joint, rel_tol=1e-15, abs_tol=0.0)
