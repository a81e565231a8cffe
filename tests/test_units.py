import math

import pytest
from hypothesis import given, strategies as st

from ecal.units import (
    BitCount,
    BitRate,
    CarbonIntensity,
    Energy,
    EnergyPerBit,
    FlopCount,
    FieldError,
    Power,
    _checked_count,
    joules_to_kwh,
    kwh_to_joules,
    wh_per_tb_to_j_per_bit,
)


def test_joules_to_kwh_definition():
    assert joules_to_kwh(Energy(3.6e6)) == 1.0
    assert joules_to_kwh(Energy(0.0)) == 0.0


def test_joules_to_kwh_small_energy():
    # Oracle: 0.0264 / 3.6e6 evaluated independently.
    assert joules_to_kwh(Energy(0.0264)) == 0.0264 / 3.6e6
    assert joules_to_kwh(Energy(0.0264)) == pytest.approx(7.333e-9, rel=1e-3)


@given(st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
def test_kwh_round_trip(kwh):
    assert joules_to_kwh(kwh_to_joules(kwh)) == pytest.approx(kwh, rel=1e-12)


def test_wh_per_tb_conversion():
    # 0.65 Wh/TB = 0.65 * 3600 J / 8e12 b; matches the published per-bit
    # figures 2.92e-10 and 5.4e-10 at their printed precision.
    assert wh_per_tb_to_j_per_bit(0.65).joules_per_bit == 2.925e-10
    assert wh_per_tb_to_j_per_bit(1.2).joules_per_bit == 5.4e-10
    assert wh_per_tb_to_j_per_bit(0.0).joules_per_bit == 0.0
    assert wh_per_tb_to_j_per_bit(0.65).joules_per_bit == pytest.approx(2.92e-10, rel=0.01)


def test_wh_per_tb_rejects_negative():
    with pytest.raises(ValueError):
        wh_per_tb_to_j_per_bit(-0.1)


@pytest.mark.parametrize("quantity", [Energy, Power, EnergyPerBit, CarbonIntensity])
def test_real_quantities_reject_bad_values(quantity):
    with pytest.raises(ValueError):
        quantity(-1.0)
    with pytest.raises(ValueError):
        quantity(math.nan)
    with pytest.raises(ValueError):
        quantity(math.inf)
    assert quantity(0.0) == quantity(0)


def test_bit_rate_must_be_positive():
    with pytest.raises(ValueError):
        BitRate(0.0)
    with pytest.raises(ValueError):
        BitRate(-5.0)
    assert BitRate(1e6).bits_per_second == 1e6


@pytest.mark.parametrize("quantity", [BitCount, FlopCount])
def test_counts_are_strict_integers(quantity):
    with pytest.raises(TypeError):
        quantity(1.5)
    with pytest.raises(TypeError):
        quantity(True)
    with pytest.raises(ValueError):
        quantity(-1)
    assert quantity(0) == quantity(0)


def test_units_carry_no_arithmetic():
    # Equations compute on the plain numbers units hold, never on units.
    with pytest.raises(TypeError):
        Energy(1.0) + Energy(1.0)  # type: ignore[operator]
    with pytest.raises(TypeError):
        BitCount(1) * 2  # type: ignore[operator]


def test_quantities_are_immutable():
    e = Energy(1.0)
    with pytest.raises(AttributeError):
        e.joules = 2.0  # type: ignore[misc]


# The least integer that float() rounds past the largest float.
FLOAT_EDGE = 2**1024 - 2**970


def beyond_float(field, bits):
    """The reason a count or real checker gives for an integer past FLOAT_EDGE."""
    return f"{field} too large for floating-point arithmetic ({bits}-bit integer)"


def test_counts_are_held_to_the_float_range():
    assert BitCount(FLOAT_EDGE - 1).bits == FLOAT_EDGE - 1
    for build, message in (
        (lambda: BitCount(FLOAT_EDGE), beyond_float("bit count", 1024)),
        (lambda: FlopCount(-FLOAT_EDGE), beyond_float("FLOP count", 1024)),
        # The float range is checked before the minimum.
        (lambda: _checked_count(-10**400, "n", 0), beyond_float("n", 1329)),
        (lambda: Power(10**400), beyond_float("power [W]", 1329)),
        (lambda: Energy(-10**400), beyond_float("energy [J]", 1329)),
    ):
        with pytest.raises(FieldError) as caught:
            build()
        assert str(caught.value) == message


@given(st.integers(-3, 3).map(lambda step: FLOAT_EDGE + step) | st.integers(-10**400, 10**400),
       st.booleans())
def test_the_float_range_verdict_is_floats_own(value, negate):
    value = -value if negate else value
    try:
        float(value)
    except OverflowError:
        for build, field in ((lambda: _checked_count(value, "n", minimum=-FLOAT_EDGE), "n"),
                             (lambda: Power(value), "power [W]")):
            with pytest.raises(FieldError) as caught:
                build()
            assert str(caught.value) == beyond_float(field, value.bit_length())
    else:
        assert _checked_count(value, "n", minimum=-FLOAT_EDGE) == value
