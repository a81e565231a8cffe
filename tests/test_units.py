import inspect
import math

import pytest
from hypothesis import given, strategies as st

import ecal.units
from ecal.carbon import CarbonIntensityRecord
from ecal.mlp_cost import ProcessingUnitProfile
from ecal.transmission import TechnologyProfile
from ecal.units import (
    BitCount,
    CarbonIntensity,
    Energy,
    EnergyPerBit,
    FlopCount,
    FieldError,
    FieldTypeError,
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


@pytest.mark.parametrize("quantity", [Energy, EnergyPerBit, CarbonIntensity])
def test_real_quantities_reject_bad_values(quantity):
    with pytest.raises(ValueError):
        quantity(-1.0)
    with pytest.raises(ValueError):
        quantity(math.nan)
    with pytest.raises(ValueError):
        quantity(math.inf)
    assert quantity(0.0) == quantity(0)


def test_bit_rate_must_be_positive():
    for rate in (0.0, -5.0):
        with pytest.raises(FieldError) as caught:
            _profile(transmit_rate=rate)
        assert str(caught.value) == f"transmit_rate must be positive and finite, got {rate!r}"
    assert _profile(transmit_rate=10**6).transmit_rate == 1e6


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
        (lambda: _profile(transmit_power=10**400), beyond_float("transmit_power", 1329)),
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
                             (lambda: Energy(value), "energy [J]")):
            with pytest.raises(FieldError) as caught:
                build()
            assert str(caught.value) == beyond_float(field, value.bit_length())
    else:
        assert _checked_count(value, "n", minimum=-FLOAT_EDGE) == value


def _profile(**fields):
    valid = dict(name="x", packet_capacity=2000, packet_overhead=168, transmit_power=0.01,
                 transmit_rate=1e6)
    return TechnologyProfile(**{**valid, **fields})


# Which fields hold a unit, and the whole message when one is given the wrong
# kind: a parameter given a unit, or a carbon-intensity record's one unit
# field given a plain number.
FIELD_KINDS = [
    (lambda: _profile(packet_capacity=BitCount(2000)),
     "packet_capacity must be an integer, got BitCount"),
    (lambda: _profile(packet_overhead=BitCount(168)),
     "packet_overhead must be an integer, got BitCount"),
    (lambda: _profile(transmit_power=Energy(0.01)),
     "transmit_power must be a real number, got Energy"),
    (lambda: _profile(transmit_rate=BitCount(10**6)),
     "transmit_rate must be a real number, got BitCount"),
    (lambda: ProcessingUnitProfile(Energy(140.0), 1e10, 1e8),
     "preprocessing_power must be a real number, got Energy"),
    (lambda: CarbonIntensityRecord("DE", "Germany", 2023, 425.0),
     "intensity must be a CarbonIntensity, got float"),
]


@pytest.mark.parametrize("build, message", FIELD_KINDS,
                         ids=[message.split()[0] for _, message in FIELD_KINDS])
def test_unit_fields_must_hold_their_unit(build, message):
    # Else the value is stored, and pricing fails later naming no field.
    with pytest.raises(FieldTypeError) as caught:
        build()
    assert caught.value.field == message.split()[0]
    assert str(caught.value) == message


def test_parameters_are_stored_as_plain_numbers():
    profile = _profile(packet_capacity=2000, transmit_power=1, transmit_rate=10**6)
    assert (profile.packet_capacity, profile.packet_overhead) == (2000, 168)
    assert type(profile.transmit_power) is type(profile.transmit_rate) is float
    assert ProcessingUnitProfile(140, 1e10, 1e8).preprocessing_power == 140.0


# Each unit type, the field it is built from, a valid value and its docstring.
UNIT_TYPES = [
    (Energy, "joules", 1.5, "An amount of energy, stored in joules."),
    (BitCount, "bits", 3, "An exact number of bits; all counting stays in integer arithmetic."),
    (FlopCount, "flops", 5, "An exact number of floating-point operations."),
    (EnergyPerBit, "joules_per_bit", 6e-9, "Energy intensity in joules per bit."),
    (CarbonIntensity, "grams_co2e_per_kwh", 425.0,
     "Grid carbon intensity in grams CO2-equivalent per kWh."),
]


def test_the_unit_types_are_the_five_of_one_table():
    assert list(ecal.units._SETTERS) == [unit for unit, *_ in UNIT_TYPES]
    assert not hasattr(ecal.units, "Power") and not hasattr(ecal.units, "BitRate")


@pytest.mark.parametrize("unit, field, value, doc", UNIT_TYPES,
                         ids=[unit.__name__ for unit, *_ in UNIT_TYPES])
def test_each_unit_type_is_a_class_of_its_own_field(unit, field, value, doc):
    assert list(inspect.signature(unit).parameters) == [field]
    assert unit(**{field: value}) == unit(value)
    built = unit(value)
    assert eval(repr(built), vars(ecal.units)) == built
    assert getattr(ecal.units, unit.__qualname__) is unit  # pickle finds it by this name
    assert unit.__module__ == "ecal.units"
    assert unit.__doc__ == doc


@pytest.mark.parametrize("unit, field, value, doc", UNIT_TYPES,
                         ids=[unit.__name__ for unit, *_ in UNIT_TYPES])
def test_each_unit_type_rejects_bad_arguments_as_python_does(unit, field, value, doc):
    init = f"{unit.__name__}.__init__()"
    for call, message in (
        (lambda: unit(value=value), f"{init} got an unexpected keyword argument 'value'"),
        (lambda: unit(), f"{init} missing 1 required positional argument: '{field}'"),
        (lambda: unit(value, value), f"{init} takes 2 positional arguments but 3 were given"),
    ):
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == message
