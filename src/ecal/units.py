"""Typed physical quantities on fixed canonical units.

Each quantity pins one internal unit (joules, watts, bits, bits per second,
FLOPs, gCO2eq/kWh) and validates at construction, so any value reaching
downstream arithmetic is finite, correctly signed, and on the expected
scale.  Unit conversions happen only at the boundary, through the helpers
at the bottom of this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "Energy",
    "Power",
    "BitCount",
    "BitRate",
    "FlopCount",
    "EnergyPerBit",
    "CarbonIntensity",
    "JOULES_PER_KWH",
    "JOULES_PER_WH",
    "BITS_PER_TERABYTE",
    "joules_to_kwh",
    "kwh_to_joules",
    "wh_per_tb_to_j_per_bit",
]

JOULES_PER_KWH = 3.6e6
JOULES_PER_WH = 3600.0
# Storage densities are quoted per decimal terabyte (10^12 bytes).
BITS_PER_TERABYTE = 8e12
_LARGEST_FLOAT = sys.float_info.max


class FieldError(ValueError):
    """A value broke the rule of the field it was given for.

    ``field`` names the attribute or argument, ``reason`` the rule and the
    offending value; ``str()`` reads ``"<field> <reason>"``.
    """

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


class FieldTypeError(FieldError, TypeError):
    """A value of the wrong type for its field."""


def _checked_real(value: float, field: str, *, positive: bool = False,
                  maximum: float = _LARGEST_FLOAT) -> float:
    """Return ``value`` as a float in [0, maximum], or in (0, maximum] when
    ``positive``; by default that means finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FieldTypeError(field, f"must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not ((0.0 < value if positive else 0.0 <= value) and value <= maximum):
        if maximum == _LARGEST_FLOAT:
            rule = f"{'positive' if positive else 'non-negative'} and finite"
        else:
            rule = f"in {'(' if positive else '['}0, {maximum:g}]"
        raise FieldError(field, f"must be {rule}, got {value!r}")
    return value


def _checked_count(value: int, field: str, minimum: int = 0, maximum: int | None = None) -> int:
    """Return ``value`` if it is an integer in [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FieldTypeError(field, f"must be an integer, got {type(value).__name__}")
    if maximum is not None:
        if not minimum <= value <= maximum:
            raise FieldError(field, f"must be in [{minimum}, {maximum}], got {value}")
    elif value < minimum:
        raise FieldError(field, f"must be >= {minimum}, got {value}")
    return value


def _proven(cls, value):
    """Wrap ``value`` in the one-field unit ``cls``, named by ``__match_args__``,
    unchecked: the caller has shown it finite and non-negative (``int`` for counts)."""
    unit = object.__new__(cls)
    object.__setattr__(unit, cls.__match_args__[0], value)
    return unit


@dataclass(frozen=True)
class Energy:
    """An amount of energy, stored in joules."""

    joules: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "joules", _checked_real(self.joules, "energy [J]"))

    def __add__(self, other: "Energy") -> "Energy":
        if not isinstance(other, Energy):
            return NotImplemented
        return Energy(self.joules + other.joules)

    def __mul__(self, factor: float) -> "Energy":
        if isinstance(factor, bool) or not isinstance(factor, (int, float)):
            return NotImplemented
        return Energy(self.joules * factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor: float) -> "Energy":
        if isinstance(divisor, bool) or not isinstance(divisor, (int, float)):
            return NotImplemented
        return Energy(self.joules / divisor)


@dataclass(frozen=True)
class Power:
    """A power draw, stored in watts."""

    watts: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "watts", _checked_real(self.watts, "power [W]"))


@dataclass(frozen=True)
class BitCount:
    """An exact number of bits; all counting stays in integer arithmetic."""

    bits: int

    def __post_init__(self) -> None:
        _checked_count(self.bits, "bit count")

    def __add__(self, other: "BitCount") -> "BitCount":
        if not isinstance(other, BitCount):
            return NotImplemented
        return BitCount(self.bits + other.bits)

    def __mul__(self, factor: int) -> "BitCount":
        if isinstance(factor, bool) or not isinstance(factor, int):
            return NotImplemented
        return BitCount(self.bits * factor)

    __rmul__ = __mul__


@dataclass(frozen=True)
class BitRate:
    """A strictly positive transmission rate in bits per second."""

    bits_per_second: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "bits_per_second",
            _checked_real(self.bits_per_second, "bit rate [b/s]", positive=True),
        )


@dataclass(frozen=True)
class FlopCount:
    """An exact number of floating-point operations."""

    flops: int

    def __post_init__(self) -> None:
        _checked_count(self.flops, "FLOP count")


@dataclass(frozen=True)
class EnergyPerBit:
    """Energy intensity in joules per bit."""

    joules_per_bit: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "joules_per_bit", _checked_real(self.joules_per_bit, "energy per bit [J/b]")
        )


@dataclass(frozen=True)
class CarbonIntensity:
    """Grid carbon intensity in grams CO2-equivalent per kWh."""

    grams_co2e_per_kwh: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "grams_co2e_per_kwh",
            _checked_real(self.grams_co2e_per_kwh, "carbon intensity [gCO2eq/kWh]"),
        )


def joules_to_kwh(energy: Energy) -> float:
    """Convert an energy to kilowatt-hours."""
    return energy.joules / JOULES_PER_KWH


def kwh_to_joules(kwh: float) -> Energy:
    """Convert kilowatt-hours to an energy quantity."""
    return Energy(kwh * JOULES_PER_KWH)


def wh_per_tb_to_j_per_bit(wh_per_terabyte: float) -> EnergyPerBit:
    """Convert a storage density quoted in Wh per terabyte to joules per bit.

    Uses decimal terabytes (10^12 bytes = 8e12 bits), the convention the
    published per-TB storage figures are quoted in.
    """
    density = _checked_real(wh_per_terabyte, "storage density [Wh/TB]")
    return EnergyPerBit(density * JOULES_PER_WH / BITS_PER_TERABYTE)
