"""Typed physical quantities on fixed canonical units.

Each quantity pins one internal unit (joules, watts, bits, bits per second,
FLOPs, gCO2eq/kWh) and validates at construction, so any value reaching
downstream arithmetic is finite, correctly signed, and on the expected
scale.  Unit conversions happen only at the boundary, through the helpers
at the bottom of this module.
"""

from __future__ import annotations

import sys
from itertools import repeat

from . import _all_of

__all__ = _all_of(__name__)

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


def _beyond_float(value: int, field: str) -> FieldError:
    return FieldError(field, f"too large for floating-point arithmetic "
                             f"({value.bit_length()}-bit integer)")


def _checked_real(value: float, field: str, *, positive: bool = False,
                  maximum: float | None = _LARGEST_FLOAT) -> float:
    """Return ``value`` as a float in [0, maximum], or in (0, maximum] when
    ``positive``; by default that means finite.  With ``maximum=None`` any
    real is kept, NaN and ±inf included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FieldTypeError(field, f"must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise _beyond_float(value, field) from None
    if maximum is None:
        return value
    if not ((0.0 < value if positive else 0.0 <= value) and value <= maximum):
        if maximum == _LARGEST_FLOAT:
            rule = f"{'positive' if positive else 'non-negative'} and finite"
        else:
            rule = f"in {'(' if positive else '['}0, {maximum:g}]"
        raise FieldError(field, f"must be {rule}, got {value!r}")
    return value


def _checked_count(value: int, field: str, minimum: int = 0, maximum: int | None = None) -> int:
    """Return ``value`` if it is an integer that a float can hold, in
    [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FieldTypeError(field, f"must be an integer, got {type(value).__name__}")
    try:
        float(value)
    except OverflowError:
        raise _beyond_float(value, field) from None
    if maximum is not None:
        if not minimum <= value <= maximum:
            raise FieldError(field, f"must be in [{minimum}, {maximum}], got {value}")
    elif value < minimum:
        raise FieldError(field, f"must be >= {minimum}, got {value}")
    return value


def _checked_items(values, field: str, check=None, *args, **kwargs) -> tuple:
    """Return the items of ``values`` as a tuple if it is iterable, each passed
    through ``check(item, f"{field}[i]", *args, **kwargs)`` when one is given."""
    try:
        items = iter(values)
    except TypeError:
        raise FieldTypeError(field, f"must be a sequence, got {type(values).__name__}") from None
    if check is None:
        return tuple(items)
    return tuple([check(item, f"{field}[{i}]", *args, **kwargs) for i, item in enumerate(items)])


def _checked_country(code: str, field: str) -> str:
    """Return ``code`` in upper case if it is two ASCII letters."""
    if not isinstance(code, str) or len(code) != 2 or not code.isascii() or not code.isalpha():
        error = FieldError if isinstance(code, str) else FieldTypeError
        raise error(field, f"must be a two-letter country code, got {code!r}")
    return code.upper()


def _checked_name(name: str) -> str:
    """Return ``name`` if it is a string."""
    if not isinstance(name, str):
        raise FieldTypeError("name", f"expected a string, got {name!r}")
    return name


def _proven(cls, values) -> list:
    """Wrap each of ``values`` in the one-field unit ``cls``, named by
    ``__match_args__``, unchecked: the caller has shown each finite and
    non-negative (``int`` for counts).  No Python frame is entered per value."""
    units = list(map(object.__new__, repeat(cls, len(values))))
    set_field = getattr(cls, cls.__match_args__[0]).__set__
    for unit, value in zip(units, values):
        set_field(unit, value)
    return units


class _Value:
    """Base of the immutable types that validate or convert a field.

    ``__match_args__`` names the fields (each class also takes them as its
    ``__slots__``); ``__init__`` checks each and sets it once through
    ``object.__setattr__``.  Equality, hashing, ``repr``, copying and
    pickling go field by field, as for a frozen dataclass.  A record that
    only stores what it is given is a ``collections.namedtuple`` instead.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()


class Energy(_Value):
    """An amount of energy, stored in joules."""

    __slots__ = __match_args__ = ("joules",)

    def __init__(self, joules: float) -> None:
        object.__setattr__(self, "joules", _checked_real(joules, "energy [J]"))


class Power(_Value):
    """A power draw, stored in watts."""

    __slots__ = __match_args__ = ("watts",)

    def __init__(self, watts: float) -> None:
        object.__setattr__(self, "watts", _checked_real(watts, "power [W]"))


class BitCount(_Value):
    """An exact number of bits; all counting stays in integer arithmetic."""

    __slots__ = __match_args__ = ("bits",)

    def __init__(self, bits: int) -> None:
        object.__setattr__(self, "bits", _checked_count(bits, "bit count"))


class BitRate(_Value):
    """A strictly positive transmission rate in bits per second."""

    __slots__ = __match_args__ = ("bits_per_second",)

    def __init__(self, bits_per_second: float) -> None:
        object.__setattr__(self, "bits_per_second",
                           _checked_real(bits_per_second, "bit rate [b/s]", positive=True))


class FlopCount(_Value):
    """An exact number of floating-point operations."""

    __slots__ = __match_args__ = ("flops",)

    def __init__(self, flops: int) -> None:
        object.__setattr__(self, "flops", _checked_count(flops, "FLOP count"))


class EnergyPerBit(_Value):
    """Energy intensity in joules per bit."""

    __slots__ = __match_args__ = ("joules_per_bit",)

    def __init__(self, joules_per_bit: float) -> None:
        object.__setattr__(self, "joules_per_bit",
                           _checked_real(joules_per_bit, "energy per bit [J/b]"))


class CarbonIntensity(_Value):
    """Grid carbon intensity in grams CO2-equivalent per kWh."""

    __slots__ = __match_args__ = ("grams_co2e_per_kwh",)

    def __init__(self, grams_co2e_per_kwh: float) -> None:
        object.__setattr__(self, "grams_co2e_per_kwh",
                           _checked_real(grams_co2e_per_kwh, "carbon intensity [gCO2eq/kWh]"))


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
