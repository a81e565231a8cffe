"""Typed physical quantities on fixed canonical units, and the field checkers.

Units type the figures the model computes (joules, bits, FLOPs, joules per
bit) and the grid carbon intensity (gCO2eq/kWh); the parameters a model is
given are plain numbers that their owning constructor checks once.  Each
quantity validates at construction, so any value reaching downstream
arithmetic is finite, non-negative, and on the expected scale; the five unit
types are one table, and only ``_proven`` skips the check.  Conversions
happen only at the boundary: the helpers at the bottom convert one value;
``carbon`` and ``lifecycle`` use the constants.
"""

from __future__ import annotations

import sys
from itertools import repeat, starmap

from . import _all_of

__all__ = _all_of(__name__)

JOULES_PER_KWH = 3.6e6
JOULES_PER_WH = 3600.0
# Storage densities are quoted per decimal terabyte (10^12 bytes).
BITS_PER_TERABYTE = 8e12
_LARGEST_FLOAT = sys.float_info.max
_SETTERS = {}  # the setter of each unit type's one field, kept by _unit for _proven


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


def _checked_types(*checks: tuple) -> None:
    """Raise for the first ``(value, field, cls)`` of ``checks`` whose value is
    not a ``cls``; one call checks every field of a constructor."""
    for value, field, cls in checks:
        if not isinstance(value, cls):
            raise FieldTypeError(field, f"must be a {cls.__name__}, got {type(value).__name__}")


def _unknown(what: str, name: object, names) -> LookupError:
    """The one error for a ``name`` a user typed that is not among ``names``
    (a table's keys, listed in its order): ``unknown <what> <name!r>; known: …``."""
    return LookupError(f"unknown {what} {name!r}; known: {', '.join(names)}")


def _repeated(codes: tuple[str, ...] | list[str], field: str) -> FieldError:
    """The one error for ``codes``, listed as ``field``, that hold a code twice:
    ``<field>[i] repeats <code!r>`` at the code's second place."""
    i = next(i for i, code in enumerate(codes) if code in codes[:i])
    return FieldError(f"{field}[{i}]", f"repeats {codes[i]!r}")


def _checked_country(code: str, field: str) -> str:
    """Return ``code`` in upper case if it is two ASCII letters."""
    if not isinstance(code, str) or len(code) != 2 or not code.isascii() or not code.isalpha():
        error = FieldError if isinstance(code, str) else FieldTypeError
        raise error(field, f"must be a two-letter country code, got {code!r}")
    return code.upper()


def _proven(cls, values) -> list:
    """Wrap each of ``values``, unchecked, in the one-field unit ``cls``, or in its
    own class when ``cls`` holds one per value: the caller has shown each finite and
    non-negative (``int`` for counts).  No Python frame is entered per value."""
    one = isinstance(cls, type)
    setters = repeat(_SETTERS[cls]) if one else map(_SETTERS.__getitem__, cls)
    units = list(map(object.__new__, repeat(cls, len(values)) if one else cls))
    for set_field, unit, value in zip(setters, units, values):
        set_field(unit, value)
    return units


class _Value:
    """Base of the immutable types that validate or convert a field.

    ``__match_args__`` names the fields (each class also takes them as its
    ``__slots__``); ``__init__`` checks each and sets it once through
    ``object.__setattr__``.  Equality, hashing, ``repr``, copying, pickling
    and ``__replace__`` go field by field, as for a frozen dataclass.  A record that
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

    def __replace__(self, **changes) -> _Value:  # copy.replace on Python 3.13+
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))


def _unit(name: str, field: str, label: str, check, doc: str) -> type:
    """The ``_Value`` type ``name`` whose one field, ``field``, holds ``check(field,
    label)``: a non-negative real or count.  No source is compiled: ``__init__`` is
    one closure whose argument is renamed to ``field``, so ``field`` is its keyword
    and Python's own argument errors name it."""
    def __init__(self, value):
        set_field(self, check(value, label))

    __init__.__code__ = __init__.__code__.replace(co_varnames=("self", field))
    __init__.__qualname__ = f"{name}.__init__"
    cls = type(name, (_Value,), {"__doc__": doc, "__slots__": (field,),
                                 "__match_args__": (field,), "__init__": __init__})
    set_field = _SETTERS[cls] = getattr(cls, field).__set__
    return cls


Energy, BitCount, FlopCount, EnergyPerBit, CarbonIntensity = starmap(_unit, (
    ("Energy", "joules", "energy [J]", _checked_real, "An amount of energy, stored in joules."),
    ("BitCount", "bits", "bit count", _checked_count,
     "An exact number of bits; all counting stays in integer arithmetic."),
    ("FlopCount", "flops", "FLOP count", _checked_count,
     "An exact number of floating-point operations."),
    ("EnergyPerBit", "joules_per_bit", "energy per bit [J/b]", _checked_real,
     "Energy intensity in joules per bit."),
    ("CarbonIntensity", "grams_co2e_per_kwh", "carbon intensity [gCO2eq/kWh]", _checked_real,
     "Grid carbon intensity in grams CO2-equivalent per kWh."),
))


def joules_to_kwh(energy: Energy) -> float:
    """Convert an energy to kilowatt-hours."""
    if not isinstance(energy, Energy):
        _checked_types((energy, "energy", Energy))
    return energy.joules / JOULES_PER_KWH


def kwh_to_joules(kwh: float) -> Energy:
    """Convert kilowatt-hours to an energy quantity."""
    return Energy(_checked_real(kwh, "kwh") * JOULES_PER_KWH)


def wh_per_tb_to_j_per_bit(wh_per_terabyte: float) -> EnergyPerBit:
    """Convert a storage density quoted in Wh per terabyte to joules per bit.

    Uses decimal terabytes (10^12 bytes = 8e12 bits), the convention the
    published per-TB storage figures are quoted in.
    """
    density = _checked_real(wh_per_terabyte, "storage density [Wh/TB]")
    return EnergyPerBit(density * JOULES_PER_WH / BITS_PER_TERABYTE)
