"""Energy cost of writing a collected dataset to persistent media.

A dataset is charged once, at write time, against the medium's Wh-per-TB
density; later reads for preprocessing or training are free.
"""

from __future__ import annotations

from . import _all_of
from .units import BITS_PER_TERABYTE, JOULES_PER_WH, BitCount, Energy, EnergyPerBit, _Value
from .units import _checked_name, _checked_real, wh_per_tb_to_j_per_bit

__all__ = _all_of(__name__)


class StorageProfile(_Value):
    """A storage medium described by its write energy density in Wh/TB."""

    __slots__ = __match_args__ = ("name", "wh_per_terabyte")

    def __init__(self, name: str, wh_per_terabyte: float) -> None:
        object.__setattr__(self, "name", _checked_name(name))
        object.__setattr__(self, "wh_per_terabyte",
                           _checked_real(wh_per_terabyte, "wh_per_terabyte"))


HDD = StorageProfile("hdd", 0.65)
SSD = StorageProfile("ssd", 1.2)

BUILTIN_STORAGE = {p.name: p for p in (HDD, SSD)}


def storage_profile(name: str) -> StorageProfile:
    """Look up a built-in storage profile by name."""
    try:
        return BUILTIN_STORAGE[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_STORAGE))
        raise KeyError(f"unknown storage medium {name!r}; built-ins: {known}") from None


def storage_energy_per_bit(profile: StorageProfile) -> EnergyPerBit:
    """Write energy per stored bit for the medium."""
    return wh_per_tb_to_j_per_bit(profile.wh_per_terabyte)


def storage_energy(profile: StorageProfile, payload: BitCount) -> Energy:
    """Energy to write ``payload`` bits once to the medium."""
    return Energy(profile.wh_per_terabyte * JOULES_PER_WH / BITS_PER_TERABYTE * payload.bits)
