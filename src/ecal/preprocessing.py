"""Data cleaning and standardization, with a count of the FLOPs performed.

Counting convention: additions, subtractions, multiplications, divisions,
and square roots cost one FLOP each; comparisons and memory moves are free.
Under that convention cleaning costs nothing, min-max scaling costs two
FLOPs per valid sample plus the range subtraction, and normalization costs
six FLOPs per valid sample plus the mean/deviation finalization.

All energy accounting uses the closed-form counts from
:func:`preprocessing_flops`.  Each executable transform counts the literal
operations it performs and returns them as an immutable
:class:`FlopLedger`; the ledgers sit within a small constant of the closed
forms and exist to validate the counting, not to price it.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Sequence

from . import _all_of
from .mlp_cost import ProcessingUnitProfile
from .transmission import PayloadSpec, _bits
from .units import Energy, EnergyPerBit, FieldError, FlopCount, _checked_count, _checked_items
from .units import _checked_real, _checked_types, _unknown, _Value

__all__ = _all_of(__name__)


class StandardizationMethod(enum.Enum):
    """Which standardization step the pipeline applies after cleaning."""

    MINMAX = "minmax"
    NORMALIZATION = "normalization"

    @classmethod
    def _missing_(cls, value: object) -> None:  # an unknown name fails as every other does
        raise _unknown("preprocessing method", value, [method.value for method in cls])


class RawDataset(_Value):
    """A collected sample sequence in which non-finite entries mark invalid data."""

    __slots__ = __match_args__ = ("samples",)

    def __init__(self, samples: Sequence[float]) -> None:
        object.__setattr__(self, "samples",
                           _checked_items(samples, "samples", _checked_real, maximum=None))

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def invalid_count(self) -> int:
        return sum(1 for x in self.samples if not math.isfinite(x))


class FlopLedger(namedtuple("FlopLedger", "additions subtractions multiplications divisions "
                                         "square_roots", defaults=(0, 0, 0, 0, 0))):
    """Operation-by-operation count of one transform call."""

    __slots__ = ()

    @property
    def total(self) -> FlopCount:
        return FlopCount(sum(self))


def clean(data: RawDataset) -> tuple[list[float], FlopCount]:
    """Drop invalid samples, preserving order.

    Pure comparison and memory work, so the FLOP cost is zero.
    """
    if not isinstance(data, RawDataset):
        _checked_types((data, "data", RawDataset))
    valid = [x for x in data.samples if math.isfinite(x)]
    return valid, FlopCount(0)


def _finite(valid: Sequence[float], minimum: int) -> tuple[float, ...]:
    """The samples of ``valid`` as floats, if there are at least ``minimum`` and
    each is finite."""
    valid = _checked_items(valid, "valid", _checked_real, maximum=None)
    if len(valid) < minimum:
        raise FieldError("valid", f"must hold {minimum} or more samples, got {len(valid)}")
    for i, x in enumerate(valid):
        if not math.isfinite(x):
            raise FieldError(f"valid[{i}]", f"must be finite, got {x!r}")
    return valid


def minmax_scale(valid: Sequence[float]) -> tuple[list[float], FlopLedger]:
    """Scale samples into [0, 1] by (x - min) / (max - min).

    Returns the scaled samples and the ledger of operations performed: one
    subtraction for the range, then one subtraction and one division per
    sample.  The min/max search itself is comparisons only.
    """
    valid = _finite(valid, 1)
    low, high = min(valid), max(valid)
    value_range = high - low
    subtractions = 1
    if not 0.0 < value_range < math.inf:
        raise FieldError("valid", f"must span a non-zero, finite range, got {low!r} to {high!r}")
    divisions = 0
    scaled = []
    for x in valid:
        shifted = x - low
        subtractions += 1
        scaled.append(shifted / value_range)
        divisions += 1
    return scaled, FlopLedger(subtractions=subtractions, divisions=divisions)


def normalize(valid: Sequence[float]) -> tuple[list[float], FlopLedger]:
    """Shift and scale samples to zero mean and unit population deviation.

    Three passes: sum for the mean, accumulate squared deviations, then
    normalize each sample.  Both divisors use the valid-sample count.
    """
    valid = _finite(valid, 2)
    n = len(valid)
    additions = subtractions = multiplications = 0
    total = 0.0
    for x in valid:
        total += x
        additions += 1
    mean = total / n
    divisions = 1
    squared_deviations = 0.0
    for x in valid:
        deviation = x - mean
        subtractions += 1
        squared = deviation * deviation
        multiplications += 1
        squared_deviations += squared
        additions += 1
    std_dev = math.sqrt(squared_deviations / n)
    divisions += 1
    square_roots = 1
    if not 0.0 < std_dev < math.inf:
        raise FieldError("valid", f"must have a non-zero, finite standard deviation, "
                                  f"got {std_dev!r}")
    normalized = []
    for x in valid:
        shifted = x - mean
        subtractions += 1
        normalized.append(shifted / std_dev)
        divisions += 1
    return normalized, FlopLedger(additions, subtractions, multiplications, divisions,
                                  square_roots)


def preprocessing_flops(method: StandardizationMethod, n_s: int, n_nan: int) -> FlopCount:
    """Closed-form FLOP count of preprocessing n_s samples with n_nan invalid.

    With v = n_s - n_nan valid samples, min-max scaling costs 2v - 1 FLOPs
    and normalization costs 6v - 3.  This is the count all energy figures
    are priced on.
    """
    if not isinstance(method, StandardizationMethod):
        _checked_types((method, "method", StandardizationMethod))
    _checked_count(n_nan, "n_nan", 0, _checked_count(n_s, "n_s", 1) - 1)  # one valid sample
    return FlopCount(_flops(method, n_s, n_nan))


def _flops(method: StandardizationMethod, n_s: int, n_nan: int) -> int:
    """:func:`preprocessing_flops` of arguments already shown to be of their types."""
    valid = n_s - n_nan
    if valid < 1:
        raise ValueError(
            f"need at least one valid sample, got n_s={n_s} with n_nan={n_nan}"
        )
    if method is StandardizationMethod.MINMAX:
        return 2 * valid - 1
    return 6 * valid - 3


def preprocessing_energy(
    pu: ProcessingUnitProfile, m_pre: FlopCount
) -> tuple[float, Energy]:
    """Execution time in seconds and energy of ``m_pre`` preprocessing FLOPs."""
    if not (isinstance(pu, ProcessingUnitProfile) and isinstance(m_pre, FlopCount)):
        _checked_types((pu, "pu", ProcessingUnitProfile), (m_pre, "m_pre", FlopCount))
    t_pre = m_pre.flops / pu.preprocessing_flops_per_s
    return t_pre, Energy(pu.preprocessing_power * t_pre)


def preprocessing_energy_per_bit(e_pre: Energy, spec: PayloadSpec) -> EnergyPerBit:
    """Preprocessing energy divided by the payload bits it applies to."""
    if not isinstance(e_pre, Energy):
        _checked_types((e_pre, "e_pre", Energy))
    denominator = _checked_count(_bits(spec), "bit count")
    if denominator == 0:
        raise FieldError("spec", "must hold at least one payload bit, got 0 samples")
    return EnergyPerBit(e_pre.joules / denominator)
