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
from .transmission import PayloadSpec
from .units import Energy, EnergyPerBit, FlopCount, _checked_count, _checked_items
from .units import _checked_real, _Value

__all__ = _all_of(__name__)


class DegenerateRangeError(ValueError):
    """All samples are equal, so min-max scaling has a zero range."""


class DegenerateDeviationError(ValueError):
    """Samples have zero standard deviation, so normalization is undefined."""


class StandardizationMethod(enum.Enum):
    """Which standardization step the pipeline applies after cleaning."""

    MINMAX = "minmax"
    NORMALIZATION = "normalization"


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
    valid = [x for x in data.samples if math.isfinite(x)]
    return valid, FlopCount(0)


def minmax_scale(valid: Sequence[float]) -> tuple[list[float], FlopLedger]:
    """Scale samples into [0, 1] by (x - min) / (max - min).

    Returns the scaled samples and the ledger of operations performed: one
    subtraction for the range, then one subtraction and one division per
    sample.  The min/max search itself is comparisons only.
    """
    if len(valid) == 0:
        raise ValueError("minmax_scale needs at least one sample")
    low = valid[0]
    high = valid[0]
    for x in valid[1:]:
        if x < low:
            low = x
        if x > high:
            high = x
    value_range = high - low
    subtractions = 1
    if value_range == 0.0:
        raise DegenerateRangeError(
            f"all {len(valid)} samples equal {low!r}; min-max range is zero"
        )
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
    n = len(valid)
    if n < 2:
        raise ValueError(f"normalize needs at least two samples, got {n}")
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
    if std_dev == 0.0:
        raise DegenerateDeviationError(
            f"all {n} samples equal {valid[0]!r}; standard deviation is zero"
        )
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
    _checked_count(n_s, "n_s")
    _checked_count(n_nan, "n_nan")
    return FlopCount(_flops(method, n_s, n_nan))


def _flops(method: StandardizationMethod, n_s: int, n_nan: int) -> int:
    """:func:`preprocessing_flops` of counts already shown to be integers."""
    valid = n_s - n_nan
    if valid < 1:
        raise ValueError(
            f"need at least one valid sample, got n_s={n_s} with n_nan={n_nan}"
        )
    if method is StandardizationMethod.MINMAX:
        return 2 * valid - 1
    if method is StandardizationMethod.NORMALIZATION:
        return 6 * valid - 3
    raise TypeError(f"unknown standardization method: {method!r}")


def preprocessing_energy(
    pu: ProcessingUnitProfile, m_pre: FlopCount
) -> tuple[float, Energy]:
    """Execution time in seconds and energy of ``m_pre`` preprocessing FLOPs."""
    t_pre = m_pre.flops / pu.preprocessing_flops_per_s
    return t_pre, Energy(pu.preprocessing_power.watts * t_pre)


def preprocessing_energy_per_bit(e_pre: Energy, spec: PayloadSpec) -> EnergyPerBit:
    """Preprocessing energy divided by the payload bits it applies to."""
    denominator = _checked_count(spec.bits_per_sample * spec.sample_count, "bit count")
    if denominator == 0:
        raise ValueError("per-bit preprocessing energy is undefined for an empty payload")
    return EnergyPerBit(e_pre.joules / denominator)
