"""Carbon footprint of a scenario from per-country grid carbon intensity.

Footprint is energy in kWh times intensity in gCO2eq/kWh.  Energy is
country-independent in this model, so rankings across countries always
follow the intensity table.
"""

from __future__ import annotations

import csv
import math
import os
from collections import namedtuple
from collections.abc import Iterable
from io import StringIO, TextIOBase
from itertools import repeat

from . import _all_of
from .lifecycle import Scenario, _price, _sweep
from .report import _read
from .units import JOULES_PER_KWH, CarbonIntensity, Energy, _checked_count, _checked_country
from .units import _checked_items, _checked_real, _checked_types, _repeated, _unknown, _Value
from .units import joules_to_kwh

__all__ = _all_of(__name__)

_CI_HEADER = ["country_code", "country_name", "year", "ci_g_per_kwh"]


class CiTableError(ValueError):
    """A carbon-intensity table could not be parsed, or lists a country twice."""


class CarbonIntensityRecord(_Value):
    """Average grid carbon intensity of one country in one year."""

    __slots__ = __match_args__ = ("country_code", "country_name", "year", "intensity")

    def __init__(self, country_code: str, country_name: str, year: int,
                 intensity: CarbonIntensity) -> None:
        object.__setattr__(self, "country_code", _checked_country(country_code, "country_code"))
        _checked_types((country_name, "country_name", str),
                       (intensity, "intensity", CarbonIntensity))
        object.__setattr__(self, "country_name", country_name)
        object.__setattr__(self, "year", _checked_count(year, "year"))
        object.__setattr__(self, "intensity", intensity)


def carbon_footprint(energy: Energy, ci: CarbonIntensity) -> float:
    """Grams of CO2-equivalent emitted producing ``energy`` at intensity ``ci``.

    Raises ValueError when the product leaves the floating-point range.
    """
    kwh = joules_to_kwh(energy)
    if not isinstance(ci, CarbonIntensity):
        _checked_types((ci, "ci", CarbonIntensity))
    return _checked_real(kwh * ci.grams_co2e_per_kwh, "carbon footprint [gCO2eq]")


def load_ci_table(source: str | os.PathLike | TextIOBase) -> tuple[CarbonIntensityRecord, ...]:
    """Load carbon-intensity records from a CSV path or text stream.

    Expects the header ``country_code,country_name,year,ci_g_per_kwh`` and
    one row per country, whatever its year.  Raises :class:`CiTableError`
    naming the offending line on a malformed row or on a country's second row,
    and for text that is not UTF-8.
    """
    # Rows split as in a file opened with newline="", as csv expects.
    reader = csv.reader(StringIO(_read(source, "source", CiTableError), newline=""))
    header = next(reader, None)
    if header is None:
        raise CiTableError("carbon-intensity table is empty (missing header)")
    if header != _CI_HEADER:
        raise CiTableError(f"line 1: expected header {','.join(_CI_HEADER)!r}, "
                           f"got {','.join(header)!r}")
    records: dict[str, CarbonIntensityRecord] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_CI_HEADER):
            raise CiTableError(f"line {lineno}: expected {len(_CI_HEADER)} fields, got {len(row)}")
        code, name, year_text, ci_text = row
        try:
            year, intensity = int(year_text), float(ci_text)
        except ValueError:
            raise CiTableError(f"line {lineno}: cannot parse {row!r}") from None
        try:
            record = CarbonIntensityRecord(code, name, year, CarbonIntensity(intensity))
        except ValueError as exc:
            raise CiTableError(f"line {lineno}: {exc}") from None
        if record.country_code in records:
            raise CiTableError(f"line {lineno}: duplicate entry for {record.country_code!r}; "
                               f"keep one row per country")
        records[record.country_code] = record
    return tuple(records.values())


def bundled_ci_table() -> tuple[CarbonIntensityRecord, ...]:
    """The carbon-intensity snapshot shipped with the package (2023 averages)."""
    return load_ci_table(os.path.join(os.path.dirname(__file__), "data", "ci_2023.csv"))


CarbonReportRow = namedtuple("CarbonReportRow", "gamma country_code country_name intensity "
                             "cf_development_g cf_inference_g cf_total_g")
CarbonReportRow.__doc__ = """Footprint of one country at one request count."""

CarbonReport = namedtuple("CarbonReport", "rows")
CarbonReport.__doc__ = """Per-country carbon footprints, grouped by request count."""


def cf_vs_gamma(
    s: Scenario,
    records: Iterable[CarbonIntensityRecord],
    gammas: Iterable[int],
) -> CarbonReport:
    """Carbon footprint per country at each request count in ``gammas``.

    Uses the scenario's country list, or every loaded record when the list
    is empty.  Within one gamma, rows are ordered by descending intensity.
    Raises :class:`~ecal.units.FieldError` on ``records[i]`` when it repeats a
    country, ``LookupError`` when a country to price has no record, and
    ValueError when a footprint leaves the floating-point range.
    """
    p = _price(s)
    records = _checked_items(records, "records")
    if not all(map(isinstance, records, repeat(CarbonIntensityRecord))):
        _checked_types(*[(r, f"records[{i}]", CarbonIntensityRecord)
                         for i, r in enumerate(records)])
    by_code = {record.country_code: record for record in records}
    if len(by_code) < len(records):
        raise _repeated([record.country_code for record in records], "records")
    try:
        chosen = [by_code[code] for code in s.countries] if s.countries else list(records)
    except KeyError as exc:
        raise _unknown("country", exc.args[0], by_code) from None
    chosen.sort(key=lambda r: (-r.intensity.grams_co2e_per_kwh, r.country_code))
    gs, joules, _ = _sweep(p, gammas)
    dev_kwh = p.development / JOULES_PER_KWH
    request_kwh = p.inference_phase / JOULES_PER_KWH
    countries = []  # the gamma-independent cells of each country's rows
    for record in chosen:
        ci = record.intensity.grams_co2e_per_kwh
        countries.append((record.country_code, record.country_name, record.intensity,
                          dev_kwh * ci, request_kwh * ci, ci))
    new, kwhs = tuple.__new__, [j / JOULES_PER_KWH for j in joules]
    # Rows run by descending intensity, and kWh grow with gamma: no cell tops this one.
    if kwhs and countries and max(kwhs) * countries[0][5] == math.inf:
        raise ValueError(f"carbon footprint is not finite in {countries[0][0]!r} at gamma "
                         f"{max(gs)}: {max(kwhs)!r} kWh at {countries[0][5]!r} gCO2eq/kWh")
    return CarbonReport(tuple([
        new(CarbonReportRow, (g, code, name, intensity, dev_g, inf_g, kwh * ci))
        for g, kwh in zip(gs, kwhs) for code, name, intensity, dev_g, inf_g, ci in countries]))
