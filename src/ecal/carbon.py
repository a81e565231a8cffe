"""Carbon footprint of a scenario from per-country grid carbon intensity.

Footprint is energy in kWh times intensity in gCO2eq/kWh.  Energy is
country-independent in this model, so rankings across countries always
follow the intensity table.
"""

from __future__ import annotations

import csv
import os
from collections import namedtuple
from collections.abc import Iterable
from io import TextIOBase

from . import _all_of
from .lifecycle import Scenario, _gammas, _price
from .units import JOULES_PER_KWH, CarbonIntensity, Energy, _checked_country
from .units import _Value, joules_to_kwh

__all__ = _all_of(__name__)

_CI_HEADER = ["country_code", "country_name", "year", "ci_g_per_kwh"]


class CiTableError(ValueError):
    """A carbon-intensity table could not be parsed, or holds several years of a
    country to price."""


class DuplicateCountryError(CiTableError):
    """Two rows share the same (country_code, year) key."""


class UnknownCountryError(LookupError):
    """A requested country is not present in the loaded intensity table."""


class CarbonIntensityRecord(_Value):
    """Average grid carbon intensity of one country in one year."""

    __slots__ = __match_args__ = ("country_code", "country_name", "year", "intensity")

    def __init__(self, country_code: str, country_name: str, year: int,
                 intensity: CarbonIntensity) -> None:
        object.__setattr__(self, "country_code", _checked_country(country_code, "country_code"))
        object.__setattr__(self, "country_name", country_name)
        object.__setattr__(self, "year", year)
        object.__setattr__(self, "intensity", intensity)


def carbon_footprint(e: Energy, ci: CarbonIntensity) -> float:
    """Grams of CO2-equivalent emitted producing energy ``e`` at intensity ``ci``."""
    return joules_to_kwh(e) * ci.grams_co2e_per_kwh


def load_ci_table(source: str | os.PathLike | TextIOBase) -> tuple[CarbonIntensityRecord, ...]:
    """Load carbon-intensity records from CSV.

    Expects the header ``country_code,country_name,year,ci_g_per_kwh``.
    Raises :class:`CiTableError` naming the offending line on malformed
    rows and :class:`DuplicateCountryError` on repeated (code, year) keys.
    """
    if hasattr(source, "read"):
        return _parse_ci_rows(source)
    with open(source, "r", encoding="utf-8", newline="") as handle:
        return _parse_ci_rows(handle)


def _parse_ci_rows(stream: Iterable[str]) -> tuple[CarbonIntensityRecord, ...]:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CiTableError("carbon-intensity table is empty (missing header)") from None
    if header != _CI_HEADER:
        raise CiTableError(
            f"line 1: expected header {','.join(_CI_HEADER)!r}, got {','.join(header)!r}"
        )
    records: list[CarbonIntensityRecord] = []
    seen: set[tuple[str, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_CI_HEADER):
            raise CiTableError(f"line {lineno}: expected {len(_CI_HEADER)} fields, got {len(row)}")
        code, name, year_text, ci_text = row
        try:
            year = int(year_text)
            intensity = float(ci_text)
        except ValueError:
            raise CiTableError(f"line {lineno}: cannot parse {row!r}") from None
        try:
            record = CarbonIntensityRecord(code, name, year, CarbonIntensity(intensity))
        except ValueError as exc:
            raise CiTableError(f"line {lineno}: {exc}") from None
        key = (record.country_code, record.year)
        if key in seen:
            raise DuplicateCountryError(f"line {lineno}: duplicate entry for {key}")
        seen.add(key)
        records.append(record)
    return tuple(records)


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
    Raises :class:`CiTableError` when a country to price has records for
    more than one year.
    """
    records = tuple(records)
    by_code = {record.country_code: record for record in records}
    if s.countries:
        try:
            chosen = [by_code[code] for code in s.countries]
        except KeyError as exc:
            known = ", ".join(sorted(by_code))
            raise UnknownCountryError(
                f"country {exc.args[0]!r} not in the intensity table (has: {known})"
            ) from None
    else:
        chosen = list(records)
    if len(by_code) < len(records):
        for record in chosen:
            years = [r.year for r in records if r.country_code == record.country_code]
            if len(years) > 1:
                raise CiTableError(
                    f"carbon-intensity table has {len(years)} records for "
                    f"{record.country_code!r} (years {', '.join(map(str, years))}); "
                    f"keep one year per country")
    chosen.sort(key=lambda r: (-r.intensity.grams_co2e_per_kwh, r.country_code))
    p = _price(s)
    gs = _gammas(p, gammas)
    dev_kwh = p.development / JOULES_PER_KWH
    request_kwh = p.request / JOULES_PER_KWH
    countries = []  # the gamma-independent cells of each country's rows
    for record in chosen:
        ci = record.intensity.grams_co2e_per_kwh
        countries.append((record.country_code, record.country_name, record.intensity,
                          dev_kwh * ci, request_kwh * ci, ci))
    dev, request, new = p.development, p.request, tuple.__new__
    kwhs = [(dev + g * request) / JOULES_PER_KWH for g in gs]  # _at's joules, in kWh
    return CarbonReport(tuple([
        new(CarbonReportRow, (g, code, name, intensity, dev_g, inf_g, kwh * ci))
        for g, kwh in zip(gs, kwhs) for code, name, intensity, dev_g, inf_g, ci in countries]))
