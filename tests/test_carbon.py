import io
import json
import math
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from ecal.carbon import (
    CarbonIntensityRecord,
    CarbonReportRow,
    CiTableError,
    bundled_ci_table,
    carbon_footprint,
    cf_vs_gamma,
    load_ci_table,
)
from ecal.cli import run
from ecal.lifecycle import default_scenario, development_energy, ecal_abs, inference_phase_energy
from ecal.units import JOULES_PER_KWH, CarbonIntensity, Energy, FieldError, FieldTypeError

CI_HEADER = "country_code,country_name,year,ci_g_per_kwh\n"


def test_carbon_footprint_unit_case():
    assert carbon_footprint(energy=Energy(3.6e6), ci=CarbonIntensity(425.0)) == 425.0
    assert carbon_footprint(Energy(3.6e6), CarbonIntensity(425.0)) == 425.0
    assert carbon_footprint(Energy(0.0), CarbonIntensity(425.0)) == 0.0


def test_country_ratio_is_intensity_ratio():
    germany = CarbonIntensity(425.0)
    finland = CarbonIntensity(92.0)
    for joules in (1.0, 0.0264, 3.6e6, 123.456):
        e = Energy(joules)
        ratio = carbon_footprint(e, germany) / carbon_footprint(e, finland)
        assert ratio == pytest.approx(425.0 / 92.0, rel=1e-12)
        assert abs(ratio - 4.62) <= 0.01


def test_footprint_scaling_is_bilinear():
    e = Energy(0.0264)
    ci = CarbonIntensity(239.0)
    base = carbon_footprint(e, ci)
    # Power-of-two factors scale exactly; arbitrary factors to rounding.
    assert carbon_footprint(Energy(2 * e.joules), ci) == 2 * base
    assert carbon_footprint(e, CarbonIntensity(2 * ci.grams_co2e_per_kwh)) == 2 * base
    assert carbon_footprint(Energy(3 * e.joules), ci) == pytest.approx(3 * base, rel=1e-15)
    assert carbon_footprint(e, CarbonIntensity(0.0)) == 0.0


def test_bundled_table_snapshot():
    records = bundled_ci_table()
    assert len(records) == 5
    by_code = {r.country_code: r for r in records}
    assert by_code["DE"].intensity.grams_co2e_per_kwh == 425.0
    assert by_code["IE"].intensity.grams_co2e_per_kwh == 382.0
    assert by_code["SI"].intensity.grams_co2e_per_kwh == 239.0
    assert by_code["ES"].intensity.grams_co2e_per_kwh == 160.0
    assert by_code["FI"].intensity.grams_co2e_per_kwh == 92.0
    assert by_code["FI"].country_name == "Finland"
    assert all(r.year == 2023 for r in records)


def test_load_ci_table_empty_after_header():
    assert load_ci_table(io.StringIO(CI_HEADER)) == ()
    with pytest.raises(CiTableError, match=r"^carbon-intensity table is empty "
                                           r"\(missing header\)$"):
        load_ci_table(io.StringIO(""))


def test_load_ci_table_rejects_wrong_header():
    with pytest.raises(CiTableError, match="line 1"):
        load_ci_table(io.StringIO("code,name,year,ci\nDE,Germany,2023,425\n"))


def test_load_ci_table_rejects_malformed_row():
    with pytest.raises(CiTableError, match="line 3"):
        load_ci_table(io.StringIO(CI_HEADER + "DE,Germany,2023,425\nIE,Ireland,notayear,382\n"))
    with pytest.raises(CiTableError, match=r"^line 2: expected 4 fields, got 3$"):
        load_ci_table(io.StringIO(CI_HEADER + "DE,Germany,425\n"))


def test_load_ci_table_rejects_negative_intensity():
    # Negative and non-finite intensities break one rule and get one message.
    for text, shown in (("-5", "-5.0"), ("nan", "nan"), ("inf", "inf")):
        with pytest.raises(CiTableError) as caught:
            load_ci_table(io.StringIO(CI_HEADER + f"DE,Germany,2023,{text}\n"))
        assert str(caught.value) == ("line 2: carbon intensity [gCO2eq/kWh] must be "
                                     f"non-negative and finite, got {shown}")


def test_load_ci_table_rejects_a_negative_year():
    # The record's year rule, reported at the line, like every other row fault.
    with pytest.raises(CiTableError) as caught:
        load_ci_table(io.StringIO(CI_HEADER + "DE,Germany,-5,425\n"))
    assert str(caught.value) == "line 2: year must be >= 0, got -5"


def test_load_ci_table_rejects_duplicates():
    # One row per country, whatever its year: pricing one of two would depend on row order.
    for second in ("DE,Germany,2023,430", "de,Germany,2022,400"):
        text = CI_HEADER + f"DE,Germany,2023,425\nFI,Finland,2023,92\n{second}\n"
        with pytest.raises(CiTableError) as caught:
            load_ci_table(io.StringIO(text))
        assert str(caught.value) == "line 4: duplicate entry for 'DE'; keep one row per country"


def test_load_ci_table_rejects_bad_country_code():
    with pytest.raises(CiTableError, match="line 2"):
        load_ci_table(io.StringIO(CI_HEADER + "D3,Germany,2023,425\n"))
    with pytest.raises(CiTableError, match=r"^line 2: country_code must be a two-letter country "
                                           r"code, got 'D1'$"):
        load_ci_table(io.StringIO(CI_HEADER + "D1,Germany,2023,425\n"))


def test_load_ci_table_from_path(tmp_path):
    path = tmp_path / "ci.csv"
    # Blank lines are skipped.
    path.write_text(CI_HEADER + "\nNO,Norway,2023,30\n\n", encoding="utf-8")
    records = load_ci_table(path)
    assert len(records) == 1
    assert records[0].country_code == "NO"
    assert records[0].intensity.grams_co2e_per_kwh == 30.0


def test_record_normalizes_country_code_case():
    record = CarbonIntensityRecord("de", "Germany", 2023, CarbonIntensity(425.0))
    assert record.country_code == "DE"


@pytest.mark.parametrize("name, year, message", [
    (None, 2023, "country_name must be a str, got NoneType"),
    ("Germany", "2023", "year must be an integer, got str"),
    ("Germany", True, "year must be an integer, got bool"),
], ids=["country_name", "year str", "year bool"])
def test_record_checks_its_name_and_year(name, year, message):
    # Else cf_vs_gamma prints a name of None.
    with pytest.raises(FieldTypeError) as caught:
        CarbonIntensityRecord("DE", name, year, CarbonIntensity(425.0))
    assert caught.value.field == message.split()[0]
    assert str(caught.value) == message


def test_cf_vs_gamma_orders_by_descending_intensity():
    report = cf_vs_gamma(default_scenario(), bundled_ci_table(), [1])
    codes = [row.country_code for row in report.rows]
    assert codes == ["DE", "IE", "SI", "ES", "FI"]
    totals = [row.cf_total_g for row in report.rows]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert min(report.rows, key=lambda r: r.cf_total_g).country_code == "FI"


def test_carbon_report_row_fields_are_pinned():
    assert CarbonReportRow._fields == (
        "gamma", "country_code", "country_name", "intensity",
        "cf_development_g", "cf_inference_g", "cf_total_g",
    )
    row = cf_vs_gamma(default_scenario(), bundled_ci_table(), [1000]).rows[0]
    assert row == tuple(getattr(row, name) for name in CarbonReportRow._fields)


def test_cf_vs_gamma_rows_match_point_formula():
    s = default_scenario()
    records = bundled_ci_table()
    gammas = [1, 1000, 7]
    report = cf_vs_gamma(s, records, gammas)
    e_d, _ = development_energy(s)
    e_p, _ = inference_phase_energy(s)
    by_intensity = sorted(records, key=lambda r: (-r.intensity.grams_co2e_per_kwh,
                                                  r.country_code))
    expected = [
        CarbonReportRow(gamma, r.country_code, r.country_name, r.intensity,
                        carbon_footprint(e_d, r.intensity), carbon_footprint(e_p, r.intensity),
                        carbon_footprint(ecal_abs(replace(s, gamma=gamma)), r.intensity))
        for gamma in gammas for r in by_intensity
    ]
    assert list(report.rows) == expected


def test_cf_ratio_between_countries_equals_ci_ratio():
    report = cf_vs_gamma(default_scenario(), bundled_ci_table(), [1000])
    by_code = {row.country_code: row for row in report.rows}
    for metric in ("cf_development_g", "cf_inference_g", "cf_total_g"):
        ratio = getattr(by_code["DE"], metric) / getattr(by_code["FI"], metric)
        assert ratio == pytest.approx(425.0 / 92.0, rel=1e-12)


def test_cf_doubling_gamma_nearly_doubles_footprint():
    s = default_scenario()
    records = bundled_ci_table()
    gamma = 5000
    e_d, _ = development_energy(s)
    e_p, _ = inference_phase_energy(s)
    low = cf_vs_gamma(s, records, [gamma]).rows[0].cf_total_g
    high = cf_vs_gamma(s, records, [2 * gamma]).rows[0].cf_total_g
    slack = 1 + e_d.joules / (gamma * e_p.joules)
    assert high / low <= 2.0
    assert high / low >= 2.0 / slack


def test_cf_country_ranking_matches_intensity_ranking():
    records = bundled_ci_table()
    report = cf_vs_gamma(default_scenario(), records, [7])
    by_footprint = [row.country_code for row in
                    sorted(report.rows, key=lambda r: r.cf_total_g, reverse=True)]
    by_intensity = [r.country_code for r in
                    sorted(records, key=lambda r: r.intensity.grams_co2e_per_kwh, reverse=True)]
    assert by_footprint == by_intensity


def test_cf_vs_gamma_scenario_country_subset():
    s = replace(default_scenario(), countries=("FI", "DE"))
    report = cf_vs_gamma(s, bundled_ci_table(), [1])
    assert [row.country_code for row in report.rows] == ["DE", "FI"]


def test_cf_vs_gamma_unknown_country():
    s = replace(default_scenario(), countries=("XX",))
    with pytest.raises(LookupError) as caught:
        cf_vs_gamma(s, bundled_ci_table(), [1])
    assert str(caught.value) == "unknown country 'XX'; known: DE, IE, SI, ES, FI"


def test_cf_vs_gamma_takes_records_from_an_iterator():
    # An iterator used to be spent building the country index, leaving no rows.
    table = bundled_ci_table()
    s = default_scenario()
    assert cf_vs_gamma(s, iter(table), [1]) == cf_vs_gamma(s, table, [1])
    assert len(cf_vs_gamma(s, iter(table), [1]).rows) == len(table)


@pytest.mark.parametrize("countries", [("DE",), (), ("FI",), ("XX",)])
def test_cf_vs_gamma_rejects_records_that_repeat_a_country(countries):
    # load_ci_table keeps one row per country; records built in code are held to it too,
    # whichever countries the scenario prices.
    de, fi = bundled_ci_table()[0], bundled_ci_table()[-1]
    records = [de, fi, de.__replace__(year=2022)]
    s = replace(default_scenario(), countries=countries)
    with pytest.raises(FieldError) as caught:
        cf_vs_gamma(s, records, [1])
    assert caught.value.field == "records[2]"
    assert str(caught.value) == "records[2] repeats 'DE'"


def test_cf_vs_gamma_rejects_bad_gamma():
    with pytest.raises(ValueError):
        cf_vs_gamma(default_scenario(), bundled_ci_table(), [0])


def test_cf_vs_gamma_rejects_non_integer_gamma_as_type_error():
    with pytest.raises(TypeError, match="gamma"):
        cf_vs_gamma(default_scenario(), bundled_ci_table(), [1.5])


def test_a_footprint_beyond_the_float_range_is_a_value_error():
    with pytest.raises(ValueError, match=r"^carbon footprint \[gCO2eq\] must be .* got inf$"):
        carbon_footprint(Energy(1e308), CarbonIntensity(1e308))


@given(st.floats(0.0, sys.float_info.max), st.floats(0.0, sys.float_info.max))
def test_a_footprint_is_finite_or_a_value_error(joules, intensity):
    try:
        footprint = carbon_footprint(Energy(joules), CarbonIntensity(intensity))
    except ValueError:
        assert joules / JOULES_PER_KWH * intensity == math.inf
    else:
        assert math.isfinite(footprint)


HUGE_CI = CI_HEADER + "DE,Germany,2023,425\nXX,X,2023,1e308\n"


def test_cf_vs_gamma_rejects_a_footprint_beyond_the_float_range():
    records = load_ci_table(io.StringIO(HUGE_CI))
    s = default_scenario(gamma=10**12)
    assert all(map(math.isfinite, cf_vs_gamma(s, records, [1]).rows[0][4:]))
    # Rows run by descending intensity, so the largest gamma in XX is the one cell checked.
    with pytest.raises(ValueError) as caught:
        cf_vs_gamma(s, records, [1, 10**12, 1000])
    assert re.fullmatch(r"carbon footprint is not finite in 'XX' at gamma 1000000000000: "
                        r"\S+ kWh at 1e\+308 gCO2eq/kWh", str(caught.value))


def test_ecal_carbon_rejects_a_footprint_beyond_the_float_range(capsys, tmp_path):
    (tmp_path / "huge_ci.csv").write_text(HUGE_CI, encoding="utf-8")
    scenario = tmp_path / "gamma_1e12.json"
    scenario.write_text(json.dumps({"samples": 256, "mlp": {"layers": [6, 5, 5, 5, 3]},
                                    "epochs": 10, "inference_batch": 77,
                                    "gamma": 1000000000000}), encoding="utf-8")
    argv = ["carbon", "--scenario", str(scenario), "--ci-file", str(tmp_path / "huge_ci.csv")]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ecal: error: carbon footprint is not finite in 'XX' at gamma ")
    assert len(err.splitlines()) == 1
