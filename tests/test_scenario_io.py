import ast
import csv
import io
import json
import os
import re
import sys
import time
import tokenize
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ecal.lifecycle import Scenario, default_scenario
from ecal.mlp_cost import DEFAULT_PROCESSING_UNIT, MlpArchitecture, ProcessingUnitProfile
from ecal.preprocessing import StandardizationMethod
from ecal import carbon, report, scenario_io
from ecal.carbon import load_ci_table
from ecal.scenario_io import (
    _SCHEMA,
    REPRODUCE_TARGETS,
    ReportTable,
    ScenarioDocument,
    ScenarioError,
    Sweeps,
    load_scenario,
    parse_scenario,
    reproduce,
    serialize_scenario,
    write_report,
)
from ecal.storage import StorageProfile, storage_profile
from ecal.transmission import PayloadSpec, TechnologyProfile, technology_profile, transmitted_bits
from ecal.units import CarbonIntensity, FieldError, FieldTypeError
from strategies import boundary_documents, scenarios
from test_units import FLOAT_EDGE, beyond_float

MINIMAL_DOC = json.dumps(
    {
        "samples": 256,
        "mlp": {"layers": [6, 5, 5, 5, 3]},
        "epochs": 10,
        "inference_batch": 77,
        "gamma": 1000,
    }
)


def test_minimal_document_fills_defaults_to_reference_scenario():
    doc = parse_scenario(MINIMAL_DOC)
    assert doc.scenario == default_scenario(gamma=1000)
    assert doc.sweeps == Sweeps()


def test_defaults_are_documented_values():
    s = parse_scenario(MINIMAL_DOC).scenario
    assert s.payload.bits_per_sample == 64
    assert s.train_fraction == 0.7
    assert s.standardization is StandardizationMethod.NORMALIZATION
    assert s.technology.name == "ble5"
    assert s.storage.name == "hdd"
    assert s.processing_unit == DEFAULT_PROCESSING_UNIT
    assert s.processing_unit.preprocessing_power == 140.0
    assert s.processing_unit.preprocessing_flops_per_s == 1e10
    assert s.processing_unit.flops_per_joule == 1.5351e8


def _doc_with(**overrides):
    base = json.loads(MINIMAL_DOC)
    base.update(overrides)
    return json.dumps(base)


def test_out_of_range_split_ratio_names_the_field():
    with pytest.raises(ScenarioError, match="split_ratio"):
        parse_scenario(_doc_with(split_ratio=1.5))
    with pytest.raises(ScenarioError, match="split_ratio"):
        parse_scenario(_doc_with(split_ratio=0.0))


def test_unknown_fields_are_rejected():
    with pytest.raises(ScenarioError, match="smaples"):
        parse_scenario(_doc_with(smaples=12))
    with pytest.raises(ScenarioError, match="technology.f_w"):
        parse_scenario(_doc_with(technology={"f_w": 2000}))


def test_missing_required_fields():
    base = json.loads(MINIMAL_DOC)
    for key in ("samples", "mlp", "epochs", "inference_batch", "gamma"):
        broken = dict(base)
        del broken[key]
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(json.dumps(broken))


def test_type_violations_name_the_field():
    with pytest.raises(ScenarioError, match="samples"):
        parse_scenario(_doc_with(samples="256"))
    with pytest.raises(ScenarioError, match="samples"):
        parse_scenario(_doc_with(samples=256.0))
    with pytest.raises(ScenarioError, match="gamma"):
        parse_scenario(_doc_with(gamma=0))
    with pytest.raises(ScenarioError, match="epochs"):
        parse_scenario(_doc_with(epochs=True))
    with pytest.raises(ScenarioError, match="mlp.layers"):
        parse_scenario(_doc_with(mlp={"layers": [6]}))
    with pytest.raises(ScenarioError, match=r"mlp.layers\[1\]"):
        parse_scenario(_doc_with(mlp={"layers": [6, 0, 3]}))
    with pytest.raises(ScenarioError, match="invalid_samples"):
        parse_scenario(_doc_with(invalid_samples=300))
    with pytest.raises(ScenarioError, match=r"countries\[0\]"):
        parse_scenario(_doc_with(countries=["DEU"]))
    with pytest.raises(ScenarioError, match="preprocessing"):
        parse_scenario(_doc_with(preprocessing="zscore"))


# A document of the wrong shape or type, and the whole message it gets.
SHAPE_ERRORS = [
    ("[]", "scenario: expected an object, got list"),
    (_doc_with(technology=5), "technology: expected an object, got int"),
    (_doc_with(technology={"name": 5, "f_u": 2000, "omega_u": 8, "p_t_w": 0.01, "r_t_bps": 1e3}),
     "technology.name: must be a str, got int"),
    (_doc_with(mlp={"layers": 6}), "mlp.layers: expected a list of layer widths, got 6"),
    (_doc_with(countries="DE"), "countries: expected a list of country codes, got 'DE'"),
    (_doc_with(countries=["DE", "DEU"]),
     "countries[1]: must be a two-letter country code, got 'DEU'"),
    (_doc_with(countries=[5]), "countries[0]: must be a two-letter country code, got 5"),
    (_doc_with(sweeps={"gamma": 10}), "sweeps.gamma: expected a list, got 10"),
    (_doc_with(split_ratio="0.7"), "split_ratio: must be a real number, got str"),
    (_doc_with(technology="x"),
     "technology: unknown technology 'x'; known: ble5, zigbee, lorawan"),
    (_doc_with(storage="x"), "storage: unknown storage medium 'x'; known: hdd, ssd"),
    (_doc_with(preprocessing="x"),
     "preprocessing: unknown preprocessing method 'x'; known: minmax, normalization"),
    (_doc_with(preprocessing=["minmax"]),
     "preprocessing: unknown preprocessing method ['minmax']; known: minmax, normalization"),
    (_doc_with(samplez=1),
     "samplez: unknown field 'samplez'; known: samples, invalid_samples, bit_precision, "
     "technology, storage, preprocessing, split_ratio, epochs, mlp, inference_batch, "
     "inference_invalid_samples, gamma, processing_unit, countries, sweeps"),
    (_doc_with(technology={"name": "r", "f_u": 2000, "omega_u": 8, "p_t_w": 0.01,
                           "r_t_bps": 1e3, "gain_db": 3}),
     "technology.gain_db: unknown field 'gain_db'; known: name, f_u, omega_u, p_t_w, r_t_bps, "
     "packets_override"),
]


@pytest.mark.parametrize("text, message", SHAPE_ERRORS,
                         ids=[message.split(":")[0] + " lookup" * ("; known: " in message)
                              for _, message in SHAPE_ERRORS])
def test_shape_and_type_errors_are_pinned(text, message):
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value) == message


_RADIO = {"f_u": 2000, "omega_u": 8, "p_t_w": 0.01, "r_t_bps": 1e3}


# One field, one rule: a negative value and zero break the same rule, so they
# get the same message.
@pytest.mark.parametrize("overrides, message", [
    ({"technology": {**_RADIO, "f_u": -1}}, "technology.f_u: must be >= 1, got -1"),
    ({"technology": {**_RADIO, "f_u": 0}}, "technology.f_u: must be >= 1, got 0"),
    ({"technology": {**_RADIO, "p_t_w": -1}},
     "technology.p_t_w: must be positive and finite, got -1.0"),
    ({"technology": {**_RADIO, "p_t_w": 0}},
     "technology.p_t_w: must be positive and finite, got 0.0"),
    ({"processing_unit": {"preprocessing_power_w": -1}},
     "processing_unit.preprocessing_power_w: must be positive and finite, got -1.0"),
    ({"processing_unit": {"preprocessing_power_w": 0}},
     "processing_unit.preprocessing_power_w: must be positive and finite, got 0.0"),
], ids=["f_u-negative", "f_u-zero", "p_t_w-negative", "p_t_w-zero",
        "preprocessing_power_w-negative", "preprocessing_power_w-zero"])
def test_a_parameter_breaks_one_rule_with_one_message(overrides, message):
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(_doc_with(**overrides))
    assert str(caught.value) == message


def test_a_repeated_country_is_rejected_at_its_second_occurrence():
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(_doc_with(countries=["de", "FI", "DE"]))
    assert str(caught.value) == "countries[2]: repeats 'DE'"


def test_invalid_json_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario("[" * 100_000)


def test_unknown_profile_names():
    with pytest.raises(ScenarioError, match="technology"):
        parse_scenario(_doc_with(technology="wifi"))
    with pytest.raises(ScenarioError, match="storage"):
        parse_scenario(_doc_with(storage="tape"))


def test_inline_technology_profile_reproduces_high_overhead_example():
    doc = parse_scenario(
        _doc_with(
            technology={
                "name": "fat-headers",
                "f_u": 2000,
                "omega_u": 1400,
                "p_t_w": 0.01,
                "r_t_bps": 1000.0,
            }
        )
    )
    s = doc.scenario
    assert s.technology.name == "fat-headers"
    assert transmitted_bits(s.technology, PayloadSpec(64, 256)).bits == 28984


def test_inline_storage_and_processing_unit():
    doc = parse_scenario(
        _doc_with(
            storage={"name": "cold", "wh_per_tb": 0.3},
            processing_unit={"flops_per_joule": 2e8},
        )
    )
    assert doc.scenario.storage == StorageProfile("cold", 0.3)
    # Unset processing-unit keys keep their defaults.
    assert doc.scenario.processing_unit == ProcessingUnitProfile(140.0, 1e10, 2e8)
    infinite = _doc_with(storage={"name": "x", "wh_per_tb": float("inf")})
    assert '"wh_per_tb": Infinity' in infinite
    with pytest.raises(ScenarioError, match=r"^storage.wh_per_tb: must be non-negative and "
                                            r"finite, got inf$"):
        parse_scenario(infinite)


def test_sweep_blocks():
    doc = parse_scenario(
        _doc_with(sweeps={"gamma": [10, 100], "overhead_pct": [1, 70], "invalid_samples": [0, 8]})
    )
    assert doc.sweeps == Sweeps(gamma=(10, 100), overhead_pct=(1.0, 70.0), invalid_samples=(0, 8))
    with pytest.raises(ScenarioError, match=r"sweeps.gamma\[0\]"):
        parse_scenario(_doc_with(sweeps={"gamma": [0]}))
    with pytest.raises(ScenarioError, match=r"sweeps.overhead_pct\[0\]"):
        parse_scenario(_doc_with(sweeps={"overhead_pct": [120]}))


@pytest.mark.parametrize("sweeps, message", [
    ({"gamma": (0,)}, "gamma[0] must be >= 1, got 0"),
    ({"overhead_pct": (150.0,)}, "overhead_pct[0] must be in [0, 100], got 150.0"),
    ({"invalid_samples": (-1,)}, "invalid_samples[0] must be >= 0, got -1"),
    ({"gamma": (5, 10**400)}, beyond_float("gamma[1]", 1329)),
], ids=["gamma", "overhead_pct", "invalid_samples", "huge gamma"])
def test_sweeps_check_each_item_when_built(sweeps, message):
    with pytest.raises(FieldError) as caught:
        Sweeps(**sweeps)
    assert str(caught.value) == message


@pytest.mark.parametrize("field", Sweeps.__match_args__)
def test_sweeps_need_a_sequence_for_each_list(field):
    with pytest.raises(FieldTypeError) as caught:
        Sweeps(**{field: 5})
    assert str(caught.value) == f"{field} must be a sequence, got int"


def test_gamma_beyond_float_range_names_the_field():
    huge = 10**400
    with pytest.raises(ScenarioError, match=r"^gamma: too large"):
        parse_scenario(_doc_with(gamma=huge))
    with pytest.raises(ScenarioError, match=r"^sweeps.gamma\[1\]: too large"):
        parse_scenario(_doc_with(sweeps={"gamma": [10, huge]}))


@pytest.mark.parametrize("overrides, path", [
    ({"samples": 10**400}, "samples"),
    ({"invalid_samples": 10**400}, "invalid_samples"),
    ({"bit_precision": 10**400}, "bit_precision"),
    ({"epochs": 10**400}, "epochs"),
    ({"inference_batch": 10**400}, "inference_batch"),
    ({"inference_invalid_samples": 10**400}, "inference_invalid_samples"),
    ({"mlp": {"layers": [6, 10**400, 3]}}, r"mlp.layers\[1\]"),
    ({"technology": {"f_u": 10**400, "omega_u": 8, "p_t_w": 0.01, "r_t_bps": 1e3}},
     "technology.f_u"),
    ({"technology": {"f_u": 2000, "omega_u": 10**400, "p_t_w": 0.01, "r_t_bps": 1e3}},
     "technology.omega_u"),
    ({"technology": {"f_u": 2000, "omega_u": 8, "p_t_w": 0.01, "r_t_bps": 1e3,
                     "packets_override": 10**400}}, "technology.packets_override"),
])
def test_counts_beyond_float_range_name_the_field(overrides, path):
    with pytest.raises(ScenarioError, match=f"^{path}: too large"):
        parse_scenario(_doc_with(**overrides))


def test_integer_over_the_digit_limit_is_a_scenario_error():
    text = MINIMAL_DOC.replace('"gamma": 1000', '"gamma": ' + "1" * 5001)
    with pytest.raises(ScenarioError):
        parse_scenario(text)


# --- agreement of the parser with the model constructors ----------------------

def _with(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    variant = json.loads(json.dumps(doc))
    *parents, last = path.replace("[", ".").replace("]", "").split(".")
    target = variant
    for name in parents:
        target = target[name]
    target[int(last) if last.isdigit() else last] = value
    return variant


def _construct(doc):
    """Build a document's scenario through the model constructors alone."""
    technology = doc.get("technology", "ble5")
    if isinstance(technology, str):
        technology = technology_profile(technology)
    else:
        technology = TechnologyProfile(
            "custom", technology["f_u"], technology["omega_u"], technology["p_t_w"],
            technology["r_t_bps"], technology.get("packets_override"),
        )
    storage = doc.get("storage", "hdd")
    storage = (storage_profile(storage) if isinstance(storage, str)
               else StorageProfile("custom", storage["wh_per_tb"]))
    unit = doc.get("processing_unit", {})
    pu = ProcessingUnitProfile(
        unit.get("preprocessing_power_w", 140.0),
        unit.get("preprocessing_flops_per_s", 1e10),
        unit.get("flops_per_joule", 1.5351e8),
    )
    return Scenario(
        payload=PayloadSpec(doc.get("bit_precision", 64), doc["samples"]),
        technology=technology,
        storage=storage,
        standardization=StandardizationMethod(doc.get("preprocessing", "normalization")),
        train_fraction=doc.get("split_ratio", 0.7),
        epochs=doc["epochs"],
        architecture=MlpArchitecture(tuple(doc["mlp"]["layers"])),
        inference_batch=doc["inference_batch"],
        gamma=doc["gamma"],
        processing_unit=pu,
        invalid_samples=doc.get("invalid_samples", 0),
        inference_invalid_samples=doc.get("inference_invalid_samples", 0),
        countries=tuple(doc.get("countries", ())),
    )


def _assert_agreement(doc, out_of_range):
    try:
        expected = _construct(doc)
    except (ValueError, LookupError):  # a FieldError, or an unknown name's LookupError
        expected = None
    assert (expected is None) == bool(out_of_range), (doc, out_of_range)
    try:
        parsed = parse_scenario(json.dumps(doc))
    except ScenarioError as exc:
        assert expected is None, exc
        assert str(exc).split(": ", 1)[0] in out_of_range, (exc, out_of_range)
    else:
        assert expected is not None, doc
        assert parsed.scenario == expected
        _assert_round_trip(parsed)


@settings(max_examples=150, deadline=None)
@given(boundary_documents())
def test_parser_agrees_with_the_constructors(case):
    doc, out_of_range, faults = case
    _assert_agreement(doc, out_of_range)
    if not out_of_range:  # break each rule alone
        for path, value in faults:
            _assert_agreement(_with(doc, path, value), {path})


# Every key set, each inline profile inline, with every one of its keys.
FULL_DOC = _doc_with(
    samples=512,
    invalid_samples=13,
    bit_precision=32,
    technology={
        "name": "custom-radio",
        "f_u": 1500,
        "omega_u": 111,
        "p_t_w": 0.025,
        "r_t_bps": 7.5e4,
        "packets_override": 23,
    },
    storage={"name": "cold", "wh_per_tb": 0.31},
    preprocessing="minmax",
    split_ratio=0.85,
    inference_invalid_samples=3,
    processing_unit={
        "preprocessing_power_w": 65.0,
        "preprocessing_flops_per_s": 5e9,
        "flops_per_joule": 9.9e7,
    },
    countries=["fi", "DE"],
    sweeps={"gamma": [1, 10, 100], "overhead_pct": [0, 12.5], "invalid_samples": [0, 7]},
)


def _assert_round_trip(doc):
    """``doc`` serializes to text that parses back to ``doc`` and serializes
    to the same text again."""
    text = serialize_scenario(doc)
    again = parse_scenario(text)
    assert again == doc
    assert serialize_scenario(again) == text


_SWEEPS = st.builds(
    Sweeps,
    st.lists(st.integers(1, 10**9), max_size=4).map(tuple),
    st.lists(st.floats(0.0, 100.0), max_size=4).map(tuple),
    st.lists(st.integers(0, 10**9), max_size=4).map(tuple),
)


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.lists(st.sampled_from(["DE", "fi", "ES", "us"]), max_size=3,
                             unique_by=str.upper), _SWEEPS)
def test_any_scenario_round_trips(scenario, countries, sweeps):
    _assert_round_trip(ScenarioDocument(replace(scenario, countries=tuple(countries)), sweeps))


_COUNTS = (st.integers(-2, 10**6) | st.integers(FLOAT_EDGE - 3, FLOAT_EDGE + 3)
           | st.sampled_from([-10**400, 10**400]))
_ANY_SWEEPS = st.tuples(st.lists(_COUNTS, max_size=3), st.lists(_COUNTS | st.floats(), max_size=3),
                        st.lists(_COUNTS, max_size=3))


@settings(max_examples=200, deadline=None)
@given(_COUNTS, _COUNTS, _COUNTS, _ANY_SWEEPS)
def test_a_document_built_in_code_is_rejected_or_round_trips(gamma, samples, width, sweeps):
    # What the constructors accept, a scenario file can hold.
    try:
        doc = ScenarioDocument(replace(default_scenario(), gamma=gamma,
                                       payload=PayloadSpec(64, samples),
                                       architecture=MlpArchitecture((6, width, 3))),
                               Sweeps(*sweeps))
    except FieldError:
        return
    assert parse_scenario(serialize_scenario(doc)) == doc


def test_round_trip_default_document():
    doc = parse_scenario(MINIMAL_DOC)
    assert parse_scenario(serialize_scenario(doc)) == doc


def test_round_trip_fully_custom_document():
    doc = parse_scenario(FULL_DOC)
    assert doc.scenario.countries == ("FI", "DE")
    assert doc.sweeps == Sweeps((1, 10, 100), (0.0, 12.5), (0, 7))
    round_tripped = parse_scenario(serialize_scenario(doc))
    assert round_tripped == doc


def test_round_trip_scenario_built_in_code():
    # Scenario upper-cases its country codes, so the document reads them back equal.
    doc = ScenarioDocument(replace(default_scenario(), countries=("fi", "de")))
    assert doc.scenario.countries == ("FI", "DE")
    assert parse_scenario(serialize_scenario(doc)) == doc


@pytest.mark.parametrize("name, got", [(5, "int"), (None, "NoneType")], ids=["5", "None"])
@pytest.mark.parametrize("build", [
    lambda name: TechnologyProfile(name, 2000, 8, 0.01, 1e3),
    lambda name: StorageProfile(name, 1.0),
], ids=["technology", "storage"])
def test_a_profile_name_must_be_a_string(build, name, got):
    # Else serialize_scenario writes a document that parse_scenario rejects.
    with pytest.raises(FieldTypeError) as caught:
        build(name)
    assert caught.value.field == "name"
    assert str(caught.value) == f"name must be a str, got {got}"


def test_readme_lists_the_document_keys_in_serialization_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    keys = {cls: [field[0] for field in entry[3]] for cls, entry in _SCHEMA.items()}
    # The table: every top-level key, with `mlp.layers` standing for `mlp`.
    table = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
    assert [key.removesuffix(".layers") for key in table] == keys[ScenarioDocument]
    # The inline profiles: each one's keys, in order.
    inline = dict(re.findall(r"`(\w+)` takes\s+`\{([^}]*)\}`", section))
    assert {profile: re.findall(r'"(\w+)"', listed) for profile, listed in inline.items()} == {
        "technology": keys[TechnologyProfile], "storage": keys[StorageProfile],
        "processing_unit": keys[ProcessingUnitProfile]}
    # ...and the whole document serializes in that order too.
    assert list(json.loads(serialize_scenario(parse_scenario(FULL_DOC)))) == keys[ScenarioDocument]


def test_each_document_key_is_spelled_once_per_object_in_the_schema():
    # A key is a string literal of scenario_io.py only in _SCHEMA, once per object.
    source = Path(scenario_io.__file__).read_text(encoding="utf-8")
    schema = next(node for node in ast.parse(source).body if isinstance(node, ast.Assign)
                  and [target.id for target in node.targets] == ["_SCHEMA"])
    objects = [[field[0] for field in entry[3]] for entry in _SCHEMA.values()]
    lines = {key: [] for fields in objects for key in fields}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        literal = token.type == tokenize.STRING and token.string.lstrip("rRbBuU")[0] in "'\""
        if literal and (value := ast.literal_eval(token.string)) in lines:  # f-strings left out
            lines[value].append(token.start[0])
    for key, found in lines.items():
        assert len(found) == sum(key in fields for fields in objects), key
        assert all(schema.lineno <= line <= schema.end_lineno for line in found), key
    assert sorted(key for key, found in lines.items() if len(found) > 1) == [
        "gamma", "invalid_samples", "name"]


def test_builtin_profiles_serialize_by_name():
    doc = parse_scenario(MINIMAL_DOC)
    rendered = json.loads(serialize_scenario(doc))
    assert rendered["technology"] == "ble5"
    assert rendered["storage"] == "hdd"


# --- report tables -----------------------------------------------------------

def test_report_table_requires_rectangular_rows():
    # The error names the first row whose width is wrong.
    for columns, rows, message in (
            (("a", "b"), ((1,),), "rows[0] must have 2 cells, got 1: (1,)"),
            (("a", "b"), ((1, 2), (3,), (4, 5, 6), (7,)),
             "rows[1] must have 2 cells, got 1: (3,)"),
            (("a",), ((1,), ()), "rows[1] must have 1 cells, got 0: ()"),
            (("a",), ((1, 2),), "rows[0] must have 1 cells, got 2: (1, 2)")):
        with pytest.raises(FieldError) as caught:
            ReportTable(columns, rows)
        assert str(caught.value) == message


def test_empty_table_renders_header_only():
    table = ReportTable(("x", "y"), ())
    assert table.to_csv() == "x,y\n"


def test_table_rendering_is_deterministic_and_precise():
    table = ReportTable(("name", "value"), (("pi-ish", 3.141592653589793), ("n", 17)))
    first = table.to_csv()
    second = ReportTable(("name", "value"), (("pi-ish", 3.141592653589793), ("n", 17))).to_csv()
    assert first == second
    assert "3.141592653589793" in first  # full round-trip precision
    assert first.endswith("\n")
    assert "\r" not in first


def _reference_cell(cell, alone=False):
    """Per-cell formatting the CSV writer must reproduce byte for byte: the
    cell's text with csv's minimal quoting, which quotes a row's one empty cell
    (``alone``), and with a carriage return quoted too, which ``csv.writer``
    leaves bare under ``lineterminator="\n"``."""
    if isinstance(cell, bool):
        raise TypeError("boolean cells are not supported in reports")
    text = repr(cell) if isinstance(cell, float) else str(cell)
    if any(c in text for c in ',"\r\n') or alone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


def test_table_renders_mixed_cells_like_the_per_cell_formatter():
    rows = (
        ("a", 1e-05, 0.1, -0.0, 10**30),
        ("b", 1.5e300, 7, -3, 2.5),
        ("c", 0.0, float(2**60), -(10**25), "x y"),
    )
    table = ReportTable(("name", "p", "q", "r", "s"), rows)
    assert table.to_csv() == (
        "name,p,q,r,s\n"
        "a,1e-05,0.1,-0.0,1000000000000000000000000000000\n"
        "b,1.5e+300,7,-3,2.5\n"
        "c,0.0,1.152921504606847e+18,-10000000000000000000000000,x y\n"
    )


_CELLS = st.one_of(
    st.floats(), st.integers(), st.none(), st.tuples(st.integers()),
    st.text(max_size=5),
)


@given(st.integers(0, 6).flatmap(lambda width: st.tuples(
    st.just(tuple("abcdef"[:width])), st.lists(st.lists(_CELLS, min_size=width, max_size=width)))))
def test_table_rendering_matches_the_per_cell_formatter(table):
    # Widths 0 to 6, one-column tables and tuple cells included: a row is
    # formatted as a whole, so a lone tuple cell must still print as itself.
    columns, rows = table
    expected = ",".join(columns) + "\n" + "".join(
        ",".join(_reference_cell(cell, len(row) == 1) for cell in row) + "\n" for row in rows
    )
    assert ReportTable(columns, rows).to_csv() == expected


# Text from all of Unicode, with the characters CSV gives a meaning drawn often.
# csv.reader reads NUL only from Python 3.11 on.
_TEXT = st.text(st.one_of(st.sampled_from(',"\n\r\ufeff'), st.characters(
    blacklist_characters="" if sys.version_info >= (3, 11) else "\0")), max_size=6)


@given(st.integers(0, 4).flatmap(lambda width: st.tuples(
    st.lists(_TEXT, min_size=width, max_size=width),
    st.lists(st.lists(st.one_of(_TEXT, st.integers(), st.floats()),
                      min_size=width, max_size=width)))))
def test_csv_reader_reads_back_every_cell(table):
    columns, rows = table
    text = ReportTable(columns, rows).to_csv()
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        columns, *[[str(cell) for cell in row] for row in rows]]


def test_boolean_cells_are_rejected():
    for row in ((True, 1.0), (1, False)):
        with pytest.raises(TypeError, match="boolean"):
            ReportTable(("a", "b"), (row,)).to_csv()
    # Text that only reads like a bool is kept.
    assert ReportTable(("True", "b"), (("False", 1),)).to_csv() == "True,b\nFalse,1\n"


def test_write_report_lives_in_report():
    import ecal

    assert scenario_io.write_report is report.write_report is ecal.write_report
    assert "write_report" in report.__all__ and "write_report" not in scenario_io.__all__


def test_write_report_to_path_returns_bytes_written(tmp_path):
    table = ReportTable(("a",), ((1,), (2,)))
    path = tmp_path / "out.csv"
    written = write_report(table, path)
    data = path.read_bytes()
    assert written == len(data)
    assert data == b"a\n1\n2\n"


def test_write_report_to_stream():
    table = ReportTable(("a",), ((1,),))
    buffer = io.StringIO()
    written = write_report(table, buffer)
    assert buffer.getvalue() == "a\n1\n"
    assert written == 4


def test_write_report_surfaces_destination_on_failure(tmp_path):
    table = ReportTable(("a",), ())
    missing_dir = tmp_path / "nope" / "out.csv"
    with pytest.raises(OSError, match="out.csv"):
        write_report(table, missing_dir)


def test_write_report_returns_what_the_stream_write_returns():
    # A text stream counts what it writes in its own terms: a TextIOWrapper counts
    # characters, which here are neither the UTF-8 nor the UTF-16 bytes.
    table = ReportTable(("gCO\u2082e",), ((1,),))
    text = table.to_csv()
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-16")
    written = write_report(table, stream)
    assert written == io.TextIOWrapper(io.BytesIO(), encoding="utf-16").write(text) == len(text)
    assert len(text.encode("utf-8")) != written
    stream.flush()
    assert stream.buffer.getvalue().decode("utf-16") == text
    assert not stream.closed


CI_TEXT = "country_code,country_name,year,ci_g_per_kwh\nNO,Norway,2023,30\n"
NORWAY = (carbon.CarbonIntensityRecord("NO", "Norway", 2023, CarbonIntensity(30.0)),)


def _path_of(tmp_path, text):
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    return path


# Each way to hand a loader its text: as a UTF-8 file or a text stream, each with
# and without the byte-order mark a spreadsheet's "CSV UTF-8" export starts with.
SOURCES = {
    "path": _path_of,
    "BOM_path": lambda tmp_path, text: _path_of(tmp_path, "\ufeff" + text),
    "stream": lambda tmp_path, text: io.StringIO(text),
    "BOM_stream": lambda tmp_path, text: io.StringIO("\ufeff" + text),
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("load, text, expected", [
    (load_scenario, MINIMAL_DOC, parse_scenario(MINIMAL_DOC)),
    (load_ci_table, CI_TEXT, NORWAY),
], ids=["load_scenario", "load_ci_table"])
def test_a_path_and_a_text_stream_load_alike(tmp_path, load, text, expected, source):
    given = SOURCES[source](tmp_path, text)
    assert load(given) == expected
    assert not getattr(given, "closed", False)  # a stream given is left open


@pytest.mark.parametrize("load, text, error", [
    (load_scenario, '{"samples": 256,\n "name": "K\xf6ln"}\n', ScenarioError),
    (load_ci_table, CI_TEXT.replace("NO,Norway", "DE,K\xf6ln"), carbon.CiTableError),
], ids=["load_scenario", "load_ci_table"])
def test_text_that_is_not_utf8_is_named_with_its_line_and_byte(tmp_path, load, text, error):
    # The decoder's own message names neither the file nor its line; the error is the
    # loader's own, as for every other fault of the file's content.
    data = text.encode("latin-1")
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    for source, name in ((path, str(path)), (bytes(path), str(path)),
                         (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), "source")):
        with pytest.raises(ValueError) as caught:
            load(source)
        assert type(caught.value) is error
        assert str(caught.value) == f"{name}: line 2: not UTF-8 (byte 0xf6)"


def test_crlf_lines_and_quoted_commas_read_alike_from_a_path_and_a_stream(tmp_path):
    # Rows split as in a file opened with newline="", as the csv module asks.
    table = (CI_TEXT + '"KR","Korea, Republic of",2023,436\n').replace("\n", "\r\n")
    korea = carbon.CarbonIntensityRecord("KR", "Korea, Republic of", 2023, CarbonIntensity(436.0))
    assert load_ci_table(_path_of(tmp_path, table)) == (*NORWAY, korea)
    assert load_ci_table(io.StringIO(table)) == (*NORWAY, korea)
    document = json.dumps(json.loads(MINIMAL_DOC), indent=2).replace("\n", "\r\n")
    assert load_scenario(_path_of(tmp_path, document)) == parse_scenario(MINIMAL_DOC)
    assert load_scenario(io.StringIO(document)) == parse_scenario(MINIMAL_DOC)


# Each call that takes a path, the whole message it raises for a file descriptor,
# and other arguments that are neither a path nor a stream it takes.
FD_ARGUMENTS = [
    ("load_scenario", load_scenario, "source must be a path or a text stream, got {}",
     lambda: (None, io.BytesIO(b"{}"))),
    ("load_ci_table", load_ci_table, "source must be a path or a text stream, got {}",
     lambda: (None, io.BytesIO(b"country_code,country_name,year,ci_g_per_kwh\n"))),
    ("write_report", lambda fd: write_report(ReportTable(("a",), ((1,),)), fd),
     "destination must be a path or a text stream, got {}", lambda: (None, io.BytesIO())),
]


@pytest.mark.parametrize("call, message, others", [case[1:] for case in FD_ARGUMENTS],
                         ids=[case[0] for case in FD_ARGUMENTS])
def test_a_file_descriptor_is_not_a_path(call, message, others, monkeypatch):
    # open() takes an int as a descriptor: it would read or write it, then close it.
    read, write = os.pipe()
    os.set_blocking(read, False)  # so a read of the empty pipe cannot hang
    try:
        for fd in (read, write):
            with pytest.raises(FieldTypeError) as caught:
                call(fd)
            assert str(caught.value) == message.format("int")
        os.fstat(read), os.fstat(write)  # both still open
    finally:
        os.close(read)
        os.close(write)
    # A bool is an int, and True is stdout, so no open() may be reached.
    for module in (scenario_io, carbon, report):
        monkeypatch.setattr(module, "open", None, raising=False)
    for fd in (True, False):
        with pytest.raises(FieldTypeError) as caught:
            call(fd)
        assert str(caught.value) == message.format("bool")
    # None, and a binary stream where text is read or written.
    for other in others():
        with pytest.raises(FieldTypeError) as caught:
            call(other)
        assert str(caught.value) == message.format(type(other).__name__)


@pytest.mark.parametrize("call, message", [case[1:3] for case in FD_ARGUMENTS],
                         ids=[case[0] for case in FD_ARGUMENTS])
def test_a_path_with_a_nul_character_names_its_argument(call, message):
    # open() would raise a ValueError that names no argument.
    field = message.split()[0]
    for path in ("a\0b", b"a\0b", Path("a\0b")):
        with pytest.raises(FieldError) as caught:
            call(path)
        assert str(caught.value) == f"{field} must be a path without a NUL character, got {path!r}"


# --- reproduce targets ---------------------------------------------------------

def test_unknown_target_lists_known_ones():
    with pytest.raises(LookupError) as caught:
        reproduce("table99")
    assert str(caught.value) == (
        "unknown reproduce target 'table99'; known: table1, table2, fig2, fig4, fig5, fig6, "
        "fig7, fig8, fig9ab, fig11, fig12, table3, fig13")


def test_reproduce_table1_values():
    table = reproduce("table1")
    b_t_index = table.columns.index("b_t_bits")
    packets_index = table.columns.index("packets")
    assert [row[b_t_index] for row in table.rows] == [17728, 19920, 18796]
    assert [row[packets_index] for row in table.rows] == [8, 13, 9]


def test_reproduce_table2_values():
    table = reproduce("table2")
    assert table.columns == ("technology", "p_t_mw", "r_t_bps", "e_t_b_j")
    per_bit = [row[3] for row in table.rows]
    assert per_bit == [3.1628e-9, 4.0e-8, 2.0e-6]


def test_reproduce_fig2_contains_reference_row():
    table = reproduce("fig2")
    wanted = [
        row for row in table.rows if row[0] == 256 and row[1] == 70.0
    ]
    assert wanted == [(256, 70.0, 16384, 28984)]


def test_reproduce_fig5_settings():
    table = reproduce("fig5")
    ble_rows = [row for row in table.rows if row[0] == "ble5"]
    assert len(ble_rows) == 1441
    assert ble_rows[0][1:] == (0.0, 0.0)
    assert ble_rows[-1][1] == 86400.0


def test_every_target_builds_quickly_and_rectangular():
    for target in REPRODUCE_TARGETS:
        start = time.monotonic()
        table = reproduce(target)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"{target} took {elapsed:.1f}s"
        assert len(table.columns) >= 2
        assert len(table.rows) >= 1
        for row in table.rows:
            assert len(row) == len(table.columns)


def test_reproduce_is_deterministic():
    for target in REPRODUCE_TARGETS:
        assert reproduce(target).to_csv() == reproduce(target).to_csv()
