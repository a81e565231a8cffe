import ast
import io
import json
import os
import tokenize
from pathlib import Path

import pytest

from ecal import cli
from ecal.cli import _METHODS, run
from ecal.preprocessing import StandardizationMethod
from ecal.scenario_io import REPRODUCE_TARGETS, reproduce
from test_units import beyond_float

MINIMAL_SCENARIO = {
    "samples": 256,
    "mlp": {"layers": [6, 5, 5, 5, 3]},
    "epochs": 10,
    "inference_batch": 77,
    "gamma": 1000,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "default.json"
    path.write_text(json.dumps(MINIMAL_SCENARIO), encoding="utf-8")
    return str(path)


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_transmit_prints_reference_bits(capsys):
    assert run(["transmit", "--tech", "ble5", "--samples", "256", "--precision", "64"]) == 0
    lines = _lines(capsys)
    assert "B_T,17728" in lines
    assert "E_T_b_J_per_b,3.1628e-09" in lines


def test_transmit_strict_mode_drops_override(capsys, tmp_path):
    assert run(["transmit", "--tech", "lorawan", "--samples", "256"]) == 0
    assert "B_T,18796" in _lines(capsys)
    assert run(["transmit", "--tech", "lorawan", "--samples", "256", "--strict-eq2"]) == 0
    assert "B_T,18528" in _lines(capsys)
    path = tmp_path / "lorawan.json"
    path.write_text(json.dumps({**MINIMAL_SCENARIO, "technology": "lorawan"}), encoding="utf-8")
    assert run(["lifecycle", "--scenario", str(path)]) == 0
    lines = _lines(capsys)
    assert "B_T_dev_bits,18796" in lines and "B_T_inf_bits,7340" in lines
    assert run(["lifecycle", "--scenario", str(path), "--strict-eq2"]) == 0
    lines = _lines(capsys)
    assert "B_T_dev_bits,18528" in lines and "B_T_inf_bits,5732" in lines


def test_storage_subcommand(capsys):
    assert run(["storage", "--storage", "hdd", "--samples", "256"]) == 0
    lines = _lines(capsys)
    assert "payload_bits,16384" in lines
    assert any(line.startswith("E_storage_J,") for line in lines)


def test_preprocess_single_sample_minmax(capsys):
    assert run(["preprocess", "--method", "minmax", "--samples", "1", "--invalid", "0"]) == 0
    assert "flops,1" in _lines(capsys)


def test_preprocess_normalization_reference(capsys):
    assert run(["preprocess", "--method", "normalization", "--samples", "256"]) == 0
    lines = _lines(capsys)
    assert "flops,1533" in lines
    assert "E_pre_J,2.1462e-05" in lines


def test_each_shared_option_is_declared_once():
    # An option that several subcommands take is a string literal of cli.py once,
    # in the parent parser those subcommands share.
    source = Path(cli.__file__).read_text(encoding="utf-8")
    literals = [ast.literal_eval(token.string)
                for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.STRING and token.string.lstrip("rRbBuU")[0] in "'\""]
    for option in ("--json", "--samples", "--precision", "--scenario", "--strict-eq2"):
        assert literals.count(option) == 1, option


def test_method_choices_are_the_standardization_methods():
    assert list(_METHODS) == [m.value for m in StandardizationMethod]


def test_train_cost_reports_flop_counts(capsys, scenario_file):
    assert run(["train-cost", "--scenario", scenario_file]) == 0
    lines = _lines(capsys)
    assert "M_FP,226" in lines
    assert "M_MLP_FP,404540" in lines
    assert "M_MLP,1213620" in lines
    assert "N_inf_flops,17402" in lines
    # Every figure equals the typed per-module equations to the bit.
    from ecal.lifecycle import default_scenario
    from ecal.mlp_cost import evaluation_energy, inference_energy, make_split, training_energy

    s = default_scenario()
    split = make_split(256, 0.7)
    e_train, e_train_b = training_energy(s.architecture, 10, split.train_count,
                                         s.processing_unit, 64)
    e_eval, e_eval_b = evaluation_energy(s.architecture, split.eval_count, s.processing_unit, 64)
    assert lines[5:] == [
        f"E_train_J,{e_train.joules}",
        f"E_train_b_J_per_b,{e_train_b.joules_per_bit}",
        f"E_eval_J,{e_eval.joules}",
        f"E_eval_b_J_per_b,{e_eval_b.joules_per_bit}",
        f"E_inf_J,{inference_energy(s.architecture, 77, s.processing_unit).joules}",
    ]


def test_lifecycle_full_report(capsys, scenario_file):
    assert run(["lifecycle", "--scenario", scenario_file]) == 0
    lines = _lines(capsys)
    assert "B_T_dev_bits,17728" in lines
    assert "dev_denominator_bits,66880" in lines
    assert "inf_denominator_bits,20216" in lines
    assert any(line.startswith("eCAL_J_per_b,") for line in lines)


TRAIN_COST_ROWS = [
    ("M_FP", 226), ("M_MLP_FP", 404540), ("M_MLP", 1213620), ("N_inf_flops", 17402),
    ("E_train_J", 0.007905804182137972), ("E_train_b_J_per_b", 6.901016220441664e-08),
    ("E_eval_J", 0.00011336069311445508), ("E_eval_b_J_per_b", 2.3003387401472218e-08),
    ("E_inf_J", 0.00011336069311445508),
]
LIFECYCLE_ROWS = [
    ("gamma", 1000), ("B_T_dev_bits", 17728), ("dev_denominator_bits", 66880),
    ("B_T_inf_bits", 5432), ("inf_denominator_bits", 20216), ("E_T_J", 5.60701184e-05),
    ("E_storage_J", 4.79232e-06), ("E_pre_J", 2.1462e-05), ("E_train_J", 0.007905804182137972),
    ("E_eval_J", 0.00011336069311445508), ("E_inf_J", 0.00011336069311445508),
    ("E_D_J", 0.008101489313652427), ("E_D_b_J_per_b", 1.2113470863714753e-07),
    ("E_train_b_J_per_b", 6.901016220441664e-08),
    ("E_train_per_trained_bit_J_per_b", 6.901016220441665e-07),
    ("E_inf_p_J", 0.00013840846271445507), ("E_inf_p_b_J_per_b", 6.84648113941705e-09),
    ("eCAL_abs_J", 0.1465099520281075), ("eCAL_abs_mean_J", 0.0001465099520281075),
    ("eCAL_J_per_b", 7.223330810422755e-09),
]
LORAWAN_STRICT_LIFECYCLE_ROWS = [
    ("gamma", 1000), ("B_T_dev_bits", 18528), ("dev_denominator_bits", 67680),
    ("B_T_inf_bits", 5732), ("inf_denominator_bits", 20516), ("E_T_J", 0.037056),
    ("E_storage_J", 4.79232e-06), ("E_pre_J", 2.1462e-05), ("E_train_J", 0.007905804182137972),
    ("E_eval_J", 0.00011336069311445508), ("E_inf_J", 0.00011336069311445508),
    ("E_D_J", 0.04510141919525243), ("E_D_b_J_per_b", 6.663921275894272e-07),
    ("E_train_b_J_per_b", 6.901016220441664e-08),
    ("E_train_per_trained_bit_J_per_b", 6.901016220441665e-07),
    ("E_inf_p_J", 0.011585228133114455), ("E_inf_p_b_J_per_b", 5.646923441759824e-07),
    ("eCAL_abs_J", 11.630329552309707), ("eCAL_abs_mean_J", 0.011630329552309707),
    ("eCAL_J_per_b", 5.650267373137217e-07),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
@pytest.mark.parametrize("command, lorawan, flags, expected", [
    ("train-cost", False, [], TRAIN_COST_ROWS),
    ("train-cost", True, [], TRAIN_COST_ROWS),
    ("lifecycle", False, [], LIFECYCLE_ROWS),
    ("lifecycle", True, ["--strict-eq2"], LORAWAN_STRICT_LIFECYCLE_ROWS),
], ids=["train-cost-default", "train-cost-lorawan", "lifecycle-default",
        "lifecycle-lorawan-strict-eq2"])
def test_key_value_reports_print_every_row_in_order(capsys, tmp_path, command, lorawan, flags,
                                                     expected, as_json):
    # Pins each report's row names, their order, and each value's type and repr.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "default.json")
    if lorawan:
        path = tmp_path / "lorawan.json"
        path.write_text(json.dumps({**MINIMAL_SCENARIO, "technology": "lorawan"}),
                        encoding="utf-8")
    argv = [command, "--scenario", str(path), *flags] + (["--json"] if as_json else [])
    assert run(argv) == 0
    out = capsys.readouterr().out
    if as_json:
        payload = json.loads(out)
        assert payload["columns"] == ["metric", "value"]
        assert [(name, repr(value)) for name, value in payload["rows"]] == [
            (name, repr(value)) for name, value in expected]
    else:
        assert out == "metric,value\n" + "".join(f"{name},{value!r}\n"
                                                  for name, value in expected)


def test_lifecycle_gamma_sweep_is_decreasing(capsys, scenario_file):
    assert run(["lifecycle", "--scenario", scenario_file, "--gamma-sweep", "100,1000"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "gamma,ecal_abs_J,ecal_abs_mean_J,eCAL_J_per_b"
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert (int(first[0]), int(second[0])) == (100, 1000)
    assert float(first[3]) > float(second[3])


@pytest.mark.parametrize("sweep", ["", "1,x"])
def test_lifecycle_rejects_a_malformed_gamma_sweep(capsys, scenario_file, sweep):
    assert run(["lifecycle", "--scenario", scenario_file, "--gamma-sweep", sweep]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ecal: error: --gamma-sweep expects comma-separated integers, "
                            f"got {sweep!r}\n")


def test_lifecycle_rejects_a_gamma_below_one_in_the_sweep(capsys, scenario_file):
    assert run(["lifecycle", "--scenario", scenario_file, "--gamma-sweep", "5,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ecal: error: gamma must be >= 1, got 0\n"


def test_lifecycle_uses_scenario_sweep_block(capsys, tmp_path):
    doc = dict(MINIMAL_SCENARIO)
    doc["sweeps"] = {"gamma": [1, 10]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["lifecycle", "--scenario", str(path)]) == 0
    lines = _lines(capsys)
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("10,")


def test_carbon_uses_bundled_table(capsys, scenario_file):
    assert run(["carbon", "--scenario", scenario_file]) == 0
    lines = _lines(capsys)
    assert lines[0] == ("gamma,country_code,ci_g_per_kwh,cf_development_g,"
                       "cf_inference_g,cf_total_g")
    assert len(lines) == 6
    assert lines[1].startswith("1000,DE,425")
    assert lines[5].startswith("1000,FI,92")
    totals = [float(line.split(",")[5]) for line in lines[1:]]
    assert totals == sorted(totals, reverse=True)


def test_carbon_rejects_a_repeated_country(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({**MINIMAL_SCENARIO, "countries": ["de", "DE"]}), encoding="utf-8")
    assert run(["carbon", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ecal: error: countries[1]: repeats 'DE'\n"


def test_carbon_ci_file_flag_and_env(capsys, scenario_file, tmp_path, monkeypatch):
    ci = tmp_path / "ci.csv"
    ci.write_text(
        "country_code,country_name,year,ci_g_per_kwh\nNO,Norway,2023,30\n",
        encoding="utf-8",
    )
    assert run(["carbon", "--scenario", scenario_file, "--ci-file", str(ci)]) == 0
    assert "NO" in capsys.readouterr().out

    monkeypatch.setenv("ECAL_CI_FILE", str(ci))
    assert run(["carbon", "--scenario", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "NO" in out
    assert "DE" not in out


def test_reproduce_single_target_to_stdout(capsys):
    assert run(["reproduce", "--target", "table1"]) == 0
    assert capsys.readouterr().out == reproduce("table1").to_csv()


def test_reproduce_all_targets_to_directory(tmp_path):
    out_dir = tmp_path / "golden"
    assert run(["reproduce", "--target", "all", "--out", str(out_dir)]) == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == sorted(f"{t}.csv" for t in REPRODUCE_TARGETS)
    assert (out_dir / "table2.csv").read_text(encoding="utf-8") == reproduce("table2").to_csv()


def test_reproduce_all_targets_needs_a_directory(capsys):
    assert run(["reproduce", "--target", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ecal: error: writing multiple targets requires --out DIR\n"


def test_reproduce_unknown_target_exits_1(capsys):
    assert run(["reproduce", "--target", "table99"]) == 1
    err = capsys.readouterr().err
    assert "table1" in err and "fig13" in err


def test_bad_flag_exits_1(capsys):
    assert run(["transmit", "--nonsense"]) == 1
    assert run(["no-such-command"]) == 1


def test_missing_scenario_file_exits_2(capsys):
    assert run(["lifecycle", "--scenario", "/does/not/exist.json"]) == 2


def test_invalid_scenario_contents_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"samples": 256}), encoding="utf-8")
    assert run(["lifecycle", "--scenario", str(path)]) == 1
    assert "error" in capsys.readouterr().err
    # Every subcommand that prices a scenario rejects what the model rejects.
    path.write_text(json.dumps({**MINIMAL_SCENARIO, "samples": 0}), encoding="utf-8")
    errors = []
    for command in ("lifecycle", "train-cost", "carbon"):
        assert run([command, "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["ecal: error: need at least one valid sample, got n_s=0 with n_nan=0\n"] * 3
    path.write_text("[" * 100_000, encoding="utf-8")
    assert run(["lifecycle", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ecal: error: invalid JSON:")
    assert len(err.splitlines()) == 1


def test_train_cost_rejects_an_overflowing_per_bit_training_energy(capsys, tmp_path):
    # Development plus one request stays finite, but 3 * M_FP / (alpha * fpj) overflows.
    doc = {**MINIMAL_SCENARIO, "bit_precision": 1, "samples": 1, "inference_batch": 1,
           "mlp": {"layers": [6, 5, 3]},
           "processing_unit": {"flops_per_joule": 1.474111431261021e-306}}
    path = tmp_path / "tiny_fpj.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    errors = []
    for command in ("train-cost", "lifecycle"):
        assert run([command, "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("ecal: error: lifecycle energy is not finite:")
    assert len(errors[0].splitlines()) == 1


def test_gamma_beyond_float_range_exits_1(capsys, tmp_path, scenario_file):
    huge = "1" + "0" * 400
    assert run(["lifecycle", "--scenario", scenario_file, "--gamma-sweep", f"1,{huge}"]) == 1
    assert capsys.readouterr().err == f"ecal: error: {beyond_float('gamma', 1329)}\n"
    # Representable, but the lifecycle bits are not.
    assert run(["lifecycle", "--scenario", scenario_file, "--gamma-sweep", f"1,{huge[:309]}"]) == 1
    assert capsys.readouterr().err.startswith("ecal: error: gamma is too large")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(MINIMAL_SCENARIO).replace('"gamma": 1000', f'"gamma": {huge}'),
                    encoding="utf-8")
    for command in ("lifecycle", "carbon"):
        assert run([command, "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith("ecal: error: gamma: too large")


@pytest.mark.parametrize("command", [["transmit"], ["storage"],
                                     ["preprocess", "--method", "normalization"]],
                         ids=["transmit", "storage", "preprocess"])
@pytest.mark.parametrize("counts, field", [
    (["--samples", "1" + "0" * 400], None),
    (["--samples", "1" + "0" * 200, "--precision", "1" + "0" * 200], "bit count"),
], ids=["401-digit samples", "10**200 each"])
def test_counts_beyond_float_range_are_one_error_line(capsys, command, counts, field):
    assert run([*command, *counts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # preprocess counts the FLOPs of its samples first; the others build the payload.
    field = field or ("n_s" if command[0] == "preprocess" else "sample_count")
    assert captured.err == f"ecal: error: {beyond_float(field, 1329)}\n"


def test_preprocess_rejects_infinite_processing_rate(capsys):
    assert run(["preprocess", "--method", "minmax", "--samples", "256",
                "--flops-per-s", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "preprocessing_flops_per_s must be positive and finite" in captured.err


def test_unknown_tech_exits_1(capsys):
    assert run(["transmit", "--tech", "wifi", "--samples", "1"]) == 1


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0


def test_carbon_rejects_a_ci_file_with_several_years_of_a_country(capsys, scenario_file,
                                                                   tmp_path):
    ci = tmp_path / "ci.csv"
    ci.write_text("country_code,country_name,year,ci_g_per_kwh\n"
                  "DE,Germany,2023,425\nDE,Germany,2022,400\n", encoding="utf-8")
    assert run(["carbon", "--scenario", scenario_file, "--ci-file", str(ci)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ecal: error: carbon-intensity table has 2 records for 'DE' "
                            "(years 2023, 2022); keep one year per country\n")


def test_output_is_deterministic(capsys, scenario_file):
    assert run(["lifecycle", "--scenario", scenario_file]) == 0
    first = capsys.readouterr().out
    assert run(["lifecycle", "--scenario", scenario_file]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_json_output_mode(capsys):
    assert run(["transmit", "--tech", "ble5", "--samples", "256", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["metric", "value"]
    assert ["B_T", 17728] in payload["rows"]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    assert run(["transmit", "--tech", "ble5", "--samples", "256", "--out", str(target)]) == 0
    assert "B_T,17728" in target.read_text(encoding="utf-8")
    missing = str(tmp_path / "missing" / "report")
    for extra in ([], ["--json"]):
        assert run(["transmit", "--samples", "256", "--out", missing, *extra]) == 2
        assert capsys.readouterr().err.startswith(
            f"ecal: i/o error: cannot write report to {missing!r}: ")


def test_cli_values_match_library_calls(capsys):
    # The CLI must add no arithmetic of its own.
    from ecal.transmission import (
        BLE5,
        PayloadSpec,
        transmission_energy,
        transmitted_bits,
    )

    assert run(["transmit", "--tech", "ble5", "--samples", "256"]) == 0
    rows = dict(line.split(",", 1) for line in _lines(capsys)[1:])
    b_t = transmitted_bits(BLE5, PayloadSpec(64, 256))
    assert int(rows["B_T"]) == b_t.bits
    assert float(rows["E_T_J"]) == transmission_energy(BLE5, b_t).joules
