import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ecal import cli
from ecal.carbon import bundled_ci_table, cf_vs_gamma
from ecal.cli import run
from ecal.lifecycle import _price, gamma_sweep, lifecycle_report
from ecal.preprocessing import StandardizationMethod
from ecal.scenario_io import REPRODUCE_TARGETS, ScenarioDocument, ScenarioError, parse_scenario
from ecal.scenario_io import reproduce, serialize_scenario
from ecal.storage import BUILTIN_STORAGE
from ecal.transmission import BUILTIN_TECHNOLOGIES
from ecal.units import BitCount, Energy, EnergyPerBit
from strategies import boundary_documents, scenarios
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


@pytest.mark.parametrize("command, flag, builtins", [
    ("transmit", "--tech", BUILTIN_TECHNOLOGIES),
    ("storage", "--storage", BUILTIN_STORAGE),
    ("preprocess", "--method", [m.value for m in StandardizationMethod]),
], ids=["tech", "storage", "method"])
def test_help_names_the_built_ins(command, flag, builtins):
    # Written out by hand, so that reading the option table loads no model module.
    option = cli._COMMANDS[command][2][flag]
    assert option["help"].partition("(")[2] == ", ".join(builtins) + ")"
    assert option.get("required") or option["default"] in builtins


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
    assert captured.err == "ecal: error: --gamma-sweep: must be >= 1, got 0\n"


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

    # Without --ci-file the table is the bundled one; no environment variable is read.
    assert run(["carbon", "--scenario", scenario_file]) == 0
    bundled = capsys.readouterr().out
    assert "DE" in bundled and "NO" not in bundled
    monkeypatch.setenv("ECAL_CI_FILE", str(ci))
    assert run(["carbon", "--scenario", scenario_file]) == 0
    assert capsys.readouterr().out == bundled


def test_reproduce_single_target_to_stdout(capsys):
    assert run(["reproduce", "--target", "table1"]) == 0
    assert capsys.readouterr().out == reproduce("table1").to_csv()


def test_reproduce_all_targets_to_directory(tmp_path):
    out_dir = tmp_path / "golden"
    assert run(["reproduce", "--target", "all", "--out", str(out_dir)]) == 0
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == sorted(f"{t}.csv" for t in REPRODUCE_TARGETS)
    golden = Path(__file__).parent / "golden"
    for name in written:
        assert (out_dir / name).read_bytes() == (golden / name).read_bytes(), name


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


@pytest.mark.parametrize("argv, message", [
    (["transmit", "--samples", 5], "argv[2] must be a str, got int"),
    (["transmit", 5], "argv[1] must be a str, got int"),
    ([b"transmit"], "argv[0] must be a str, got bytes"),
    (5, "argv must be a sequence, got int"),
], ids=["int-value", "int-command", "bytes-command", "int-argv"])
def test_an_argv_item_that_is_not_a_str_is_one_error_line(capsys, argv, message):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"ecal: error: {message}\n")


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
    # The default 70/30 split of one sample trains none: rejected where it is given.
    path.write_text(json.dumps({"samples": 1, "mlp": {"layers": [6, 5, 3]}, "epochs": 10,
                                "inference_batch": 7, "gamma": 10}), encoding="utf-8")
    message = "split_ratio: leaves no training sample, got 0.7"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(path.read_text(encoding="utf-8"))
    for command in ("lifecycle", "train-cost", "carbon"):
        assert run([command, "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", f"ecal: error: {message}\n")
    path.write_text("[" * 100_000, encoding="utf-8")
    assert run(["lifecycle", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ecal: error: invalid JSON:")
    assert len(err.splitlines()) == 1


def test_train_cost_rejects_an_overflowing_per_bit_training_energy(capsys, tmp_path):
    # 3 * M_FP / (alpha * fpj) overflows, and so does the training term of development,
    # which is at least as large on one trained sample.
    doc = {**MINIMAL_SCENARIO, "bit_precision": 1, "samples": 1, "split_ratio": 1.0,
           "inference_batch": 1, "mlp": {"layers": [6, 5, 3]},
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


def test_a_scenario_whose_bits_overflow_fails_alike_in_every_subcommand(capsys, tmp_path):
    # Every joule is finite at gamma 1, but the development bits exceed the float range.
    doc = {**MINIMAL_SCENARIO, "samples": 8388608, "bit_precision": 10**301,
           "mlp": {"layers": [6, 5, 3]}, "gamma": 1}
    path = tmp_path / "wide_bits.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("train-cost", "lifecycle", "carbon"):
        assert run([command, "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", "ecal: error: scenario is too large to price: "
                                           "a count exceeds the floating-point range\n")


def test_a_gamma_that_does_not_price_fails_alike_in_every_subcommand(capsys, tmp_path):
    # gamma fits a float, but the lifecycle bits after that many requests do not,
    # so no subcommand prints a figure of the scenario, swept or not.
    path = tmp_path / "huge_gamma.json"
    path.write_text(json.dumps({**MINIMAL_SCENARIO, "gamma": 10**308}), encoding="utf-8")
    for argv in (["train-cost"], ["lifecycle"], ["lifecycle", *SWEEP], ["carbon"]):
        assert run([*argv, "--scenario", str(path)]) == 1
        assert capsys.readouterr() == ("", "ecal: error: gamma is too large to price: lifecycle "
                                           "energy or bits exceed the floating-point range "
                                           "(gamma has 1024 bits)\n")


def test_a_file_that_is_not_utf8_is_one_error_line_naming_it(capsys, tmp_path, scenario_file):
    table = tmp_path / "latin1.csv"
    table.write_bytes(b"country_code,country_name,year,ci_g_per_kwh\nDE,K\xf6ln,2023,425\n")
    document = tmp_path / "latin1.json"
    document.write_bytes(b'{"samples": 256,\n "name": "K\xf6ln"}\n')
    for argv, path in ((["carbon", "--scenario", scenario_file, "--ci-file", str(table)], table),
                       (["lifecycle", "--scenario", str(document)], document)):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"ecal: error: {path}: line 2: not UTF-8 (byte 0xf6)\n")


def test_gamma_beyond_float_range_exits_1(capsys, tmp_path, scenario_file):
    huge = "1" + "0" * 400
    assert run(["lifecycle", "--scenario", scenario_file, "--gamma-sweep", f"1,{huge}"]) == 1
    assert capsys.readouterr().err == ("ecal: error: --gamma-sweep: too large for "
                                       "floating-point arithmetic (1329-bit integer)\n")
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
@pytest.mark.parametrize("counts, message", [
    (["--samples", "1" + "0" * 400],
     "--samples: too large for floating-point arithmetic (1329-bit integer)"),
    (["--samples", "1" + "0" * 200, "--precision", "1" + "0" * 200],
     beyond_float("bit count", 1329)),
], ids=["401-digit samples", "10**200 each"])
def test_counts_beyond_float_range_are_one_error_line(capsys, command, counts, message):
    assert run([*command, *counts]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # An option's own count names the option; a count derived from two does not.
    assert captured.err == f"ecal: error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["transmit", "--samples", "-1"], "--samples: must be >= 0, got -1"),
    (["storage", "--samples", "-1"], "--samples: must be >= 0, got -1"),
    # preprocess needs one valid sample: --samples at least 1, --invalid below it.
    (["preprocess", "--method", "minmax", "--samples", "-1"], "--samples: must be >= 1, got -1"),
    (["transmit", "--samples", "5", "--precision", "0"], "--precision: must be >= 1, got 0"),
    (["preprocess", "--method", "minmax", "--samples", "5", "--precision", "0"],
     "--precision: must be >= 1, got 0"),
    (["preprocess", "--method", "minmax", "--samples", "5", "--invalid", "-1"],
     "--invalid: must be in [0, 4], got -1"),
    (["preprocess", "--method", "minmax", "--samples", "5", "--invalid", "5"],
     "--invalid: must be in [0, 4], got 5"),
], ids=["transmit samples", "storage samples", "preprocess samples", "transmit precision",
        "preprocess precision", "invalid", "no valid sample"])
def test_an_option_error_names_the_option(capsys, argv, message):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"ecal: error: {message}\n")


def test_unknown_tech_exits_1(capsys):
    assert run(["transmit", "--tech", "wifi", "--samples", "1"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["transmit", "--tech", "wifi", "--samples", "1"],
     "unknown technology 'wifi'; known: ble5, zigbee, lorawan"),
    (["storage", "--storage", "tape", "--samples", "1"],
     "unknown storage medium 'tape'; known: hdd, ssd"),
    (["preprocess", "--method", "x", "--samples", "1"],
     "unknown preprocessing method 'x'; known: minmax, normalization"),
    (["reproduce", "--target", "table99"],
     "unknown reproduce target 'table99'; known: table1, table2, fig2, fig4, fig5, fig6, fig7, "
     "fig8, fig9ab, fig11, fig12, table3, fig13"),
    (["carbon", "--scenario", "XX"], "unknown country 'XX'; known: DE, IE, SI, ES, FI"),
], ids=["tech", "storage", "method", "target", "country"])
def test_an_unknown_built_in_is_one_unquoted_error_line(capsys, tmp_path, argv, message):
    # Every unknown name is a LookupError, whose message the CLI prints as it is,
    # never argparse's usage line.
    if argv[0] == "carbon":  # a document whose one country is not in the bundled table
        path = tmp_path / "unknown_country.json"
        path.write_text(json.dumps({**MINIMAL_SCENARIO, "countries": ["XX"]}), encoding="utf-8")
        argv = ["carbon", "--scenario", str(path)]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"ecal: error: {message}\n")


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0


# --- help and usage texts, all of them argparse's (Python 3.11) ------------------

# Each help text, by the arguments before "--help".
HELP = {
    (): (
        "usage: ecal [-h]\n"
        "            {transmit,storage,preprocess,train-cost,lifecycle,carbon,reproduce}\n"
        "            ...\n"
        "\n"
        "Command-line interface: scenarios in, CSV (or JSON) reports out.\n"
        "\n"
        "positional arguments:\n"
        "  {transmit,storage,preprocess,train-cost,lifecycle,carbon,reproduce}\n"
        "    transmit            packet accounting and radio energy\n"
        "    storage             write energy of storing a dataset\n"
        "    preprocess          FLOPs, time, and energy of preprocessing on the\n"
        "                        default processing unit\n"
        "    train-cost          training, evaluation, and inference cost\n"
        "    lifecycle           full lifecycle report for a scenario\n"
        "    carbon              carbon footprint per country\n"
        "    reproduce           emit the bundled reference datasets\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"),
    ("transmit",): (
        "usage: ecal transmit [-h] [--json] [--out PATH] --samples SAMPLES\n"
        "                     [--precision PRECISION] [--strict-eq2] [--tech TECH]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --json                emit JSON instead of CSV\n"
        "  --out PATH            write the report to PATH instead of stdout\n"
        "  --samples SAMPLES\n"
        "  --precision PRECISION\n"
        "                        bits per sample\n"
        "  --strict-eq2          ignore per-profile packet-count overrides\n"
        "  --tech TECH           technology name (ble5, zigbee, lorawan)\n"),
    ("storage",): (
        "usage: ecal storage [-h] [--json] [--out PATH] --samples SAMPLES\n"
        "                    [--precision PRECISION] [--storage MEDIUM]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --json                emit JSON instead of CSV\n"
        "  --out PATH            write the report to PATH instead of stdout\n"
        "  --samples SAMPLES\n"
        "  --precision PRECISION\n"
        "                        bits per sample\n"
        "  --storage MEDIUM      storage medium name (hdd, ssd)\n"),
    ("preprocess",): (
        "usage: ecal preprocess [-h] [--json] [--out PATH] --samples SAMPLES\n"
        "                       [--precision PRECISION] --method METHOD\n"
        "                       [--invalid INVALID]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --json                emit JSON instead of CSV\n"
        "  --out PATH            write the report to PATH instead of stdout\n"
        "  --samples SAMPLES\n"
        "  --precision PRECISION\n"
        "                        bits per sample\n"
        "  --method METHOD       preprocessing method (minmax, normalization)\n"
        "  --invalid INVALID\n"),
    ("train-cost",): (
        "usage: ecal train-cost [-h] [--json] [--out PATH] --scenario FILE\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --json           emit JSON instead of CSV\n"
        "  --out PATH       write the report to PATH instead of stdout\n"
        "  --scenario FILE\n"),
    ("lifecycle",): (
        "usage: ecal lifecycle [-h] [--json] [--out PATH] --scenario FILE\n"
        "                      [--strict-eq2] [--gamma-sweep A,B,C]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --json               emit JSON instead of CSV\n"
        "  --out PATH           write the report to PATH instead of stdout\n"
        "  --scenario FILE\n"
        "  --strict-eq2         ignore per-profile packet-count overrides\n"
        "  --gamma-sweep A,B,C  comma-separated request counts to sweep\n"),
    ("carbon",): (
        "usage: ecal carbon [-h] [--json] [--out PATH] --scenario FILE [--ci-file FILE]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --json           emit JSON instead of CSV\n"
        "  --out PATH       write the report to PATH instead of stdout\n"
        "  --scenario FILE\n"
        "  --ci-file FILE   carbon-intensity CSV (default: bundled table)\n"),
    ("reproduce",): (
        "usage: ecal reproduce [-h] --target TARGET [--out DIR]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --target TARGET  one of: table1, table2, fig2, fig4, fig5, fig6, fig7, fig8,\n"
        "                   fig9ab, fig11, fig12, table3, fig13, or 'all'\n"
        "  --out DIR        directory to write <target>.csv files into\n"),
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda command: " ".join(["ecal", *command]))
def test_every_help_text_is_pinned(command):
    assert _cli([*command, "--help"]) == (0, HELP[command], "")


def _usage(command):
    """The usage lines that open ``ecal COMMAND --help``."""
    return HELP[command].partition("\n\n")[0] + "\n"


@pytest.mark.parametrize("argv, command, message", [
    (["transmit"], ("transmit",), "the following arguments are required: --samples"),
    (["transmit", "--samples", "x"], ("transmit",), "argument --samples: invalid int value: 'x'"),
    (["transmit", "--samples", "5", "--bogus"], (), "unrecognized arguments: --bogus"),
    (["storage", "--s", "5"], ("storage",),
     "ambiguous option: --s could match --samples, --storage"),
], ids=["missing samples", "samples x", "unknown option", "ambiguous abbreviation"])
def test_usage_errors_are_pinned(argv, command, message):
    prog = " ".join(["ecal", *command])
    assert _cli(argv) == (1, "", f"{_usage(command)}{prog}: error: {message}\n")


def test_an_abbreviated_option_prints_the_same_report():
    code, out, err = _cli(["transmit", "--samp", "5"])
    assert (code, err) == (0, "") and out.startswith("metric,value\npayload_bits,320\n")
    assert _cli(["transmit", "--samples", "5"]) == (code, out, err)


@pytest.mark.parametrize("argv, message", [
    (["transmit", "--samples", "5", "--out", ""],
     "cannot write report to '': [Errno 2] No such file or directory: ''"),
    (["carbon", "--scenario", "scenarios/default.json", "--ci-file", ""],
     "[Errno 2] No such file or directory: ''"),
    (["reproduce", "--target", "all", "--out", ""], "[Errno 2] No such file or directory: ''"),
    (["lifecycle", "--scenario", ""], "[Errno 2] No such file or directory: ''"),
], ids=["out", "ci-file", "reproduce out", "scenario"])
def test_an_empty_path_is_an_io_error(argv, message, monkeypatch):
    # An empty path names no file: it is neither stdout nor the bundled table.
    monkeypatch.chdir(Path(__file__).parent.parent)
    assert _cli(argv) == (2, "", f"ecal: i/o error: {message}\n")


# Values that are well formed for an option that takes a str, and most of them
# for one that takes an int.
VALUES = st.sampled_from(["5", "256", "0", "64", " 7", "ble5", "a.json", "1,2", ""])
COMMANDS = [command for command, in filter(None, HELP)]
FLAGS = sorted(set(re.findall(r"--[\w-]+", "".join(HELP.values()))))
_flag = st.sampled_from(FLAGS)
DASHED = st.sampled_from(["-1", "-x", "-", "-h", "--"])
# A piece that makes a call ill formed for the fast parser, if not for argparse.
FAULTS = st.one_of(
    st.tuples(st.builds(lambda flag, n: flag[:n], _flag, st.integers(3, 8)), VALUES),
    st.builds(lambda flag, value: (f"{flag}={value}",), _flag, VALUES),
    st.tuples(_flag, st.one_of(DASHED, st.sampled_from(["x", "1e3"]))),
    st.tuples(_flag), st.tuples(_flag, VALUES), st.tuples(VALUES),
    st.tuples(st.one_of(st.sampled_from(["-h", "--help", "--", "--bogus", 5, None]),
                        st.text(max_size=3))))


def _options(command):
    """Each option ``ecal COMMAND --help`` lists, as its flag and its metavar,
    or "" for a flag that takes no value."""
    return re.findall(r"^  (--[\w-]+)( [A-Z,]+)?", HELP[(command,)], re.MULTILINE)


@st.composite
def command_lines(draw):
    """A subcommand and some of its own options, each with a value if it takes
    one; then up to two faults, each put anywhere, the subcommand's place too."""
    argv = [draw(st.sampled_from(COMMANDS))]
    options = _options(argv[0])
    for flag, metavar in draw(st.lists(st.sampled_from(options), max_size=6)):
        argv += [flag, draw(VALUES)] if metavar else [flag]
    # An own option whose value starts with "-", which argparse may take as a flag.
    dashed = st.tuples(st.sampled_from([flag for flag, metavar in options if metavar]), DASHED)
    for _ in range(draw(st.integers(0, 2))):
        position = draw(st.integers(0, len(argv)))
        argv[position:position] = draw(st.one_of(FAULTS, dashed))
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["transmit", "--tech", "zigbee", "--samples", "256", "--precision", "32",
               "--json", "--out", "report.csv", "--strict-eq2"])
@example(argv=["preprocess", "--method", "minmax", "--samples", "5", "--invalid", "1",
               "--samples", "7"])
@example(argv=["lifecycle", "--scenario", "a.json", "--gamma-sweep", "1,2", "--strict-eq2"])
@example(argv=["reproduce", "--out", "", "--target", "all"])
@example(argv=["storage", "--samples", "5", "--storage", "ssd", "--precision", "x"])
@example(argv=[])
def test_the_fast_parser_agrees_with_argparse(argv):
    fast = cli._parse(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        parsed = None  # argparse printed help or a usage error
    except TypeError:
        parsed = None  # a token that is not a str
    # The fast parser accepts a strict subset of what argparse accepts, and
    # gives what argparse gives; everything else goes to argparse.
    assert fast is None or vars(fast) == parsed


def test_carbon_rejects_a_ci_file_with_several_years_of_a_country(capsys, scenario_file,
                                                                   tmp_path):
    ci = tmp_path / "ci.csv"
    ci.write_text("country_code,country_name,year,ci_g_per_kwh\n"
                  "DE,Germany,2023,425\nDE,Germany,2022,400\n", encoding="utf-8")
    assert run(["carbon", "--scenario", scenario_file, "--ci-file", str(ci)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ecal: error: line 3: duplicate entry for 'DE'; "
                            "keep one row per country\n")


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


# --- the CLI says what the library says ----------------------------------------

# `ecal train-cost`'s rows, each with the field of the priced lifecycle it prints.
TRAIN_COST_FIELDS = (
    ("M_FP", "forward_flops"), ("M_MLP_FP", "training_forward_flops"),
    ("M_MLP", "training_flops"), ("N_inf_flops", "inference_flops"),
    ("E_train_J", "training"), ("E_train_b_J_per_b", "training_per_bit"),
    ("E_eval_J", "evaluation"), ("E_eval_b_J_per_b", "forward_per_bit"),
    ("E_inf_J", "inference"),
)
UNIT_FIELD = {BitCount: "bits", Energy: "joules", EnergyPerBit: "joules_per_bit"}
SWEEP = ("--gamma-sweep", "1,1000")
# Each scenario subcommand the property runs, as its command and flags.
SCENARIO_CALLS = (("train-cost", ()), ("lifecycle", ()), ("lifecycle", SWEEP), ("carbon", ()))
# Every joule is finite at gamma 1, but the development bits exceed the float range.
WIDE_BITS = {"samples": 8388608, "bit_precision": 10**301, "mlp": {"layers": [6, 5, 3]},
             "epochs": 1, "inference_batch": 1, "gamma": 1}


def _library(s, command, flags=()):
    """The columns and rows that ``ecal COMMAND FLAGS`` prints for scenario ``s``,
    as the library gives them."""
    if command == "train-cost":
        p = _price(s)
        return ("metric", "value"), [(row, getattr(p, field)) for row, field in TRAIN_COST_FIELDS]
    if command == "carbon":
        return (("gamma", "country_code", "ci_g_per_kwh", "cf_development_g", "cf_inference_g",
                 "cf_total_g"),
                [(r.gamma, r.country_code, r.intensity.grams_co2e_per_kwh, r.cf_development_g,
                  r.cf_inference_g, r.cf_total_g)
                 for r in cf_vs_gamma(s, bundled_ci_table(), [s.gamma]).rows])
    if flags:
        gammas = tuple(map(int, flags[1].split(",")))
        return (("gamma", "ecal_abs_J", "ecal_abs_mean_J", "eCAL_J_per_b"),
                [(g, total.joules, mean.joules, per_bit.joules_per_bit)
                 for g, total, mean, per_bit in gamma_sweep(s, gammas)])
    return ("metric", "value"), [
        (row, value if type(value) is int else getattr(value, UNIT_FIELD[type(value)]))
        for (row, _), value in zip(LIFECYCLE_ROWS, lifecycle_report(s))]


def _outcome(call):
    """``call()`` and None, or None and the error it raised."""
    try:
        return call(), None
    except (ValueError, LookupError) as exc:
        return None, exc


def _printed(table, as_json):
    """A report's text by one rule: CSV cells are ``str``, JSON rows are arrays."""
    columns, rows = table
    if as_json:
        return json.dumps({"columns": list(columns), "rows": [list(row) for row in rows]},
                          indent=2) + "\n"
    return "".join(",".join(map(str, line)) + "\n" for line in [columns, *rows])


def _cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def inefficient_documents(draw):
    """A scenario document whose FLOPs per joule, 1e-308 to 1e-289, bring its
    joules near or past the float range."""
    s = draw(scenarios())
    fpj = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-308, -290))
    s = s.__replace__(processing_unit=s.processing_unit.__replace__(flops_per_joule=fpj))
    return json.loads(serialize_scenario(ScenarioDocument(s)))


@settings(max_examples=100, deadline=None)
@given(doc=st.one_of(boundary_documents().map(lambda drawn: drawn[0]), inefficient_documents()))
@example(doc=WIDE_BITS)
@example(doc={**MINIMAL_SCENARIO, "gamma": 10**308})
@example(doc={**MINIMAL_SCENARIO, "technology": "wifi"})
def test_each_scenario_subcommand_prints_what_the_library_gives(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "drawn.json"
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    s, parse_error = _outcome(lambda: parse_scenario(text).scenario)
    errors = []
    for command, flags in SCENARIO_CALLS:
        table, error = ((None, parse_error) if s is None
                        else _outcome(partial(_library, s, command, flags)))
        errors.append(error)
        for as_json in (False, True):
            argv = [command, "--scenario", str(path), *flags, *["--json"] * as_json]
            if error is None:
                assert _cli(argv) == (0, _printed(table, as_json), ""), argv
            else:
                assert "\n" not in str(error)
                assert _cli(argv) == (1, "", f"ecal: error: {error}\n"), argv
    train, life, sweep, carbon = (error and str(error) for error in errors)
    # Carbon fails as lifecycle does, unless a country is not in its table.
    assert carbon == life or isinstance(errors[3], LookupError)
    assert life == train  # every call prices the document at its own gamma
    if train is not None:  # the document does not parse or price: every call says so
        assert sweep == train
    else:  # the sweep fails as lifecycle does at its first gamma that does not price
        at_1000 = _outcome(partial(_library, s.__replace__(gamma=1000), "lifecycle"))[1]
        assert sweep == (at_1000 and str(at_1000))


# --- a process prints what run returns -----------------------------------------

ROOT = Path(__file__).parent.parent
# Without PYTHONUNBUFFERED stdout is block-buffered, as on most hosts, so a
# report that a process ended by os._exit left unflushed would be lost.
CHILD_ENV = {**{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
             "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
MODULE = (sys.executable, "-m", "ecal")
CONSOLE_SCRIPT = (sys.executable, "-c", "from ecal.cli import main; main()")


def _process(argv, command=MODULE, stdout=subprocess.PIPE):
    """Exit code, stdout bytes and stderr of ``command ARGV`` in a new process."""
    proc = subprocess.run([*command, *argv], cwd=ROOT, env=CHILD_ENV, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr.decode()


@pytest.mark.parametrize("command, argv", [
    (MODULE, ["transmit", "--samples", "256"]),
    (MODULE, ["storage", "--samples", "256"]),
    (MODULE, ["preprocess", "--method", "normalization", "--samples", "256"]),
    (MODULE, ["train-cost", "--scenario", "scenarios/default.json"]),
    (MODULE, ["lifecycle", "--scenario", "scenarios/default.json"]),
    (MODULE, ["lifecycle", "--scenario", "scenarios/default.json", "--gamma-sweep", "100,1000"]),
    (MODULE, ["carbon", "--scenario", "scenarios/default.json"]),
    (MODULE, ["carbon", "--scenario", "scenarios/default.json", "--json"]),
    (MODULE, ["--help"]),
    (MODULE, ["transmit", "--samples", "-1"]),
    (MODULE, ["lifecycle", "--scenario", "missing.json"]),
    (CONSOLE_SCRIPT, ["lifecycle", "--scenario", "scenarios/default.json", "--json"]),
], ids=lambda value: " ".join(value) if isinstance(value, list) else
    "console script" if value == CONSOLE_SCRIPT else "-m")
def test_a_process_prints_what_run_returns(command, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = _cli(argv)
    assert _process(argv, command) == (code, out.encode(), err)


def test_a_process_writes_the_files_run_writes(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["reproduce", "--target", "all", "--out"]
    assert _process([*argv, str(tmp_path / "process")]) == (0, b"", "")
    assert _cli([*argv, str(tmp_path / "run")]) == (0, "", "")
    written = {path.name: path.read_bytes() for path in (tmp_path / "run").iterdir()}
    assert len(written) == len(REPRODUCE_TARGETS)
    assert {path.name: path.read_bytes()
            for path in (tmp_path / "process").iterdir()} == written


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_report_that_stdout_cannot_take_is_an_io_error():
    with open("/dev/full", "wb") as full:
        assert _process(["transmit", "--samples", "5"], stdout=full) == (
            2, None, "ecal: i/o error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["transmit", "--help"]], ids=" ".join)
def test_a_help_that_stdout_cannot_take_is_an_io_error(argv, unbuffered, monkeypatch):
    # Help is written and flushed as a report is, so it is not lost in silence:
    # buffered, the flush fails; unbuffered, the write does.
    if unbuffered:
        monkeypatch.setitem(CHILD_ENV, "PYTHONUNBUFFERED", "1")
    with open("/dev/full", "wb") as full:
        assert _process(argv, stdout=full) == (
            2, None, "ecal: i/o error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("target", ["table1", "fig5"])  # fig5 outgrows a pipe's buffer
def test_a_report_whose_reader_is_gone_is_an_io_error(target):
    reader, writer = os.pipe()
    os.close(reader)
    try:
        assert _process(["reproduce", "--target", target], stdout=writer) == (
            2, None, "ecal: i/o error: [Errno 32] Broken pipe\n")
    finally:
        os.close(writer)


def test_a_closed_stdout_is_an_io_error():
    closed = ("sh", "-c", 'exec "$0" -m ecal "$@" >&-', sys.executable)
    assert _process(["transmit", "--samples", "5"], closed, stdout=None) == (
        2, None, "ecal: i/o error: stdout is closed\n")
