"""The package's public names, and which modules each CLI call imports.

``import ecal`` imports no submodule: each public name is loaded from its
submodule on first use, and each CLI subcommand imports only what it uses,
never ``typing``.
Import checks run in a fresh ``python -S`` interpreter, so modules that a
site hook happens to import cannot hide an import of ecal's own.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ecal

# The package's public names, by the submodule they come from.
EXPORTS = {
    "units": "units BitCount BitRate CarbonIntensity Energy EnergyPerBit FlopCount Power "
             "joules_to_kwh kwh_to_joules wh_per_tb_to_j_per_bit",
    "transmission": "transmission BLE5 BUILTIN_TECHNOLOGIES LORAWAN PayloadSpec "
                    "TechnologyProfile ZIGBEE cumulative_transmission_energy "
                    "fixed_overhead_profile packet_count payload_bits technology_profile "
                    "transmission_energy transmission_energy_per_bit transmitted_bits "
                    "without_packet_override",
    "storage": "storage BUILTIN_STORAGE HDD SSD StorageProfile storage_energy "
               "storage_energy_per_bit storage_profile",
    "preprocessing": "preprocessing DegenerateDeviationError DegenerateRangeError FlopLedger "
                     "RawDataset StandardizationMethod clean minmax_scale "
                     "normalize preprocessing_energy preprocessing_energy_per_bit "
                     "preprocessing_flops",
    "mlp_cost": "mlp_cost DEFAULT_FLOPS_PER_JOULE DEFAULT_PROCESSING_UNIT MlpArchitecture "
                "ProcessingUnitProfile TrainSplit evaluation_energy forward_flops "
                "forward_pass_energy_per_bit inference_energy inference_flops make_split "
                "training_energy training_forward_flops training_total_flops "
                "uniform_architecture",
    "lifecycle": "lifecycle GammaRow LifecycleReport Scenario default_scenario "
                 "development_energy ecal ecal_abs ecal_abs_mean gamma_sweep "
                 "inference_phase_energy lifecycle_report",
    "carbon": "carbon CarbonIntensityRecord CarbonReport CarbonReportRow CiTableError "
              "DuplicateCountryError UnknownCountryError bundled_ci_table carbon_footprint "
              "cf_vs_gamma load_ci_table",
    "scenario_io": "scenario_io REPRODUCE_TARGETS ReportTable ScenarioDocument ScenarioError "
                   "Sweeps UnknownTargetError load_scenario parse_scenario reproduce "
                   "serialize_scenario write_report",
}
NAMES = [name for names in EXPORTS.values() for name in names.split()]

SRC = os.path.dirname(os.path.dirname(ecal.__file__))


def _fresh_python(code, *args):
    """Stdout of ``code`` run with ``args`` in a new ``python -S`` on this package."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=SRC))
    return proc.stdout


def test_public_names_are_pinned():
    assert len(NAMES) == len(set(NAMES)) == 98
    assert sorted(ecal.__all__) == sorted(NAMES)


def test_each_public_name_is_in_one_submodule_all():
    modules = ["units", "transmission", "storage", "preprocessing", "mlp_cost", "lifecycle",
               "carbon", "report", "scenario_io"]
    lists = {module: importlib.import_module(f"ecal.{module}").__all__ for module in modules}
    listed = [name for names in lists.values() for name in names]
    assert len(listed) == len(set(listed))  # the lists are pairwise disjoint
    assert set(listed) == set(ecal.__all__) - set(modules)
    assert len(listed) == 98 - 8
    for module, names in lists.items():
        own = importlib.import_module(f"ecal.{module}")
        assert [name for name in names if not hasattr(own, name)] == [], module


def test_names_resolve_lazily_in_a_fresh_interpreter():
    probe = """
import importlib, json, sys
import ecal
loaded = sorted(m for m in sys.modules if m.startswith("ecal."))
wrong = []
for module, names in json.loads(sys.argv[1]).items():
    for name in names.split():
        namespace = {}
        exec(f"from ecal import {name}", namespace)
        own = importlib.import_module(f"ecal.{module}")
        if namespace[name] is not (own if name == module else getattr(own, name)):
            wrong.append(name)
star = {}
exec("from ecal import *", star)
print(json.dumps({"loaded": loaded, "wrong": wrong, "dir": dir(ecal),
                  "star": sorted(set(star) - {"__builtins__"})}))
"""
    result = json.loads(_fresh_python(probe, json.dumps(EXPORTS)))
    assert result["loaded"] == []
    assert result["wrong"] == []
    assert result["star"] == sorted(NAMES)
    assert set(NAMES) <= set(result["dir"])
    assert "__version__" in result["dir"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ecal.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ecal import no_such_name", {})


RUN_AND_LIST_MODULES = ("import sys\nfrom ecal.cli import run\nrun(sys.argv[1:])\n"
                        "print()\nprint(*sorted(sys.modules))")


def _modules_after(argv):
    """Output and modules loaded by one CLI call in a fresh ``python -S``."""
    out = _fresh_python(RUN_AND_LIST_MODULES, *argv)
    text, _, modules = out.rpartition("\n\n")
    return text, set(modules.split())


SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "default.json")
LIGHT_CALLS = [
    ["transmit", "--tech", "lorawan", "--samples", "256", "--strict-eq2"],
    ["storage", "--storage", "ssd", "--samples", "256"],
    ["preprocess", "--method", "normalization", "--samples", "256"],
]


def test_import_ecal_loads_no_submodule():
    loaded = _fresh_python("import sys, ecal\nprint(*sorted(sys.modules))").split()
    assert "ecal" in loaded
    assert [m for m in loaded if m.startswith("ecal.")] == []


@pytest.mark.parametrize("argv", LIGHT_CALLS, ids=lambda argv: argv[0])
def test_radio_storage_and_preprocessing_calls_load_no_scenario_machinery(argv):
    text, modules = _modules_after(argv)
    assert text.startswith("metric,value\n")
    heavy = {"dataclasses", "json", "csv", "ecal.lifecycle", "ecal.scenario_io", "ecal.carbon",
             "typing"}
    if argv[0] != "preprocess":
        heavy |= {"ecal.preprocessing", "ecal.mlp_cost"}
    assert modules & heavy == set()


@pytest.mark.parametrize("command", ["lifecycle", "train-cost"])
def test_scenario_calls_load_no_carbon_table(command):
    text, modules = _modules_after([command, "--scenario", SCENARIO])
    assert "E_train_J," in text
    assert "ecal.lifecycle" in modules
    assert modules & {"ecal.carbon", "csv", "importlib.resources", "typing"} == set()


@pytest.mark.parametrize("command", ["carbon", "reproduce"])
def test_the_bundled_carbon_table_is_read_without_importlib_resources(command, tmp_path):
    argv = (["carbon", "--scenario", SCENARIO] if command == "carbon"
            else ["reproduce", "--target", "fig13", "--out", str(tmp_path)])
    text, modules = _modules_after(argv)
    assert "ecal.carbon" in modules
    assert modules & {"importlib.resources", "typing"} == set()
    table = text if command == "carbon" else (tmp_path / "fig13.csv").read_text(encoding="utf-8")
    assert table.startswith("gamma,country_code,ci_g_per_kwh,")


def test_json_output_imports_json():
    text, modules = _modules_after(["transmit", "--samples", "256", "--json"])
    assert json.loads(text)["columns"] == ["metric", "value"]
    assert "json" in modules


def test_reproduce_help_lists_every_target_without_the_model():
    text, modules = _modules_after(["reproduce", "--help"])
    targets = ("table1, table2, fig2, fig4, fig5, fig6, fig7, fig8, fig9ab, fig11, fig12, "
               "table3, fig13")
    assert targets in " ".join(text.split())
    assert "ecal.lifecycle" not in modules
