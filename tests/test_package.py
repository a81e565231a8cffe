"""The package's public names, and which modules each CLI call imports.

``import ecal`` imports no submodule: each public name is loaded from its
submodule on first use, and each CLI subcommand imports only what it uses,
never ``typing``, ``dataclasses`` or ``shutil``; a well-formed call never
imports ``argparse`` either.
Import checks run in a fresh ``python -S`` interpreter, so modules that a
site hook happens to import cannot hide an import of ecal's own.
"""

import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import HealthCheck, Verbosity, example, given, settings, strategies as st

import ecal
from ecal.units import FieldError, _Value
from test_cli import HELP, LORAWAN_STRICT_LIFECYCLE_ROWS, MINIMAL_SCENARIO, _usage

# The package's public names, by the submodule they come from.
EXPORTS = {
    "units": "units BitCount CarbonIntensity Energy EnergyPerBit FlopCount joules_to_kwh "
             "kwh_to_joules wh_per_tb_to_j_per_bit",
    "transmission": "transmission BLE5 BUILTIN_TECHNOLOGIES LORAWAN PayloadSpec "
                    "TechnologyProfile ZIGBEE cumulative_transmission_energy "
                    "fixed_overhead_profile packet_count payload_bits technology_profile "
                    "transmission_energy transmission_energy_per_bit transmitted_bits "
                    "without_packet_override",
    "storage": "storage BUILTIN_STORAGE HDD SSD StorageProfile storage_energy "
               "storage_energy_per_bit storage_profile",
    "preprocessing": "preprocessing FlopLedger RawDataset StandardizationMethod clean "
                     "minmax_scale normalize preprocessing_energy "
                     "preprocessing_energy_per_bit preprocessing_flops",
    "mlp_cost": "mlp_cost DEFAULT_PROCESSING_UNIT MlpArchitecture "
                "ProcessingUnitProfile TrainSplit evaluation_energy forward_flops "
                "forward_pass_energy_per_bit inference_energy inference_flops make_split "
                "training_energy training_forward_flops training_total_flops "
                "uniform_architecture",
    "lifecycle": "lifecycle GammaRow LifecycleReport Scenario default_scenario "
                 "development_energy ecal ecal_abs ecal_abs_mean gamma_sweep "
                 "inference_phase_energy lifecycle_report",
    "carbon": "carbon CarbonIntensityRecord CarbonReport CarbonReportRow CiTableError "
              "bundled_ci_table carbon_footprint cf_vs_gamma load_ci_table",
    "scenario_io": "scenario_io REPRODUCE_TARGETS ReportTable ScenarioDocument ScenarioError "
                   "Sweeps load_scenario parse_scenario reproduce serialize_scenario "
                   "write_report",
}
NAMES = [name for names in EXPORTS.values() for name in names.split()]

SRC = os.path.dirname(os.path.dirname(ecal.__file__))


def _fresh_python(code, *args):
    """Stdout of ``code`` run with ``args`` in a new ``python -S`` on this package."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=SRC))
    return proc.stdout


def test_public_names_are_pinned():
    assert len(NAMES) == len(set(NAMES)) == 90
    assert sorted(ecal.__all__) == sorted(NAMES)


def test_each_public_name_is_in_one_submodule_all():
    modules = ["units", "transmission", "storage", "preprocessing", "mlp_cost", "lifecycle",
               "carbon", "report", "scenario_io"]
    lists = {module: importlib.import_module(f"ecal.{module}").__all__ for module in modules}
    listed = [name for names in lists.values() for name in names]
    assert len(listed) == len(set(listed))  # the lists are pairwise disjoint
    assert set(listed) == set(ecal.__all__) - set(modules)
    assert len(listed) == 90 - 8
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


# Every public callable is total: given a wrong value for any one argument, it
# returns only finite floats, or raises a FieldError (which names the
# argument), a CiTableError or a ScenarioError (which name the line or the
# field of a file's content) or a LookupError (an unknown name), never a bare
# Python error.  So each callable has one valid call here, and each of its
# arguments is replaced in turn.
WRONG_VALUES = (5, "x", None, 2.5, [5], True)
ALLOWED_ERRORS = (FieldError, ecal.CiTableError, ecal.ScenarioError, LookupError)
# Public callables left out: exception classes, and namedtuples of results.
NOT_CALLED = {"CiTableError", "ScenarioError", "CarbonReport", "CarbonReportRow", "FlopLedger",
              "GammaRow", "LifecycleReport", "ScenarioDocument", "TrainSplit"}
# Arguments that are paths, by callable: only a path there may raise an OSError.
PATH_ARGUMENTS = {"load_ci_table": 0, "load_scenario": 0, "write_report": 1}
_S = ecal.default_scenario()
_SPEC, _ARCH, _PU = _S.payload, _S.architecture, _S.processing_unit
VALID_CALLS = {
    "BitCount": (1,), "CarbonIntensity": (1.0,), "Energy": (1.0,), "EnergyPerBit": (1.0,),
    "FlopCount": (1,), "joules_to_kwh": (ecal.Energy(1.0),), "kwh_to_joules": (1.0,),
    "wh_per_tb_to_j_per_bit": (0.65,),
    "PayloadSpec": (64, 2), "TechnologyProfile": ("radio", 2000, 8, 0.01, 1e3, 9),
    "cumulative_transmission_energy": (ecal.BLE5, _SPEC, 60.0, 120.0),
    "fixed_overhead_profile": (30.0,), "packet_count": (ecal.BLE5, _SPEC),
    "payload_bits": (_SPEC,), "technology_profile": ("ble5",),
    "transmission_energy": (ecal.BLE5, ecal.BitCount(8)),
    "transmission_energy_per_bit": (ecal.BLE5,), "transmitted_bits": (ecal.BLE5, _SPEC),
    "without_packet_override": (ecal.LORAWAN,),
    "StorageProfile": ("disk", 0.65), "storage_energy": (ecal.HDD, ecal.BitCount(8)),
    "storage_energy_per_bit": (ecal.HDD,), "storage_profile": ("hdd",),
    "RawDataset": ([1.0, float("nan")],), "StandardizationMethod": ("minmax",),
    "clean": (ecal.RawDataset([1.0]),), "minmax_scale": ([1.0, 2.0],),
    "normalize": ([1.0, 2.0],), "preprocessing_energy": (_PU, ecal.FlopCount(1)),
    "preprocessing_energy_per_bit": (ecal.Energy(1.0), _SPEC),
    "preprocessing_flops": (ecal.StandardizationMethod.MINMAX, 5, 1),
    "MlpArchitecture": ((6, 5, 3),), "ProcessingUnitProfile": (140.0, 1e10, 1e8),
    "evaluation_energy": (_ARCH, 3, _PU, 64), "forward_flops": (_ARCH,),
    "forward_pass_energy_per_bit": (_ARCH, _PU, 64), "inference_energy": (_ARCH, 3, _PU),
    "inference_flops": (_ARCH, 3), "make_split": (10, 0.7),
    "training_energy": (_ARCH, 2, 3, _PU, 64), "training_forward_flops": (_ARCH, 2, 3),
    "training_total_flops": (ecal.FlopCount(1),), "uniform_architecture": (6, 5, 3, 3),
    "Scenario": tuple(getattr(_S, name) for name in _S.__match_args__),
    "default_scenario": (1000,), "development_energy": (_S,), "ecal": (_S,),
    "ecal_abs": (_S,), "ecal_abs_mean": (_S,), "gamma_sweep": (_S, [1, 10]),
    "inference_phase_energy": (_S,), "lifecycle_report": (_S,),
    "CarbonIntensityRecord": ("DE", "Germany", 2023, ecal.CarbonIntensity(425.0)),
    "bundled_ci_table": (), "carbon_footprint": (ecal.Energy(1.0), ecal.CarbonIntensity(1.0)),
    "cf_vs_gamma": (_S, ecal.bundled_ci_table(), [1]),
    "load_ci_table": (os.path.join(os.path.dirname(ecal.__file__), "data", "ci_2023.csv"),),
    "ReportTable": (("a",), ((1,),)), "reproduce": ("table1",),
    "write_report": (ecal.ReportTable(("a",), ((1,),)), "report.csv"),
    "Sweeps": ([1], [1.0], [0]), "load_scenario": (os.path.join(
        os.path.dirname(__file__), os.pardir, "scenarios", "default.json"),),
    "parse_scenario": (json.dumps(MINIMAL_SCENARIO),),
    "serialize_scenario": (ecal.ScenarioDocument(_S),),
}


def test_every_public_callable_has_one_valid_call():
    callables = {name for name in ecal.__all__ if callable(getattr(ecal, name))}
    assert NOT_CALLED <= callables
    assert all(issubclass(getattr(ecal, name), (Exception, tuple)) for name in NOT_CALLED)
    assert sorted(VALID_CALLS) == sorted(callables - NOT_CALLED)


def _non_finite(value):
    """The first float in ``value`` that is not finite, or None: ``value`` itself, a
    field of a ``_Value`` or an item of a tuple or a list (a namedtuple too), at any
    depth.  ``RawDataset.samples`` is left out: a non-finite sample marks it invalid."""
    if isinstance(value, float):
        return None if math.isfinite(value) else value
    if isinstance(value, _Value) and not isinstance(value, ecal.RawDataset):
        value = value._values()
    if isinstance(value, (tuple, list)):
        return next((bad for bad in map(_non_finite, value) if bad is not None), None)
    return None


def _fault(name, args):
    """What breaks the property in the call ``ecal.<name>(*args)``, or None."""
    try:
        result = getattr(ecal, name)(*args)
    except ALLOWED_ERRORS:
        return None
    except Exception as exc:  # a bare Python error, or an OSError from what is not a path
        path = PATH_ARGUMENTS.get(name)
        given_a_path = path is not None and isinstance(args[path], (str, bytes, os.PathLike))
        return None if isinstance(exc, OSError) and given_a_path else f"raised {exc!r}"
    bad = _non_finite(result)
    return None if bad is None else f"returned {bad!r}"


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_every_public_callable_is_total(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # write_report writes its report here
    args = VALID_CALLS[name]
    assert _non_finite(getattr(ecal, name)(*args)) is None
    faults = []
    for position, wrong in product(range(len(args)), WRONG_VALUES):
        fault = _fault(name, (*args[:position], wrong, *args[position + 1:]))
        if fault is not None:
            faults.append((position, wrong, fault))
    assert faults == []


# The same property under hypothesis, driven by each callable's signature: each
# argument is drawn as its valid value, another value of its annotated type, or
# an edge value (0 and -1 stand for an int where a sequence or a unit belongs).
EDGE_VALUES = (0, -1, 2**1100 - 1, math.nan, math.inf, -math.inf, 5e-324, "x", None)
# Other values of each annotated type; the ints reach sizes that an allocation
# in proportion to them would not survive.
SAME_TYPE = {"int": st.integers(-1, 2**64) | st.sampled_from([10**k for k in range(3, 19, 3)]),
             "float": st.floats(), "str": st.text(max_size=8)}
# Calls each property makes first, since each once broke it.
EXPLICIT_CALLS = {
    "uniform_architecture": [(6, 5, 10**9, 3), (6, 5, 10**12, 3)],
    "cumulative_transmission_energy": [(ecal.BLE5, _SPEC, 5e-324, 1.0)],
    "minmax_scale": [([],), ([1.0, 1.0],), ([1.0, math.inf],), ([1.0, math.nan],)],
    "normalize": [([1.0],), ([1.0, 1.0],), ([1.0, math.inf],), ([1e200, -1e200],)],
    "preprocessing_flops": [(ecal.StandardizationMethod.MINMAX, 5, 303)],
    "preprocessing_energy_per_bit": [(ecal.Energy(1.0), ecal.PayloadSpec(64, 0))],
    "ReportTable": [(("a",), ((1, 2),))],
    "StandardizationMethod": [("x",)],
    "load_ci_table": [("a\0b",)], "load_scenario": [(b"a\0b",)],
    "write_report": [(ecal.ReportTable(("a",), ((1,),)), "a\0b")],
}
# Runs the property in a child whose address space is capped at 512 MiB, so an
# allocation out of proportion fails there with a MemoryError instead of
# growing on the host.
TOTALITY_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))
sys.path.insert(0, sys.argv[1])
from test_package import _failures_under_hypothesis
print(json.dumps(_failures_under_hypothesis(int(sys.argv[2]))))
"""


def _totality(name, examples):
    """The property of ``ecal.<name>`` for calls with arguments drawn from its
    signature: ``_fault`` finds nothing wrong with any of them."""
    call, valid = getattr(ecal, name), VALID_CALLS[name]
    # The leading parameters: an enum's call also takes the functional API's.
    parameters = list(inspect.signature(call).parameters.values())[:len(valid)]
    kinds = [p.annotation if p.annotation is not p.empty else type(value).__name__
             for p, value in zip(parameters, valid)]

    @settings(max_examples=examples, deadline=None, database=None, verbosity=Verbosity.quiet,
              report_multiple_bugs=False, suppress_health_check=list(HealthCheck))
    @given(st.tuples(*[st.just(value) | SAME_TYPE.get(kind, st.nothing())
                       | st.sampled_from(EDGE_VALUES) for value, kind in zip(valid, kinds)]))
    def total(args):
        fault = _fault(name, args)
        if fault is not None:
            raise AssertionError(f"{name}{args!r} {fault}")

    for args in EXPLICIT_CALLS.get(name, ()):
        total = example(args)(total)
    return total


def _failures_under_hypothesis(examples):
    """The shrunk call of each public callable that breaks its property."""
    failures = []
    for name in VALID_CALLS:
        try:
            _totality(name, examples)()
        except AssertionError as exc:
            failures.append(str(exc))
    return failures


def test_every_public_callable_is_total_under_hypothesis(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", TOTALITY_CHILD, os.path.dirname(os.path.abspath(__file__)), "40"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=600)  # write_report writes its reports in tmp_path
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ecal.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from ecal import no_such_name", {})


RUN_AND_LIST_MODULES = ("import sys\nsys.stderr = sys.stdout\nfrom ecal.cli import run\n"
                        "run(sys.argv[1:])\nprint()\nprint(*sorted(sys.modules))")


def _modules_after(argv):
    """Output, stderr included, and modules loaded by one CLI call in a fresh
    ``python -S``."""
    out = _fresh_python(RUN_AND_LIST_MODULES, *argv)
    text, _, modules = out.rpartition("\n\n")
    return text, set(modules.split())


# What `import shutil` loads, which argparse imports to ask for the terminal's
# width unless its help formatter is given one; no CLI call loads it.
SHUTIL_MODULES = {"shutil", "bz2", "lzma", "fnmatch"}
# What argparse loads, with what its messages load; only help and usage errors
# load them, never a well-formed call.
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
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
             "typing", *SHUTIL_MODULES, *ARGPARSE_MODULES}
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


# What `import dataclasses` loads; no CLI call loads it.
DATACLASS_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
SCENARIO_CALLS = [
    ["lifecycle", "--scenario", SCENARIO],
    ["lifecycle", "--scenario", SCENARIO, "--gamma-sweep", "10,100"],
    ["lifecycle", "--scenario", SCENARIO, "--strict-eq2"],
    ["train-cost", "--scenario", SCENARIO],
    ["carbon", "--scenario", SCENARIO],
    ["carbon", "--scenario", SCENARIO, "--json"],
    ["reproduce", "--target", "all", "--out"],
]


def test_importing_the_model_loads_no_dataclasses():
    loaded = set(_fresh_python("import sys, ecal.lifecycle\nprint(*sys.modules)").split())
    assert "ecal.lifecycle" in loaded
    assert loaded & DATACLASS_MODULES == set()


@pytest.mark.parametrize("argv", SCENARIO_CALLS, ids=[
    "lifecycle", "lifecycle-gamma-sweep", "lifecycle-strict-eq2", "train-cost", "carbon",
    "carbon-json", "reproduce-all"])
def test_scenario_calls_load_no_dataclasses(argv, tmp_path):
    if argv[0] == "reproduce":
        argv = [*argv, str(tmp_path)]
    text, modules = _modules_after(argv)
    assert "ecal.lifecycle" in modules
    assert modules & (DATACLASS_MODULES | SHUTIL_MODULES | ARGPARSE_MODULES) == set()
    if argv[0] == "reproduce":
        assert len(os.listdir(tmp_path)) == 13


def test_strict_eq2_prints_the_same_bytes_in_a_fresh_interpreter(tmp_path):
    path = tmp_path / "lorawan.json"
    path.write_text(json.dumps({**MINIMAL_SCENARIO, "technology": "lorawan"}), encoding="utf-8")
    text, _ = _modules_after(["lifecycle", "--scenario", str(path), "--strict-eq2"])
    assert text + "\n" == "metric,value\n" + "".join(
        f"{name},{value!r}\n" for name, value in LORAWAN_STRICT_LIFECYCLE_ROWS)


def test_json_output_imports_json():
    text, modules = _modules_after(["transmit", "--samples", "256", "--json"])
    assert json.loads(text)["columns"] == ["metric", "value"]
    assert "json" in modules


def test_reproduce_help_lists_every_target_without_the_model():
    text, modules = _modules_after(["reproduce", "--help"])
    assert text + "\n" == HELP[("reproduce",)]  # which lists every target
    assert "argparse" in modules
    assert modules & {"ecal.lifecycle", *SHUTIL_MODULES} == set()


def test_a_usage_error_prints_argparse_text_in_a_fresh_interpreter():
    text, modules = _modules_after(["transmit", "--samples", "x"])
    assert text + "\n" == (_usage(("transmit",)) + "ecal transmit: error: "
                           "argument --samples: invalid int value: 'x'\n")
    assert "argparse" in modules
    assert modules & {"ecal.transmission", *SHUTIL_MODULES} == set()
