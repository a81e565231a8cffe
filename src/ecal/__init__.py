"""Analytical energy and carbon cost model for AIoT data pipelines.

Models the full lifecycle of a sensor-fed MLP deployment — wireless data
collection, storage, preprocessing, training with evaluation, and repeated
inference — as deterministic closed-form energy accounting, and summarizes
it with eCAL, the lifecycle energy cost per manipulated application bit.

Every public name is imported from its submodule on first use, so
importing the package loads none of the submodules.
"""

__version__ = "0.1.0"

# The one list of public names: each submodule with the names exported from
# it, led by the submodule's own name where that is exported too.  Each
# submodule's __all__ is read from here through _all_of.
_EXPORTS = {
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
    "report": "REPRODUCE_TARGETS ReportTable reproduce write_report",
    "scenario_io": "scenario_io ScenarioDocument ScenarioError Sweeps load_scenario "
                   "parse_scenario serialize_scenario",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SUBMODULE)


def _all_of(module: str) -> list[str]:
    """``__all__`` of the submodule named ``module``: its exports, less its own name."""
    own = module.rpartition(".")[2]
    return [name for name in _EXPORTS[own].split() if name != own]


def __getattr__(name: str) -> object:
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    submodule = import_module(f"{__name__}.{module}")
    value = submodule if name == module else getattr(submodule, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
