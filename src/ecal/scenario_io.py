"""Scenario files, report tables, and the bundled reference datasets.

A scenario is a single strict-schema JSON document; unknown keys are
rejected so parameter typos fail loudly.  Reports are plain CSV with LF
line endings so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Sequence, TextIO

from . import carbon as carbon_mod
from .lifecycle import (
    Scenario,
    default_scenario,
    gamma_sweep,
    lifecycle_report,
)
from .mlp_cost import (
    DEFAULT_PROCESSING_UNIT,
    MlpArchitecture,
    ProcessingUnitProfile,
    forward_flops,
    training_forward_flops,
    uniform_architecture,
)
from .preprocessing import (
    StandardizationMethod,
    preprocessing_energy,
    preprocessing_energy_per_bit,
    preprocessing_flops,
)
from .storage import BUILTIN_STORAGE, StorageProfile, storage_profile
from .transmission import (
    BUILTIN_TECHNOLOGIES,
    PayloadSpec,
    TechnologyProfile,
    cumulative_transmission_energy,
    fixed_overhead_profile,
    packet_count,
    payload_bits,
    technology_profile,
    transmission_energy_per_bit,
    transmitted_bits,
)
from .units import BitCount, BitRate, FieldError, Power, _checked_count, _checked_real

__all__ = [
    "ScenarioError",
    "UnknownTargetError",
    "Sweeps",
    "ScenarioDocument",
    "ReportTable",
    "parse_scenario",
    "serialize_scenario",
    "load_scenario",
    "write_report",
    "reproduce",
    "REPRODUCE_TARGETS",
]


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field path."""


class UnknownTargetError(ValueError):
    """An unknown reproduce target was requested; the message lists valid ones."""


@dataclass(frozen=True)
class Sweeps:
    """Optional parameter sweeps attached to a scenario."""

    gamma: tuple[int, ...] = ()
    overhead_pct: tuple[float, ...] = ()
    invalid_samples: tuple[int, ...] = ()


@dataclass(frozen=True)
class ScenarioDocument:
    """A parsed scenario plus its sweep blocks."""

    scenario: Scenario
    sweeps: Sweeps = field(default_factory=Sweeps)


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: Sequence[str], path: str) -> None:
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        name = f"{path}.{unknown[0]}" if path else unknown[0]
        raise _fail(name, "unknown field")


_REQUIRED = object()


def _in_float_range(value: Any, path: str) -> Any:
    """Reject an integer the model's float arithmetic cannot take.

    Constructors accept such integers; only a document is held to this
    rule, so that its error names the field instead of pricing failing later.
    """
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise _fail(path, f"too large for floating-point arithmetic "
                              f"({value.bit_length()}-bit integer)") from None
    return value


def _get(mapping: dict, key: str, at: str = "", default: Any = _REQUIRED) -> Any:
    """The value of ``key`` in the object at path prefix ``at``, held to the
    float range; a key without a default is required."""
    if key in mapping:
        return _in_float_range(mapping[key], at + key)
    if default is _REQUIRED:
        raise _fail(at + key, "required field is missing")
    return default


# Model attributes whose document field has another name.
_JSON_NAMES = {
    "sample_count": "samples",
    "bits_per_sample": "bit_precision",
    "train_fraction": "split_ratio",
    "layer_sizes": "layers",
    "packet_capacity": "f_u",
    "transmit_power": "p_t_w",
    "wh_per_terabyte": "wh_per_tb",
    "preprocessing_power": "preprocessing_power_w",
}


def _build(path: str, factory: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call a model constructor, reporting its FieldError at a document path.

    A ``path`` that is empty or ends in "." is the object being built, and
    the error names the failing field under it.  Any other ``path`` is the
    one value being built, such as a unit whose errors name the unit.
    """
    try:
        return factory(*args, **kwargs)
    except FieldError as exc:
        if not path or path.endswith("."):
            name, bracket, index = exc.field.partition("[")
            path += _JSON_NAMES.get(name, name) + bracket + index
        raise _fail(path, exc.reason) from None


def _builtin(lookup: Callable[[str], Any], name: str, path: str) -> Any:
    try:
        return lookup(name)
    except KeyError as exc:
        raise _fail(path, exc.args[0]) from None


def _name(mapping: dict, path: str) -> str:
    name = mapping.get("name", "custom")
    if not isinstance(name, str):
        raise _fail(f"{path}.name", f"expected a string, got {name!r}")
    return name


def _parse_technology(value: Any, path: str) -> TechnologyProfile:
    if isinstance(value, str):
        return _builtin(technology_profile, value, path)
    mapping = _require_mapping(value, path)
    allowed = ["name", "f_u", "omega_u", "p_t_w", "r_t_bps", "packets_override"]
    _reject_unknown(mapping, allowed, path)
    name = _name(mapping, path)
    at = f"{path}."
    return _build(
        at,
        TechnologyProfile,
        name=name,
        packet_capacity=_build(at + "f_u", BitCount, _get(mapping, "f_u", at)),
        packet_overhead=_build(at + "omega_u", BitCount, _get(mapping, "omega_u", at)),
        transmit_power=_build(at + "p_t_w", Power, _get(mapping, "p_t_w", at)),
        transmit_rate=_build(at + "r_t_bps", BitRate, _get(mapping, "r_t_bps", at)),
        packets_override=_get(mapping, "packets_override", at, None),
    )


def _parse_storage(value: Any, path: str) -> StorageProfile:
    if isinstance(value, str):
        return _builtin(storage_profile, value, path)
    mapping = _require_mapping(value, path)
    _reject_unknown(mapping, ["name", "wh_per_tb"], path)
    at = f"{path}."
    return _build(at, StorageProfile, _name(mapping, path), _get(mapping, "wh_per_tb", at))


def _parse_processing_unit(value: Any, path: str) -> ProcessingUnitProfile:
    mapping = _require_mapping(value, path)
    allowed = ["preprocessing_power_w", "preprocessing_flops_per_s", "flops_per_joule"]
    _reject_unknown(mapping, allowed, path)
    defaults = DEFAULT_PROCESSING_UNIT
    at = f"{path}."
    power = _get(mapping, "preprocessing_power_w", at, defaults.preprocessing_power.watts)
    return _build(
        at,
        ProcessingUnitProfile,
        _build(at + "preprocessing_power_w", Power, power),
        _get(mapping, "preprocessing_flops_per_s", at, defaults.preprocessing_flops_per_s),
        _get(mapping, "flops_per_joule", at, defaults.flops_per_joule),
    )


def _parse_mlp(value: Any, path: str) -> MlpArchitecture:
    mapping = _require_mapping(value, path)
    _reject_unknown(mapping, ["layers"], path)
    at = f"{path}."
    layers = _get(mapping, "layers", at)
    if not isinstance(layers, list):
        raise _fail(at + "layers", f"expected a list of layer widths, got {layers!r}")
    for index, width in enumerate(layers):
        _in_float_range(width, f"{at}layers[{index}]")
    return _build(at, MlpArchitecture, layers)


def _parse_countries(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list of country codes, got {value!r}")
    codes = []
    for index, code in enumerate(value):
        if not isinstance(code, str) or len(code) != 2 or not code.isalpha():
            raise _fail(f"{path}[{index}]", f"expected a two-letter country code, got {code!r}")
        codes.append(code.upper())
    return tuple(codes)


def _parse_sweeps(value: Any, path: str) -> Sweeps:
    mapping = _require_mapping(value, path)
    _reject_unknown(mapping, ["gamma", "overhead_pct", "invalid_samples"], path)

    def items(key: str, check: Callable[..., Any], *rule: Any) -> tuple:
        raw = mapping.get(key, [])
        if not isinstance(raw, list):
            raise _fail(f"{path}.{key}", f"expected a list, got {raw!r}")
        out = []
        for index, item in enumerate(raw):
            at = f"{path}.{key}[{index}]"
            out.append(_build(at, check, _in_float_range(item, at), key, *rule))
        return tuple(out)

    gammas = items("gamma", _checked_count, 1)
    overhead = items("overhead_pct", _checked_real)
    for index, pct in enumerate(overhead):
        if pct > 100.0:
            raise _fail(f"{path}.overhead_pct[{index}]", f"must be in [0, 100], got {pct!r}")
    return Sweeps(gammas, overhead, items("invalid_samples", _checked_count))


_TOP_LEVEL_FIELDS = [
    "samples",
    "invalid_samples",
    "bit_precision",
    "technology",
    "storage",
    "preprocessing",
    "split_ratio",
    "epochs",
    "mlp",
    "inference_batch",
    "inference_invalid_samples",
    "gamma",
    "processing_unit",
    "countries",
    "sweeps",
]


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario JSON document.

    Unset optional fields take the documented defaults (double precision,
    BLE over HDD, normalization, a 70/30 split, the default processing
    unit).  Range rules are the model constructors'; a violation raises
    :class:`ScenarioError` as ``<field path>: <reason>``.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a huge integer or deep nesting
        raise ScenarioError(f"invalid JSON: {exc}") from None
    mapping = _require_mapping(raw, "scenario")
    _reject_unknown(mapping, _TOP_LEVEL_FIELDS, "")

    samples = _get(mapping, "samples")
    invalid = _get(mapping, "invalid_samples", "", 0)
    payload = _build("", PayloadSpec, _get(mapping, "bit_precision", "", 64), samples)
    technology = _parse_technology(mapping.get("technology", "ble5"), "technology")
    storage = _parse_storage(mapping.get("storage", "hdd"), "storage")

    method_name = mapping.get("preprocessing", "normalization")
    try:
        method = StandardizationMethod(method_name)
    except ValueError:
        options = ", ".join(m.value for m in StandardizationMethod)
        raise _fail("preprocessing", f"expected one of {options}, got {method_name!r}") from None

    split_ratio = _get(mapping, "split_ratio", "", 0.7)
    epochs = _get(mapping, "epochs")
    arch = _parse_mlp(_get(mapping, "mlp"), "mlp")
    inference_batch = _get(mapping, "inference_batch")
    inference_invalid = _get(mapping, "inference_invalid_samples", "", 0)
    gamma = _get(mapping, "gamma")
    pu = (_parse_processing_unit(mapping["processing_unit"], "processing_unit")
          if "processing_unit" in mapping else DEFAULT_PROCESSING_UNIT)
    countries = (_parse_countries(mapping["countries"], "countries")
                 if "countries" in mapping else ())
    sweeps = _parse_sweeps(mapping["sweeps"], "sweeps") if "sweeps" in mapping else Sweeps()

    scenario = _build(
        "",
        Scenario,
        payload=payload,
        technology=technology,
        storage=storage,
        standardization=method,
        train_fraction=split_ratio,
        epochs=epochs,
        architecture=arch,
        inference_batch=inference_batch,
        gamma=gamma,
        processing_unit=pu,
        invalid_samples=invalid,
        inference_invalid_samples=inference_invalid,
        countries=countries,
    )
    return ScenarioDocument(scenario, sweeps)


def _technology_to_json(profile: TechnologyProfile) -> str | dict:
    if BUILTIN_TECHNOLOGIES.get(profile.name) == profile:
        return profile.name
    doc: dict[str, Any] = {
        "name": profile.name,
        "f_u": profile.packet_capacity.bits,
        "omega_u": profile.packet_overhead.bits,
        "p_t_w": profile.transmit_power.watts,
        "r_t_bps": profile.transmit_rate.bits_per_second,
    }
    if profile.packets_override is not None:
        doc["packets_override"] = profile.packets_override
    return doc


def _storage_to_json(profile: StorageProfile) -> str | dict:
    if BUILTIN_STORAGE.get(profile.name) == profile:
        return profile.name
    return {"name": profile.name, "wh_per_tb": profile.wh_per_terabyte}


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Render a scenario document back to canonical JSON text.

    ``parse_scenario(serialize_scenario(doc))`` reproduces ``doc`` exactly.
    """
    s = doc.scenario
    out: dict[str, Any] = {
        "samples": s.payload.sample_count,
        "invalid_samples": s.invalid_samples,
        "bit_precision": s.payload.bits_per_sample,
        "technology": _technology_to_json(s.technology),
        "storage": _storage_to_json(s.storage),
        "preprocessing": s.standardization.value,
        "split_ratio": s.train_fraction,
        "epochs": s.epochs,
        "mlp": {"layers": list(s.architecture.layer_sizes)},
        "inference_batch": s.inference_batch,
        "inference_invalid_samples": s.inference_invalid_samples,
        "gamma": s.gamma,
        "processing_unit": {
            "preprocessing_power_w": s.processing_unit.preprocessing_power.watts,
            "preprocessing_flops_per_s": s.processing_unit.preprocessing_flops_per_s,
            "flops_per_joule": s.processing_unit.flops_per_joule,
        },
    }
    if s.countries:
        out["countries"] = list(s.countries)
    sweeps = doc.sweeps
    if sweeps.gamma or sweeps.overhead_pct or sweeps.invalid_samples:
        block: dict[str, Any] = {}
        if sweeps.gamma:
            block["gamma"] = list(sweeps.gamma)
        if sweeps.overhead_pct:
            block["overhead_pct"] = list(sweeps.overhead_pct)
        if sweeps.invalid_samples:
            block["invalid_samples"] = list(sweeps.invalid_samples)
        out["sweeps"] = block
    return json.dumps(out, indent=2) + "\n"


def load_scenario(path: str | os.PathLike) -> ScenarioDocument:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


@dataclass(frozen=True)
class ReportTable:
    """A rectangular, CSV-renderable table of results."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        width = len(self.columns)
        if set(map(len, self.rows)) - {width}:
            row = next(row for row in self.rows if len(row) != width)
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {width}")

    def to_csv(self) -> str:
        """Render as CSV: header first, LF endings, full-precision numbers
        (``%s`` formats with ``str``, and a float's ``str`` round-trips)."""
        if bool in set(map(type, chain.from_iterable(self.rows))):
            raise TypeError("boolean cells are not supported in reports")
        template = ",".join(["%s"] * len(self.columns))
        return "\n".join([",".join(self.columns), *[template % row for row in self.rows]]) + "\n"


def write_report(table: ReportTable, destination: str | os.PathLike | TextIO) -> int:
    """Write a table as UTF-8 CSV to a path or text stream; returns bytes written."""
    text = table.to_csv()
    data = text.encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(text)
        return len(data)
    try:
        with open(destination, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise OSError(f"cannot write report to {os.fspath(destination)!r}: {exc}") from exc
    return len(data)


# --- bundled reference datasets -------------------------------------------

_GAMMA_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000)
_REFERENCE_TECHNOLOGIES = ("ble5", "zigbee", "lorawan")


def _technology_rows() -> list[TechnologyProfile]:
    return [BUILTIN_TECHNOLOGIES[name] for name in _REFERENCE_TECHNOLOGIES]


def _target_table1() -> ReportTable:
    spec = PayloadSpec(64, 256)
    rows = []
    for profile in _technology_rows():
        rows.append(
            (
                profile.name,
                profile.packet_capacity.bits,
                packet_count(profile, spec),
                profile.packet_overhead.bits,
                transmitted_bits(profile, spec).bits,
                100.0 * profile.packet_overhead.bits / profile.packet_capacity.bits,
            )
        )
    return ReportTable(
        ("technology", "packet_capacity_bits", "packets", "overhead_bits_per_packet",
         "b_t_bits", "overhead_pct"),
        rows,
    )


def _target_table2() -> ReportTable:
    rows = []
    for profile in _technology_rows():
        rows.append(
            (
                profile.name,
                profile.transmit_power.watts * 1e3,
                profile.transmit_rate.bits_per_second,
                transmission_energy_per_bit(profile).joules_per_bit,
            )
        )
    return ReportTable(("technology", "p_t_mw", "r_t_bps", "e_t_b_j"), rows)


def _target_fig2() -> ReportTable:
    rows = []
    for n_samples in range(16, 513, 16):
        spec = PayloadSpec(64, n_samples)
        for pct in (1.0, 30.0, 50.0, 70.0):
            profile = fixed_overhead_profile(pct)
            rows.append(
                (n_samples, pct, payload_bits(spec).bits, transmitted_bits(profile, spec).bits)
            )
    return ReportTable(("n_samples", "overhead_pct", "payload_bits", "b_t_bits"), rows)


def _target_fig4() -> ReportTable:
    rows = [
        (profile.name, transmission_energy_per_bit(profile).joules_per_bit)
        for profile in _technology_rows()
    ]
    return ReportTable(("technology", "e_t_b_j"), rows)


def _target_fig5() -> ReportTable:
    spec = PayloadSpec(64, 256)
    rows = []
    for profile in _technology_rows():
        for time_s, energy in cumulative_transmission_energy(profile, spec, 60.0, 86400.0):
            rows.append((profile.name, time_s, energy.joules))
    return ReportTable(("technology", "time_s", "e_t_cumulative_j"), rows)


def _target_fig6() -> ReportTable:
    pu = DEFAULT_PROCESSING_UNIT
    rows = []
    for method in StandardizationMethod:
        for n_samples in range(128, 1025, 128):
            for n_invalid in (0, 32, 64, 96):
                flops = preprocessing_flops(method, n_samples, n_invalid)
                t_pre, e_pre = preprocessing_energy(pu, flops)
                rows.append((method.value, n_samples, n_invalid, flops.flops, t_pre, e_pre.joules))
    return ReportTable(
        ("method", "n_samples", "n_invalid", "flops", "t_pre_s", "e_pre_j"), rows
    )


def _target_fig7() -> ReportTable:
    pu = DEFAULT_PROCESSING_UNIT
    spec = PayloadSpec(64, 256)
    rows = []
    for method in StandardizationMethod:
        flops = preprocessing_flops(method, spec.sample_count, 0)
        _, e_pre = preprocessing_energy(pu, flops)
        per_bit = preprocessing_energy_per_bit(e_pre, spec)
        rows.append((method.value, spec.sample_count, flops.flops, e_pre.joules,
                     per_bit.joules_per_bit))
    return ReportTable(("method", "n_samples", "flops", "e_pre_j", "e_pre_b_j"), rows)


def _target_fig8() -> ReportTable:
    report = lifecycle_report(default_scenario())
    rows = [
        ("transmission", report.transmission.joules),
        ("storage", report.storage.joules),
        ("preprocessing", report.preprocessing.joules),
        ("training", report.training.joules),
        ("evaluation", report.evaluation.joules),
        ("inference", report.inference.joules),
        ("development_total", report.development.joules),
        ("inference_phase_total", report.inference_phase.joules),
    ]
    return ReportTable(("component", "energy_j"), rows)


def _target_fig9ab() -> ReportTable:
    rows = []
    for width in range(1, 11):
        for hidden in range(1, 6):
            arch = uniform_architecture(6, width, hidden, 3)
            fwd = forward_flops(arch)
            rows.append(
                ("a", width, hidden, 10, 256, fwd.flops,
                 training_forward_flops(arch, 10, 256).flops)
            )
    reference = MlpArchitecture((6, 5, 5, 5, 3))
    fwd = forward_flops(reference)
    for epochs in (1, 5, 10, 15, 20):
        for n_train in (64, 128, 179, 256, 384, 512):
            rows.append(
                ("b", 5, 3, epochs, n_train, fwd.flops,
                 training_forward_flops(reference, epochs, n_train).flops)
            )
    return ReportTable(
        ("part", "hidden_width", "hidden_layers", "n_epochs", "n_train",
         "forward_flops", "training_forward_flops"),
        rows,
    )


def _target_fig11() -> ReportTable:
    scenario = default_scenario()
    rows = [
        (row.gamma, row.ecal_abs.joules, row.ecal_abs_mean.joules)
        for row in gamma_sweep(scenario, _GAMMA_GRID)
    ]
    return ReportTable(("gamma", "ecal_abs_j", "ecal_abs_mean_j"), rows)


def _target_fig12() -> ReportTable:
    scenario = default_scenario()
    rows = [(row.gamma, row.ecal.joules_per_bit) for row in gamma_sweep(scenario, _GAMMA_GRID)]
    return ReportTable(("gamma", "ecal_j_per_b"), rows)


def _target_table3() -> ReportTable:
    scenario = default_scenario()
    report = carbon_mod.cf_vs_gamma(scenario, carbon_mod.bundled_ci_table(), [scenario.gamma])
    rows = [
        (row.country_code, row.country_name, row.intensity.grams_co2e_per_kwh,
         row.cf_development_g, row.cf_inference_g)
        for row in report.rows
    ]
    return ReportTable(
        ("country_code", "country_name", "ci_g_per_kwh", "cf_development_g", "cf_inference_g"),
        rows,
    )


def _target_fig13() -> ReportTable:
    scenario = default_scenario()
    report = carbon_mod.cf_vs_gamma(scenario, carbon_mod.bundled_ci_table(), _GAMMA_GRID)
    rows = [
        (row.gamma, row.country_code, row.intensity.grams_co2e_per_kwh, row.cf_total_g)
        for row in report.rows
    ]
    return ReportTable(("gamma", "country_code", "ci_g_per_kwh", "cf_total_g"), rows)


_TARGETS = {
    "table1": _target_table1,
    "table2": _target_table2,
    "fig2": _target_fig2,
    "fig4": _target_fig4,
    "fig5": _target_fig5,
    "fig6": _target_fig6,
    "fig7": _target_fig7,
    "fig8": _target_fig8,
    "fig9ab": _target_fig9ab,
    "fig11": _target_fig11,
    "fig12": _target_fig12,
    "table3": _target_table3,
    "fig13": _target_fig13,
}

REPRODUCE_TARGETS = tuple(_TARGETS)


def reproduce(target: str) -> ReportTable:
    """Compute the named reference dataset from the model.

    Every value is produced by the library (the carbon-intensity inputs are
    the bundled snapshot); nothing is hard-coded.
    """
    try:
        builder = _TARGETS[target]
    except KeyError:
        known = ", ".join(REPRODUCE_TARGETS)
        raise UnknownTargetError(f"unknown target {target!r}; known targets: {known}") from None
    return builder()
