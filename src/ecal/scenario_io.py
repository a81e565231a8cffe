"""Scenario files and report writing.

A scenario is a single strict-schema JSON document; unknown keys are
rejected so parameter typos fail loudly.  ``ReportTable``,
``UnknownTargetError``, ``reproduce`` and ``REPRODUCE_TARGETS`` belong to
:mod:`ecal.report` and can be imported from here too.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, NamedTuple, Sequence, TextIO

from . import _all_of
from .lifecycle import Scenario
from .mlp_cost import DEFAULT_PROCESSING_UNIT, MlpArchitecture, ProcessingUnitProfile
from .preprocessing import StandardizationMethod
from .report import REPRODUCE_TARGETS, ReportTable, UnknownTargetError, _write, reproduce
from .storage import BUILTIN_STORAGE, StorageProfile, storage_profile
from .transmission import BUILTIN_TECHNOLOGIES, PayloadSpec, TechnologyProfile, technology_profile
from .units import BitCount, BitRate, FieldError, Power, _checked_count, _checked_real

__all__ = _all_of(__name__)


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field path."""


class Sweeps(NamedTuple):
    """Optional parameter sweeps attached to a scenario."""

    gamma: tuple[int, ...] = ()
    overhead_pct: tuple[float, ...] = ()
    invalid_samples: tuple[int, ...] = ()


class ScenarioDocument(NamedTuple):
    """A parsed scenario plus its sweep blocks."""

    scenario: Scenario
    sweeps: Sweeps = Sweeps()


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
    return tuple(value)


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


def write_report(table: ReportTable, destination: str | os.PathLike | TextIO) -> int:
    """Write a table as UTF-8 CSV to a path or text stream; returns bytes written."""
    text = table.to_csv()
    if hasattr(destination, "write"):
        destination.write(text)
        return len(text.encode("utf-8"))
    return _write(destination, text)
