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
from .lifecycle import Scenario, default_scenario
from .mlp_cost import DEFAULT_PROCESSING_UNIT, MlpArchitecture, ProcessingUnitProfile
from .preprocessing import StandardizationMethod
from .report import REPRODUCE_TARGETS, ReportTable, UnknownTargetError, _write, reproduce
from .storage import BUILTIN_STORAGE, StorageProfile, storage_profile
from .transmission import BUILTIN_TECHNOLOGIES, PayloadSpec, TechnologyProfile, technology_profile
from .units import BitCount, BitRate, FieldError, Power, _Value
from .units import _checked_count, _checked_items, _checked_name, _checked_real

__all__ = _all_of(__name__)


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field path."""


class Sweeps(_Value):
    """Optional parameter sweeps attached to a scenario: request counts
    (each >= 1), overhead percentages (each in [0, 100]) and invalid-sample
    counts."""

    __slots__ = __match_args__ = ("gamma", "overhead_pct", "invalid_samples")

    def __init__(self, gamma: Sequence[int] = (), overhead_pct: Sequence[float] = (),
                 invalid_samples: Sequence[int] = ()) -> None:
        object.__setattr__(self, "gamma", _checked_items(gamma, "gamma", _checked_count, 1))
        object.__setattr__(self, "overhead_pct", _checked_items(
            overhead_pct, "overhead_pct", _checked_real, maximum=100.0))
        object.__setattr__(self, "invalid_samples", _checked_items(
            invalid_samples, "invalid_samples", _checked_count))


_NO_SWEEPS = Sweeps()


class ScenarioDocument(NamedTuple):
    """A parsed scenario plus its sweep blocks."""

    scenario: Scenario
    sweeps: Sweeps = _NO_SWEEPS


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: frozenset, path: str) -> None:
    if not mapping.keys() <= allowed:
        key = next(key for key in mapping if key not in allowed)
        raise _fail(f"{path}.{key}" if path else key, "unknown field")


def _require_list(value: Any, path: str, items: str = "") -> tuple:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list{items}, got {value!r}")
    return tuple(value)


_REQUIRED = object()


def _get(mapping: dict, key: str, at: str = "") -> Any:
    """The value of the required ``key`` in the object at path prefix ``at``."""
    if key in mapping:
        return mapping[key]
    raise _fail(at + key, "required field is missing")


_DEFAULT = default_scenario()

# Each inline profile: its built-ins by name, the lookup whose KeyError names
# them, and per constructor argument, in order, the document key, the unit or
# rule its value goes through (None: as given) and its default.
_PROFILES = {
    TechnologyProfile: (BUILTIN_TECHNOLOGIES, technology_profile, (
        ("name", _checked_name, "custom"),
        ("f_u", BitCount, _REQUIRED),
        ("omega_u", BitCount, _REQUIRED),
        ("p_t_w", Power, _REQUIRED),
        ("r_t_bps", BitRate, _REQUIRED),
        ("packets_override", None, None),
    )),
    StorageProfile: (BUILTIN_STORAGE, storage_profile, (
        ("name", _checked_name, "custom"),
        ("wh_per_tb", None, _REQUIRED),
    )),
    ProcessingUnitProfile: (None, None, (
        ("preprocessing_power_w", Power, DEFAULT_PROCESSING_UNIT.preprocessing_power.watts),
        ("preprocessing_flops_per_s", None, DEFAULT_PROCESSING_UNIT.preprocessing_flops_per_s),
        ("flops_per_joule", None, DEFAULT_PROCESSING_UNIT.flops_per_joule),
    )),
}

# Model attributes whose document field has another name; each profile
# attribute is paired with its key from _PROFILES.
_JSON_NAMES = {
    "sample_count": "samples",
    "bits_per_sample": "bit_precision",
    "train_fraction": "split_ratio",
    "layer_sizes": "layers",
}
_JSON_NAMES.update((attr, key) for cls, (_, _, fields) in _PROFILES.items()
                   for attr, (key, _, _) in zip(cls.__match_args__, fields))
_PROFILE_KEYS = {cls: frozenset([key for key, _, _ in fields])
                 for cls, (_, _, fields) in _PROFILES.items()}


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


def _parse_profile(cls: type, value: Any, key: str) -> Any:
    """The ``cls`` profile ``value`` under ``key``: a built-in's name or an
    inline object."""
    _, lookup, fields = _PROFILES[cls]
    if lookup and isinstance(value, str):
        try:
            return lookup(value)
        except KeyError as exc:
            raise _fail(key, exc.args[0]) from None
    inline = _require_mapping(value, key)
    _reject_unknown(inline, _PROFILE_KEYS[cls], key)
    at = f"{key}."
    args = []
    for name, rule, fallback in fields:
        value = _get(inline, name, at) if fallback is _REQUIRED else inline.get(name, fallback)
        args.append(_build(at + name, rule, value) if rule else value)
    return _build(at, cls, *args)


def _profile_to_json(profile: Any) -> str | dict:
    """A built-in profile's name, or the inline object of any other."""
    builtins, _, fields = _PROFILES[type(profile)]
    if builtins and builtins.get(profile.name) == profile:
        return profile.name
    inline = {}
    for attr, (key, _, _) in zip(profile.__match_args__, fields):
        value = getattr(profile, attr)
        if value is not None:  # an unset packets_override is left out
            inline[key] = value._values()[0] if isinstance(value, _Value) else value
    return inline


def _document(doc: ScenarioDocument) -> dict[str, Any]:
    """``doc`` as a JSON object holding every top-level key, in the order
    :func:`serialize_scenario` writes them."""
    s = doc.scenario
    return {
        "samples": s.payload.sample_count,
        "invalid_samples": s.invalid_samples,
        "bit_precision": s.payload.bits_per_sample,
        "technology": _profile_to_json(s.technology),
        "storage": _profile_to_json(s.storage),
        "preprocessing": s.standardization.value,
        "split_ratio": s.train_fraction,
        "epochs": s.epochs,
        "mlp": {"layers": list(s.architecture.layer_sizes)},
        "inference_batch": s.inference_batch,
        "inference_invalid_samples": s.inference_invalid_samples,
        "gamma": s.gamma,
        "processing_unit": _profile_to_json(s.processing_unit),
        "countries": list(s.countries),
        "sweeps": {key: list(values)
                   for key, values in zip(Sweeps.__match_args__, doc.sweeps._values()) if values},
    }


_TOP_LEVEL = frozenset(_document(ScenarioDocument(_DEFAULT)))
_MLP_KEYS = frozenset(["layers"])
_SWEEP_KEYS = frozenset(Sweeps.__match_args__)
_METHODS = {method.value: method for method in StandardizationMethod}


def _parse_mlp(value: Any, path: str) -> MlpArchitecture:
    mapping = _require_mapping(value, path)
    _reject_unknown(mapping, _MLP_KEYS, path)
    at = f"{path}."
    layers = _require_list(_get(mapping, "layers", at), at + "layers", " of layer widths")
    return _build(at, MlpArchitecture, layers)


def _parse_sweeps(value: Any, path: str) -> Sweeps:
    mapping = _require_mapping(value, path)
    _reject_unknown(mapping, _SWEEP_KEYS, path)
    at = f"{path}."
    return _build(at, Sweeps, *[_require_list(mapping.get(key, []), at + key)
                                for key in Sweeps.__match_args__])


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario JSON document.

    Unset optional fields take the values of :func:`~ecal.lifecycle.default_scenario`
    (double precision, BLE over HDD, normalization, a 70/30 split, the
    default processing unit).  Range rules are the model constructors'; a
    violation raises :class:`ScenarioError` as ``<field path>: <reason>``.
    """
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a huge integer or deep nesting
        raise ScenarioError(f"invalid JSON: {exc}") from None
    mapping = _require_mapping(raw, "scenario")
    _reject_unknown(mapping, _TOP_LEVEL, "")
    d = _DEFAULT

    samples = _get(mapping, "samples")
    invalid = mapping.get("invalid_samples", d.invalid_samples)
    bits = mapping.get("bit_precision", d.payload.bits_per_sample)
    payload = _build("", PayloadSpec, bits, samples)
    technology = (_parse_profile(TechnologyProfile, mapping["technology"], "technology")
                  if "technology" in mapping else d.technology)
    storage = (_parse_profile(StorageProfile, mapping["storage"], "storage")
               if "storage" in mapping else d.storage)

    method_name = mapping.get("preprocessing", d.standardization.value)
    method = _METHODS.get(method_name) if isinstance(method_name, str) else None
    if method is None:
        raise _fail("preprocessing", f"expected one of {', '.join(_METHODS)}, got {method_name!r}")

    split_ratio = mapping.get("split_ratio", d.train_fraction)
    epochs = _get(mapping, "epochs")
    arch = _parse_mlp(_get(mapping, "mlp"), "mlp")
    inference_batch = _get(mapping, "inference_batch")
    inference_invalid = mapping.get("inference_invalid_samples", d.inference_invalid_samples)
    gamma = _get(mapping, "gamma")
    pu = (_parse_profile(ProcessingUnitProfile, mapping["processing_unit"], "processing_unit")
          if "processing_unit" in mapping else d.processing_unit)
    countries = (_require_list(mapping["countries"], "countries", " of country codes")
                 if "countries" in mapping else d.countries)
    sweeps = _parse_sweeps(mapping["sweeps"], "sweeps") if "sweeps" in mapping else _NO_SWEEPS

    scenario = _build("", Scenario, payload, technology, storage, method, split_ratio, epochs,
                      arch, inference_batch, gamma, pu, invalid, inference_invalid, countries)
    return ScenarioDocument(scenario, sweeps)


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Render a scenario document back to canonical JSON text, every key
    but an empty ``countries`` or ``sweeps``.

    ``parse_scenario(serialize_scenario(doc))`` reproduces ``doc`` exactly.
    """
    out = {key: value for key, value in _document(doc).items() if value not in ([], {})}
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
