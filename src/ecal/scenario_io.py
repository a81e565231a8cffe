"""Scenario files and report writing.

A scenario is a single strict-schema JSON document; unknown keys are
rejected so parameter typos fail loudly.  Each object a document holds, and
each key of it, is declared once, in ``_SCHEMA``, which the parser and the
serializer both read.  ``ReportTable``, ``UnknownTargetError``,
``reproduce`` and ``REPRODUCE_TARGETS`` belong to :mod:`ecal.report` and
can be imported from here too.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from collections.abc import Callable
from io import TextIOBase
from operator import attrgetter

from . import _all_of
from .lifecycle import Scenario, Sweeps, default_scenario
from .mlp_cost import MlpArchitecture, ProcessingUnitProfile
from .preprocessing import StandardizationMethod
from .report import REPRODUCE_TARGETS, ReportTable, UnknownTargetError, _write, reproduce
from .storage import BUILTIN_STORAGE, StorageProfile, storage_profile
from .transmission import BUILTIN_TECHNOLOGIES, PayloadSpec, TechnologyProfile, technology_profile
from .units import BitCount, BitRate, FieldError, Power, _checked_name

__all__ = _all_of(__name__)


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field path."""


_NO_SWEEPS = Sweeps()


class ScenarioDocument(namedtuple("ScenarioDocument", "scenario sweeps", defaults=(_NO_SWEEPS,))):
    """A parsed scenario plus its sweep blocks."""

    __slots__ = ()


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _build(path: str, names: dict | None, factory: Callable[..., object], *args: object) -> object:
    """Call a model constructor, reporting its FieldError at a document path.

    With ``names``, ``path`` is the prefix of the object being built, and the
    error names the failing field under it by its key in ``names``.  Without,
    ``path`` is the one value being built, such as a unit whose errors name
    the unit.
    """
    try:
        return factory(*args)
    except FieldError as exc:
        if names is not None:
            name, bracket, index = exc.field.partition("[")
            path += names.get(name, name) + bracket + index
        raise _fail(path, exc.reason) from None


def _scenario_document(samples, invalid, bits, technology, storage, method, split, epochs,
                       architecture, batch, inference_invalid, gamma, unit, countries,
                       sweeps) -> ScenarioDocument:
    """The document of its top-level values, given in _SCHEMA's order."""
    return ScenarioDocument(Scenario(
        PayloadSpec(bits, samples), technology, storage, method, split, epochs, architecture,
        batch, gamma, unit, invalid, inference_invalid, countries), sweeps)


_REQUIRED = object()
_D = default_scenario()
_PU = _D.processing_unit

# Every object of a scenario document, by the type it is built as: its builder,
# its built-ins by name and the lookup whose KeyError names them, and its
# fields in write order.  Per field: the document key; the attribute path it
# is read back from (None: the key); its rule, which is None (as given), a
# type of this table, a list (its description), the preprocessing choices, or
# a unit or checker; and its default as built, or _REQUIRED.
_SCHEMA = {
    ScenarioDocument: (_scenario_document, None, None, (
        ("samples", "scenario.payload.sample_count", None, _REQUIRED),
        ("invalid_samples", "scenario.invalid_samples", None, _D.invalid_samples),
        ("bit_precision", "scenario.payload.bits_per_sample", None, _D.payload.bits_per_sample),
        ("technology", "scenario.technology", TechnologyProfile, _D.technology),
        ("storage", "scenario.storage", StorageProfile, _D.storage),
        ("preprocessing", "scenario.standardization.value",
         {method.value: method for method in StandardizationMethod}, _D.standardization),
        ("split_ratio", "scenario.train_fraction", None, _D.train_fraction),
        ("epochs", "scenario.epochs", None, _REQUIRED),
        ("mlp", "scenario.architecture", MlpArchitecture, _REQUIRED),
        ("inference_batch", "scenario.inference_batch", None, _REQUIRED),
        ("inference_invalid_samples", "scenario.inference_invalid_samples", None,
         _D.inference_invalid_samples),
        ("gamma", "scenario.gamma", None, _REQUIRED),
        ("processing_unit", "scenario.processing_unit", ProcessingUnitProfile, _D.processing_unit),
        ("countries", "scenario.countries", " of country codes", _D.countries),
        ("sweeps", None, Sweeps, _NO_SWEEPS),
    )),
    TechnologyProfile: (TechnologyProfile, BUILTIN_TECHNOLOGIES, technology_profile, (
        ("name", None, _checked_name, "custom"),
        ("f_u", "packet_capacity.bits", BitCount, _REQUIRED),
        ("omega_u", "packet_overhead.bits", BitCount, _REQUIRED),
        ("p_t_w", "transmit_power.watts", Power, _REQUIRED),
        ("r_t_bps", "transmit_rate.bits_per_second", BitRate, _REQUIRED),
        ("packets_override", None, None, None),
    )),
    StorageProfile: (StorageProfile, BUILTIN_STORAGE, storage_profile, (
        ("name", None, _checked_name, "custom"),
        ("wh_per_tb", "wh_per_terabyte", None, _REQUIRED),
    )),
    MlpArchitecture: (MlpArchitecture, None, None, (
        ("layers", "layer_sizes", " of layer widths", _REQUIRED),
    )),
    ProcessingUnitProfile: (ProcessingUnitProfile, None, None, (
        ("preprocessing_power_w", "preprocessing_power.watts", Power, _PU.preprocessing_power),
        ("preprocessing_flops_per_s", None, None, _PU.preprocessing_flops_per_s),
        ("flops_per_joule", None, None, _PU.flops_per_joule),
    )),
    Sweeps: (Sweeps, None, None, (
        ("gamma", None, "", ()),
        ("overhead_pct", None, "", ()),
        ("invalid_samples", None, "", ()),
    )),
}
# Per object, its keys; and each part of each field's attribute path with the
# field's key, since a constructor's error names the field by such a part.
_KEYS = {cls: frozenset(field[0] for field in entry[3]) for cls, entry in _SCHEMA.items()}
_NAMES = {cls: {part: key for key, attr, _, _ in entry[3] for part in (attr or key).split(".")}
          for cls, entry in _SCHEMA.items()}


def _parse(cls: type, value: object, path: str) -> object:
    """The ``cls`` object of ``_SCHEMA`` held by ``value`` at document path
    ``path`` ("" for the top level): a built-in's name or an object."""
    builder, _, lookup, fields = _SCHEMA[cls]
    if lookup is not None and isinstance(value, str):
        try:
            return lookup(value)
        except KeyError as exc:
            raise _fail(path, exc.args[0]) from None
    if not isinstance(value, dict):
        raise _fail(path or "scenario", f"expected an object, got {type(value).__name__}")
    at = path and f"{path}."
    if not value.keys() <= _KEYS[cls]:
        key = next(key for key in value if key not in _KEYS[cls])
        raise _fail(at + key, "unknown field")
    args = []
    for key, _, rule, default in fields:
        if key not in value:
            if default is _REQUIRED:
                raise _fail(at + key, "required field is missing")
            args.append(default)
            continue
        item = value[key]
        if rule is None:
            pass
        elif isinstance(rule, str):
            if not isinstance(item, list):
                raise _fail(at + key, f"expected a list{rule}, got {item!r}")
            item = tuple(item)
        elif isinstance(rule, dict):
            choice = rule.get(item) if isinstance(item, str) else None
            if choice is None:
                raise _fail(at + key, f"expected one of {', '.join(rule)}, got {item!r}")
            item = choice
        elif rule in _SCHEMA:
            item = _parse(rule, item, at + key)
        else:
            item = _build(at + key, None, rule, item)
        args.append(item)
    return _build(at, _NAMES[cls], builder, *args)


def _to_json(obj: object) -> object:
    """``obj``, a ``_SCHEMA`` object, as JSON: a built-in by its name, any other
    as an object of its fields in write order, leaving out those that are
    None, an empty list or an empty object."""
    _, builtins, _, fields = _SCHEMA[type(obj)]
    if builtins and builtins.get(obj.name) == obj:
        return obj.name
    out = {}
    for key, attr, _, _ in fields:
        value = attrgetter(attr or key)(obj)
        if type(value) in _SCHEMA:
            value = _to_json(value)
        if value not in (None, (), {}):
            out[key] = value
    return out


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
    return _parse(ScenarioDocument, raw, "")


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Render a scenario document back to canonical JSON text, every key
    but an empty ``countries`` or ``sweeps``.

    ``parse_scenario(serialize_scenario(doc))`` reproduces ``doc`` exactly.
    """
    return json.dumps(_to_json(doc), indent=2) + "\n"


def load_scenario(path: str | os.PathLike) -> ScenarioDocument:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def write_report(table: ReportTable, destination: str | os.PathLike | TextIOBase) -> int:
    """Write a table as UTF-8 CSV to a path or text stream; returns bytes written."""
    text = table.to_csv()
    if hasattr(destination, "write"):
        destination.write(text)
        return len(text.encode("utf-8"))
    return _write(destination, text)
