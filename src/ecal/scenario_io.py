"""Scenario files.

A scenario is a single strict-schema JSON document; unknown keys are
rejected so parameter typos fail loudly.  Each object a document holds, and
each key of it, is declared once, in ``_SCHEMA``, which the parser and the
serializer both read.  ``ReportTable``, ``reproduce``, ``write_report`` and
``REPRODUCE_TARGETS`` belong to :mod:`ecal.report`; import them from here too.
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
from .report import REPRODUCE_TARGETS, ReportTable, _read, reproduce, write_report
from .storage import BUILTIN_STORAGE, StorageProfile, storage_profile
from .transmission import BUILTIN_TECHNOLOGIES, PayloadSpec, TechnologyProfile, technology_profile
from .units import FieldError, FieldTypeError, _checked_types, _unknown

__all__ = _all_of(__name__)


class ScenarioError(ValueError):
    """A scenario document failed validation; the message names the field path."""


_NO_SWEEPS = Sweeps()


class ScenarioDocument(namedtuple("ScenarioDocument", "scenario sweeps", defaults=(_NO_SWEEPS,))):
    """A parsed scenario plus its sweep blocks."""

    __slots__ = ()


def _fail(path: str, message: str) -> ScenarioError:
    return ScenarioError(f"{path}: {message}")


def _build(path: str, names: dict, factory: Callable[..., object], *args: object) -> object:
    """Call a model constructor, reporting its FieldError at a document path:
    ``path`` is the prefix of the object being built, and the error names the
    failing field under it by its key in ``names``."""
    try:
        return factory(*args)
    except FieldError as exc:
        name, bracket, index = exc.field.partition("[")
        raise _fail(path + names.get(name, name) + bracket + index, exc.reason) from None


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
# its built-ins by name and the lookup whose LookupError names them, and its
# fields in write order.  Per field: the document key; the attribute path it
# is read back from (None: the key); its rule, which is None (as given), a
# type of this table, a list (its description) or StandardizationMethod (a
# method by its name); and its default as built, or _REQUIRED.
_SCHEMA = {
    ScenarioDocument: (_scenario_document, None, None, (
        ("samples", "scenario.payload.sample_count", None, _REQUIRED),
        ("invalid_samples", "scenario.invalid_samples", None, _D.invalid_samples),
        ("bit_precision", "scenario.payload.bits_per_sample", None, _D.payload.bits_per_sample),
        ("technology", "scenario.technology", TechnologyProfile, _D.technology),
        ("storage", "scenario.storage", StorageProfile, _D.storage),
        ("preprocessing", "scenario.standardization.value", StandardizationMethod,
         _D.standardization),
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
        ("name", None, None, "custom"),
        ("f_u", "packet_capacity", None, _REQUIRED),
        ("omega_u", "packet_overhead", None, _REQUIRED),
        ("p_t_w", "transmit_power", None, _REQUIRED),
        ("r_t_bps", "transmit_rate", None, _REQUIRED),
        ("packets_override", None, None, None),
    )),
    StorageProfile: (StorageProfile, BUILTIN_STORAGE, storage_profile, (
        ("name", None, None, "custom"),
        ("wh_per_tb", "wh_per_terabyte", None, _REQUIRED),
    )),
    MlpArchitecture: (MlpArchitecture, None, None, (
        ("layers", "layer_sizes", " of layer widths", _REQUIRED),
    )),
    ProcessingUnitProfile: (ProcessingUnitProfile, None, None, (
        ("preprocessing_power_w", "preprocessing_power", None, _PU.preprocessing_power),
        ("preprocessing_flops_per_s", None, None, _PU.preprocessing_flops_per_s),
        ("flops_per_joule", None, None, _PU.flops_per_joule),
    )),
    Sweeps: (Sweeps, None, None, (
        ("gamma", None, "", ()),
        ("overhead_pct", None, "", ()),
        ("invalid_samples", None, "", ()),
    )),
}
# Per object, its keys in write order; and each part of each field's attribute path
# with the field's key, since a constructor's error names the field by such a part.
_KEYS = {cls: {field[0]: None for field in entry[3]}.keys() for cls, entry in _SCHEMA.items()}
_NAMES = {cls: {part: key for key, attr, _, _ in entry[3] for part in (attr or key).split(".")}
          for cls, entry in _SCHEMA.items()}


def _parse(cls: type, value: object, path: str) -> object:
    """The ``cls`` object of ``_SCHEMA`` held by ``value`` at document path
    ``path`` ("" for the top level): a built-in's name or an object."""
    builder, _, lookup, fields = _SCHEMA[cls]
    if lookup is not None and isinstance(value, str):
        try:
            return lookup(value)
        except LookupError as exc:
            raise _fail(path, str(exc)) from None
    if not isinstance(value, dict):
        raise _fail(path or "scenario", f"expected an object, got {type(value).__name__}")
    at = path and f"{path}."
    if not value.keys() <= (keys := _KEYS[cls]):
        key = next(key for key in value if key not in keys)
        raise _fail(at + key, str(_unknown("field", key, keys)))
    args = []
    for key, _, rule, default in fields:
        if key not in value:
            if default is _REQUIRED:
                raise _fail(at + key, "required field is missing")
            args.append(default)
            continue
        item = value[key]
        if isinstance(rule, str):
            if not isinstance(item, list):
                raise _fail(at + key, f"expected a list{rule}, got {item!r}")
            item = tuple(item)
        elif rule is StandardizationMethod:
            try:
                item = rule(item)
            except LookupError as exc:
                raise _fail(at + key, str(exc)) from None
        elif rule is not None:
            item = _parse(rule, item, at + key)
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
    except TypeError:
        raise FieldTypeError(
            "text", f"must be a str or bytes, got {type(text).__name__}") from None
    return _parse(ScenarioDocument, raw, "")


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Render a scenario document back to canonical JSON text, every key
    but an empty ``countries`` or ``sweeps``.

    ``parse_scenario(serialize_scenario(doc))`` reproduces ``doc`` exactly.
    """
    if not isinstance(doc, ScenarioDocument):
        _checked_types((doc, "doc", ScenarioDocument))
    return json.dumps(_to_json(doc), indent=2) + "\n"


def load_scenario(source: str | os.PathLike | TextIOBase) -> ScenarioDocument:
    """Read and parse a scenario from a UTF-8 path or a text stream; text that
    is not UTF-8 is a :class:`ScenarioError` naming the file and the line."""
    return parse_scenario(_read(source, "source", ScenarioError))
