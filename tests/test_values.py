"""Value semantics of the model's value types.

Two kinds, all immutable.  Validating types are ``_Value`` classes that
check or convert a field on construction; result records are
``collections.namedtuple``s that only store their fields.  Both compare,
hash, print, copy and pickle field by field, and a record also behaves as
a plain tuple.
"""

import copy
import dataclasses
import pickle
import sys
from functools import partial

import pytest

from ecal import (
    BLE5,
    DEFAULT_PROCESSING_UNIT,
    HDD,
    LORAWAN,
    BitCount,
    CarbonIntensity,
    CarbonIntensityRecord,
    Energy,
    EnergyPerBit,
    FlopCount,
    FlopLedger,
    MlpArchitecture,
    PayloadSpec,
    ProcessingUnitProfile,
    RawDataset,
    ReportTable,
    Scenario,
    ScenarioDocument,
    StorageProfile,
    Sweeps,
    TechnologyProfile,
    bundled_ci_table,
    cf_vs_gamma,
    default_scenario,
    gamma_sweep,
    lifecycle_report,
    make_split,
    minmax_scale,
)
from ecal.units import _Value

VALIDATING = {Energy, BitCount, FlopCount, EnergyPerBit, CarbonIntensity,
              PayloadSpec, TechnologyProfile, StorageProfile, MlpArchitecture,
              ProcessingUnitProfile, RawDataset, CarbonIntensityRecord, ReportTable, Sweeps,
              Scenario}


def _examples():
    s = default_scenario()
    carbon = cf_vs_gamma(s, bundled_ci_table()[:2], [1000])
    return [
        Energy(1.5), BitCount(3), FlopCount(5), EnergyPerBit(6e-9),
        CarbonIntensity(425.0), PayloadSpec(64, 256), BLE5, LORAWAN, HDD,
        MlpArchitecture((6, 5, 3)), DEFAULT_PROCESSING_UNIT, make_split(256, 0.7),
        RawDataset((1.0, 2.5)), lifecycle_report(s), bundled_ci_table()[0], carbon,
        Sweeps((10, 100), (1.0,), (0,)), ScenarioDocument(s, Sweeps((5,))),
        ReportTable(("metric", "value"), [("a", 1.0)]), FlopLedger(1, 2, 3, 4, 5),
        gamma_sweep(s, [10])[0], carbon.rows[0], s,
    ]


ALL = _examples()
RECORDS = [value for value in ALL if type(value) not in VALIDATING]


def _ids(value):
    return type(value).__name__


def _fields(value):
    return [getattr(value, name) for name in value.__match_args__]


def test_every_record_type_is_covered():
    assert len({type(value) for value in ALL}) == 22
    assert {type(value).__name__ for value in RECORDS} == {
        "TrainSplit", "LifecycleReport", "CarbonReport", "ScenarioDocument",
        "FlopLedger", "GammaRow", "CarbonReportRow"}


def test_value_base_is_kept_for_validating_types():
    assert set(_Value.__subclasses__()) == VALIDATING
    assert {type(value) for value in ALL} >= VALIDATING


def test_reprs_are_pinned():
    assert repr(Energy(1.0)) == "Energy(joules=1.0)"
    assert repr(PayloadSpec(64, 256)) == "PayloadSpec(bits_per_sample=64, sample_count=256)"
    assert repr(BLE5) == (
        "TechnologyProfile(name='ble5', packet_capacity=2120, packet_overhead=168, "
        "transmit_power=0.0031628, transmit_rate=1000000.0, packets_override=None)")
    assert repr(ReportTable(("metric", "value"), [("a", 1.0)])) == (
        "ReportTable(columns=('metric', 'value'), rows=(('a', 1.0),))")
    assert repr(make_split(256, 0.7)) == (
        "TrainSplit(sample_count=256, train_fraction=0.7, train_count=179, eval_count=77)")
    assert repr(FlopLedger(additions=2)) == (
        "FlopLedger(additions=2, subtractions=0, multiplications=0, divisions=0, square_roots=0)")
    assert repr(ScenarioDocument(default_scenario())).endswith(
        ", sweeps=Sweeps(gamma=(), overhead_pct=(), invalid_samples=()))")


def test_equality_needs_the_same_type_and_fields():
    assert Energy(1.0) == Energy(1.0)
    assert Energy(1.0) != EnergyPerBit(1.0)
    assert Energy(1.0) != Energy(2.0)
    assert Energy(1.0) != (1.0,)
    assert BitCount(3) != 3
    assert PayloadSpec(64, 256) != PayloadSpec(256, 64)


@pytest.mark.parametrize("value", RECORDS, ids=_ids)
def test_records_behave_as_tuples_of_their_fields(value):
    fields = _fields(value)
    assert isinstance(value, tuple)
    assert value == tuple(fields)
    assert list(value) == fields
    assert value[0] is fields[0] and value[-1] is fields[-1]
    first, *_ = value
    assert first is fields[0]


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_fields_are_the_slots(value):
    """A validating type keeps its fields in slots, a record in its tuple."""
    if isinstance(value, _Value):
        # A Scenario also keeps its pricing, in one slot outside its fields.
        extra = ("_lifecycle",) if isinstance(value, Scenario) else ()
        assert type(value).__slots__ == value.__match_args__ + extra
    else:
        assert type(value).__slots__ == ()
        assert type(value)._fields == value.__match_args__
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_equal_values_hash_equal(value):
    twin = type(value)(*_fields(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value) == hash(tuple(_fields(value)))
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = value.__match_args__[0]
    before = getattr(value, name)
    # A record's messages are the interpreter's own; only _Value's are pinned.
    assign = f"cannot assign to field '{name}'" if isinstance(value, _Value) else None
    delete = f"cannot delete field '{name}'" if isinstance(value, _Value) else None
    with pytest.raises(AttributeError, match=assign):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=delete):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


def test_flop_ledgers_are_immutable_and_hashable():
    ledger = FlopLedger(additions=2)
    with pytest.raises(AttributeError):
        ledger.additions += 1
    assert ledger == FlopLedger(additions=2) == (2, 0, 0, 0, 0)
    assert {ledger: 1}[FlopLedger(2)] == 1
    assert ledger.total == FlopCount(2)
    _, counted = minmax_scale([1.0, 3.0])
    assert counted == FlopLedger(subtractions=3, divisions=2)


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_copy_deepcopy_and_pickle_give_an_equal_value(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_replace_rebuilds_through_the_constructor(value):
    # A validating type's __replace__ is _Value's, a record's _replace namedtuple's;
    # copy.replace, on Python 3.13+, calls __replace__ for both.
    replacers = [value.__replace__ if isinstance(value, _Value) else value._replace]
    if sys.version_info >= (3, 13):
        replacers.append(partial(copy.replace, value))
    for replace in replacers:
        clone = replace()
        assert type(clone) is type(value) and clone == value
    if isinstance(value, _Value):
        # A bad field raises what the constructor raises for it.
        bad = {value.__match_args__[0]: None}
        with pytest.raises((TypeError, ValueError)) as built:
            type(value)(**dict(zip(value.__match_args__, _fields(value)), **bad))
        for replace in replacers:
            with pytest.raises(type(built.value)) as caught:
                replace(**bad)
            assert str(caught.value) == str(built.value)


# Scenario's dataclass fields, as @dataclass made them: name, annotation and default.
SCENARIO_FIELDS = [
    ("payload", "PayloadSpec", dataclasses.MISSING),
    ("technology", "TechnologyProfile", dataclasses.MISSING),
    ("storage", "StorageProfile", dataclasses.MISSING),
    ("standardization", "StandardizationMethod", dataclasses.MISSING),
    ("train_fraction", "float", dataclasses.MISSING),
    ("epochs", "int", dataclasses.MISSING),
    ("architecture", "MlpArchitecture", dataclasses.MISSING),
    ("inference_batch", "int", dataclasses.MISSING),
    ("gamma", "int", dataclasses.MISSING),
    ("processing_unit", "ProcessingUnitProfile", dataclasses.MISSING),
    ("invalid_samples", "int", 0),
    ("inference_invalid_samples", "int", 0),
    ("countries", "tuple[str, ...]", ()),
]


def test_a_scenario_keeps_the_dataclass_protocol():
    s = default_scenario()
    report = lifecycle_report(s)
    assert dataclasses.is_dataclass(s) and dataclasses.is_dataclass(Scenario)
    fields = dataclasses.fields(s)
    assert [(f.name, f.type, f.default) for f in fields] == SCENARIO_FIELDS
    assert {(f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only)
            for f in fields} == {(dataclasses.MISSING, True, True, None, True, False)}
    assert dataclasses.fields(Scenario) == fields
    assert dataclasses.asdict(s) == {name: getattr(s, name) for name in s.__match_args__}
    with pytest.raises(TypeError):
        vars(s)  # a Scenario has no __dict__
    # replace rebuilds through __init__, so its checks run and the pricing is not carried;
    # __replace__ is what copy.replace calls on Python 3.13+.
    for changed, built in ((dataclasses.replace(s, gamma=100), default_scenario(100)),
                           (dataclasses.replace(s), default_scenario()),
                           (s.__replace__(gamma=100), default_scenario(100))):
        assert changed == built and changed._lifecycle is None
        assert repr(lifecycle_report(changed)) == repr(lifecycle_report(built))
    assert s._lifecycle is not None and lifecycle_report(s) == report
    with pytest.raises(ValueError, match="gamma must be >= 1, got 0"):
        dataclasses.replace(s, gamma=0)
