"""Value semantics of the model's value types.

Two kinds, all immutable.  Validating types are ``_Value`` classes that
check or convert a field on construction; result records are
``collections.namedtuple``s that only store their fields.  Both compare,
hash, print, copy and pickle field by field, and a record also behaves as
a plain tuple.
"""

import copy
import pickle

import pytest

from ecal import (
    BLE5,
    DEFAULT_PROCESSING_UNIT,
    HDD,
    LORAWAN,
    BitCount,
    BitRate,
    CarbonIntensity,
    CarbonIntensityRecord,
    Energy,
    EnergyPerBit,
    FlopCount,
    FlopLedger,
    MlpArchitecture,
    PayloadSpec,
    Power,
    ProcessingUnitProfile,
    RawDataset,
    ReportTable,
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

VALIDATING = {Energy, Power, BitCount, BitRate, FlopCount, EnergyPerBit, CarbonIntensity,
              PayloadSpec, TechnologyProfile, StorageProfile, MlpArchitecture,
              ProcessingUnitProfile, RawDataset, CarbonIntensityRecord, ReportTable, Sweeps}


def _examples():
    s = default_scenario()
    carbon = cf_vs_gamma(s, bundled_ci_table()[:2], [1000])
    return [
        Energy(1.5), Power(2.0), BitCount(3), BitRate(4.0), FlopCount(5), EnergyPerBit(6e-9),
        CarbonIntensity(425.0), PayloadSpec(64, 256), BLE5, LORAWAN, HDD,
        MlpArchitecture((6, 5, 3)), DEFAULT_PROCESSING_UNIT, make_split(256, 0.7),
        RawDataset((1.0, 2.5)), lifecycle_report(s), bundled_ci_table()[0], carbon,
        Sweeps((10, 100), (1.0,), (0,)), ScenarioDocument(s, Sweeps((5,))),
        ReportTable(("metric", "value"), [("a", 1.0)]), FlopLedger(1, 2, 3, 4, 5),
        gamma_sweep(s, [10])[0], carbon.rows[0],
    ]


ALL = _examples()
RECORDS = [value for value in ALL if type(value) not in VALIDATING]


def _ids(value):
    return type(value).__name__


def _fields(value):
    return [getattr(value, name) for name in value.__match_args__]


def test_every_record_type_is_covered():
    assert len({type(value) for value in ALL}) == 23
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
        "TechnologyProfile(name='ble5', packet_capacity=BitCount(bits=2120), "
        "packet_overhead=BitCount(bits=168), transmit_power=Power(watts=0.0031628), "
        "transmit_rate=BitRate(bits_per_second=1000000.0), packets_override=None)")
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
    assert Energy(1.0) != Power(1.0)
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
        assert type(value).__slots__ == value.__match_args__
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
