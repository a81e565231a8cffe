"""Value semantics of the model's record types.

Every type below is immutable except ``FlopLedger``; they compare, hash,
print, copy and pickle field by field, as frozen dataclasses do.
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
    Energy,
    EnergyPerBit,
    FlopCount,
    FlopLedger,
    MlpArchitecture,
    PayloadSpec,
    Power,
    RawDataset,
    ReportTable,
    ScenarioDocument,
    Sweeps,
    bundled_ci_table,
    cf_vs_gamma,
    default_scenario,
    lifecycle_report,
    make_split,
)


def _examples():
    s = default_scenario()
    return [
        Energy(1.5), Power(2.0), BitCount(3), BitRate(4.0), FlopCount(5), EnergyPerBit(6e-9),
        CarbonIntensity(425.0), PayloadSpec(64, 256), BLE5, LORAWAN, HDD,
        MlpArchitecture((6, 5, 3)), DEFAULT_PROCESSING_UNIT, make_split(256, 0.7),
        RawDataset((1.0, 2.5)), lifecycle_report(s), bundled_ci_table()[0],
        cf_vs_gamma(s, bundled_ci_table()[:2], [1000]), Sweeps((10, 100), (1.0,), (0,)),
        ScenarioDocument(s, Sweeps((5,))), ReportTable(("metric", "value"), [("a", 1.0)]),
    ]


FROZEN = _examples()
ALL = [*FROZEN, FlopLedger(1, 2, 3, 4, 5)]


def _ids(value):
    return type(value).__name__


def _fields(value):
    return [getattr(value, name) for name in value.__match_args__]


def test_every_record_type_is_covered():
    assert len({type(value) for value in ALL}) == 21


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


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_fields_are_the_slots(value):
    assert type(value).__slots__ == value.__match_args__
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", FROZEN, ids=_ids)
def test_equal_values_hash_equal(value):
    twin = type(value)(*_fields(value))
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("value", FROZEN, ids=_ids)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = value.__match_args__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


def test_flop_ledger_is_the_mutable_one():
    ledger = FlopLedger()
    ledger.additions += 2
    assert ledger == FlopLedger(additions=2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(ledger)


@pytest.mark.parametrize("value", ALL, ids=_ids)
def test_copy_deepcopy_and_pickle_give_an_equal_value(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value
        assert repr(clone) == repr(value)
