"""Lifecycle aggregation: development cost, operational cost, and eCAL.

A scenario's lifecycle has two phases.  Development collects, stores, and
preprocesses the full training dataset, then trains and evaluates the
model; its energy is amortized over the transmitted bits plus the bits
touched by storage, preprocessing, training, and evaluation.  Operation
serves ``gamma`` inference requests, each of which collects, stores, and
preprocesses its own ``inference_batch`` samples before the forward pass;
each request's bits are the transmitted bits plus three passes over the
request payload (storage, preprocessing, inference).

eCAL is lifecycle energy over lifecycle bits:
``(E_dev + gamma * E_request) / (dev_bits + gamma * request_bits)``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import truediv

from . import _all_of
from .mlp_cost import DEFAULT_PROCESSING_UNIT, MlpArchitecture, ProcessingUnitProfile, _forward
from .preprocessing import StandardizationMethod, _flops
from .storage import HDD, StorageProfile
from .transmission import BLE5, PayloadSpec, TechnologyProfile, _packets
from .units import BITS_PER_TERABYTE, JOULES_PER_WH, BitCount, Energy, EnergyPerBit
from .units import FieldError, FieldTypeError, _checked_count, _checked_country, _checked_items
from .units import _checked_real, _proven, _Value

__all__ = _all_of(__name__)


@dataclass(frozen=True)
class Scenario:
    """A complete, self-contained lifecycle configuration."""

    payload: PayloadSpec
    technology: TechnologyProfile
    storage: StorageProfile
    standardization: StandardizationMethod
    train_fraction: float
    epochs: int
    architecture: MlpArchitecture
    inference_batch: int
    gamma: int
    processing_unit: ProcessingUnitProfile
    invalid_samples: int = 0
    inference_invalid_samples: int = 0
    countries: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name, cls in _PARTS:
            if not isinstance(value := getattr(self, name), cls):
                raise FieldTypeError(name, f"must be a {cls.__name__}, got {type(value).__name__}")
        countries = []
        for i, code in enumerate(_checked_items(self.countries, "countries")):
            if (code := _checked_country(code, f"countries[{i}]")) in countries:
                raise FieldError(f"countries[{i}]", f"repeats {code!r}")
            countries.append(code)
        object.__setattr__(self, "countries", tuple(countries))
        _checked_count(self.invalid_samples, "invalid_samples", 0, self.payload.sample_count)
        object.__setattr__(self, "train_fraction", _checked_real(
            self.train_fraction, "train_fraction", positive=True, maximum=1.0))
        _checked_count(self.epochs, "epochs", 1)
        _checked_count(self.inference_batch, "inference_batch", 1)
        _checked_count(self.inference_invalid_samples, "inference_invalid_samples",
                       0, self.inference_batch)
        _checked_count(self.gamma, "gamma", 1)


# The fields of Scenario that hold a model value, each with the value's type.
_PARTS = (("payload", PayloadSpec), ("technology", TechnologyProfile), ("storage", StorageProfile),
          ("standardization", StandardizationMethod), ("architecture", MlpArchitecture),
          ("processing_unit", ProcessingUnitProfile))


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


def default_scenario(gamma: int = 1000) -> Scenario:
    """The bundled reference configuration: 256 double-precision samples over
    BLE onto HDD, normalization, a 70/30 split, 10 epochs of a [6,5,5,5,3]
    MLP, and 77-sample inference requests."""
    return Scenario(
        payload=PayloadSpec(bits_per_sample=64, sample_count=256),
        technology=BLE5,
        storage=HDD,
        standardization=StandardizationMethod.NORMALIZATION,
        train_fraction=0.7,
        epochs=10,
        architecture=MlpArchitecture((6, 5, 5, 5, 3)),
        inference_batch=77,
        gamma=gamma,
        processing_unit=DEFAULT_PROCESSING_UNIT,
    )


# _Lifecycle's fields, each with its `ecal train-cost` row name (None: not
# printed); the printed fields come first, in print order.
_PRICED = (
    ("forward_flops", "M_FP"),
    ("training_forward_flops", "M_MLP_FP"),
    ("training_flops", "M_MLP"),
    ("inference_flops", "N_inf_flops"),
    ("training", "E_train_J"),
    ("training_per_bit", "E_train_b_J_per_b"),
    ("evaluation", "E_eval_J"),
    ("forward_per_bit", "E_eval_b_J_per_b"),
    ("inference", "E_inf_J"),
    ("transmission", None),
    ("storage", None),
    ("preprocessing", None),
    ("development", None),
    ("development_bits", None),
    ("development_b_t", None),
    ("train_count", None),
    ("request", None),
    ("request_bits", None),
    ("request_b_t", None),
)
_Lifecycle = namedtuple("_Lifecycle", [term[0] for term in _PRICED])
_Lifecycle.__doc__ = """One scenario priced in plain joules, FLOPs and bits: the itemized
development terms, one request's terms, and the bits each phase is
amortized over."""


def _collection(s: Scenario, count: int, invalid: int) -> tuple[int, float, float, float]:
    """Transmitted bits and the transmission, storage, and preprocessing
    joules of collecting ``count`` samples, ``invalid`` of them invalid, once."""
    tech = s.technology
    pu = s.processing_unit
    payload = s.payload.bits_per_sample * count
    b_t = payload + tech.packet_overhead.bits * _packets(tech, payload)
    e_t = tech.transmit_power.watts / tech.transmit_rate.bits_per_second * b_t
    e_storage = s.storage.wh_per_terabyte * JOULES_PER_WH / BITS_PER_TERABYTE * payload
    flops = _checked_count(_flops(s.standardization, count, invalid), "FLOP count")
    e_pre = pu.preprocessing_power.watts * (flops / pu.preprocessing_flops_per_s)
    return b_t, e_t, e_storage, e_pre


def _price(s: Scenario) -> _Lifecycle:
    """Price both phases of ``s`` once, in the operation order of the
    per-module equations, so every figure matches them bit for bit.  The
    pricing is kept on ``s``, whose fields are immutable; a failure is not.

    Raises ValueError when a count is beyond floating-point range or a returned
    float is not finite.  Every float is non-negative and in the guarded sum, so
    callers may wrap them, and their quotients by positive counts, unchecked.
    """
    p = s.__dict__.get("_lifecycle")
    if p is not None:
        return p
    bits_per_sample = s.payload.bits_per_sample
    n = s.payload.sample_count
    batch = s.inference_batch
    fpj = s.processing_unit.flops_per_joule
    fwd = _checked_count(_forward(s.architecture), "FLOP count")
    try:
        b_t, e_t, e_storage, e_pre = _collection(s, n, s.invalid_samples)
        train_count = math.floor(s.train_fraction * n)
        eval_count = n - train_count
        m_mlp_fp = s.epochs * train_count * fwd
        m_mlp = 3 * m_mlp_fp
        e_train = m_mlp / fpj
        e_eval = fwd * eval_count / fpj
        development = e_t + e_storage + e_pre + e_train + e_eval

        req_b_t, req_t, req_storage, req_pre = _collection(s, batch, s.inference_invalid_samples)
        n_inf = fwd * batch
        e_inf = n_inf / fpj
        request = req_t + req_storage + req_pre + e_inf
        training_per_bit = 3 * fwd / (bits_per_sample * fpj)
        forward_per_bit = fwd / (bits_per_sample * fpj)
    except OverflowError:
        raise ValueError(
            "scenario is too large to price: a count exceeds the floating-point range"
        ) from None
    if not math.isfinite(development + request + training_per_bit + forward_per_bit):
        raise ValueError(f"lifecycle energy is not finite: development {development!r} J, "
                         f"one request {request!r} J, training {training_per_bit!r} J/b")

    p = s.__dict__["_lifecycle"] = _Lifecycle(  # in _PRICED's order
        fwd, m_mlp_fp, m_mlp, n_inf, e_train, training_per_bit, e_eval, forward_per_bit, e_inf,
        e_t, e_storage, e_pre, development,
        b_t + bits_per_sample * (2 * n + train_count + eval_count), b_t, train_count,
        request, req_b_t + 3 * bits_per_sample * batch, req_b_t)
    return p


def _at(p: _Lifecycle, gamma: int) -> tuple[float, float]:
    """Lifecycle joules and bits after ``gamma`` requests.

    Raises ValueError when either leaves the floating-point range.
    """
    try:
        joules = p.development + gamma * p.request
        bits = float(p.development_bits + gamma * p.request_bits)
    except OverflowError:
        joules = math.inf
    if joules == math.inf:
        raise ValueError(
            f"gamma is too large to price: lifecycle energy or bits exceed the "
            f"floating-point range (gamma has {gamma.bit_length()} bits)"
        )
    return joules, bits


def _gammas(p: _Lifecycle, gammas: Iterable[int]) -> tuple[int, ...]:
    """``gammas`` as a tuple, once each is shown an integer >= 1 that ``p`` prices.

    Joules and bits are non-decreasing in gamma, so the largest stands for all;
    failing that, a check in list order raises for the first bad gamma.
    """
    gs = tuple(gammas)
    if gs and set(map(type, gs)) == {int} and min(gs) >= 1:
        try:
            _at(p, max(gs))
            return gs
        except ValueError:
            pass
    for gamma in gs:
        _at(p, _checked_count(gamma, "gamma", 1))
    return gs


def development_energy(s: Scenario) -> tuple[Energy, EnergyPerBit]:
    """Total energy of developing the model and its per-bit figure.

    The per-bit denominator counts the transmitted bits once plus the
    payload bits handled by storage and preprocessing (twice the dataset)
    plus the training and evaluation samples.
    """
    p = _price(s)
    return Energy(p.development), EnergyPerBit(p.development / p.development_bits)


def inference_phase_energy(s: Scenario) -> tuple[Energy, EnergyPerBit]:
    """Energy of one inference request and its per-bit figure.

    A request re-prices transmission, storage, and preprocessing for its
    own ``inference_batch`` samples, then adds the forward-pass energy.
    """
    p = _price(s)
    return Energy(p.request), EnergyPerBit(p.request / p.request_bits)


def ecal_abs(s: Scenario) -> Energy:
    """Absolute lifecycle energy: development plus gamma inference requests."""
    return Energy(_at(_price(s), s.gamma)[0])


def ecal_abs_mean(s: Scenario) -> Energy:
    """Average lifecycle energy per inference request.

    Strictly decreasing in gamma, approaching the per-request energy as the
    development cost is spread over more requests.
    """
    return Energy(_at(_price(s), s.gamma)[0] / s.gamma)


def ecal(s: Scenario) -> EnergyPerBit:
    """Lifecycle energy per manipulated application-level bit."""
    joules, bits = _at(_price(s), s.gamma)
    return EnergyPerBit(joules / bits)


GammaRow = namedtuple("GammaRow", "gamma ecal_abs ecal_abs_mean ecal")
GammaRow.__doc__ = """One point of a gamma sweep."""


def gamma_sweep(s: Scenario, gammas: Iterable[int]) -> list[GammaRow]:
    """Evaluate the lifecycle metrics at each request count in ``gammas``.

    Rows are independent and returned in input order.
    """
    p = _price(s)
    gs = _gammas(p, gammas)
    joules = [p.development + g * p.request for g in gs]  # _at's arithmetic, row by row
    bits = [float(p.development_bits + g * p.request_bits) for g in gs]
    columns = (gs, _proven(Energy, joules), _proven(Energy, list(map(truediv, joules, gs))),
               _proven(EnergyPerBit, list(map(truediv, joules, bits))))
    return list(map(tuple.__new__, repeat(GammaRow), zip(*columns)))


# LifecycleReport's fields, each with its type and its `ecal lifecycle` row
# name, in print order.
_TERMS = (
    ("gamma", int, "gamma"),
    ("transmitted_bits_development", BitCount, "B_T_dev_bits"),
    ("development_denominator_bits", BitCount, "dev_denominator_bits"),
    ("transmitted_bits_inference", BitCount, "B_T_inf_bits"),
    ("inference_denominator_bits", BitCount, "inf_denominator_bits"),
    ("transmission", Energy, "E_T_J"),
    ("storage", Energy, "E_storage_J"),
    ("preprocessing", Energy, "E_pre_J"),
    ("training", Energy, "E_train_J"),
    ("evaluation", Energy, "E_eval_J"),
    ("inference", Energy, "E_inf_J"),
    ("development", Energy, "E_D_J"),
    ("development_per_bit", EnergyPerBit, "E_D_b_J_per_b"),
    ("training_per_bit", EnergyPerBit, "E_train_b_J_per_b"),
    ("training_per_trained_bit", EnergyPerBit, "E_train_per_trained_bit_J_per_b"),
    ("inference_phase", Energy, "E_inf_p_J"),
    ("inference_phase_per_bit", EnergyPerBit, "E_inf_p_b_J_per_b"),
    ("ecal_abs", Energy, "eCAL_abs_J"),
    ("ecal_abs_mean", Energy, "eCAL_abs_mean_J"),
    ("ecal", EnergyPerBit, "eCAL_J_per_b"),
)
LifecycleReport = namedtuple("LifecycleReport", [term[0] for term in _TERMS])
LifecycleReport.__doc__ = """Itemized energies, per-bit figures, and lifecycle metrics of a
scenario."""
# Each field's kind and, for a unit, the setter of its one slot.
_KINDS = [(kind, None if kind is int else getattr(kind, kind.__match_args__[0]).__set__)
          for _, kind, _ in _TERMS]


def lifecycle_report(s: Scenario) -> LifecycleReport:
    """Evaluate every lifecycle quantity of a scenario in one pass.

    ``training_per_bit`` is the single-sample closed-form figure;
    ``training_per_trained_bit`` divides the absolute training energy by the
    bits actually pushed through training, so it carries the epoch factor.
    """
    p = _price(s)
    joules, bits = _at(p, s.gamma)
    trained_bits = s.payload.bits_per_sample * p.train_count
    fields = []
    for (kind, set_field), value in zip(_KINDS, (  # in _TERMS' order, unchecked as by _proven
            s.gamma, p.development_b_t, p.development_bits, p.request_b_t, p.request_bits,
            p.transmission, p.storage, p.preprocessing, p.training, p.evaluation, p.inference,
            p.development, p.development / p.development_bits, p.training_per_bit,
            p.training / trained_bits if trained_bits else 0.0, p.request,
            p.request / p.request_bits, joules, joules / s.gamma, joules / bits)):
        if set_field:
            set_field(unit := object.__new__(kind), value)
            value = unit
        fields.append(value)
    return tuple.__new__(LifecycleReport, fields)
