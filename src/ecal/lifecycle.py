"""Lifecycle aggregation: development cost, operational cost, and eCAL.

A scenario's lifecycle has two phases.  Development collects, stores, and
preprocesses the full training dataset, then trains and evaluates the
model; its energy is amortized over the transmitted bits plus the bits
touched by storage, preprocessing, training, and evaluation.  Operation
serves ``gamma`` inference requests, each of which collects, stores, and
preprocesses its own ``inference_batch`` samples before the forward pass;
each request's bits are the transmitted bits plus three passes over the
request payload (storage, preprocessing, inference).

eCAL is lifecycle energy over lifecycle bits, which ``_at`` alone prices at a
request count, for ``_price`` at the scenario's own gamma and ``_sweep`` alike:
``(E_dev + gamma * E_request) / (dev_bits + gamma * request_bits)``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import add, mul, truediv

from . import _all_of
from .mlp_cost import DEFAULT_PROCESSING_UNIT, MlpArchitecture, ProcessingUnitProfile, _forward
from .preprocessing import StandardizationMethod, _flops
from .storage import HDD, StorageProfile
from .transmission import BLE5, PayloadSpec, TechnologyProfile, _packets
from .units import BITS_PER_TERABYTE, JOULES_PER_WH, BitCount, Energy, EnergyPerBit
from .units import FieldError, _checked_count, _checked_country, _checked_items, _checked_real
from .units import _checked_types, _proven, _repeated, _Value

__all__ = _all_of(__name__)


class _DataclassFields:
    """``Scenario.__dataclass_fields__``: on first read, the ``dataclasses.Field``s
    that ``@dataclass`` would make of ``__init__``'s parameters (names, annotations
    and defaults), left on the class in its place.  So ``dataclasses.replace``,
    ``fields``, ``asdict`` and ``is_dataclass`` work on a ``Scenario``, yet only
    they load ``dataclasses``."""

    def __get__(self, obj, cls):
        from dataclasses import make_dataclass

        init = cls.__init__
        defaults = dict(zip(reversed(cls.__match_args__), reversed(init.__defaults__)))
        cls.__dataclass_fields__ = make_dataclass(cls.__name__, [
            (name, init.__annotations__[name], *([defaults[name]] if name in defaults else []))
            for name in cls.__match_args__]).__dataclass_fields__
        return cls.__dataclass_fields__


class Scenario(_Value):
    """A complete, self-contained lifecycle configuration."""

    __match_args__ = ("payload", "technology", "storage", "standardization", "train_fraction",
                      "epochs", "architecture", "inference_batch", "gamma", "processing_unit",
                      "invalid_samples", "inference_invalid_samples", "countries")
    __slots__ = (*__match_args__, "_lifecycle")  # _lifecycle: the pricing that _price keeps
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, payload: PayloadSpec, technology: TechnologyProfile,
                 storage: StorageProfile, standardization: StandardizationMethod,
                 train_fraction: float, epochs: int, architecture: MlpArchitecture,
                 inference_batch: int, gamma: int, processing_unit: ProcessingUnitProfile,
                 invalid_samples: int = 0, inference_invalid_samples: int = 0,
                 countries: tuple[str, ...] = ()) -> None:
        _checked_types((payload, "payload", PayloadSpec),
                       (technology, "technology", TechnologyProfile),
                       (storage, "storage", StorageProfile),
                       (standardization, "standardization", StandardizationMethod),
                       (architecture, "architecture", MlpArchitecture),
                       (processing_unit, "processing_unit", ProcessingUnitProfile))
        codes = _checked_items(countries, "countries", _checked_country)
        if len(set(codes)) < len(codes):
            raise _repeated(codes, "countries")
        _checked_count(invalid_samples, "invalid_samples", 0, payload.sample_count)
        train_fraction = _checked_real(train_fraction, "train_fraction", positive=True,
                                       maximum=1.0)
        if payload.sample_count and train_fraction * payload.sample_count < 1:  # _price floors it
            raise FieldError("train_fraction", f"leaves no training sample, got {train_fraction!r}")
        _checked_count(epochs, "epochs", 1)
        _checked_count(inference_batch, "inference_batch", 1)
        _checked_count(inference_invalid_samples, "inference_invalid_samples",
                       0, inference_batch)
        _checked_count(gamma, "gamma", 1)
        for name, value in zip(self.__slots__, (
                payload, technology, storage, standardization, train_fraction, epochs,
                architecture, inference_batch, gamma, processing_unit, invalid_samples,
                inference_invalid_samples, codes, None)):
            object.__setattr__(self, name, value)


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
_UNITS = [kind for _, kind, _ in _TERMS[1:]]  # the unit type of each field after gamma


# `ecal train-cost`'s rows, each with the _Lifecycle field it prints, in print order.
_TRAIN_COST = (
    ("M_FP", "forward_flops"),
    ("M_MLP_FP", "training_forward_flops"),
    ("M_MLP", "training_flops"),
    ("N_inf_flops", "inference_flops"),
    ("E_train_J", "training"),
    ("E_train_b_J_per_b", "training_per_bit"),
    ("E_eval_J", "evaluation"),
    ("E_eval_b_J_per_b", "forward_per_bit"),
    ("E_inf_J", "inference"),
)
_Lifecycle = namedtuple("_Lifecycle", (
    "forward_flops", "training_forward_flops", "training_flops", "inference_flops",
    "forward_per_bit", *[term[0] for term in _TERMS[1:]]))
_Lifecycle.__doc__ = """One scenario priced at its own gamma in plain ints and floats: five
FLOP and per-bit terms that only `ecal train-cost` prints, then every LifecycleReport
field after gamma, under its report name and in its report order."""


def _collection(s: Scenario, count: int, invalid: int) -> tuple[int, float, float, float]:
    """Transmitted bits and the transmission, storage, and preprocessing
    joules of collecting ``count`` samples, ``invalid`` of them invalid, once."""
    tech = s.technology
    pu = s.processing_unit
    payload = s.payload.bits_per_sample * count
    b_t = payload + tech.packet_overhead * _packets(tech, payload)
    e_t = tech.transmit_power / tech.transmit_rate * b_t
    e_storage = s.storage.wh_per_terabyte * JOULES_PER_WH / BITS_PER_TERABYTE * payload
    flops = _checked_count(_flops(s.standardization, count, invalid), "FLOP count")
    e_pre = pu.preprocessing_power * (flops / pu.preprocessing_flops_per_s)
    return b_t, e_t, e_storage, e_pre


def _price(s: Scenario) -> _Lifecycle:
    """Price both phases of ``s`` once, then its lifecycle at ``s.gamma``, in the
    operation order of the per-module equations, so every figure matches them bit
    for bit.  The pricing is kept on ``s``, whose fields are immutable; a failure is not.

    Raises ValueError when a count is beyond floating-point range or a returned
    float is not finite, so callers may wrap every figure unchecked.  Each bit
    denominator fits a float, and so do both after one request: only gamma can
    take ``_at`` beyond the range, so it is checked last.
    """
    if not isinstance(s, Scenario):
        _checked_types((s, "s", Scenario))
    p = s._lifecycle
    if p is not None:
        return p
    bits_per_sample = s.payload.bits_per_sample
    n = s.payload.sample_count
    batch = s.inference_batch
    fpj = s.processing_unit.flops_per_joule
    fwd = _forward(s.architecture)
    try:
        b_t, e_t, e_storage, e_pre = _collection(s, n, s.invalid_samples)
        train_count = math.floor(s.train_fraction * n)
        eval_count = n - train_count
        m_mlp_fp = s.epochs * train_count * fwd
        m_mlp = 3 * m_mlp_fp
        e_train = m_mlp / fpj
        e_eval = fwd * eval_count / fpj
        development = e_t + e_storage + e_pre + e_train + e_eval
        dev_bits = b_t + bits_per_sample * (2 * n + train_count + eval_count)

        req_b_t, req_t, req_storage, req_pre = _collection(s, batch, s.inference_invalid_samples)
        n_inf = fwd * batch
        e_inf = n_inf / fpj
        request = req_t + req_storage + req_pre + e_inf
        req_bits = req_b_t + 3 * bits_per_sample * batch
        training_per_bit = 3 * fwd / (bits_per_sample * fpj)
        forward_per_bit = fwd / (bits_per_sample * fpj)
        development_per_bit = development / dev_bits
        training_per_trained_bit = e_train / (bits_per_sample * train_count)
        inference_phase_per_bit = request / req_bits
        float(dev_bits + req_bits)  # the bits after one request fit too: only gamma fails _at
    except OverflowError:
        raise ValueError(
            "scenario is too large to price: a count exceeds the floating-point range"
        ) from None
    # Every per-bit figure is at most a term of development or of the request: training
    # per bit is at most e_train, since a scenario trains one sample or more.
    if not math.isfinite(development + request):
        raise ValueError(f"lifecycle energy is not finite: development {development!r} J, "
                         f"one request {request!r} J")
    joules, bits = _at(development, request, dev_bits, req_bits, s.gamma)
    p = _Lifecycle(
        fwd, m_mlp_fp, m_mlp, n_inf, forward_per_bit, b_t, dev_bits, req_b_t, req_bits,
        e_t, e_storage, e_pre, e_train, e_eval, e_inf, development, development_per_bit,
        training_per_bit, training_per_trained_bit, request, inference_phase_per_bit,
        joules, joules / s.gamma, joules / bits)
    object.__setattr__(s, "_lifecycle", p)
    return p


def _at(development: float, request: float, dev_bits: int, req_bits: int,
        gamma: int) -> tuple[float, float]:
    """Lifecycle joules and bits: development's plus ``gamma`` times one request's.

    Raises ValueError when either leaves the floating-point range.
    """
    try:
        joules = development + gamma * request
        bits = float(dev_bits + gamma * req_bits)
    except OverflowError:
        joules = math.inf
    if joules == math.inf:
        raise ValueError(
            f"gamma is too large to price: lifecycle energy or bits exceed the "
            f"floating-point range (gamma has {gamma.bit_length()} bits)"
        )
    return joules, bits


def _sweep(p: _Lifecycle, gammas: Iterable[int]) -> tuple[tuple[int, ...], list, Iterator]:
    """``gammas`` as a tuple, once each is shown an integer >= 1 that ``p`` prices,
    with the lifecycle joules that ``_at`` gives for each, and its bits, made as read.

    Joules and bits are non-decreasing in gamma, so the largest stands for all;
    failing that, a check in list order raises for the first bad gamma.
    """
    gs = _checked_items(gammas, "gammas")
    phases = development, request, dev_bits, req_bits = (
        p.development, p.inference_phase, p.development_denominator_bits,
        p.inference_denominator_bits)
    try:
        proven = gs and set(map(type, gs)) == {int} and min(gs) >= 1 and _at(*phases, max(gs))
    except ValueError:
        proven = False
    if not proven:
        for gamma in gs:
            _at(*phases, _checked_count(gamma, "gamma", 1))
    joules = list(map(add, repeat(development), map(mul, gs, repeat(request))))
    bits = map(float, map(add, repeat(dev_bits), map(mul, gs, repeat(req_bits))))
    return gs, joules, bits


def development_energy(s: Scenario) -> tuple[Energy, EnergyPerBit]:
    """Total energy of developing the model and its per-bit figure.

    The per-bit denominator counts the transmitted bits once plus the
    payload bits handled by storage and preprocessing (twice the dataset)
    plus the training and evaluation samples.
    """
    p = _price(s)
    return tuple(_proven((Energy, EnergyPerBit), (p.development, p.development_per_bit)))


def inference_phase_energy(s: Scenario) -> tuple[Energy, EnergyPerBit]:
    """Energy of one inference request and its per-bit figure.

    A request re-prices transmission, storage, and preprocessing for its
    own ``inference_batch`` samples, then adds the forward-pass energy.
    """
    p = _price(s)
    return tuple(_proven((Energy, EnergyPerBit), (p.inference_phase, p.inference_phase_per_bit)))


def ecal_abs(s: Scenario) -> Energy:
    """Absolute lifecycle energy: development plus gamma inference requests."""
    return lifecycle_report(s).ecal_abs


def ecal_abs_mean(s: Scenario) -> Energy:
    """Average lifecycle energy per inference request.

    Strictly decreasing in gamma, approaching the per-request energy as the
    development cost is spread over more requests.
    """
    return lifecycle_report(s).ecal_abs_mean


def ecal(s: Scenario) -> EnergyPerBit:
    """Lifecycle energy per manipulated application-level bit."""
    return lifecycle_report(s).ecal


GammaRow = namedtuple("GammaRow", "gamma ecal_abs ecal_abs_mean ecal")
GammaRow.__doc__ = """One point of a gamma sweep."""


def gamma_sweep(s: Scenario, gammas: Iterable[int]) -> list[GammaRow]:
    """Evaluate the lifecycle metrics at each request count in ``gammas``.

    Rows are independent and returned in input order.
    """
    gs, joules, bits = _sweep(_price(s), gammas)
    columns = (gs, _proven(Energy, joules), _proven(Energy, list(map(truediv, joules, gs))),
               _proven(EnergyPerBit, list(map(truediv, joules, bits))))
    return list(map(tuple.__new__, repeat(GammaRow), zip(*columns)))


def lifecycle_report(s: Scenario) -> LifecycleReport:
    """Evaluate every lifecycle quantity of a scenario in one pass.

    ``training_per_bit`` is the single-sample closed-form figure;
    ``training_per_trained_bit`` divides the absolute training energy by the
    bits actually pushed through training, so it carries the epoch factor.
    """
    p = _price(s)
    return tuple.__new__(LifecycleReport, (s.gamma, *_proven(_UNITS, p[5:])))
