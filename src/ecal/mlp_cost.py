"""FLOP complexity of a fully connected MLP and the energy it implies.

One forward pass of one sample costs, per layer transition, two FLOPs per
edge (weight multiply + accumulate) and two FLOPs per destination node
(bias add + activation).  A backward pass is budgeted at twice a forward
pass, so training costs three forward passes per sample per epoch.
Evaluation and inference are forward passes only, which is why their
per-bit energies coincide.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _all_of
from .units import Energy, EnergyPerBit, FieldError, FlopCount
from .units import _checked_count, _checked_items, _checked_real, _checked_types, _Value

__all__ = _all_of(__name__)

_MAX_HIDDEN_LAYERS = 1000  # of one uniform_architecture


class MlpArchitecture(_Value):
    """Layer widths of a fully connected MLP, input layer first."""

    __slots__ = __match_args__ = ("layer_sizes",)

    def __init__(self, layer_sizes: tuple[int, ...]) -> None:
        sizes = _checked_items(layer_sizes, "layer_sizes", _checked_count, 1)
        if len(sizes) < 2:
            raise FieldError("layer_sizes", "must list at least an input and an output "
                                            f"layer, got {len(sizes)} layer(s)")
        object.__setattr__(self, "layer_sizes", sizes)


class ProcessingUnitProfile(_Value):
    """Compute-side parameters of the machine running the pipeline.

    Args:
        preprocessing_power: power drawn while preprocessing runs, in W.
        preprocessing_flops_per_s: sustained preprocessing throughput, in FLOP/s.
        flops_per_joule: efficiency applied to training, evaluation, and
            inference FLOPs, in FLOP/J.
    """

    __slots__ = __match_args__ = ("preprocessing_power", "preprocessing_flops_per_s",
                                  "flops_per_joule")

    def __init__(self, preprocessing_power: float, preprocessing_flops_per_s: float,
                 flops_per_joule: float) -> None:
        object.__setattr__(self, "preprocessing_power", _checked_real(
            preprocessing_power, "preprocessing_power", positive=True))
        object.__setattr__(self, "preprocessing_flops_per_s", _checked_real(
            preprocessing_flops_per_s, "preprocessing_flops_per_s", positive=True))
        object.__setattr__(self, "flops_per_joule",
                           _checked_real(flops_per_joule, "flops_per_joule", positive=True))


# The processing unit of a scenario that does not set its own.  Its training
# efficiency is calibrated so that training the default configuration (10
# epochs, 179 training samples, 226-FLOP forward pass) costs 141 times one BLE
# transfer of 256 double-precision samples.
DEFAULT_PROCESSING_UNIT = ProcessingUnitProfile(140.0, 1e10, 1.5351e8)


TrainSplit = namedtuple("TrainSplit", "sample_count train_fraction train_count eval_count")
TrainSplit.__doc__ = """A dataset split into training and evaluation parts.

The training side takes floor(train_fraction * sample_count) samples;
the evaluation side takes the remainder.
"""


def make_split(sample_count: int, train_fraction: float) -> TrainSplit:
    """Split ``sample_count`` samples by ``train_fraction``, flooring the training side."""
    _checked_count(sample_count, "sample_count")
    train_fraction = _checked_real(train_fraction, "train_fraction", positive=True, maximum=1.0)
    train_count = math.floor(train_fraction * sample_count)
    return TrainSplit(sample_count, train_fraction, train_count, sample_count - train_count)


def uniform_architecture(
    inputs: int, hidden_width: int, hidden_layers: int, outputs: int
) -> MlpArchitecture:
    """Architecture with ``hidden_layers`` hidden layers of equal width.

    ``hidden_layers`` is an integer from 0 to 1,000, checked before the widths
    are listed.  A bad width raises the architecture's error on the argument
    that gave it: ``inputs``, ``hidden_width`` or ``outputs``.
    """
    if type(hidden_layers) is not int or not 0 <= hidden_layers <= _MAX_HIDDEN_LAYERS:
        _checked_count(hidden_layers, "hidden_layers", 0, _MAX_HIDDEN_LAYERS)
    try:
        return MlpArchitecture((inputs, *([hidden_width] * hidden_layers), outputs))
    except FieldError as exc:  # on layer_sizes[i], the i-th width listed
        i = int(exc.field[len("layer_sizes["):-1])
        name = "inputs" if i == 0 else "outputs" if i > hidden_layers else "hidden_width"
        raise type(exc)(name, exc.reason) from None


def forward_flops(arch: MlpArchitecture) -> FlopCount:
    """FLOPs of one forward pass of a single sample.

    Sums 2 * (fan_in * width) + 2 * width over every non-input layer.
    """
    return FlopCount(_forward(arch))


def _forward(arch: MlpArchitecture) -> int:
    """:func:`forward_flops` as an int, shown to fit a float."""
    if not isinstance(arch, MlpArchitecture):
        _checked_types((arch, "arch", MlpArchitecture))
    total = 0
    sizes = arch.layer_sizes
    for fan_in, width in zip(sizes, sizes[1:]):
        total += 2 * (fan_in * width) + 2 * width
    return _checked_count(total, "FLOP count")


def training_forward_flops(arch: MlpArchitecture, n_epochs: int, n_train: int) -> FlopCount:
    """Forward-pass FLOPs over a whole training run: epochs * samples * per-pass cost."""
    _checked_count(n_epochs, "n_epochs", 1)
    _checked_count(n_train, "n_train")
    return FlopCount(n_epochs * n_train * _forward(arch))


def training_total_flops(m_forward: FlopCount) -> FlopCount:
    """Total training FLOPs: forward plus a backward pass costed at twice forward."""
    if not isinstance(m_forward, FlopCount):
        _checked_types((m_forward, "m_forward", FlopCount))
    return FlopCount(3 * m_forward.flops)


def training_energy(
    arch: MlpArchitecture,
    n_epochs: int,
    n_train: int,
    pu: ProcessingUnitProfile,
    bits_per_sample: int,
) -> tuple[Energy, EnergyPerBit]:
    """Energy of a whole training run and the per-bit training figure.

    The per-bit figure is the single-sample quantity 3 * forward FLOPs /
    (bits_per_sample * flops_per_joule); it deliberately carries no epoch
    factor.  Reports that want training energy amortized over the trained
    bits divide the absolute energy instead.
    """
    flops = training_total_flops(training_forward_flops(arch, n_epochs, n_train)).flops
    _checked_count(bits_per_sample, "bits_per_sample", 1)
    if not isinstance(pu, ProcessingUnitProfile):
        _checked_types((pu, "pu", ProcessingUnitProfile))
    return (Energy(flops / pu.flops_per_joule),
            EnergyPerBit(3 * _forward(arch) / (bits_per_sample * pu.flops_per_joule)))


def evaluation_energy(
    arch: MlpArchitecture,
    n_eval: int,
    pu: ProcessingUnitProfile,
    bits_per_sample: int,
) -> tuple[Energy, EnergyPerBit]:
    """Energy of evaluating ``n_eval`` samples (forward passes only) and its per-bit cost."""
    _checked_count(n_eval, "n_eval")
    return (inference_energy(arch, n_eval, pu),
            forward_pass_energy_per_bit(arch, pu, bits_per_sample))


def forward_pass_energy_per_bit(
    arch: MlpArchitecture, pu: ProcessingUnitProfile, bits_per_sample: int
) -> EnergyPerBit:
    """Per-bit energy of pushing one sample through the network.

    Shared by evaluation and inference, which differ only in how many
    samples they process.
    """
    _checked_count(bits_per_sample, "bits_per_sample", 1)
    if not isinstance(pu, ProcessingUnitProfile):
        _checked_types((pu, "pu", ProcessingUnitProfile))
    return EnergyPerBit(_forward(arch) / (bits_per_sample * pu.flops_per_joule))


def inference_flops(arch: MlpArchitecture, n_infer: int) -> FlopCount:
    """FLOPs of one inference request carrying ``n_infer`` input samples."""
    _checked_count(n_infer, "n_infer")
    return FlopCount(_forward(arch) * n_infer)


def inference_energy(arch: MlpArchitecture, n_infer: int, pu: ProcessingUnitProfile) -> Energy:
    """Energy of one inference request carrying ``n_infer`` input samples."""
    flops = inference_flops(arch, n_infer).flops
    if not isinstance(pu, ProcessingUnitProfile):
        _checked_types((pu, "pu", ProcessingUnitProfile))
    return Energy(flops / pu.flops_per_joule)
