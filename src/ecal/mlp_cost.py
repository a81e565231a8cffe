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
from .units import Energy, EnergyPerBit, FieldError, FlopCount, Power
from .units import _checked_count, _checked_items, _checked_real, _Value

__all__ = _all_of(__name__)

# Training efficiency used when a scenario does not set its own value,
# calibrated so that training the default configuration (10 epochs, 179
# training samples, 226-FLOP forward pass) costs 141 times one BLE transfer
# of 256 double-precision samples.
DEFAULT_FLOPS_PER_JOULE = 1.5351e8


class MlpArchitecture(_Value):
    """Layer widths of a fully connected MLP, input layer first."""

    __slots__ = __match_args__ = ("layer_sizes",)

    def __init__(self, layer_sizes: tuple[int, ...]) -> None:
        sizes = _checked_items(layer_sizes, "layer_sizes")
        if len(sizes) < 2:
            raise FieldError("layer_sizes", "must list at least an input and an output "
                                            f"layer, got {len(sizes)} layer(s)")
        for index, width in enumerate(sizes):
            _checked_count(width, f"layer_sizes[{index}]", 1)
        object.__setattr__(self, "layer_sizes", sizes)


class ProcessingUnitProfile(_Value):
    """Compute-side parameters of the machine running the pipeline.

    Args:
        preprocessing_power: power drawn while preprocessing runs.
        preprocessing_flops_per_s: sustained preprocessing throughput.
        flops_per_joule: efficiency applied to training, evaluation, and
            inference FLOPs.
    """

    __slots__ = __match_args__ = ("preprocessing_power", "preprocessing_flops_per_s",
                                  "flops_per_joule")

    def __init__(self, preprocessing_power: Power, preprocessing_flops_per_s: float,
                 flops_per_joule: float) -> None:
        _checked_real(preprocessing_power.watts, "preprocessing_power", positive=True)
        object.__setattr__(self, "preprocessing_power", preprocessing_power)
        object.__setattr__(self, "preprocessing_flops_per_s", _checked_real(
            preprocessing_flops_per_s, "preprocessing_flops_per_s", positive=True))
        object.__setattr__(self, "flops_per_joule",
                           _checked_real(flops_per_joule, "flops_per_joule", positive=True))


DEFAULT_PROCESSING_UNIT = ProcessingUnitProfile(
    preprocessing_power=Power(140.0),
    preprocessing_flops_per_s=1e10,
    flops_per_joule=DEFAULT_FLOPS_PER_JOULE,
)


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
    """Architecture with ``hidden_layers`` hidden layers of equal width."""
    return MlpArchitecture((inputs, *([hidden_width] * hidden_layers), outputs))


def forward_flops(arch: MlpArchitecture) -> FlopCount:
    """FLOPs of one forward pass of a single sample.

    Sums 2 * (fan_in * width) + 2 * width over every non-input layer.
    """
    return FlopCount(_forward(arch))


def _forward(arch: MlpArchitecture) -> int:
    """:func:`forward_flops` as an int, not yet shown to fit a float."""
    total = 0
    sizes = arch.layer_sizes
    for fan_in, width in zip(sizes, sizes[1:]):
        total += 2 * (fan_in * width) + 2 * width
    return total


def training_forward_flops(arch: MlpArchitecture, n_epochs: int, n_train: int) -> FlopCount:
    """Forward-pass FLOPs over a whole training run: epochs * samples * per-pass cost."""
    _checked_count(n_epochs, "n_epochs", 1)
    _checked_count(n_train, "n_train")
    return FlopCount(n_epochs * n_train * _checked_count(_forward(arch), "FLOP count"))


def training_total_flops(m_forward: FlopCount) -> FlopCount:
    """Total training FLOPs: forward plus a backward pass costed at twice forward."""
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
    _checked_count(n_epochs, "n_epochs", 1)
    _checked_count(n_train, "n_train")
    _checked_count(bits_per_sample, "bits_per_sample", 1)
    fwd = _checked_count(_forward(arch), "FLOP count")
    total = 3 * _checked_count(n_epochs * n_train * fwd, "FLOP count")
    return (Energy(_checked_count(total, "FLOP count") / pu.flops_per_joule),
            EnergyPerBit(3 * fwd / (bits_per_sample * pu.flops_per_joule)))


def evaluation_energy(
    arch: MlpArchitecture,
    n_eval: int,
    pu: ProcessingUnitProfile,
    bits_per_sample: int,
) -> tuple[Energy, EnergyPerBit]:
    """Energy of evaluating ``n_eval`` samples (forward passes only) and its per-bit cost."""
    _checked_count(n_eval, "n_eval")
    _checked_count(bits_per_sample, "bits_per_sample", 1)
    fwd = _checked_count(_forward(arch), "FLOP count")
    return (Energy(_checked_count(fwd * n_eval, "FLOP count") / pu.flops_per_joule),
            EnergyPerBit(fwd / (bits_per_sample * pu.flops_per_joule)))


def forward_pass_energy_per_bit(
    arch: MlpArchitecture, pu: ProcessingUnitProfile, bits_per_sample: int
) -> EnergyPerBit:
    """Per-bit energy of pushing one sample through the network.

    Shared by evaluation and inference, which differ only in how many
    samples they process.
    """
    _checked_count(bits_per_sample, "bits_per_sample", 1)
    fwd = _checked_count(_forward(arch), "FLOP count")
    return EnergyPerBit(fwd / (bits_per_sample * pu.flops_per_joule))


def inference_flops(arch: MlpArchitecture, n_infer: int) -> FlopCount:
    """FLOPs of one inference request carrying ``n_infer`` input samples."""
    _checked_count(n_infer, "n_infer")
    return FlopCount(_checked_count(_forward(arch), "FLOP count") * n_infer)


def inference_energy(arch: MlpArchitecture, n_infer: int, pu: ProcessingUnitProfile) -> Energy:
    """Energy of one inference request carrying ``n_infer`` input samples."""
    _checked_count(n_infer, "n_infer")
    flops = _checked_count(_forward(arch), "FLOP count") * n_infer
    return Energy(_checked_count(flops, "FLOP count") / pu.flops_per_joule)
