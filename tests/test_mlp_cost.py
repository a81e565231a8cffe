import math
import random

import pytest

from ecal.mlp_cost import (
    DEFAULT_PROCESSING_UNIT,
    MlpArchitecture,
    ProcessingUnitProfile,
    evaluation_energy,
    forward_flops,
    forward_pass_energy_per_bit,
    inference_energy,
    inference_flops,
    make_split,
    training_energy,
    training_forward_flops,
    training_total_flops,
    uniform_architecture,
)
from ecal.transmission import BLE5, PayloadSpec, transmission_energy, transmitted_bits
from ecal.units import FieldError, FieldTypeError, FlopCount

REFERENCE_ARCH = MlpArchitecture((6, 5, 5, 5, 3))


def graph_walk_forward_flops(layer_sizes):
    """Independent oracle: enumerate the network graph edge by edge.

    Each edge costs a multiply and an accumulate; each non-input node costs
    a bias add and an activation.
    """
    total = 0
    for fan_in, width in zip(layer_sizes, layer_sizes[1:]):
        for _ in range(fan_in):
            for _ in range(width):
                total += 2
        for _ in range(width):
            total += 2
    return total


def test_forward_flops_reference_architecture():
    assert graph_walk_forward_flops((6, 5, 5, 5, 3)) == 226
    assert forward_flops(REFERENCE_ARCH).flops == 226


def test_forward_flops_minimal_network():
    assert forward_flops(MlpArchitecture((1, 1))).flops == 4


def test_forward_flops_equals_graph_walk_oracle_on_random_architectures():
    rng = random.Random(0x5EED)
    for _ in range(200):
        depth = rng.randint(2, 6)
        sizes = tuple(rng.randint(1, 32) for _ in range(depth))
        arch = MlpArchitecture(sizes)
        assert forward_flops(arch).flops == graph_walk_forward_flops(sizes)


def test_forward_flops_quadratic_in_hidden_width():
    # Second finite difference over the width is the constant 4*(K-1) > 0
    # for at least two hidden layers.
    for hidden in (2, 3, 5):
        counts = [
            forward_flops(uniform_architecture(6, m, hidden, 3)).flops for m in range(1, 12)
        ]
        second_diff = {
            counts[i + 2] - 2 * counts[i + 1] + counts[i] for i in range(len(counts) - 2)
        }
        assert second_diff == {4 * (hidden - 1)}


def test_forward_flops_growth_in_depth():
    # Each added hidden layer adds 2*M*(M+1) FLOPs: constant in depth,
    # quadratic in the width.
    for width in (1, 4, 8):
        counts = [
            forward_flops(uniform_architecture(6, width, k, 3)).flops for k in range(1, 7)
        ]
        steps = {b - a for a, b in zip(counts, counts[1:])}
        assert steps == {2 * width * (width + 1)}


def test_uniform_architecture_caps_its_hidden_layers():
    # Past the cap the widths are not listed: 10**9 layers would exhaust memory.
    # tests/test_package.py calls it with 10**9 in a memory-capped child.
    assert len(uniform_architecture(6, 5, 1000, 3).layer_sizes) == 1002
    with pytest.raises(FieldError) as caught:
        uniform_architecture(6, 5, 1001, 3)
    assert str(caught.value) == "hidden_layers must be in [0, 1000], got 1001"


@pytest.mark.parametrize("args, error, message", [
    ((0, 5, 3, 3), FieldError, "inputs must be >= 1, got 0"),
    ((6, 0, 3, 3), FieldError, "hidden_width must be >= 1, got 0"),
    ((6, 2.5, 1, 3), FieldTypeError, "hidden_width must be an integer, got float"),
    ((6, 5, 3, 0), FieldError, "outputs must be >= 1, got 0"),
    ((6, 5, 0, "3"), FieldTypeError, "outputs must be an integer, got str"),
])
def test_uniform_architecture_names_the_argument_of_a_bad_width(args, error, message):
    # The architecture it builds names the width by its place, layer_sizes[i].
    with pytest.raises(error) as caught:
        uniform_architecture(*args)
    assert type(caught.value) is error
    assert caught.value.field == message.split()[0]
    assert str(caught.value) == message


def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture((5,))
    with pytest.raises(ValueError):
        MlpArchitecture((5, 0, 3))
    with pytest.raises(TypeError):
        MlpArchitecture((5, 2.5, 3))  # type: ignore[arg-type]
    # Each width is checked before the layer count.
    with pytest.raises(FieldError) as caught:
        MlpArchitecture((0,))
    assert str(caught.value) == "layer_sizes[0] must be >= 1, got 0"


def test_architecture_needs_a_sequence_of_widths():
    with pytest.raises(FieldTypeError) as caught:
        MlpArchitecture(5)  # type: ignore[arg-type]
    assert str(caught.value) == "layer_sizes must be a sequence, got int"


def test_make_split_published_example():
    split = make_split(256, 0.7)
    assert (split.train_count, split.eval_count) == (179, 77)


def test_make_split_edge_cases():
    assert make_split(256, 1.0).train_count == 256
    assert make_split(256, 1.0).eval_count == 0
    assert (make_split(10, 0.75).train_count, make_split(10, 0.75).eval_count) == (7, 3)
    assert make_split(0, 0.5).train_count == 0


def test_make_split_rejects_bad_fraction():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            make_split(256, bad)
    with pytest.raises(ValueError):
        make_split(-1, 0.5)


def test_training_forward_flops_published_example():
    assert training_forward_flops(REFERENCE_ARCH, 10, 256).flops == 578560
    assert training_forward_flops(REFERENCE_ARCH, 10, 179).flops == 404540
    assert (
        training_forward_flops(REFERENCE_ARCH, 1, 1).flops
        == forward_flops(REFERENCE_ARCH).flops
    )


def test_training_forward_flops_linear_in_epochs_and_samples():
    f = lambda e, n: training_forward_flops(REFERENCE_ARCH, e, n).flops
    for a, b in ((1, 9), (3, 17), (25, 75)):
        assert f(a + b, 50) == f(a, 50) + f(b, 50)
        assert f(7, a + b) == f(7, a) + f(7, b)


def test_training_forward_flops_requires_positive_epochs():
    with pytest.raises(ValueError):
        training_forward_flops(REFERENCE_ARCH, 0, 10)


def test_training_total_is_exactly_three_forward():
    assert training_total_flops(FlopCount(578560)).flops == 1735680
    assert training_total_flops(FlopCount(0)).flops == 0
    assert training_total_flops(FlopCount(404540)).flops == 1213620
    for n in (1, 3, 226, 10**9):
        assert training_total_flops(FlopCount(n)).flops == 3 * n


def test_training_energy_definitional_identity():
    pu = DEFAULT_PROCESSING_UNIT
    e_train, _ = training_energy(REFERENCE_ARCH, 10, 179, pu, 64)
    m_fwd = training_forward_flops(REFERENCE_ARCH, 10, 179)
    assert e_train.joules == training_total_flops(m_fwd).flops / pu.flops_per_joule


def test_training_energy_calibration_against_collection():
    # With the default efficiency, one training run of the reference scenario
    # costs 141x collecting its 256-sample dataset over BLE (within 1).
    pu = DEFAULT_PROCESSING_UNIT
    e_train, _ = training_energy(REFERENCE_ARCH, 10, 179, pu, 64)
    assert e_train.joules == pytest.approx(7.906e-3, rel=1e-3)
    e_collect = transmission_energy(BLE5, transmitted_bits(BLE5, PayloadSpec(64, 256)))
    ratio = e_train.joules / e_collect.joules
    assert abs(ratio - 141.0) <= 1.0


def test_training_to_inference_ratio():
    # 3 * epochs * train_count / inference_batch = 5370/77 = 69.74, within
    # 5% of the published 71x figure.
    pu = DEFAULT_PROCESSING_UNIT
    e_train, _ = training_energy(REFERENCE_ARCH, 10, 179, pu, 64)
    e_inf = inference_energy(REFERENCE_ARCH, 77, pu)
    ratio = e_train.joules / e_inf.joules
    assert ratio == pytest.approx(3 * 10 * 179 / 77, rel=1e-12)
    assert abs(ratio - 71.0) / 71.0 < 0.05


def test_evaluation_energy_reference_value():
    pu = DEFAULT_PROCESSING_UNIT
    e_eval, _ = evaluation_energy(REFERENCE_ARCH, 77, pu, 64)
    assert e_eval.joules == 226 * 77 / pu.flops_per_joule
    assert e_eval.joules == pytest.approx(1.134e-4, rel=1e-3)
    assert evaluation_energy(REFERENCE_ARCH, 0, pu, 64)[0].joules == 0.0


def test_evaluation_and_inference_share_per_bit_cost():
    pu = DEFAULT_PROCESSING_UNIT
    _, e_eval_b = evaluation_energy(REFERENCE_ARCH, 77, pu, 64)
    assert e_eval_b == forward_pass_energy_per_bit(REFERENCE_ARCH, pu, 64)
    # The absolute energies also agree whenever the sample counts do.
    e_eval, _ = evaluation_energy(REFERENCE_ARCH, 77, pu, 64)
    assert e_eval.joules == inference_energy(REFERENCE_ARCH, 77, pu).joules


def test_inference_flops_published_example():
    assert inference_flops(REFERENCE_ARCH, 77).flops == 17402
    assert inference_flops(REFERENCE_ARCH, 0).flops == 0


def test_inference_energy_values():
    pu = DEFAULT_PROCESSING_UNIT
    assert inference_energy(REFERENCE_ARCH, 0, pu).joules == 0.0
    assert inference_energy(REFERENCE_ARCH, 77, pu).joules == 17402 / pu.flops_per_joule
    assert inference_energy(REFERENCE_ARCH, 77, pu).joules == pytest.approx(1.134e-4, rel=1e-3)


def test_training_per_bit_is_three_forward_passes_per_bit():
    pu = DEFAULT_PROCESSING_UNIT
    _, e_train_b = training_energy(REFERENCE_ARCH, 10, 179, pu, 64)
    single = forward_pass_energy_per_bit(REFERENCE_ARCH, pu, 64)
    assert e_train_b.joules_per_bit == pytest.approx(3 * single.joules_per_bit, rel=1e-15)


@pytest.mark.parametrize("flops_per_s, flops_per_joule",
                         [(math.inf, 1e8), (1e10, math.inf), (math.nan, 1e8), (1e10, 0.0)])
def test_processing_unit_rates_must_be_positive_and_finite(flops_per_s, flops_per_joule):
    with pytest.raises(ValueError, match="positive and finite"):
        ProcessingUnitProfile(140.0, flops_per_s, flops_per_joule)
