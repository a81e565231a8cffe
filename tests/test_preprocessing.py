import math
import statistics

import pytest
from hypothesis import assume, given, strategies as st

from ecal.mlp_cost import DEFAULT_PROCESSING_UNIT, ProcessingUnitProfile
from ecal.preprocessing import (
    RawDataset,
    StandardizationMethod,
    clean,
    minmax_scale,
    normalize,
    preprocessing_energy,
    preprocessing_energy_per_bit,
    preprocessing_flops,
)
from ecal.transmission import PayloadSpec
from ecal.units import FieldError, FieldTypeError, FlopCount

MINMAX = StandardizationMethod.MINMAX
NORMALIZATION = StandardizationMethod.NORMALIZATION


# --- cleaning ---------------------------------------------------------------

def test_clean_filters_invalid_samples_in_order():
    valid, flops = clean(RawDataset((1.0, math.nan, 2.0)))
    assert valid == [1.0, 2.0]
    assert flops.flops == 0


@pytest.mark.parametrize("samples, error, message", [
    (5, FieldTypeError, "samples must be a sequence, got int"),
    (["x"], FieldTypeError, "samples[0] must be a real number, got str"),
    ((1.0, True), FieldTypeError, "samples[1] must be a real number, got bool"),
    ((1.0, 10**400), FieldError, "samples[1] too large for floating-point arithmetic "
                                 "(1329-bit integer)"),
], ids=["int", "str", "bool", "huge"])
def test_raw_dataset_names_a_bad_sample(samples, error, message):
    with pytest.raises(error) as caught:
        RawDataset(samples)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_raw_dataset_keeps_non_finite_samples_as_invalid_markers():
    data = RawDataset([2, -1.5, math.nan, math.inf, -math.inf])
    assert data.samples[:2] == (2.0, -1.5)
    assert type(data.samples[0]) is float
    assert (data.sample_count, data.invalid_count) == (5, 3)


def test_clean_empty_dataset():
    valid, flops = clean(RawDataset(()))
    assert valid == []
    assert flops.flops == 0


def test_clean_costs_zero_flops_for_any_size():
    data = RawDataset(tuple(float(i) for i in range(256)))
    valid, flops = clean(data)
    assert len(valid) == 256
    assert flops.flops == 0


def test_clean_treats_any_non_finite_as_invalid():
    data = RawDataset((1.0, math.inf, -math.inf, math.nan, 2.0))
    valid, _ = clean(data)
    assert valid == [1.0, 2.0]
    assert data.invalid_count == 3
    assert data.sample_count == 5


# --- min-max scaling ---------------------------------------------------------

def test_minmax_scale_maps_endpoints_and_midpoint():
    scaled, _ = minmax_scale([2.0, 4.0, 6.0])
    assert scaled == [0.0, 0.5, 1.0]
    # A repeated minimum keeps its first copy, as the sign of a zero shows.
    for xs, expected in (([0.0, -0.0, 2.0, -0.0], "0.0 -0.0 1.0 -0.0"),
                         ([-0.0, 0.0, -0.0, 2.0], "0.0 0.0 0.0 1.0")):
        assert " ".join(map(repr, minmax_scale(xs)[0])) == expected


def _rejection(transform, valid):
    """The field and the reason of the FieldError that ``transform(valid)`` raises."""
    with pytest.raises(FieldError) as caught:
        transform(valid)
    return caught.value.field, caught.value.reason


def test_minmax_scale_degenerate_range():
    # A range of zero, or one beyond the float range, scales to no finite sample.
    for valid, reason in (
            ([5.0], "must span a non-zero, finite range, got 5.0 to 5.0"),
            ([3.0] * 10, "must span a non-zero, finite range, got 3.0 to 3.0"),
            ([-1e308, 1e308], "must span a non-zero, finite range, got -1e+308 to 1e+308"),
            ([], "must hold 1 or more samples, got 0")):
        assert _rejection(minmax_scale, valid) == ("valid", reason)


@pytest.mark.parametrize("transform", [minmax_scale, normalize])
@pytest.mark.parametrize("valid, field, reason", [
    ([1.0, math.inf], "valid[1]", "must be finite, got inf"),
    ([1.0, math.nan], "valid[1]", "must be finite, got nan"),
    ([-math.inf, 1.0, 2.0], "valid[0]", "must be finite, got -inf"),
    ([math.nan, 0.0, 0.0, 2.0], "valid[0]", "must be finite, got nan"),
], ids=["inf", "nan", "-inf first", "nan first"])
def test_a_transform_rejects_a_non_finite_sample(transform, valid, field, reason):
    # Only RawDataset marks an invalid sample with one; clean drops them.
    assert _rejection(transform, valid) == (field, reason)


def test_minmax_ledger_matches_closed_form_up_to_fixed_constant():
    # The literal loop performs one range subtraction plus two operations per
    # valid sample; the closed form is 2v - 1, so the offset is exactly 2.
    scaled, ledger = minmax_scale([float(i) for i in range(256)])
    assert len(scaled) == 256
    assert ledger.total.flops - preprocessing_flops(MINMAX, 256, 0).flops == 2


def test_minmax_ledger_offset_constant_and_slope_two():
    previous = None
    for n in range(2, 1001):
        _, ledger = minmax_scale([float(i) for i in range(n)])
        offset = ledger.total.flops - preprocessing_flops(MINMAX, n, 0).flops
        assert offset == 2
        if previous is not None:
            assert ledger.total.flops - previous == 2
        previous = ledger.total.flops


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
def test_minmax_outputs_in_unit_interval(xs):
    assume(max(xs) > min(xs))
    scaled, _ = minmax_scale(xs)
    assert all(0.0 <= y <= 1.0 for y in scaled)


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=50),
    st.floats(min_value=0.5, max_value=8.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_minmax_invariant_under_positive_affine_input_maps(xs, scale, shift):
    assume(max(xs) - min(xs) > 1e-6)
    base, _ = minmax_scale(xs)
    transformed, _ = minmax_scale([scale * x + shift for x in xs])
    assert transformed == pytest.approx(base, abs=1e-9)


# --- normalization -----------------------------------------------------------

def test_normalize_three_sample_example():
    # Hand oracle: mean 2, population std sqrt(2/3).
    normalized, _ = normalize([1.0, 2.0, 3.0])
    expected = 1.0 / math.sqrt(2.0 / 3.0)
    assert normalized == pytest.approx([-expected, 0.0, expected], abs=1e-9)
    assert normalized == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)


def test_normalize_degenerate_inputs():
    # A deviation of zero, or one (or a sum) beyond the float range, normalizes to
    # no finite sample.
    for valid, reason in (
            ([4.0, 4.0, 4.0], "must have a non-zero, finite standard deviation, got 0.0"),
            ([1e200, -1e200], "must have a non-zero, finite standard deviation, got inf"),
            ([1e308, 1e308], "must have a non-zero, finite standard deviation, got inf"),
            ([1.0], "must hold 2 or more samples, got 1"),
            ([], "must hold 2 or more samples, got 0")):
        assert _rejection(normalize, valid) == ("valid", reason)


def test_normalize_ledger_matches_closed_form_up_to_fixed_constant():
    # Literal passes cost 6v + 3; the closed form is 6v - 3, offset exactly 6.
    normalized, ledger = normalize([float(i) for i in range(256)])
    assert len(normalized) == 256
    assert ledger.total.flops - preprocessing_flops(NORMALIZATION, 256, 0).flops == 6


def test_normalize_ledger_offset_constant_and_slope_six():
    previous = None
    for n in range(2, 1001):
        _, ledger = normalize([float(i) for i in range(n)])
        offset = ledger.total.flops - preprocessing_flops(NORMALIZATION, n, 0).flops
        assert offset == 6
        if previous is not None:
            assert ledger.total.flops - previous == 6
        previous = ledger.total.flops


def test_ledger_total_equals_sum_of_categories():
    _, ledger = normalize([1.0, 2.0, 4.0, 8.0])
    assert ledger.total.flops == (
        ledger.additions
        + ledger.subtractions
        + ledger.multiplications
        + ledger.divisions
        + ledger.square_roots
    )
    assert ledger.square_roots == 1


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=300))
def test_normalize_output_has_zero_mean_unit_deviation(xs):
    spread = max(xs) - min(xs)
    assume(statistics.pstdev(xs) > max(1.0, max(abs(x) for x in xs)) / 1e4)
    normalized, _ = normalize(xs)
    assert abs(statistics.fmean(normalized)) < 1e-9
    assert abs(statistics.pstdev(normalized) - 1.0) < 1e-9


# --- closed-form counts -------------------------------------------------------

def test_closed_form_counts_for_reference_dataset():
    assert preprocessing_flops(MINMAX, 256, 0).flops == 511
    assert preprocessing_flops(NORMALIZATION, 256, 0).flops == 1533
    assert preprocessing_flops(MINMAX, 1, 0).flops == 1


def test_closed_form_slopes_per_valid_sample():
    for n in range(1, 1000):
        assert (
            preprocessing_flops(MINMAX, n + 1, 0).flops
            - preprocessing_flops(MINMAX, n, 0).flops
            == 2
        )
        assert (
            preprocessing_flops(NORMALIZATION, n + 1, 0).flops
            - preprocessing_flops(NORMALIZATION, n, 0).flops
            == 6
        )


@given(
    st.sampled_from([MINMAX, NORMALIZATION]),
    st.integers(min_value=2, max_value=2000),
    st.integers(min_value=0, max_value=500),
)
def test_flops_strictly_decreasing_in_invalid_count(method, n_s, n_nan):
    assume(n_nan + 1 < n_s)
    more_invalid = preprocessing_flops(method, n_s, n_nan + 1).flops
    fewer_invalid = preprocessing_flops(method, n_s, n_nan).flops
    assert more_invalid < fewer_invalid


def test_flops_ratio_normalization_to_minmax_is_three_exactly():
    # (6v - 3) == 3 * (2v - 1) holds in integer arithmetic for every size.
    for n in range(1, 1001):
        assert (
            preprocessing_flops(NORMALIZATION, n, 0).flops
            == 3 * preprocessing_flops(MINMAX, n, 0).flops
        )


def test_flops_precondition_violations():
    # At least one sample must be valid: n_s at least 1, n_nan at most n_s - 1.
    for method, n_s, n_nan, message in (
            (MINMAX, 5, 5, "n_nan must be in [0, 4], got 5"),
            (MINMAX, 5, 6, "n_nan must be in [0, 4], got 6"),
            (MINMAX, 5, 303, "n_nan must be in [0, 4], got 303"),
            (MINMAX, 5, -1, "n_nan must be in [0, 4], got -1"),
            (NORMALIZATION, 0, 0, "n_s must be >= 1, got 0"),
            (MINMAX, -1, 0, "n_s must be >= 1, got -1")):
        with pytest.raises(FieldError) as caught:
            preprocessing_flops(method, n_s, n_nan)
        assert str(caught.value) == message


def test_an_unknown_method_name_is_a_lookup_error():
    assert StandardizationMethod("minmax") is MINMAX
    for name in ("x", 5, None):
        with pytest.raises(LookupError) as caught:
            StandardizationMethod(name)
        assert str(caught.value) == (f"unknown preprocessing method {name!r}; "
                                     "known: minmax, normalization")


# --- energy -------------------------------------------------------------------

def test_preprocessing_energy_reference_cpu():
    # 140 W at 10 GFLOPs/s.
    t_pre, e_pre = preprocessing_energy(DEFAULT_PROCESSING_UNIT, FlopCount(1533))
    assert t_pre == 1.533e-7
    assert e_pre.joules == 2.1462e-5

    t_pre, e_pre = preprocessing_energy(DEFAULT_PROCESSING_UNIT, FlopCount(511))
    assert t_pre == 5.11e-8
    assert e_pre.joules == pytest.approx(7.154e-6, rel=1e-12)


def test_preprocessing_energy_zero_flops():
    t_pre, e_pre = preprocessing_energy(DEFAULT_PROCESSING_UNIT, FlopCount(0))
    assert t_pre == 0.0
    assert e_pre.joules == 0.0


def test_zero_throughput_is_rejected_at_profile_construction():
    with pytest.raises(ValueError):
        ProcessingUnitProfile(140.0, 0.0, 1.5351e8)


def test_energy_per_bit_reference_value():
    _, e_pre = preprocessing_energy(DEFAULT_PROCESSING_UNIT, FlopCount(1533))
    per_bit = preprocessing_energy_per_bit(e_pre, PayloadSpec(64, 256))
    assert per_bit.joules_per_bit == e_pre.joules / 16384
    assert per_bit.joules_per_bit == pytest.approx(1.310e-9, rel=1e-3)


def test_energy_per_bit_zero_energy_and_empty_payload():
    _, zero = preprocessing_energy(DEFAULT_PROCESSING_UNIT, FlopCount(0))
    assert preprocessing_energy_per_bit(zero, PayloadSpec(64, 256)).joules_per_bit == 0.0
    with pytest.raises(FieldError) as caught:
        preprocessing_energy_per_bit(zero, PayloadSpec(64, 0))
    assert str(caught.value) == "spec must hold at least one payload bit, got 0 samples"


def test_per_bit_ratio_normalization_to_minmax():
    # Exactly 3 at the FLOP level; the float energy path may round by an ulp.
    for n in (1, 7, 64, 256, 777, 1000):
        spec = PayloadSpec(64, n)
        _, e_mm = preprocessing_energy(
            DEFAULT_PROCESSING_UNIT, preprocessing_flops(MINMAX, n, 0)
        )
        _, e_no = preprocessing_energy(
            DEFAULT_PROCESSING_UNIT, preprocessing_flops(NORMALIZATION, n, 0)
        )
        ratio = (
            preprocessing_energy_per_bit(e_no, spec).joules_per_bit
            / preprocessing_energy_per_bit(e_mm, spec).joules_per_bit
        )
        assert math.isclose(ratio, 3.0, rel_tol=1e-15, abs_tol=0.0)
