import copy
import math
import pickle
import sys
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from ecal import lifecycle
from ecal.carbon import CarbonReportRow, bundled_ci_table, carbon_footprint, cf_vs_gamma
from ecal.lifecycle import (
    GammaRow,
    LifecycleReport,
    Scenario,
    _PRICED,
    _TERMS,
    _at,
    _price,
    default_scenario,
    development_energy,
    ecal,
    ecal_abs,
    ecal_abs_mean,
    gamma_sweep,
    inference_phase_energy,
    lifecycle_report,
)
from ecal.mlp_cost import DEFAULT_PROCESSING_UNIT, MlpArchitecture, ProcessingUnitProfile
from ecal.mlp_cost import evaluation_energy, forward_flops, forward_pass_energy_per_bit
from ecal.mlp_cost import inference_energy, inference_flops, make_split, training_energy
from ecal.mlp_cost import training_forward_flops, training_total_flops
from ecal.preprocessing import StandardizationMethod, preprocessing_energy
from ecal.preprocessing import preprocessing_energy_per_bit, preprocessing_flops
from ecal.storage import BUILTIN_STORAGE, SSD, StorageProfile, storage_energy
from ecal.transmission import BUILTIN_TECHNOLOGIES, PayloadSpec, TechnologyProfile, ZIGBEE
from ecal.transmission import cumulative_transmission_energy, payload_bits
from ecal.transmission import transmission_energy, transmitted_bits
from ecal.units import JOULES_PER_KWH, BitCount, BitRate, Energy, EnergyPerBit, FieldError
from ecal.units import FieldTypeError, Power, _checked_count
from test_units import beyond_float


def spreadsheet_oracle(
    alpha,
    n_s,
    n_nan,
    f_u,
    omega_u,
    packets_override,
    p_t_w,
    r_t_bps,
    wh_per_tb,
    method,
    beta,
    epochs,
    layers,
    n_ip,
    inf_nan,
    gamma,
    p_pre_w,
    m_pu,
    fpj,
):
    """Recompute every lifecycle term from raw formulas with plain floats."""

    def collection(n, invalid):
        payload = alpha * n
        packets = packets_override if packets_override else math.ceil(payload / f_u)
        b_t = payload + packets * omega_u
        e_t = (p_t_w / r_t_bps) * b_t
        e_sto = wh_per_tb * 3600.0 / 8e12 * payload
        valid = n - invalid
        flops = 2 * valid - 1 if method == "minmax" else 6 * valid - 3
        e_pre = p_pre_w * flops / m_pu
        return b_t, e_t, e_sto, e_pre

    fwd = sum(2 * a * b + 2 * b for a, b in zip(layers, layers[1:]))
    n_t = math.floor(beta * n_s)
    n_e = n_s - n_t
    b_t, e_t, e_sto, e_pre = collection(n_s, n_nan)
    e_train = 3 * epochs * n_t * fwd / fpj
    e_eval = fwd * n_e / fpj
    e_d = e_t + e_sto + e_pre + e_train + e_eval
    dev_bits = b_t + alpha * (2 * n_s + n_t + n_e)

    b_t_inf, e_t_i, e_sto_i, e_pre_i = collection(n_ip, inf_nan)
    e_inf = fwd * n_ip / fpj
    e_inf_p = e_t_i + e_sto_i + e_pre_i + e_inf
    inf_bits = b_t_inf + 3 * alpha * n_ip

    return {
        "e_t": e_t,
        "e_storage": e_sto,
        "e_pre": e_pre,
        "e_train": e_train,
        "e_train_b": 3 * fwd / (alpha * fpj),
        "e_train_trained_b": e_train / (alpha * n_t) if n_t else 0.0,
        "e_eval": e_eval,
        "e_d": e_d,
        "e_d_b": e_d / dev_bits,
        "b_t": b_t,
        "dev_bits": dev_bits,
        "e_t_inf": e_t_i,
        "e_storage_inf": e_sto_i,
        "e_pre_inf": e_pre_i,
        "e_inf": e_inf,
        "e_inf_p": e_inf_p,
        "e_inf_p_b": e_inf_p / inf_bits,
        "b_t_inf": b_t_inf,
        "inf_bits": inf_bits,
        "ecal_abs": e_d + gamma * e_inf_p,
        "ecal_abs_mean": (e_d + gamma * e_inf_p) / gamma,
        "ecal": (e_d + gamma * e_inf_p) / (dev_bits + gamma * inf_bits),
    }


DEFAULT_ORACLE = spreadsheet_oracle(
    alpha=64, n_s=256, n_nan=0,
    f_u=2120, omega_u=168, packets_override=None, p_t_w=3.1628e-3, r_t_bps=1e6,
    wh_per_tb=0.65, method="normalization", beta=0.7, epochs=10,
    layers=(6, 5, 5, 5, 3), n_ip=77, inf_nan=0, gamma=1000,
    p_pre_w=140.0, m_pu=1e10, fpj=1.5351e8,
)


def approx(value):
    return pytest.approx(value, rel=1e-12)


def test_development_components_match_oracle():
    report = lifecycle_report(default_scenario())
    assert report.transmission.joules == approx(DEFAULT_ORACLE["e_t"])
    assert report.storage.joules == approx(DEFAULT_ORACLE["e_storage"])
    assert report.preprocessing.joules == approx(DEFAULT_ORACLE["e_pre"])
    assert report.training.joules == approx(DEFAULT_ORACLE["e_train"])
    assert report.evaluation.joules == approx(DEFAULT_ORACLE["e_eval"])
    assert report.development.joules == approx(DEFAULT_ORACLE["e_d"])


def test_inference_phase_components_match_oracle():
    report = lifecycle_report(default_scenario())
    assert report.inference.joules == approx(DEFAULT_ORACLE["e_inf"])
    assert report.inference_phase.joules == approx(DEFAULT_ORACLE["e_inf_p"])
    assert report.transmitted_bits_inference.bits == DEFAULT_ORACLE["b_t_inf"]


def test_oracle_agreement_on_scenario_variants():
    variant = replace(
        default_scenario(),
        technology=ZIGBEE,
        storage=SSD,
        standardization=StandardizationMethod.MINMAX,
        train_fraction=0.8,
        epochs=25,
        invalid_samples=16,
        inference_batch=31,
        gamma=500,
        architecture=MlpArchitecture((4, 9, 9, 2)),
        processing_unit=ProcessingUnitProfile(Power(95.0), 2.5e9, 4.2e7),
    )
    expected = spreadsheet_oracle(
        alpha=64, n_s=256, n_nan=16,
        f_u=1288, omega_u=272, packets_override=None, p_t_w=10e-3, r_t_bps=250e3,
        wh_per_tb=1.2, method="minmax", beta=0.8, epochs=25,
        layers=(4, 9, 9, 2), n_ip=31, inf_nan=0, gamma=500,
        p_pre_w=95.0, m_pu=2.5e9, fpj=4.2e7,
    )
    report = lifecycle_report(variant)
    assert report.transmission.joules == approx(expected["e_t"])
    assert report.storage.joules == approx(expected["e_storage"])
    assert report.preprocessing.joules == approx(expected["e_pre"])
    assert report.training.joules == approx(expected["e_train"])
    assert report.evaluation.joules == approx(expected["e_eval"])
    assert report.inference_phase.joules == approx(expected["e_inf_p"])
    assert report.ecal_abs.joules == approx(expected["ecal_abs"])
    assert report.ecal.joules_per_bit == approx(expected["ecal"])
    assert report.development_denominator_bits.bits == expected["dev_bits"]
    assert report.inference_denominator_bits.bits == expected["inf_bits"]


def test_development_bit_denominator():
    s = default_scenario()
    report = lifecycle_report(s)
    assert report.transmitted_bits_development.bits == 17728
    # 17728 + 64 * (2*256 + 179 + 77)
    assert report.development_denominator_bits.bits == 66880


def test_inference_bit_denominator():
    report = lifecycle_report(default_scenario())
    # 77 double samples: 4928 payload bits, 3 BLE packets, 5432 on the air.
    assert report.transmitted_bits_inference.bits == 5432
    assert report.inference_denominator_bits.bits == 5432 + 3 * 64 * 77
    assert report.inference_denominator_bits.bits == 20216


def test_development_energy_frozen_values():
    e_d, e_d_b = development_energy(default_scenario())
    assert e_d.joules == approx(8.101489313652427e-3)
    assert e_d_b.joules_per_bit == approx(1.2113470863714753e-7)


def test_inference_phase_energy_frozen_values():
    e_p, e_p_b = inference_phase_energy(default_scenario())
    assert e_p.joules == approx(1.3840846271445507e-4)
    assert e_p_b.joules_per_bit == approx(6.84648113941705e-9)


def test_inference_phase_with_full_dataset_reuses_development_collection_cost():
    s = replace(default_scenario(), inference_batch=256)
    report = lifecycle_report(s)
    dev = lifecycle_report(default_scenario())
    # Same payload, same profile: identical transmitted bits and, since the
    # phase total sums the identical collection terms in the same order,
    # an exact reconstruction from the development components.
    assert report.transmitted_bits_inference == dev.transmitted_bits_development
    expected_total = (
        dev.transmission.joules + dev.storage.joules + dev.preprocessing.joules
        + report.inference.joules
    )
    assert report.inference_phase.joules == expected_total


def test_empty_scenario_is_rejected():
    s = replace(default_scenario(), payload=PayloadSpec(64, 0))
    with pytest.raises(ValueError):
        development_energy(s)


def test_scenario_validation():
    s = default_scenario()
    with pytest.raises(ValueError):
        replace(s, gamma=0)
    with pytest.raises(ValueError):
        replace(s, inference_batch=0)
    with pytest.raises(ValueError):
        replace(s, train_fraction=1.5)
    with pytest.raises(ValueError):
        replace(s, invalid_samples=257)
    with pytest.raises(ValueError):
        replace(s, epochs=0)
    with pytest.raises(ValueError, match=r"^countries\[0\] must be a two-letter country code, "
                                         r"got 'DEU'$"):
        replace(s, countries=("DEU",))
    with pytest.raises(TypeError, match=r"^countries\[0\] must be a two-letter country code, "
                                        r"got 5$"):
        replace(s, countries=(5,))
    assert replace(s, countries=("fi", "De")).countries == ("FI", "DE")
    with pytest.raises(ValueError, match=r"^countries\[1\] must be .* got 'ßa'$"):
        replace(s, countries=("DE", "ßa"))  # not ASCII, and would upper-case to "SSA"


def test_a_repeated_country_is_rejected_at_its_second_occurrence():
    s = default_scenario()
    for countries, field, code in ((("de", "DE"), "countries[1]", "DE"),
                                   (("FI", "ES", "fi"), "countries[2]", "FI")):
        with pytest.raises(FieldError) as caught:
            replace(s, countries=countries)
        assert (caught.value.field, caught.value.reason) == (field, f"repeats {code!r}")
        assert type(caught.value) is FieldError


def test_ecal_abs_is_the_affine_combination_of_published_components():
    s = default_scenario()
    e_d, _ = development_energy(s)
    e_p, _ = inference_phase_energy(s)
    for gamma in (1, 2, 7, 100, 999, 10**4, 10**6):
        # Identical arithmetic path: e_d + gamma * e_inf_p, nothing else.
        assert ecal_abs(replace(s, gamma=gamma)).joules == e_d.joules + gamma * e_p.joules


def test_ecal_abs_affinity_finite_difference():
    s = default_scenario()
    e_p = inference_phase_energy(s)[0].joules
    for gamma in (1, 2, 10, 100, 1000, 10**4):
        high = ecal_abs(replace(s, gamma=gamma + 1)).joules
        low = ecal_abs(replace(s, gamma=gamma)).joules
        # Exact in real arithmetic; the float difference cancels to within a
        # few ulp of the larger operand.
        assert abs((high - low) - e_p) <= 4 * math.ulp(high)


def test_ecal_abs_gamma_1000_vs_100():
    s = default_scenario()
    e_p = inference_phase_energy(s)[0].joules
    diff = ecal_abs(replace(s, gamma=1000)).joules - ecal_abs(replace(s, gamma=100)).joules
    assert diff == pytest.approx(900 * e_p, rel=1e-12)


def test_ecal_abs_mean_simple_cases():
    s = default_scenario()
    one = replace(s, gamma=1)
    assert ecal_abs_mean(one).joules == ecal_abs(one).joules
    two = replace(s, gamma=2)
    e_d, _ = development_energy(s)
    e_p, _ = inference_phase_energy(s)
    assert ecal_abs_mean(two).joules == (e_d.joules + 2 * e_p.joules) / 2


def test_ecal_abs_mean_strictly_decreasing_with_floor():
    s = default_scenario()
    e_p = inference_phase_energy(s)[0].joules
    means = [ecal_abs_mean(replace(s, gamma=g)).joules for g in (1, 2, 5, 10, 100, 10**3, 10**5)]
    assert all(a > b for a, b in zip(means, means[1:]))
    assert all(m > e_p for m in means)


def test_ecal_abs_mean_limit_gap_is_development_over_gamma():
    s = default_scenario()
    e_d = development_energy(s)[0].joules
    e_p = inference_phase_energy(s)[0].joules
    for gamma in (10**3, 10**4, 10**5):
        gap = ecal_abs_mean(replace(s, gamma=gamma)).joules - e_p
        assert gap == pytest.approx(e_d / gamma, rel=1e-9)
    huge = replace(s, gamma=10**6)
    assert abs(ecal_abs_mean(huge).joules - e_p) <= e_d * 1e-6 * (1 + 1e-9)


def test_ecal_frozen_reference_points():
    s = default_scenario()
    assert ecal(replace(s, gamma=100)).joules_per_bit == approx(1.0506366153900413e-8)
    assert ecal(replace(s, gamma=1000)).joules_per_bit == approx(7.223330810422755e-9)


def test_ecal_improvement_ratio_100_to_1000():
    s = default_scenario()
    ratio = (
        ecal(replace(s, gamma=100)).joules_per_bit
        / ecal(replace(s, gamma=1000)).joules_per_bit
    )
    assert ratio == approx(1.454504359504132)
    assert 1.2 <= ratio <= 1.6


def test_the_headline_ratio_is_set_by_two_phase_ratios():
    # eCAL(100) / eCAL(1000) = R(e, b) with e = E_D / E_req and b = B_D / B_req;
    # the abstract's 1.43 needs e = 55.40 at this b, or b = 5.286 at this e.
    def r(e, b):
        return (e + 100) * (b + 1000) / ((b + 100) * (e + 1000))

    s = default_scenario()
    p = _price(s)
    e = p.development / p.request
    b = p.development_bits / p.request_bits
    assert (round(e, 3), round(b, 4)) == (58.533, 3.3083)
    expected = ecal(replace(s, gamma=100)).joules_per_bit / ecal(s).joules_per_bit
    assert r(e, b) == approx(expected)
    assert round(expected, 6) == 1.454504
    k = (b + 1000) / (b + 100)
    e_at_143 = (1430 - 100 * k) / (k - 1.43)
    b_at_143 = (143 * (e + 1000) - 1000 * (e + 100)) / ((e + 100) - 1.43 * (e + 1000))
    assert (round(e_at_143, 2), round(b_at_143, 3)) == (55.40, 5.286)
    assert r(e_at_143, b) == approx(1.43)
    assert r(e, b_at_143) == approx(1.43)


def test_ecal_single_phase_degenerate_reduces_to_total_over_bits():
    s = replace(default_scenario(), gamma=1)
    report = lifecycle_report(s)
    expected = (report.development.joules + report.inference_phase.joules) / (
        report.development_denominator_bits.bits + report.inference_denominator_bits.bits
    )
    assert ecal(s).joules_per_bit == expected


def test_ecal_strictly_decreasing_when_development_dominates():
    s = default_scenario()
    _, e_d_b = development_energy(s)
    _, e_p_b = inference_phase_energy(s)
    assert e_d_b.joules_per_bit > e_p_b.joules_per_bit
    values = [ecal(replace(s, gamma=g)).joules_per_bit for g in (1, 10, 100, 1000, 10**4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ecal_increases_when_request_cost_dominates():
    # A tiny model trained once makes the per-request per-bit cost exceed the
    # development per-bit cost, flipping the trend.
    s = replace(
        default_scenario(),
        standardization=StandardizationMethod.MINMAX,
        epochs=1,
        architecture=MlpArchitecture((1, 1)),
        inference_batch=1,
    )
    _, e_d_b = development_energy(s)
    _, e_p_b = inference_phase_energy(s)
    assert e_p_b.joules_per_bit > e_d_b.joules_per_bit
    values = [ecal(replace(s, gamma=g)).joules_per_bit for g in (1, 10, 100, 1000)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ecal_converges_to_request_per_bit_cost_like_one_over_gamma():
    s = default_scenario()
    _, e_p_b = inference_phase_energy(s)
    errors = {
        gamma: abs(ecal(replace(s, gamma=gamma)).joules_per_bit - e_p_b.joules_per_bit)
        for gamma in (10**3, 10**4, 10**5)
    }
    assert 9.0 < errors[10**3] / errors[10**4] < 11.0
    assert 9.0 < errors[10**4] / errors[10**5] < 11.0


def test_gamma_sweep_matches_point_operations():
    s = default_scenario()
    gammas = [1, 10, 100, 1000]
    rows = gamma_sweep(s, gammas)
    assert [row.gamma for row in rows] == gammas
    for row in rows:
        point = replace(s, gamma=row.gamma)
        assert row.ecal_abs.joules == ecal_abs(point).joules
        assert row.ecal_abs_mean.joules == ecal_abs_mean(point).joules
        assert row.ecal.joules_per_bit == ecal(point).joules_per_bit
    means = [row.ecal_abs_mean.joules for row in rows]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_gamma_sweep_single_point_and_validation():
    s = default_scenario()
    rows = gamma_sweep(s, [42])
    assert len(rows) == 1
    assert rows[0].ecal_abs.joules == ecal_abs(replace(s, gamma=42)).joules
    with pytest.raises(ValueError):
        gamma_sweep(s, [0])
    with pytest.raises(TypeError):
        gamma_sweep(s, [1.5])  # type: ignore[list-item]


def test_report_sum_identity_is_exact():
    report = lifecycle_report(default_scenario())
    recombined = (
        report.transmission.joules
        + report.storage.joules
        + report.preprocessing.joules
        + report.training.joules
        + report.evaluation.joules
    )
    assert report.development.joules == recombined


def test_report_ecal_abs_identity_is_exact():
    report = lifecycle_report(default_scenario())
    assert report.ecal_abs.joules == (
        report.development.joules + report.gamma * report.inference_phase.joules
    )


def test_report_agrees_with_point_operations():
    s = default_scenario()
    report = lifecycle_report(s)
    e_d, e_d_b = development_energy(s)
    e_p, e_p_b = inference_phase_energy(s)
    assert report.development.joules == e_d.joules
    assert report.development_per_bit.joules_per_bit == e_d_b.joules_per_bit
    assert report.inference_phase.joules == e_p.joules
    assert report.inference_phase_per_bit.joules_per_bit == e_p_b.joules_per_bit
    assert report.ecal_abs.joules == ecal_abs(s).joules
    assert report.ecal_abs_mean.joules == ecal_abs_mean(s).joules
    assert report.ecal.joules_per_bit == ecal(s).joules_per_bit


def test_report_training_per_bit_columns():
    s = default_scenario()
    report = lifecycle_report(s)
    # Closed-form figure: one sample's training cost per bit (no epochs).
    assert report.training_per_bit.joules_per_bit == pytest.approx(
        3 * 226 / (64 * 1.5351e8), rel=1e-12
    )
    # Amortized figure: absolute training energy over the trained bits.
    assert report.training_per_trained_bit.joules_per_bit == report.training.joules / (64 * 179)
    assert (
        report.training_per_trained_bit.joules_per_bit
        == pytest.approx(10 * report.training_per_bit.joules_per_bit, rel=1e-12)
    )


def test_scenario_counts_must_be_integers():
    s = default_scenario()
    for field in ("epochs", "inference_batch", "gamma", "invalid_samples",
                  "inference_invalid_samples"):
        with pytest.raises(TypeError, match=field):
            replace(s, **{field: 2.0})
        with pytest.raises(TypeError, match=field):
            replace(s, **{field: True})


HUGE = 10**400  # beyond the float range


def test_gamma_beyond_float_range_is_a_value_error():
    s = default_scenario()
    with pytest.raises(FieldError) as caught:
        replace(s, gamma=HUGE)
    assert str(caught.value) == beyond_float("gamma", 1329)
    # Representable, but the lifecycle bits are not.
    huge = replace(s, gamma=10**308)
    for metric in (ecal_abs, ecal_abs_mean, ecal, lifecycle_report):
        with pytest.raises(ValueError, match="gamma is too large"):
            metric(huge)
    for sweep in (lambda: gamma_sweep(s, [1, HUGE]),
                  lambda: cf_vs_gamma(s, bundled_ci_table(), [1, HUGE])):
        with pytest.raises(FieldError) as caught:
            sweep()
        assert str(caught.value) == beyond_float("gamma", 1329)
    with pytest.raises(ValueError, match="gamma is too large"):
        gamma_sweep(s, [10**308])


def test_counts_beyond_float_range_are_value_errors():
    s = default_scenario()
    for build, message in (
        (lambda: PayloadSpec(64, HUGE), beyond_float("sample_count", 1329)),
        (lambda: MlpArchitecture((6, HUGE, 3)), beyond_float("layer_sizes[1]", 1329)),
        # Each width fits a float, but the forward-pass FLOP count does not.
        (lambda: lifecycle_report(replace(s, architecture=MlpArchitecture((6, 2**600, 2**600, 3)))),
         beyond_float("FLOP count", 1202)),
    ):
        with pytest.raises(FieldError) as caught:
            build()
        assert str(caught.value) == message
    # Each count fits a float, but the payload bits do not.
    with pytest.raises(ValueError, match="too large to price"):
        lifecycle_report(replace(s, payload=PayloadSpec(2**600, 2**600)))


_REFERENCE = MlpArchitecture((6, 5, 5, 5, 3))  # 226 FLOPs per forward pass
_WIDE = MlpArchitecture((6, 2**600, 2**600, 3))  # each width fits a float; its FLOPs do not
_PU = DEFAULT_PROCESSING_UNIT
_LOUD = TechnologyProfile("loud", BitCount(2000), BitCount(0), Power(1e303), BitRate(1.0))
_NOT_FINITE = "energy [J] must be non-negative and finite, got inf"


@pytest.mark.parametrize("call, message", [
    (lambda: transmitted_bits(ZIGBEE, PayloadSpec(2**600, 2**600)),
     beyond_float("bit count", 1201)),
    (lambda: transmitted_bits(TechnologyProfile("x", BitCount(1), BitCount(2**600), Power(1.0),
                                                BitRate(1.0)), PayloadSpec(2**600, 1)),
     beyond_float("bit count", 1201)),
    (lambda: storage_energy(StorageProfile("x", 1e300), BitCount(10**300)), _NOT_FINITE),
    (lambda: preprocessing_energy_per_bit(Energy(1.0), PayloadSpec(10**200, 10**200)),
     beyond_float("bit count", 1329)),
    (lambda: training_forward_flops(_WIDE, 1, 1), beyond_float("FLOP count", 1202)),
    (lambda: training_forward_flops(_REFERENCE, 2**600, 2**600),
     beyond_float("FLOP count", 1208)),
    (lambda: training_energy(_WIDE, 1, 1, _PU, 64), beyond_float("FLOP count", 1202)),
    (lambda: training_energy(_REFERENCE, 2**600, 2**600, _PU, 64),
     beyond_float("FLOP count", 1208)),
    # The forward-pass FLOPs of the run fit a float, but three times them do not.
    (lambda: training_energy(_REFERENCE, 2**1016, 1, _PU, 64), beyond_float("FLOP count", 1026)),
    (lambda: evaluation_energy(_WIDE, 1, _PU, 64), beyond_float("FLOP count", 1202)),
    (lambda: evaluation_energy(_REFERENCE, 2**1020, _PU, 64), beyond_float("FLOP count", 1028)),
    (lambda: training_energy(_REFERENCE, 1, 1, _PU, 0), "bits_per_sample must be >= 1, got 0"),
    (lambda: evaluation_energy(_REFERENCE, 1, _PU, -64), "bits_per_sample must be >= 1, got -64"),
    (lambda: forward_pass_energy_per_bit(_REFERENCE, _PU, True),
     "bits_per_sample must be an integer, got bool"),
    (lambda: training_energy(_REFERENCE, 1, 1, _PU, 1.5),
     "bits_per_sample must be an integer, got float"),
    (lambda: inference_energy(_WIDE, 1, _PU), beyond_float("FLOP count", 1202)),
    (lambda: inference_energy(_REFERENCE, 2**1020, _PU), beyond_float("FLOP count", 1028)),
    # Every point but the last is finite.
    (lambda: cumulative_transmission_energy(_LOUD, PayloadSpec(1, 1000), 1.0, 1000.0),
     _NOT_FINITE),
], ids=["transmitted payload", "transmitted overhead", "storage", "preprocessing per bit",
        "training forward", "training run", "training energy forward", "training energy run",
        "training energy total", "evaluation", "evaluation run", "training bits zero",
        "evaluation bits negative", "forward pass bits bool", "training bits float",
        "inference forward", "inference request", "cumulative series"])
def test_equations_reject_counts_and_energies_beyond_float_range(call, message):
    with pytest.raises(FieldError) as caught:
        call()
    assert str(caught.value) == message



def test_a_cumulative_series_below_the_float_edge_is_priced_point_by_point():
    series = cumulative_transmission_energy(_LOUD, PayloadSpec(1, 1000), 1.0, 100.0)
    joules = series[1][1].joules
    assert [energy.joules for _, energy in series] == [k * joules for k in range(101)]


def test_non_finite_phase_energy_is_a_value_error():
    s = default_scenario()
    with pytest.raises(ValueError, match="lifecycle energy is not finite"):
        development_energy(replace(s, storage=StorageProfile("dense", 1e308)))
    tiny = replace(s, processing_unit=ProcessingUnitProfile(Power(140.0), 1e10, 5e-324))
    with pytest.raises(ValueError, match="not finite"):
        inference_phase_energy(tiny)


def test_overflowing_per_bit_training_energy_is_a_value_error():
    # Development plus one request stays finite at gamma 1, but the closed-form
    # training energy per bit, 3 * M_FP / (alpha * fpj), overflows.
    s = replace(
        default_scenario(gamma=1), payload=PayloadSpec(1, 1), inference_batch=1,
        architecture=MlpArchitecture((6, 5, 3)),
        processing_unit=ProcessingUnitProfile(Power(140.0), 1e10, 1.474111431261021e-306),
    )
    finite_phases = r"development \S+e\+307 J, one request \S+e\+307 J, training inf J/b"
    for price in (lifecycle_report, development_energy, lambda x: gamma_sweep(x, [1])):
        with pytest.raises(ValueError, match=f"lifecycle energy is not finite: {finite_phases}"):
            price(s)


@st.composite
def scenarios(draw):
    bits_per_sample = draw(st.sampled_from([16, 32, 64]))
    samples = draw(st.integers(1, 1024))
    batch = draw(st.integers(1, 200))
    builtin_radio = draw(st.booleans())
    if builtin_radio:
        technology = BUILTIN_TECHNOLOGIES[draw(st.sampled_from(["ble5", "zigbee"]))]
    else:
        f_u = draw(st.integers(256, 4096))
        needed = -(-bits_per_sample * max(samples, batch) // f_u)
        override = draw(st.one_of(st.none(), st.integers(needed, needed + 3)))
        technology = TechnologyProfile(
            "inline", BitCount(f_u), BitCount(draw(st.integers(0, 2000))),
            Power(draw(st.floats(1e-3, 0.2))), BitRate(draw(st.floats(1e3, 2e6))),
            packets_override=override,
        )
    if draw(st.booleans()):
        storage = BUILTIN_STORAGE[draw(st.sampled_from(["hdd", "ssd"]))]
    else:
        storage = StorageProfile("inline", draw(st.floats(0.1, 5.0)))
    hidden = draw(st.lists(st.integers(1, 32), min_size=1, max_size=6))
    layers = (draw(st.integers(2, 16)), *hidden, draw(st.integers(1, 8)))
    return Scenario(
        payload=PayloadSpec(bits_per_sample, samples),
        technology=technology,
        storage=storage,
        standardization=draw(st.sampled_from(list(StandardizationMethod))),
        train_fraction=draw(st.floats(0.05, 1.0)),
        epochs=draw(st.integers(1, 30)),
        architecture=MlpArchitecture(layers),
        inference_batch=batch,
        gamma=draw(st.integers(1, 10**6)),
        processing_unit=ProcessingUnitProfile(
            Power(draw(st.floats(1.0, 300.0))),
            draw(st.floats(1e8, 1e11)),
            draw(st.floats(1e6, 1e10)),
        ),
        invalid_samples=draw(st.integers(0, samples - 1)),
        inference_invalid_samples=draw(st.integers(0, batch - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_every_metric_agrees_exactly_with_the_report(s):
    report = lifecycle_report(s)
    (row,) = gamma_sweep(s, [s.gamma])
    assert row.ecal_abs == report.ecal_abs == ecal_abs(s)
    assert row.ecal_abs_mean == report.ecal_abs_mean == ecal_abs_mean(s)
    assert row.ecal == report.ecal == ecal(s)
    assert development_energy(s) == (report.development, report.development_per_bit)
    assert inference_phase_energy(s) == (report.inference_phase, report.inference_phase_per_bit)
    cf = cf_vs_gamma(s, bundled_ci_table(), [s.gamma])
    assert cf.rows
    for cf_row in cf.rows:
        assert cf_row.cf_total_g == carbon_footprint(report.ecal_abs, cf_row.intensity)
        assert cf_row.cf_development_g == carbon_footprint(report.development, cf_row.intensity)
        assert cf_row.cf_inference_g == carbon_footprint(report.inference_phase, cf_row.intensity)


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_every_priced_term_is_its_stage_equation_bit_for_bit(s):
    # _price repeats each stage module's arithmetic on plain numbers, in the
    # same operation order, so every term must be the same float, not a close one.
    arch, pu, bits = s.architecture, s.processing_unit, s.payload.bits_per_sample
    request = PayloadSpec(bits, s.inference_batch)
    split = make_split(s.payload.sample_count, s.train_fraction)
    report, p = lifecycle_report(s), _price(s)
    b_t = transmitted_bits(s.technology, s.payload)
    assert report.transmitted_bits_development == b_t
    assert report.transmitted_bits_inference == transmitted_bits(s.technology, request)
    assert report.transmission == transmission_energy(s.technology, b_t)
    assert report.storage == storage_energy(s.storage, payload_bits(s.payload))
    flops = preprocessing_flops(s.standardization, s.payload.sample_count, s.invalid_samples)
    assert report.preprocessing == preprocessing_energy(pu, flops)[1]
    assert (report.training, report.training_per_bit) == training_energy(
        arch, s.epochs, split.train_count, pu, bits)
    assert report.evaluation == evaluation_energy(arch, split.eval_count, pu, bits)[0]
    assert report.inference == inference_energy(arch, s.inference_batch, pu)
    m_mlp_fp = training_forward_flops(arch, s.epochs, split.train_count)
    assert [getattr(p, field) for field, _ in _PRICED[:4]] == [
        forward_flops(arch).flops, m_mlp_fp.flops, training_total_flops(m_mlp_fp).flops,
        inference_flops(arch, s.inference_batch).flops]
    assert p.forward_per_bit == forward_pass_energy_per_bit(arch, pu, bits).joules_per_bit


def test_report_fields_are_the_term_table_in_print_order():
    assert LifecycleReport._fields == tuple(field for field, _, _ in _TERMS)
    assert LifecycleReport._fields[:5] == (
        "gamma", "transmitted_bits_development", "development_denominator_bits",
        "transmitted_bits_inference", "inference_denominator_bits")


# Each LifecycleReport field, by the spreadsheet_oracle term it must equal.
ORACLE_TERMS = {
    "transmission": "e_t", "storage": "e_storage", "preprocessing": "e_pre",
    "training": "e_train", "evaluation": "e_eval", "inference": "e_inf", "development": "e_d",
    "development_per_bit": "e_d_b", "training_per_bit": "e_train_b",
    "training_per_trained_bit": "e_train_trained_b", "inference_phase": "e_inf_p",
    "inference_phase_per_bit": "e_inf_p_b", "ecal_abs": "ecal_abs",
    "ecal_abs_mean": "ecal_abs_mean", "ecal": "ecal", "transmitted_bits_development": "b_t",
    "development_denominator_bits": "dev_bits", "transmitted_bits_inference": "b_t_inf",
    "inference_denominator_bits": "inf_bits",
}


@settings(max_examples=100, deadline=None)
@given(scenarios())
def test_every_report_term_agrees_with_the_oracle(s):
    tech, pu = s.technology, s.processing_unit
    expected = spreadsheet_oracle(
        alpha=s.payload.bits_per_sample, n_s=s.payload.sample_count, n_nan=s.invalid_samples,
        f_u=tech.packet_capacity.bits, omega_u=tech.packet_overhead.bits,
        packets_override=tech.packets_override, p_t_w=tech.transmit_power.watts,
        r_t_bps=tech.transmit_rate.bits_per_second, wh_per_tb=s.storage.wh_per_terabyte,
        method=s.standardization.value, beta=s.train_fraction, epochs=s.epochs,
        layers=s.architecture.layer_sizes, n_ip=s.inference_batch,
        inf_nan=s.inference_invalid_samples, gamma=s.gamma,
        p_pre_w=pu.preprocessing_power.watts, m_pu=pu.preprocessing_flops_per_s,
        fpj=pu.flops_per_joule,
    )
    report = lifecycle_report(s)
    assert set(ORACLE_TERMS) == set(report.__match_args__) - {"gamma"}
    assert [type(value) for value in report] == [kind for _, kind, _ in _TERMS]
    assert report.gamma == s.gamma
    for field, term in ORACLE_TERMS.items():
        (value,) = _field_values(getattr(report, field))
        if isinstance(value, int):
            assert value == expected[term], field
        else:
            assert value == approx(expected[term]), field


def _field_values(record):
    return [getattr(record, name) for name in record.__match_args__]


def _unit_fields(record):
    return [value for value in _field_values(record)
            if isinstance(value, (Energy, EnergyPerBit, BitCount))]


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.data())
def test_trusted_outputs_are_what_the_checked_constructors_build(s, data):
    # Half the draws take an energy efficiency so low that some terms approach
    # or pass the float range: a call may then raise, but never hand back a
    # unit that its public constructor would reject.
    extreme = data.draw(st.booleans())
    if extreme:
        fpj = data.draw(st.floats(1.0, 10.0)) * 10.0 ** data.draw(st.integers(-308, -290))
        s = replace(s, processing_unit=ProcessingUnitProfile(Power(140.0), 1e10, fpj))
    gammas = (1, s.gamma, data.draw(st.integers(1, 10**12)))
    calls = [lambda: _unit_fields(lifecycle_report(s))]
    calls += [lambda gamma=gamma: list(gamma_sweep(s, [gamma])[0][1:]) for gamma in gammas]
    units = []
    for call in calls:
        try:
            units += call()
        except ValueError:
            assert extreme
    assert extreme or len(units) == 19 + 3 * len(gammas)
    for unit in units:
        checked = type(unit)(*_field_values(unit))
        assert checked == unit
        assert repr(checked) == repr(unit)


def _row_by_row(s, records, gammas):
    """gamma_sweep's and cf_vs_gamma's rows as a per-gamma loop through ``_at``
    and the checked constructors builds them."""
    p = _price(s)
    chosen = sorted(records, key=lambda r: (-r.intensity.grams_co2e_per_kwh, r.country_code))
    sweep, carbon = [], []
    for gamma in gammas:
        _checked_count(gamma, "gamma", 1)
        joules, bits = _at(p, gamma)
        sweep.append(GammaRow(gamma, Energy(joules), Energy(joules / gamma),
                              EnergyPerBit(joules / bits)))
        for r in chosen:
            ci = r.intensity.grams_co2e_per_kwh
            carbon.append(CarbonReportRow(
                gamma, r.country_code, r.country_name, r.intensity,
                p.development / JOULES_PER_KWH * ci, p.request / JOULES_PER_KWH * ci,
                joules / JOULES_PER_KWH * ci))
    return sweep, carbon


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.data())
def test_bulk_rows_are_bit_identical_to_the_row_by_row_formula(s, data):
    # Gammas around the largest that prices, in any order, repeated or none at
    # all: each row matches bit for bit, or both sides raise the same error.
    p = _price(s)
    edge = int(min(sys.float_info.max / p.request, sys.float_info.max / p.request_bits))
    gamma = st.one_of(st.integers(1, 10**9), st.integers(1, 2 * edge),
                      st.integers(edge - (edge >> 48), edge + (edge >> 48)))
    gammas = data.draw(st.lists(gamma, max_size=12))
    gammas += data.draw(st.lists(st.sampled_from(gammas), max_size=3)) if gammas else []
    records = bundled_ci_table()
    expected = _outcome(lambda: _row_by_row(s, records, gammas))
    sweep = _outcome(lambda: gamma_sweep(s, gammas))
    report = _outcome(lambda: cf_vs_gamma(s, records, iter(gammas)))
    if isinstance(expected[0], type):
        assert sweep == report == expected
    else:
        # repr spells each float exactly, so equal reprs are equal bits
        assert sweep == expected[0] and repr(sweep) == repr(expected[0])
        assert report.rows == tuple(expected[1])
        assert repr(report.rows) == repr(tuple(expected[1]))


_TOO_LARGE = ("gamma is too large to price: lifecycle energy or bits exceed the "
              "floating-point range (gamma has {} bits)")
# One bad gamma, and the exact type and message it raises.
BAD_GAMMAS = [
    (0, FieldError, "gamma must be >= 1, got 0"),
    (-1, FieldError, "gamma must be >= 1, got -1"),
    (True, FieldTypeError, "gamma must be an integer, got bool"),
    (1.5, FieldTypeError, "gamma must be an integer, got float"),
    ("3", FieldTypeError, "gamma must be an integer, got str"),
    (10**308, ValueError, _TOO_LARGE.format(1024)),
    (10**400, FieldError, beyond_float("gamma", 1329)),
]


@pytest.mark.parametrize("bad, error, message", BAD_GAMMAS,
                         ids=["0", "-1", "True", "1.5", "'3'", "10**308", "10**400"])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_bad_gamma_raises_the_same_error_anywhere_in_the_list(bad, error, message, position):
    s = default_scenario()
    gammas = [5, 7]
    gammas.insert(position, bad)
    for sweep in (lambda: gamma_sweep(s, gammas),
                  lambda: cf_vs_gamma(s, bundled_ci_table(), gammas)):
        with pytest.raises(Exception) as caught:
            sweep()
        assert type(caught.value) is error
        assert str(caught.value) == message


def test_the_first_bad_gamma_in_list_order_is_the_one_named():
    s = default_scenario()
    for gammas, message in (([10**308, 0], _TOO_LARGE.format(1024)),
                            ([0, 10**308], "gamma must be >= 1, got 0"),
                            ([3, 2.5, 10**400], "gamma must be an integer, got float")):
        for sweep in (lambda: gamma_sweep(s, gammas),
                      lambda: cf_vs_gamma(s, bundled_ci_table(), gammas)):
            with pytest.raises(ValueError) as caught:
                sweep()
            assert str(caught.value) == message


def test_an_empty_gamma_list_still_prices_the_scenario():
    s = default_scenario()
    assert gamma_sweep(s, []) == []
    assert cf_vs_gamma(s, bundled_ci_table(), iter(())).rows == ()
    tiny = replace(s, processing_unit=ProcessingUnitProfile(Power(140.0), 1e10, 1e-308))
    for sweep in (lambda: gamma_sweep(tiny, []), lambda: cf_vs_gamma(tiny, [], [])):
        with pytest.raises(ValueError, match="lifecycle energy is not finite"):
            sweep()


def test_a_scenario_is_priced_once_for_every_figure(monkeypatch):
    collected = []
    collection = lifecycle._collection
    monkeypatch.setattr(lifecycle, "_collection",
                        lambda *args: collected.append(args[1:]) or collection(*args))
    s = default_scenario()
    for _ in range(2):
        lifecycle_report(s)
        cf_vs_gamma(s, bundled_ci_table(), [s.gamma])
        gamma_sweep(s, [1, 10])
        ecal(s)
        development_energy(s)
    assert collected == [(256, 0), (77, 0)]  # the dataset, then one request


def test_a_replaced_scenario_is_priced_afresh():
    s = default_scenario()
    lifecycle_report(s)
    assert repr(lifecycle_report(replace(s, gamma=100))) == repr(
        lifecycle_report(default_scenario(100)))
    more_epochs = replace(s, epochs=20)
    built = Scenario(*[getattr(more_epochs, name) for name in Scenario.__match_args__])
    assert repr(lifecycle_report(more_epochs)) == repr(lifecycle_report(built))
    assert lifecycle_report(more_epochs).training.joules == 2 * lifecycle_report(s).training.joules


def test_a_priced_scenario_keeps_its_value_semantics():
    s, fresh = default_scenario(), default_scenario()
    report = lifecycle_report(s)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert asdict(s) == asdict(fresh)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s)
        assert repr(lifecycle_report(twin)) == repr(report)


@pytest.mark.parametrize("changes, message", [
    ({"invalid_samples": 256}, "need at least one valid sample, got n_s=256 with n_nan=256"),
    ({"payload": PayloadSpec(1, 10**308)}, beyond_float("FLOP count", 1026)),
], ids=["no valid sample", "preprocessing FLOPs beyond float range"])
def test_a_failed_pricing_raises_the_same_error_on_every_call(changes, message):
    s = replace(default_scenario(), **changes)
    for price in (lifecycle_report, lifecycle_report, ecal, lambda x: gamma_sweep(x, [1]),
                  lambda x: cf_vs_gamma(x, bundled_ci_table(), [1]), lifecycle_report):
        with pytest.raises(ValueError) as caught:
            price(s)
        assert str(caught.value) == message


def test_scenario_countries_need_a_sequence():
    with pytest.raises(FieldTypeError) as caught:
        replace(default_scenario(), countries=5)
    assert str(caught.value) == "countries must be a sequence, got int"


# A field that holds a model value, a value of another type, and the whole message.
WRONG_PARTS = [
    ("payload", (64, 256), "payload must be a PayloadSpec, got tuple"),
    ("technology", "ble5", "technology must be a TechnologyProfile, got str"),
    ("storage", None, "storage must be a StorageProfile, got NoneType"),
    ("standardization", "minmax", "standardization must be a StandardizationMethod, got str"),
    ("architecture", (6, 5, 3), "architecture must be a MlpArchitecture, got tuple"),
    ("processing_unit", {}, "processing_unit must be a ProcessingUnitProfile, got dict"),
]


@pytest.mark.parametrize("field, value, message", WRONG_PARTS, ids=[c[0] for c in WRONG_PARTS])
def test_scenario_parts_must_be_model_values(field, value, message):
    # Else pricing fails later with an error that names no field.
    with pytest.raises(FieldTypeError) as caught:
        replace(default_scenario(), **{field: value})
    assert caught.value.field == field
    assert str(caught.value) == message
