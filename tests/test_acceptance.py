"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import random
from dataclasses import replace

import pytest

from ecal.carbon import bundled_ci_table, carbon_footprint, cf_vs_gamma
from ecal.lifecycle import (
    default_scenario,
    development_energy,
    ecal,
    ecal_abs,
    ecal_abs_mean,
    inference_phase_energy,
    lifecycle_report,
)
from ecal.mlp_cost import (
    DEFAULT_PROCESSING_UNIT,
    MlpArchitecture,
    evaluation_energy,
    forward_flops,
    forward_pass_energy_per_bit,
    inference_energy,
    inference_flops,
    training_energy,
    training_forward_flops,
)
from ecal.preprocessing import (
    StandardizationMethod,
    minmax_scale,
    normalize,
    preprocessing_energy,
    preprocessing_flops,
)
from ecal.scenario_io import REPRODUCE_TARGETS, reproduce
from ecal.storage import HDD, SSD, storage_energy, storage_energy_per_bit
from ecal.transmission import (
    BLE5,
    LORAWAN,
    PayloadSpec,
    ZIGBEE,
    fixed_overhead_profile,
    technology_profile,
    transmission_energy,
    transmission_energy_per_bit,
    transmitted_bits,
    without_packet_override,
)
from ecal.units import BitCount, Energy, FlopCount, joules_to_kwh, kwh_to_joules

DOUBLE_256 = PayloadSpec(64, 256)
ARCH = MlpArchitecture((6, 5, 5, 5, 3))


def _ok(message: str) -> None:
    print(f"[PASS] {message}")


def test_criterion_01_transmitted_bits_table():
    assert transmitted_bits(BLE5, DOUBLE_256).bits == 17728
    assert transmitted_bits(ZIGBEE, DOUBLE_256).bits == 19920
    assert transmitted_bits(LORAWAN, DOUBLE_256).bits == 18796
    assert transmitted_bits(without_packet_override(LORAWAN), DOUBLE_256).bits == 18528
    published_pct = {"ble5": 7.93, "zigbee": 21.12, "lorawan": 13.09}
    for name, expected in published_pct.items():
        profile = technology_profile(name)
        pct = 100.0 * profile.packet_overhead / profile.packet_capacity
        assert abs(pct - expected) < 0.01
    _ok("criterion 1: transmitted-bits table (17728 / 19920 / 18796; strict 18528; "
        "overhead fractions within 0.01 pp)")


def test_criterion_02_per_bit_energy_table():
    assert transmission_energy_per_bit(BLE5).joules_per_bit == 3.1628e-9
    assert transmission_energy_per_bit(ZIGBEE).joules_per_bit == 4.0e-8
    assert transmission_energy_per_bit(LORAWAN).joules_per_bit == 2.0e-6
    _ok("criterion 2: per-bit transmission energies 3.1628 nJ/b, 40 nJ/b, 2 uJ/b (exact)")


def test_criterion_03_overhead_worked_example():
    low = fixed_overhead_profile(1.0)
    high = fixed_overhead_profile(70.0)
    b_low = transmitted_bits(low, DOUBLE_256)
    b_high = transmitted_bits(high, DOUBLE_256)
    assert (b_low.bits, b_high.bits) == (16564, 28984)
    # Exact at double precision: equal to the decimal literals to <= 1 ulp.
    assert transmission_energy(low, b_low).joules == pytest.approx(0.16564, rel=1e-15)
    assert transmission_energy(high, b_high).joules == pytest.approx(0.28984, rel=1e-15)
    assert transmission_energy_per_bit(low).joules_per_bit == 1e-5
    assert transmission_energy_per_bit(high).joules_per_bit == 1e-5
    _ok("criterion 3: 1%/70% overhead example (16564/28984 bits; 0.16564/0.28984 J; 1e-5 J/b)")


def test_criterion_04_storage_example():
    payload = BitCount(16384)
    assert storage_energy(HDD, payload).joules == pytest.approx(4.79e-6, rel=0.01)
    assert storage_energy(SSD, payload).joules == pytest.approx(8.85e-6, rel=0.01)
    assert storage_energy_per_bit(HDD).joules_per_bit == pytest.approx(2.92e-10, rel=0.01)
    assert storage_energy_per_bit(SSD).joules_per_bit == pytest.approx(5.4e-10, rel=0.01)
    _ok("criterion 4: storage energies 4.79e-6 / 8.85e-6 J and per-bit values within 1%")


def test_criterion_05_preprocessing_closed_forms():
    minmax = StandardizationMethod.MINMAX
    norm = StandardizationMethod.NORMALIZATION
    assert preprocessing_flops(minmax, 256, 0).flops == 511
    assert preprocessing_flops(norm, 256, 0).flops == 1533
    for n in range(1, 1001):
        assert preprocessing_flops(norm, n, 0).flops == 3 * preprocessing_flops(minmax, n, 0).flops
    for n in range(2, 1001):
        _, mm_ledger = minmax_scale([float(i) for i in range(n)])
        _, no_ledger = normalize([float(i) for i in range(n)])
        assert mm_ledger.total.flops - preprocessing_flops(minmax, n, 0).flops == 2
        assert no_ledger.total.flops - preprocessing_flops(norm, n, 0).flops == 6
        if n > 2:
            assert mm_ledger.total.flops - prev_mm == 2
            assert no_ledger.total.flops - prev_no == 6
        prev_mm, prev_no = mm_ledger.total.flops, no_ledger.total.flops
    _ok("criterion 5: closed forms 511/1533; 3x ratio exact for N in [1,1000]; "
        "instrumented slopes 2 and 6 per sample over N in [2,1000]")


def test_criterion_06_mlp_complexity():
    assert forward_flops(ARCH).flops == 226
    assert training_forward_flops(ARCH, 10, 256).flops == 578560
    assert inference_flops(ARCH, 77).flops == 17402

    def graph_walk(sizes):
        total = 0
        for fan_in, width in zip(sizes, sizes[1:]):
            for _ in range(fan_in):
                for _ in range(width):
                    total += 2
            for _ in range(width):
                total += 2
        return total

    rng = random.Random(0xACCE97)
    for _ in range(200):
        sizes = tuple(rng.randint(1, 32) for _ in range(rng.randint(2, 6)))
        assert forward_flops(MlpArchitecture(sizes)).flops == graph_walk(sizes)
    _ok("criterion 6: MLP complexity 226 / 578560 / 17402 exact; "
        "graph-walk oracle equality on 200 random architectures")


def test_criterion_07_calibration_consistency():
    pu = DEFAULT_PROCESSING_UNIT
    assert pu.flops_per_joule == 1.5351e8
    e_train, _ = training_energy(ARCH, 10, 179, pu, 64)
    e_collect = transmission_energy(BLE5, transmitted_bits(BLE5, DOUBLE_256))
    assert abs(e_train.joules / e_collect.joules - 141.0) <= 1.0
    e_inf = inference_energy(ARCH, 77, pu)
    assert abs(e_train.joules / e_inf.joules - 71.0) / 71.0 < 0.05
    _ok("criterion 7: default efficiency gives 141x collection (+-1) and "
        "~71x inference (within 5%)")


def test_criterion_08_ecal_behavior():
    s = default_scenario()
    ratio = (
        ecal(replace(s, gamma=100)).joules_per_bit
        / ecal(replace(s, gamma=1000)).joules_per_bit
    )
    assert 1.2 <= ratio <= 1.6
    e_d = development_energy(s)[0].joules
    e_p = inference_phase_energy(s)[0].joules
    means = [ecal_abs_mean(replace(s, gamma=g)).joules for g in (10**3, 10**4, 10**5)]
    assert all(a > b for a, b in zip(means, means[1:]))
    for gamma, mean in zip((10**3, 10**4, 10**5), means):
        assert mean - e_p == pytest.approx(e_d / gamma, rel=1e-9)
    _ok(f"criterion 8: eCAL(100)/eCAL(1000) = {ratio:.3f} within [1.2, 1.6]; "
        "mean strictly decreasing with gap E_D/gamma at 1e3..1e5")


def test_criterion_09_carbon():
    for joules in (1.0, 3.6e6, 0.0264):
        e = Energy(joules)
        ratio = carbon_footprint(e, bundled_ci_table()[0].intensity) / carbon_footprint(
            e, next(r for r in bundled_ci_table() if r.country_code == "FI").intensity
        )
        assert ratio == pytest.approx(425 / 92, rel=1e-12)
        assert abs(ratio - 4.62) <= 0.01
    records = bundled_ci_table()
    report = cf_vs_gamma(default_scenario(), records, [1000])
    by_cf = [r.country_code for r in sorted(report.rows, key=lambda r: -r.cf_total_g)]
    by_ci = [r.country_code for r in
             sorted(records, key=lambda r: -r.intensity.grams_co2e_per_kwh)]
    assert by_cf == by_ci
    _ok("criterion 9: CF(Germany)/CF(Finland) = 4.62 +- 0.01; "
        "country ranking by footprint equals ranking by intensity")


def test_criterion_10_property_suite():
    # Unit round-trips.
    for x in (1e-12, 1.0, 0.0264, 3.6e6, 1e12):
        assert joules_to_kwh(kwh_to_joules(x)) == pytest.approx(x, rel=1e-12)
    # Transmitted bits dominate payload, equality only without overhead.
    zero_overhead = fixed_overhead_profile(0.0)
    for n in (0, 1, 77, 256, 1000):
        spec = PayloadSpec(64, n)
        for profile in (BLE5, ZIGBEE):
            total = transmitted_bits(profile, spec).bits
            assert total >= 64 * n
            assert (total == 64 * n) == (n == 0)
        assert transmitted_bits(zero_overhead, spec).bits == 64 * n
    # ecal_abs is the affine combination of the published components.
    s = default_scenario()
    e_d = development_energy(s)[0].joules
    e_p = inference_phase_energy(s)[0].joules
    for gamma in (1, 2, 10, 100, 1000, 10**5):
        total = ecal_abs(replace(s, gamma=gamma)).joules
        assert total == e_d + gamma * e_p
        diff = ecal_abs(replace(s, gamma=gamma + 1)).joules - total
        assert abs(diff - e_p) <= 4 * math.ulp(total + e_p)
    # Evaluation and inference share the per-bit cost exactly.
    pu = DEFAULT_PROCESSING_UNIT
    assert evaluation_energy(ARCH, 77, pu, 64)[1] == forward_pass_energy_per_bit(ARCH, pu, 64)
    # Normalization output statistics.
    import statistics

    normalized, _ = normalize([math.sin(i) * 40 + 7 for i in range(256)])
    assert abs(statistics.fmean(normalized)) < 1e-9
    assert abs(statistics.pstdev(normalized) - 1.0) < 1e-9
    # Report determinism, byte for byte.
    for target in ("table1", "fig8", "fig12"):
        assert reproduce(target).to_csv() == reproduce(target).to_csv()
    report = lifecycle_report(s)
    again = lifecycle_report(s)
    assert report == again
    _ok("criterion 10: unit round-trips, payload bounds, affine ecal_abs, "
        "eval/inference per-bit equality, normalization stats, determinism")


def test_criterion_11_reproduce_targets(tmp_path):
    expected = {"table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                "fig9ab", "fig11", "fig12", "table3", "fig13"}
    assert set(REPRODUCE_TARGETS) == expected
    for target in REPRODUCE_TARGETS:
        table = reproduce(target)
        assert len(table.rows) >= 1
    _ok("criterion 11: all 13 reference datasets build "
        "(golden-file comparison in test_golden.py)")
