"""The paper's tables and figures, each rebuilt from the model.

Each function is named after its ``reproduce`` target (see
:data:`ecal.report.REPRODUCE_TARGETS`) and returns its :class:`ReportTable`.
"""

from __future__ import annotations

from .carbon import bundled_ci_table, cf_vs_gamma
from .lifecycle import default_scenario, gamma_sweep, lifecycle_report
from .mlp_cost import (
    DEFAULT_PROCESSING_UNIT,
    MlpArchitecture,
    forward_flops,
    training_forward_flops,
    uniform_architecture,
)
from .preprocessing import (
    StandardizationMethod,
    preprocessing_energy,
    preprocessing_energy_per_bit,
    preprocessing_flops,
)
from .report import REPRODUCE_TARGETS, ReportTable
from .transmission import (
    BUILTIN_TECHNOLOGIES,
    PayloadSpec,
    TechnologyProfile,
    cumulative_transmission_energy,
    fixed_overhead_profile,
    packet_count,
    payload_bits,
    transmission_energy_per_bit,
    transmitted_bits,
)

__all__ = list(REPRODUCE_TARGETS)

_GAMMA_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000)
_REFERENCE_TECHNOLOGIES = ("ble5", "zigbee", "lorawan")


def _technology_rows() -> list[TechnologyProfile]:
    return [BUILTIN_TECHNOLOGIES[name] for name in _REFERENCE_TECHNOLOGIES]


def table1() -> ReportTable:
    spec = PayloadSpec(64, 256)
    rows = []
    for profile in _technology_rows():
        rows.append(
            (
                profile.name,
                profile.packet_capacity.bits,
                packet_count(profile, spec),
                profile.packet_overhead.bits,
                transmitted_bits(profile, spec).bits,
                100.0 * profile.packet_overhead.bits / profile.packet_capacity.bits,
            )
        )
    return ReportTable(
        ("technology", "packet_capacity_bits", "packets", "overhead_bits_per_packet",
         "b_t_bits", "overhead_pct"),
        rows,
    )


def table2() -> ReportTable:
    rows = []
    for profile in _technology_rows():
        rows.append(
            (
                profile.name,
                profile.transmit_power.watts * 1e3,
                profile.transmit_rate.bits_per_second,
                transmission_energy_per_bit(profile).joules_per_bit,
            )
        )
    return ReportTable(("technology", "p_t_mw", "r_t_bps", "e_t_b_j"), rows)


def fig2() -> ReportTable:
    profiles = [(pct, fixed_overhead_profile(pct)) for pct in (1.0, 30.0, 50.0, 70.0)]
    rows = []
    for n_samples in range(16, 513, 16):
        spec = PayloadSpec(64, n_samples)
        for pct, profile in profiles:
            rows.append(
                (n_samples, pct, payload_bits(spec).bits, transmitted_bits(profile, spec).bits)
            )
    return ReportTable(("n_samples", "overhead_pct", "payload_bits", "b_t_bits"), rows)


def fig4() -> ReportTable:
    rows = [
        (profile.name, transmission_energy_per_bit(profile).joules_per_bit)
        for profile in _technology_rows()
    ]
    return ReportTable(("technology", "e_t_b_j"), rows)


def fig5() -> ReportTable:
    spec = PayloadSpec(64, 256)
    rows = []
    for profile in _technology_rows():
        for time_s, energy in cumulative_transmission_energy(profile, spec, 60.0, 86400.0):
            rows.append((profile.name, time_s, energy.joules))
    return ReportTable(("technology", "time_s", "e_t_cumulative_j"), rows)


def fig6() -> ReportTable:
    pu = DEFAULT_PROCESSING_UNIT
    rows = []
    for method in StandardizationMethod:
        for n_samples in range(128, 1025, 128):
            for n_invalid in (0, 32, 64, 96):
                flops = preprocessing_flops(method, n_samples, n_invalid)
                t_pre, e_pre = preprocessing_energy(pu, flops)
                rows.append((method.value, n_samples, n_invalid, flops.flops, t_pre, e_pre.joules))
    return ReportTable(
        ("method", "n_samples", "n_invalid", "flops", "t_pre_s", "e_pre_j"), rows
    )


def fig7() -> ReportTable:
    pu = DEFAULT_PROCESSING_UNIT
    spec = PayloadSpec(64, 256)
    rows = []
    for method in StandardizationMethod:
        flops = preprocessing_flops(method, spec.sample_count, 0)
        _, e_pre = preprocessing_energy(pu, flops)
        per_bit = preprocessing_energy_per_bit(e_pre, spec)
        rows.append((method.value, spec.sample_count, flops.flops, e_pre.joules,
                     per_bit.joules_per_bit))
    return ReportTable(("method", "n_samples", "flops", "e_pre_j", "e_pre_b_j"), rows)


def fig8() -> ReportTable:
    report = lifecycle_report(default_scenario())
    rows = [
        ("transmission", report.transmission.joules),
        ("storage", report.storage.joules),
        ("preprocessing", report.preprocessing.joules),
        ("training", report.training.joules),
        ("evaluation", report.evaluation.joules),
        ("inference", report.inference.joules),
        ("development_total", report.development.joules),
        ("inference_phase_total", report.inference_phase.joules),
    ]
    return ReportTable(("component", "energy_j"), rows)


def fig9ab() -> ReportTable:
    rows = []
    for width in range(1, 11):
        for hidden in range(1, 6):
            arch = uniform_architecture(6, width, hidden, 3)
            fwd = forward_flops(arch)
            rows.append(
                ("a", width, hidden, 10, 256, fwd.flops,
                 training_forward_flops(arch, 10, 256).flops)
            )
    reference = MlpArchitecture((6, 5, 5, 5, 3))
    fwd = forward_flops(reference)
    for epochs in (1, 5, 10, 15, 20):
        for n_train in (64, 128, 179, 256, 384, 512):
            rows.append(
                ("b", 5, 3, epochs, n_train, fwd.flops,
                 training_forward_flops(reference, epochs, n_train).flops)
            )
    return ReportTable(
        ("part", "hidden_width", "hidden_layers", "n_epochs", "n_train",
         "forward_flops", "training_forward_flops"),
        rows,
    )


def fig11() -> ReportTable:
    scenario = default_scenario()
    rows = [
        (row.gamma, row.ecal_abs.joules, row.ecal_abs_mean.joules)
        for row in gamma_sweep(scenario, _GAMMA_GRID)
    ]
    return ReportTable(("gamma", "ecal_abs_j", "ecal_abs_mean_j"), rows)


def fig12() -> ReportTable:
    scenario = default_scenario()
    rows = [(row.gamma, row.ecal.joules_per_bit) for row in gamma_sweep(scenario, _GAMMA_GRID)]
    return ReportTable(("gamma", "ecal_j_per_b"), rows)


def table3() -> ReportTable:
    scenario = default_scenario()
    report = cf_vs_gamma(scenario, bundled_ci_table(), [scenario.gamma])
    rows = [
        (row.country_code, row.country_name, row.intensity.grams_co2e_per_kwh,
         row.cf_development_g, row.cf_inference_g)
        for row in report.rows
    ]
    return ReportTable(
        ("country_code", "country_name", "ci_g_per_kwh", "cf_development_g", "cf_inference_g"),
        rows,
    )


def fig13() -> ReportTable:
    scenario = default_scenario()
    report = cf_vs_gamma(scenario, bundled_ci_table(), _GAMMA_GRID)
    rows = [
        (row.gamma, row.country_code, row.intensity.grams_co2e_per_kwh, row.cf_total_g)
        for row in report.rows
    ]
    return ReportTable(("gamma", "country_code", "ci_g_per_kwh", "cf_total_g"), rows)
