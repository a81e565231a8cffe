"""The paper's tables and figures, each rebuilt from the model.

Each function is named after its ``reproduce`` target (see
:data:`ecal.report.REPRODUCE_TARGETS`) and returns its :class:`ReportTable`.
"""

from __future__ import annotations

from .carbon import bundled_ci_table, cf_vs_gamma
from .lifecycle import _price, default_scenario, gamma_sweep
from .mlp_cost import forward_flops, training_forward_flops, uniform_architecture
from .preprocessing import (
    StandardizationMethod,
    preprocessing_energy,
    preprocessing_energy_per_bit,
    preprocessing_flops,
)
from .report import REPRODUCE_TARGETS, ReportTable, _project
from .transmission import (
    BUILTIN_TECHNOLOGIES,
    PayloadSpec,
    cumulative_transmission_energy,
    fixed_overhead_profile,
    packet_count,
    payload_bits,
    transmission_energy_per_bit,
    transmitted_bits,
)

__all__ = list(REPRODUCE_TARGETS)

_GAMMA_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000)
# The paper's reference configuration, priced once for every figure that
# prices it; BUILTIN_TECHNOLOGIES holds the paper's three radios in its order.
_REFERENCE = default_scenario()
# Fig. 8's bars, each with the _Lifecycle field it plots, in plot order.
_FIG8 = (("transmission", "transmission"), ("storage", "storage"),
         ("preprocessing", "preprocessing"), ("training", "training"),
         ("evaluation", "evaluation"), ("inference", "inference"),
         ("development_total", "development"), ("inference_phase_total", "inference_phase"))


def table1() -> ReportTable:
    spec = _REFERENCE.payload
    rows = []
    for profile in BUILTIN_TECHNOLOGIES.values():
        rows.append(
            (
                profile.name,
                profile.packet_capacity,
                packet_count(profile, spec),
                profile.packet_overhead,
                transmitted_bits(profile, spec).bits,
                100.0 * profile.packet_overhead / profile.packet_capacity,
            )
        )
    return ReportTable(
        ("technology", "packet_capacity_bits", "packets", "overhead_bits_per_packet",
         "b_t_bits", "overhead_pct"),
        rows,
    )


def table2() -> ReportTable:
    rows = []
    for profile in BUILTIN_TECHNOLOGIES.values():
        rows.append(
            (
                profile.name,
                profile.transmit_power * 1e3,
                profile.transmit_rate,
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
    return ReportTable(("technology", "e_t_b_j"), [(row[0], row[3]) for row in table2().rows])


def fig5() -> ReportTable:
    spec = _REFERENCE.payload
    rows = []
    for profile in BUILTIN_TECHNOLOGIES.values():
        for time_s, energy in cumulative_transmission_energy(profile, spec, 60.0, 86400.0):
            rows.append((profile.name, time_s, energy.joules))
    return ReportTable(("technology", "time_s", "e_t_cumulative_j"), rows)


def fig6() -> ReportTable:
    pu = _REFERENCE.processing_unit
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
    pu = _REFERENCE.processing_unit
    spec = _REFERENCE.payload
    rows = []
    for method in StandardizationMethod:
        flops = preprocessing_flops(method, spec.sample_count, 0)
        _, e_pre = preprocessing_energy(pu, flops)
        per_bit = preprocessing_energy_per_bit(e_pre, spec)
        rows.append((method.value, spec.sample_count, flops.flops, e_pre.joules,
                     per_bit.joules_per_bit))
    return ReportTable(("method", "n_samples", "flops", "e_pre_j", "e_pre_b_j"), rows)


def fig8() -> ReportTable:
    p = _price(_REFERENCE)
    return ReportTable(("component", "energy_j"), [(bar, getattr(p, f)) for bar, f in _FIG8])


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
    reference = _REFERENCE.architecture
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
    return _project(gamma_sweep(_REFERENCE, _GAMMA_GRID), {
        "gamma": "gamma", "ecal_abs_j": "ecal_abs.joules",
        "ecal_abs_mean_j": "ecal_abs_mean.joules"})


def fig12() -> ReportTable:
    return _project(gamma_sweep(_REFERENCE, _GAMMA_GRID),
                    {"gamma": "gamma", "ecal_j_per_b": "ecal.joules_per_bit"})


def table3() -> ReportTable:
    return _project(cf_vs_gamma(_REFERENCE, bundled_ci_table(), [_REFERENCE.gamma]).rows, {
        "country_code": "country_code", "country_name": "country_name",
        "ci_g_per_kwh": "intensity.grams_co2e_per_kwh",
        "cf_development_g": "cf_development_g", "cf_inference_g": "cf_inference_g"})


def fig13() -> ReportTable:
    return _project(cf_vs_gamma(_REFERENCE, bundled_ci_table(), _GAMMA_GRID).rows, {
        "gamma": "gamma", "country_code": "country_code",
        "ci_g_per_kwh": "intensity.grams_co2e_per_kwh", "cf_total_g": "cf_total_g"})
