"""A plain-number model of the README's equations, used to check ecal's outputs.

Nothing here imports ecal.  Scenarios are the JSON documents the input
generator writes, normalized by :func:`normalize`; every count is an exact
int and every energy a float computed in the same order as the equations.
Report values are keyed by the names the ``ecal`` CLI prints.
"""

from __future__ import annotations

import math

# name: (f_u, omega_u, p_t_w, r_t_bps, packets_override)
RADIOS = {
    "ble5": (2120, 168, 3.1628e-3, 1e6, None),
    "zigbee": (1288, 272, 10e-3, 250e3, None),
    "lorawan": (2048, 268, 100e-3, 50e3, 9),
}
MEDIA = {"hdd": 0.65, "ssd": 1.2}
# (preprocessing_power_w, preprocessing_flops_per_s, flops_per_joule)
DEFAULT_PU = (140.0, 1e10, 1.5351e8)
# 2023 grid carbon intensity, gCO2eq/kWh, as the paper publishes it.
CI = {"DE": 425.0, "IE": 382.0, "SI": 239.0, "ES": 160.0, "FI": 92.0}
CI_NAMES = {"DE": "Germany", "IE": "Ireland", "SI": "Slovenia", "ES": "Spain", "FI": "Finland"}
JOULES_PER_KWH = 3.6e6
# The paper's reference scenario, as scenarios/default.json states it.
DEFAULT_DOC = {"samples": 256, "mlp": {"layers": [6, 5, 5, 5, 3]}, "epochs": 10,
               "inference_batch": 77, "gamma": 1000}

RTOL = 1e-12

# Columns of the tables `ecal` renders: a gamma sweep, the per-country carbon
# report, and the total footprint per country (as fig13 has it).
SWEEP_COLUMNS = ("gamma", "ecal_abs_J", "ecal_abs_mean_J", "eCAL_J_per_b")
CARBON_COLUMNS = ("gamma", "country_code", "ci_g_per_kwh", "cf_development_g",
                  "cf_inference_g", "cf_total_g")
CF_TOTAL_COLUMNS = ("gamma", "country_code", "ci_g_per_kwh", "cf_total_g")

# Row counts of each `reproduce` target (header excluded).
REPRODUCE_ROWS = {
    "table1": 3, "table2": 3, "fig2": 128, "fig4": 3, "fig5": 4323, "fig6": 64, "fig7": 2,
    "fig8": 8, "fig9ab": 80, "fig11": 16, "fig12": 16, "table3": 5, "fig13": 80,
}


class Mismatch(AssertionError):
    """An output of ecal disagrees with the reference or a required property."""


def close(actual: float, expected: float, what: str) -> None:
    if not abs(actual - expected) <= RTOL * max(abs(actual), abs(expected)):
        raise Mismatch(f"{what}: got {actual!r}, reference {expected!r}")


def equal(actual, expected, what: str) -> None:
    if actual != expected:
        raise Mismatch(f"{what}: got {actual!r}, reference {expected!r}")


def normalize(doc: dict) -> dict:
    """Apply the documented defaults to a scenario document and resolve names."""
    tech = doc.get("technology", "ble5")
    if isinstance(tech, str):
        radio = RADIOS[tech]
    else:
        radio = (tech["f_u"], tech["omega_u"], float(tech["p_t_w"]), float(tech["r_t_bps"]),
                 tech.get("packets_override"))
    medium = doc.get("storage", "hdd")
    pu = doc.get("processing_unit", {})
    return {
        "samples": doc["samples"],
        "invalid": doc.get("invalid_samples", 0),
        "bits": doc.get("bit_precision", 64),
        "radio": radio,
        "wh_per_tb": MEDIA[medium] if isinstance(medium, str) else float(medium["wh_per_tb"]),
        "method": doc.get("preprocessing", "normalization"),
        "split": float(doc.get("split_ratio", 0.7)),
        "epochs": doc["epochs"],
        "layers": list(doc["mlp"]["layers"]),
        "batch": doc["inference_batch"],
        "batch_invalid": doc.get("inference_invalid_samples", 0),
        "gamma": doc["gamma"],
        "pu": (float(pu.get("preprocessing_power_w", DEFAULT_PU[0])),
               float(pu.get("preprocessing_flops_per_s", DEFAULT_PU[1])),
               float(pu.get("flops_per_joule", DEFAULT_PU[2]))),
        "countries": [c.upper() for c in doc.get("countries", [])],
    }


def packets(payload: int, f_u: int, override: int | None) -> int:
    """Eq. 2: ceil(payload / f_u), or the pinned count when it can carry the payload."""
    if payload == 0:
        return 0
    needed = -(-payload // f_u)
    if override is None:
        return needed
    if override < needed:
        raise ValueError(f"packets_override={override} cannot carry {payload} bits")
    return override


def transmitted_bits(payload: int, radio) -> int:
    f_u, omega_u, _, _, override = radio
    return payload + omega_u * packets(payload, f_u, override)


def transmission_energy(b_t: int, radio) -> float:
    return radio[2] / radio[3] * b_t


def storage_energy(payload: int, wh_per_tb: float) -> float:
    return wh_per_tb * 3600.0 / 8e12 * payload


def preprocessing_flops(method: str, n: int, invalid: int) -> int:
    valid = n - invalid
    if valid < 1:
        raise ValueError(f"need at least one valid sample, got n_s={n}")
    return 2 * valid - 1 if method == "minmax" else 6 * valid - 3


def preprocessing_time_energy(flops: int, power_w: float, flops_per_s: float):
    t_pre = flops / flops_per_s
    return t_pre, power_w * t_pre


def forward_flops(layers) -> int:
    return sum(2 * fan_in * width + 2 * width for fan_in, width in zip(layers, layers[1:]))


def _collection(sc: dict, n: int, invalid: int):
    payload = sc["bits"] * n
    b_t = transmitted_bits(payload, sc["radio"])
    flops = preprocessing_flops(sc["method"], n, invalid)
    _, e_pre = preprocessing_time_energy(flops, sc["pu"][0], sc["pu"][1])
    return b_t, transmission_energy(b_t, sc["radio"]), storage_energy(payload, sc["wh_per_tb"]), e_pre


def split(samples: int, fraction: float) -> tuple[int, int]:
    n_train = math.floor(fraction * samples)
    return n_train, samples - n_train


def train_cost(sc: dict) -> dict:
    """What `ecal train-cost` prints for a scenario."""
    fpj = sc["pu"][2]
    fwd = forward_flops(sc["layers"])
    n_train, n_eval = split(sc["samples"], sc["split"])
    m_fp = sc["epochs"] * n_train * fwd
    per_bit = fwd / (sc["bits"] * fpj)
    return {
        "M_FP": fwd, "M_MLP_FP": m_fp, "M_MLP": 3 * m_fp, "N_inf_flops": fwd * sc["batch"],
        "E_train_J": 3 * m_fp / fpj, "E_train_b_J_per_b": 3 * fwd / (sc["bits"] * fpj),
        "E_eval_J": fwd * n_eval / fpj, "E_eval_b_J_per_b": per_bit,
        "E_inf_J": fwd * sc["batch"] / fpj,
    }


def phases(sc: dict) -> dict:
    """Development energy E_D and per-request energy E_req, with their bit counts."""
    bits = sc["bits"]
    fpj = sc["pu"][2]
    fwd = forward_flops(sc["layers"])
    n_train, n_eval = split(sc["samples"], sc["split"])
    b_t, e_t, e_s, e_pre = _collection(sc, sc["samples"], sc["invalid"])
    e_train = 3 * (sc["epochs"] * n_train * fwd) / fpj
    e_eval = fwd * n_eval / fpj
    e_d = e_t + e_s + e_pre + e_train + e_eval
    dev_bits = b_t + bits * (2 * sc["samples"] + n_train + n_eval)
    rb_t, re_t, re_s, re_pre = _collection(sc, sc["batch"], sc["batch_invalid"])
    e_inf = fwd * sc["batch"] / fpj
    e_req = re_t + re_s + re_pre + e_inf
    req_bits = rb_t + 3 * bits * sc["batch"]
    return {
        "b_t": b_t, "e_t": e_t, "e_s": e_s, "e_pre": e_pre, "e_train": e_train,
        "e_eval": e_eval, "e_d": e_d, "dev_bits": dev_bits, "n_train": n_train,
        "rb_t": rb_t, "e_inf": e_inf, "e_req": e_req, "req_bits": req_bits, "fwd": fwd,
    }


def gamma_row(p: dict, gamma: int) -> tuple[int, float, float, float]:
    """(gamma, eCAL_abs, eCAL_abs_mean, eCAL) at one request count."""
    abs_j = p["e_d"] + gamma * p["e_req"]
    return gamma, abs_j, abs_j / gamma, abs_j / (p["dev_bits"] + gamma * p["req_bits"])


def lifecycle(sc: dict) -> dict:
    """What `ecal lifecycle` prints for a scenario, keyed like the CLI."""
    p = phases(sc)
    bits, fpj, gamma = sc["bits"], sc["pu"][2], sc["gamma"]
    _, abs_j, mean_j, ecal = gamma_row(p, gamma)
    trained_bits = bits * p["n_train"]
    return {
        "gamma": gamma, "B_T_dev_bits": p["b_t"], "dev_denominator_bits": p["dev_bits"],
        "B_T_inf_bits": p["rb_t"], "inf_denominator_bits": p["req_bits"],
        "E_T_J": p["e_t"], "E_storage_J": p["e_s"], "E_pre_J": p["e_pre"],
        "E_train_J": p["e_train"], "E_eval_J": p["e_eval"], "E_inf_J": p["e_inf"],
        "E_D_J": p["e_d"], "E_D_b_J_per_b": p["e_d"] / p["dev_bits"],
        "E_train_b_J_per_b": 3 * p["fwd"] / (bits * fpj),
        "E_train_per_trained_bit_J_per_b": p["e_train"] / trained_bits if trained_bits else 0.0,
        "E_inf_p_J": p["e_req"], "E_inf_p_b_J_per_b": p["e_req"] / p["req_bits"],
        "eCAL_abs_J": abs_j, "eCAL_abs_mean_J": mean_j, "eCAL_J_per_b": ecal,
    }


def carbon_grams(joules: float, ci: float) -> float:
    return joules / JOULES_PER_KWH * ci


def carbon_rows(sc: dict, gammas) -> list[tuple]:
    """(gamma, code, ci, cf_dev, cf_inf, cf_total) rows, highest intensity first."""
    p = phases(sc)
    codes = sc["countries"] or list(CI)
    codes = sorted(codes, key=lambda c: (-CI[c], c))
    rows = []
    for gamma in gammas:
        total = p["e_d"] + gamma * p["e_req"]
        for code in codes:
            ci = CI[code]
            rows.append((gamma, code, ci, carbon_grams(p["e_d"], ci),
                         carbon_grams(p["e_req"], ci), carbon_grams(total, ci)))
    return rows


# --- checks of rendered outputs --------------------------------------------

def _cells(line: str, width: int, what: str) -> list[str]:
    cells = line.split(",")
    if len(cells) != width:
        raise Mismatch(f"{what}: expected {width} cells, got {line!r}")
    return cells


def check_key_values(csv_text: str, expected: dict, what: str) -> None:
    """A `metric,value` table equals the reference: ints exactly, floats to RTOL."""
    lines = csv_text.split("\n")
    equal(lines[0], "metric,value", f"{what} header")
    equal(lines[-1], "", f"{what} trailing newline")
    body = lines[1:-1]
    equal([line.split(",")[0] for line in body], list(expected), f"{what} metric names")
    for line in body:
        key, text = _cells(line, 2, what)
        check_cell(text, expected[key], f"{what} {key}")


def check_cell(text: str, expected, what: str) -> None:
    if isinstance(expected, int):
        equal(text, str(expected), what)
    elif isinstance(expected, float):
        close(float(text), expected, what)
    else:
        equal(text, str(expected), what)


def check_rows(csv_text: str, columns, expected_rows, what: str) -> None:
    """A CSV table has ``columns`` and exactly the reference rows, in order."""
    lines = csv_text.split("\n")
    equal(lines[0], ",".join(columns), f"{what} header")
    equal(lines[-1], "", f"{what} trailing newline")
    equal(len(lines) - 2, len(expected_rows), f"{what} row count")
    for index, (line, expected) in enumerate(zip(lines[1:-1], expected_rows)):
        for text, value in zip(_cells(line, len(columns), what), expected):
            check_cell(text, value, f"{what} row {index}")


def check_gamma_properties(rows) -> None:
    """eCAL_abs is affine in gamma and eCAL_abs_mean strictly decreases with it.

    ``rows`` are (gamma, eCAL_abs, eCAL_abs_mean) as ecal rendered them.
    """
    rows = sorted(rows)
    (g_lo, a_lo, _), (g_hi, a_hi, _) = rows[0], rows[-1]
    slope = (a_hi - a_lo) / (g_hi - g_lo)
    for gamma, abs_j, _ in rows:
        close(abs_j, a_lo + slope * (gamma - g_lo), f"eCAL_abs affine at gamma={gamma}")
    for (g0, _, m0), (g1, _, m1) in zip(rows, rows[1:]):
        if not (g1 > g0 and m1 < m0):
            raise Mismatch(f"eCAL_abs_mean not strictly decreasing: {g0}->{m0!r}, {g1}->{m1!r}")


def check_intensity_ratios(rows) -> None:
    """Within one gamma, CF(country)/CF(FI) equals CI(country)/CI(FI); rows are
    (gamma, code, cf_total)."""
    by_gamma: dict[int, dict[str, float]] = {}
    for gamma, code, cf in rows:
        by_gamma.setdefault(gamma, {})[code] = cf
    for gamma, cfs in by_gamma.items():
        base = min(cfs, key=lambda c: CI[c])
        for code, cf in cfs.items():
            close(cf / cfs[base], CI[code] / CI[base], f"CF({code})/CF({base}) at gamma={gamma}")


def check_fig5(csv_text: str) -> None:
    """fig5 point k is k times one transfer of 256 double samples."""
    per_transfer = {name: transmission_energy(transmitted_bits(64 * 256, radio), radio)
                    for name, radio in RADIOS.items()}
    lines = csv_text.split("\n")
    equal(lines[0], "technology,time_s,e_t_cumulative_j", "fig5 header")
    for line in lines[1:-1]:
        name, time_s, energy = _cells(line, 3, "fig5")
        k = round(float(time_s) / 60.0)
        close(float(energy), k * per_transfer[name], f"fig5 {name} point {k}")
