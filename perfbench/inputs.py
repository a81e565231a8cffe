"""Seeded inputs of the three workloads.  Nothing here imports ecal.

The same seed always gives the same inputs.  Structure (which fields a
document sets, how many hidden layers, how many countries) follows a
document's position in its block, and the seed picks the values, so every
seed gives a block of the same shape and nearly the same cost.
"""

from __future__ import annotations

import json
import os
import random

from reference import CI, RADIOS, packets

GAMMA_SWEEP_ROWS = 2_000
GAMMA_MAX = 1_000_000
BLOCK_SEEDED = 200

COUNTRY_CODES = tuple(CI)

# parse_scenario accepts these, but the model then rejects them with no field
# path.  They are fixed, so every block fails exactly these four documents.
FAULT_DOCS = (
    ({"samples": 0, "mlp": {"layers": [6, 5, 3]}, "epochs": 5, "inference_batch": 16,
      "gamma": 100}, "need at least one valid sample"),
    ({"samples": 64, "invalid_samples": 64, "mlp": {"layers": [6, 5, 3]}, "epochs": 5,
      "inference_batch": 16, "gamma": 100}, "need at least one valid sample"),
    ({"samples": 64, "mlp": {"layers": [6, 5, 3]}, "epochs": 5, "inference_batch": 16,
      "inference_invalid_samples": 16, "gamma": 100}, "need at least one valid sample"),
    ({"samples": 64, "technology": {"name": "pinned", "f_u": 1024, "omega_u": 64,
                                    "p_t_w": 0.01, "r_t_bps": 1e5, "packets_override": 1},
      "mlp": {"layers": [6, 5, 3]}, "epochs": 5, "inference_batch": 16, "gamma": 100},
     "packets_override=1"),
)


def scenario_doc(rng: random.Random, position: int) -> dict:
    """One valid scenario document; ``position`` fixes its structure."""
    bits = (16, 32, 64)[position % 3]
    tech_kind = position % 5
    doc: dict = {"bit_precision": bits}
    if tech_kind < 3:
        name = ("ble5", "zigbee", "lorawan")[tech_kind]
        doc["technology"] = name
        radio = RADIOS[name]
    else:
        radio = (rng.randrange(256, 4097), rng.randrange(0, 2001),
                 round(rng.uniform(1e-3, 0.2), 6), float(rng.randrange(1000, 2_000_001)), None)
        doc["technology"] = {"name": f"radio{position}", "f_u": radio[0], "omega_u": radio[1],
                             "p_t_w": radio[2], "r_t_bps": radio[3]}
    # LoRaWAN pins 9 packets of 2048 bits, so its payloads must fit in 9 packets.
    max_samples = 9 * 2048 // bits if tech_kind == 2 else 1024
    samples = rng.randrange(16, max_samples + 1)
    batch = rng.randrange(1, min(200, max_samples) + 1)
    doc["samples"] = samples
    doc["inference_batch"] = batch
    if position % 2:
        doc["invalid_samples"] = rng.randrange(0, samples // 4 + 1)
        doc["inference_invalid_samples"] = rng.randrange(0, batch // 4 + 1)
    if tech_kind == 4:
        needed = max(packets(bits * samples, radio[0], None), packets(bits * batch, radio[0], None))
        doc["technology"]["packets_override"] = needed + rng.randrange(0, 4)
    storage_kind = position % 3
    doc["storage"] = ("hdd", "ssd")[storage_kind] if storage_kind < 2 else {
        "name": f"medium{position}", "wh_per_tb": round(rng.uniform(0.1, 5.0), 4)}
    doc["preprocessing"] = ("minmax", "normalization")[position % 2]
    doc["split_ratio"] = round(rng.uniform(0.5, 0.9), 3)
    doc["epochs"] = rng.randrange(1, 31)
    hidden = 1 + position % 6
    doc["mlp"] = {"layers": [rng.randrange(2, 17)]
                  + [rng.randrange(1, 33) for _ in range(hidden)] + [rng.randrange(1, 9)]}
    doc["gamma"] = rng.randrange(1, 100_001)
    pu_kind = position % 4
    if pu_kind == 1:
        doc["processing_unit"] = {"flops_per_joule": float(rng.randrange(10**7, 10**10))}
    elif pu_kind == 2:
        doc["processing_unit"] = {
            "preprocessing_power_w": round(rng.uniform(10.0, 400.0), 3),
            "preprocessing_flops_per_s": float(rng.randrange(10**8, 10**11)),
            "flops_per_joule": float(rng.randrange(10**7, 10**10)),
        }
    n_countries = position % 7
    if n_countries:
        doc["countries"] = rng.sample(COUNTRY_CODES, min(n_countries, len(COUNTRY_CODES)))
    if position % 8 == 3:
        doc["sweeps"] = {"gamma": sorted(rng.sample(range(1, 100_001), 4))}
    elif position % 8 == 7:
        doc["sweeps"] = {"gamma": [rng.randrange(1, 1001)],
                         "overhead_pct": [round(rng.uniform(0, 100), 2)],
                         "invalid_samples": [rng.randrange(0, 10)]}
    return doc


def rejected_doc(rng: random.Random, position: int) -> tuple[dict, str]:
    """A document parse_scenario must reject, and the field path its error names.

    The kind of fault follows ``position``, so every block rejects the same
    mix of fields at the same parsing depth.
    """
    doc = scenario_doc(rng, position)
    kind, choice = divmod(position // 10 % 12, 4)
    if kind == 0:  # unknown field
        if choice == 0 and isinstance(doc["technology"], dict):
            doc["technology"]["gain_db"] = 3
            return doc, "technology.gain_db"
        key = ("samplez", "gama", "layers", "epoch")[choice]
        doc[key] = 1
        return doc, key
    if kind == 1:  # wrong type
        if choice == 0:
            doc["epochs"] = str(doc["epochs"])
            return doc, "epochs"
        if choice == 1:
            doc["split_ratio"] = str(doc["split_ratio"])
            return doc, "split_ratio"
        if choice == 2:
            index = rng.randrange(1, len(doc["mlp"]["layers"]))
            doc["mlp"]["layers"][index] = doc["mlp"]["layers"][index] + 0.5
            return doc, f"mlp.layers[{index}]"
        doc["countries"] = "DE"
        return doc, "countries"
    # out of range
    if choice == 0:
        doc["gamma"] = 0
        return doc, "gamma"
    if choice == 1:
        doc["split_ratio"] = 1.0 + rng.uniform(0.01, 1.0)
        return doc, "split_ratio"
    if choice == 2:
        doc["invalid_samples"] = doc["samples"] + rng.randrange(1, 10)
        return doc, "invalid_samples"
    doc["epochs"] = -rng.randrange(0, 5)
    return doc, "epochs"


def scenario_block(seed: int) -> list[dict]:
    """The scenario_batch block: 200 seeded documents, every tenth one invalid,
    then the four fixed fault documents.

    Each entry is ``{"text", "doc", "expect", "detail"}`` where ``expect`` is
    "priced", "rejected" (``detail`` is the field path) or "fault"
    (``detail`` is the start of the model's error message).
    """
    rng = random.Random(f"scenario_batch/{seed}")
    block = []
    for position in range(BLOCK_SEEDED):
        if position % 10 == 9:
            doc, path = rejected_doc(rng, position)
            block.append({"doc": doc, "expect": "rejected", "detail": path})
        else:
            block.append({"doc": scenario_doc(rng, position), "expect": "priced", "detail": ""})
    for doc, message in FAULT_DOCS:
        block.append({"doc": doc, "expect": "fault", "detail": message})
    for entry in block:
        entry["text"] = json.dumps(entry["doc"])
    return block


def sweep_inputs(seed: int) -> tuple[dict, list[int]]:
    """The gamma_sweep scenario (all bundled countries) and its distinct request counts."""
    rng = random.Random(f"gamma_sweep/{seed}")
    doc = scenario_doc(rng, rng.randrange(0, 6 * 7 * 5, 7))  # a position with no country list
    doc.pop("sweeps", None)
    gammas = rng.sample(range(1, GAMMA_MAX + 1), GAMMA_SWEEP_ROWS)
    return doc, gammas


def cli_mix(seed: int, workdir: str) -> list[dict]:
    """One pass of the cli_calls mix; writes its scenario files into ``workdir``.

    Each entry is ``{"name", "argv", "check"}``: ``argv`` follows
    ``python -m ecal`` and ``check`` holds what the output check needs.
    """
    rng = random.Random(f"cli_calls/{seed}")
    os.makedirs(workdir, exist_ok=True)
    lifecycle_doc = scenario_doc(rng, 13)  # inline radio, 2 hidden layers, no sweep block
    carbon_doc = scenario_doc(rng, 4)  # inline radio with a pinned packet count, 4 countries
    paths = {}
    for name, doc in (("lifecycle", lifecycle_doc), ("carbon", carbon_doc)):
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    tech = rng.choice(("ble5", "zigbee"))
    precision = rng.choice((32, 64))
    samples = rng.randrange(16, 1025)
    medium = rng.choice(("hdd", "ssd"))
    method = rng.choice(("minmax", "normalization"))
    invalid = rng.randrange(0, samples // 4)
    sweep = sorted(rng.sample(range(1, 100_001), 50))
    reproduce_dir = os.path.join(workdir, "reproduce")
    return [
        {"name": "transmit",
         "argv": ["transmit", "--tech", tech, "--samples", str(samples),
                  "--precision", str(precision)],
         "check": {"tech": tech, "samples": samples, "precision": precision}},
        {"name": "storage",
         "argv": ["storage", "--storage", medium, "--samples", str(samples),
                  "--precision", str(precision)],
         "check": {"medium": medium, "samples": samples, "precision": precision}},
        {"name": "preprocess",
         "argv": ["preprocess", "--method", method, "--samples", str(samples),
                  "--invalid", str(invalid)],
         "check": {"method": method, "samples": samples, "invalid": invalid}},
        {"name": "train-cost", "argv": ["train-cost", "--scenario", paths["lifecycle"]],
         "check": {"doc": lifecycle_doc}},
        {"name": "lifecycle", "argv": ["lifecycle", "--scenario", paths["lifecycle"]],
         "check": {"doc": lifecycle_doc}},
        {"name": "lifecycle-sweep",
         "argv": ["lifecycle", "--scenario", paths["lifecycle"],
                  "--gamma-sweep", ",".join(map(str, sweep))],
         "check": {"doc": lifecycle_doc, "gammas": sweep}},
        {"name": "carbon", "argv": ["carbon", "--scenario", paths["carbon"]],
         "check": {"doc": carbon_doc}},
        {"name": "carbon-json", "argv": ["carbon", "--scenario", paths["carbon"], "--json"],
         "check": {"doc": carbon_doc}},
        {"name": "reproduce", "argv": ["reproduce", "--target", "all", "--out", reproduce_dir],
         "check": {"dir": reproduce_dir}},
    ]
