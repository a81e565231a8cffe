"""Hypothesis strategies that several test modules draw from.

They build model objects only when drawn, so importing this module constructs
nothing.
"""

import math

from hypothesis import strategies as st

from ecal.lifecycle import Scenario
from ecal.mlp_cost import MlpArchitecture, ProcessingUnitProfile
from ecal.preprocessing import StandardizationMethod
from ecal.storage import BUILTIN_STORAGE, StorageProfile
from ecal.transmission import BUILTIN_TECHNOLOGIES, PayloadSpec, TechnologyProfile


@st.composite
def scenarios(draw):
    """A scenario whose every parameter is drawn from a range the model prices."""
    bits_per_sample = draw(st.sampled_from([16, 32, 64]))
    samples = draw(st.integers(1, 1024))
    # The least split that trains a sample: 1 / samples, or the next float up where
    # the product rounds below 1 (49 * (1 / 49) does).
    least = 1 / samples if samples * (1 / samples) >= 1 else math.nextafter(1 / samples, 1)
    batch = draw(st.integers(1, 200))
    builtin_radio = draw(st.booleans())
    if builtin_radio:
        technology = BUILTIN_TECHNOLOGIES[draw(st.sampled_from(["ble5", "zigbee"]))]
    else:
        f_u = draw(st.integers(256, 4096))
        needed = -(-bits_per_sample * max(samples, batch) // f_u)
        override = draw(st.one_of(st.none(), st.integers(needed, needed + 3)))
        technology = TechnologyProfile(
            "inline", f_u, draw(st.integers(0, 2000)),
            draw(st.floats(1e-3, 0.2)), draw(st.floats(1e3, 2e6)),
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
        train_fraction=draw(st.floats(max(0.05, least), 1.0)),
        epochs=draw(st.integers(1, 30)),
        architecture=MlpArchitecture(layers),
        inference_batch=batch,
        gamma=draw(st.integers(1, 10**6)),
        processing_unit=ProcessingUnitProfile(
            draw(st.floats(1.0, 300.0)),
            draw(st.floats(1e8, 1e11)),
            draw(st.floats(1e6, 1e10)),
        ),
        invalid_samples=draw(st.integers(0, samples - 1)),
        inference_invalid_samples=draw(st.integers(0, batch - 1)),
    )


_OMIT = object()


@st.composite
def boundary_documents(draw):
    """A document whose fields sit at the edges of their rules, the paths of
    the fields drawn out of range, and every (path, value) that would put
    one more field out of range.  Half the documents keep every field in
    range; the other half let any field leave it."""
    free = draw(st.booleans())
    doc: dict = {}
    bad: set = set()
    faults: list = []

    def put(key, good, out, target=doc, at="", optional=False):
        values = [_OMIT] * optional + list(good)
        in_range = len(values)
        if free:
            values += out
        index = draw(st.integers(0, len(values) - 1))
        value = values[index]
        if value is not _OMIT:
            target[key] = value
        if index >= in_range:
            bad.add(at + key)
        faults.extend((at + key, fault) for fault in out)
        return value

    samples = put("samples", [0, 1, 64], [-1])
    put("invalid_samples", [0, max(samples, 0)], [samples + 1], optional=True)
    put("bit_precision", [1, 64], [0], optional=True)
    if draw(st.booleans()):
        doc["technology"] = draw(st.sampled_from(["ble5", "zigbee", "lorawan"]))
    else:
        radio = doc["technology"] = {}
        put("f_u", [1, 2048], [0], radio, "technology.")
        put("omega_u", [0, 100], [-1], radio, "technology.")
        put("p_t_w", [1e-3], [0], radio, "technology.")
        put("r_t_bps", [1e6], [0.0], radio, "technology.")
        put("packets_override", [1, 1000], [0], radio, "technology.", optional=True)
    if draw(st.booleans()):
        doc["storage"] = draw(st.sampled_from(["hdd", "ssd"]))
    else:
        put("wh_per_tb", [0.0, 0.65], [-1.0, float("inf")], doc.setdefault("storage", {}),
            "storage.")
    put("preprocessing", ["minmax", "normalization"], ["zscore"], optional=True)
    split = put("split_ratio", [0.5, 1], [0, 1.5], optional=True)
    if samples == 1 and split in (_OMIT, 0.5):  # 0.5 or the default 0.7 trains no sample
        bad.add("split_ratio")
    put("epochs", [1, 2], [-1, 0])
    widths = draw(st.lists(st.sampled_from([1, 3, 0, 2.5] if free else [1, 3]),
                           min_size=1 if free else 2, max_size=4))
    doc["mlp"] = {"layers": widths}
    bad.update(["mlp.layers"] if len(widths) < 2 else [])
    bad.update(f"mlp.layers[{i}]" for i, width in enumerate(widths) if width in (0, 2.5))
    faults.append(("mlp.layers", [1]))
    faults.extend((f"mlp.layers[{i}]", width) for i in range(len(widths)) for width in (0, 2.5))
    batch = put("inference_batch", [1, 5], [0])
    put("inference_invalid_samples", [0, batch], [batch + 1], optional=True)
    put("gamma", [1, 1000], [0])
    if draw(st.booleans()):
        codes = draw(st.sampled_from([["DE"], ["fi", "ES"]] + [["DEU"], [5]] * free))
        doc["countries"] = codes
        bad.update(["countries[0]"] if codes[0] in ("DEU", 5) else [])
        faults.extend(("countries[0]", code) for code in ("DEU", 5))
    if draw(st.booleans()):
        unit = doc["processing_unit"] = {}
        for key in ("preprocessing_power_w", "preprocessing_flops_per_s", "flops_per_joule"):
            put(key, [1e9], [0.0], unit, "processing_unit.", optional=True)
    return doc, bad, faults
