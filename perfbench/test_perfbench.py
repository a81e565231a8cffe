"""Self-test of the benchmark: deterministic inputs, and a reference that agrees
with ecal and with the paper.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402
from ecal import carbon, lifecycle, scenario_io  # noqa: E402


def _default_scenario():
    return scenario_io.parse_scenario(json.dumps(ref.DEFAULT_DOC)).scenario


def test_inputs_repeat_for_a_seed(tmp_path):
    assert inputs.scenario_block(7) == inputs.scenario_block(7)
    assert inputs.sweep_inputs(7) == inputs.sweep_inputs(7)
    first = json.dumps(inputs.cli_mix(7, str(tmp_path / "a"))).replace(str(tmp_path / "a"), "")
    second = json.dumps(inputs.cli_mix(7, str(tmp_path / "b"))).replace(str(tmp_path / "b"), "")
    assert first == second
    assert (tmp_path / "a" / "lifecycle.json").read_text() == \
        (tmp_path / "b" / "lifecycle.json").read_text()
    assert inputs.scenario_block(7) != inputs.scenario_block(8)
    assert inputs.sweep_inputs(7)[1] != inputs.sweep_inputs(8)[1]


def test_block_shape_does_not_depend_on_the_seed():
    shapes = set()
    for seed in (1, 2, 3):
        block = inputs.scenario_block(seed)
        shapes.add(tuple((e["expect"], e["detail"] if e["expect"] != "priced" else "")
                         for e in block if not e["detail"].startswith("mlp.layers[")))
    assert len(shapes) == 1
    expects = [e["expect"] for e in inputs.scenario_block(1)]
    assert (expects.count("priced"), expects.count("rejected"), expects.count("fault")) == \
        (180, 20, 4)


def test_reference_agrees_with_ecal_on_the_default_scenario():
    s = _default_scenario()
    sc = ref.normalize(ref.DEFAULT_DOC)
    rows = dict(worker.lifecycle_rows(lifecycle.lifecycle_report(s)))
    expected = ref.lifecycle(sc)
    assert list(rows) == list(expected)
    for key, value in expected.items():
        if isinstance(value, int):
            assert rows[key] == value, key
        else:
            ref.close(rows[key], value, key)
    assert rows["B_T_dev_bits"] == 17728
    cf = carbon.cf_vs_gamma(s, carbon.bundled_ci_table(), [1000])
    for row, want in zip(cf.rows, ref.carbon_rows(sc, [1000]), strict=True):
        assert (row.gamma, row.country_code) == want[:2]
        for got, value in zip((row.cf_development_g, row.cf_inference_g, row.cf_total_g),
                              want[3:]):
            ref.close(got, value, row.country_code)


def test_reference_reproduces_the_paper_ratios():
    sc = ref.normalize(ref.DEFAULT_DOC)
    cf = {row[1]: row[5] for row in ref.carbon_rows(sc, [1000])}
    assert abs(cf["DE"] / cf["FI"] - 4.62) <= 0.01
    p = ref.phases(sc)
    ratio = ref.gamma_row(p, 100)[3] / ref.gamma_row(p, 1000)[3]
    assert 1.2 <= ratio <= 1.6
    assert abs(ratio - 1.45) <= 0.01
    s = _default_scenario()
    ecal_ratio = (lifecycle.ecal(replace(s, gamma=100)).joules_per_bit
                  / lifecycle.ecal(s).joules_per_bit)
    ref.close(ecal_ratio, ratio, "eCAL(100)/eCAL(1000)")


def test_reference_checks_catch_a_wrong_digit():
    sc = ref.normalize(ref.DEFAULT_DOC)
    expected = ref.lifecycle(sc)
    good = "metric,value\n" + "".join(f"{k},{v!r}\n" for k, v in expected.items())
    ref.check_key_values(good, expected, "default")
    bad = good.replace(repr(expected["E_D_J"]), repr(expected["E_D_J"] * (1 + 1e-9)))
    with pytest.raises(ref.Mismatch):
        ref.check_key_values(bad, expected, "default")


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_one_operation_passes_its_checks(name):
    api = worker.load_api()
    workload = worker.WORKLOADS[name](3)
    workload.setup(api)
    attempted, failed = workload.check(workload.op(api))
    if name == "scenario_batch":
        assert (attempted, failed) == (204, 4)
    else:
        assert (attempted, failed) == (1, 0)
