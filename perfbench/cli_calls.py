"""The cli_calls workload: passes over a fixed mix of `python -m ecal` calls.

Each call is its own process, timed from start to exit; one call runs at a
time.  Outputs go to files and are checked after the pass, outside the
timing: the first pass in full against the reference, every later pass for
identical bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import inputs
import reference as ref
from reference import Mismatch


def call(argv: list[str], out_path: str, env: dict) -> tuple[float, int, int]:
    """Run ``python -m ecal ARGV`` with stdout in ``out_path``.

    Returns wall seconds, exit code and the child's peak RSS in KiB.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ecal", *argv], stdout=out, stderr=err,
                                env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def run_pass(mix: list[dict], workdir: str, env: dict, wrap=None) -> tuple[list, dict, int]:
    """One pass of the mix; returns each call's wall seconds, the outputs by call
    name and the peak RSS."""
    times = []
    peak_kb = 0
    for entry in mix:
        out_path = os.path.join(workdir, entry["name"] + ".out")
        runner = call if wrap is None else wrap(f"cli.{entry['name']}", call)
        elapsed, code, rss_kb = runner(entry["argv"], out_path, env)
        times.append(elapsed)
        peak_kb = max(peak_kb, rss_kb)
        if code != 0:
            with open(out_path + ".err", encoding="utf-8") as handle:
                raise Mismatch(f"ecal {' '.join(entry['argv'])} exited {code}: {handle.read()}")
    return times, read_outputs(mix, workdir), peak_kb


def read_outputs(mix: list[dict], workdir: str) -> dict:
    outputs = {}
    for entry in mix:
        with open(os.path.join(workdir, entry["name"] + ".out"), encoding="utf-8") as handle:
            outputs[entry["name"]] = handle.read()
    reproduce_dir = mix[-1]["check"]["dir"]
    for target in ref.REPRODUCE_ROWS:
        with open(os.path.join(reproduce_dir, f"{target}.csv"), encoding="utf-8") as handle:
            outputs[f"reproduce/{target}"] = handle.read()
    return outputs


def check(mix: list[dict], outputs: dict) -> None:
    """Every output of one pass against the reference and the model's properties."""
    by_name = {entry["name"]: entry["check"] for entry in mix}
    c = by_name["transmit"]
    radio = ref.RADIOS[c["tech"]]
    payload = c["precision"] * c["samples"]
    b_t = ref.transmitted_bits(payload, radio)
    ref.check_key_values(outputs["transmit"], {
        "payload_bits": payload, "packets": ref.packets(payload, radio[0], radio[4]),
        "B_T": b_t, "E_T_J": ref.transmission_energy(b_t, radio),
        "E_T_b_J_per_b": radio[2] / radio[3]}, "transmit")

    c = by_name["storage"]
    payload = c["precision"] * c["samples"]
    ref.check_key_values(outputs["storage"], {
        "payload_bits": payload, "E_storage_J": ref.storage_energy(payload, ref.MEDIA[c["medium"]]),
        "E_storage_b_J_per_b": ref.MEDIA[c["medium"]] * 3600.0 / 8e12}, "storage")

    c = by_name["preprocess"]
    flops = ref.preprocessing_flops(c["method"], c["samples"], c["invalid"])
    t_pre, e_pre = ref.preprocessing_time_energy(flops, 140.0, 1e10)
    ref.check_key_values(outputs["preprocess"], {
        "flops": flops, "T_pre_s": t_pre, "E_pre_J": e_pre,
        "E_pre_b_J_per_b": e_pre / (64 * c["samples"])}, "preprocess")

    sc = ref.normalize(by_name["lifecycle"]["doc"])
    ref.check_key_values(outputs["train-cost"], ref.train_cost(sc), "train-cost")
    ref.check_key_values(outputs["lifecycle"], ref.lifecycle(sc), "lifecycle")
    gammas = by_name["lifecycle-sweep"]["gammas"]
    p = ref.phases(sc)
    ref.check_rows(outputs["lifecycle-sweep"], ref.SWEEP_COLUMNS,
                   [ref.gamma_row(p, g) for g in gammas], "lifecycle --gamma-sweep")
    rendered = [line.split(",") for line in outputs["lifecycle-sweep"].split("\n")[1:-1]]
    ref.check_gamma_properties([(int(g), float(a), float(m)) for g, a, m, _ in rendered])

    sc = ref.normalize(by_name["carbon"]["doc"])
    expected = ref.carbon_rows(sc, [sc["gamma"]])
    ref.check_rows(outputs["carbon"], ref.CARBON_COLUMNS, expected, "carbon")
    ref.check_intensity_ratios([(row[0], row[1], row[5]) for row in expected])
    doc = json.loads(outputs["carbon-json"])
    ref.equal(doc["columns"], list(ref.CARBON_COLUMNS), "carbon --json columns")
    ref.equal(len(doc["rows"]), len(expected), "carbon --json row count")
    for row, want in zip(doc["rows"], expected):
        ref.equal(row[:2], list(want[:2]), "carbon --json row key")
        for got, value in zip(row[2:], want[2:]):
            ref.close(got, value, f"carbon --json {row[1]}")
    ref.check_intensity_ratios([(row[0], row[1], row[5]) for row in doc["rows"]])

    for target, n_rows in ref.REPRODUCE_ROWS.items():
        ref.equal(outputs[f"reproduce/{target}"].count("\n") - 1, n_rows, f"{target}.csv rows")
    ref.check_fig5(outputs["reproduce/fig5"])
    sc = ref.normalize(ref.DEFAULT_DOC)
    r = ref.lifecycle(sc)
    ref.check_rows(outputs["reproduce/fig8"], ("component", "energy_j"), [
        ("transmission", r["E_T_J"]), ("storage", r["E_storage_J"]),
        ("preprocessing", r["E_pre_J"]), ("training", r["E_train_J"]),
        ("evaluation", r["E_eval_J"]), ("inference", r["E_inf_J"]),
        ("development_total", r["E_D_J"]), ("inference_phase_total", r["E_inf_p_J"])], "fig8")
    ref.check_rows(outputs["reproduce/table3"],
                   ("country_code", "country_name", "ci_g_per_kwh", "cf_development_g",
                    "cf_inference_g"),
                   [(code, ref.CI_NAMES[code], ci, dev, inf)
                    for _, code, ci, dev, inf, _ in ref.carbon_rows(sc, [sc["gamma"]])],
                   "table3")


def run_rounds(seed: int, seconds: float, rounds: int, env: dict, outdir: str,
               tracer=None) -> dict:
    """``rounds`` rounds, each a first (set-up) pass and then timed passes for an
    equal share of ``seconds``.  Passes are operations."""
    workdir = os.path.join(outdir, f"cli-seed{seed}")
    mix = inputs.cli_mix(seed, workdir)
    try:
        return _run_rounds(mix, workdir, seconds, rounds, env, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_rounds(mix, workdir, seconds, rounds, env, tracer) -> dict:
    wrap = None
    if tracer is not None:
        wrap = tracer.wrap
        run = tracer.wrap("op", run_pass)
    else:
        run = run_pass
    setups, op_s, call_s = [], [], {}
    peak_kb = 0
    first = None
    for _ in range(rounds):
        times, outputs, rss_kb = run(mix, workdir, env, wrap)
        setups.append(sum(times))
        peak_kb = max(peak_kb, rss_kb)
        if first is None:
            check(mix, outputs)
            first = outputs
        elif outputs != first:
            raise Mismatch("identical cli passes wrote different outputs")
        deadline = time.perf_counter() + seconds / rounds
        timed_before = len(op_s)
        while len(op_s) == timed_before or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.op += 1
            times, outputs, rss_kb = run(mix, workdir, env, wrap)
            op_s.append(sum(times))
            for entry, elapsed in zip(mix, times):
                call_s.setdefault(entry["name"], []).append(elapsed)
            peak_kb = max(peak_kb, rss_kb)
            if outputs != first:
                raise Mismatch("identical cli passes wrote different outputs")
    return {"setups": setups, "op_s": op_s, "call_s": call_s, "attempted": len(op_s), "failed": 0,
            "maxrss_kb": peak_kb, "correct": True}
