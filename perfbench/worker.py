"""One fresh interpreter that runs ecal in process for the gamma_sweep and
scenario_batch workloads.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUTDIR

MODE is ``run`` (set-up, then a timed closed loop), ``trace`` (the same loop
with spans around every call into ecal), ``count`` (one operation under a
call-counting profile hook) or ``probe`` (per-layer timings).  The result is
one JSON object on the last line of stdout.  Inputs are generated before
ecal is imported, so set-up time covers only ecal's own work.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from types import SimpleNamespace

import inputs
import reference as ref
from reference import Mismatch

MODULES = ("units", "transmission", "storage", "preprocessing", "mlp_cost", "lifecycle",
           "carbon", "scenario_io", "cli")


def load_api() -> SimpleNamespace:
    """Import ecal and name the public calls the workloads make, by layer."""
    from ecal import carbon, lifecycle, scenario_io

    return SimpleNamespace(
        parse_scenario=scenario_io.parse_scenario,
        ScenarioError=scenario_io.ScenarioError,
        ReportTable=scenario_io.ReportTable,
        to_csv=scenario_io.ReportTable.to_csv,
        lifecycle_report=lifecycle.lifecycle_report,
        gamma_sweep=lifecycle.gamma_sweep,
        cf_vs_gamma=carbon.cf_vs_gamma,
        bundled_ci_table=carbon.bundled_ci_table,
    )


TRACED_CALLS = {
    "parse_scenario": "scenario_io.parse_scenario",
    "ReportTable": "scenario_io.ReportTable",
    "to_csv": "scenario_io.to_csv",
    "lifecycle_report": "lifecycle.lifecycle_report",
    "gamma_sweep": "lifecycle.gamma_sweep",
    "cf_vs_gamma": "carbon.cf_vs_gamma",
}


def lifecycle_rows(report) -> list[tuple]:
    """The rows `ecal lifecycle` prints for a report, in the order reference.lifecycle gives them."""
    return [
        ("gamma", report.gamma),
        ("B_T_dev_bits", report.transmitted_bits_development.bits),
        ("dev_denominator_bits", report.development_denominator_bits.bits),
        ("B_T_inf_bits", report.transmitted_bits_inference.bits),
        ("inf_denominator_bits", report.inference_denominator_bits.bits),
        ("E_T_J", report.transmission.joules),
        ("E_storage_J", report.storage.joules),
        ("E_pre_J", report.preprocessing.joules),
        ("E_train_J", report.training.joules),
        ("E_eval_J", report.evaluation.joules),
        ("E_inf_J", report.inference.joules),
        ("E_D_J", report.development.joules),
        ("E_D_b_J_per_b", report.development_per_bit.joules_per_bit),
        ("E_train_b_J_per_b", report.training_per_bit.joules_per_bit),
        ("E_train_per_trained_bit_J_per_b", report.training_per_trained_bit.joules_per_bit),
        ("E_inf_p_J", report.inference_phase.joules),
        ("E_inf_p_b_J_per_b", report.inference_phase_per_bit.joules_per_bit),
        ("eCAL_abs_J", report.ecal_abs.joules),
        ("eCAL_abs_mean_J", report.ecal_abs_mean.joules),
        ("eCAL_J_per_b", report.ecal.joules_per_bit),
    ]


class GammaSweep:
    """One scenario priced at 2,000 request counts in 5 countries, then rendered to CSV twice."""

    def __init__(self, seed: int) -> None:
        self.doc, self.gammas = inputs.sweep_inputs(seed)
        self.text = json.dumps(self.doc)

    def setup(self, api) -> None:
        self.scenario = api.parse_scenario(self.text).scenario
        self.ci_table = api.bundled_ci_table()

    def op(self, api):
        rows = api.gamma_sweep(self.scenario, self.gammas)
        sweep = api.ReportTable(
            ref.SWEEP_COLUMNS,
            [(r.gamma, r.ecal_abs.joules, r.ecal_abs_mean.joules, r.ecal.joules_per_bit)
             for r in rows])
        report = api.cf_vs_gamma(self.scenario, self.ci_table, self.gammas)
        carbon = api.ReportTable(
            ref.CF_TOTAL_COLUMNS,
            [(r.gamma, r.country_code, r.intensity.grams_co2e_per_kwh, r.cf_total_g)
             for r in report.rows])
        return api.to_csv(sweep), api.to_csv(carbon)

    def check(self, outputs) -> tuple[int, int]:
        sweep_csv, carbon_csv = outputs
        sc = ref.normalize(self.doc)
        p = ref.phases(sc)
        ref.check_rows(sweep_csv, ref.SWEEP_COLUMNS, [ref.gamma_row(p, g) for g in self.gammas],
                       "gamma_sweep")
        cf_rows = [(g, code, ci, total) for g, code, ci, _, _, total
                   in ref.carbon_rows(sc, self.gammas)]
        ref.check_rows(carbon_csv, ref.CF_TOTAL_COLUMNS, cf_rows, "cf_vs_gamma")
        rendered = [line.split(",") for line in sweep_csv.split("\n")[1:-1]]
        ref.check_gamma_properties([(int(g), float(a), float(m)) for g, a, m, _ in rendered])
        rendered = [line.split(",") for line in carbon_csv.split("\n")[1:-1]]
        ref.check_intensity_ratios([(int(g), code, float(cf)) for g, code, _, cf in rendered])
        return 1, 0


class ScenarioBatch:
    """A block of seeded scenario documents, each parsed, priced at its own gamma
    and rendered to two small CSV tables."""

    def __init__(self, seed: int) -> None:
        self.block = inputs.scenario_block(seed)
        self.texts = [entry["text"] for entry in self.block]

    def setup(self, api) -> None:
        self.ci_table = api.bundled_ci_table()

    def op(self, api):
        out = []
        for text in self.texts:
            try:
                doc = api.parse_scenario(text)
            except api.ScenarioError as exc:
                out.append(("rejected", str(exc)))
                continue
            s = doc.scenario
            try:
                report = api.lifecycle_report(s)
            except ValueError as exc:
                out.append(("model_error", str(exc)))
                continue
            cf = api.cf_vs_gamma(s, self.ci_table, [s.gamma])
            lifecycle_csv = api.to_csv(api.ReportTable(("metric", "value"), lifecycle_rows(report)))
            carbon_csv = api.to_csv(api.ReportTable(
                ref.CARBON_COLUMNS,
                [(r.gamma, r.country_code, r.intensity.grams_co2e_per_kwh, r.cf_development_g,
                  r.cf_inference_g, r.cf_total_g) for r in cf.rows]))
            out.append(("priced", lifecycle_csv, carbon_csv))
        return out

    def check(self, outputs) -> tuple[int, int]:
        """Counts documents; a fault document that fails as expected counts as failed."""
        failed = 0
        for index, (entry, outcome) in enumerate(zip(self.block, outputs)):
            what = f"document {index}"
            expect, detail = entry["expect"], entry["detail"]
            if outcome[0] == "rejected":
                message = outcome[1]
                if expect == "priced":
                    raise Mismatch(f"{what}: valid document rejected: {message}")
                if expect == "rejected" and not message.startswith(f"{detail}: "):
                    raise Mismatch(f"{what}: error does not name {detail!r}: {message}")
                head, sep, _ = message.partition(": ")
                if not sep or " " in head:
                    raise Mismatch(f"{what}: rejection names no field path: {message}")
                continue
            if outcome[0] == "model_error":
                if expect != "fault" or not outcome[1].startswith(detail):
                    raise Mismatch(f"{what}: unexpected model error: {outcome[1]}")
                failed += 1
                continue
            if expect == "rejected":
                raise Mismatch(f"{what}: invalid document accepted (expected {detail} error)")
            sc = ref.normalize(entry["doc"])
            ref.check_key_values(outcome[1], ref.lifecycle(sc), f"{what} lifecycle")
            ref.check_rows(outcome[2], ref.CARBON_COLUMNS, ref.carbon_rows(sc, [sc["gamma"]]),
                           f"{what} carbon")
        return len(outputs), failed


WORKLOADS = {"gamma_sweep": GammaSweep, "scenario_batch": ScenarioBatch}


def run_loop(workload, seconds: float, api_hook=None, on_op=None) -> dict:
    """Set up, then repeat the operation for ``seconds``; only ecal's work is timed.

    Set-up is importing ecal, loading the bundled intensity table and the
    first operation.  Every later operation must return the same bytes as the
    first, which is checked in full against the reference.
    """
    start = time.perf_counter()
    api = load_api()
    if api_hook is not None:
        api = api_hook(api)
    workload.setup(api)
    first = workload.op(api)
    setup_s = time.perf_counter() - start
    per_attempted, per_failed = workload.check(first)
    op_s = []
    deadline = time.perf_counter() + seconds
    while not op_s or time.perf_counter() < deadline:
        if on_op is not None:
            on_op(len(op_s) + 1)
        gc.collect()  # every operation starts from the same collector state
        begin = time.perf_counter()
        out = workload.op(api)
        op_s.append(time.perf_counter() - begin)
        if out != first:
            workload.check(out)
            raise Mismatch("identical operations returned different outputs")
    return {"setup_s": setup_s, "op_s": op_s, "attempted": per_attempted * len(op_s),
            "failed": per_failed * len(op_s),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_cli_mix(cli, mix) -> None:
    """One pass of the cli_calls mix through ``ecal.cli.run`` in this process."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for entry in mix:
            code = cli.run(entry["argv"])
            if code != 0:
                raise Mismatch(f"ecal {' '.join(entry['argv'])} exited {code} in process")


def fast_end(fn, reps: int) -> float:
    """Fastest of ``reps`` timed calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(reps):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def probe(seed: int, outdir: str, reps: int = 7) -> dict:
    """Per-layer timings of the public calls each workload makes, on its inputs."""
    from ecal import cli, scenario_io

    api = load_api()
    workdir = os.path.join(outdir, f"probe-cli-seed{seed}")
    mix = inputs.cli_mix(seed, workdir)
    try:
        run_cli_mix(cli, mix)
        metrics = {"cli.run_ms": fast_end(lambda: run_cli_mix(cli, mix), reps) * 1e3}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["scenario_io.reproduce_all_ms"] = fast_end(
        lambda: [scenario_io.reproduce(t).to_csv() for t in scenario_io.REPRODUCE_TARGETS],
        reps) * 1e3

    sweep = GammaSweep(seed)
    sweep.setup(api)
    s, gammas = sweep.scenario, sweep.gammas
    rows = api.gamma_sweep(s, gammas)
    metrics["lifecycle.gamma_sweep_ns_per_row"] = (
        fast_end(lambda: api.gamma_sweep(s, gammas), reps) / len(rows) * 1e9)
    cf = api.cf_vs_gamma(s, sweep.ci_table, gammas)
    metrics["carbon.cf_vs_gamma_ns_per_row"] = (
        fast_end(lambda: api.cf_vs_gamma(s, sweep.ci_table, gammas), reps) / len(cf.rows) * 1e9)
    sweep_rows = [(r.gamma, r.ecal_abs.joules, r.ecal_abs_mean.joules, r.ecal.joules_per_bit)
                  for r in rows]
    cf_rows = [(r.gamma, r.country_code, r.intensity.grams_co2e_per_kwh, r.cf_total_g)
               for r in cf.rows]
    n_rows = len(sweep_rows) + len(cf_rows)

    def tables():
        return (api.ReportTable(ref.SWEEP_COLUMNS, sweep_rows),
                api.ReportTable(ref.CF_TOTAL_COLUMNS, cf_rows))

    metrics["scenario_io.table_ns_per_row"] = fast_end(tables, reps) / n_rows * 1e9
    built = tables()
    metrics["scenario_io.to_csv_ns_per_row"] = (
        fast_end(lambda: [t.to_csv() for t in built], reps) / n_rows * 1e9)

    batch = ScenarioBatch(seed)
    batch.setup(api)
    priced_texts = [e["text"] for e in batch.block if e["expect"] == "priced"]

    def parse_all():
        for text in batch.texts:
            try:
                api.parse_scenario(text)
            except api.ScenarioError:
                pass

    metrics["scenario_io.parse_us"] = fast_end(parse_all, reps) / len(batch.texts) * 1e6
    scenarios = [api.parse_scenario(text).scenario for text in priced_texts]
    n_docs = len(scenarios)
    metrics["lifecycle.report_us"] = (
        fast_end(lambda: [api.lifecycle_report(x) for x in scenarios], reps) / n_docs * 1e6)
    metrics["carbon.cf_us"] = fast_end(
        lambda: [api.cf_vs_gamma(x, batch.ci_table, [x.gamma]) for x in scenarios],
        reps) / n_docs * 1e6
    per_doc = [(lifecycle_rows(api.lifecycle_report(x)),
                [(r.gamma, r.country_code, r.intensity.grams_co2e_per_kwh, r.cf_development_g,
                  r.cf_inference_g, r.cf_total_g)
                 for r in api.cf_vs_gamma(x, batch.ci_table, [x.gamma]).rows])
               for x in scenarios]

    def small_tables():
        for kv_rows, carbon_rows in per_doc:
            api.ReportTable(("metric", "value"), kv_rows).to_csv()
            api.ReportTable(ref.CARBON_COLUMNS, carbon_rows).to_csv()

    metrics["scenario_io.report_csv_us"] = fast_end(small_tables, reps) / n_docs * 1e6
    return {"metrics": metrics}


def count(name: str, seed: int, outdir: str) -> dict:
    """Python calls per operation into each ecal module, after one warm-up operation."""
    import ecal
    import tracing

    if name == "cli_calls":
        from ecal import cli

        workdir = os.path.join(outdir, f"count-cli-seed{seed}")
        mix = inputs.cli_mix(seed, workdir)
        fn = lambda: run_cli_mix(cli, mix)  # noqa: E731
    else:
        workdir = None
        api = load_api()
        workload = WORKLOADS[name](seed)
        workload.setup(api)
        fn = lambda: workload.op(api)  # noqa: E731
    try:
        fn()
        counts = tracing.count_calls(os.path.dirname(ecal.__file__), MODULES, fn)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    return {"metrics": {f"calls.{module}": n for module, n in counts.items()}}


def traced_run(name: str, seed: int, seconds: float, outdir: str) -> dict:
    """The run loop with a span around the operation and each call into ecal."""
    import tracing

    tracer = tracing.Tracer()
    workload = WORKLOADS[name](seed)
    workload.op = tracer.wrap("op", workload.op)

    def hook(api):
        for attr, span_name in TRACED_CALLS.items():
            setattr(api, attr, tracer.wrap(span_name, getattr(api, attr)))
        return api

    def on_op(op_index):
        tracer.op = op_index

    result = run_loop(workload, seconds, api_hook=hook, on_op=on_op)
    tracer.write(os.path.join(outdir, f"spans-{name}-seed{seed}.json"),
                 {"workload": name, "seed": seed, "op_s": result["op_s"]})
    return result


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, outdir = argv[1], argv[2], int(argv[3]), float(argv[4]), argv[5]
    try:
        if mode == "run":
            result = run_loop(WORKLOADS[name](seed), seconds)
        elif mode == "trace":
            result = traced_run(name, seed, seconds, outdir)
        elif mode == "count":
            result = count(name, seed, outdir)
        elif mode == "probe":
            result = probe(seed, outdir)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        result["correct"] = True
    except Mismatch as exc:
        result = {"correct": False, "error": str(exc)}
    except Exception:  # reported to run.py, which marks the run incorrect
        result = {"correct": False, "error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
