"""Benchmark of the ecal calculator: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/ecal``).  Workloads:
``cli_calls``, ``gamma_sweep`` and ``scenario_batch`` (see README.md).  With
``--trace 0`` it prints the end-to-end metrics ``op_ms``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` the per-layer metrics.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; reference
figures go to stderr and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cli_calls", "gamma_sweep", "scenario_batch")
# Each run is split into this many rounds; each round is a fresh set-up
# followed by an equal share of the timed operations.
ROUNDS = 10
WORKER_TIMEOUT_S = 170
FLOOR_REPS = 9


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
         repr(seconds), OUT],
        env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"worker exited {proc.returncode}: {proc.stderr}"}
    return json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, as statistics.quantiles(method='inclusive') gives it."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it, or None."""
    for q, label in ((0.99, "p99"), (0.9, "p90")):
        if len(values) * (1 - q) >= 10:
            return label, quantile(values, q)
    return None


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    if workload == "cli_calls":
        import cli_calls

        try:
            rounds = [cli_calls.run_rounds(seed, seconds, ROUNDS, child_env(), OUT)]
        except cli_calls.Mismatch as exc:
            rounds = [{"correct": False, "error": str(exc)}]
        setups = rounds[0].get("setups", [])
    else:
        rounds = [worker("run", workload, seed, seconds / ROUNDS) for _ in range(ROUNDS)]
        setups = [r["setup_s"] for r in rounds if "setup_s" in r]
    errors = [r["error"] for r in rounds if not r["correct"]]
    if errors:
        return {"correct": False, "attempted": 1, "failed": 1, "errors": errors}
    op_ms = [t * 1e3 for r in rounds for t in r["op_s"]]
    # The fastest operation and the fastest set-up: this host's speed drifts
    # in steps that last seconds to minutes, and the fast end measures the
    # code, not the drift.
    metrics = {
        "op_ms": min(op_ms),
        "setup_s": min(setups),
        "peak_rss_mb": max(r["maxrss_kb"] for r in rounds) / 1024.0,
    }
    reference = {"ops": len(op_ms), "op_ms_median": statistics.median(op_ms),
                 "setup_s_median": statistics.median(setups), "setup_s_all": setups}
    if workload == "cli_calls":
        reference["call_ms_min"] = {name: min(t) * 1e3 for name, t in rounds[0]["call_s"].items()}
    spread = tail(op_ms)
    if spread is not None:
        reference[f"op_ms_{spread[0]}"] = spread[1]
    return {"correct": True, "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics,
            "reference": reference, "op_ms_all": op_ms}


def timed_child(code: str) -> tuple[float, str]:
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    return time.perf_counter() - begin, proc.stdout


def import_floor() -> dict:
    """Interpreter start, and `import ecal.cli` timed inside a fresh interpreter."""
    starts, imports, modules = [], [], set()
    probe = ("import sys, time\n"
             "n = len(sys.modules)\n"
             "t = time.perf_counter()\n"
             "import ecal.cli\n"
             "print(time.perf_counter() - t, len(sys.modules) - n)")
    for _ in range(FLOOR_REPS):
        starts.append(timed_child("pass")[0])
        seconds, added = timed_child(probe)[1].split()
        imports.append(float(seconds))
        modules.add(int(added))
    if len(modules) != 1:
        raise RuntimeError(f"import ecal.cli added a varying number of modules: {modules}")
    return {"interp.start_ms": min(starts) * 1e3,
            "import.ecal_cli_ms": min(imports) * 1e3,
            "import.modules": modules.pop()}


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics: import floor, layer probes, call counts and a traced loop."""
    import tracing

    metrics = import_floor()
    results = [worker("probe", workload, seed, 0), worker("count", workload, seed, 0)]
    if workload == "cli_calls":
        import cli_calls

        tracer = tracing.Tracer()
        try:
            loop = cli_calls.run_rounds(seed, seconds / 2, 1, child_env(), OUT, tracer=tracer)
        except cli_calls.Mismatch as exc:
            loop = {"correct": False, "error": str(exc)}
        else:
            tracer.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"),
                         {"workload": workload, "seed": seed, "op_s": loop["op_s"]})
    else:
        loop = worker("trace", workload, seed, seconds / 2)
    results.append(loop)
    errors = [r["error"] for r in results if not r["correct"]]
    if errors:
        return {"correct": False, "attempted": 1, "failed": 1, "errors": errors}
    for r in results[:2]:
        metrics.update(r["metrics"])
    op_ms = [t * 1e3 for t in loop["op_s"]]
    return {"correct": True, "attempted": loop["attempted"], "failed": loop["failed"],
            "metrics": metrics,
            "reference": {"traced_op_ms": min(op_ms), "ops": len(op_ms)}}


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ecal", "__init__.py")):
        return fail(f"no ecal sources under {SRC}; run from the root of a source checkout")
    declared = declared_metrics(args.trace)
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)
    # Set-up is timed against compiled modules, never against compiling them.
    if not compileall.compile_dir(os.path.join(SRC, "ecal"), quiet=1):
        return fail("could not compile src/ecal")
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version.split()[0])
    name = f"result-{'trace' if args.trace else 'run'}-{args.workload}-seed{args.seed}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for error in result.get("errors", []):
        print(f"perfbench: {error}", file=sys.stderr)
    if "reference" in result:
        print(f"perfbench: {args.workload} seed {args.seed}: "
              + ", ".join(f"{k}={v}" for k, v in result["reference"].items()), file=sys.stderr)
    measured = result.get("metrics", {})
    if result["correct"] and set(measured) != set(declared):
        return fail(f"measured metrics {sorted(measured)} differ from BENCHMARK.json's")
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()
               if name in measured}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
