"""Command-line interface: scenarios in, CSV (or JSON) reports out.

Every number the CLI prints comes straight from a library call; the CLI
adds no arithmetic of its own.  Exit codes: 0 success, 1 validation or
usage error, 2 I/O error.  Each subcommand imports only the modules it uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from functools import partial

from .report import REPRODUCE_TARGETS, ReportTable, _json, _write
from .units import FieldError, _unknown

__all__ = ["run", "main"]

# The option, less its "--", that gives each library field a subcommand fills
# from its command line, so that a FieldError names what was typed.
_OPTIONS = {"sample_count": "samples", "n_s": "samples", "bits_per_sample": "precision",
            "n_nan": "invalid", "gamma": "gamma-sweep"}


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    # Every parser wraps help at 78 columns, the width argparse falls back to
    # without a terminal: asking for the terminal's width would import shutil.
    new = partial(_Parser, formatter_class=partial(argparse.HelpFormatter, width=78))
    parser = new(prog="ecal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new)

    # Options that several subcommands share, each declared once.
    output = new(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    output.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")
    dataset = new(add_help=False)
    dataset.add_argument("--samples", type=int, required=True)
    dataset.add_argument("--precision", type=int, default=64, help="bits per sample")
    scenario = new(add_help=False)
    scenario.add_argument("--scenario", required=True, metavar="FILE")
    strict = new(add_help=False)
    strict.add_argument("--strict-eq2", action="store_true",
                        help="ignore per-profile packet-count overrides")

    transmit = sub.add_parser("transmit", parents=[output, dataset, strict],
                              help="packet accounting and radio energy")
    transmit.add_argument("--tech", default="ble5", help="technology name (ble5, zigbee, lorawan)")
    transmit.set_defaults(handler=_cmd_transmit)

    storage = sub.add_parser("storage", parents=[output, dataset],
                             help="write energy of storing a dataset")
    storage.add_argument("--storage", default="hdd", dest="medium",
                         help="storage medium name (hdd, ssd)")
    storage.set_defaults(handler=_cmd_storage)

    preprocess = sub.add_parser("preprocess", parents=[output, dataset],
                                help="FLOPs, time, and energy of preprocessing "
                                     "on the default processing unit")
    preprocess.add_argument("--method", required=True,
                            help="preprocessing method (minmax, normalization)")
    preprocess.add_argument("--invalid", type=int, default=0)
    preprocess.set_defaults(handler=_cmd_preprocess)

    train = sub.add_parser("train-cost", parents=[output, scenario],
                           help="training, evaluation, and inference cost")
    train.set_defaults(handler=_cmd_train_cost)

    lifecycle = sub.add_parser("lifecycle", parents=[output, scenario, strict],
                               help="full lifecycle report for a scenario")
    lifecycle.add_argument("--gamma-sweep", metavar="A,B,C",
                           help="comma-separated request counts to sweep")
    lifecycle.set_defaults(handler=_cmd_lifecycle)

    carbon = sub.add_parser("carbon", parents=[output, scenario],
                            help="carbon footprint per country")
    carbon.add_argument("--ci-file", metavar="FILE",
                        help="carbon-intensity CSV (default: bundled table)")
    carbon.set_defaults(handler=_cmd_carbon)

    repro = sub.add_parser("reproduce", help="emit the bundled reference datasets")
    repro.add_argument("--target", required=True,
                       help=f"one of: {', '.join(REPRODUCE_TARGETS)}, or 'all'")
    repro.add_argument("--out", metavar="DIR",
                       help="directory to write <target>.csv files into")
    repro.set_defaults(handler=_cmd_reproduce, json=False)

    return parser


def _key_value_table(pairs: Sequence[tuple[str, object]]) -> ReportTable:
    return ReportTable(("metric", "value"), tuple(pairs))


def _cmd_transmit(args: argparse.Namespace) -> ReportTable:
    from .transmission import (PayloadSpec, packet_count, payload_bits, technology_profile,
                               transmission_energy, transmission_energy_per_bit,
                               transmitted_bits, without_packet_override)

    profile = technology_profile(args.tech)
    if args.strict_eq2:
        profile = without_packet_override(profile)
    spec = PayloadSpec(args.precision, args.samples)
    b_t = transmitted_bits(profile, spec)
    return _key_value_table(
        [
            ("payload_bits", payload_bits(spec).bits),
            ("packets", packet_count(profile, spec)),
            ("B_T", b_t.bits),
            ("E_T_J", transmission_energy(profile, b_t).joules),
            ("E_T_b_J_per_b", transmission_energy_per_bit(profile).joules_per_bit),
        ]
    )


def _cmd_storage(args: argparse.Namespace) -> ReportTable:
    from .storage import storage_energy, storage_energy_per_bit, storage_profile
    from .transmission import PayloadSpec, payload_bits

    profile = storage_profile(args.medium)
    payload = payload_bits(PayloadSpec(args.precision, args.samples))
    return _key_value_table(
        [
            ("payload_bits", payload.bits),
            ("E_storage_J", storage_energy(profile, payload).joules),
            ("E_storage_b_J_per_b", storage_energy_per_bit(profile).joules_per_bit),
        ]
    )


def _cmd_preprocess(args: argparse.Namespace) -> ReportTable:
    from .mlp_cost import DEFAULT_PROCESSING_UNIT
    from .preprocessing import (_METHOD_BY_NAME, preprocessing_energy,
                                preprocessing_energy_per_bit, preprocessing_flops)
    from .transmission import PayloadSpec

    if args.method not in _METHOD_BY_NAME:
        raise _unknown("preprocessing method", args.method, _METHOD_BY_NAME)
    flops = preprocessing_flops(_METHOD_BY_NAME[args.method], args.samples, args.invalid)
    t_pre, e_pre = preprocessing_energy(DEFAULT_PROCESSING_UNIT, flops)
    per_bit = preprocessing_energy_per_bit(e_pre, PayloadSpec(args.precision, args.samples))
    return _key_value_table(
        [
            ("flops", flops.flops),
            ("T_pre_s", t_pre),
            ("E_pre_J", e_pre.joules),
            ("E_pre_b_J_per_b", per_bit.joules_per_bit),
        ]
    )


def _cmd_train_cost(args: argparse.Namespace) -> ReportTable:
    from .lifecycle import _TRAIN_COST, _price
    from .scenario_io import load_scenario

    p = _price(load_scenario(args.scenario).scenario)
    return _key_value_table([(row, getattr(p, field)) for row, field in _TRAIN_COST])


def _cmd_lifecycle(args: argparse.Namespace) -> ReportTable:
    from .lifecycle import _TERMS, _price, gamma_sweep
    from .scenario_io import load_scenario
    from .transmission import without_packet_override

    doc = load_scenario(args.scenario)
    scenario = doc.scenario
    if args.strict_eq2:
        scenario = scenario.__replace__(technology=without_packet_override(scenario.technology))
    gammas = doc.sweeps.gamma
    if args.gamma_sweep is not None:
        try:
            gammas = tuple(int(part) for part in args.gamma_sweep.split(","))
        except ValueError:
            raise ValueError(f"--gamma-sweep expects comma-separated integers, "
                             f"got {args.gamma_sweep!r}") from None
    if gammas:
        rows = [(g, total.joules, mean.joules, per_bit.joules_per_bit)
                for g, total, mean, per_bit in gamma_sweep(scenario, gammas)]
        return ReportTable(("gamma", "ecal_abs_J", "ecal_abs_mean_J", "eCAL_J_per_b"), rows)
    p = _price(scenario)
    return _key_value_table([("gamma", scenario.gamma),
                             *[(row, getattr(p, field)) for field, _, row in _TERMS[1:]]])


def _cmd_carbon(args: argparse.Namespace) -> ReportTable:
    from .carbon import bundled_ci_table, cf_vs_gamma, load_ci_table
    from .scenario_io import load_scenario

    doc = load_scenario(args.scenario)
    records = load_ci_table(args.ci_file) if args.ci_file else bundled_ci_table()
    report = cf_vs_gamma(doc.scenario, records, [doc.scenario.gamma])
    rows = [
        (row.gamma, row.country_code, row.intensity.grams_co2e_per_kwh,
         row.cf_development_g, row.cf_inference_g, row.cf_total_g)
        for row in report.rows
    ]
    return ReportTable(
        ("gamma", "country_code", "ci_g_per_kwh", "cf_development_g",
         "cf_inference_g", "cf_total_g"),
        rows,
    )


def _cmd_reproduce(args: argparse.Namespace) -> ReportTable | None:
    """One target's table, or None once ``--out DIR`` holds each target's CSV."""
    from .report import reproduce, write_report

    targets = list(REPRODUCE_TARGETS) if args.target == "all" else [args.target]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for target in targets:
            write_report(reproduce(target), os.path.join(args.out, f"{target}.csv"))
        return None
    if len(targets) > 1:
        raise ValueError("writing multiple targets requires --out DIR")
    return reproduce(targets[0])


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        table = args.handler(args)
        if table is not None:
            _write(args.out or sys.stdout, _json(table) if args.json else table.to_csv())
        return 0
    except (ValueError, LookupError) as exc:
        message = exc
        if isinstance(exc, FieldError) and exc.field in _OPTIONS:
            message = f"--{_OPTIONS[exc.field]}: {exc.reason}"
        print(f"ecal: error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ecal: i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
