"""Command-line interface: scenarios in, CSV (or JSON) reports out.

Every number the CLI prints comes straight from a library call; the CLI
adds no arithmetic of its own.  Exit codes: 0 success, 1 validation or
usage error, 2 I/O error, a report or help that stdout cannot take included.
Each subcommand imports only the modules it uses.  A well-formed call is
parsed from one table of options; argparse, which reads the same table, is
imported only to print help or a usage error.

A CLI process (``python -m ecal``, ``python -m ecal.cli`` or the ``ecal``
script, all through ``main``) flushes stdout and stderr, then ends with
``os._exit``: it skips the interpreter's teardown, about 10 ms of a 60 ms call
on a shared 2-vCPU host, so no ``atexit`` hook (coverage's subprocess hook,
for one) runs in it.  To run the CLI inside a process, call ``run``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .report import REPRODUCE_TARGETS, ReportTable, _json, _project, _write
from .units import FieldError, _checked_items, _checked_types

__all__ = ["run", "main"]

# The option, less its "--", that gives each library field a subcommand fills
# from its command line, so that a FieldError names what was typed.
_OPTIONS = {"sample_count": "samples", "n_s": "samples", "bits_per_sample": "precision",
            "n_nan": "invalid", "gamma": "gamma-sweep"}

def _key_value_table(pairs: Sequence[tuple[str, object]]) -> ReportTable:
    return ReportTable(("metric", "value"), tuple(pairs))


def _cmd_transmit(args: SimpleNamespace) -> ReportTable:
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


def _cmd_storage(args: SimpleNamespace) -> ReportTable:
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


def _cmd_preprocess(args: SimpleNamespace) -> ReportTable:
    from .mlp_cost import DEFAULT_PROCESSING_UNIT
    from .preprocessing import (StandardizationMethod, preprocessing_energy,
                                preprocessing_energy_per_bit, preprocessing_flops)
    from .transmission import PayloadSpec

    flops = preprocessing_flops(StandardizationMethod(args.method), args.samples, args.invalid)
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


def _cmd_train_cost(args: SimpleNamespace) -> ReportTable:
    from .lifecycle import _TRAIN_COST, _price
    from .scenario_io import load_scenario

    p = _price(load_scenario(args.scenario).scenario)
    return _key_value_table([(row, getattr(p, field)) for row, field in _TRAIN_COST])


def _cmd_lifecycle(args: SimpleNamespace) -> ReportTable:
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
        return _project(gamma_sweep(scenario, gammas), {
            "gamma": "gamma", "ecal_abs_J": "ecal_abs.joules",
            "ecal_abs_mean_J": "ecal_abs_mean.joules", "eCAL_J_per_b": "ecal.joules_per_bit"})
    p = _price(scenario)
    return _key_value_table([("gamma", scenario.gamma),
                             *[(row, getattr(p, field)) for field, _, row in _TERMS[1:]]])


def _cmd_carbon(args: SimpleNamespace) -> ReportTable:
    from .carbon import bundled_ci_table, cf_vs_gamma, load_ci_table
    from .scenario_io import load_scenario

    doc = load_scenario(args.scenario)
    records = bundled_ci_table() if args.ci_file is None else load_ci_table(args.ci_file)
    return _project(cf_vs_gamma(doc.scenario, records, [doc.scenario.gamma]).rows, {
        "gamma": "gamma", "country_code": "country_code",
        "ci_g_per_kwh": "intensity.grams_co2e_per_kwh", "cf_development_g": "cf_development_g",
        "cf_inference_g": "cf_inference_g", "cf_total_g": "cf_total_g"})


def _cmd_reproduce(args: SimpleNamespace) -> ReportTable | None:
    """One target's table, or None once ``--out DIR`` holds each target's CSV."""
    from .report import reproduce, write_report

    targets = list(REPRODUCE_TARGETS) if args.target == "all" else [args.target]
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        for target in targets:
            write_report(reproduce(target), os.path.join(args.out, f"{target}.csv"))
        return None
    if len(targets) > 1:
        raise ValueError("writing multiple targets requires --out DIR")
    return reproduce(targets[0])


# Every subcommand's options, each declared once.  An option is its flag and
# the keywords of argparse's add_argument, in the order help lists them:
# `_parse` reads them for a well-formed call, `_build_parser` for any other.
_OUTPUT = {"--json": {"action": "store_true", "default": False, "help": "emit JSON instead of CSV"},
           "--out": {"metavar": "PATH", "help": "write the report to PATH instead of stdout"}}
_DATASET = {"--samples": {"type": int, "required": True},
            "--precision": {"type": int, "default": 64, "help": "bits per sample"}}
_SCENARIO = {"--scenario": {"required": True, "metavar": "FILE"}}
_STRICT = {"--strict-eq2": {"action": "store_true", "default": False,
                            "help": "ignore per-profile packet-count overrides"}}
# Each subcommand: its help line, its handler and its options.
_COMMANDS = {
    "transmit": ("packet accounting and radio energy", _cmd_transmit, {
        **_OUTPUT, **_DATASET, **_STRICT,
        "--tech": {"default": "ble5", "help": "technology name (ble5, zigbee, lorawan)"}}),
    "storage": ("write energy of storing a dataset", _cmd_storage, {
        **_OUTPUT, **_DATASET,
        "--storage": {"default": "hdd", "dest": "medium",
                      "help": "storage medium name (hdd, ssd)"}}),
    "preprocess": ("FLOPs, time, and energy of preprocessing on the default processing unit",
                   _cmd_preprocess, {
        **_OUTPUT, **_DATASET,
        "--method": {"required": True, "help": "preprocessing method (minmax, normalization)"},
        "--invalid": {"type": int, "default": 0}}),
    "train-cost": ("training, evaluation, and inference cost", _cmd_train_cost,
                   {**_OUTPUT, **_SCENARIO}),
    "lifecycle": ("full lifecycle report for a scenario", _cmd_lifecycle, {
        **_OUTPUT, **_SCENARIO, **_STRICT,
        "--gamma-sweep": {"metavar": "A,B,C", "help": "comma-separated request counts to sweep"}}),
    "carbon": ("carbon footprint per country", _cmd_carbon, {
        **_OUTPUT, **_SCENARIO,
        "--ci-file": {"metavar": "FILE", "help": "carbon-intensity CSV (default: bundled table)"}}),
    "reproduce": ("emit the bundled reference datasets", _cmd_reproduce, {
        "--target": {"required": True, "help": f"one of: {', '.join(REPRODUCE_TARGETS)}, or 'all'"},
        "--out": {"metavar": "DIR", "help": "directory to write <target>.csv files into"}}),
}


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed call, or None for any other.

    A well-formed call is a subcommand, then exact flags of its own, each value
    its own ``str`` that does not start with "-".  Help, abbreviations,
    ``--opt=value`` and every usage error are left to argparse, so its texts
    and exit codes are the only ones there are.
    """
    try:
        tokens = iter(argv)
    except TypeError:
        return None
    command = next(tokens, None)
    if type(command) is not str or command not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[command]
    given = {}
    for flag in tokens:
        option = options.get(flag) if type(flag) is str else None
        if option is None:
            return None
        if "action" in option:  # a store_true flag
            given[flag] = True
            continue
        value = next(tokens, None)
        if type(value) is not str or value.startswith("-"):
            return None
        try:
            given[flag] = option.get("type", str)(value)
        except ValueError:
            return None
    args = SimpleNamespace(command=command, handler=handler)
    for flag, option in options.items():
        if flag not in given and option.get("required"):
            return None
        setattr(args, option.get("dest", flag[2:].replace("-", "_")),
                given.get(flag, option.get("default")))
    return args


def _build_parser():
    """argparse's parser of ``_COMMANDS``, imported and built only for help and
    usage errors."""
    from argparse import ArgumentParser, HelpFormatter
    from functools import partial

    class Parser(ArgumentParser):
        def print_help(self, file=None) -> None:  # a help that stdout cannot take is an OSError
            _deliver(self.format_help())

    # Every parser wraps help at 78 columns, the width argparse falls back to
    # without a terminal: asking for the terminal's width would import shutil.
    new = partial(Parser, formatter_class=partial(HelpFormatter, width=78))
    parser = new(prog="ecal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new)
    for command, (help_line, handler, options) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_line)
        for flag, option in options.items():
            subparser.add_argument(flag, **option)
        subparser.set_defaults(handler=handler)
    return parser


def _deliver(text: str, out: str | None = None) -> None:
    """Write ``text`` to the path ``out``, or to stdout and flush it: a report or a
    help text that cannot be delivered is an OSError here, not lost at exit."""
    if out is not None:
        _write(out, text)
    elif sys.stdout is None:  # the process started with stdout closed
        raise OSError("stdout is closed")
    else:
        _write(sys.stdout, text)
        sys.stdout.flush()


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one CLI invocation and return its exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    try:
        if args is None:  # argparse reads only a sequence of str tokens
            argv = _checked_items(argv, "argv")
            _checked_types(*[(token, f"argv[{i}]", str) for i, token in enumerate(argv)])
            args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        table = args.handler(args)
        if table is not None:
            _deliver(_json(table) if getattr(args, "json", False) else table.to_csv(), args.out)
        return 0
    except SystemExit as exc:  # 0 after help; argparse's 2 for a usage error is 1 here
        return 1 if exc.code else 0
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
    """Run the command line of this process, then end it without interpreter teardown.

    ``run`` has flushed any report or help on stdout, and reported a failure of it.
    What is left is flushed, a failure ignored, and the process ends with
    ``os._exit``: no module is finalized, and no ``atexit`` hook runs.  An
    exception ``run`` lets through ends the process the normal way.
    """
    code = run()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # a closed stream, or a reader gone
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
