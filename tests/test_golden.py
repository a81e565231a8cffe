"""Golden-file regression tests for every reference dataset.

The CSV files under tests/golden/ were produced by ``ecal reproduce --target
all`` and spot-verified against the published tables; the transcripts under
tests/golden/cli/ hold what CLI calls print.  These tests pin them byte for
byte.
"""

import io
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ecal.cli import run
from ecal.scenario_io import REPRODUCE_TARGETS, reproduce

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("target", REPRODUCE_TARGETS)
def test_target_matches_golden_file(target):
    golden = (GOLDEN_DIR / f"{target}.csv").read_text(encoding="utf-8")
    assert reproduce(target).to_csv() == golden


def test_golden_directory_has_no_stray_files():
    names = sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert names == sorted([*(f"{t}.csv" for t in REPRODUCE_TARGETS), "cli"])


# CLI transcripts: each call's exit code, stdout and stderr, run in-process
# through cli.run.  The calls are README's CLI examples, plain and with --json
# (`reproduce` takes no --json, and `--out` writes no stdout), and the scenario
# subcommands on every bundled scenario.
ROOT = Path(__file__).resolve().parents[1]
CLI_DIR = GOLDEN_DIR / "cli"


def _cli_calls() -> list[str]:
    readme = ROOT.joinpath("README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## CLI"):readme.index("## Scenario")]
    calls = [line[len("ecal "):] for line in section.splitlines()
             if line.startswith("ecal ") and "--out" not in line]
    calls += [f"{command} --scenario {scenario.relative_to(ROOT).as_posix()}"
              for scenario in sorted(ROOT.glob("scenarios/*.json"))
              for command in ("train-cost", "lifecycle", "carbon")]
    calls = list(dict.fromkeys(calls))
    return calls + [f"{call} --json" for call in calls if not call.startswith("reproduce")]


CLI_CALLS = _cli_calls()


def _transcript_name(call: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", call).strip("-") + ".txt"


def _transcript(call: str) -> bytes:
    """The exit code, stdout and stderr of ``ecal <call>``, run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(ROOT)
        with redirect_stdout(out), redirect_stderr(err):
            code = run(call.split())
    finally:
        os.chdir(cwd)
    return (f"$ ecal {call}\nexit {code}\n-- stdout\n{out.getvalue()}"
            f"-- stderr\n{err.getvalue()}").encode("utf-8")


@pytest.mark.parametrize("call", CLI_CALLS)
def test_cli_call_matches_its_transcript(call):
    assert _transcript(call) == (CLI_DIR / _transcript_name(call)).read_bytes()


def test_cli_transcripts_are_the_calls():
    assert sorted(p.name for p in CLI_DIR.iterdir()) == sorted(map(_transcript_name, CLI_CALLS))


if __name__ == "__main__":  # rewrite the transcripts: PYTHONPATH=src python tests/test_golden.py
    CLI_DIR.mkdir(exist_ok=True)
    for stale in CLI_DIR.iterdir():
        stale.unlink()
    for call in CLI_CALLS:
        (CLI_DIR / _transcript_name(call)).write_bytes(_transcript(call))
