"""Smoke test: every script in demos/, the README's library quick start and
its command-line examples run to completion and print something; and the
README's ``--workers`` paragraph and sweep budget name the sweep's own constants."""

import re
import shlex
import subprocess
import sys

import pytest

from wshare import cli
from wshare.cli import SWEEP_COLUMNS, main

from helpers import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under ``heading`` in the README."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


CLI_EXAMPLES = [shlex.split(line) for line in _readme_block("## Command line", "sh").splitlines()]


def test_demos_are_found():
    assert len(DEMOS) == 5


def _run_python(*args):
    done = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    _run_python(str(demo))


def test_readme_quick_start_runs():
    _run_python("-c", _readme_block("## Library quick start", "python"))


def test_readme_cli_examples_are_found():
    assert [argv[:2] for argv in CLI_EXAMPLES] == [
        ["wshare", verb] for verb in ("run", "sweep", "curves", "teleport-demo")]


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=lambda argv: argv[1])
def test_readme_cli_example_runs(argv, tmp_path):
    # run exits 2 when checking caught the attack, as documented.
    out = tmp_path / "out"
    assert main([*argv[1:], "--out", str(out)]) in ((0, 2) if argv[1] == "run" else (0,))
    assert out.read_text().strip()


def test_readme_scenario_example_runs(tmp_path):
    scenario, out = tmp_path / "scenario.json", tmp_path / "out.csv"
    scenario.write_text(_readme_block("### Scenario files", "json"))
    assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)


def test_readme_workers_paragraph_names_the_worker_threshold():
    # The --workers help prints the same power of two from the constant itself.
    power = cli._TRIALS_PER_WORKER.bit_length() - 1
    assert cli._TRIALS_PER_WORKER == 1 << power
    paragraph = README.split("`--workers K`", 1)[1].split("\n- ", 1)[0]
    assert re.findall(r"2\^(\d+)", paragraph) == [str(power)]


def test_readme_states_the_sweep_budget():
    points, trials = cli._SWEEP_BUDGET.values()
    assert trials == 1 << trials.bit_length() - 1
    assert f"at most {points:,} grid points and 2^{trials.bit_length() - 1}\ntrials over its grid" in README
