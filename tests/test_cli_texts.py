"""The command line's front door: its help, version and refusal texts, byte
for byte, and the one parser a call builds.

The texts were captured with ``COLUMNS=100`` under Python 3.11; argparse
words its own parts (``options:``, ``invalid choice``) differently in other
versions.
"""

import argparse
import re

import pytest

from wshare import __version__, cli
from wshare.cli import main

# Top-level help under "", each verb's help under its name.
HELP = {
    "": """\
usage: wshare [-h] [--version] verb ...

Supervised entanglement-sharing protocol lab.

positional arguments:
  verb
    run          execute one protocol run
    sweep        Monte Carlo trials over a parameter grid
    curves       analytic success curves against sequence length
    teleport-demo
                 correction table and random teleportations

options:
  -h, --help     show this help message and exit
  --version      show program's version number and exit
""",
    "run": """\
usage: wshare run [-h] [--scenario PATH] [--n N] [--d D] [--p P] [--mode paper|strict]
                  [--attack none|imra|isra|ema] [--isra-y ISRA_Y] [--seed SEED]
                  [--format text|csv|records] [--out OUT]

options:
  -h, --help            show this help message and exit
  --scenario PATH       flat JSON file of these same flags
  --n N                 W-state sequence length
  --d D                 per-position detection probability
  --p P                 probability a directive basis is Z
  --mode paper|strict   checker semantics
  --attack none|imra|isra|ema
                        eavesdropping attack
  --isra-y ISRA_Y       fake-qubit |1> amplitude
  --seed SEED           master seed; everything derives from it
  --format text|csv|records
                        output format
  --out OUT             write output here instead of stdout
""",
    "sweep": """\
usage: wshare sweep [-h] [--scenario PATH] [--n N] [--d D] [--p P] [--mode paper|strict]
                    [--attack none|imra|isra|ema] [--isra-y ISRA_Y] [--trials TRIALS]
                    [--seed SEED] [--format text|csv|records] [--out OUT] [--workers WORKERS]
                    [--y-values Y_VALUES] [--p-values P_VALUES] [--d-values D_VALUES]
                    [--n-values N_VALUES]

options:
  -h, --help            show this help message and exit
  --scenario PATH       flat JSON file of these same flags
  --n N                 W-state sequence length
  --d D                 per-position detection probability
  --p P                 probability a directive basis is Z
  --mode paper|strict   checker semantics
  --attack none|imra|isra|ema
                        eavesdropping attack
  --isra-y ISRA_Y       fake-qubit |1> amplitude
  --trials TRIALS       trials per grid point, or teleportations
  --seed SEED           master seed; everything derives from it
  --format text|csv|records
                        output format
  --out OUT             write output here instead of stdout
  --workers WORKERS     parallel processes over grid points (at most one per point, per usable CPU
                        and per 2^15 trials; smaller grids run in-process)
  --y-values Y_VALUES   comma-separated fake-qubit amplitudes
  --p-values P_VALUES   comma-separated Z-basis probabilities
  --d-values D_VALUES   comma-separated detection probabilities
  --n-values N_VALUES   comma-separated sequence lengths
""",
    "curves": """\
usage: wshare curves [-h] [--scenario PATH] [--d D] [--p P] [--mode paper|strict]
                     [--attack none|imra|isra|ema] [--isra-y ISRA_Y] [--format text|csv|records]
                     [--out OUT] [--y-values Y_VALUES] [--p-values P_VALUES] [--d-values D_VALUES]
                     [--n-values N_VALUES]

options:
  -h, --help            show this help message and exit
  --scenario PATH       flat JSON file of these same flags
  --d D                 per-position detection probability
  --p P                 probability a directive basis is Z
  --mode paper|strict   checker semantics
  --attack none|imra|isra|ema
                        eavesdropping attack
  --isra-y ISRA_Y       fake-qubit |1> amplitude
  --format text|csv|records
                        output format
  --out OUT             write output here instead of stdout
  --y-values Y_VALUES   comma-separated fake-qubit amplitudes
  --p-values P_VALUES   comma-separated Z-basis probabilities
  --d-values D_VALUES   comma-separated detection probabilities
  --n-values N_VALUES   comma-separated sequence lengths
""",
    "teleport-demo": """\
usage: wshare teleport-demo [-h] [--scenario PATH] [--attack none|ema] [--trials TRIALS]
                            [--seed SEED] [--format text|csv|records] [--out OUT]

options:
  -h, --help            show this help message and exit
  --scenario PATH       flat JSON file of these same flags
  --attack none|ema     eavesdropping attack
  --trials TRIALS       trials per grid point, or teleportations
  --seed SEED           master seed; everything derives from it
  --format text|csv|records
                        output format
  --out OUT             write output here instead of stdout
""",
}

REFUSALS = [
    ([], "error: the following arguments are required: verb\n"),
    (["frob"], "error: argument verb: invalid choice: 'frob' (choose from 'run', 'sweep', 'curves', "
               "'teleport-demo')\n"),
    (["run", "--frobnicate"], "error: unrecognized arguments: --frobnicate\n"),
    (["run", "--n", "x"], "error: argument --n: invalid int value: 'x'\n"),
    (["sweep", "--n-values", "1,x"], "error: argument --n-values: invalid int list value: '1,x'\n"),
    (["sweep", "--d-values", "0.5,y"], "error: argument --d-values: invalid float list value: '0.5,y'\n"),
]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


@pytest.mark.parametrize("verb", sorted(HELP), ids=lambda verb: verb or "top-level")
def test_help_texts_keep_their_bytes(verb, capsys):
    with pytest.raises(SystemExit) as done:
        main([verb, "--help"] if verb else ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr() == (HELP[verb], "")


def test_version_text_keeps_its_bytes(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr() == (f"wshare {__version__}\n", "")


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[" ".join(argv) or "no-verb" for argv, _ in REFUSALS])
def test_refusals_keep_their_bytes(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", message)
    assert not re.search(r"\b_\w", message)  # no private helper's name


def test_a_token_before_the_verb_is_refused(capsys):
    # Only the verb's own parser reads its flags, so a stray token before
    # the verb cannot reach it, not even as a request for the verb's help.
    assert main(["--frob", "run", "-h"]) == 1
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --frob -h\n")
    # Newer argparse may take a verb after "--"; the call still runs none.
    assert main(["--", "run"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("verb", sorted(cli._VERBS))
def test_a_verb_call_builds_one_parser(verb, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main([verb, "--out", str(tmp_path / "out")]) == 0
    assert [parser.prog for parser in built] == [f"wshare {verb}"]
