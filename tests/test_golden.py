"""Golden outputs: SHA-256 of small CLI invocations at fixed seeds.

The hashes were recaptured, all at once, when sweeps and runs moved onto
the batched round engine: that change declared a new random-stream layout
(one generator per sweep grid point, every block of trials drawn as whole
arrays, messages normalized once), which moved every run and sweep byte.
They pin that layout and every printed digit; the scalar replay in
``tests/test_round_tree.py`` checks the layout itself independently of the
engine.  The ``curves`` and ``teleport-demo`` outputs did not move.  A
change that moves any byte here must say why in CHANGES.md and recapture
the hashes.
"""

import hashlib

import pytest

from wshare.cli import main

GOLDEN = {
    "run-none": (
        ["run", "--n", "12", "--d", "0.4", "--seed", "3", "--format", "records"],
        0, "9b9d89713a1bc0d1c1c924a4d35fcffa41957358df2a818b2643ecec9970d2d8"),
    "run-imra-strict": (
        ["run", "--n", "10", "--d", "0.3", "--mode", "strict", "--attack", "imra",
         "--seed", "4", "--format", "records"],
        0, "52ff706126d7cefdf01d093027a400081d3448875e32727878124a9d453499f3"),
    "run-isra": (
        ["run", "--n", "12", "--d", "0.2", "--attack", "isra", "--isra-y", "0.5",
         "--seed", "5", "--format", "records"],
        0, "53f38fc0940c8849ec344a6cf217aac037a663c401096a661bb1df9e409fb017"),
    # Added with the engine's stream: a store-resend run that is caught (under
    # these settings each round is caught with probability (1 + y^2) / 3 = 2/3).
    "run-isra-abort": (
        ["run", "--n", "30", "--d", "1", "--p", "1", "--attack", "isra", "--isra-y", "1",
         "--seed", "4", "--format", "records"],
        2, "7c9b1c41ea7e5e07127eea14fcdf9675636365681b70d22e3883a03bb1177e21"),
    "run-isra-nocheck": (
        ["run", "--n", "20", "--d", "0", "--attack", "isra", "--isra-y", "0.3",
         "--seed", "6", "--format", "csv"],
        0, "1ea1d2e8dd5a29ec7f7ed48445dfa4d5840047a842a6713e98fc7fbae82b21f8"),
    # Taken later, before attacks became pure values: the one golden run that
    # reaches Eve's measure-resend recovery (it prints eve-recovery-mean).
    "run-imra-pass": (
        ["run", "--n", "30", "--d", "0", "--attack", "imra", "--seed", "13", "--format", "records"],
        0, "10d57ffdb3e46541bf3eceeaca6bd3174660704f8e7026fcf76d367b73bc471e"),
    "run-ema": (
        ["run", "--n", "40", "--d", "0", "--attack", "ema", "--seed", "7", "--format", "records"],
        0, "e133a515f1d433e63831c099ca9dc4c135957d458b7adf069e3755893e8f6a51"),
    "sweep-isra-paper": (
        ["sweep", "--attack", "isra", "--mode", "paper", "--y-values", "0,0.5,1", "--n", "6",
         "--d", "0.5", "--p", "0.5", "--trials", "150", "--seed", "8", "--format", "csv"],
        0, "c698bed96846754e4a28144938a37b4ee1d5469f3cc108835bf47890966454ed"),
    "sweep-imra-strict": (
        ["sweep", "--attack", "imra", "--mode", "strict", "--n-values", "1,2",
         "--d-values", "0.5,1", "--p-values", "0,0.5", "--trials", "100", "--seed", "9"],
        0, "908d5d7aef5823adef5faccb285fde673eccb93fbcdaeae389ad190149d8d646"),
    "sweep-ema-strict": (
        ["sweep", "--attack", "ema", "--mode", "strict", "--n", "5", "--trials", "100",
         "--seed", "10", "--format", "records"],
        0, "9d129494b342a0b88e646aa2519dddeb8a85db76df3fd2c5ee0d891d9280d6e7"),
    "curves": (
        ["curves", "--y-values", "0,0.5", "--d-values", "0.5", "--p-values", "0.5,1",
         "--n-values", "1,5,10", "--format", "csv"],
        0, "50dd6973b640c7455f0d60ba900c8808d93b36d076fbf0148e49f5c1ca74a395"),
    "teleport-demo-none": (
        ["teleport-demo", "--trials", "8", "--seed", "11", "--format", "csv"],
        0, "99115b681d826e4782b0c5ecd94892dddc5ad5cfdb679f1c3b7c7656684f816d"),
    "teleport-demo-ema": (
        ["teleport-demo", "--attack", "ema", "--trials", "8", "--seed", "12"],
        0, "074fa2d517d675d416d5ffebdf2cc124a37bf1d9e6a06a81b00f253d6a15a431"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(name, tmp_path):
    argv, status, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == status
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
