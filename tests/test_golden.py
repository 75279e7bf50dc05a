"""Golden outputs: SHA-256 of small CLI invocations at fixed seeds.

The hashes pin the random-stream layouts documented in :mod:`wshare.protocol`
and every printed digit.  ``sweep-imra-strict`` was last recaptured when
the count draw went to four round cells (one home-0 cell, no longer one
per Eve branch); no other hash moved.  ``sweep-ema-strict`` was last
recaptured when its records came to write ``detections`` as a JSON
number, not a string; no other byte moved.  The three sweep hashes were
recaptured before that, when
sweeps came to draw each trial's counts per round cell instead of its
rounds (``multinomial(n, cells)`` per block of trials, then one imra
uniform per teleported trial, then the teleport); ``run``,
``teleport-demo`` and ``curves`` bytes did not move.  Before that, every
run, sweep and teleport-demo hash was recaptured, all at once, when every
random fact came to take exactly one draw: one home uniform per round (no
separate confirmation array) and one teleport layout (all message normals,
then one uniform per teleported pair).  That change moved every byte but
``run-isra-abort``'s (at d = 1 every home result comes from detection,
and a caught run teleports nothing); ``curves`` draws nothing.  Before
that, they were recaptured when sweeps and runs moved onto the batched
round engine.  The scalar replay in ``tests/test_round_tree.py`` checks
the run layout itself independently of the engine, and
``tests/test_protocol.py`` holds the count sampler to the round draws'
law.  A change that moves any byte here must say why in CHANGES.md and
recapture the hashes.
"""

import hashlib

import pytest

from wshare.cli import main

GOLDEN = {
    "run-none": (
        ["run", "--n", "12", "--d", "0.4", "--seed", "3", "--format", "records"],
        0, "036c93590e1c2c1b0dd898587dc98640ccd84bfdd859d7a4d2f1c2899fbc64da"),
    "run-imra-strict": (
        ["run", "--n", "10", "--d", "0.3", "--mode", "strict", "--attack", "imra",
         "--seed", "4", "--format", "records"],
        0, "d20291ee7138e639238ab69dfe728ff60f95437efb52e23dccce7c30f62f0c81"),
    "run-isra": (
        ["run", "--n", "12", "--d", "0.2", "--attack", "isra", "--isra-y", "0.5",
         "--seed", "5", "--format", "records"],
        0, "e928f340f55dc0d939d3a2a26413a9a5dae373942f3cb71db505da1560115758"),
    # Added with the engine's stream: a store-resend run that is caught (under
    # these settings each round is caught with probability (1 + y^2) / 3 = 2/3).
    "run-isra-abort": (
        ["run", "--n", "30", "--d", "1", "--p", "1", "--attack", "isra", "--isra-y", "1",
         "--seed", "4", "--format", "records"],
        2, "7c9b1c41ea7e5e07127eea14fcdf9675636365681b70d22e3883a03bb1177e21"),
    "run-isra-nocheck": (
        ["run", "--n", "20", "--d", "0", "--attack", "isra", "--isra-y", "0.3",
         "--seed", "6", "--format", "csv"],
        0, "0f4274b4df46804e47c58cf1810126a5784d61e70815c0eb91b78f33b6647047"),
    # Taken later, before attacks became pure values: the one golden run that
    # reaches Eve's measure-resend recovery (it prints eve-recovery-mean).
    "run-imra-pass": (
        ["run", "--n", "30", "--d", "0", "--attack", "imra", "--seed", "13", "--format", "records"],
        0, "e5135df006763e9bcc1233a293ba4c81a6e20cc9727a0aa59b4a6b2d14e318b4"),
    "run-ema": (
        ["run", "--n", "40", "--d", "0", "--attack", "ema", "--seed", "7", "--format", "records"],
        0, "d5d27491b9062021aaa4758a102d2f97eda6bbe80b2c2991cc7fbfce90d8aa8b"),
    "sweep-isra-paper": (
        ["sweep", "--attack", "isra", "--mode", "paper", "--y-values", "0,0.5,1", "--n", "6",
         "--d", "0.5", "--p", "0.5", "--trials", "150", "--seed", "8", "--format", "csv"],
        0, "21a07c2c782b80d7195710bbb296d2dfb877f32e59c2faf8503f6dbfa76eb3fa"),
    "sweep-imra-strict": (
        ["sweep", "--attack", "imra", "--mode", "strict", "--n-values", "1,2",
         "--d-values", "0.5,1", "--p-values", "0,0.5", "--trials", "100", "--seed", "9"],
        0, "2f840628d2fc245ce166b68260d45755b7fa52f5d7f4cb516ed1e3ee5cbdc1e2"),
    "sweep-ema-strict": (
        ["sweep", "--attack", "ema", "--mode", "strict", "--n", "5", "--trials", "100",
         "--seed", "10", "--format", "records"],
        0, "e8af1bd4cb1b30709bcb4c99d16ac827862a0e657a6c3eeb7a22ce413dfb2efa"),
    "curves": (
        ["curves", "--y-values", "0,0.5", "--d-values", "0.5", "--p-values", "0.5,1",
         "--n-values", "1,5,10", "--format", "csv"],
        0, "50dd6973b640c7455f0d60ba900c8808d93b36d076fbf0148e49f5c1ca74a395"),
    "teleport-demo-none": (
        ["teleport-demo", "--trials", "8", "--seed", "11", "--format", "csv"],
        0, "5a9a421743e226e4408a7ffd8db2b731fc3080e6f450794596cca013c75b70d6"),
    "teleport-demo-ema": (
        ["teleport-demo", "--attack", "ema", "--trials", "8", "--seed", "12"],
        0, "ebb30f1629a6e8f427c9924038ba533ff465c15dfc4a50e6121ed96c33fd9bd1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_hash(name, tmp_path):
    argv, status, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == status
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
