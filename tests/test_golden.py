"""Golden outputs: SHA-256 of small CLI invocations at fixed seeds.

The hashes were taken from the simulator before rounds were sampled from
memoized measurement branches, so they pin the random-stream layout and
every printed digit independently of that fast path.  A change that moves
any byte here must say why in CHANGES.md and recapture the hashes.
"""

import hashlib

import pytest

from wshare.cli import main

GOLDEN = {
    "run-none": (
        ["run", "--n", "12", "--d", "0.4", "--seed", "3", "--format", "records"],
        0, "b28981034ec57c5143c5c8c9f35a44c08aafb0ab64405c8852fa0413e33c703b"),
    "run-imra-strict": (
        ["run", "--n", "10", "--d", "0.3", "--mode", "strict", "--attack", "imra",
         "--seed", "4", "--format", "records"],
        2, "803fba401da98c6087fce643c1f34bc1c1e23e33e9f7fe6e50342c1ab94662e8"),
    "run-isra": (
        ["run", "--n", "12", "--d", "0.2", "--attack", "isra", "--isra-y", "0.5",
         "--seed", "5", "--format", "records"],
        0, "786195865db69e333fb55461305428cfed513b272e2201c693407e80bf71ee01"),
    "run-isra-nocheck": (
        ["run", "--n", "20", "--d", "0", "--attack", "isra", "--isra-y", "0.3",
         "--seed", "6", "--format", "csv"],
        0, "a792b7d23bd030280781a247cb55ddac09415b2fb11a1646d615ce14d33c3a65"),
    # Taken later, before attacks became pure values: the one golden run that
    # reaches Eve's measure-resend recovery (it prints eve-recovery-mean).
    "run-imra-pass": (
        ["run", "--n", "30", "--d", "0", "--attack", "imra", "--seed", "13", "--format", "records"],
        0, "2b823a207bdfddbadc00cb1bdf6ea3ad96abe9c260cc2853fdedaec64db9c628"),
    "run-ema": (
        ["run", "--n", "40", "--d", "0", "--attack", "ema", "--seed", "7", "--format", "records"],
        0, "53551107efb7b7f0136c4e5bd48ed984be00c159f767ce012c82b9c72822b851"),
    "sweep-isra-paper": (
        ["sweep", "--attack", "isra", "--mode", "paper", "--y-values", "0,0.5,1", "--n", "6",
         "--d", "0.5", "--p", "0.5", "--trials", "150", "--seed", "8", "--format", "csv"],
        0, "3dd0dc34e3c790ff8e5ba1b68560af1aff3d377b7bbdc67033dd14d33737dcf8"),
    "sweep-imra-strict": (
        ["sweep", "--attack", "imra", "--mode", "strict", "--n-values", "1,2",
         "--d-values", "0.5,1", "--p-values", "0,0.5", "--trials", "100", "--seed", "9"],
        0, "39395ffddea00cd8551df0e535c346f4921a1df8cd0d9a9469dca04aa3c948ce"),
    "sweep-ema-strict": (
        ["sweep", "--attack", "ema", "--mode", "strict", "--n", "5", "--trials", "100",
         "--seed", "10", "--format", "records"],
        0, "9a9ff3fd188b4ba1b2f840fc8734affa02263aadeb47e765d533b8cf3665c046"),
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
