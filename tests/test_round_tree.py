"""The memoized round-branch tree against a plain scalar replay.

``replay`` below re-runs the protocol the direct way: every round gets its
own register, every measurement is a fresh ``measure_qubit`` draw, and the
checking rules are restated inline.  It uses none of the memoized paths
(``measure_shared``, the shared intercept registers, the cached pair
discard), so ``run_protocol`` must match it bit for bit: transcript, pair
amplitudes, Eve's per-round bits and the next draw of the generator.
"""

import numpy as np
import pytest

from wshare import attacks, protocol, statevec
from wshare.attacks import AttackModel
from wshare.protocol import CheckerMode, ProtocolConfig, run_protocol
from wshare.statevec import (
    Basis,
    apply_cnot,
    discard_qubit,
    make_basis_state,
    make_message_state,
    make_w_state,
    measure_qubit,
    relabel,
    tensor,
)

ATTACKS = [("none", None), ("imra", None), ("isra", 0.0), ("isra", 0.5), ("isra", 1.0), ("ema", None)]
MODES = [CheckerMode.PAPER, CheckerMode.STRICT]
# Test ids stay as first published, so a case keeps its name in test history.
MODE_IDS = ["paper_analytic", "strict"]
GRID = [(1, 1.0, 0.5), (1, 0.0, 0.5), (1, 0.5, 1.0), (6, 1.0, 0.0), (8, 0.5, 0.5),
        (10, 0.3, 1.0), (12, 0.0, 0.5)]
SEEDS = range(4)


def replay_intercept(kind, y, state, rand):
    """One round's intercept as a fresh register; returns (state, Eve's bit)."""
    if kind == "imra":
        branch = measure_qubit(state, "b", Basis.Z, rand)
        return branch.post_state, branch.outcome
    if kind == "isra":
        fake = make_message_state(float(np.sqrt(1.0 - y * y)), y, label="b")
        return tensor(relabel(state, {"b": "e"}), fake), None
    if kind == "ema":
        joint = tensor(state, make_basis_state([0], ["e"]))
        return apply_cnot(joint, "b", "e"), None
    return state, None


def rule_holds(basis, mode, rc, ra, rb):
    if basis is Basis.Z:
        return (ra ^ rb) == 1 if rc == 0 else ra == 0 and rb == 0
    return ra == rb if mode is CheckerMode.STRICT and rc == 0 else True


def replay(config, kind, y, rand):
    """(transcript, pair positions, pair states, Eve's bits) the direct way."""
    n = config.n
    states, bits = {}, []
    for t in range(1, n + 1):
        states[t], bit = replay_intercept(kind, y, make_w_state(("a", "b", "c")), rand)
        bits.append(bit)
    transcript = [("charlie", "mode", "transmission"), ("charlie", "send", n),
                  ("charlie", "mode", "detecting")]
    positions = [int(i) + 1 for i in np.flatnonzero(rand.random(n) < config.d)]
    bases = [Basis.Z if u < config.p else Basis.X for u in rand.random(len(positions))]
    transcript.append(("charlie", "directives", tuple((t, b.value) for t, b in zip(positions, bases))))
    rc, ra, rb = [], [], []
    for t, basis in zip(positions, bases):
        for label, label_basis, results in (("c", Basis.Z, rc), ("a", basis, ra), ("b", basis, rb)):
            branch = measure_qubit(states[t], label, label_basis, rand)
            states[t] = branch.post_state
            results.append(branch.outcome)
    transcript += [("charlie", "home-results", tuple(rc)), ("alice", "results", tuple(ra)),
                   ("bob", "results", tuple(rb))]
    offending = tuple(t for t, basis, c, a, b in zip(positions, bases, rc, ra, rb)
                      if not rule_holds(basis, config.checker_mode, c, a, b))
    if offending:
        transcript += [("charlie", "verdict", "detected"), ("charlie", "offending", offending),
                       ("charlie", "abort", "eavesdropping suspected; sequence discarded")]
        return transcript, (), (), tuple(bits)
    transcript += [("charlie", "verdict", "pass"), ("charlie", "mode", "confirmation")]
    surviving = [t for t in range(1, n + 1) if t not in set(positions)]
    kept = []
    for i, t in enumerate(surviving, start=1):
        branch = measure_qubit(states[t], "c", Basis.Z, rand)
        states[t] = branch.post_state
        if branch.outcome == 0:
            kept.append(i)
    pair_positions = tuple(surviving[i - 1] for i in kept)
    transcript += [("charlie", "distill-positions", tuple(kept)),
                   ("charlie", "pair-count", len(pair_positions))]
    pair_states = tuple(discard_qubit(states[t], "c") for t in pair_positions)
    return transcript, pair_positions, pair_states, tuple(bits)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("kind,y", ATTACKS)
def test_run_protocol_matches_scalar_replay(kind, y, mode):
    for n, d, p in GRID:
        config = ProtocolConfig(n=n, d=d, p=p, checker_mode=mode)
        for seed in SEEDS:
            fast_rand, slow_rand = np.random.default_rng(seed), np.random.default_rng(seed)
            outcome = run_protocol(config, AttackModel(kind, y), fast_rand)
            transcript, positions, states, bits = replay(config, kind, y, slow_rand)
            where = f"{kind} y={y} {mode} n={n} d={d} p={p} seed={seed}"
            assert list(outcome.transcript) == transcript, where
            assert outcome.pairs.positions == positions, where
            for got, want in zip(outcome.pairs.states, states):
                assert got.labels == want.labels, where
                assert np.array_equal(got.amplitudes, want.amplitudes), where
            assert outcome.eve_bits == bits, where
            if kind != "imra":
                assert bits == (None,) * n, where
            assert fast_rand.random() == slow_rand.random(), where


def test_rounds_share_their_states():
    outcome = run_protocol(ProtocolConfig(n=30, d=0.0, p=0.5), AttackModel("ema"),
                           np.random.default_rng(3))
    assert len(outcome.pairs) > 1
    assert len({id(state) for state in outcome.pairs.states}) == 1


def test_branch_caches_stay_bounded():
    caches = (statevec._branch_node, protocol._pair_state, attacks._isra_joint)
    for cache in caches:
        cache.cache_clear()
    for i in range(600):  # 600 distinct fake qubits, each its own tree
        config = ProtocolConfig(n=8, d=1.0 if i % 2 else 0.0, p=0.5)
        run_protocol(config, AttackModel("isra", (i + 1) / 601), np.random.default_rng(i))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.misses > info.maxsize, cache  # the bound was actually exercised
        assert info.currsize <= info.maxsize, cache
