"""The batched round engine against a plain scalar replay.

``replay`` below re-runs the protocol the direct way: it reads the stream
in the engine's layout (Eve, selection, basis, then the home, Alice and
Bob uniforms of each round), gives every round its own register, makes
every measurement a fresh ``measure_qubit`` on the round's uniform (the
home uniform in detection or in confirmation, whichever measures the home
qubit), and restates the checking rules inline.  It uses none of the engine's paths (the round tables, the shared
intercept registers, the rule masks), so ``run_protocol`` must match it bit
for bit: transcript, pair amplitudes, Eve's per-round bits and the next
draw of the generator.  The threshold tests place uniforms one ulp either
side of every table entry and ask ``measure_qubit`` for the outcome; the
frequency test holds the engine to ``enumerate_qubit``'s exact branch
probabilities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wshare import protocol
from wshare.attacks import AttackModel
from wshare.protocol import CheckerMode, ProtocolConfig, run_protocol
from wshare.statevec import (
    Basis,
    StateVector,
    apply_cnot,
    discard_qubit,
    enumerate_qubit,
    make_basis_state,
    make_message_state,
    make_w_state,
    measure_qubit,
    relabel,
    tensor,
)

from helpers import FixedDraw

ATTACKS = [("none", None), ("imra", None), ("isra", 0.0), ("isra", 0.5), ("isra", 1.0), ("ema", None)]
MODES = [CheckerMode.PAPER, CheckerMode.STRICT]
# Test ids stay as first published, so a case keeps its name in test history.
MODE_IDS = ["paper_analytic", "strict"]
GRID = [(1, 1.0, 0.5), (1, 0.0, 0.5), (1, 0.5, 1.0), (6, 1.0, 0.0), (8, 0.5, 0.5),
        (10, 0.3, 1.0), (12, 0.0, 0.5)]
SEEDS = range(4)
LAST = float(np.nextafter(1.0, 0.0))  # the largest uniform a generator can return


class Scripted:
    """Stand-in generator that hands out prepared arrays in order."""

    def __init__(self, *arrays):
        self.arrays = [np.asarray(a, dtype=float) for a in arrays]

    def random(self, shape):
        array = self.arrays.pop(0)
        assert array.shape == tuple(np.atleast_1d(shape)), (array.shape, shape)
        return array


def replay_intercept(kind, y, state, u):
    """One round's intercept as a fresh register; returns (state, Eve's bit)."""
    if kind == "imra":
        branch = measure_qubit(state, "b", Basis.Z, FixedDraw(u))
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
    eve = rand.random(n).tolist() if kind == "imra" else [None] * n
    selected = (rand.random(n) < config.d).tolist()
    bases = [Basis.Z if u < config.p else Basis.X for u in rand.random(n)]
    uniforms = rand.random((n, 3)).tolist()
    states, bits = {}, []
    for t in range(1, n + 1):
        states[t], bit = replay_intercept(kind, y, make_w_state(), eve[t - 1])
        bits.append(bit)
    transcript = [("charlie", "mode", "transmission"), ("charlie", "send", n),
                  ("charlie", "mode", "detecting")]
    positions = [t for t in range(1, n + 1) if selected[t - 1]]
    transcript.append(("charlie", "directives",
                       tuple((t, bases[t - 1].value) for t in positions)))
    rc, ra, rb = [], [], []
    for t in positions:
        basis = bases[t - 1]
        for label, label_basis, results, u in zip("cab", (Basis.Z, basis, basis),
                                                  (rc, ra, rb), uniforms[t - 1]):
            branch = measure_qubit(states[t], label, label_basis, FixedDraw(u))
            states[t] = branch.post_state
            results.append(branch.outcome)
    transcript += [("charlie", "home-results", tuple(rc)), ("alice", "results", tuple(ra)),
                   ("bob", "results", tuple(rb))]
    offending = tuple(t for t, c, a, b in zip(positions, rc, ra, rb)
                      if not rule_holds(bases[t - 1], config.checker_mode, c, a, b))
    if offending:
        transcript += [("charlie", "verdict", "detected"), ("charlie", "offending", offending),
                       ("charlie", "abort", "eavesdropping suspected; sequence discarded")]
        return transcript, (), (), tuple(bits)
    transcript += [("charlie", "verdict", "pass"), ("charlie", "mode", "confirmation")]
    surviving = [t for t in range(1, n + 1) if not selected[t - 1]]
    kept = []
    for i, t in enumerate(surviving, start=1):
        branch = measure_qubit(states[t], "c", Basis.Z, FixedDraw(uniforms[t - 1][0]))
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
    # The round tables are the engine's one cache, keyed by attack model.
    cache = protocol._round_tables
    cache.cache_clear()
    models = protocol._TABLE_CACHE_SIZE + 1
    for i in range(models):  # one more distinct fake qubit than the bound, each its own tree
        config = ProtocolConfig(n=8, d=1.0 if i % 2 else 0.0, p=0.5)
        run_protocol(config, AttackModel("isra", (i + 1) / (models + 1)), np.random.default_rng(i))
    info = cache.cache_info()
    assert info.maxsize is not None
    assert info.misses > info.maxsize  # the bound was actually exercised
    assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# thresholds, one ulp either side


def around(*thresholds):
    """Uniforms at and one ulp either side of each threshold, inside [0, 1)."""
    draws = set()
    for t in thresholds:
        draws.update(float(u) for u in (np.nextafter(t, -1.0), t, np.nextafter(t, 2.0)))
    return sorted(u for u in draws if 0.0 <= u < 1.0)


def p0(state, label, basis):
    return enumerate_qubit(state, label, basis)[0].probability


def basis_of(u):
    return Basis.Z if u < 0.5 else Basis.X  # the engine runs these slots at p = 0.5


def oracle_round(eve_root, root, slot):
    """(e, home, alice, bob) of one slot by fresh measure_qubit calls."""
    ue, uc, ux, ua, ub = slot
    e = 0
    if eve_root is not None:
        branch = measure_qubit(eve_root, "b", Basis.Z, FixedDraw(ue))
        e, root = branch.outcome, branch.post_state
    home = measure_qubit(root, "c", Basis.Z, FixedDraw(uc))
    alice = measure_qubit(home.post_state, "a", basis_of(ux), FixedDraw(ua))
    bob = measure_qubit(alice.post_state, "b", basis_of(ux), FixedDraw(ub))
    return e, home.outcome, alice.outcome, bob.outcome


def boundary_slots(tables, eve_root, root):
    """Slots (ue, uc, ux, ua, ub) that put one uniform around each table
    entry (and around the unclamped probability it was clamped from), the
    others steering the round to that entry's node."""
    slots = []
    if eve_root is not None:
        slots += [(u, 0.0, 0.0, 0.0, 0.0) for u in around(tables.te, p0(eve_root, "b", Basis.Z))]
    for ue in ((0.0, LAST) if eve_root is not None else (0.0,)):
        e, r = 0, root
        if eve_root is not None:
            branch = measure_qubit(eve_root, "b", Basis.Z, FixedDraw(ue))
            e, r = branch.outcome, branch.post_state
        slots += [(ue, u, 0.0, 0.0, 0.0) for u in around(tables.tc[e], p0(r, "c", Basis.Z))]
        for uc in (0.0, LAST):
            home = measure_qubit(r, "c", Basis.Z, FixedDraw(uc))
            for x, ux in enumerate((0.0, 0.75)):
                basis = basis_of(ux)
                slots += [(ue, uc, ux, u, 0.0) for u in around(
                    tables.ta[e, home.outcome, x], p0(home.post_state, "a", basis))]
                for ua in (0.0, LAST):
                    alice = measure_qubit(home.post_state, "a", basis, FixedDraw(ua))
                    slots += [(ue, uc, ux, ua, u) for u in around(
                        tables.tb[e, home.outcome, x, alice.outcome],
                        p0(alice.post_state, "b", basis))]
    return slots


def assert_engine_follows_thresholds(tables, eve_root, root):
    slots = boundary_slots(tables, eve_root, root)
    want = np.array([oracle_round(eve_root, root, slot) for slot in slots])
    ue, uc, ux, ua, ub = (np.array(column) for column in zip(*slots))
    for d in (1.0, 0.0):  # detection, then confirmation, reads the home uniform
        config = ProtocolConfig(n=len(slots), d=d, p=0.5, checker_mode="strict")
        eve = (ue,) if tables.te is not None else ()
        script = Scripted(*eve, np.zeros_like(uc), ux, np.stack([uc, ua, ub], axis=-1))
        eve, _, _, home, alice, bob = protocol._draw_rounds(tables, config, script)
        assert not script.arrays  # every array drawn
        assert np.array_equal(eve, want[:, 0])
        assert np.array_equal(home, want[:, 1]), d
        if d:
            assert np.array_equal(alice, want[:, 2])
            assert np.array_equal(bob, want[:, 3])


@pytest.mark.parametrize("kind,y", ATTACKS)
def test_table_thresholds_match_measure_qubit(kind, y):
    tables = protocol._round_tables(AttackModel(kind, y))
    w = make_w_state()
    if kind == "imra":
        assert_engine_follows_thresholds(tables, w, None)
    else:
        assert_engine_follows_thresholds(tables, None, replay_intercept(kind, y, w, None)[0])


SLIVER = 3e-8  # an amplitude whose branch weighs ~9e-16: never sampled
NEAR = float(np.sqrt(1 - SLIVER ** 2))


@pytest.mark.parametrize("amplitudes", [
    # home reads 1 with probability ~9e-16: a draw above P(0) still reads 0
    {0b100: NEAR * np.sqrt(0.5), 0b010: NEAR * np.sqrt(0.5), 0b001: SLIVER},
    # home reads 0 with probability ~9e-16: even a draw of 0.0 reads 1
    {0b001: NEAR, 0b100: SLIVER},
], ids=["near-certain-home-0", "near-impossible-home-0"])
def test_table_thresholds_clamp_near_certain_branches(amplitudes):
    amps = np.zeros(8, dtype=complex)
    for index, value in amplitudes.items():
        amps[index] = value
    root = StateVector(amps, ("a", "b", "c"))
    tables = protocol._compile_tables(None, (root,))
    assert tables.tc[0] in (0.0, 1.0)  # clamped
    assert_engine_follows_thresholds(tables, None, root)


def random_root(rng):
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    return StateVector(z / np.linalg.norm(z), ("a", "b", "c"))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_table_thresholds_match_measure_qubit_on_random_roots(seed):
    root = random_root(np.random.default_rng(seed))
    assert_engine_follows_thresholds(protocol._compile_tables(None, (root,)), None, root)


# ---------------------------------------------------------------------------
# outcome frequencies against the exact branch probabilities


def exact_round_distribution(kind, y, p):
    """{(e, x, c, a, b): probability} of a detection round, and
    {(e, c): probability} of a confirmation, by enumeration."""
    w = make_w_state()
    if kind == "imra":
        roots = [(b.outcome, b.probability, b.post_state) for b in enumerate_qubit(w, "b", Basis.Z)]
    else:
        roots = [(0, 1.0, replay_intercept(kind, y, w, None)[0])]
    detection, confirmation = {}, {}
    for e, weight, root in roots:
        for home in enumerate_qubit(root, "c", Basis.Z):
            confirmation[e, home.outcome] = weight * home.probability
            for x, (basis, pb) in enumerate(((Basis.Z, p), (Basis.X, 1 - p))):
                for alice in (enumerate_qubit(home.post_state, "a", basis)
                              if home.post_state is not None else ()):
                    for bob in (enumerate_qubit(alice.post_state, "b", basis)
                                if alice.post_state is not None else ()):
                        detection[e, x, home.outcome, alice.outcome, bob.outcome] = (
                            weight * pb * home.probability * alice.probability * bob.probability)
    return detection, confirmation


def assert_frequencies(counts, total, probabilities):
    for key in set(counts) | set(probabilities):
        q = probabilities.get(key, 0.0)
        got = counts.get(key, 0)
        if q <= 1e-15:
            assert got == 0, (key, got)
        else:
            assert abs(got - total * q) <= 4 * np.sqrt(total * q * (1 - q)) + 1e-9, (key, got, total * q)


# (attack, p, seed): fixed cases, so an edit to the test body gates the same draws
FREQUENCY_CASES = [
    (("none", None), 0.0, 0), (("isra", 0.5), 0.0, 0), (("isra", 0.5), 0.3, 54895),
    (("isra", 1.0), 0.0, 363837), (("none", None), 0.3, 288), (("none", None), 0.0, 60877716),
    (("imra", None), 1.0, 1148955397), (("ema", None), 0.5, 2147483647), (("imra", None), 0.0, 652),
    (("isra", 0.5), 0.5, 9017582), (("isra", 0.0), 0.5, 216), (("ema", None), 0.0, 19002),
]


@pytest.mark.parametrize("attack, p, seed", FREQUENCY_CASES,
                         ids=[f"{kind}{'' if y is None else y}-p{p}-{seed}" for (kind, y), p, seed in FREQUENCY_CASES])
def test_engine_frequencies_match_enumeration(attack, p, seed):
    kind, y = attack
    config = ProtocolConfig(n=4000, d=0.5, p=p, checker_mode="strict")
    eve, selected, x_basis, home, alice, bob = protocol._draw_rounds(
        protocol._round_tables(AttackModel(kind, y)), config, np.random.default_rng(seed))
    detection, confirmation = exact_round_distribution(kind, y, p)
    keys = zip(*(column[selected].astype(int).tolist() for column in (eve, x_basis, home, alice, bob)))
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    assert_frequencies(counts, int(selected.sum()), detection)
    keys = zip(eve[~selected].tolist(), home[~selected].astype(int).tolist())
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    assert_frequencies(counts, int((~selected).sum()), confirmation)
