"""Teleportation over the psi+ channel and the corrupted-channel decomposition."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wshare import teleport as teleport_module
from wshare.attacks import AttackModel, eve_recover_attempt, eve_recover_batch
from wshare.protocol import ProtocolConfig, _round_tables, run_protocol, teleport_pairs
from wshare.statevec import (
    _BELL_MATRICES,
    BELL_NAMES,
    Basis,
    StateVector,
    _sample_bell_rows,
    enumerate_bell,
    enumerate_qubit,
    make_basis_state,
    make_message_state,
    reduced_density,
    reduced_fidelity,
    tensor,
)
from wshare.teleport import (
    CORRECTIONS,
    _bell_kernel,
    _corrections,
    _finish,
    apply_correction,
    build_correction_table,
    corrupted_channel,
    ema_decomposition,
    psi_plus_pair,
    random_amplitudes,
    random_message,
    teleport,
    teleport_batch,
    teleport_branches,
    teleport_fresh,
)

from helpers import reorder

RS2 = 1 / np.sqrt(2)


def psi_plus(labels=("a", "b")):
    amps = np.zeros(4, dtype=complex)
    amps[[1, 2]] = RS2
    return StateVector(amps, labels)


def test_correction_table_entries():
    # Derived, then frozen here: the psi+ channel swaps the roles that the
    # textbook phi+ channel assigns to I/X and Z/XZ.
    table = build_correction_table()
    assert table == {"psi+": "I", "psi-": "Z", "phi+": "X", "phi-": "XZ"}


def test_corrections_are_complete():
    table = build_correction_table()
    assert set(table) == {"psi+", "psi-", "phi+", "phi-"}
    assert set(table.values()) <= {"I", "X", "Z", "XZ"}


def test_faithful_teleportation_all_branches():
    rng = np.random.default_rng(42)
    for _ in range(100):
        msg = random_message(rng)
        results = teleport_branches(msg, psi_plus())
        assert len(results) == 4
        for res in results:
            assert res.probability == pytest.approx(0.25, abs=1e-12)
            assert res.fidelity == pytest.approx(1.0, abs=1e-12)


def test_teleport_basis_message():
    rng = np.random.default_rng(7)
    res = teleport(make_message_state(1, 0), psi_plus(), rng)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    # Bob's qubit is exactly |0>
    assert reduced_fidelity(res.residual, "b", make_basis_state([0], ["r"])) == pytest.approx(
        1.0, abs=1e-12
    )


def test_teleport_sampled_outcomes_cover_all_four():
    rng = np.random.default_rng(123)
    msg = make_message_state(0.6, 0.8)
    seen = {teleport(msg, psi_plus(), rng).outcome_name for _ in range(200)}
    assert seen == {"psi+", "psi-", "phi+", "phi-"}


def test_teleport_through_larger_register():
    # The pair may sit inside a bigger register (a stored ancilla rides along).
    extra = tensor(psi_plus(("a", "e")), make_basis_state([0], ["b"]))
    # entangled with e, not b: fidelity on b is that of a bystander qubit
    rng = np.random.default_rng(5)
    res = teleport(make_message_state(0.6, 0.8), extra, rng)
    assert res.residual.labels == ("e", "b")  # the bystander e rides along
    assert 0.0 <= res.fidelity <= 1.0


def test_teleport_rejects_missing_labels():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        teleport(make_message_state(1, 0), psi_plus(("x", "y")), rng)


def test_no_signaling():
    # Before the classical bits arrive, Bob's reduced state carries no
    # trace of the message: it is I/2 regardless of (a, b).
    for a, b in [(1, 0), (0.6, 0.8), (RS2, RS2 * 1j)]:
        joint = tensor(make_message_state(a, b), psi_plus())
        rho = reduced_density(joint, "b")
        assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_apply_correction_names():
    s = make_message_state(0.6, 0.8)
    assert_allclose(apply_correction(s, "m", "I").amplitudes, [0.6, 0.8])
    # the Paulis on the middle qubit of a 3-qubit register, against a hand-built
    # permutation (X swaps b = 0 and b = 1) and sign flip (Z negates b = 1)
    amplitudes = np.arange(1, 9) * (1 + 0.5j)
    s3 = StateVector(amplitudes / np.linalg.norm(amplitudes), ("a", "b", "c"))
    index = np.arange(8)
    flipped = index ^ 0b010
    sign = np.where(index & 0b010, -1, 1)
    assert np.array_equal(apply_correction(s3, "b", "I").amplitudes, s3.amplitudes)
    assert np.array_equal(apply_correction(s3, "b", "X").amplitudes, s3.amplitudes[flipped])
    assert np.array_equal(apply_correction(s3, "b", "Z").amplitudes, s3.amplitudes * sign)
    assert np.array_equal(apply_correction(s3, "b", "XZ").amplitudes, s3.amplitudes[flipped] * sign)
    with pytest.raises(ValueError):
        apply_correction(s, "m", "ZX")


def test_corrections_are_read_only_matrices():
    assert list(CORRECTIONS) == ["I", "X", "Z", "XZ"]
    assert np.array_equal(CORRECTIONS["XZ"], CORRECTIONS["Z"] @ CORRECTIONS["X"])
    for matrix in CORRECTIONS.values():
        assert matrix.shape == (2, 2) and matrix.dtype == float
        with pytest.raises(ValueError):
            matrix[0, 0] = 5.0
    table = build_correction_table()
    stacked = _corrections()[1]
    assert np.array_equal(stacked, np.stack([CORRECTIONS[table[name]] for name in BELL_NAMES]))
    with pytest.raises(ValueError):
        stacked[0, 0, 0] = 5.0


@pytest.fixture
def fresh_corrections():
    """The derived corrections' cache, emptied before and after the test."""
    teleport_module._corrections.cache_clear()
    yield
    teleport_module._corrections.cache_clear()


def test_correction_table_simulates_no_teleportation(monkeypatch, fresh_corrections):
    # The table is read off the Bell matrices: building it runs no Bell
    # measurement, tensor product, fidelity or correction of a state, which
    # stay the independent oracle's (teleport_branches).
    for oracle in ("enumerate_bell", "tensor", "reduced_fidelity", "apply_correction"):
        def refuse(*args, oracle=oracle):
            raise AssertionError(f"building the correction table called {oracle}")

        monkeypatch.setattr(teleport_module, oracle, refuse)
    assert build_correction_table() == {"psi+": "I", "psi-": "Z", "phi+": "X", "phi-": "XZ"}
    frozen = [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]]
    assert np.array_equal(_corrections()[1], np.array(frozen, dtype=float))


@pytest.mark.parametrize("corrections,refusal", [
    ({**CORRECTIONS, "-I": -CORRECTIONS["I"]}, "correction for psi+ not unique: ['I', '-I']"),
    ({name: matrix for name, matrix in CORRECTIONS.items() if name != "X"}, "correction for phi+ not unique: []"),
], ids=["second-fit", "no-fit"])
def test_correction_table_refuses_all_but_one_fit(corrections, refusal, monkeypatch, fresh_corrections):
    monkeypatch.setattr(teleport_module, "CORRECTIONS", corrections)
    with pytest.raises(RuntimeError) as refused:
        build_correction_table()
    assert str(refused.value) == refusal


# ---------------------------------------------------------------------------
# corrupted-channel decomposition


def test_decomposition_weights_and_branches():
    outs = ema_decomposition(0.6, 0.8)
    assert [o.name for o, _ in outs] == ["psi+", "psi-", "phi+", "phi-"]
    for _, residual in outs:
        assert residual.labels == ("b", "e")
    probs = [o.probability for o, _ in outs]
    assert_allclose(probs, [0.25] * 4, atol=1e-12)
    res = {o.name: r.amplitudes for o, r in outs}
    assert_allclose(res["psi+"], [0.6, 0, 0, 0.8], atol=1e-12)
    assert_allclose(res["psi-"], [0.6, 0, 0, -0.8], atol=1e-12)
    assert_allclose(res["phi+"], [0.8, 0, 0, 0.6], atol=1e-12)
    assert_allclose(res["phi-"], [-0.8, 0, 0, 0.6], atol=1e-12)


def test_decomposition_reconstructs_joint():
    rng = np.random.default_rng(99)
    for _ in range(20):
        msg = random_message(rng)
        a, b = msg.amplitudes
        joint = tensor(make_message_state(a, b), corrupted_channel())
        rebuilt = np.zeros_like(joint.amplitudes)
        for outcome, residual in ema_decomposition(a, b):
            bell = np.zeros(4, dtype=complex)
            if outcome.name == "psi+":
                bell[[1, 2]] = RS2
            elif outcome.name == "psi-":
                bell[[1, 2]] = RS2, -RS2
            elif outcome.name == "phi+":
                bell[[0, 3]] = RS2
            else:
                bell[[0, 3]] = RS2, -RS2
            rebuilt += np.sqrt(outcome.probability) * np.kron(bell, residual.amplitudes)
        assert_allclose(rebuilt, joint.amplitudes, atol=1e-12)


def test_decomposition_basis_message_gives_product_branches():
    for outcome, residual in ema_decomposition(1, 0):
        # message |0>: every residual is a basis ket (|00> or |11>)
        assert np.sum(np.abs(residual.amplitudes) > 1e-12) == 1


def test_corrupted_channel_bob_fidelity():
    # Teleporting over the corrupted channel: Bob's expected fidelity drops
    # to |a|^4 + |b|^4 (averaged over the four equiprobable branches).
    for a, b in [(0.6, 0.8), (1.0, 0.0), (RS2, RS2)]:
        msg = make_message_state(a, b)
        results = teleport_branches(msg, corrupted_channel())
        expected = sum(r.probability * r.fidelity for r in results)
        assert expected == pytest.approx(abs(a) ** 4 + abs(b) ** 4, abs=1e-12)


def test_corrupted_channel_eavesdropper_collapse():
    # Once the interceptor Z-measures her ancilla, Bob's qubit is left in a
    # definite Z eigenstate (his outcomes become deterministic).
    rng = np.random.default_rng(17)
    msg = random_message(rng)
    res = teleport(msg, corrupted_channel(), rng)
    eve_branch = next(
        b for b in enumerate_qubit(res.residual, "e", Basis.Z) if b.probability > 1e-12
    )
    rho_bob = reduced_density(eve_branch.post_state, "b")
    # pure and diagonal: a Z eigenstate
    assert_allclose(rho_bob @ rho_bob, rho_bob, atol=1e-12)
    assert abs(rho_bob[0, 1]) < 1e-12


def test_random_message_is_normalized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        msg = random_message(rng)
        assert_allclose(np.sum(np.abs(msg.amplitudes) ** 2), 1, atol=1e-12)


# ---------------------------------------------------------------------------
# the Bell kernel against the four-branch oracle


class CountingDraw:
    """Stand-in generator that hands out fixed uniforms and counts them."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


def protocol_pair_nodes():
    """(attack, pair) for every pair node a d=0 run hands over, plus the
    corrupted channel, also with Alice's qubit last; pairs come from the
    shared round-branch tree."""
    attacks = [AttackModel("none"), AttackModel("imra"), AttackModel("ema")]
    attacks += [AttackModel("isra", y) for y in (0.0, 0.3, 1.0)]
    nodes = []
    for attack in attacks:
        outcome = run_protocol(ProtocolConfig(n=60, d=0.0, p=0.5), attack,
                               np.random.default_rng(1))
        distinct = {id(state): state for state in outcome.pairs.states}
        nodes += [(attack, state) for state in distinct.values()]
    nodes.append((AttackModel("ema"), corrupted_channel()))
    nodes.append((AttackModel("ema"), reorder(corrupted_channel(), ("e", "b", "a"))))
    return nodes


PAIR_NODES = protocol_pair_nodes()


def test_protocol_hands_over_every_pair_node():
    kinds = [(attack.kind, state.labels) for attack, state in PAIR_NODES]
    assert kinds.count(("imra", ("a", "b"))) == 2  # Eve read 0 or 1
    assert kinds.count(("isra", ("a", "e", "b"))) == 3
    assert ("ema", ("e", "b", "a")) in kinds
    assert ("none", ("a", "b")) in kinds and ("ema", ("a", "b", "e")) in kinds


SLIVER = 3e-8  # an amplitude whose branches weigh ~5e-16: never sampled


def kernel_messages():
    """Basis messages (zero-probability branches), near-basis messages
    (branches at or below the sampling threshold) and Haar messages."""
    rng = np.random.default_rng(31)
    near = np.sqrt(1 - SLIVER ** 2)
    return [make_basis_state([0], ["m"]), make_basis_state([1], ["m"]),
            make_message_state(near, SLIVER), make_message_state(SLIVER, near)] + [
        random_message(rng) for _ in range(3)]


def boundary_draws(probabilities):
    """Draws just below and just above each cumulative boundary."""
    acc, bounds = 0.0, [0.0]
    for probability in probabilities:
        if probability > 1e-15:
            acc += probability
            bounds.append(acc)
    draws = {0.0, np.nextafter(1.0, 0.0)}
    for bound in bounds:
        draws.update(u for u in (bound - 1e-9, bound + 1e-9) if 0.0 <= u < 1.0)
    return sorted(draws)


def walk(probabilities, draw):
    """Index of the Bell outcome a draw selects, by a walk of this test's own."""
    acc, chosen = 0.0, None
    for k, probability in enumerate(probabilities):
        if probability <= 1e-15:
            continue
        chosen = k
        acc += probability
        if draw < acc:
            break
    return chosen


def oracle_branch(branches, draw):
    """The enumerate_bell branch a draw selects."""
    return branches[walk([b.probability for b in branches], draw)]


@pytest.mark.parametrize("node", range(len(PAIR_NODES)))
def test_kernel_matches_oracle_on_every_draw(node):
    attack, pair = PAIR_NODES[node]
    for message in kernel_messages():
        branches = enumerate_bell(tensor(message, pair), "m", "a")
        for draw in boundary_draws([b.probability for b in branches]):
            rand = CountingDraw(draw)
            got = teleport(message, pair, rand)
            branch = oracle_branch(branches, draw)
            want = _finish(branch, message)
            where = (attack.kind, pair.labels, message.amplitudes.tolist(), draw)
            assert rand.calls == 1, where
            assert (got.outcome_name, got.outcome_bits, got.correction) == (
                want.outcome_name, want.outcome_bits, want.correction), where
            assert got.probability == pytest.approx(want.probability, abs=1e-12), where
            assert got.fidelity == pytest.approx(want.fidelity, abs=1e-12), where
            # The oracle's whole register is the observed Bell pair times
            # the residual the kernel drew.
            oracle_post = apply_correction(branch.post_state, "b", want.correction)
            assert oracle_post.labels == ("m",) + pair.labels
            assert got.residual.labels == want.residual.labels, where
            bell = _BELL_MATRICES[BELL_NAMES.index(got.outcome_name)].reshape(-1)
            rebuilt = StateVector(np.kron(bell, got.residual.amplitudes), ("m", "a") + got.residual.labels)
            assert_allclose(reorder(rebuilt, oracle_post.labels).amplitudes, oracle_post.amplitudes,
                            atol=1e-12)
            assert_allclose(got.residual.amplitudes, want.residual.amplitudes, atol=1e-12)
            if "e" in pair.labels:
                eve_post = apply_correction(oracle_post, "e", want.correction)
                # isra and ema: Eve holds qubit e and has no bit
                assert eve_recover_attempt(attack, None, got, message) == pytest.approx(
                    reduced_fidelity(eve_post, "e", message), abs=1e-12), where


@pytest.mark.parametrize("node", range(len(PAIR_NODES)))
def test_kernel_teleport_consumes_one_uniform(node):
    _, pair = PAIR_NODES[node]
    for seed in range(5):
        rand, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        message = random_message(rand)
        random_message(twin)
        teleport(message, pair, rand)
        twin.random()
        assert rand.random() == twin.random()


# ---------------------------------------------------------------------------
# the batched teleport and recovery against the four-branch oracle


def around_boundaries(probabilities):
    """Draws at and one ulp either side of each cumulative boundary of the
    Bell walk (zero-probability branches skipped), inside [0, 1)."""
    acc, bounds = 0.0, [0.0, float(np.nextafter(1.0, 0.0))]
    for probability in probabilities:
        if probability > 1e-15:
            acc += probability
            bounds.append(acc)
    draws = {float(u) for b in bounds for u in (np.nextafter(b, -1.0), b, np.nextafter(b, 2.0))}
    return sorted(u for u in draws if 0.0 <= u < 1.0)


def kernel_probabilities(message, pair):
    """The four Bell weights of a message through the pair's kernel."""
    kernel, _ = _bell_kernel(pair)
    return (np.abs(message.amplitudes @ kernel).reshape(4, -1) ** 2).sum(axis=1).tolist()


def oracle_row(message, pair, draw):
    """The teleport_branches result that this test's walk over the kernel's
    weights picks for ``draw``."""
    k = walk(kernel_probabilities(message, pair), draw)
    branches = {result.outcome_name: result for result in teleport_branches(message, pair)}
    return branches[BELL_NAMES[k]]


def batch_cases(pair):
    """(message states, draws): every kernel message on every boundary draw
    of its own Bell distribution through the kernel, then Haar messages on
    Haar draws."""
    messages, draws = [], []
    for message in kernel_messages():
        for u in around_boundaries(kernel_probabilities(message, pair)):
            messages.append(message)
            draws.append(u)
    rng = np.random.default_rng(17)
    messages += [random_message(rng) for _ in range(50)]
    draws += rng.random(50).tolist()
    return messages, np.array(draws)


@pytest.mark.parametrize("node", range(len(PAIR_NODES)))
def test_batched_teleport_and_recovery_match_scalar(node):
    attack, pair = PAIR_NODES[node]
    messages, draws = batch_cases(pair)
    amplitudes = np.array([m.amplitudes for m in messages])
    batch = teleport_batch(amplitudes, _bell_kernel(pair), np.zeros(len(draws), dtype=int), draws)
    bits = {"none": (), "imra": (0, 1)}.get(attack.kind, (None,))
    recoveries = {bit: eve_recover_batch(attack, None if bit is None else np.full(len(draws), bit),
                                         batch, amplitudes) for bit in bits}
    for t, (message, u) in enumerate(zip(messages, draws)):
        want = oracle_row(message, pair, u)
        where = (attack.kind, pair.labels, message.amplitudes.tolist(), u)
        assert BELL_NAMES[batch.outcomes[t]] == want.outcome_name, where
        assert batch.probabilities[t] == pytest.approx(want.probability, abs=1e-12), where
        assert batch.labels == want.residual.labels, where
        assert_allclose(batch.residuals[t], want.residual.amplitudes, atol=1e-12)
        assert batch.fidelities[t] == pytest.approx(want.fidelity, abs=1e-12), where
        for bit, recovery in recoveries.items():
            assert recovery[t] == pytest.approx(
                eve_recover_attempt(attack, bit, want, message), abs=1e-12), where


# Hand-built Bell weights: an impossible first, middle or last branch (some
# at or just below the sampling threshold), and rows whose total falls short
# of 1, so draws at or past the total are inside [0, 1).
SAMPLED_ROWS = [
    [0.0, 0.3, 0.5, 0.2],
    [1e-16, 0.3, 0.5, 0.2],
    [0.4, 0.0, 0.35, 0.25],
    [0.3, 1e-15, 0.3, 0.3],
    [0.1, 0.6, 0.3, 0.0],
    [0.25, 0.5, 0.2, 1e-16],
    [0.0, 1e-16, 0.7, 0.0],
    [0.5, 0.0, 0.0, 0.5],
    [1.0, 0.0, 0.0, 0.0],
]


def test_sample_bell_rows_is_the_scalar_walk():
    probabilities, draws = [], []
    for row in SAMPLED_ROWS:
        total = sum(p for p in row if p > 1e-15)
        for u in around_boundaries(row) + [total, float(np.nextafter(total, 2.0)), 0.99]:
            if u < 1.0:
                probabilities.append(row)
                draws.append(u)
    got = _sample_bell_rows(np.array(probabilities), np.array(draws))
    for t, (row, u) in enumerate(zip(probabilities, draws)):
        assert got[t] == walk(row, u), (row, u)
        if u >= sum(p for p in row if p > 1e-15):  # at or past the total: the last possible branch
            assert got[t] == max(k for k, p in enumerate(row) if p > 1e-15), (row, u)


@pytest.mark.parametrize("rows", [[[0.0, 1e-15, 0.0, 1e-16]], [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]])
def test_sample_bell_rows_refuses_a_row_with_no_possible_branch(rows):
    with pytest.raises(RuntimeError):
        _sample_bell_rows(np.array(rows), np.full(len(rows), 0.5))


def test_teleport_batch_chunking_leaves_every_array_unchanged(monkeypatch):
    # Mixed imra nodes, 900 rows on node 1 and 100 on node 0 interleaved:
    # node 1 spans four 256-row chunks, and every block size gives the same
    # bits as one block per node.
    attack = AttackModel("imra")
    kernels = _round_tables(attack).kernels
    rand = np.random.default_rng(21)
    which = rand.permutation(np.repeat([0, 1], [100, 900]))
    messages, draws = random_amplitudes(rand, which.size), rand.random(which.size)
    results = {}
    for rows in (1, 3, 256, 10 ** 6):
        monkeypatch.setattr("wshare.teleport._BATCH_ROWS", rows)
        batch = teleport_batch(messages, kernels, which, draws)
        recovered = eve_recover_batch(attack, which, batch, messages)
        results[rows] = (batch.outcomes, batch.probabilities, batch.residuals, batch.fidelities, recovered)
    assert set(results[1][0].tolist()) == {0, 1, 2, 3}
    for rows, arrays in results.items():
        for got, want in zip(arrays, results[10 ** 6]):
            assert got.dtype == want.dtype and np.array_equal(got, want), rows


def test_fresh_teleports_draw_all_messages_then_one_uniform_per_row():
    kernels = _round_tables(AttackModel("imra")).kernels
    which = np.array([1, 0, 1, 1], dtype=np.uint8)
    rand, twin = np.random.default_rng(4), np.random.default_rng(4)
    messages, batch = teleport_fresh(kernels, which, rand)
    want_messages = random_amplitudes(twin, which.size)
    want = teleport_batch(want_messages, kernels, which, twin.random(which.size))
    assert np.array_equal(messages, want_messages)
    assert np.array_equal(batch.outcomes, want.outcomes)
    assert np.array_equal(batch.residuals, want.residuals)
    assert rand.random() == twin.random()
    empty_messages, empty = teleport_fresh(kernels, which[:0], rand)
    assert empty_messages.shape == (0, 2) and empty.fidelities.shape == (0,)
    assert rand.random() == twin.random()  # nothing to teleport draws nothing


@pytest.mark.parametrize("kind,channel", [("none", psi_plus_pair()), ("ema", corrupted_channel())])
def test_demo_channels_are_the_round_table_kernels(kind, channel):
    # teleport-demo reads its channel from the round tables: the same kernel,
    # bit for bit, as one built from the textbook channel register.
    kernel, rest = _round_tables(AttackModel(kind)).kernels
    want, want_rest = _bell_kernel(channel)
    assert np.array_equal(kernel, want) and rest == want_rest


def test_stacked_kernel_moves_no_bit():
    # imra's two pair nodes share one kernel array, one matmul per chunk over
    # both; with the nodes' rows interleaved, every row equals its row in a
    # one-node batch of that node's rows, bit for bit.
    attack = AttackModel("imra")
    tables = _round_tables(attack)
    rand = np.random.default_rng(23)
    which = rand.permutation(np.repeat(np.array([0, 1], dtype=np.uint8), [300, 400]))
    messages, draws = random_amplitudes(rand, which.size), rand.random(which.size)
    stacked = teleport_batch(messages, tables.kernels, which, draws)
    recovered = eve_recover_batch(attack, which, stacked, messages)
    assert set(stacked.outcomes.tolist()) == {0, 1, 2, 3}
    for node, pair in enumerate(tables.pairs):
        rows = np.flatnonzero(which == node)
        alone = teleport_batch(messages[rows], _bell_kernel(pair), np.zeros(rows.size, dtype=np.intp),
                               draws[rows])
        assert alone.labels == stacked.labels
        pairs = [(stacked.outcomes[rows], alone.outcomes), (stacked.probabilities[rows], alone.probabilities),
                 (stacked.residuals[rows], alone.residuals), (stacked.fidelities[rows], alone.fidelities),
                 (recovered[rows], eve_recover_batch(attack, which[rows], alone, messages[rows]))]
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want), node


@pytest.mark.parametrize("attack", [AttackModel("none"), AttackModel("imra"),
                                    AttackModel("isra", 0.3), AttackModel("ema")], ids=lambda a: a.kind)
def test_the_round_tables_are_read_only(attack):
    # The round tables are the engine's one cache, shared by every run of
    # the attack: no array in them, nor the corrections they were built
    # from, takes a write.
    tables = _round_tables(attack)
    kernel, _ = tables.kernels
    arrays = [tables.tc, tables.ta, tables.tb, kernel, _corrections()[1], *CORRECTIONS.values()]
    arrays += [pair.amplitudes for pair in tables.pairs]
    assert all(pair is not None for pair in tables.pairs)
    for array in arrays:
        assert array.flags.writeable is False


@pytest.mark.parametrize("which", [[0, 1, 5], [0, -1], [1]])
def test_teleport_batch_refuses_a_row_without_a_kernel(which):
    # A row of a node past the kernel's, or a negative one, raises instead of
    # reading another node's block (numpy would wrap -1 to the last).
    kernels = _bell_kernel(psi_plus_pair())
    messages = random_amplitudes(np.random.default_rng(2), len(which))
    with pytest.raises(ValueError):
        teleport_batch(messages, kernels, np.array(which), np.full(len(which), 0.5))


def test_batched_message_draw_is_the_scalar_one():
    rand, twin = np.random.default_rng(8), np.random.default_rng(8)
    batch = random_amplitudes(rand, 5)
    for row in batch:
        assert np.array_equal(random_message(twin).amplitudes, row)
    assert rand.random() == twin.random()


@pytest.mark.parametrize("attack", [AttackModel("none"), AttackModel("imra"),
                                    AttackModel("isra", 0.3), AttackModel("ema")],
                         ids=lambda attack: attack.kind)
def test_run_teleport_phase_matches_scalar(attack):
    # A run's pairs teleported by the four-branch oracle, on the messages and
    # uniforms the run's stream hands out next: every message first, then
    # the uniforms.
    config = ProtocolConfig(n=60, d=0.0, p=0.5)
    rand, twin = np.random.default_rng(5), np.random.default_rng(5)
    outcome = run_protocol(config, attack, rand)
    run_protocol(config, attack, twin)
    assert outcome.attack is attack
    batch, recoveries = teleport_pairs(outcome, rand)
    messages = [random_message(twin) for _ in outcome.pairs]
    bits = [outcome.eve_bits[t - 1] for t in outcome.pairs.positions]
    if attack.kind == "imra":
        assert set(bits) == {0, 1}  # both pair nodes are used
    assert (recoveries is None) == (attack.kind == "none")
    for i, ((_, pair), message, bit) in enumerate(zip(outcome.pairs, messages, bits)):
        want = oracle_row(message, pair, twin.random())
        where = (attack.kind, i)
        assert BELL_NAMES[batch.outcomes[i]] == want.outcome_name, where
        assert batch.probabilities[i] == pytest.approx(want.probability, abs=1e-12), where
        assert batch.labels == want.residual.labels, where
        assert_allclose(batch.residuals[i], want.residual.amplitudes, atol=1e-12)
        assert batch.fidelities[i] == pytest.approx(want.fidelity, abs=1e-12), where
        if recoveries is not None:
            assert recoveries[i] == pytest.approx(
                eve_recover_attempt(attack, bit, want, message), abs=1e-12), where
    assert rand.random() == twin.random()


@pytest.mark.parametrize("attack,p,seed", [
    (AttackModel("none"), 0.5, 2), (AttackModel("imra"), 0.5, 2), (AttackModel("isra", 0.3), 0.5, 2),
    (AttackModel("ema"), 0.5, 2), (AttackModel("isra", 1.0), 1.0, 4),  # the last run must abort
], ids=["none", "imra", "isra", "ema", "isra-aborted"])
def test_pairless_runs_teleport_nothing(attack, p, seed):
    # d = 1 sacrifices every round, so no run has a pair: Eve recovers an
    # empty array of fidelities (nothing when no attack was active).
    rand = np.random.default_rng(seed)
    outcome = run_protocol(ProtocolConfig(n=30, d=1.0, p=p), attack, rand)
    assert len(outcome.pairs) == 0
    assert outcome.aborted or seed != 4
    batch, recoveries = teleport_pairs(outcome, rand)
    assert batch.outcomes.shape == batch.fidelities.shape == (0,)
    if attack.kind == "none":
        assert recoveries is None
    else:
        assert recoveries.shape == (0,) and recoveries.dtype == float


def test_teleport_rejects_bad_labels():
    rng = np.random.default_rng(0)
    message = make_message_state(0.6, 0.8)
    with pytest.raises(ValueError):
        teleport(make_message_state(0.6, 0.8, label="a"), psi_plus(), rng)
    with pytest.raises(ValueError):
        teleport(tensor(message, make_basis_state([0], ["x"])), psi_plus(), rng)
