"""Attack models: state tampering, Eve's memory, and her recovery fidelity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wshare.attacks import AttackModel, eve_recover_attempt, eve_recover_batch
from wshare.protocol import ProtocolConfig, run_protocol
from wshare.statevec import (
    Basis,
    discard_qubit,
    enumerate_qubit,
    make_message_state,
    make_w_state,
    reduced_density,
)
from wshare.teleport import corrupted_channel, random_message, teleport, teleport_branches

from helpers import FixedDraw, z_marginal

RS2 = 1 / np.sqrt(2)
RS3 = 1 / np.sqrt(3)


def home_zero_branch(state):
    """Collapse the home qubit c onto outcome 0 and drop it."""
    branch = enumerate_qubit(state, "c", Basis.Z)[0]
    return discard_qubit(branch.post_state, "c")


# ---------------------------------------------------------------------------
# intercepts


def test_imra_branches_and_probabilities():
    w = make_w_state()
    want0 = np.zeros(8)
    want0[[0b100, 0b001]] = RS2
    want1 = np.zeros(8)
    want1[0b010] = 1.0

    rng = np.random.default_rng(8)
    seen = {0: 0, 1: 0}
    attack = AttackModel("imra")
    for _ in range(2000):
        post, bit = attack.intercept(w, rng)
        seen[bit] += 1
        assert_allclose(post.amplitudes, want0 if bit == 0 else want1, atol=1e-12)
    frac = seen[0] / 2000
    sigma = np.sqrt((2 / 9) / 2000)
    assert abs(frac - 2 / 3) < 4 * sigma


@pytest.mark.parametrize("kind,y", [("none", None), ("imra", None), ("isra", 0.0), ("isra", 0.6),
                                    ("ema", None)])
def test_branches_split_the_round_as_the_oracles_do(kind, y):
    attack, w = AttackModel(kind, y), make_w_state()
    weights, registers = zip(*attack.branches(w))
    if kind == "imra":
        zero, one = enumerate_qubit(w, "b", Basis.Z)
        assert weights == (zero.probability, 1.0 - zero.probability)  # the clamp never binds on the W state
        want = (zero.post_state, one.post_state)
    else:
        assert weights == (1.0,)
        want = (attack.intercept(w, None)[0],)
    assert len(registers) == len(want)
    for got, expected in zip(registers, want):
        assert got.labels == expected.labels
        assert np.array_equal(got.amplitudes, expected.amplitudes)


def test_sampled_imra_intercept_reads_its_branches_threshold():
    attack, w = AttackModel("imra"), make_w_state()
    branches = attack.branches(w)
    threshold = branches[0][0]
    for u in (float(np.nextafter(threshold, 0.0)), float(np.nextafter(threshold, 1.0))):
        post, bit = attack.intercept(w, FixedDraw(u))
        assert bit == int(u >= threshold)
        assert np.array_equal(post.amplitudes, branches[bit][1].amplitudes)


def test_imra_forwarded_qubit_is_unentangled():
    w = make_w_state()
    rng = np.random.default_rng(1)
    for _ in range(10):
        post, _ = AttackModel("imra").intercept(w, rng)
        rho = reduced_density(post, "b")
        purity = float(np.real(np.trace(rho @ rho)))
        assert purity == pytest.approx(1.0, abs=1e-12)


def test_isra_joint_state_term_by_term():
    joint, bit = AttackModel("isra", y=0.8).intercept(make_w_state(), None)
    assert joint.labels == ("a", "e", "c", "b")
    assert bit is None
    want = np.zeros(16, dtype=complex)
    want[0b1000] = 0.6 * RS3  # x |1000>
    want[0b1001] = 0.8 * RS3  # y |1001>
    want[0b0100] = 0.6 * RS3
    want[0b0101] = 0.8 * RS3
    want[0b0010] = 0.6 * RS3
    want[0b0011] = 0.8 * RS3
    assert_allclose(joint.amplitudes, want, atol=1e-12)


def test_isra_three_branch_weights():
    # Grouping the six terms by which of a/e/c carries the excitation gives
    # three branches of weight 1/3 each.
    joint, _ = AttackModel("isra", y=0.8).intercept(make_w_state(), None)
    probs = np.abs(joint.amplitudes) ** 2
    groups = [probs[[0b1000, 0b1001]].sum(), probs[[0b0100, 0b0101]].sum(), probs[[0b0010, 0b0011]].sum()]
    assert_allclose(groups, [1 / 3] * 3, atol=1e-12)


def test_isra_y_zero_sends_plain_zero_but_keeps_entanglement():
    joint, _ = AttackModel("isra", y=0.0).intercept(make_w_state(), None)
    assert_allclose(z_marginal(joint, ("b",)), [1.0, 0.0], atol=1e-12)
    rho_e = reduced_density(joint, "e")
    purity = float(np.real(np.trace(rho_e @ rho_e)))
    assert purity < 1.0 - 1e-6  # her stored qubit is still part of the W state


def test_ema_state_and_marginal():
    joint, bit = AttackModel("ema").intercept(make_w_state(), None)
    assert joint.labels == ("a", "b", "c", "e")
    want = np.zeros(16)
    want[[0b1000, 0b0101, 0b0010]] = RS3
    assert_allclose(joint.amplitudes, want, atol=1e-12)
    # Z statistics of the three protocol qubits are exactly the W state's
    assert_allclose(
        z_marginal(joint, ("a", "b", "c")), z_marginal(make_w_state(), ("a", "b", "c")), atol=1e-15
    )
    assert bit is None


# ---------------------------------------------------------------------------
# AttackModel construction and purity


def test_attack_model_validation():
    with pytest.raises(ValueError):
        AttackModel("spoof")
    with pytest.raises(ValueError):
        AttackModel("isra")  # y missing
    for y in (1.5, -0.1, float("nan"), True, np.bool_(True), "0.5", 0.5j, 10 ** 400):
        with pytest.raises(ValueError):
            AttackModel("isra", y=y)
    for y in (1, np.float32(0.5)):  # any real y, stored as a plain float
        assert type(AttackModel("isra", y=y).y) is float
    for kind in ("none", "imra", "ema"):
        with pytest.raises(ValueError):
            AttackModel(kind, y=0.5)
    with pytest.raises(TypeError):
        AttackModel("isra", y=0.5, x=0.5)  # x is derived, never given


def test_isra_constructor_derives_x():
    attack = AttackModel("isra", y=0.8)
    assert attack.x == pytest.approx(0.6)
    assert AttackModel("ema").x is None


def test_intercept_returns_eves_bit_per_call():
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    attack = AttackModel("imra")
    state = make_w_state()
    bits = [attack.intercept(state, rng)[1] for _ in range(3)]
    # one uniform per call, nothing kept between calls
    assert bits == [0 if u < 2 / 3 else 1 for u in twin.random(3)]
    assert attack == AttackModel("imra")
    for kind, y in (("isra", 0.5), ("ema", None)):
        assert AttackModel(kind, y).intercept(state, rng)[1] is None
    assert rng.random() == twin.random()  # isra and ema drew nothing


def test_none_attack_is_passthrough():
    rng = np.random.default_rng(0)
    w = make_w_state()
    out, bit = AttackModel("none").intercept(w, rng)
    assert out is w
    assert bit is None
    assert rng.random() == np.random.default_rng(0).random()


def test_reused_model_matches_fresh_ones_and_is_frozen():
    config = ProtocolConfig(n=12, d=0.3, p=0.5, checker_mode="strict")
    for kind, y in (("imra", None), ("isra", 0.4), ("ema", None)):
        shared = AttackModel(kind, y)
        for seed in range(6):
            reused = run_protocol(config, shared, np.random.default_rng(seed))
            fresh = run_protocol(config, AttackModel(kind, y), np.random.default_rng(seed))
            assert reused.transcript == fresh.transcript
            assert reused.eve_bits == fresh.eve_bits
            assert reused.pairs.positions == fresh.pairs.positions
        with pytest.raises(AttributeError, match="cannot assign to field 'y'"):
            shared.y = 0.9
        with pytest.raises(AttributeError, match="cannot assign to field 'kind'"):
            shared.kind = "none"


# ---------------------------------------------------------------------------
# Eve's recovery


def test_recover_requires_attack_and_result():
    msg = make_message_state(0.6, 0.8)
    with pytest.raises(ValueError):
        eve_recover_attempt(AttackModel("none"), None, None, msg)
    with pytest.raises(ValueError, match="no attack was active"):
        eve_recover_batch(AttackModel("none"), None, None, np.array([[0.6, 0.8]]))
    attack = AttackModel("imra")
    _, bit = attack.intercept(make_w_state(), np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        eve_recover_attempt(attack, bit, None, msg)


def test_imra_recovery_equals_classical_channel():
    # Eve and Bob both hold the same eigenstate, so their post-correction
    # fidelities agree, and equal |<msg|C|bit>|^2.
    rng = np.random.default_rng(21)
    attack = AttackModel("imra")
    post, bit = attack.intercept(make_w_state(), rng)
    pair = home_zero_branch(post)
    msg = random_message(rng)
    res = teleport(msg, pair, rng)
    eve_fid = eve_recover_attempt(attack, bit, res, msg)
    assert eve_fid == pytest.approx(res.fidelity, abs=1e-12)


def test_isra_recovery_is_perfect():
    # Eve stored the genuine travel qubit: (a, e) is the true Bell channel,
    # so Bob's correction applied to e hands her the message exactly.
    rng = np.random.default_rng(4)
    attack = AttackModel("isra", y=0.8)
    post, bit = attack.intercept(make_w_state(), rng)
    pair = home_zero_branch(post)  # labels (a, e, b)
    for _ in range(5):
        msg = random_message(rng)
        for res in teleport_branches(msg, pair):
            assert eve_recover_attempt(attack, bit, res, msg) == pytest.approx(1.0, abs=1e-12)


def test_ema_recovery_fidelity():
    # Eve's ancilla is classically twinned with Bob's qubit; applying the
    # broadcast correction to it yields |a|^4 + |b|^4 for every branch.
    rng = np.random.default_rng(6)
    attack = AttackModel("ema")
    post, bit = attack.intercept(make_w_state(), rng)
    pair = home_zero_branch(post)
    assert pair.labels == corrupted_channel().labels
    assert_allclose(pair.amplitudes, corrupted_channel().amplitudes, atol=1e-12)
    for a, b in [(0.6, 0.8), (1.0, 0.0), (RS2, RS2 * 1j)]:
        msg = make_message_state(a, b)
        for res in teleport_branches(msg, pair):
            fid = eve_recover_attempt(attack, bit, res, msg)
            assert fid == pytest.approx(abs(a) ** 4 + abs(b) ** 4, abs=1e-12)
