"""Attack models: state tampering, Eve's memory, and her recovery fidelity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wshare.attacks import (
    AttackModel,
    ema_intercept,
    eve_recover_attempt,
    imra_intercept,
    isra_intercept,
)
from wshare.statevec import (
    Basis,
    discard_qubit,
    enumerate_qubit,
    make_message_state,
    make_w_state,
    reduced_density,
    z_marginal,
)
from wshare.teleport import corrupted_channel, random_message, teleport, teleport_branches

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
    for i in range(2000):
        post, record = imra_intercept(w, rng, round_index=i)
        seen[record.bit] += 1
        assert_allclose(post.amplitudes, want0 if record.bit == 0 else want1, atol=1e-12)
    frac = seen[0] / 2000
    sigma = np.sqrt((2 / 9) / 2000)
    assert abs(frac - 2 / 3) < 4 * sigma


def test_imra_forwarded_qubit_is_unentangled():
    w = make_w_state()
    rng = np.random.default_rng(1)
    for _ in range(10):
        post, _ = imra_intercept(w, rng)
        rho = reduced_density(post, "b")
        purity = float(np.real(np.trace(rho @ rho)))
        assert purity == pytest.approx(1.0, abs=1e-12)


def test_isra_joint_state_term_by_term():
    joint, record = isra_intercept(make_w_state(), x=0.6, y=0.8, round_index=3)
    assert joint.labels == ("a", "e", "c", "b")
    assert record.stored_label == "e"
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
    joint, _ = isra_intercept(make_w_state(), x=0.6, y=0.8)
    probs = np.abs(joint.amplitudes) ** 2
    groups = [probs[[0b1000, 0b1001]].sum(), probs[[0b0100, 0b0101]].sum(), probs[[0b0010, 0b0011]].sum()]
    assert_allclose(groups, [1 / 3] * 3, atol=1e-12)


def test_isra_rejects_unnormalized_fake():
    with pytest.raises(ValueError):
        isra_intercept(make_w_state(), x=1.0, y=0.5)


def test_isra_y_zero_sends_plain_zero_but_keeps_entanglement():
    joint, _ = isra_intercept(make_w_state(), x=1.0, y=0.0)
    assert_allclose(z_marginal(joint, ("b",)), [1.0, 0.0], atol=1e-12)
    rho_e = reduced_density(joint, "e")
    purity = float(np.real(np.trace(rho_e @ rho_e)))
    assert purity < 1.0 - 1e-6  # her stored qubit is still part of the W state


def test_ema_state_and_marginal():
    joint, record = ema_intercept(make_w_state(), round_index=1)
    assert joint.labels == ("a", "b", "c", "e")
    want = np.zeros(16)
    want[[0b1000, 0b0101, 0b0010]] = RS3
    assert_allclose(joint.amplitudes, want, atol=1e-12)
    # Z statistics of the three protocol qubits are exactly the W state's
    assert_allclose(
        z_marginal(joint, ("a", "b", "c")), z_marginal(make_w_state(), ("a", "b", "c")), atol=1e-15
    )
    assert record.stored_label == "e"


# ---------------------------------------------------------------------------
# AttackModel bookkeeping


def test_attack_model_validation():
    with pytest.raises(ValueError):
        AttackModel("spoof")
    with pytest.raises(ValueError):
        AttackModel("isra", x=1.0, y=1.0)
    with pytest.raises(ValueError):
        AttackModel.isra(y=1.5)


def test_isra_constructor_derives_x():
    attack = AttackModel.isra(y=0.8)
    assert attack.x == pytest.approx(0.6)


def test_intercept_dispatch_accumulates_records():
    rng = np.random.default_rng(0)
    attack = AttackModel.imra()
    state = make_w_state()
    for t in (1, 2, 3):
        attack.intercept(state, t, rng)
    assert list(attack.records) == [1, 2, 3]
    assert [r.round_index for r in attack.records.values()] == [1, 2, 3]
    assert attack.record_for(2) is attack.records[2]
    assert attack.record_for(2).kind == "imra"
    assert attack.record_for(99) is None


def test_none_attack_is_passthrough():
    rng = np.random.default_rng(0)
    attack = AttackModel.none()
    w = make_w_state()
    out = attack.intercept(w, 1, rng)
    assert out is w
    assert attack.records == {}


# ---------------------------------------------------------------------------
# Eve's recovery


def test_recover_requires_attack_and_result():
    msg = make_message_state(0.6, 0.8)
    with pytest.raises(ValueError):
        eve_recover_attempt(AttackModel.none(), None, None, msg)
    attack = AttackModel.imra()
    rec = None
    rng = np.random.default_rng(0)
    attack.intercept(make_w_state(), 1, rng)
    rec = attack.records[1]
    with pytest.raises(RuntimeError):
        eve_recover_attempt(attack, rec, None, msg)


def test_imra_recovery_equals_classical_channel():
    # Eve and Bob both hold the same eigenstate, so their post-correction
    # fidelities agree, and equal |<msg|C|bit>|^2.
    rng = np.random.default_rng(21)
    attack = AttackModel.imra()
    post = attack.intercept(make_w_state(), 1, rng)
    rec = attack.records[1]
    pair = home_zero_branch(post)
    msg = random_message(rng)
    res = teleport(msg, pair, rng)
    eve_fid = eve_recover_attempt(attack, rec, res, msg)
    assert eve_fid == pytest.approx(res.fidelity, abs=1e-12)


def test_isra_recovery_is_perfect():
    # Eve stored the genuine travel qubit: (a, e) is the true Bell channel,
    # so Bob's correction applied to e hands her the message exactly.
    rng = np.random.default_rng(4)
    attack = AttackModel.isra(y=0.8)
    post = attack.intercept(make_w_state(), 1, rng)
    rec = attack.records[1]
    pair = home_zero_branch(post)  # labels (a, e, b)
    for _ in range(5):
        msg = random_message(rng)
        for res in teleport_branches(msg, pair):
            assert eve_recover_attempt(attack, rec, res, msg) == pytest.approx(1.0, abs=1e-12)


def test_ema_recovery_fidelity():
    # Eve's ancilla is classically twinned with Bob's qubit; applying the
    # broadcast correction to it yields |a|^4 + |b|^4 for every branch.
    rng = np.random.default_rng(6)
    attack = AttackModel.ema()
    post = attack.intercept(make_w_state(), 1, rng)
    rec = attack.records[1]
    pair = home_zero_branch(post)
    assert_allclose(pair.amplitudes, corrupted_channel(pair.labels).amplitudes, atol=1e-12)
    for a, b in [(0.6, 0.8), (1.0, 0.0), (RS2, RS2 * 1j)]:
        msg = make_message_state(a, b)
        for res in teleport_branches(msg, pair):
            fid = eve_recover_attempt(attack, rec, res, msg)
            assert fid == pytest.approx(abs(a) ** 4 + abs(b) ** 4, abs=1e-12)
