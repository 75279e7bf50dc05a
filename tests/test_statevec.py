"""State-vector core: constructors, gates, measurement, Bell projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wshare.attacks import AttackModel
from wshare.statevec import (
    Basis,
    StateVector,
    apply_cnot,
    apply_x,
    apply_z,
    discard_qubit,
    enumerate_bell,
    enumerate_qubit,
    make_basis_state,
    make_message_state,
    make_w_state,
    measure_qubit,
    reduced_density,
    reduced_fidelity,
    relabel,
    tensor,
)

from helpers import reorder, state_fidelity, z_marginal

RS2 = 1 / np.sqrt(2)
RS3 = 1 / np.sqrt(3)


def random_state(rng, labels):
    """Haar-ish random pure state: complex normal amplitudes, normalized."""
    n = 2 ** len(labels)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(amps / np.linalg.norm(amps), labels)


# ---------------------------------------------------------------------------
# constructors


def test_basis_state_single():
    s = make_basis_state([0], ["e"])
    assert_allclose(s.amplitudes, [1, 0])
    assert s.labels == ("e",)


def test_basis_state_three_qubits():
    s = make_basis_state([0, 1, 0], ["a", "b", "c"])
    want = np.zeros(8)
    want[0b010] = 1
    assert_allclose(s.amplitudes, want)


def test_basis_state_from_string():
    s = make_basis_state("1000", ["a", "b", "c", "e"])
    assert s.amplitudes[0b1000] == 1
    assert np.sum(np.abs(s.amplitudes)) == 1


def test_basis_state_length_mismatch():
    with pytest.raises(ValueError):
        make_basis_state([0, 1], ["a"])


def test_message_state():
    s = make_message_state(0.6, 0.8j)
    assert_allclose(s.amplitudes, [0.6, 0.8j])
    assert s.labels == ("m",)
    assert_allclose(np.sum(np.abs(s.amplitudes) ** 2), 1)


def test_message_state_plus():
    s = make_message_state(RS2, RS2)
    assert_allclose(s.amplitudes, [RS2, RS2])


def test_message_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        make_message_state(1.0, 0.1)


def test_w_state_amplitudes():
    w = make_w_state()
    want = np.zeros(8)
    want[[0b100, 0b010, 0b001]] = RS3
    assert_allclose(w.amplitudes, want)
    assert w.labels == ("a", "b", "c")


def test_w_state_duplicate_labels():
    with pytest.raises(ValueError):
        make_w_state(("a", "a", "c"))


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]), ("a",))  # wrong length
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), ("a",))  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.eye(4)[0], ("a", "a"))  # duplicate labels


def test_amplitudes_are_read_only():
    w = make_w_state()
    with pytest.raises(ValueError):
        w.amplitudes[0] = 1.0


# ---------------------------------------------------------------------------
# the W state's measurement anatomy


def test_w_home_measurement_probabilities():
    w = make_w_state()
    branches = enumerate_qubit(w, "c", Basis.Z)
    assert_allclose([b.probability for b in branches], [2 / 3, 1 / 3], atol=1e-12)


def test_w_home_zero_leaves_bell_pair():
    w = make_w_state()
    b0 = enumerate_qubit(w, "c", Basis.Z)[0]
    pair = discard_qubit(b0.post_state, "c")
    want = np.zeros(4)
    want[[0b01, 0b10]] = RS2
    assert_allclose(pair.amplitudes, want, atol=1e-12)


def test_w_home_one_leaves_product():
    w = make_w_state()
    b1 = enumerate_qubit(w, "c", Basis.Z)[1]
    pair = discard_qubit(b1.post_state, "c")
    assert_allclose(pair.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_w_x_expansion_identity():
    # The W state rewritten over X eigenstates of the two travel qubits:
    # (1/sqrt3)(|++> - |-->)|0> + (1/(2 sqrt3))(|++>+|+->+|-+>+|-->)|1>
    # must equal the computational-basis form amplitude by amplitude.
    plus = np.array([RS2, RS2])
    minus = np.array([RS2, -RS2])
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])

    def kron3(u, v, w):
        return np.kron(np.kron(u, v), w)

    x_form = RS3 * (kron3(plus, plus, zero) - kron3(minus, minus, zero)) + (
        1 / (2 * np.sqrt(3))
    ) * (
        kron3(plus, plus, one)
        + kron3(plus, minus, one)
        + kron3(minus, plus, one)
        + kron3(minus, minus, one)
    )
    assert_allclose(x_form, make_w_state().amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# tensor / relabel / reorder


def test_tensor_product_shapes():
    s = tensor(make_basis_state([0], ["e"]), make_w_state())
    assert s.labels == ("e", "a", "b", "c")
    assert s.amplitudes.shape == (16,)


def test_tensor_rejects_label_collision():
    with pytest.raises(ValueError):
        tensor(make_w_state(), make_basis_state([0], ["a"]))


def test_tensor_message_with_pair():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    joint = tensor(make_message_state(0.6, 0.8), pair)
    assert joint.num_qubits == 3
    assert_allclose(np.sum(np.abs(joint.amplitudes) ** 2), 1, atol=1e-12)


def test_relabel_and_reorder():
    w = make_w_state()
    renamed = relabel(w, {"b": "e"})
    assert renamed.labels == ("a", "e", "c")
    assert_allclose(renamed.amplitudes, w.amplitudes)

    flipped = reorder(w, ("c", "b", "a"))
    # |100>_abc becomes |001>_cba etc.; the W state is symmetric so the
    # amplitude multiset survives, and a round trip is exact.
    assert_allclose(reorder(flipped, ("a", "b", "c")).amplitudes, w.amplitudes)
    assert state_fidelity(flipped, w) == pytest.approx(1.0, abs=1e-12)


def test_reorder_rejects_non_permutation():
    with pytest.raises(ValueError):
        reorder(make_w_state(), ("a", "b", "x"))


# ---------------------------------------------------------------------------
# gates


def test_cnot_entangles_ancilla():
    joint = tensor(make_w_state(), make_basis_state([0], ["e"]))
    out = apply_cnot(joint, "b", "e")
    want = np.zeros(16)
    want[[0b1000, 0b0101, 0b0010]] = RS3
    assert_allclose(out.amplitudes, want, atol=1e-12)


def test_cnot_identity_on_zero_control():
    s = make_basis_state([0, 0], ["a", "b"])
    assert_allclose(apply_cnot(s, "a", "b").amplitudes, s.amplitudes)


def test_cnot_involution():
    rng = np.random.default_rng(3)
    s = random_state(rng, ("a", "b"))
    back = apply_cnot(apply_cnot(s, "a", "b"), "a", "b")
    assert_allclose(back.amplitudes, s.amplitudes, atol=1e-12)


def test_cnot_rejects_same_wire():
    with pytest.raises(ValueError):
        apply_cnot(make_w_state(), "a", "a")


def test_pauli_gates():
    s = make_message_state(0.6, 0.8)
    assert_allclose(apply_x(s, "m").amplitudes, [0.8, 0.6])
    assert_allclose(apply_z(s, "m").amplitudes, [0.6, -0.8])
    # XZ with X first: a|0>+b|1> -> b|0>+a|1> -> b|0>-a|1>
    assert_allclose(apply_z(apply_x(s, "m"), "m").amplitudes, [0.8, -0.6])


# ---------------------------------------------------------------------------
# measurement: sampling and enumeration


def test_enumerate_trivial_state():
    branches = enumerate_qubit(make_basis_state([0], ["q"]), "q", Basis.Z)
    assert branches[0].probability == pytest.approx(1.0, abs=1e-12)
    assert branches[1].probability == pytest.approx(0.0, abs=1e-12)
    assert branches[1].post_state is None


def test_plus_state_in_x_basis_is_deterministic():
    plus = make_message_state(RS2, RS2, label="q")
    rng = np.random.default_rng(0)
    for _ in range(20):
        branch = measure_qubit(plus, "q", Basis.X, rng)
        assert branch.outcome == 0
        assert branch.probability == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_z_outcomes_anticorrelated():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    for ba in enumerate_qubit(pair, "a", Basis.Z):
        for bb in enumerate_qubit(ba.post_state, "b", Basis.Z):
            if bb.probability > 1e-12:
                assert ba.outcome ^ bb.outcome == 1


def test_measurement_idempotent():
    rng = np.random.default_rng(11)
    for basis in (Basis.Z, Basis.X):
        s = random_state(rng, ("a", "b", "c"))
        first = measure_qubit(s, "b", basis, rng)
        again = enumerate_qubit(first.post_state, "b", basis)
        assert again[first.outcome].probability == pytest.approx(1.0, abs=1e-12)


def test_measured_qubit_stays_in_register():
    rng = np.random.default_rng(5)
    s = random_state(rng, ("a", "b"))
    branch = measure_qubit(s, "a", Basis.Z, rng)
    assert branch.post_state.labels == ("a", "b")


def test_sampling_matches_enumeration():
    # Frequencies over 1e5 seeded draws sit within 4 sigma of the exact
    # branch probabilities.
    w = make_w_state()
    rng = np.random.default_rng(2024)
    trials = 100_000
    ones = sum(measure_qubit(w, "c", Basis.Z, rng).outcome for _ in range(trials))
    p1 = 1 / 3
    sigma = np.sqrt(p1 * (1 - p1) / trials)
    assert abs(ones / trials - p1) < 4 * sigma


def test_x_measurement_statistics_on_w():
    # X-measuring a travel qubit of the W state: <±|_a W is
    # (±|00> + |10> + |01>)_bc / sqrt(6), so both outcomes carry weight 1/2.
    w = make_w_state()
    branches = enumerate_qubit(w, "a", Basis.X)
    assert_allclose([b.probability for b in branches], [0.5, 0.5], atol=1e-12)
    plus_branch = branches[0].post_state
    # and the b,c qubits end up in (|00> + |10> + |01>)/sqrt(3)
    pair = z_marginal(plus_branch, ("b", "c"))
    assert_allclose(pair, [1 / 3, 1 / 3, 1 / 3, 0], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.sampled_from([Basis.Z, Basis.X]))
def test_enumeration_probabilities_complete(seed, basis):
    rng = np.random.default_rng(seed)
    s = random_state(rng, ("a", "b", "c"))
    branches = enumerate_qubit(s, "b", basis)
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)
    for b in branches:
        if b.post_state is not None:
            assert_allclose(np.sum(np.abs(b.post_state.amplitudes) ** 2), 1, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_bell_enumeration_complete(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, ("m", "a", "b"))
    outcomes = enumerate_bell(s, "m", "a")
    assert [o.name for o in outcomes] == ["psi+", "psi-", "phi+", "phi-"]
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)


class FixedDraw:
    """Stand-in generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# |0> with a 3e-8 sliver of |1>: P(1) ~ 9e-16, at or below the threshold
# under which a branch counts as impossible and has no post-state.
NEARLY_ZERO = StateVector(np.array([1.0, 3e-8]), ("b",))
NEARLY_ONE = StateVector(np.array([3e-8, 1.0]), ("b",))


def test_near_certain_draw_takes_the_branch_that_has_a_state():
    zero, one = enumerate_qubit(NEARLY_ZERO, "b", Basis.Z)
    assert 0.0 < one.probability <= 1e-15 and one.post_state is None
    above = float(np.nextafter(zero.probability, 1.0))
    assert zero.probability < above < 1.0  # outcome 1 by the bare Born rule
    branch = measure_qubit(NEARLY_ZERO, "b", Basis.Z, FixedDraw(above))
    assert branch.outcome == 0
    assert branch.probability == zero.probability
    assert np.array_equal(branch.post_state.amplitudes, zero.post_state.amplitudes)
    post, bit = AttackModel("imra").intercept(NEARLY_ZERO, FixedDraw(above))
    assert bit == 0
    assert np.array_equal(post.amplitudes, zero.post_state.amplitudes)


def test_near_impossible_first_branch_is_never_drawn():
    zero, one = enumerate_qubit(NEARLY_ONE, "b", Basis.Z)
    assert 0.0 < zero.probability <= 1e-15 and zero.post_state is None
    branch = measure_qubit(NEARLY_ONE, "b", Basis.Z, FixedDraw(0.0))
    assert branch.outcome == 1
    assert np.array_equal(branch.post_state.amplitudes, one.post_state.amplitudes)


# ---------------------------------------------------------------------------
# Bell measurement


def test_enumerate_bell_on_bell_pair_is_certain():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    psi_plus, *others = enumerate_bell(pair, "a", "b")
    assert psi_plus.name == "psi+"
    assert psi_plus.probability == pytest.approx(1.0, abs=1e-12)
    assert psi_plus.residual is None  # nothing left over
    assert np.array_equal(psi_plus.post_state.amplitudes, pair.amplitudes)
    for outcome in others:
        assert outcome.probability <= 1e-15
        assert outcome.post_state is None and outcome.residual is None


def test_bell_outcomes_uniform_for_teleport_joint():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    joint = tensor(make_message_state(0.6, 0.8), pair)
    outcomes = enumerate_bell(joint, "m", "a")
    assert_allclose([o.probability for o in outcomes], [0.25] * 4, atol=1e-12)
    # psi+ branch leaves Bob's qubit already carrying the message
    assert_allclose(outcomes[0].residual.amplitudes, [0.6, 0.8], atol=1e-12)


def test_bell_post_state_collapses_pair():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    joint = tensor(make_message_state(0.6, 0.8), pair)
    psi_plus = enumerate_bell(joint, "m", "a")[0]
    # Re-measuring the collapsed pair must reproduce the same outcome surely.
    again = enumerate_bell(psi_plus.post_state, "m", "a")
    assert again[0].probability == pytest.approx(1.0, abs=1e-12)


def test_bell_bits_encoding():
    outcomes = enumerate_bell(StateVector(np.array([0, RS2, RS2, 0]), ("a", "b")), "a", "b")
    assert [o.bits for o in outcomes] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# reduced states


def test_reduced_fidelity_basis_case():
    s = make_basis_state([0], ["q"])
    assert reduced_fidelity(s, "q", make_basis_state([0], ["r"])) == pytest.approx(1.0)


def test_reduced_fidelity_bell_is_half():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    ref = make_basis_state([0], ["r"])
    assert reduced_fidelity(pair, "a", ref) == pytest.approx(0.5, abs=1e-12)


def test_reduced_density_is_maximally_mixed_for_bell():
    pair = StateVector(np.array([0, RS2, RS2, 0]), ("a", "b"))
    assert_allclose(reduced_density(pair, "b"), np.eye(2) / 2, atol=1e-12)


def test_z_marginal_of_w():
    w = make_w_state()
    probs = z_marginal(w, ("a", "b", "c"))
    want = np.zeros(8)
    want[[0b100, 0b010, 0b001]] = 1 / 3
    assert_allclose(probs, want, atol=1e-12)
    # marginal of a single qubit
    assert_allclose(z_marginal(w, ("c",)), [2 / 3, 1 / 3], atol=1e-12)


def test_discard_requires_collapse():
    with pytest.raises(ValueError):
        discard_qubit(make_w_state(), "c")  # still in superposition


def test_unknown_label_raises():
    w = make_w_state()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        measure_qubit(w, "zz", Basis.Z, rng)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_operations_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    s = random_state(rng, ("a", "b", "c"))
    for out in (
        apply_cnot(s, "a", "c"),
        apply_x(s, "b"),
        apply_z(s, "a"),
        tensor(s, make_basis_state([0], ["e"])),
        measure_qubit(s, "b", Basis.X, rng).post_state,
    ):
        assert_allclose(np.sum(np.abs(out.amplitudes) ** 2), 1, atol=1e-12)
