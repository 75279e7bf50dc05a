"""Single-qubit teleportation over a distilled (|01>+|10>)/sqrt(2) pair.

Alice Bell-measures (message, her pair qubit), broadcasts two classical
bits, and Bob repairs his qubit with a Pauli correction.  Because the
channel here is the psi+ pair rather than the textbook phi+ pair, the
correction table differs from the usual one; rather than hard-coding it,
:func:`build_correction_table` derives it once by probing each Bell branch
and keeping the unique correction that restores the message exactly.

:func:`teleport` samples one attempt through a memoized per-pair Bell
kernel: for each Bell outcome, the linear map from the message amplitudes
to the rest of the register with Bob's correction already applied, so an
attempt costs one matrix product and never rebuilds the joint register.
:func:`teleport_batch` runs many attempts at once, one ``einsum`` per pair
register, with the same kernel and the same draw rule, and
:func:`random_amplitudes` draws their messages.  :func:`teleport_branches`
stays the scalar four-branch oracle, built from
:func:`~wshare.statevec.enumerate_bell`.

The module also provides the exact four-branch decomposition of a
teleportation attempted over the corrupted three-qubit channel
(|100>+|011>)_abe/sqrt(2) that an entangling interceptor leaves behind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .statevec import (
    _BELL_BITS,
    _BELL_MATRICES,
    BELL_NAMES,
    BellOutcome,
    StateVector,
    _sample_bell,
    _sample_bell_rows,
    apply_x,
    apply_z,
    enumerate_bell,
    make_basis_state,
    make_message_state,
    reduced_fidelity,
    reorder,
    tensor,
)

CORRECTIONS = ("I", "X", "Z", "XZ")

# Bound on the memoized Bell kernels (one per pair register and label pair).
_KERNEL_CACHE_SIZE = 256
# Teleports per einsum in a batch: bounds the four-branch working arrays.
_BATCH_ROWS = 256


def apply_correction(s: StateVector, q: str, correction: str) -> StateVector:
    """Apply a named Pauli correction to one qubit ("XZ" = X first, then Z)."""
    if correction not in CORRECTIONS:
        raise ValueError(f"unknown correction {correction!r}")
    if correction in ("X", "XZ"):
        s = apply_x(s, q)
    if correction in ("Z", "XZ"):
        s = apply_z(s, q)
    return s


def psi_plus_pair(labels=("a", "b")) -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[[0b01, 0b10]] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, labels)


@functools.cache
def build_correction_table() -> dict[str, str]:
    """Derive Bob's correction for each Bell outcome over a psi+ channel.

    Returns Bell outcome name -> Pauli correction, in ``BELL_NAMES`` order.

    Two linearly independent probe messages pin the correction uniquely:
    a candidate survives only if it restores both probes with fidelity 1.
    """
    probes = [make_message_state(0.6, 0.8), make_message_state(1 / np.sqrt(2), 1j / np.sqrt(2))]
    table: dict[str, str] = {}
    for name in BELL_NAMES:
        survivors = list(CORRECTIONS)
        for probe in probes:
            joint = tensor(probe, psi_plus_pair())
            branch = next(o for o in enumerate_bell(joint, "m", "a") if o.name == name)
            survivors = [
                c
                for c in survivors
                if reduced_fidelity(apply_correction(branch.residual, "b", c), "b", probe)
                > 1 - 1e-12
            ]
        if len(survivors) != 1:
            raise RuntimeError(f"correction for {name} not unique: {survivors}")
        table[name] = survivors[0]
    return table


@dataclass(frozen=True)
class TeleportResult:
    """Outcome of one teleportation attempt.

    ``residual`` is the register minus the measured (message, Alice) pair,
    after Bob's correction; any extra qubits riding along (an interceptor's
    stored or entangled ancilla, say) are in it.  ``labels`` is the order
    of the full register, message first.  ``fidelity`` scores Bob's qubit
    against the original message.
    """

    outcome_name: str
    outcome_bits: tuple[int, int]
    probability: float
    correction: str
    residual: StateVector
    labels: tuple[str, ...]
    bob_label: str
    fidelity: float

    @functools.cached_property
    def post_state(self) -> StateVector:
        """The full register after the Bell collapse and Bob's correction.

        The measured pair is left in the observed Bell state, so the
        register is that Bell state times ``residual``; built on demand.
        """
        pair = tuple(l for l in self.labels if l not in self.residual.labels)
        bell = _BELL_MATRICES[BELL_NAMES.index(self.outcome_name)].reshape(-1)
        joint = StateVector(np.kron(bell, self.residual.amplitudes), pair + self.residual.labels)
        return reorder(joint, self.labels)


def _finish(branch: BellOutcome, message: StateVector, bob_label: str) -> TeleportResult:
    correction = build_correction_table()[branch.name]
    post = apply_correction(branch.post_state, bob_label, correction)
    return TeleportResult(
        outcome_name=branch.name,
        outcome_bits=branch.bits,
        probability=branch.probability,
        correction=correction,
        residual=apply_correction(branch.residual, bob_label, correction),
        labels=post.labels,
        bob_label=bob_label,
        fidelity=reduced_fidelity(post, bob_label, message),
    )


@functools.cache
def _correction_matrices() -> np.ndarray:
    """Bob's correction for each Bell outcome as a real 2x2 matrix, stacked
    in BELL_NAMES order; column j is the correction's image of |j>."""
    table = build_correction_table()
    matrices = np.stack([
        np.column_stack([
            apply_correction(make_basis_state([j], ["q"]), "q", table[name]).amplitudes.real
            for j in (0, 1)
        ])
        for name in BELL_NAMES
    ])
    matrices.flags.writeable = False
    return matrices


@functools.lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _bell_kernel(pair: StateVector, alice_label: str, bob_label: str
                 ) -> tuple[np.ndarray, tuple[str, ...]]:
    """The Bell kernel of a pair register, and the labels of its rest.

    ``kernel[k]`` is the (2, R) map taking message amplitudes to the
    unnormalized state of the other R amplitudes (the pair minus Alice's
    qubit, in register order) on Bell outcome ``k`` (BELL_NAMES order),
    with Bob's correction for that outcome applied.  Memoized by the
    identity of ``pair``, like the round-branch tree's nodes.
    """
    alice, bob = pair.axis(alice_label), pair.axis(bob_label)
    if alice == bob:
        raise ValueError("Alice's and Bob's qubits must differ")
    channel = pair._rows(alice)
    rest = pair.labels[:alice] + pair.labels[alice + 1:]
    bob -= bob > alice  # Bob's position in the rest
    kernel = np.empty((4, 2, channel.shape[1]), dtype=complex)
    for k, (correction, mat) in enumerate(zip(_correction_matrices(), _BELL_MATRICES)):
        collapsed = (mat.conj() @ channel).reshape(2, 1 << bob, 2, -1)
        corrected = np.einsum("cb,ixby->ixcy", correction, collapsed)
        kernel[k] = corrected.reshape(2, -1)
    kernel.flags.writeable = False
    return kernel, rest


def teleport(
    message: StateVector,
    pair: StateVector,
    rand: np.random.Generator,
    alice_label: str = "a",
    bob_label: str = "b",
) -> TeleportResult:
    """Teleport a single-qubit message over a pair register.

    The pair register must contain ``alice_label`` and ``bob_label``; it may
    contain further qubits, which stay in the returned residual.  One
    uniform draw selects the Bell outcome, exactly as
    :func:`~wshare.statevec.bell_measure` draws it on the joint register;
    only the drawn residual is normalized.
    """
    if message.num_qubits != 1:
        raise ValueError("message must be a single qubit")
    if message.labels[0] in pair.labels:
        raise ValueError(f"message label {message.labels[0]!r} is also in the pair register")
    kernel, rest = _bell_kernel(pair, alice_label, bob_label)
    residuals = message.amplitudes @ kernel
    probabilities = (np.abs(residuals) ** 2).sum(axis=1).tolist()
    k = _sample_bell(probabilities, rand.random())
    residual = StateVector._trusted(residuals[k] / np.sqrt(probabilities[k]), rest)
    name = BELL_NAMES[k]
    return TeleportResult(
        outcome_name=name,
        outcome_bits=_BELL_BITS[k],
        probability=probabilities[k],
        correction=build_correction_table()[name],
        residual=residual,
        labels=message.labels + pair.labels,
        bob_label=bob_label,
        fidelity=reduced_fidelity(residual, bob_label, message),
    )


@dataclass(frozen=True)
class TeleportBatch:
    """Many teleportation attempts, one row each.

    ``outcomes[t]`` is the Bell outcome index (``BELL_NAMES`` order) of
    attempt t, ``residuals[t]`` the normalized rest of its register after
    Bob's correction, over ``labels``, and ``fidelities[t]`` Bob's qubit
    scored against the message.
    """

    outcomes: np.ndarray
    residuals: np.ndarray
    labels: tuple[str, ...]
    fidelities: np.ndarray


def teleport_batch(
    messages: np.ndarray,
    pairs,
    which: np.ndarray,
    draws: np.ndarray,
    alice_label: str = "a",
    bob_label: str = "b",
) -> TeleportBatch:
    """Teleport message ``messages[t]`` over ``pairs[which[t]]`` on draw ``draws[t]``.

    ``messages`` holds (T, 2) message amplitudes.  Each row is what
    :func:`teleport` does with that message, pair and draw: the same Bell
    kernel, the same walk over the cumulative distribution, the drawn
    residual normalized.  Each pair node used costs one ``einsum`` per
    ``_BATCH_ROWS`` of its rows.  The pairs used must share their labels.
    """
    count = len(draws)
    outcomes = np.zeros(count, dtype=np.intp)
    residuals = None
    labels: tuple[str, ...] = ()
    for node, pair in enumerate(pairs):
        rows = np.flatnonzero(which == node)
        if not rows.size:
            continue
        kernel, rest = _bell_kernel(pair, alice_label, bob_label)
        if residuals is None:
            residuals, labels = np.zeros((count, kernel.shape[2]), dtype=complex), rest
        elif rest != labels:
            raise ValueError(f"pairs with different registers in one batch: {labels} vs {rest}")
        for start in range(0, rows.size, _BATCH_ROWS):
            part = rows[start:start + _BATCH_ROWS]
            branches = np.einsum("ti,kir->tkr", messages[part], kernel)
            probabilities = (np.abs(branches) ** 2).sum(axis=2)
            chosen = _sample_bell_rows(probabilities, draws[part])
            drawn = np.arange(part.size), chosen
            residuals[part] = branches[drawn] / np.sqrt(probabilities[drawn])[:, None]
            outcomes[part] = chosen
    if residuals is None:
        return TeleportBatch(outcomes, np.zeros((0, 0), dtype=complex), (), np.zeros(0))
    return TeleportBatch(outcomes, residuals, labels,
                         qubit_fidelities(residuals, labels, bob_label, messages))


def qubit_fidelities(amplitudes: np.ndarray, labels: tuple[str, ...], q: str,
                     references: np.ndarray) -> np.ndarray:
    """:func:`~wshare.statevec.reduced_fidelity` row by row.

    Row t is <r_t| rho_q |r_t> for the normalized register ``amplitudes[t]``
    over ``labels`` and the single-qubit reference amplitudes
    ``references[t]``.
    """
    rows = amplitudes.reshape(len(amplitudes), 1 << labels.index(q), 2, -1)
    overlaps = np.einsum("tbja,tj->tba", rows, references.conj())
    return (np.abs(overlaps) ** 2).sum(axis=(1, 2))


def teleport_branches(
    message: StateVector,
    pair: StateVector,
    alice_label: str = "a",
    bob_label: str = "b",
) -> list[TeleportResult]:
    """All four Bell branches of a teleportation, with exact probabilities.

    Zero-probability branches are omitted.
    """
    if message.num_qubits != 1:
        raise ValueError("message must be a single qubit")
    joint = tensor(message, pair)
    return [
        _finish(branch, message, bob_label)
        for branch in enumerate_bell(joint, message.labels[0], alice_label)
        if branch.post_state is not None
    ]


def corrupted_channel(labels=("a", "b", "e")) -> StateVector:
    """(|100> + |011>)/sqrt(2): the pair left after an entangling intercept.

    This is what 'distilling' a round that went through a CNOT interceptor
    actually yields — Bob's qubit is twinned with the interceptor's ancilla.
    """
    amps = np.zeros(8, dtype=complex)
    amps[[0b100, 0b011]] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, labels)


def ema_decomposition(a: complex, b: complex) -> list[tuple[BellOutcome, StateVector]]:
    """Exact Bell-branch decomposition of teleporting over the corrupted channel.

    Returns the four (Bell outcome on (m, a), residual state of (b, e))
    branches.  Each has weight 1/4; the residuals are a|00>±b|11> for the
    psi± outcomes and a|11>±b|00> for the phi± outcomes (normalized).
    """
    message = make_message_state(a, b)
    joint = tensor(message, corrupted_channel())
    return [(o, o.residual) for o in enumerate_bell(joint, "m", "a")]


def random_amplitudes(rand: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniformly random single-qubit states (Haar on the Bloch
    sphere) as (count, 2) amplitudes.

    Each state takes four normal draws, the two real parts then the two
    imaginary parts, and is divided by its norm once.
    """
    normals = rand.normal(size=(count, 2, 2))
    amplitudes = normals[:, 0] + 1j * normals[:, 1]
    return amplitudes / np.linalg.norm(amplitudes, axis=1, keepdims=True)


def random_message(rand: np.random.Generator, label: str = "m") -> StateVector:
    """Uniformly random single-qubit pure state (Haar on the Bloch sphere)."""
    return StateVector._trusted(random_amplitudes(rand, 1)[0], (label,))
