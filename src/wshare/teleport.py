"""Single-qubit teleportation over a distilled (|01>+|10>)/sqrt(2) pair.

Alice Bell-measures (message, her pair qubit), broadcasts two classical
bits, and Bob repairs his qubit with a Pauli correction.  Because the
channel here is the psi+ pair rather than the textbook phi+ pair, the
correction table differs from the usual one; rather than hard-coding it,
:func:`build_correction_table` derives it once by probing each Bell branch
and keeping the unique correction that restores the message exactly.

:func:`teleport_batch` runs many attempts at once through Bell kernels
(:func:`_bell_kernel`): for each Bell outcome, the linear map from the
message amplitudes to the rest of the register with Bob's correction
already applied, so an attempt is one matrix product and never builds the
joint register.  The protocol's round tables hold one kernel per pair
node, and each kernel costs one ``einsum`` per block of rows.
:func:`teleport` is one row of a batch, and :func:`random_amplitudes`
draws the messages.  :func:`teleport_branches` stays the scalar
four-branch oracle, built from :func:`~wshare.statevec.enumerate_bell`.
In every pair register Alice's qubit is ``"a"`` and Bob's ``"b"``.

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
    _sample_bell_rows,
    apply_x,
    apply_z,
    enumerate_bell,
    make_basis_state,
    make_message_state,
    reduced_fidelity,
    tensor,
)

CORRECTIONS = ("I", "X", "Z", "XZ")

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
    stored or entangled ancilla, say) are in it.  ``fidelity`` scores Bob's
    qubit against the original message.
    """

    outcome_name: str
    outcome_bits: tuple[int, int]
    probability: float
    correction: str
    residual: StateVector
    fidelity: float


def _finish(branch: BellOutcome, message: StateVector) -> TeleportResult:
    correction = build_correction_table()[branch.name]
    residual = apply_correction(branch.residual, "b", correction)
    return TeleportResult(branch.name, branch.bits, branch.probability, correction, residual,
                          reduced_fidelity(residual, "b", message))


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


def _bell_kernel(pair: StateVector) -> tuple[np.ndarray, tuple[str, ...]]:
    """The Bell kernel of a pair register, and the labels of its rest.

    ``kernel[k]`` is the (2, R) map taking message amplitudes to the
    unnormalized state of the other R amplitudes (the pair minus Alice's
    qubit, in register order) on Bell outcome ``k`` (BELL_NAMES order),
    with Bob's correction for that outcome applied.
    """
    alice, bob = pair.axis("a"), pair.axis("b")
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


def teleport(message: StateVector, pair: StateVector, rand: np.random.Generator) -> TeleportResult:
    """Teleport a single-qubit message over a pair register.

    The pair register may hold qubits besides ``"a"`` and ``"b"``; they
    stay in the returned residual.  This is one row of
    :func:`teleport_batch` on the pair's kernel and one uniform draw from
    ``rand``.
    """
    if message.num_qubits != 1:
        raise ValueError("message must be a single qubit")
    if message.labels[0] in pair.labels:
        raise ValueError(f"message label {message.labels[0]!r} is also in the pair register")
    batch = teleport_batch(message.amplitudes[None], (_bell_kernel(pair),),
                           np.zeros(1, dtype=np.intp), np.array([rand.random()]))
    k = int(batch.outcomes[0])
    name = BELL_NAMES[k]
    return TeleportResult(name, _BELL_BITS[k], float(batch.probabilities[0]), build_correction_table()[name],
                          StateVector._trusted(batch.residuals[0], batch.labels), float(batch.fidelities[0]))


@dataclass(frozen=True)
class TeleportBatch:
    """Many teleportation attempts, one row each.

    ``outcomes[t]`` is the Bell outcome index (``BELL_NAMES`` order) of
    attempt t, ``probabilities[t]`` that outcome's weight, ``residuals[t]``
    the normalized rest of its register after Bob's correction, over
    ``labels``, and ``fidelities[t]`` Bob's qubit scored against the
    message.
    """

    outcomes: np.ndarray
    probabilities: np.ndarray
    residuals: np.ndarray
    labels: tuple[str, ...]
    fidelities: np.ndarray


def teleport_batch(
    messages: np.ndarray,
    kernels,
    which: np.ndarray,
    draws: np.ndarray,
) -> TeleportBatch:
    """Teleport message ``messages[t]`` through ``kernels[which[t]]`` on draw ``draws[t]``.

    ``messages`` holds (T, 2) message amplitudes, and each kernel is a
    pair's :func:`_bell_kernel`.  One uniform draw per row walks the Bell
    outcomes' cumulative distribution in ``BELL_NAMES`` order, skipping
    impossible ones (:func:`~wshare.statevec._sample_bell_rows`); only the
    drawn residual is normalized.  Each kernel used costs one ``einsum``
    per ``_BATCH_ROWS`` of its rows.  The kernels used must share their
    rest.
    """
    count = len(draws)
    outcomes = np.zeros(count, dtype=np.intp)
    weights = np.zeros(count)
    residuals = None
    labels: tuple[str, ...] = ()
    for node, pair_kernel in enumerate(kernels):
        rows = np.flatnonzero(which == node)
        if not rows.size:
            continue
        kernel, rest = pair_kernel
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
            weights[part] = probabilities[drawn]
            residuals[part] = branches[drawn] / np.sqrt(weights[part])[:, None]
            outcomes[part] = chosen
    if residuals is None:
        return TeleportBatch(outcomes, weights, np.zeros((0, 0), dtype=complex), (), np.zeros(0))
    return TeleportBatch(outcomes, weights, residuals, labels,
                         qubit_fidelities(residuals, labels, "b", messages))


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


def teleport_branches(message: StateVector, pair: StateVector) -> list[TeleportResult]:
    """All four Bell branches of a teleportation, with exact probabilities.

    Zero-probability branches are omitted.
    """
    if message.num_qubits != 1:
        raise ValueError("message must be a single qubit")
    joint = tensor(message, pair)
    return [
        _finish(branch, message)
        for branch in enumerate_bell(joint, message.labels[0], "a")
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
