"""Single-qubit teleportation over a distilled (|01>+|10>)/sqrt(2) pair.

Alice Bell-measures (message, her pair qubit), broadcasts two classical
bits, and Bob repairs his qubit with a Pauli correction.  Because the
channel here is the psi+ pair rather than the textbook phi+ pair, the
correction table differs from the usual one; rather than hard-coding it,
:func:`build_correction_table` reads it once off the Bell matrices (each
outcome leaves Bob the message through a 2x2 map that one Pauli undoes).
A correction's one form is its read-only real 2x2 matrix in ``CORRECTIONS``.

:func:`teleport_batch` runs many attempts at once through Bell kernels
(:func:`_bell_kernel`): for each Bell outcome, the linear map from the
message amplitudes to the rest of the register with Bob's correction
already applied, so an attempt is one matrix product and never builds the
joint register.  The protocol's round tables hold one kernel array per
attack, its pairs side by side, and a block of rows is one ``matmul``; a
sweep runs its grid in order, and a batch holds consecutive points of one
attack model, at most 2^16 trials.
:func:`teleport` is one row of a batch; :func:`teleport_draws` draws the
messages and uniforms of every other.  :func:`teleport_branches` stays the
scalar four-branch oracle, built from :func:`~wshare.statevec.enumerate_bell`.
In every pair register Alice's qubit is ``"a"`` and Bob's ``"b"``.

The module also provides the exact four-branch decomposition of a
teleportation attempted over the corrupted three-qubit channel
(|100>+|011>)_abe/sqrt(2) that an entangling interceptor leaves behind.
"""

import functools
from typing import NamedTuple

import numpy as np

from .statevec import (
    _BELL_BITS,
    _BELL_MATRICES,
    BELL_NAMES,
    BellOutcome,
    StateVector,
    _sample_bell_rows,
    enumerate_bell,
    make_message_state,
    reduced_fidelity,
    tensor,
)

# Bob's candidate Pauli corrections, each the real 2x2 matrix acting on his
# qubit ("XZ" = X first, then Z).  Read-only: the cached stack of
# _corrections and every compiled Bell kernel are built from them.
# XZ is Z @ X written out: a matmul at import raised peak RSS by 0.2 MB.
CORRECTIONS = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
    "XZ": np.array([[0.0, 1.0], [-1.0, 0.0]]),
}
for _matrix in CORRECTIONS.values():
    _matrix.flags.writeable = False

# Teleports per matmul in a batch: bounds the four-branch working arrays.
# Larger blocks were no faster: 1024-4096 rows raised peak RSS by 0.7-1.7 MB,
# and one matmul over a few thousand rows took 1-8 ms (0.02-0.13 ms at 256).
_BATCH_ROWS = 256


def apply_correction(s: StateVector, q: str, correction: str) -> StateVector:
    """Apply a named Pauli correction to one qubit ("XZ" = X first, then Z)."""
    if correction not in CORRECTIONS:
        raise ValueError(f"unknown correction {correction!r}")
    return StateVector._trusted((CORRECTIONS[correction] @ s._split(s.axis(q))).reshape(-1), s.labels)


def psi_plus_pair() -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[[0b01, 0b10]] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, ("a", "b"))


@functools.cache
def _corrections() -> tuple[dict[str, str], np.ndarray]:
    """Bob's correction for each Bell outcome over a psi+ channel, and the
    read-only stack of their ``CORRECTIONS`` matrices, in ``BELL_NAMES`` order.

    Outcome k leaves Bob the message through ``(B_k.conj() @ C).T``, ``B_k``
    its amplitude matrix and ``C`` the pair's rows, both real Paulis over
    sqrt(2); exactly one trace-orthogonal candidate undoes that Pauli over 2.
    """
    channel = psi_plus_pair()._rows(0)
    table = {}
    for name, bell in zip(BELL_NAMES, _BELL_MATRICES):
        bob = (bell.conj() @ channel).T  # message amplitudes -> Bob's qubit
        undone = {candidate: matrix @ bob for candidate, matrix in CORRECTIONS.items()}
        fits = [c for c, m in undone.items()  # nonzero multiples of the identity, within 1e-12
                if max(abs(m[0, 1]), abs(m[1, 0]), abs(m[1, 1] - m[0, 0])) <= 1e-12 < abs(m[0, 0])]
        if len(fits) != 1:
            raise RuntimeError(f"correction for {name} not unique: {fits}")
        table[name] = fits[0]
    matrices = np.stack([CORRECTIONS[correction] for correction in table.values()])
    matrices.flags.writeable = False
    return table, matrices


def build_correction_table() -> dict[str, str]:
    """Bob's correction for each Bell outcome over a psi+ channel (see :func:`_corrections`)."""
    return _corrections()[0]


class TeleportResult(NamedTuple):
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


def _bell_kernel(*pairs: StateVector) -> tuple[np.ndarray, tuple[str, ...]]:
    """The Bell kernel of pair registers of one layout, and the labels of their rest.

    A read-only (2, E * 4R) array for E pairs: its (2, R) block 4e + k maps
    message amplitudes to the unnormalized state of the other R amplitudes
    (pair e minus Alice's qubit, in register order) on Bell outcome ``k``
    (BELL_NAMES order), with Bob's correction for that outcome applied.
    """
    alice, bob = pairs[0].axis("a"), pairs[0].axis("b")
    rest = pairs[0].labels[:alice] + pairs[0].labels[alice + 1:]
    bob -= bob > alice  # Bob's position in the rest
    channels = np.stack([pair._rows(alice) for pair in pairs]).reshape(len(pairs), 2, 1 << bob, 2, -1)
    # Bell matrices and corrections have one nonzero entry per row, so each
    # entry is one product, whatever order the sum over Alice and Bob takes
    kernel = np.einsum("kma,eaxby,kcb->mekxcy", np.conj(_BELL_MATRICES), channels, _corrections()[1])
    kernel = kernel.reshape(2, -1)
    kernel.flags.writeable = False
    return kernel, rest


def teleport(message: StateVector, pair: StateVector, rand: "np.random.Generator") -> TeleportResult:
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
    batch = teleport_batch(message.amplitudes[None], _bell_kernel(pair), np.zeros(1, dtype=np.intp),
                           np.array([rand.random()]))
    k = int(batch.outcomes[0])
    name = BELL_NAMES[k]
    return TeleportResult(name, _BELL_BITS[k], float(batch.probabilities[0]), build_correction_table()[name],
                          StateVector._trusted(batch.residuals[0], batch.labels), float(batch.fidelities[0]))


class TeleportBatch(NamedTuple):
    """Many teleportation attempts, one row each.

    ``outcomes[t]`` is the Bell outcome index (``BELL_NAMES`` order) of
    attempt t, ``probabilities[t]`` that outcome's weight, ``residuals[t]``
    the normalized rest of its register after Bob's correction, over
    ``labels``, and ``fidelities[t]`` Bob's qubit scored against the
    message.  Batches compare and hash by identity.
    """

    outcomes: np.ndarray
    probabilities: np.ndarray
    residuals: np.ndarray
    labels: tuple[str, ...]
    fidelities: np.ndarray

    # tuple's own ==, != and hash would compare or hash the arrays, and raise
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def teleport_batch(
    messages: np.ndarray,
    kernels,
    which: np.ndarray,
    draws: np.ndarray,
) -> TeleportBatch:
    """Teleport message ``messages[t]`` through pair ``which[t]`` of ``kernels`` on draw ``draws[t]``.

    ``messages`` holds (T, 2) message amplitudes, and ``kernels`` is the
    :func:`_bell_kernel` of the pairs.  Each ``_BATCH_ROWS`` rows cost one
    ``matmul`` over every pair's Bell maps, and each row keeps its own
    pair's four.  One uniform draw per row walks the Bell outcomes'
    cumulative distribution in ``BELL_NAMES`` order, skipping impossible
    ones (:func:`~wshare.statevec._sample_bell_rows`); only the drawn
    residual is normalized.  A row of a pair not in ``kernels`` raises ValueError.
    """
    kernel, labels = kernels
    width = 1 << len(labels)  # R, the amplitudes of one residual
    nodes = kernel.shape[1] // (4 * width)
    if not ((0 <= which) & (which < nodes)).all():
        raise ValueError(f"pair nodes must lie in [0, {nodes})")
    count = len(draws)
    outcomes = np.zeros(count, dtype=np.intp)
    weights = np.zeros(count)
    residuals = np.zeros((count, width), dtype=complex)
    for start in range(0, count, _BATCH_ROWS):
        part = slice(start, min(start + _BATCH_ROWS, count))
        rows = np.arange(part.stop - start)
        branches = (messages[part] @ kernel).reshape(rows.size, nodes, 4, width)[rows, which[part]]
        probabilities = (np.abs(branches) ** 2).sum(axis=2)
        chosen = _sample_bell_rows(probabilities, draws[part])
        weights[part] = probabilities[rows, chosen]
        residuals[part] = branches[rows, chosen] / np.sqrt(weights[part])[:, None]
        outcomes[part] = chosen
    return TeleportBatch(outcomes, weights, residuals, labels,
                         qubit_fidelities(residuals, labels, "b", messages))


def teleport_draws(rand: "np.random.Generator", count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, 2) messages and ``count`` uniforms of :func:`teleport_batch`,
    in the one teleport draw layout: all message normals, then one uniform per row."""
    return random_amplitudes(rand, count), rand.random(count)


def qubit_fidelities(amplitudes: np.ndarray, labels: tuple[str, ...], q: str,
                     references: np.ndarray) -> np.ndarray:
    """:func:`~wshare.statevec.reduced_fidelity` row by row.

    Row t is <r_t| rho_q |r_t> for the normalized register ``amplitudes[t]``
    over ``labels`` and the single-qubit reference amplitudes
    ``references[t]``.
    """
    rows = amplitudes.reshape(-1, 1 << labels.index(q), 2, 1 << len(labels) - labels.index(q) - 1)
    # not a matmul: BLAS fuses these complex products, which moves the last
    # bit of a fidelity, and the batched (1, 2) @ (2, A) products were slower
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


def corrupted_channel() -> StateVector:
    """(|100> + |011>)/sqrt(2) on ("a", "b", "e"): the pair left after an entangling intercept.

    This is what 'distilling' a round that went through a CNOT interceptor
    actually yields — Bob's qubit is twinned with the interceptor's ancilla.
    """
    amps = np.zeros(8, dtype=complex)
    amps[[0b100, 0b011]] = 1.0 / np.sqrt(2.0)
    return StateVector(amps, ("a", "b", "e"))


def ema_decomposition(a: complex, b: complex) -> list[tuple[BellOutcome, StateVector]]:
    """Exact Bell-branch decomposition of teleporting over the corrupted channel.

    Returns the four (Bell outcome on (m, a), residual state of (b, e))
    branches.  Each has weight 1/4; the residuals are a|00>±b|11> for the
    psi± outcomes and a|11>±b|00> for the phi± outcomes (normalized).
    """
    message = make_message_state(a, b)
    joint = tensor(message, corrupted_channel())
    return [(o, o.residual) for o in enumerate_bell(joint, "m", "a")]


def random_amplitudes(rand: "np.random.Generator", count: int) -> np.ndarray:
    """``count`` uniformly random single-qubit states (Haar on the Bloch
    sphere) as (count, 2) amplitudes.

    Each state takes four normal draws, the two real parts then the two
    imaginary parts, and is divided by its norm once.
    """
    normals = rand.normal(size=(count, 2, 2))
    amplitudes = normals[:, 0] + 1j * normals[:, 1]
    return amplitudes / np.linalg.norm(amplitudes, axis=1, keepdims=True)


def random_message(rand: "np.random.Generator") -> StateVector:
    """Uniformly random single-qubit pure state on "m" (Haar on the Bloch sphere)."""
    return StateVector._trusted(random_amplitudes(rand, 1)[0], ("m",))
