"""Test-only views of a state vector, kept out of the package."""

import numpy as np

from wshare.statevec import StateVector


def reorder(s: StateVector, labels) -> StateVector:
    """Same state with register axes permuted into the requested label order."""
    labels = tuple(labels)
    if sorted(labels) != sorted(s.labels):
        raise ValueError(f"reorder needs a permutation of {s.labels}, got {labels}")
    perm = tuple(s.axis(l) for l in labels)
    amps = s._tensor_view().transpose(perm).reshape(-1)
    return StateVector(amps, labels)


def state_fidelity(s1: StateVector, s2: StateVector) -> float:
    """|<s1|s2>|^2 between two states on the same label set."""
    if sorted(s1.labels) != sorted(s2.labels):
        raise ValueError(f"label sets differ: {s1.labels} vs {s2.labels}")
    if s2.labels != s1.labels:
        s2 = reorder(s2, s1.labels)
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)


def z_marginal(s: StateVector, labels) -> np.ndarray:
    """Z-basis outcome probabilities of a subset of qubits, in label order."""
    labels = tuple(labels)
    keep = tuple(s.axis(l) for l in labels)
    t = np.abs(s._tensor_view()) ** 2
    t = np.moveaxis(t, keep, range(len(keep)))
    if s.num_qubits > len(keep):
        t = t.sum(axis=tuple(range(len(keep), s.num_qubits)))
    return t.reshape(-1)
