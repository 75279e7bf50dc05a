"""Test-only helpers kept out of the package: views of a state vector, a
fixed-draw stand-in generator, and the environment a spawned interpreter
needs to import it."""

import os
from pathlib import Path

import numpy as np

from wshare.statevec import StateVector

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so a spawned ``python -m wshare`` imports this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class FixedDraw:
    """Stand-in generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def reorder(s: StateVector, labels) -> StateVector:
    """Same state with register axes permuted into the requested label order."""
    labels = tuple(labels)
    if sorted(labels) != sorted(s.labels):
        raise ValueError(f"reorder needs a permutation of {s.labels}, got {labels}")
    perm = tuple(s.axis(l) for l in labels)
    amps = s.amplitudes.reshape((2,) * s.num_qubits).transpose(perm).reshape(-1)
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
    t = np.abs(s.amplitudes.reshape((2,) * s.num_qubits)) ** 2
    t = np.moveaxis(t, keep, range(len(keep)))
    if s.num_qubits > len(keep):
        t = t.sum(axis=tuple(range(len(keep), s.num_qubits)))
    return t.reshape(-1)
