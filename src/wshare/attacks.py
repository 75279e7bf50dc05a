"""Adversary models for the Charlie→Bob channel.

Every attack acts once per round on the in-flight travel qubit ``b`` of that
round's register:

* ``imra`` — intercept-measure-resend: Eve Z-measures the qubit and forwards
  a fresh eigenstate matching her outcome (indistinguishable from leaving
  the collapsed qubit in place, which is how it is simulated).
* ``isra`` — intercept-store-resend: Eve keeps the genuine qubit coherent in
  her memory (relabeled ``e``) and forwards a fake qubit x|0> + y|1>.
* ``ema`` — entangle-measure: Eve CNOTs the in-flight qubit onto a fresh
  |0> ancilla ``e`` and forwards the original untouched.

Eve's per-round loot is an :class:`EveRecord`; her post-protocol attempt to
read Alice's teleported message out of that loot is
:func:`eve_recover_attempt`.

The intercepts never copy a register per round: isra and ema hand back one
shared post-intercept register per input state (and fake qubit), and imra
picks one of the two memoized branches of the input state, so a run's
rounds share their states (see the round-branch tree in
:mod:`wshare.protocol`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .statevec import (
    Basis,
    StateVector,
    apply_cnot,
    make_basis_state,
    make_message_state,
    measure_shared,
    reduced_fidelity,
    relabel,
    tensor,
)
from .teleport import TeleportResult, apply_correction

ATTACK_KINDS = ("none", "imra", "isra", "ema")

EVE_LABEL = "e"

# Bound on the memoized post-intercept registers (one per input state and
# fake qubit).
_JOINT_CACHE_SIZE = 64


@dataclass(frozen=True)
class EveRecord:
    """What Eve walks away with from one attacked round.

    ``bit`` is her measurement result (imra); ``stored_label`` names the
    qubit she holds inside that round's register (isra: the stolen travel
    qubit, ema: her entangled ancilla).
    """

    round_index: int
    kind: str
    bit: int | None = None
    stored_label: str | None = None


def imra_intercept(
    state: StateVector, rand: np.random.Generator, round_index: int = 0
) -> tuple[StateVector, EveRecord]:
    """Measure the in-flight qubit in Z and forward a matching eigenstate."""
    branch = measure_shared(state, "b", Basis.Z, rand.random())
    return branch.post_state, EveRecord(round_index, "imra", bit=branch.outcome)


@functools.lru_cache(maxsize=_JOINT_CACHE_SIZE)
def _isra_joint(state: StateVector, x: float, y: float) -> StateVector:
    stored = relabel(state, {"b": EVE_LABEL})
    return tensor(stored, make_message_state(x, y, label="b"))


def isra_intercept(
    state: StateVector, x: float, y: float, round_index: int = 0
) -> tuple[StateVector, EveRecord]:
    """Store the genuine qubit as ``e`` and inject a fake x|0> + y|1> as ``b``."""
    if abs(x * x + y * y - 1.0) > 1e-9:
        raise ValueError(f"fake-qubit amplitudes not normalized: x^2+y^2 = {x * x + y * y:.6g}")
    return _isra_joint(state, x, y), EveRecord(round_index, "isra", stored_label=EVE_LABEL)


@functools.lru_cache(maxsize=_JOINT_CACHE_SIZE)
def _ema_joint(state: StateVector) -> StateVector:
    joint = tensor(state, make_basis_state([0], [EVE_LABEL]))
    return apply_cnot(joint, "b", EVE_LABEL)


def ema_intercept(state: StateVector, round_index: int = 0) -> tuple[StateVector, EveRecord]:
    """Entangle a fresh |0> ancilla onto the in-flight qubit with a CNOT."""
    return _ema_joint(state), EveRecord(round_index, "ema", stored_label=EVE_LABEL)


@dataclass
class AttackModel:
    """A configured adversary plus her accumulated per-round memory.

    One instance is bound to one protocol run; ``records`` maps each
    attacked round's index to its record, in interception order.
    """

    kind: str
    x: float | None = None
    y: float | None = None
    records: dict[int, EveRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        if self.kind == "isra":
            if self.x is None or self.y is None:
                raise ValueError("isra needs fake-qubit amplitudes x and y")
            if abs(self.x ** 2 + self.y ** 2 - 1.0) > 1e-9:
                raise ValueError("isra fake-qubit amplitudes must satisfy x^2 + y^2 = 1")

    @classmethod
    def none(cls) -> "AttackModel":
        return cls("none")

    @classmethod
    def imra(cls) -> "AttackModel":
        return cls("imra")

    @classmethod
    def isra(cls, y: float) -> "AttackModel":
        if not 0.0 <= y <= 1.0:
            raise ValueError(f"fake-qubit amplitude y must be in [0, 1], got {y}")
        return cls("isra", x=float(np.sqrt(1.0 - y * y)), y=float(y))

    @classmethod
    def ema(cls) -> "AttackModel":
        return cls("ema")

    def intercept(
        self, state: StateVector, round_index: int, rand: np.random.Generator
    ) -> StateVector:
        """Apply this attack to one round's register, logging Eve's record."""
        if self.kind == "none":
            return state
        if self.kind == "imra":
            state, record = imra_intercept(state, rand, round_index)
        elif self.kind == "isra":
            state = _isra_joint(state, self.x, self.y)  # x, y checked in __post_init__
            record = EveRecord(round_index, "isra", stored_label=EVE_LABEL)
        else:
            state, record = ema_intercept(state, round_index)
        self.records[round_index] = record
        return state

    def record_for(self, round_index: int) -> EveRecord | None:
        return self.records.get(round_index)


def eve_recover_attempt(
    attack: AttackModel,
    record: EveRecord,
    result: TeleportResult | None,
    message: StateVector,
) -> float:
    """Fidelity of Eve's best message reconstruction after a teleportation.

    Eve listens to Alice's Bell broadcast and applies Bob's correction to
    her own holdings: a fresh eigenstate of her recorded bit (imra), or her
    stored/entangled qubit, which stays in the teleportation's residual
    register (isra/ema).  ``message`` is the original single-qubit state
    she is trying to recover.
    """
    if attack.kind == "none":
        raise ValueError("no attack was active: Eve holds no qubit to reconstruct from")
    if result is None:
        raise RuntimeError("recovery runs after a teleportation, not before")
    if attack.kind == "imra":
        copy = make_basis_state([record.bit], ["E"])
        copy = apply_correction(copy, "E", result.correction)
        return reduced_fidelity(copy, "E", message)
    held = apply_correction(result.residual, record.stored_label, result.correction)
    return reduced_fidelity(held, record.stored_label, message)
