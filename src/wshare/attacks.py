"""Adversary models for the Charlie→Bob channel.

Every attack is one fixed operation on the in-flight travel qubit ``b`` of
each round's register, described by a frozen :class:`AttackModel`:

* ``imra`` — intercept-measure-resend: Eve Z-measures the qubit and forwards
  a fresh eigenstate matching her outcome (indistinguishable from leaving
  the collapsed qubit in place, which is how it is simulated).
* ``isra`` — intercept-store-resend: Eve keeps the genuine qubit coherent in
  her memory (relabeled ``e``) and forwards a fake qubit x|0> + y|1>.
* ``ema`` — entangle-measure: Eve CNOTs the in-flight qubit onto a fresh
  |0> ancilla ``e`` and forwards the original untouched.

:meth:`AttackModel.intercept` is pure: it returns the round's register and
Eve's Z result (imra; ``None`` for the other kinds), and the run keeps
those bits, one per round.  Her post-protocol attempt to read Alice's
teleported message out of her bit or her qubit ``e`` is
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


@functools.lru_cache(maxsize=_JOINT_CACHE_SIZE)
def _isra_joint(state: StateVector, x: float, y: float) -> StateVector:
    stored = relabel(state, {"b": EVE_LABEL})
    return tensor(stored, make_message_state(x, y, label="b"))


@functools.lru_cache(maxsize=_JOINT_CACHE_SIZE)
def _ema_joint(state: StateVector) -> StateVector:
    joint = tensor(state, make_basis_state([0], [EVE_LABEL]))
    return apply_cnot(joint, "b", EVE_LABEL)


@dataclass(frozen=True)
class AttackModel:
    """One adversary: a kind from :data:`ATTACK_KINDS`, validated once.

    ``y`` is the store-resend fake qubit's |1> amplitude, required for
    ``isra`` and refused for every other kind; ``x = sqrt(1 - y^2)`` is
    derived from it.  The model holds no per-run state, so one instance
    serves any number of runs.
    """

    kind: str
    y: float | None = None
    x: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; expected one of {ATTACK_KINDS}")
        if self.kind != "isra":
            if self.y is not None:
                raise ValueError(f"only isra takes a fake-qubit amplitude y, not {self.kind}")
            return
        if self.y is None:
            raise ValueError("isra needs the fake-qubit amplitude y")
        if not 0.0 <= self.y <= 1.0:
            raise ValueError(f"fake-qubit amplitude y must be in [0, 1], got {self.y}")
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "x", float(np.sqrt(1.0 - self.y * self.y)))

    def intercept(
        self, state: StateVector, rand: np.random.Generator | None
    ) -> tuple[StateVector, int | None]:
        """This attack applied to one round's register: (register, Eve's bit).

        Only imra draws (one uniform from ``rand``) and only imra has a bit;
        the other kinds return ``None`` and accept ``rand=None``.
        """
        if self.kind == "imra":
            branch = measure_shared(state, "b", Basis.Z, rand.random())
            return branch.post_state, branch.outcome
        if self.kind == "isra":
            return _isra_joint(state, self.x, self.y), None
        if self.kind == "ema":
            return _ema_joint(state), None
        return state, None


def eve_recover_attempt(
    attack: AttackModel,
    bit: int | None,
    result: TeleportResult | None,
    message: StateVector,
) -> float:
    """Fidelity of Eve's best message reconstruction after a teleportation.

    Eve listens to Alice's Bell broadcast and applies Bob's correction to
    her own holdings: a fresh eigenstate of her Z result ``bit`` (imra), or
    her stored/entangled qubit ``e``, which stays in the teleportation's
    residual register (isra/ema; ``bit`` is ignored).  ``message`` is the
    original single-qubit state she is trying to recover.
    """
    if attack.kind == "none":
        raise ValueError("no attack was active: Eve holds no qubit to reconstruct from")
    if result is None:
        raise RuntimeError("recovery runs after a teleportation, not before")
    if attack.kind == "imra":
        copy = make_basis_state([bit], ["E"])
        copy = apply_correction(copy, "E", result.correction)
        return reduced_fidelity(copy, "E", message)
    held = apply_correction(result.residual, EVE_LABEL, result.correction)
    return reduced_fidelity(held, EVE_LABEL, message)
