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

:meth:`AttackModel.branches` is how an attack splits a round: imra's two
Z results with the threshold Eve's bit is drawn against, or the other
kinds' one register.  The protocol's round tables and the analytic oracle
both start from it, and a run draws Eve's bits from the tables.
:meth:`AttackModel.intercept` samples one round instead, the scalar
reference the tests replay: imra draws one uniform from ``rand`` for its
bit, and the other kinds draw nothing and return ``None``.  No run calls
it.  Her post-protocol attempt to read Alice's teleported
message out of her bit or her qubit ``e`` is :func:`eve_recover_attempt`,
and :func:`eve_recover_batch` is that recovery for a whole
:class:`~wshare.teleport.TeleportBatch` at once.
"""

import numbers

import numpy as np

from .statevec import (
    Basis,
    StateVector,
    _clamped,
    _Record,
    _row_sums,
    apply_cnot,
    enumerate_qubit,
    make_basis_state,
    make_message_state,
    measure_qubit,
    reduced_fidelity,
    relabel,
    tensor,
)
from .teleport import (
    TeleportBatch,
    TeleportResult,
    _corrections,
    apply_correction,
    qubit_fidelities,
)

ATTACK_KINDS = ("none", "imra", "isra", "ema")

EVE_LABEL = "e"


def _check_unit(name: str, value) -> float:
    """``value`` as a float, refused unless it is a real number in [0, 1]
    (bools, nan and non-real values excluded)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 <= value <= 1.0:
        return float(value)
    raise ValueError(f"{name} must be a real number in [0, 1], got {value!r}")


class AttackModel(_Record):
    """One adversary: a kind from :data:`ATTACK_KINDS`, validated once.

    ``y`` is the store-resend fake qubit's |1> amplitude, required for
    ``isra`` and refused for every other kind; ``x = sqrt(1 - y^2)`` is
    derived from it.  The model holds no per-run state, so one instance
    serves any number of runs.  Models compare and hash by value.
    """

    __slots__ = _fields = ("kind", "y", "x")

    def __init__(self, kind: str, y: float | None = None) -> None:
        if kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {kind!r}; expected one of {ATTACK_KINDS}")
        if kind != "isra":
            if y is not None:
                raise ValueError(f"only isra takes a fake-qubit amplitude y, not {kind}")
            self._set(kind, None, None)
            return
        if y is None:
            raise ValueError("isra needs the fake-qubit amplitude y")
        y = _check_unit("fake-qubit amplitude y", y)
        self._set(kind, y, float(np.sqrt(1.0 - y * y)))

    def branches(self, state: StateVector) -> tuple[float | None, tuple[StateVector | None, ...]]:
        """How this attack splits one round's register: (threshold, registers).

        imra gives P(Eve reads 0), clamped as :meth:`intercept` samples it,
        and each Z result's register (``None`` if impossible); the other
        kinds give ``None`` and their one register.
        """
        if self.kind == "imra":
            eve = enumerate_qubit(state, "b", Basis.Z)
            return _clamped(eve[0].probability), tuple(branch.post_state for branch in eve)
        return None, (self.intercept(state, None)[0],)

    def intercept(
        self, state: StateVector, rand: "np.random.Generator | None"
    ) -> tuple[StateVector, int | None]:
        """This attack applied to one round's register: (register, Eve's bit).

        Only imra draws (one uniform from ``rand``) and only imra has a bit;
        the other kinds return ``None`` and accept ``rand=None``.  A sampled
        imra round is one of :meth:`branches`: bit 0 exactly when the
        uniform falls below its threshold.
        """
        if self.kind == "imra":
            branch = measure_qubit(state, "b", Basis.Z, rand)
            return branch.post_state, branch.outcome
        if self.kind == "isra":
            stored = relabel(state, {"b": EVE_LABEL})
            return tensor(stored, make_message_state(self.x, self.y, label="b")), None
        if self.kind == "ema":
            joint = tensor(state, make_basis_state([0], [EVE_LABEL]))
            return apply_cnot(joint, "b", EVE_LABEL), None
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


def eve_recover_batch(
    attack: AttackModel, bits: np.ndarray | None, batch: TeleportBatch, messages: np.ndarray
) -> np.ndarray:
    """:func:`eve_recover_attempt` for every row of a teleportation batch.

    ``messages`` holds the (T, 2) message amplitudes the batch teleported
    and ``bits`` Eve's Z result per row (imra only).  With P Bob's
    correction for the row's Bell outcome, Eve's fidelity is the closed
    form |<m|P|bit>|^2 for imra, and for isra and ema <m|P rho_e P^T|m>,
    read as the fidelity of her qubit ``e`` in the corrected residual
    against P^T m (P is real).  An empty batch gives an empty array.
    """
    if attack.kind == "none":
        raise ValueError("no attack was active: Eve holds no qubit to reconstruct from")
    corrections = _corrections()[1][batch.outcomes]
    if attack.kind == "imra":
        held = corrections[np.arange(len(bits)), :, bits]
        return np.abs(_row_sums(messages.conj() * held)) ** 2
    pulled_back = (messages[:, None, :] @ corrections)[:, 0]
    return qubit_fidelities(batch.residuals, batch.labels, EVE_LABEL, pulled_back)
