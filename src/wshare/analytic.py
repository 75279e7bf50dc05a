"""Closed-form detection/success expressions plus exact enumeration oracles.

The closed forms cover the store-and-resend attack under the
``paper`` checker (:attr:`~wshare.protocol.CheckerMode.PAPER`):

* the two per-round detection events have probabilities p*d*y^2/3 (fake
  qubit read as 1 while the home qubit read 1) and p*d/3 (anticorrelation
  broken while the home qubit read 0);
* one round therefore survives checking with probability
  1 - p*d*(1 + y^2)/3, and an n-round sequence with that to the n-th power.

Everything else here is an *enumeration oracle*: it walks every measurement
branch of an attacked round exactly (probabilities multiplied along the
way, nothing sampled) and scores it with the same rule table the protocol
uses.  The oracles confirm the closed forms and quantify what no closed
form covers — notably the strict checker's X-basis rules, under which the
measure-resend, store-resend, and entangle attacks are each caught in an
applicable X round (home outcome 0) with probability exactly 1/2,
independent of the fake-qubit amplitudes.  (A naive interference argument
suggests the store-resend X-round rate should depend on x - y; the
enumeration shows it does not: Alice's travel qubit is maximally mixed
given home outcome 0, so her X result is a fair coin regardless of what
Eve forwards to Bob.)
"""

from __future__ import annotations

from .attacks import AttackModel
from .protocol import CheckerMode, DetectionDirective, _check_length, _w_template, evaluate_checks
from .statevec import _ZERO_PROB, Basis, StateVector, enumerate_qubit


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def isra_case_probs(y: float, p: float, d: float) -> tuple[float, float]:
    """Per-round probabilities of the two store-resend detection events.

    First component: home 1 while Bob reads the fake qubit as 1 (p*d*y^2/3).
    Second: home 0 with the Z anticorrelation broken (p*d/3).
    """
    _check_unit("y", y)
    _check_unit("p", p)
    _check_unit("d", d)
    return (p * d * y * y / 3.0, p * d / 3.0)


def isra_success_single(y: float, p: float, d: float) -> float:
    """Probability one store-resend round escapes the paper checker."""
    rej1, rej2 = isra_case_probs(y, p, d)
    return 1.0 - (rej1 + rej2)


def isra_success_sequence(y: float, p: float, d: float, n: int) -> float:
    """Probability a whole n-round store-resend sequence escapes detection.

    Strictly positive for any finite n, decreasing in n whenever
    p*d*(1+y^2) > 0 — the attack is caught with probability approaching,
    but never reaching, one.
    """
    _check_length(n)
    return isra_success_single(y, p, d) ** n


# ---------------------------------------------------------------------------
# enumeration oracles


def _attacked_round_branches(kind: str, y: float | None) -> list[tuple[float, StateVector]]:
    """The round state(s) Eve leaves behind, as (weight, state) branches.

    The measure-resend attack is a classical mixture over Eve's outcome;
    the others leave a single pure state.  The branches start from the
    protocol's own W template, so they are the very registers (and cache
    entries) its round tables start from.
    """
    attack = AttackModel(kind, y)  # checks the kind and y, derives x
    w = _w_template()
    if kind == "imra":
        return [
            (branch.probability, branch.post_state)
            for branch in enumerate_qubit(w, "b", Basis.Z)
            if branch.probability > _ZERO_PROB
        ]
    state, _ = attack.intercept(w, None)  # the other kinds draw nothing
    return [(1.0, state)]


def _violation_probability(state: StateVector, basis: Basis, mode: CheckerMode,
                           home_outcome: int | None = None) -> float:
    """Exact P(checking rule violated) for one detection round on ``state``.

    Charlie Z-measures the home qubit, then Alice and Bob measure their
    travel qubits in ``basis``; every branch is scored with the protocol's
    own rule table.  With ``home_outcome`` given, the probability is
    conditioned on that home result instead.
    """
    directive = [DetectionDirective(1, basis)]
    total = 0.0
    norm = 0.0
    for bc in enumerate_qubit(state, "c", Basis.Z):
        if bc.probability <= _ZERO_PROB:
            continue
        if home_outcome is not None and bc.outcome != home_outcome:
            continue
        norm += bc.probability
        for ba in enumerate_qubit(bc.post_state, "a", basis):
            if ba.probability <= _ZERO_PROB:
                continue
            for bb in enumerate_qubit(ba.post_state, "b", basis):
                if bb.probability <= _ZERO_PROB:
                    continue
                report = evaluate_checks(directive, [bc.outcome], [ba.outcome], [bb.outcome], mode)
                if report.verdict == "detected":
                    total += bc.probability * ba.probability * bb.probability
    if home_outcome is not None:
        return total / norm if norm > _ZERO_PROB else 0.0
    return total


def round_detection_probability(
    kind: str, mode: CheckerMode | str, p: float, d: float, y: float | None = None
) -> float:
    """Exact per-round detection probability for an attack under one checker.

    Branch enumeration over Eve's outcome (if any), the detection draw
    (weight d), the basis draw (Z with weight p), and all measurement
    outcomes.  No sampling is involved.  ``y`` is the store-resend fake
    amplitude, required for ``kind="isra"`` and refused for other kinds.

    Under the paper checker the measure-resend and entangle-measure attacks
    come out exactly 0: both leave the Z statistics untouched, so only the
    strict X rule ever catches them.
    """
    mode = CheckerMode(mode)
    _check_unit("p", p)
    _check_unit("d", d)
    detect = 0.0
    for weight, state in _attacked_round_branches(kind, y):
        vz = _violation_probability(state, Basis.Z, mode) if p > 0 else 0.0
        vx = _violation_probability(state, Basis.X, mode) if p < 1 else 0.0
        detect += weight * (p * vz + (1.0 - p) * vx)
    return d * detect


def sequence_success_probability(
    kind: str, mode: CheckerMode | str, p: float, d: float, n: int, y: float | None = None
) -> float:
    """(1 - per-round detection)^n from the enumeration oracle.

    Rounds are independent, so this is the exact probability that an
    n-round attacked sequence escapes the checker.
    """
    _check_length(n)
    return (1.0 - round_detection_probability(kind, mode, p, d, y)) ** n


def x_round_detection_given_home0(kind: str, y: float | None = None) -> float:
    """P(strict X rule violated | X directive, home outcome 0) for an attack.

    Enumerated, not assumed.  Comes out exactly 1/2 for all three attacks —
    for the store-resend case independent of (x, y).
    """
    branches = _attacked_round_branches(kind, y)
    total_weight = 0.0
    total = 0.0
    for weight, state in branches:
        p0 = sum(
            b.probability for b in enumerate_qubit(state, "c", Basis.Z) if b.outcome == 0
        )
        if p0 <= _ZERO_PROB:
            continue
        total += weight * p0 * _violation_probability(state, Basis.X, CheckerMode.STRICT,
                                                      home_outcome=0)
        total_weight += weight * p0
    return total / total_weight if total_weight > _ZERO_PROB else 0.0
