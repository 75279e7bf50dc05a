"""Closed-form detection/success expressions plus exact enumeration oracles.

One closed form covers every attack under both checkers
(:func:`closed_form_round_detection`).  A round is a detection round with
probability d, a Z round within it with probability p:

* store-and-resend trips the two Z rules with probabilities p*d*y^2/3
  (fake qubit read as 1 while the home qubit read 1) and p*d/3
  (anticorrelation broken while the home qubit read 0); measure-resend
  and entangle-measure leave the Z statistics untouched;
* the strict checker's X rule catches any of the three attacks with
  probability (1 - p)*d/3: the home qubit reads 0 with probability 2/3,
  and then the attack is caught with probability exactly 1/2;
* an n-round sequence survives with (1 - per-round detection)^n.

Everything else here is an *enumeration oracle*: it walks every measurement
branch of an attacked round exactly (probabilities multiplied along the
way, nothing sampled) and scores it with the same rule table the protocol
uses.  The oracles never call the closed form; they confirm it.  Notably
the strict checker's X-basis rule catches the measure-resend, store-resend,
and entangle attacks each in an applicable X round (home outcome 0) with
probability exactly 1/2, independent of the fake-qubit amplitudes.  (A
naive interference argument suggests the store-resend X-round rate should
depend on x - y; the enumeration shows it does not: Alice's travel qubit is
maximally mixed given home outcome 0, so her X result is a fair coin
regardless of what Eve forwards to Bob.)
"""

from __future__ import annotations

from .attacks import AttackModel, _check_unit
from .protocol import CheckerMode, DetectionDirective, _check_length, evaluate_checks
from .statevec import _ZERO_PROB, Basis, StateVector, enumerate_qubit, make_w_state


def isra_case_probs(y: float, p: float, d: float) -> tuple[float, float]:
    """Per-round probabilities of the two store-resend detection events.

    First component: home 1 while Bob reads the fake qubit as 1 (p*d*y^2/3).
    Second: home 0 with the Z anticorrelation broken (p*d/3).
    """
    _check_unit("y", y)
    _check_unit("p", p)
    _check_unit("d", d)
    return (p * d * y * y / 3.0, p * d / 3.0)


def closed_form_round_detection(
    kind: str, mode: CheckerMode | str, p: float, d: float, y: float | None = None
) -> float:
    """Per-round detection probability of an attack under one checker, in closed form.

    The Z rules catch only store-resend, with the two probabilities of
    :func:`isra_case_probs`; the strict X rule catches any attack with
    probability (1 - p)*d/3.  ``y`` is the store-resend fake amplitude,
    required for ``kind="isra"`` and refused for other kinds.
    """
    mode = CheckerMode(mode)
    _check_unit("p", p)
    _check_unit("d", d)
    AttackModel(kind, y)  # checks the kind and y
    z = sum(isra_case_probs(y, p, d)) if kind == "isra" else 0.0
    x = (1.0 - p) * d / 3.0 if mode is CheckerMode.STRICT and kind != "none" else 0.0
    return z + x


def isra_success_sequence(y: float, p: float, d: float, n: int) -> float:
    """Probability a whole n-round store-resend sequence escapes detection.

    Strictly positive for any finite n, decreasing in n whenever
    p*d*(1+y^2) > 0 — the attack is caught with probability approaching,
    but never reaching, one.
    """
    n = _check_length(n)
    return (1.0 - closed_form_round_detection("isra", CheckerMode.PAPER, p, d, y)) ** n


# ---------------------------------------------------------------------------
# enumeration oracles


def _attacked_round_branches(kind: str, y: float | None) -> list[tuple[float, StateVector]]:
    """The round state(s) Eve leaves behind, as (weight, state) branches.

    The measure-resend attack is a classical mixture over Eve's outcome;
    the others leave a single pure state.
    """
    attack = AttackModel(kind, y)  # checks the kind and y, derives x
    w = make_w_state()
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
    strict X rule ever catches them.  Each call enumerates afresh.
    """
    mode = CheckerMode(mode)
    _check_unit("p", p)
    _check_unit("d", d)
    detect = 0.0
    for weight, state in _attacked_round_branches(kind, y):
        vz = _violation_probability(state, Basis.Z, mode)
        vx = _violation_probability(state, Basis.X, mode)
        detect += weight * (p * vz + (1.0 - p) * vx)
    return d * detect


def sequence_success_probability(
    kind: str, mode: CheckerMode | str, p: float, d: float, n: int, y: float | None = None
) -> float:
    """(1 - per-round detection)^n from the enumeration oracle.

    Rounds are independent, so this is the exact probability that an
    n-round attacked sequence escapes the checker.
    """
    n = _check_length(n)
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
