"""Closed-form detection/success expressions plus exact enumeration oracles.

One per-round closed form covers every attack under both checkers
(:func:`closed_form_round_detection`).  A round is a detection round with
probability d, a Z round within it with probability p:

* store-and-resend trips the two Z rules with probabilities p*d*y^2/3
  (fake qubit read as 1 while the home qubit read 1) and p*d/3
  (anticorrelation broken while the home qubit read 0); measure-resend
  and entangle-measure leave the Z statistics untouched;
* the strict checker's X rule catches any of the three attacks with
  probability (1 - p)*d/3: the home qubit reads 0 with probability 2/3,
  and then the attack is caught with probability exactly 1/2.

Rounds are independent, so an n-round sequence escapes with S = (1 - q)^n
for the per-round detection probability q; callers form that power
themselves.  Every function here takes the attack as an
:class:`~wshare.attacks.AttackModel`, which has checked its kind and y.

Everything else here is an *enumeration oracle*: it starts from the
registers the attack leaves (:meth:`~wshare.attacks.AttackModel.branches`),
walks every measurement branch of a round once (probabilities multiplied
along the way, nothing sampled) and scores it with the same rule table the
protocol uses.  The oracles never call the closed form (they confirm it)
and never read the protocol's round tables.  Notably the strict checker's
X-basis rule catches the measure-resend, store-resend, and entangle attacks
each in an applicable X round (home outcome 0) with probability exactly
1/2, independent of the fake-qubit amplitudes.  (A naive interference
argument suggests the store-resend X-round rate should depend on x - y; the
enumeration shows it does not: Alice's travel qubit is maximally mixed
given home outcome 0, so her X result is a fair coin regardless of what Eve
forwards to Bob.)
"""

from .attacks import AttackModel, _check_unit
from .protocol import CheckerMode, DetectionDirective, evaluate_checks
from .statevec import Basis, StateVector, enumerate_qubit, make_w_state


def closed_form_round_detection(attack: AttackModel, mode: CheckerMode | str, p: float, d: float) -> float:
    """Per-round detection probability of an attack under one checker, in closed form.

    The Z rules catch only store-resend, in two ways: home 1 while Bob reads
    the fake qubit as 1 (p*d*y^2/3), and home 0 with the Z anticorrelation
    broken (p*d/3).  The strict X rule catches any attack with probability
    (1 - p)*d/3.
    """
    mode = CheckerMode(mode)
    _check_unit("p", p)
    _check_unit("d", d)
    z = p * d * attack.y * attack.y / 3.0 + p * d / 3.0 if attack.kind == "isra" else 0.0
    x = (1.0 - p) * d / 3.0 if mode is CheckerMode.STRICT and attack.kind != "none" else 0.0
    return z + x


# ---------------------------------------------------------------------------
# enumeration oracles


def _attacked_round_branches(attack: AttackModel) -> list[tuple[float, StateVector]]:
    """The registers Eve leaves behind, as (weight, register) branches.

    The registers are :meth:`~wshare.attacks.AttackModel.branches`; the
    weights are its threshold and the threshold's complement (the Born
    weights of Eve's Z result: the clamp never binds on the W state), or 1
    for an attack that leaves one register.  An impossible branch is dropped.
    """
    threshold, registers = attack.branches(make_w_state())
    weights = (1.0,) if threshold is None else (threshold, 1.0 - threshold)
    return [(weight, state) for weight, state in zip(weights, registers, strict=True) if state is not None]


def _violation_probability(state: StateVector, basis: Basis, mode: CheckerMode) -> float:
    """Exact P(checking rule violated) for one detection round on ``state``.

    Charlie Z-measures the home qubit, then Alice and Bob measure their
    travel qubits in ``basis``; every branch is scored with the protocol's
    own rule table.
    """
    directive = [DetectionDirective(1, basis)]
    total = 0.0
    for bc in enumerate_qubit(state, "c", Basis.Z):
        if bc.post_state is None:
            continue
        for ba in enumerate_qubit(bc.post_state, "a", basis):
            if ba.post_state is None:
                continue
            for bb in enumerate_qubit(ba.post_state, "b", basis):
                if bb.post_state is None:
                    continue
                report = evaluate_checks(directive, [bc.outcome], [ba.outcome], [bb.outcome], mode)
                if report.verdict == "detected":
                    total += bc.probability * ba.probability * bb.probability
    return total


def round_detection_probability(attack: AttackModel, mode: CheckerMode | str, p: float, d: float) -> float:
    """Exact per-round detection probability for an attack under one checker.

    Branch enumeration over Eve's outcome (if any), the detection draw
    (weight d), the basis draw (Z with weight p), and all measurement
    outcomes.  No sampling is involved.

    Under the paper checker the measure-resend and entangle-measure attacks
    come out exactly 0: both leave the Z statistics untouched, so only the
    strict X rule ever catches them.  Each call enumerates afresh.
    """
    mode = CheckerMode(mode)
    _check_unit("p", p)
    _check_unit("d", d)
    detect = 0.0
    for weight, state in _attacked_round_branches(attack):
        vz = _violation_probability(state, Basis.Z, mode)
        vx = _violation_probability(state, Basis.X, mode)
        detect += weight * (p * vz + (1.0 - p) * vx)
    return d * detect


def x_round_detection_given_home0(attack: AttackModel) -> float:
    """P(strict X rule violated | X directive, home outcome 0) for an attack.

    Enumerated, not assumed: the X rule applies only on home 0, so this is
    the strict checker's X-round detection probability over P(home 0).
    Comes out exactly 1/2 for all three attacks — for the store-resend case
    independent of (x, y).
    """
    home0 = sum(weight * enumerate_qubit(state, "c", Basis.Z)[0].probability
                for weight, state in _attacked_round_branches(attack))
    return round_detection_probability(attack, CheckerMode.STRICT, 0.0, 1.0) / home0
