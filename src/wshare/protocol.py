"""The supervised entanglement-sharing protocol proper.

One run goes through two phases:

* **Distribution and detection.**  Charlie prepares ``n`` W-state triples,
  keeps the home qubit ``c`` of each and sends ``a`` to Alice and ``b`` to
  Bob (an attack, if active, tampers with ``b`` in flight).  Each position
  is then independently sacrificed for detection with probability ``d``;
  for a sacrificed position Charlie Z-measures his home qubit and directs
  Alice and Bob to measure their travel qubits in a random common basis
  (Z with probability ``p``, else X).  The published results are fed to a
  checking algorithm; any violated correlation rule aborts the run.
* **Confirmation.**  Charlie Z-measures the remaining home qubits and
  publishes which came out 0 — exactly those positions leave Alice and Bob
  sharing a (|01>+|10>)/sqrt(2) Bell pair, ready for teleportation.

A run keeps one register per round, indexed by position, and the plain
lists of published results; Eve's per-round bits (measure-resend only)
come back as :attr:`RunOutcome.eve_bits`.

Two checking semantics ship side by side.  ``strict`` enforces every
physically valid correlation of the W state:

====== ===== =============================
basis  home  rule for the travel results
====== ===== =============================
Z      0     Ra xor Rb = 1
Z      1     Ra = Rb = 0
X      0     Ra = Rb
X      1     (no constraint)
====== ===== =============================

``paper`` (:attr:`CheckerMode.PAPER`) applies the same Z rules but lets
every X-basis round pass unconditionally, which is the detection model
under which the closed-form expressions in :mod:`wshare.analytic` hold
exactly.  The modes consume randomness identically, so runs with equal
seeds are comparable round for round.

Detection never yields false positives in either mode: every honest
measurement branch of the W state satisfies all four rules.

**The round-branch tree.**  Every round of a run starts from one shared
template register (the cached W state, after the attack's intercept) and
goes through the same fixed measurements: home ``c`` in Z, then ``a`` and
``b`` in the directive basis, or ``c`` alone in confirmation.  The states a
round can reach therefore form a small finite tree that depends only on the
attack, its fake-qubit amplitude and the directive basis, never on the
round.  :func:`~wshare.statevec.measure_shared` memoizes both branches of
each node, keyed by the identity of the shared immutable state, and a round
walks the tree with one uniform draw per measurement, in exactly the order
and with exactly the outcomes, probabilities and amplitudes that sampling
:func:`~wshare.statevec.measure_qubit` on a fresh copy would give.  The
home-qubit discard of a pair node is cached the same way.  All caches are
bounded and filled lazily, on first use.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackModel
from .statevec import Basis, StateVector, discard_qubit, make_w_state, measure_shared

RULE_KEYS = ("z_rc0", "z_rc1", "x_rc0")

_HONEST = AttackModel("none")


class CheckerMode(enum.Enum):
    """Checking semantics: the paper's Z rules alone, or with the X rule."""

    PAPER = "paper"
    STRICT = "strict"


def _check_length(n) -> None:
    """Refuse a sequence length that is not a positive int (bools included)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"sequence length n must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters; validated on construction.

    ``checker_mode`` may be given as a :class:`CheckerMode` or its value.
    """

    n: int
    d: float
    p: float
    checker_mode: CheckerMode = CheckerMode.PAPER

    def __post_init__(self) -> None:
        _check_length(self.n)
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"detection probability d must be in [0, 1], got {self.d}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Z-basis probability p must be in [0, 1], got {self.p}")
        object.__setattr__(self, "checker_mode", CheckerMode(self.checker_mode))


@dataclass(frozen=True)
class DetectionDirective:
    """One sacrificed position and the basis Alice and Bob must use there."""

    position: int
    basis: Basis


@dataclass
class RuleTally:
    """How often one checking rule applied and how often it was violated."""

    applied: int = 0
    violations: int = 0


@dataclass(frozen=True)
class CheckReport:
    """Verdict of the checking algorithm plus per-rule diagnostics."""

    verdict: str  # "pass" | "detected"
    offending_rounds: tuple[int, ...]
    tallies: dict[str, RuleTally] = field(compare=False)

    def __post_init__(self) -> None:
        detected = bool(self.offending_rounds)
        if (self.verdict == "detected") != detected:
            raise ValueError("verdict must be 'detected' exactly when offending rounds exist")


@dataclass(frozen=True)
class DistilledPairSet:
    """Positions (original round indices) and collapsed states of the pairs.

    Each state is the round's register with the home qubit dropped: the
    two-qubit (a, b) Bell pair in an honest run, possibly with an attacker's
    ancilla still entangled alongside otherwise.
    """

    positions: tuple[int, ...]
    states: tuple[StateVector, ...]

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(zip(self.positions, self.states))


@dataclass(frozen=True)
class RunOutcome:
    """Everything one protocol execution produced.

    ``eve_bits[t - 1]`` is Eve's Z result on round ``t`` (measure-resend
    only; ``None`` where she measured nothing).
    """

    config: ProtocolConfig
    attack_kind: str
    directives: tuple[DetectionDirective, ...]
    report: CheckReport
    pairs: DistilledPairSet
    eve_bits: tuple[int | None, ...]
    transcript: tuple[tuple, ...]
    teleport_fidelities: tuple[float, ...] = ()
    eve_recovery: float | None = None

    @property
    def aborted(self) -> bool:
        return self.report.verdict == "detected"

    @property
    def surviving_count(self) -> int:
        return self.config.n - len(self.directives)

    @property
    def yield_fraction(self) -> float | None:
        """Distilled pairs per surviving position (None if nothing survived)."""
        if self.surviving_count == 0:
            return None
        return len(self.pairs) / self.surviving_count


# ---------------------------------------------------------------------------
# the protocol's individual steps


def select_detection_positions(n: int, d: float, rand: np.random.Generator) -> list[int]:
    """Pick each position 1..n independently with probability d (sorted).

    Always consumes exactly n draws so that runs with different d remain
    stream-aligned for everything that follows.
    """
    mask = rand.random(n) < d
    return [int(i) + 1 for i in np.flatnonzero(mask)]


def assign_bases(positions, p: float, rand: np.random.Generator) -> list[DetectionDirective]:
    """Attach a directive basis to each position: Z w.p. p, X otherwise."""
    draws = rand.random(len(positions))
    return [
        DetectionDirective(pos, Basis.Z if draw < p else Basis.X)
        for pos, draw in zip(positions, draws)
    ]


def evaluate_checks(directives, rc_results, ra_results, rb_results,
                    mode: CheckerMode | str) -> CheckReport:
    """Apply the checking rules to the published detection results.

    All four sequences must be aligned position by position.  See the module
    docstring for the rule table and the two modes.
    """
    mode = CheckerMode(mode)
    if not (len(directives) == len(rc_results) == len(ra_results) == len(rb_results)):
        raise ValueError(
            "misaligned check inputs: "
            f"{len(directives)} directives vs {len(rc_results)}/{len(ra_results)}/{len(rb_results)} results"
        )
    tallies = {key: RuleTally() for key in RULE_KEYS}
    offending: list[int] = []
    for directive, rc, ra, rb in zip(directives, rc_results, ra_results, rb_results):
        if directive.basis is Basis.Z:
            if rc == 0:
                key, ok = "z_rc0", (ra ^ rb) == 1
            else:
                key, ok = "z_rc1", ra == 0 and rb == 0
        else:
            if mode is not CheckerMode.STRICT or rc != 0:
                continue  # X rounds pass unconditionally outside strict/home-0
            key, ok = "x_rc0", ra == rb
        tally = tallies[key]
        tally.applied += 1
        if not ok:
            tally.violations += 1
            offending.append(directive.position)
    verdict = "detected" if offending else "pass"
    return CheckReport(verdict, tuple(offending), tallies)


def distill_positions(home_results) -> list[int]:
    """1-based indices (into the given sequence) whose home outcome was 0."""
    return [i + 1 for i, bit in enumerate(home_results) if bit == 0]


@functools.lru_cache(maxsize=256)
def _pair_state(home_zero: StateVector) -> StateVector:
    """The pair left by a home-0 node: memoized, since the rounds share it."""
    return discard_qubit(home_zero, "c")


@functools.cache
def _w_template() -> StateVector:
    return make_w_state(("a", "b", "c"))


def run_protocol(
    config: ProtocolConfig, attack: AttackModel | None, rand: np.random.Generator
) -> RunOutcome:
    """Execute one full protocol run and return its outcome.

    Every draw comes from ``rand``; identical (config, attack, stream state)
    triples reproduce the outcome bit for bit.  ``attack=None`` is the
    honest channel.  On detection the run aborts (no pairs); rerunning is
    the caller's decision.
    """
    if attack is None:
        attack = _HONEST

    transcript: list[tuple] = [("charlie", "mode", "transmission")]

    # Distribution: one W triple per position, travel qubits in flight
    # (the attack, if any, grabs b here).  states[t - 1] is round t's register.
    w = _w_template()
    intercepted = [attack.intercept(w, rand) for _ in range(config.n)]
    states = [state for state, _ in intercepted]
    eve_bits = tuple(bit for _, bit in intercepted)
    transcript.append(("charlie", "send", config.n))

    # Detection: sample positions, direct bases, measure, publish.
    transcript.append(("charlie", "mode", "detecting"))
    positions = select_detection_positions(config.n, config.d, rand)
    directives = assign_bases(positions, config.p, rand)
    transcript.append(
        ("charlie", "directives", tuple((dd.position, dd.basis.value) for dd in directives))
    )
    rc_results: list[int] = []
    ra_results: list[int] = []
    rb_results: list[int] = []
    # One uniform per measurement, in the order c, a, b of each directive.
    for dd, (uc, ua, ub) in zip(directives, rand.random((len(directives), 3)).tolist()):
        home = measure_shared(states[dd.position - 1], "c", Basis.Z, uc)
        alice = measure_shared(home.post_state, "a", dd.basis, ua)
        bob = measure_shared(alice.post_state, "b", dd.basis, ub)
        rc_results.append(home.outcome)
        ra_results.append(alice.outcome)
        rb_results.append(bob.outcome)
    transcript.append(("charlie", "home-results", tuple(rc_results)))
    transcript.append(("alice", "results", tuple(ra_results)))
    transcript.append(("bob", "results", tuple(rb_results)))

    report = evaluate_checks(directives, rc_results, ra_results, rb_results, config.checker_mode)
    transcript.append(("charlie", "verdict", report.verdict))
    if report.verdict == "detected":
        transcript.append(("charlie", "offending", report.offending_rounds))
        transcript.append(("charlie", "abort", "eavesdropping suspected; sequence discarded"))
        pairs = DistilledPairSet((), ())
    else:
        # Confirmation: measure surviving home qubits, publish the 0 positions.
        transcript.append(("charlie", "mode", "confirmation"))
        sacrificed = {dd.position for dd in directives}
        surviving = [t for t in range(1, config.n + 1) if t not in sacrificed]
        home_bits: list[int] = []
        for t, u in zip(surviving, rand.random(len(surviving)).tolist()):
            branch = measure_shared(states[t - 1], "c", Basis.Z, u)
            states[t - 1] = branch.post_state
            home_bits.append(branch.outcome)
        kept = distill_positions(home_bits)
        transcript.append(("charlie", "distill-positions", tuple(kept)))
        pair_positions = tuple(surviving[i - 1] for i in kept)
        pairs = DistilledPairSet(pair_positions,
                                 tuple(_pair_state(states[t - 1]) for t in pair_positions))
        transcript.append(("charlie", "pair-count", len(pairs)))
    return RunOutcome(
        config=config,
        attack_kind=attack.kind,
        directives=tuple(directives),
        report=report,
        pairs=pairs,
        eve_bits=eve_bits,
        transcript=tuple(transcript),
    )
