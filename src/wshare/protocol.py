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

A run is held as arrays indexed by position, one block of :class:`Rounds`
(see the round tables below); Eve's per-round bits (measure-resend only)
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

**The round tables.**  Every round starts from the same register, the W
state after the attack's intercept, and goes through the same fixed
measurements: home ``c`` in Z, then ``a`` and ``b`` in the directive
basis, or ``c`` alone in confirmation.  The states a round can reach
therefore form a small finite tree that depends only on the attack and on
Eve's measure-resend bit ``e``, never on the round.  On first use per
attack, :func:`_round_tables` compiles that tree, node by node through
:func:`~wshare.statevec._branch_node`, into threshold tables, the one
cache of the engine:

* ``te``: P(Eve reads 0), for imra only; for the other kinds ``e`` is
  always 0 and nothing is drawn for it;
* ``tc[e]``: P(home reads 0);
* ``ta[e, c, basis]`` and ``tb[e, c, basis, a]``: P(Alice reads 0) and
  P(Bob reads 0) below home result ``c`` (and Alice's result ``a``);
* ``pairs[e]``: the pair register a home-0 round leaves, home qubit
  dropped, and ``kernels[e]`` its Bell kernel
  (:func:`~wshare.teleport._bell_kernel`), which every teleport over it
  goes through.

An outcome is 0 exactly when its uniform draw falls below its threshold,
which is :func:`~wshare.statevec.measure_qubit`'s rule, clamp of
impossible branches included.  A block of B trials of n rounds is then a
few numpy expressions over (B, n) arrays, and the rule table is a set of
boolean masks over them.

**Stream layout.**  A block draws, in this order: Eve (B, n), for imra
only; selection (B, n); basis (B, n); detection (B, n, 3), the home,
Alice and Bob uniforms of each round; confirmation (B, n).  Every array is
drawn whole, for every round, whatever ``d`` and ``p`` are and whether the
round was selected.  The views only read a block.  :func:`run_protocol`
is one trial (B = 1), kept on its outcome, and :func:`teleport_pairs`
teleports over that block's pairs: every message's normals, then one
uniform per pair.  :func:`run_trials` is the Monte Carlo view: it draws
fixed blocks of :func:`_block_size` trials, a function of ``n`` alone,
each followed by one message and one teleport uniform per trial, so memory
stays bounded and the bytes never depend on how grid points are spread
over processes.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackModel, _check_unit, eve_recover_batch
from .statevec import Basis, StateVector, _branch_node, discard_qubit, make_w_state
from .teleport import TeleportBatch, _bell_kernel, random_amplitudes, teleport_batch

RULE_KEYS = ("z_rc0", "z_rc1", "x_rc0")

_HONEST = AttackModel("none")
# Round slots (trials x rounds) in one block of trials, and trials in one
# block: a block holds at least one trial, so these bound its arrays (about
# 50 bytes per slot) for any n up to _BLOCK_SLOTS.
_BLOCK_SLOTS = 1 << 20
_BLOCK_TRIALS = 1 << 16
# Bound on the memoized round tables (one per attack model).
_TABLE_CACHE_SIZE = 64


class CheckerMode(enum.Enum):
    """Checking semantics: the paper's Z rules alone, or with the X rule."""

    PAPER = "paper"
    STRICT = "strict"


def _check_length(n, name: str = "sequence length n") -> int:
    """``n`` as a plain int, refused unless it is a positive integer (bools
    excluded; numpy integers taken)."""
    try:
        if not isinstance(n, bool) and operator.index(n) >= 1:
            return operator.index(n)
    except TypeError:
        pass
    raise ValueError(f"{name} must be a positive integer, got {n!r}")


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
        object.__setattr__(self, "n", _check_length(self.n))
        object.__setattr__(self, "d", _check_unit("detection probability d", self.d))
        object.__setattr__(self, "p", _check_unit("Z-basis probability p", self.p))
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

    ``attack`` is the model the run went through (the honest one for
    ``attack=None``), and ``rounds`` its one-row block, outside ``==`` and
    ``repr``.  ``eve_bits[t - 1]`` is Eve's Z result on round ``t``
    (measure-resend only; ``None`` where she measured nothing).
    """

    config: ProtocolConfig
    attack: AttackModel
    directives: tuple[DetectionDirective, ...]
    report: CheckReport
    pairs: DistilledPairSet
    transcript: tuple[tuple, ...]
    rounds: Rounds = field(compare=False, repr=False)

    @property
    def aborted(self) -> bool:
        return self.report.verdict == "detected"

    @property
    def eve_bits(self) -> tuple[int | None, ...]:
        return tuple(self.rounds.eve[0].tolist()) if self.attack.kind == "imra" else (None,) * self.config.n

    @property
    def surviving_count(self) -> int:
        return int(self.rounds.surviving[0])

    @property
    def yield_fraction(self) -> float | None:
        """Distilled pairs per surviving position (None if nothing survived)."""
        return len(self.pairs) / self.surviving_count if self.surviving_count else None


# ---------------------------------------------------------------------------
# the checking rules


def evaluate_checks(directives, rc_results, ra_results, rb_results,
                    mode: CheckerMode | str) -> CheckReport:
    """Apply the checking rules to the published detection results.

    All four sequences must be aligned position by position; a directive's
    basis may be a :class:`~wshare.statevec.Basis` or its value.  See the
    module docstring for the rule table and the two modes.  This is the scalar
    statement of the rules that the enumeration oracles score branches
    with; the engine applies the same table as masks (:func:`_apply_rules`).
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
        if Basis(directive.basis) is Basis.Z:
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


def _apply_rules(selected, x_basis, home, alice, bob, mode: CheckerMode) -> dict:
    """The rule table as masks: rule key -> (applied, violated) arrays."""
    z_round = selected & ~x_basis
    x_applied = selected & x_basis & ~home if mode is CheckerMode.STRICT else np.zeros_like(selected)
    rules = {
        "z_rc0": (z_round & ~home, alice == bob),
        "z_rc1": (z_round & home, alice | bob),
        "x_rc0": (x_applied, alice != bob),
    }
    return {key: (applied, applied & broken) for key, (applied, broken) in rules.items()}


# ---------------------------------------------------------------------------
# the round tables


@dataclass(frozen=True)
class RoundTables:
    """The compiled round tree of one attack; see the module docstring."""

    te: float | None
    tc: np.ndarray
    ta: np.ndarray
    tb: np.ndarray
    pairs: tuple[StateVector | None, ...]
    kernels: tuple[tuple[np.ndarray, tuple[str, ...]] | None, ...]


def _compile_tables(te: float | None, roots: tuple[StateVector, ...]) -> RoundTables:
    """Threshold tables of the round tree below each root (one per Eve branch).

    Entries below a branch that is never drawn stay at 1.0 and are never read.
    """
    count = len(roots)
    tc, ta, tb = np.ones(count), np.ones((count, 2, 2)), np.ones((count, 2, 2, 2))
    pairs = []
    for e, root in enumerate(roots):
        tc[e], *homes = _branch_node(root, "c", Basis.Z)
        zero = homes[0].post_state
        pairs.append(None if zero is None else discard_qubit(zero, "c"))
        for c, home in enumerate(homes):
            if home.post_state is None:
                continue
            for x, basis in enumerate((Basis.Z, Basis.X)):
                ta[e, c, x], *alices = _branch_node(home.post_state, "a", basis)
                for a, alice in enumerate(alices):
                    if alice.post_state is not None:
                        tb[e, c, x, a] = _branch_node(alice.post_state, "b", basis)[0]
    for table in (tc, ta, tb):
        table.flags.writeable = False
    kernels = tuple(None if pair is None else _bell_kernel(pair) for pair in pairs)
    return RoundTables(te, tc, ta, tb, tuple(pairs), kernels)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _round_tables(attack: AttackModel) -> RoundTables:
    """The round tables of an attack, compiled on first use."""
    w = make_w_state()
    if attack.kind == "imra":
        te, *eve = _branch_node(w, "b", Basis.Z)
        return _compile_tables(te, tuple(branch.post_state for branch in eve))
    return _compile_tables(None, (attack.intercept(w, None)[0],))


# ---------------------------------------------------------------------------
# the engine


@dataclass(frozen=True)
class Rounds:
    """One block of trials as (B, n) arrays: row = trial, column t - 1 = round t.

    ``eve`` is Eve's branch index, ``home`` Charlie's home result (from
    detection on selected rounds, from confirmation on the others), and
    ``alice``/``bob`` the travel results, meaningful on selected rounds.
    ``rules`` maps each rule key to its (applied, violated) masks.  The
    engine's views read every per-trial fact from here: the abort, the pair
    mask, the survivor count, and each pair's Eve branch ``eve[pairs]``.
    """

    eve: np.ndarray
    selected: np.ndarray
    x_basis: np.ndarray
    home: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    rules: dict

    @functools.cached_property
    def violated(self) -> np.ndarray:
        """(B, n): the rounds some rule caught."""
        z_rc0, z_rc1, x_rc0 = (broken for _, broken in self.rules.values())
        return z_rc0 | z_rc1 | x_rc0

    @functools.cached_property
    def aborted(self) -> np.ndarray:
        """(B,): the trials some rule caught."""
        return self.violated.any(axis=1)

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        """(B, n): the distilled pairs, surviving home-0 rounds of passing trials."""
        return ~self.selected & ~self.home & ~self.aborted[:, None]

    @functools.cached_property
    def surviving(self) -> np.ndarray:
        """(B,): the rounds of each trial not sacrificed to detection."""
        return (~self.selected).sum(axis=1)


def _block_size(n: int) -> int:
    """Trials per block: a fixed function of the sequence length alone."""
    return max(1, min(_BLOCK_TRIALS, _BLOCK_SLOTS // n))


def _draw_rounds(tables: RoundTables, config: ProtocolConfig, rand, trials: int) -> Rounds:
    """Draw one block of ``trials`` trials, in the module's stream layout."""
    shape = (trials, config.n)
    if tables.te is None:
        eve = np.zeros(shape, dtype=np.uint8)
    else:
        eve = (rand.random(shape) >= tables.te).view(np.uint8)
    selected = rand.random(shape) < config.d
    x_basis = rand.random(shape) >= config.p
    detect = rand.random(shape + (3,))
    home = rand.random(shape)  # the confirmation uniforms, but on selected
    np.copyto(home, detect[..., 0], where=selected)  # rounds detection's
    home = home >= tables.tc[eve]
    node = (eve * 2 + home) * 2 + x_basis  # flat index of (e, c, basis)
    alice = detect[..., 1] >= tables.ta.reshape(-1)[node]
    bob = detect[..., 2] >= tables.tb.reshape(-1)[node * 2 + alice]
    rules = _apply_rules(selected, x_basis, home, alice, bob, config.checker_mode)
    return Rounds(eve, selected, x_basis, home, alice, bob, rules)


def run_protocol(
    config: ProtocolConfig, attack: AttackModel | None, rand: np.random.Generator
) -> RunOutcome:
    """Execute one full protocol run and return its outcome.

    The engine's one-trial view: every draw comes from ``rand``, laid out
    as one block (see the module docstring), and identical (config,
    attack, stream state) triples reproduce the outcome bit for bit.
    ``attack=None`` is the honest channel.  On detection the run aborts (no
    pairs); rerunning is the caller's decision.
    """
    attack = _HONEST if attack is None else attack
    tables = _round_tables(attack)
    rounds = _draw_rounds(tables, config, rand, 1)
    selected, paired = rounds.selected[0], rounds.pairs[0]

    def published(results) -> tuple[int, ...]:
        return tuple(results[0, selected].astype(np.int8).tolist())

    positions = (np.flatnonzero(selected) + 1).tolist()
    bases = [Basis.X if x else Basis.Z for x in rounds.x_basis[0, selected].tolist()]
    directives = tuple(DetectionDirective(t, basis) for t, basis in zip(positions, bases))
    transcript: list[tuple] = [
        ("charlie", "mode", "transmission"),
        ("charlie", "send", config.n),
        ("charlie", "mode", "detecting"),
        ("charlie", "directives", tuple((dd.position, dd.basis.value) for dd in directives)),
        ("charlie", "home-results", published(rounds.home)),
        ("alice", "results", published(rounds.alice)),
        ("bob", "results", published(rounds.bob)),
    ]
    tallies = {key: RuleTally(np.count_nonzero(applied), np.count_nonzero(violated))
               for key, (applied, violated) in rounds.rules.items()}
    report = CheckReport("detected" if rounds.aborted[0] else "pass",
                         tuple((np.flatnonzero(rounds.violated[0]) + 1).tolist()), tallies)
    pairs = DistilledPairSet(tuple((np.flatnonzero(paired) + 1).tolist()),
                             tuple(tables.pairs[e] for e in rounds.eve[rounds.pairs].tolist()))
    transcript.append(("charlie", "verdict", report.verdict))
    if rounds.aborted[0]:
        transcript.append(("charlie", "offending", report.offending_rounds))
        transcript.append(("charlie", "abort", "eavesdropping suspected; sequence discarded"))
    else:
        # Confirmation: the 0 positions among the surviving home results.
        transcript.append(("charlie", "mode", "confirmation"))
        transcript.append(("charlie", "distill-positions",
                           tuple((np.flatnonzero(paired[~selected]) + 1).tolist())))
        transcript.append(("charlie", "pair-count", len(pairs)))
    return RunOutcome(config, attack, directives, report, pairs, tuple(transcript), rounds)


def teleport_pairs(outcome: RunOutcome, rand: np.random.Generator
                   ) -> tuple[TeleportBatch, np.ndarray | None]:
    """Teleport one fresh random message over every distilled pair of a run.

    ``outcome`` is what :func:`run_protocol` returned, and ``rand``
    continues its stream: all the message normals, then one teleport
    uniform per pair.  Each pair goes through the kernel of its Eve branch
    in the round tables, read from the run's block as ``eve[pairs]``: Eve's
    bit on its round under imra, 0 otherwise.  Returns the batch, and Eve's
    recovery fidelity per pair when an attack was active (else ``None``).
    """
    attack, rounds = outcome.attack, outcome.rounds
    which = rounds.eve[rounds.pairs]
    messages = random_amplitudes(rand, which.size)
    batch = teleport_batch(messages, _round_tables(attack).kernels, which, rand.random(which.size))
    if attack.kind == "none":
        return batch, None
    return batch, eve_recover_batch(attack, which, batch, messages)


@dataclass(frozen=True)
class TrialStats:
    """Totals over the Monte Carlo trials of one grid point.

    ``yield_mean`` averages distilled pairs per surviving round over the
    passing trials with survivors; ``fidelity_mean`` averages Bob's
    fidelity, teleporting one random message over the first pair, over the
    trials that have one.  Either is ``None`` when nothing was averaged.
    """

    detections: int
    yield_mean: float | None
    fidelity_mean: float | None


def run_trials(config: ProtocolConfig, attack: AttackModel | None, trials: int,
               rand: np.random.Generator) -> TrialStats:
    """Run ``trials`` independent protocol runs from one stream, in blocks.

    Each block of :func:`_block_size` trials (the last one ragged) draws
    its rounds, then one message (four normals) and one teleport uniform
    per trial, used by the trials that distilled a pair.  ``attack=None``
    is the honest channel, and ``trials`` must be a positive integer.
    """
    trials = _check_length(trials, "trial count")
    tables = _round_tables(_HONEST if attack is None else attack)
    detections = yield_count = fidelity_count = 0
    yield_sum = fidelity_sum = 0.0
    size = _block_size(config.n)
    for start in range(0, trials, size):
        block = min(size, trials - start)
        rounds = _draw_rounds(tables, config, rand, block)
        messages = random_amplitudes(rand, block)
        draws = rand.random(block)
        detections += int(rounds.aborted.sum())
        pairs, surviving = rounds.pairs, rounds.surviving
        counted = ~rounds.aborted & (surviving > 0)
        yield_sum += float((pairs.sum(axis=1)[counted] / surviving[counted]).sum())
        yield_count += int(counted.sum())
        teleported = np.flatnonzero(pairs.any(axis=1))
        first = pairs[teleported].argmax(axis=1)
        batch = teleport_batch(messages[teleported], tables.kernels,
                               rounds.eve[teleported, first], draws[teleported])
        fidelity_sum += float(batch.fidelities.sum())
        fidelity_count += teleported.size
    return TrialStats(
        detections=detections,
        yield_mean=yield_sum / yield_count if yield_count else None,
        fidelity_mean=fidelity_sum / fidelity_count if fidelity_count else None,
    )
