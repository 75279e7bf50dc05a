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

A run is one :class:`RunOutcome`.

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

**The round tables.**  The states a round can reach form a small finite
tree that depends only on the attack and on Eve's measure-resend bit,
never on the round.  :func:`_round_tables` compiles it once per attack
into a :class:`RoundTables`, the one cache of the engine, and an outcome
is 0 exactly when its uniform falls below its threshold.  A run of n
rounds is then a few numpy expressions over arrays of n entries, and the
rule table a set of boolean masks over them.

**Stream layout.**  :func:`run_protocol` draws its rounds in this order:
Eve (n uniforms), for imra only; selection (n); basis (n); round uniforms
(n, 3): home, Alice, Bob.  Each home qubit is measured once, so a round
reads its home result from column 0, selected or not.  Every array is
drawn whole, whatever ``d`` and ``p`` are.  The teleport phase
(:func:`teleport_pairs`) then draws in :func:`~wshare.teleport.teleport_draws`'
layout.  A sweep draws no rounds: :func:`run_trials` states its draws.
"""

import enum
import functools
import operator
from typing import NamedTuple

import numpy as np

from .attacks import AttackModel, _check_unit, eve_recover_batch
from .statevec import (Basis, StateVector, _branch_weights, _clamped, _Record, discard_qubit, enumerate_qubit,
                       make_w_state)
from .teleport import TeleportBatch, _bell_kernel, _check_addressable, teleport_batch, teleport_draws

RULE_KEYS = ("z_rc0", "z_rc1", "x_rc0")

# Trials in one block of counts and its one teleport: it bounds a sweep's
# arrays whatever n is.
_BLOCK_TRIALS = 1 << 16
# Bound on the memoized round tables (one per attack model, about 2.8 KB each):
# a 100-point y-grid compiles each of its models once, however often it runs.
_TABLE_CACHE_SIZE = 1024


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


class ProtocolConfig(_Record):
    """Run parameters; validated on construction, compared and hashed by value.

    ``checker_mode`` may be given as a :class:`CheckerMode` or its value.
    """

    __slots__ = _fields = ("n", "d", "p", "checker_mode")

    def __init__(self, n: int, d: float, p: float, checker_mode: CheckerMode | str = CheckerMode.PAPER) -> None:
        self._set(_check_length(n), _check_unit("detection probability d", d),
                  _check_unit("Z-basis probability p", p), CheckerMode(checker_mode))


class DetectionDirective(NamedTuple):
    """One sacrificed position and the basis Alice and Bob must use there."""

    position: int
    basis: Basis


class RuleTally(NamedTuple):
    """How often one checking rule applied and how often it was violated."""

    applied: int = 0
    violations: int = 0


class CheckReport(NamedTuple):
    """The rounds the checking algorithm caught, plus per-rule diagnostics."""

    offending_rounds: tuple[int, ...]
    tallies: dict[str, RuleTally]

    @property
    def verdict(self) -> str:
        return "detected" if self.offending_rounds else "pass"


class DistilledPairSet(_Record):
    """Positions (original round indices) and collapsed states of the pairs.

    Each state is the round's register with the home qubit dropped: the
    two-qubit (a, b) Bell pair in an honest run, possibly with an attacker's
    ancilla still entangled alongside otherwise.  Sets compare and hash by
    value, their states by identity.
    """

    __slots__ = _fields = ("positions", "states")

    def __init__(self, positions: tuple[int, ...], states: tuple[StateVector, ...]) -> None:
        self._set(positions, states)

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(zip(self.positions, self.states))


class RunOutcome(_Record):
    """One protocol execution: its config, its attack and its drawn rounds.

    ``attack`` is the model the run went through.  The rounds are (n,)
    arrays, entry t - 1 = round t: ``eve`` is Eve's branch index,
    ``selected`` and ``x_basis`` the detection directives, ``home``
    Charlie's one home result per round (in detection on selected rounds,
    in confirmation on the others), and ``alice``/``bob`` the travel
    results, meaningful on selected rounds.
    The rest is derived on first read and kept: the rule, violation and
    pair masks, ``aborted``, ``directives``, ``report``, ``pairs`` and
    ``transcript``.  Outcomes compare and hash by identity, and their repr
    leaves out the rounds.  ``eve_bits[t - 1]`` is Eve's Z result on round
    ``t`` (measure-resend only; ``None`` where she measured nothing).
    """

    # no __slots__: the cached views live in the instance __dict__
    _fields = ("config", "attack", "eve", "selected", "x_basis", "home", "alice", "bob")
    _unshown = _fields[2:]
    __eq__, __hash__ = object.__eq__, object.__hash__  # comparing the rounds' arrays would raise

    def __init__(self, config: ProtocolConfig, attack: AttackModel, *rounds: np.ndarray) -> None:
        self._set(config, attack, *rounds)  # the six arrays, in ``_fields`` order

    @functools.cached_property
    def _rules(self) -> tuple[dict, np.ndarray]:
        return _apply_rules(self.selected, self.x_basis, self.home, self.alice, self.bob, self.config.checker_mode)

    @functools.cached_property
    def aborted(self) -> bool:
        return bool(self._rules[1].any())

    @functools.cached_property
    def _pair_mask(self) -> np.ndarray:
        """The surviving home-0 rounds, none if the run aborted; each pair's
        Eve branch is ``eve[_pair_mask]``."""
        return ~(self.selected | self.home | self.aborted)

    @property
    def eve_bits(self) -> tuple[int | None, ...]:
        return tuple(self.eve.tolist()) if self.attack.kind == "imra" else (None,) * self.config.n

    @property
    def surviving_count(self) -> int:
        return int(np.count_nonzero(~self.selected))

    @property
    def yield_fraction(self) -> float | None:
        """Distilled pairs per surviving position (None if nothing survived)."""
        return int(np.count_nonzero(self._pair_mask)) / self.surviving_count if self.surviving_count else None

    @functools.cached_property
    def directives(self) -> tuple[DetectionDirective, ...]:
        bases = [Basis.X if x else Basis.Z for x in self.x_basis[self.selected].tolist()]
        return tuple(map(DetectionDirective, (np.flatnonzero(self.selected) + 1).tolist(), bases))

    @functools.cached_property
    def report(self) -> CheckReport:
        tallies = {key: RuleTally(int(np.count_nonzero(applied)), int(np.count_nonzero(violated)))
                   for key, (applied, violated) in self._rules[0].items()}
        return CheckReport(tuple((np.flatnonzero(self._rules[1]) + 1).tolist()), tallies)

    @functools.cached_property
    def pairs(self) -> DistilledPairSet:
        mask, states = self._pair_mask, _round_tables(self.attack).pairs
        return DistilledPairSet(tuple((np.flatnonzero(mask) + 1).tolist()),
                                tuple(map(states.__getitem__, self.eve[mask].tolist())))

    @functools.cached_property
    def transcript(self) -> tuple[tuple, ...]:
        """The ordered classical record: (speaker, event, payload) triples."""
        report, selected = self.report, self.selected
        home, alice, bob = (tuple(results[selected].astype(np.int8).tolist())
                            for results in (self.home, self.alice, self.bob))
        transcript: list[tuple] = [
            ("charlie", "mode", "transmission"),
            ("charlie", "send", self.config.n),
            ("charlie", "mode", "detecting"),
            ("charlie", "directives", tuple((dd.position, dd.basis.value) for dd in self.directives)),
            ("charlie", "home-results", home),
            ("alice", "results", alice),
            ("bob", "results", bob),
            ("charlie", "verdict", report.verdict),
        ]
        if self.aborted:
            transcript += [("charlie", "offending", report.offending_rounds),
                           ("charlie", "abort", "eavesdropping suspected; sequence discarded")]
        else:
            # Confirmation: the 0 positions among the surviving home results.
            kept = tuple((np.flatnonzero(self._pair_mask[~selected]) + 1).tolist())
            transcript += [("charlie", "mode", "confirmation"), ("charlie", "distill-positions", kept),
                           ("charlie", "pair-count", len(kept))]
        return tuple(transcript)


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
    applied, violations = dict.fromkeys(RULE_KEYS, 0), dict.fromkeys(RULE_KEYS, 0)
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
        applied[key] += 1
        if not ok:
            violations[key] += 1
            offending.append(directive.position)
    return CheckReport(tuple(offending), {key: RuleTally(applied[key], violations[key]) for key in RULE_KEYS})


def _apply_rules(selected, x_basis, home, alice, bob, mode: CheckerMode) -> tuple[dict, np.ndarray]:
    """The rule table as masks: rule key -> (applied, violated) arrays, and where some rule broke."""
    z_round = selected & ~x_basis
    x_applied = selected & x_basis & ~home if mode is CheckerMode.STRICT else np.zeros_like(selected)
    checks = {
        "z_rc0": (z_round & ~home, alice == bob),
        "z_rc1": (z_round & home, alice | bob),
        "x_rc0": (x_applied, alice != bob),
    }
    rules = {key: (applied, applied & broken) for key, (applied, broken) in checks.items()}
    return rules, functools.reduce(operator.or_, (broken for _, broken in rules.values()))


# Each checker's leaf mask, indexed [x_basis, home, Alice, Bob]: where some rule flags a selected round.
_LEAF_MASKS = {mode: _apply_rules(np.True_, *np.indices((2,) * 4, dtype=bool), mode)[1] for mode in CheckerMode}


# ---------------------------------------------------------------------------
# the round tables


class RoundTables(NamedTuple):
    """The compiled round tree of one attack; tables compare and hash by identity.

    The tree starts from the W state as the attack splits it
    (:meth:`~wshare.attacks.AttackModel.branches`), one root per Eve branch
    ``e``; a round measures home ``c`` in Z, then ``a`` and ``b`` in the
    directive basis, or ``c`` alone in confirmation.  Each threshold is a
    P(outcome 0), clamped as :func:`~wshare.statevec.measure_qubit` samples it:

    * ``te``: P(Eve reads 0), imra's first branch weight, or ``None`` for the
      other kinds, whose ``e`` is 0; :func:`_eve_branches` draws ``e`` from it;
    * ``tc[e]``: P(home reads 0);
    * ``ta[e, c, basis]`` and ``tb[e, c, basis, a]``: P(Alice reads 0) and
      P(Bob reads 0) below home result ``c`` (and Alice's result ``a``);
    * ``home0``: P(home reads 0), summed over Eve's branches, and ``tp``:
      P(Eve reads 0 | home reads 0), the Eve branch of a pair, for imra only
      (drawn from like ``te``);
    * ``pairs[e]``: the pair register a home-0 round leaves, home qubit
      dropped, and ``kernels``: the Bell kernel of every ``pairs[e]``
      (:func:`~wshare.teleport._bell_kernel`), which every teleport goes through;
    * ``violation[mode]``: P(some rule of ``mode`` flags a selected round)
      under a Z directive, then under an X one.
    """

    te: float | None
    tc: np.ndarray
    ta: np.ndarray
    tb: np.ndarray
    home0: float
    tp: float | None
    pairs: tuple[StateVector | None, ...]
    kernels: tuple[np.ndarray, tuple[str, ...]]
    violation: dict[CheckerMode, np.ndarray]

    # tuple's own ==, != and hash would compare or hash the arrays, and raise
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _compile_tables(branches: tuple[tuple[float, StateVector], ...]) -> RoundTables:
    """The :class:`RoundTables` of the round tree below each (weight, root) Eve branch.

    Entries below a branch that is never drawn stay at 1.0 and are never read; each checker's
    ``violation`` pair weighs the leaves by its mask in :data:`_LEAF_MASKS`, built once at import.
    """
    weights, roots = zip(*branches)
    count = len(roots)
    tc, ta, tb = np.ones(count), np.ones((count, 2, 2)), np.ones((count, 2, 2, 2))
    pairs, blocks = [], []
    for e, root in enumerate(roots):
        homes = enumerate_qubit(root, "c", Basis.Z)
        tc[e], zero = _clamped(homes[0].probability), homes[0].post_state
        pairs.append(None if zero is None else discard_qubit(zero, "c"))
        # no pair: a zero register in its place is an all-zero kernel block, which no row can draw from
        blocks.append(pairs[-1] if zero is not None else StateVector._trusted(
            np.zeros(root.amplitudes.size // 2, dtype=complex), tuple(label for label in root.labels if label != "c")))
        for c, home in enumerate(homes):
            if home.post_state is None:
                continue
            for x, basis in enumerate((Basis.Z, Basis.X)):
                alices = enumerate_qubit(home.post_state, "a", basis)
                ta[e, c, x] = _clamped(alices[0].probability)
                for a, alice in enumerate(alices):
                    leaf = alice.post_state  # Bob's threshold alone: no register below it is kept
                    if leaf is not None:
                        tb[e, c, x, a] = _clamped(_branch_weights(leaf._split(leaf.axis("b")), basis)[0])
    eve = np.array(weights)
    joint = eve * tc  # P(Eve reads e and home reads 0)
    home0 = float(joint.sum())
    te, tp = (weights[0], _clamped(float(joint[0]) / home0)) if count > 1 else (None, None)
    # P(outcome 0) and P(outcome 1) on a new first axis: an outcome is 0 below its threshold
    home, alice, bob = (np.array((t, 1.0 - t)) for t in (tc, ta, tb))
    leaves = np.einsum("e,ce,aecx,becxa->xcab", eve, home, alice, bob)
    violation = {mode: np.where(flagged, leaves, 0.0).sum(axis=(1, 2, 3)) for mode, flagged in _LEAF_MASKS.items()}
    for table in (tc, ta, tb, *violation.values()):
        table.flags.writeable = False
    return RoundTables(te, tc, ta, tb, home0, tp, tuple(pairs), _bell_kernel(*blocks), violation)


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _round_tables(attack: AttackModel) -> RoundTables:
    """The round tables of an attack, compiled on first use."""
    return _compile_tables(attack.branches(make_w_state()))


# ---------------------------------------------------------------------------
# the engine


def _eve_branches(rand, threshold: float | None, count: int) -> np.ndarray:
    """Eve's branch index for ``count`` rounds or pairs: 1 where a uniform is
    at or above ``threshold``, and 0 everywhere, nothing drawn, without one."""
    if threshold is None:
        return np.zeros(count, dtype=np.uint8)
    return (rand.random(count) >= threshold).view(np.uint8)


def _draw_rounds(tables: RoundTables, config: ProtocolConfig, rand) -> tuple[np.ndarray, ...]:
    """Draw one run's rounds, in the module's stream layout: the (n,) arrays
    ``eve``, ``selected``, ``x_basis``, ``home``, ``alice`` and ``bob`` of
    :class:`RunOutcome`."""
    n = config.n
    _check_addressable(n, 24)  # the round uniforms, its widest array
    eve = _eve_branches(rand, tables.te, n)
    selected = rand.random(n) < config.d
    x_basis = rand.random(n) >= config.p
    uniforms = rand.random((n, 3))  # home, Alice, Bob
    home = uniforms[..., 0] >= tables.tc[eve]
    node = (eve * 2 + home) * 2 + x_basis  # flat index of (e, c, basis)
    alice = uniforms[..., 1] >= tables.ta.reshape(-1)[node]
    bob = uniforms[..., 2] >= tables.tb.reshape(-1)[node * 2 + alice]
    return eve, selected, x_basis, home, alice, bob


def run_protocol(config: ProtocolConfig, attack: AttackModel, rand: "np.random.Generator") -> RunOutcome:
    """Execute one full protocol run and return its outcome.

    The run's rounds are drawn from ``rand`` (see the module docstring)
    and kept as they are; identical (config, attack, stream state)
    triples reproduce it bit for bit; ``AttackModel("none")`` is the honest
    channel.  On detection the run aborts (no pairs); rerunning is the
    caller's decision.
    """
    return RunOutcome(config, attack, *_draw_rounds(_round_tables(attack), config, rand))


def teleport_pairs(outcome: RunOutcome, rand: "np.random.Generator"
                   ) -> tuple[TeleportBatch, np.ndarray | None]:
    """Teleport one fresh random message over every distilled pair of a run.

    ``outcome`` is what :func:`run_protocol` returned, and ``rand``
    continues its stream through :func:`~wshare.teleport.teleport_draws`.
    Each pair goes through its Eve branch's block of the round tables'
    kernel, read off the run's ``eve`` array: Eve's bit on its round under
    imra, 0 otherwise.  Returns the batch, and Eve's recovery fidelity per pair
    when an attack was active (else ``None``).
    """
    attack, which = outcome.attack, outcome.eve[outcome._pair_mask]
    messages, draws = teleport_draws(rand, which.size)
    batch = teleport_batch(messages, _round_tables(attack).kernels, which, draws)
    if attack.kind == "none":
        return batch, None
    return batch, eve_recover_batch(attack, which, batch, messages)


class TrialStats(NamedTuple):
    """Totals over the Monte Carlo trials of one grid point.

    ``yield_mean`` averages distilled pairs per surviving round over the
    passing trials with survivors; ``fidelity_mean`` averages Bob's
    fidelity, teleporting one random message over the first pair, over the
    trials that have one.  Either is ``None`` when nothing was averaged.
    """

    detections: int
    yield_mean: float | None
    fidelity_mean: float | None


def _round_cells(tables: RoundTables, config: ProtocolConfig) -> np.ndarray:
    """P(round cell) of one round at ``config``: selected and violated,
    selected and passing, unselected with home 0, unselected with home 1.

    The violated cell is d (p z + (1 - p) x) for the round tables' per-basis
    violation probabilities (z, x) under the config's checker; the passing
    cell is the rest of d, the home-0 cell (1 - d) P(home 0), and the home-1
    cell the rest of 1 (the draw takes the last cell as the remainder).
    """
    (z, x), d, p = tables.violation[config.checker_mode], config.d, config.p
    violated, home0 = d * (p * z + (1.0 - p) * x), (1.0 - d) * tables.home0
    return np.array((violated, d - violated, home0, 1.0 - d - home0))


def _draw_counts(tables: RoundTables, cells: np.ndarray, n: int, rand, trials: int) -> tuple:
    """Draw one block of ``trials`` trials of ``n`` rounds: the counts per round cell
    (:func:`_round_cells`), ``multinomial(n, cells)`` with one row per trial, then ``first``.

    Returns, per trial, ``aborted``, ``surviving`` (the unselected rounds)
    and ``pairs`` (the home-0 survivors of a passing trial); and ``first``,
    the Eve branch of the first pair of each trial that has one, in trial
    order.  Rounds are exchangeable, so under imra that is branch 0 with
    probability ``tp`` = P(Eve reads 0 | home reads 0) whatever the counts
    are: one uniform per such trial.
    """
    counts = rand.multinomial(n, cells, size=trials)
    aborted = counts[:, 0] > 0
    surviving = n - counts[:, 0] - counts[:, 1]  # not a row sum: see statevec._row_sums
    pairs = np.where(aborted, 0, counts[:, 2])
    return aborted, surviving, pairs, _eve_branches(rand, tables.tp, np.count_nonzero(pairs))


def run_trials(points, trials: int) -> list[TrialStats]:
    """Run ``trials`` independent protocol runs at each of a grid's points.

    ``points`` are (config, attack, rand) triples, run one after another in
    grid order, each from its own ``rand``, so a point's row is what a call
    with that point alone gives, however a grid is split over processes.
    Rounds are i.i.d., so a trial's row follows from its counts per round
    cell and no round is drawn.  Per block of at most :data:`_BLOCK_TRIALS`
    trials, a point draws :func:`_draw_counts`, then one message per first
    pair (:func:`~wshare.teleport.teleport_draws`), teleported through one
    :func:`~wshare.teleport.teleport_batch` over the point's kernel: memory
    stays bounded and the cost does not grow with n.
    Returns one :class:`TrialStats` per point, in order.  ``trials`` must be
    a positive integer.  A point whose ``n`` is 2^63 or more, past the
    counts numpy draws, raises MemoryError when its turn comes.
    """
    trials = _check_length(trials, "trial count")
    stats = []
    for config, attack, rand in points:
        if config.n > np.iinfo(np.int64).max:
            raise MemoryError(f"{config.n} rounds exceed the counts numpy can draw")
        tables = _round_tables(attack)
        cells = _round_cells(tables, config)
        detections, yield_sum, yield_count, fidelity_sum, fidelity_count = 0, 0.0, 0, 0.0, 0
        for start in range(0, trials, _BLOCK_TRIALS):
            aborted, surviving, pairs, first = _draw_counts(tables, cells, config.n, rand,
                                                            min(_BLOCK_TRIALS, trials - start))
            detections += int(np.count_nonzero(aborted))  # a plain int, which JSON writes as a number
            counted = ~aborted & (surviving > 0)
            yield_sum += float((pairs[counted] / surviving[counted]).sum())
            yield_count += int(np.count_nonzero(counted))
            if first.size:  # an empty teleport draws nothing
                messages, draws = teleport_draws(rand, first.size)
                fidelities = teleport_batch(messages, tables.kernels, first, draws).fidelities
                fidelity_sum += float(fidelities.sum())
                fidelity_count += fidelities.size
        stats.append(TrialStats(detections, yield_sum / yield_count if yield_count else None,
                                fidelity_sum / fidelity_count if fidelity_count else None))
    return stats
