"""Protocol state machine: detection sampling, checking rules, distillation."""

import collections
import functools
import itertools
import math
import operator
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wshare import protocol
from wshare.analytic import closed_form_round_detection, round_detection_probability
from wshare.attacks import AttackModel
from wshare.protocol import (
    CheckReport,
    CheckerMode,
    DetectionDirective,
    ProtocolConfig,
    RuleTally,
    evaluate_checks,
    run_protocol,
    run_trials,
    teleport_pairs,
)
from wshare.statevec import Basis, enumerate_qubit, make_w_state
from wshare.teleport import teleport_batch

RS2 = 1 / np.sqrt(2)

Z, X = Basis.Z, Basis.X


def dd(position, basis):
    return DetectionDirective(position, basis)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    ProtocolConfig(n=1, d=0.0, p=1.0)  # boundary values are fine
    assert ProtocolConfig(n=1, d=0.0, p=1.0, checker_mode="strict").checker_mode is CheckerMode.STRICT
    for n in (0, 2.5, True, "3", 2.0, np.float64(2.0), np.bool_(True), np.int64(0)):
        with pytest.raises(ValueError):
            ProtocolConfig(n=n, d=0.5, p=0.5)
    config = ProtocolConfig(n=np.int64(5), d=0.5, p=0.5)  # any integral n, stored as a plain int
    assert config.n == 5 and type(config.n) is int
    # any real d and p in [0, 1], stored as plain floats
    config = ProtocolConfig(n=3, d=0, p=np.float32(1.0))
    assert (config.d, config.p) == (0.0, 1.0) and type(config.d) is type(config.p) is float
    for bad in (1.5, -0.1, float("nan"), True, np.bool_(False), "0.5", None, 0.5j, 10 ** 400):
        with pytest.raises(ValueError):
            ProtocolConfig(n=10, d=bad, p=0.5)
        with pytest.raises(ValueError):
            ProtocolConfig(n=10, d=0.5, p=bad)
    with pytest.raises(ValueError):
        ProtocolConfig(n=10, d=0.5, p=0.5, checker_mode="lenient")
    with pytest.raises(ValueError):
        ProtocolConfig(n=10, d=0.5, p=0.5, checker_mode="paper_analytic")


# ---------------------------------------------------------------------------
# detection sampling


def directed(n, d, p, seed):
    """The directives of an honest run."""
    return run_protocol(ProtocolConfig(n=n, d=d, p=p), AttackModel("none"), np.random.default_rng(seed)).directives


def test_select_positions_extremes():
    assert directed(10, 0.0, 0.5, 0) == ()
    assert [dd.position for dd in directed(5, 1.0, 0.5, 0)] == [1, 2, 3, 4, 5]


def test_select_positions_concentration():
    n = 100_000
    count = len(directed(n, 0.3, 0.5, 7))
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(count / n - 0.3) < 4 * sigma


def test_select_positions_sorted_and_valid():
    positions = [dd.position for dd in directed(50, 0.5, 0.5, 1)]
    assert positions == sorted(set(positions))
    assert all(1 <= t <= 50 for t in positions)


def test_assign_bases_extremes():
    assert all(d.basis is Z for d in directed(3, 1.0, 1.0, 0))
    assert all(d.basis is X for d in directed(3, 1.0, 0.0, 0))


def test_assign_bases_concentration():
    directives = directed(100_000, 1.0, 0.5, 9)
    frac = sum(d.basis is Z for d in directives) / len(directives)
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / len(directives))


# ---------------------------------------------------------------------------
# checking rules


@pytest.mark.parametrize(
    "basis,rc,ra,rb,ok_strict",
    [
        (Z, 0, 0, 1, True),
        (Z, 0, 1, 0, True),
        (Z, 0, 0, 0, False),
        (Z, 0, 1, 1, False),
        (Z, 1, 0, 0, True),
        (Z, 1, 0, 1, False),
        (Z, 1, 1, 0, False),
        (Z, 1, 1, 1, False),
        (X, 0, 0, 0, True),
        (X, 0, 1, 1, True),
        (X, 0, 0, 1, False),
        (X, 0, 1, 0, False),
        (X, 1, 0, 1, True),  # X with home 1: unconstrained
        (X, 1, 1, 1, True),
    ],
)
def test_rule_table(basis, rc, ra, rb, ok_strict):
    strict = evaluate_checks([dd(1, basis)], [rc], [ra], [rb], "strict")
    assert (strict.verdict == "pass") == ok_strict
    paper = evaluate_checks([dd(1, basis)], [rc], [ra], [rb], "paper")
    ok_paper = ok_strict or basis is X  # X rounds never flag in paper mode
    assert (paper.verdict == "pass") == ok_paper


def test_tallies_and_offending_positions():
    directives = [dd(2, Z), dd(5, Z), dd(7, X), dd(9, X)]
    rc = [0, 1, 0, 0]
    ra = [0, 0, 1, 0]
    rb = [0, 0, 0, 0]
    strict = evaluate_checks(directives, rc, ra, rb, "strict")
    assert strict.verdict == "detected"
    assert strict.offending_rounds == (2, 7)
    assert strict.tallies["z_rc0"] == RuleTally(applied=1, violations=1)
    assert strict.tallies["z_rc1"] == RuleTally(applied=1, violations=0)
    assert strict.tallies["x_rc0"] == RuleTally(applied=2, violations=1)

    paper = evaluate_checks(directives, rc, ra, rb, "paper")
    assert paper.offending_rounds == (2,)
    assert paper.tallies["x_rc0"] == RuleTally(applied=0, violations=0)
    assert RuleTally() == RuleTally(applied=0, violations=0)


def test_checks_read_a_basis_given_by_its_value():
    # Z with home 0 needs Ra != Rb, whether the basis is the member or "Z".
    for basis in (Z, "Z"):
        assert evaluate_checks([dd(1, basis)], [0], [0], [0], "paper").verdict == "detected"
    for basis in (X, "X"):
        assert evaluate_checks([dd(1, basis)], [0], [1], [0], "strict").verdict == "detected"
        assert evaluate_checks([dd(1, basis)], [0], [1], [0], "paper").verdict == "pass"
    for basis in ("Y", "z", None):
        with pytest.raises(ValueError):
            evaluate_checks([dd(1, basis)], [0], [0], [0], "paper")


def honest_detection_branches():
    """Every (basis, rc, ra, rb) an honest W-state round can publish, found
    by enumeration: c in Z, then a and b in the directive basis."""
    found = set()
    for basis in (Z, X):
        for bc in enumerate_qubit(make_w_state(), "c", Z):
            if bc.post_state is None:
                continue
            for ba in enumerate_qubit(bc.post_state, "a", basis):
                if ba.post_state is None:
                    continue
                for bb in enumerate_qubit(ba.post_state, "b", basis):
                    if bb.post_state is not None:
                        found.add((basis, bc.outcome, ba.outcome, bb.outcome))
    return sorted(found, key=lambda r: (r[0].value, r[1:]))


HONEST_BRANCHES = honest_detection_branches()

BASES = st.sampled_from([Z, X])
BITS = st.integers(min_value=0, max_value=1)


def test_honest_branches_cover_every_home_outcome():
    homes = {(basis, rc) for basis, rc, _, _ in HONEST_BRANCHES}
    assert homes == {(Z, 0), (Z, 1), (X, 0), (X, 1)}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(HONEST_BRANCHES), min_size=1, max_size=30))
def test_honest_branch_sequences_never_violate(rounds):
    directives = [dd(i + 1, basis) for i, (basis, _, _, _) in enumerate(rounds)]
    rc, ra, rb = ([r[k] for r in rounds] for k in (1, 2, 3))
    for mode in ("paper", "strict"):
        report = evaluate_checks(directives, rc, ra, rb, mode)
        assert report.verdict == "pass", mode
        assert all(tally.violations == 0 for tally in report.tallies.values()), mode


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(BASES, BITS, BITS, BITS), max_size=30))
def test_strict_offends_wherever_paper_does(rounds):
    directives = [dd(i + 1, basis) for i, (basis, _, _, _) in enumerate(rounds)]
    rc, ra, rb = ([r[k] for r in rounds] for k in (1, 2, 3))
    strict = evaluate_checks(directives, rc, ra, rb, "strict")
    paper = evaluate_checks(directives, rc, ra, rb, "paper")
    assert set(strict.offending_rounds) >= set(paper.offending_rounds)
    if paper.verdict == "detected":
        assert strict.verdict == "detected"


def test_checks_validate_inputs():
    with pytest.raises(ValueError):
        evaluate_checks([dd(1, Z)], [0], [0], [], "strict")
    with pytest.raises(ValueError):
        evaluate_checks([], [], [], [], "fuzzy")
    with pytest.raises(ValueError):
        evaluate_checks([], [], [], [], "paper_analytic")


def test_check_report_verdict_follows_offending_rounds():
    assert CheckReport((3,), {}).verdict == "detected"
    assert CheckReport((), {}).verdict == "pass"
    # reports compare by value, tallies included; a report holds a dict, so it has no hash
    caught, tallied = CheckReport((3,), {}), CheckReport((3,), {"z_rc0": RuleTally(1, 1)})
    assert caught != tallied and not caught == tallied and caught == CheckReport((3,), {})
    assert caught != CheckReport((), {}) and caught != (3,)
    with pytest.raises(TypeError):
        hash(tallied)


# ---------------------------------------------------------------------------
# distillation helpers


def test_distill_positions_examples():
    # With d = 0 every round survives, so the distill positions (indices
    # among the survivors) are the pair positions themselves.
    for seed in range(5):
        outcome = run_protocol(ProtocolConfig(n=6, d=0.0, p=0.5), AttackModel("none"), np.random.default_rng(seed))
        kept = published(outcome)[("charlie", "distill-positions")]
        assert kept == outcome.pairs.positions
        assert all(state.labels == ("a", "b") for state in outcome.pairs.states)
    nothing = run_protocol(ProtocolConfig(n=3, d=1.0, p=0.5), AttackModel("none"), np.random.default_rng(0))
    assert published(nothing)[("charlie", "distill-positions")] == ()


# ---------------------------------------------------------------------------
# full runs


def test_honest_run_passes_both_modes():
    for seed in range(40):
        transcripts = []
        for mode in ("paper", "strict"):
            config = ProtocolConfig(n=50, d=0.5, p=0.5, checker_mode=mode)
            outcome = run_protocol(config, AttackModel("none"), np.random.default_rng(seed))
            assert outcome.report.verdict == "pass"
            assert not outcome.aborted
            transcripts.append(outcome.transcript)
        # the two modes consume randomness identically, so honest transcripts
        # coincide event for event
        assert transcripts[0] == transcripts[1]


def test_honest_yield_near_two_thirds():
    config = ProtocolConfig(n=3000, d=0.0, p=0.5)
    outcome = run_protocol(config, AttackModel("none"), np.random.default_rng(12))
    frac = outcome.yield_fraction
    sigma = np.sqrt((2 / 9) / 3000)
    assert abs(frac - 2 / 3) < 4 * sigma


def test_honest_pairs_are_bell_pairs():
    outcome = run_protocol(ProtocolConfig(n=200, d=0.3, p=0.5), AttackModel("none"), np.random.default_rng(5))
    want = np.zeros(4)
    want[[0b01, 0b10]] = RS2
    assert len(outcome.pairs) > 0
    for _, state in outcome.pairs:
        assert state.labels == ("a", "b")
        assert_allclose(state.amplitudes, want, atol=1e-12)


def published(outcome):
    """The transcript's payloads keyed by (speaker, event)."""
    return {(speaker, event): payload for speaker, event, payload in outcome.transcript}


def test_round_flags_after_run():
    outcome = run_protocol(ProtocolConfig(n=30, d=0.5, p=0.5), AttackModel("none"), np.random.default_rng(2))
    events = published(outcome)
    directives = outcome.directives
    assert directives and all(d.basis in (Z, X) for d in directives)
    assert events[("charlie", "directives")] == tuple((d.position, d.basis.value) for d in directives)
    # one c, a and b result per directive
    for key in (("charlie", "home-results"), ("alice", "results"), ("bob", "results")):
        assert len(events[key]) == len(directives)
        assert set(events[key]) <= {0, 1}
    # the distill positions index the survivors, which Charlie then measured
    sacrificed = {d.position for d in directives}
    surviving = [t for t in range(1, 31) if t not in sacrificed]
    assert outcome.surviving_count == len(surviving)
    kept = events[("charlie", "distill-positions")]
    assert list(kept) == sorted(set(kept)) and all(1 <= i <= len(surviving) for i in kept)
    assert outcome.pairs.positions == tuple(surviving[i - 1] for i in kept)
    assert events[("charlie", "pair-count")] == len(outcome.pairs)
    assert outcome.eve_bits == (None,) * 30


def test_transcript_shape():
    outcome = run_protocol(ProtocolConfig(n=10, d=0.5, p=0.5), AttackModel("none"), np.random.default_rng(1))
    kinds = [event[1] for event in outcome.transcript]
    assert kinds[0] == "mode"
    assert "directives" in kinds
    assert "verdict" in kinds
    assert kinds.index("verdict") < kinds.index("distill-positions")
    speakers = {event[0] for event in outcome.transcript}
    assert speakers == {"charlie", "alice", "bob"}


def test_determinism_bit_for_bit():
    config = ProtocolConfig(n=40, d=0.5, p=0.5)
    a = run_protocol(config, AttackModel("isra", y=0.5), np.random.default_rng(77))
    b = run_protocol(config, AttackModel("isra", y=0.5), np.random.default_rng(77))
    assert a.transcript == b.transcript
    assert a.report.verdict == b.report.verdict
    assert a.report.offending_rounds == b.report.offending_rounds
    assert a.pairs.positions == b.pairs.positions
    for (_, sa), (_, sb) in zip(a.pairs, b.pairs):
        assert np.array_equal(sa.amplitudes, sb.amplitudes)


def test_no_detection_rounds_passes_vacuously():
    outcome = run_protocol(ProtocolConfig(n=1, d=0.0, p=0.5), AttackModel("none"), np.random.default_rng(0))
    assert outcome.report.verdict == "pass"
    assert outcome.directives == ()
    # the single round went to confirmation: its home outcome decides the pair
    events = published(outcome)
    assert outcome.transcript[-3] == ("charlie", "mode", "confirmation")
    assert events[("charlie", "distill-positions")] in ((), (1,))
    assert outcome.pairs.positions == events[("charlie", "distill-positions")]


def test_fully_sacrificed_run_yields_nothing():
    outcome = run_protocol(ProtocolConfig(n=4, d=1.0, p=0.5), AttackModel("none"), np.random.default_rng(6))
    assert outcome.surviving_count == 0
    assert len(outcome.pairs) == 0
    assert outcome.yield_fraction is None


def test_isra_full_force_aborts():
    config = ProtocolConfig(n=30, d=1.0, p=1.0)
    outcome = run_protocol(config, AttackModel("isra", y=1.0), np.random.default_rng(11))
    # detection probability 1 - (1/3)^30: any seed in practice
    assert outcome.aborted
    assert len(outcome.pairs) == 0
    assert outcome.transcript[-1][1] == "abort"


def test_mode_dominance_paired_seeds():
    # With identical seeds, every paper detection is also a strict
    # detection, and the offending positions nest.
    attacks = [AttackModel("imra"), AttackModel("isra", y=0.5), AttackModel("ema")]
    for seed in range(60):
        for attack in attacks:
            outcomes = {}
            for mode in ("paper", "strict"):
                config = ProtocolConfig(n=20, d=0.5, p=0.5, checker_mode=mode)
                outcomes[mode] = run_protocol(config, attack, np.random.default_rng(seed))
            paper_set = set(outcomes["paper"].report.offending_rounds)
            strict_set = set(outcomes["strict"].report.offending_rounds)
            assert paper_set <= strict_set


def test_isra_pairs_carry_stored_qubit():
    # Each run here aborts with probability 1 - (1 - pd(1+y^2)/3)^40 = 0.52,
    # so the property is checked on every passing run of a few seeds.
    config = ProtocolConfig(n=40, d=0.1, p=0.5)
    checked = 0
    for seed in range(8, 16):
        outcome = run_protocol(config, AttackModel("isra", y=0.3), np.random.default_rng(seed))
        if not outcome.aborted and len(outcome.pairs) > 0:
            checked += 1
            for _, state in outcome.pairs:
                assert set(state.labels) == {"a", "e", "b"}
    assert checked, "expected some passing run with pairs among these seeds"


# ---------------------------------------------------------------------------
# the two engine views


def test_run_trials_checks_its_inputs():
    config = ProtocolConfig(n=5, d=0.5, p=0.5)
    [honest] = run_trials([(config, AttackModel("none"), np.random.default_rng(3))], 50)
    assert honest.detections == 0
    for trials in (0, -3, True, 2.0, "5", None):
        with pytest.raises(ValueError):
            run_trials([(config, AttackModel("none"), np.random.default_rng(3))], trials)
    assert run_trials([(config, AttackModel("none"), np.random.default_rng(3))], np.int64(50)) == [honest]


GRIDS = {
    # three isra models: three teleports, each through its own model's one node
    "isra-y-grid": ([(ProtocolConfig(n=10, d=0.5, p=0.5), AttackModel("isra", y)) for y in (0.0, 0.5, 1.0)], 600),
    # the d = 1 points select every round, so they have no pairs and no teleport
    "imra-grid-with-d1": ([(ProtocolConfig(n=n, d=d, p=p, checker_mode="strict"), AttackModel("imra"))
                           for p in (0.0, 0.5) for d in (0.5, 1.0) for n in (1, 2, 4)], 400),
    # with 256-trial blocks, 600 trials are two full blocks and a ragged one at every point;
    # at d = 0 and n = 40 every trial has a pair, so a full block is a full teleport
    "past-one-block": ([(ProtocolConfig(n=40, d=0.0, p=0.5), AttackModel("ema")),
                        (ProtocolConfig(n=5, d=0.2, p=0.5), AttackModel("imra")),
                        (ProtocolConfig(n=40, d=0.0, p=0.5), AttackModel("none"))], 600),
    # models interleave across two rest layouts: each point teleports through its own model
    "interleaved-models": ([(ProtocolConfig(n=10, d=0.3, p=0.5), AttackModel("isra", 0.5)),
                            (ProtocolConfig(n=10, d=0.3, p=0.5), AttackModel("ema")),
                            (ProtocolConfig(n=20, d=0.1, p=1.0, checker_mode="strict"), AttackModel("isra", 0.5)),
                            (ProtocolConfig(n=10, d=0.3, p=0.5), AttackModel("none"))], 300),
    # three 128-trial points of one model: every trial has a pair at d = 0 and n = 40, and
    # each point teleports its own 128 rows, never sharing a teleport with the next
    "packed-points": ([(ProtocolConfig(n=40, d=0.0, p=0.5), AttackModel("ema"))] * 3, 128),
}


@pytest.mark.parametrize("case", GRIDS)
def test_grid_call_matches_one_point_calls(case, monkeypatch):
    # One call over a grid runs its points one after another: each point's
    # stats, its stream's next draw and its teleports are those of a call
    # with that point alone.  Each block that has a pair teleports once,
    # through its own point's model, never more rows than a block holds.
    if case == "past-one-block":
        monkeypatch.setattr(protocol, "_BLOCK_TRIALS", 256)
    grid, trials = GRIDS[case]
    kernels_of = {attack: protocol._round_tables(attack).kernels for _, attack in grid}
    calls = []

    def recorded(messages, kernels, which, draws):
        [owner] = [attack for attack, own in kernels_of.items() if own is kernels]
        calls.append((len(draws), owner, kernels[0].shape[1] // (4 << len(kernels[1]))))
        return teleport_batch(messages, kernels, which, draws)

    monkeypatch.setattr(protocol, "teleport_batch", recorded)
    rands = [np.random.default_rng((11, index)) for index in range(len(grid))]
    together = run_trials([(config, attack, rand) for (config, attack), rand in zip(grid, rands)], trials)
    batched = calls[:]
    for index, (config, attack) in enumerate(grid):
        alone = np.random.default_rng((11, index))
        assert run_trials([(config, attack, alone)], trials) == [together[index]], index
        assert rands[index].random() == alone.random(), index
    assert len(together) == len(grid) and all(rows <= protocol._BLOCK_TRIALS for rows, _, _ in calls)
    assert calls[len(batched):] == batched  # the one-point calls, in grid order
    if case == "isra-y-grid":
        assert [(owner, nodes) for _, owner, nodes in batched] == [(attack, 1) for _, attack in grid]
    elif case == "imra-grid-with-d1":
        assert len(batched) == sum(config.d < 1 for config, _ in grid) == 6
        assert [stats.fidelity_mean is None for stats in together] == [config.d == 1.0 for config, _ in grid]
    elif case == "interleaved-models":
        assert [owner for _, owner, _ in batched] == [AttackModel("isra", 0.5), AttackModel("ema"),
                                                      AttackModel("isra", 0.5), AttackModel("none")]
    elif case == "packed-points":
        assert [rows for rows, _, _ in batched] == [128, 128, 128]
    else:
        assert max(rows for rows, _, _ in batched) == 256


def test_a_second_y_grid_call_compiles_no_table(monkeypatch):
    # The round-table cache holds every model of a 100-point y-grid, so an
    # identical second call compiles none of them again.
    compiled = []

    def counted(*branches):
        compiled.append(branches)
        return compile_tables(*branches)

    compile_tables = protocol._compile_tables
    monkeypatch.setattr(protocol, "_compile_tables", counted)
    protocol._round_tables.cache_clear()
    config = ProtocolConfig(n=10, d=0.5, p=0.5)
    for want in (100, 0):
        compiled.clear()
        run_trials([(config, AttackModel("isra", y / 99), np.random.default_rng(y)) for y in range(100)], 10)
        assert len(compiled) == want


def _agree(counted, drawn):
    """Two samples of one per-trial statistic whose means lie within 4 sigma
    of each other (exactly equal when neither varies)."""
    counted, drawn = np.asarray(counted, dtype=float), np.asarray(drawn, dtype=float)
    spread = np.sqrt(counted.var() / max(counted.size, 1) + drawn.var() / max(drawn.size, 1))
    gap = (counted.mean() if counted.size else 0.0) - (drawn.mean() if drawn.size else 0.0)
    return abs(gap) <= 4 * spread


def _rows_of_rounds(attack: AttackModel, config: ProtocolConfig, trials: int, rand) -> tuple:
    """(aborted, survivors, pairs, first pair's Eve branch) of ``trials``
    trials at ``config``, drawn as one run's rounds, a trial being each n
    rounds of it; the branches are those of the trials with a pair, in order."""
    run = run_protocol(ProtocolConfig(trials * config.n, config.d, config.p, config.checker_mode), attack, rand)
    eve, selected, home, violated = (a.reshape(trials, config.n) for a in
                                     (run.eve, run.selected, run.home, run._rules[1]))
    aborted = violated.any(axis=1)  # a trial aborts on any violated round
    pairs = ~selected & ~home & ~aborted[:, None]  # its home-0 survivors, if it passed
    paired = np.flatnonzero(pairs.any(axis=1))
    return aborted, (~selected).sum(axis=1), pairs.sum(axis=1), eve[paired, pairs[paired].argmax(axis=1)]


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", [AttackModel("none"), AttackModel("imra"),
                                    AttackModel("isra", 0.6), AttackModel("ema")],
                         ids=lambda attack: attack.kind)
def test_count_sampler_matches_round_draws(attack, mode):
    # A sweep draws each trial's counts per round cell, a run its rounds:
    # the two samplers must give one law for the abort, the survivors, the
    # pairs and (under imra) the first pair's Eve branch.  The rounds of all
    # trials are drawn as one run, a trial being each n rounds of it.
    tables, trials = protocol._round_tables(attack), 10_000
    for n, p, d in [(1, 0.5, 0.0), (4, 0.5, 0.4), (30, 0.3, 0.1), (200, 0.9, 0.01)]:
        config = ProtocolConfig(n=n, d=d, p=p, checker_mode=mode)
        aborted, surviving, pairs, first = protocol._draw_counts(
            tables, protocol._round_cells(tables, config), n, np.random.default_rng(n), trials)
        drawn = _rows_of_rounds(attack, config, trials, np.random.default_rng(n + 1))
        for name, a, b in zip(("detections", "survivors", "pairs", "first-pair branch"),
                              (aborted, surviving, pairs, first), drawn):
            assert _agree(a, b), (name, n, p, d, np.mean(a), np.mean(b))
        assert first.size == np.count_nonzero(pairs)
        if attack.kind == "imra":
            assert 0 < first.mean() < 1  # both branches drawn
        else:
            assert not first.any()


DERIVED = ("directives", "report", "pairs", "transcript")
ATTACKS = [AttackModel("none"), AttackModel("imra"), AttackModel("isra", 0.5), AttackModel("ema")]


def _honest_id(attack: AttackModel) -> str:
    return "honest" if attack.kind == "none" else attack.kind


@pytest.mark.parametrize("attack", ATTACKS, ids=_honest_id)
def test_trial_cost_does_not_grow_with_n(attack):
    # A sweep draws counts, not rounds: a trillion rounds a trial cost what
    # ten do, and n past the int64 range numpy's counts take is refused.
    config = ProtocolConfig(n=10 ** 12, d=0.5, p=0.5)
    run_trials([(config, attack, np.random.default_rng(0))], 10)  # compiles the round tables
    tracemalloc.start()
    try:
        [stats] = run_trials([(config, attack, np.random.default_rng(1))], 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert stats.yield_mean is None or abs(stats.yield_mean - 2 / 3) < 1e-3
    largest = ProtocolConfig(n=2 ** 63 - 1, d=0.5, p=0.5)
    assert run_trials([(largest, attack, np.random.default_rng(2))], 100)[0].detections in (0, 100)
    with pytest.raises(MemoryError):
        run_trials([(ProtocolConfig(n=2 ** 63, d=0.5, p=0.5), attack, np.random.default_rng(2))], 100)


# ---------------------------------------------------------------------------
# the run view


@pytest.mark.parametrize("attack", ATTACKS, ids=_honest_id)
def test_block_readers_build_no_derived_view(attack, monkeypatch):
    # The verdict, Eve's bits, the survivors and the teleport phase read the
    # drawn rounds themselves: no directive, report, pair set or transcript
    # is built.
    def refuse(*args, **kwargs):
        raise AssertionError("a derived view was built")

    for name in ("DetectionDirective", "RuleTally", "CheckReport", "DistilledPairSet"):
        monkeypatch.setattr(protocol, name, refuse)
    rand = np.random.default_rng(5)
    outcome = run_protocol(ProtocolConfig(n=40, d=0.3, p=0.5), attack, rand)
    assert outcome.home.shape == (40,)
    assert isinstance(outcome.aborted, bool)
    assert len(outcome.eve_bits) == 40
    assert 0 < outcome.surviving_count <= 40
    assert outcome.yield_fraction is not None
    batch, _ = teleport_pairs(outcome, rand)
    assert len(batch.fidelities) == (0 if outcome.aborted else np.count_nonzero(~outcome.selected & ~outcome.home))
    assert not set(DERIVED) & set(vars(outcome))


def test_transcript_builds_each_derived_view_once(monkeypatch):
    built = collections.Counter()
    for name in ("DetectionDirective", "CheckReport", "DistilledPairSet"):
        def counting(*args, _build=getattr(protocol, name), _name=name):
            built[_name] += 1
            return _build(*args)

        monkeypatch.setattr(protocol, name, counting)
    outcome = run_protocol(ProtocolConfig(n=40, d=0.3, p=0.5), AttackModel("none"), np.random.default_rng(5))
    assert not built
    transcript = outcome.transcript
    assert built["DistilledPairSet"] == 0  # its pair count is read off the distill positions
    views = [getattr(outcome, name) for name in DERIVED]
    once = {"DetectionDirective": len(outcome.directives), "CheckReport": 1, "DistilledPairSet": 1}
    assert once["DetectionDirective"] > 0 and len(outcome.pairs) > 0
    assert built == once
    assert outcome.transcript is transcript
    assert all(getattr(outcome, name) is view for name, view in zip(DERIVED, views))
    assert built == once


def test_outcomes_compare_by_identity():
    config = ProtocolConfig(n=6, d=0.5, p=0.5)
    first, second = (run_protocol(config, AttackModel("none"), np.random.default_rng(2)) for _ in range(2))
    assert first.transcript == second.transcript
    assert first == first and first != second and len({first, second}) == 2
    assert repr(first) == f"RunOutcome(config={config!r}, attack={first.attack!r})"


# ---------------------------------------------------------------------------
# statistical gates that do not saturate


GATE_P, GATE_D, GATE_Y = 0.3, 0.7, 0.5


def _violation_rates(kind: str, mode: str) -> dict:
    """Per-round violation rate of each rule: isra breaks the Z rules at
    pd/3 (home 0) and pd y^2/3 (home 1); in strict mode every attack breaks
    half of the (1 - p)d 2/3 X/home-0 rounds; nothing else is ever broken."""
    rates = dict.fromkeys(protocol.RULE_KEYS, 0.0)
    if kind == "isra":
        rates["z_rc0"], rates["z_rc1"] = GATE_P * GATE_D / 3, GATE_P * GATE_D * GATE_Y ** 2 / 3
    if mode == "strict" and kind != "none":
        rates["x_rc0"] = (1 - GATE_P) * GATE_D / 3
    return rates


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("kind", ["none", "imra", "isra", "ema"])
def test_violated_rounds_per_rule_are_binomial(kind, mode):
    # Every round is drawn and checked, whether its trial aborted or not, so
    # the violated rounds of a rule over trials x n rounds are binomial at the
    # rule's per-round rate; unlike the abort count, this does not saturate
    # at large n.
    config = ProtocolConfig(n=1000, d=GATE_D, p=GATE_P, checker_mode=mode)
    attack = AttackModel(kind, GATE_Y if kind == "isra" else None)
    rand = np.random.default_rng(11)
    trials = 200
    violations = collections.Counter()
    for _ in range(trials):
        for key, tally in run_protocol(config, attack, rand).report.tallies.items():
            violations[key] += tally.violations
    rounds = trials * config.n
    for key, rate in _violation_rates(kind, mode).items():
        sigma = np.sqrt(rounds * rate * (1 - rate))
        assert abs(violations[key] - rounds * rate) <= 4 * sigma, (key, violations[key], rounds * rate)


# Bob's and Eve's exact mean teleport fidelities over Haar-random messages,
# written out until an exact fidelity oracle computes them: isra hands Bob a
# product state and Eve a perfect copy; imra and ema give both the 2/3
# measure-and-prepare limit (Massar & Popescu, PRL 74, 1259 (1995)).
BOB_MEAN = {"none": 1.0, "imra": 2 / 3, "isra": 1 / 2, "ema": 2 / 3}
EVE_MEAN = {"imra": 2 / 3, "isra": 1.0, "ema": 2 / 3}
FIDELITY_ATTACKS = [AttackModel("none"), AttackModel("imra"), AttackModel("isra", 0.0),
                    AttackModel("isra", 0.5), AttackModel("isra", 1.0), AttackModel("ema")]


def _attack_id(attack: AttackModel) -> str:
    return attack.kind if attack.y is None else f"{attack.kind}-{attack.y:g}"


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", FIDELITY_ATTACKS, ids=_attack_id)
def test_run_report_is_the_scalar_checker_on_its_published_results(attack, mode):
    # The masks and the scalar oracle state one rule table: on a run's own
    # directives and published results they give one report, tallies included.
    config = ProtocolConfig(n=60, d=0.5, p=0.5, checker_mode=mode)
    rand = np.random.default_rng(17)
    for _ in range(50):
        run = run_protocol(config, attack, rand)
        published_results = (results[run.selected] for results in (run.home, run.alice, run.bob))
        assert run.report == evaluate_checks(run.directives, *published_results, mode)


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", FIDELITY_ATTACKS, ids=_attack_id)
def test_violated_cell_is_q_by_three_routes(attack, mode):
    # The count sampler's violated cell, the closed form and the enumeration
    # oracle are three independent routes to the per-round detection
    # probability q; a surviving round's home qubit reads 0 with probability
    # exactly 2/3 under every attack.
    tables = protocol._round_tables(attack)
    for p, d in [(0.5, 0.5), (0.3, 0.7), (1.0, 1.0), (0.0, 0.25), (0.9, 0.05)]:
        cells = protocol._round_cells(tables, ProtocolConfig(n=10, d=d, p=p, checker_mode=mode))
        assert cells.size == 4 and (cells >= 0).all()
        assert abs(cells.sum() - 1.0) <= 1e-15
        for q in (closed_form_round_detection(attack, mode, p, d), round_detection_probability(attack, mode, p, d)):
            assert abs(cells[0] - q) <= 1e-15, (p, d, cells[0], q)
        if d < 1:
            assert abs(cells[2] / cells[2:].sum() - 2 / 3) <= 1e-15


@pytest.mark.parametrize("attack", FIDELITY_ATTACKS, ids=_attack_id)
def test_compile_applies_no_rule_and_keeps_its_violation_bits(attack, monkeypatch):
    # The checkers' leaf masks are built once, at import: a compile calls
    # _apply_rules zero times, and each violation pair is, bit for bit, the
    # leaves that _apply_rules flags on the broadcast leaf bits, summed.
    apply_rules, calls = protocol._apply_rules, []
    monkeypatch.setattr(protocol, "_apply_rules", lambda *args: calls.append(args) or apply_rules(*args))
    branches = attack.branches(make_w_state())
    tables = protocol._compile_tables(branches)
    assert calls == []
    eve = np.array([weight for weight, _ in branches])
    home, alice, bob = (np.array((t, 1.0 - t)) for t in (tables.tc, tables.ta, tables.tb))
    leaves = np.einsum("e,ce,aecx,becxa->xcab", eve, home, alice, bob)
    bit = np.array([False, True])
    for mode in CheckerMode:
        rules, _ = apply_rules(np.True_, bit[:, None, None, None], bit[:, None, None], bit[:, None], bit, mode)
        flagged = functools.reduce(operator.or_, (broken for _, broken in rules.values()))
        want = np.where(flagged, leaves, 0.0).sum(axis=(1, 2, 3))
        assert list(map(float.hex, tables.violation[mode].tolist())) == list(map(float.hex, want.tolist())), mode


def _home0_law(attack: AttackModel) -> tuple[float, tuple[float, ...]]:
    """P(home reads 0) and P(Eve's branch e | home reads 0) for each e,
    enumerated from the attack's branches without the round tables."""
    joint = [w * enumerate_qubit(root, "c", Basis.Z)[0].probability for w, root in attack.branches(make_w_state())]
    return sum(joint), tuple(share / sum(joint) for share in joint)


@pytest.mark.parametrize("attack", FIDELITY_ATTACKS, ids=_attack_id)
def test_pair_branch_threshold_is_enumerated(attack):
    # Every pair is a home-0 survivor, so its Eve branch is 0 with
    # probability P(Eve 0 | home 0): 1/2 under imra (P(Eve 0) itself is 2/3).
    tables = protocol._round_tables(attack)
    home0, shares = _home0_law(attack)
    assert abs(tables.home0 - home0) <= 1e-15
    if attack.kind == "imra":
        assert abs(tables.tp - shares[0]) <= 1e-15 and abs(shares[0] - 0.5) <= 1e-15
    else:
        assert tables.tp is None and shares == (1.0,)


@pytest.mark.parametrize("n", [1, 5])
def test_imra_first_pair_branch_follows_its_threshold(n):
    # imra's threshold is 1/2, so no real table tells the first-branch rule
    # from its mirror image; a threshold of 0.9 does.  Rounds are
    # exchangeable, so the first pair is of branch 0 with probability tp,
    # whatever else the trial drew.
    tables, trials = protocol._round_tables(AttackModel("imra")), 20_000
    cells = protocol._round_cells(tables, ProtocolConfig(n=n, d=0.0, p=0.5, checker_mode="strict"))
    _, _, pairs, first = protocol._draw_counts(tables._replace(tp=0.9), cells, n, np.random.default_rng(n), trials)
    assert first.size == np.count_nonzero(pairs) > trials // 2
    share = 1.0 - first.mean()  # first is the branch index: 0 or 1
    assert abs(share - 0.9) <= 4 * np.sqrt(0.9 * 0.1 / first.size), share


def _row_law(attack: AttackModel, mode: str, n: int, p: float, d: float) -> dict:
    """The exact law of a trial's row (aborted, survivors, pairs, first
    pair's Eve branch, or -1 without a pair) at ``n`` rounds: the multinomial
    pmf of its four round cells times the branch draw.  The cells come
    without the round tables: q from the enumeration oracle, P(home 0) and
    the pair's branch shares from the attack's branches."""
    q = round_detection_probability(attack, mode, p, d)
    home0, branches = _home0_law(attack)
    cells = (q, d - q, (1 - d) * home0, (1 - d) * (1 - home0))
    law = collections.defaultdict(float)
    for counts in itertools.product(range(n + 1), repeat=4):
        if sum(counts) == n:
            weight = math.factorial(n) * math.prod(c ** k / math.factorial(k) for c, k in zip(cells, counts))
            aborted, survivors = counts[0] > 0, counts[2] + counts[3]
            pairs = 0 if aborted else counts[2]
            for e, share in enumerate(branches if pairs else (1.0,)):
                law[aborted, survivors, pairs, e if pairs else -1] += weight * share
    return law


def _chi2_critical(df: int) -> float:
    """Wilson and Hilferty's cube-root approximation to the chi-squared
    quantile that df degrees of freedom exceed with probability 1e-6."""
    z = statistics.NormalDist().inv_cdf(1 - 1e-6)
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize("sampler", ["counts", "rounds"])
@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", [AttackModel("none"), AttackModel("imra"),
                                    AttackModel("isra", 0.6), AttackModel("ema")],
                         ids=lambda attack: attack.kind)
def test_trial_rows_follow_the_exact_law(attack, mode, sampler):
    # At n <= 4 a trial's four counts take at most 35 values, so the law of
    # its whole row is a finite table.  A sampler can keep every mean right
    # and still get this joint law wrong (a first branch that follows the
    # survivors, pairs miscounted on some trials), so seeded rows of both
    # samplers go through a Pearson chi-squared test against the table, the
    # cells expected below 5 pooled.  The bound is a p-value of 1e-6: the 16
    # cases x 4 points make 64 tests per suite run, so a sound sampler fails
    # one about once in 10^4 reseedings, while every broken sampler tried
    # against it scored in the hundreds or more.  The critical value is Wilson and
    # Hilferty's, as the test extras hold no chi-squared quantile; for
    # 1 <= df <= 40 it lies at most 15 % above the exact one, never below.
    tables, trials = protocol._round_tables(attack), 20_000
    for n, p, d in [(1, 0.5, 0.0), (2, 0.3, 0.25), (3, 1.0, 0.5), (4, 0.6, 0.2)]:
        law = _row_law(attack, mode, n, p, d)
        assert abs(sum(law.values()) - 1.0) <= 1e-12
        q = closed_form_round_detection(attack, mode, p, d)
        assert abs(sum(weight for row, weight in law.items() if row[0]) - (1 - (1 - q) ** n)) <= 1e-12
        config, rand = ProtocolConfig(n=n, d=d, p=p, checker_mode=mode), np.random.default_rng(n)
        if sampler == "counts":
            aborted, survivors, pairs, first = protocol._draw_counts(
                tables, protocol._round_cells(tables, config), n, rand, trials)
        else:
            aborted, survivors, pairs, first = _rows_of_rounds(attack, config, trials, rand)
        branch = np.full(trials, -1)
        branch[pairs > 0] = first
        rows = collections.Counter(zip(aborted.tolist(), survivors.tolist(), pairs.tolist(), branch.tolist()))
        assert all(law.get(row, 0.0) > 0 for row in rows), (n, p, d, set(rows) - set(law))
        ranked = sorted(law, key=law.get)  # the least likely first, so they pool together
        expected, observed = trials * np.array([law[row] for row in ranked]), np.array([rows[row] for row in ranked])
        pooled = int(np.count_nonzero(expected < 5))
        while 0 < pooled < expected.size and expected[:pooled].sum() < 5:
            pooled += 1
        if pooled:
            expected = np.r_[expected[:pooled].sum(), expected[pooled:]]
            observed = np.r_[observed[:pooled].sum(), observed[pooled:]]
        statistic, df = ((observed - expected) ** 2 / expected).sum(), expected.size - 1
        assert df >= 1 and statistic <= _chi2_critical(df), (n, p, d, statistic, df)


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", FIDELITY_ATTACKS, ids=_attack_id)
def test_sampled_yield_mean_is_exact(attack, mode):
    # Every attack touches only b, so a round's home qubit reads 0 with
    # probability exactly 2/3, enumerated here from the attack's branches.
    # A passing trial with s survivors then has s Bernoulli(2/3) pairs
    # whatever passed, since passing reads only the selected rounds: its
    # yield has mean 2/3 and variance (2/9)/s.  Averaging 1/s over every
    # trial with s >= 1 is exact on the honest channel and an upper bound
    # under attack, where passing favours trials with fewer selected rounds.
    assert abs(_home0_law(attack)[0] - 2 / 3) <= 1e-12
    n, d, trials = 20, 0.3, 20_000
    [stats] = run_trials([(ProtocolConfig(n=n, d=d, p=0.5, checker_mode=mode), attack, np.random.default_rng(7))],
                         trials)
    s = np.arange(1, n + 1)
    weight = np.array([math.comb(n, k) for k in s.tolist()]) * (1 - d) ** s * d ** (n - s)  # P(s), s ~ Bin(n, 1 - d)
    sigma = np.sqrt(2 / 9 * (weight / s).sum() / weight.sum() / (trials - stats.detections))
    assert abs(stats.yield_mean - 2 / 3) <= 4 * sigma, (stats.yield_mean, sigma)


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", FIDELITY_ATTACKS, ids=_attack_id)
def test_sampled_bob_fidelity_mean_is_exact(attack, mode):
    # At d = 0 and n = 1 no round is checked, a trial teleports exactly when
    # its one round is a pair, and yield_mean is the share of such trials.
    # Fidelities lie in [0, 1], so 1/(2 sqrt(N)) bounds the mean's spread.
    trials = 20_000
    [stats] = run_trials([(ProtocolConfig(n=1, d=0.0, p=0.5, checker_mode=mode), attack, np.random.default_rng(7))],
                         trials)
    teleported = round(stats.yield_mean * trials)
    assert stats.detections == 0 and teleported > trials // 2
    assert abs(stats.fidelity_mean - BOB_MEAN[attack.kind]) <= 4 / (2 * np.sqrt(teleported))


@pytest.mark.parametrize("attack", FIDELITY_ATTACKS[1:], ids=_attack_id)
def test_sampled_eve_recovery_mean_is_exact(attack):
    rand = np.random.default_rng(3)
    outcome = run_protocol(ProtocolConfig(n=30_000, d=0.0, p=0.5), attack, rand)
    _, recoveries = teleport_pairs(outcome, rand)
    assert len(recoveries) > 15_000
    assert abs(recoveries.mean() - EVE_MEAN[attack.kind]) <= 4 / (2 * np.sqrt(len(recoveries)))
    if attack.kind == "isra":  # a perfect copy, whatever y is
        assert_allclose(recoveries, 1.0, rtol=0, atol=1e-12)
