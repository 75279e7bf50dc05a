"""Protocol state machine: detection sampling, checking rules, distillation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
    return run_protocol(ProtocolConfig(n=n, d=d, p=p), None, np.random.default_rng(seed)).directives


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


def test_check_report_invariant():
    with pytest.raises(ValueError):
        CheckReport("pass", (3,), {})


# ---------------------------------------------------------------------------
# distillation helpers


def test_distill_positions_examples():
    # With d = 0 every round survives, so the distill positions (indices
    # among the survivors) are the pair positions themselves.
    for seed in range(5):
        outcome = run_protocol(ProtocolConfig(n=6, d=0.0, p=0.5), None, np.random.default_rng(seed))
        kept = published(outcome)[("charlie", "distill-positions")]
        assert kept == outcome.pairs.positions
        assert all(state.labels == ("a", "b") for state in outcome.pairs.states)
    nothing = run_protocol(ProtocolConfig(n=3, d=1.0, p=0.5), None, np.random.default_rng(0))
    assert published(nothing)[("charlie", "distill-positions")] == ()


# ---------------------------------------------------------------------------
# full runs


def test_honest_run_passes_both_modes():
    for seed in range(40):
        transcripts = []
        for mode in ("paper", "strict"):
            config = ProtocolConfig(n=50, d=0.5, p=0.5, checker_mode=mode)
            outcome = run_protocol(config, None, np.random.default_rng(seed))
            assert outcome.report.verdict == "pass"
            assert not outcome.aborted
            transcripts.append(outcome.transcript)
        # the two modes consume randomness identically, so honest transcripts
        # coincide event for event
        assert transcripts[0] == transcripts[1]


def test_honest_yield_near_two_thirds():
    config = ProtocolConfig(n=3000, d=0.0, p=0.5)
    outcome = run_protocol(config, None, np.random.default_rng(12))
    frac = outcome.yield_fraction
    sigma = np.sqrt((2 / 9) / 3000)
    assert abs(frac - 2 / 3) < 4 * sigma


def test_honest_pairs_are_bell_pairs():
    outcome = run_protocol(ProtocolConfig(n=200, d=0.3, p=0.5), None, np.random.default_rng(5))
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
    outcome = run_protocol(ProtocolConfig(n=30, d=0.5, p=0.5), None, np.random.default_rng(2))
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
    outcome = run_protocol(ProtocolConfig(n=10, d=0.5, p=0.5), None, np.random.default_rng(1))
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
    outcome = run_protocol(ProtocolConfig(n=1, d=0.0, p=0.5), None, np.random.default_rng(0))
    assert outcome.report.verdict == "pass"
    assert outcome.directives == ()
    # the single round went to confirmation: its home outcome decides the pair
    events = published(outcome)
    assert outcome.transcript[-3] == ("charlie", "mode", "confirmation")
    assert events[("charlie", "distill-positions")] in ((), (1,))
    assert outcome.pairs.positions == events[("charlie", "distill-positions")]


def test_fully_sacrificed_run_yields_nothing():
    outcome = run_protocol(ProtocolConfig(n=4, d=1.0, p=0.5), None, np.random.default_rng(6))
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
    honest = run_trials(config, AttackModel("none"), 50, np.random.default_rng(3))
    assert run_trials(config, None, 50, np.random.default_rng(3)) == honest
    assert honest.detections == 0
    for trials in (0, -3, True, 2.0, "5", None):
        with pytest.raises(ValueError):
            run_trials(config, None, trials, np.random.default_rng(3))
    assert run_trials(config, None, np.int64(50), np.random.default_rng(3)) == honest


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", [AttackModel("none"), AttackModel("imra"),
                                    AttackModel("isra", 0.6), AttackModel("ema")],
                         ids=lambda attack: attack.kind)
def test_one_trial_views_agree(attack, mode):
    # One Monte Carlo trial and one run with its teleport phase read the same
    # draws, so they agree exactly: on the abort, the yield, and (with one
    # pair, the trial's first) on the teleport and the stream after it.
    config = ProtocolConfig(n=3, d=0.4, p=0.5, checker_mode=mode)
    single = 0
    for seed in range(40):
        rand, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        stats = run_trials(config, attack, 1, rand)
        outcome = run_protocol(config, attack, twin)
        assert stats.detections == int(outcome.aborted), seed
        counted = not outcome.aborted and outcome.surviving_count > 0
        assert stats.yield_mean == (outcome.yield_fraction if counted else None), seed
        if len(outcome.pairs) == 1:
            single += 1
            batch, _ = teleport_pairs(outcome, twin)
            assert stats.fidelity_mean == batch.fidelities[0], seed
            assert rand.random() == twin.random(), seed
    assert single >= 5
