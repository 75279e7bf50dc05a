"""Acceptance gate: the headline guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are part of the contract and are asserted
exactly as stated; where a bound is statistical the test also prints the
measured value so a failure is diagnosable from the log alone.
"""

import subprocess
import sys
import time

import numpy as np

from wshare.analytic import closed_form_round_detection, round_detection_probability
from wshare.attacks import AttackModel, eve_recover_attempt
from wshare.protocol import ProtocolConfig, run_protocol, run_trials
from wshare.statevec import (
    Basis,
    discard_qubit,
    enumerate_bell,
    make_message_state,
    make_w_state,
    measure_qubit,
    tensor,
)
from wshare.teleport import (
    corrupted_channel,
    random_message,
    teleport,
    teleport_branches,
)

from helpers import child_env, z_marginal


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} — {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_bell_yield():
    n = 30_000
    start = time.perf_counter()
    outcome = run_protocol(ProtocolConfig(n=n, d=0.0, p=0.5), AttackModel("none"), np.random.default_rng(20_01))
    elapsed = time.perf_counter() - start
    fraction = len(outcome.pairs) / n
    sigma = np.sqrt((2.0 / 9.0) / n)
    ok = abs(fraction - 2.0 / 3.0) <= 4.0 * sigma and elapsed < 10.0
    _report(1, "honest distilled fraction within 4 sigma of 2/3",
            ok, f"fraction={fraction:.5f}, 4sigma={4 * sigma:.5f}, {elapsed:.1f}s")


def test_criterion_02_honest_soundness():
    detections = 0
    runs = 0
    for mode in ("paper", "strict"):
        config = ProtocolConfig(n=100, d=0.5, p=0.5, checker_mode=mode)
        for seed in range(1000):
            outcome = run_protocol(config, AttackModel("none"), np.random.default_rng((20_02, seed)))
            runs += 1
            detections += outcome.aborted
    _report(2, "honest runs never detected (exact)",
            detections == 0, f"{detections} detections in {runs} runs")


def test_criterion_03_faithful_teleportation():
    rng = np.random.default_rng(20_03)
    outcome = run_protocol(ProtocolConfig(n=60, d=0.3, p=0.5), AttackModel("none"), rng)
    pairs = list(outcome.pairs)
    assert pairs, "honest run yielded no pairs to teleport over"
    worst = 0.0
    checked = 0
    for i in range(100):
        message = random_message(rng)
        _, pair = pairs[i % len(pairs)]
        branches = teleport_branches(message, pair)
        assert len(branches) == 4
        for result in branches:
            worst = max(worst, abs(result.fidelity - 1.0))
            checked += 1
    _report(3, "all Bell branches teleport with fidelity 1 within 1e-12",
            worst <= 1e-12, f"{checked} branches, worst |f-1|={worst:.2e}")


def test_criterion_04_isra_analytic_match():
    grid = [(y, p, d) for y in (0.0, 0.5, 1.0) for (p, d) in ((0.5, 0.5), (1.0, 0.5), (1.0, 1.0))]
    trials = 10_000
    n = 10
    start = time.perf_counter()
    failures = []
    points = [(ProtocolConfig(n=n, d=d, p=p, checker_mode="paper"), AttackModel("isra", y),
               np.random.default_rng((20_04, index))) for index, (y, p, d) in enumerate(grid)]
    for stats, (y, p, d) in zip(run_trials(points, trials), grid, strict=True):
        success_rate = 1.0 - stats.detections / trials
        predicted = (1 - closed_form_round_detection(AttackModel("isra", y), "paper", p, d)) ** n
        stderr = np.sqrt(predicted * (1.0 - predicted) / trials)
        gap = abs(success_rate - predicted)
        if gap > 3.0 * stderr:
            failures.append(f"y={y} p={p} d={d}: |{success_rate:.4f}-{predicted:.4f}|>{3 * stderr:.4f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(4, "empirical success within 3 stderr of the closed form on 9 points",
            ok, f"{elapsed:.0f}s" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_05_isra_exact_oracle():
    values = (0.0, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    for y in values:
        for p in values:
            for d in values:
                enumerated = round_detection_probability(AttackModel("isra", y), "paper", p, d)
                closed_form = p * d * (1.0 + y * y) / 3.0
                worst = max(worst, abs(enumerated - closed_form))
    _report(5, "single-round enumeration equals pd(1+y^2)/3 on the 5x5x5 grid",
            worst <= 1e-9, f"worst gap={worst:.2e}")


def test_criterion_06_imra_statistics():
    rng = np.random.default_rng(20_06)
    w = make_w_state()
    expected = [np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)]
    expected[0][[0b100, 0b001]] = 1.0 / np.sqrt(2.0)
    expected[1][0b010] = 1.0
    counts = [0, 0]
    worst = 0.0
    samples = 100_000
    attack = AttackModel("imra")
    for _ in range(samples):
        post, bit = attack.intercept(w, rng)
        counts[bit] += 1
        worst = max(worst, float(np.max(np.abs(post.amplitudes - expected[bit]))))
    sigma = np.sqrt((2.0 / 9.0) / samples)
    freq_ok = abs(counts[0] / samples - 2.0 / 3.0) <= 4.0 * sigma
    states_ok = worst <= 1e-12

    recoveries = []
    while len(recoveries) < 4000:
        state, bit = attack.intercept(w, rng)
        home = measure_qubit(state, "c", Basis.Z, rng)
        if home.outcome != 0:
            continue  # the confirmation step discards these rounds
        pair = discard_qubit(home.post_state, "c")
        message = random_message(rng)
        result = teleport(message, pair, rng)
        recoveries.append(eve_recover_attempt(attack, bit, result, message))
    mean_recovery = float(np.mean(recoveries))
    recovery_ok = mean_recovery <= 2.0 / 3.0 + 0.02
    _report(6, "measure-resend outcome stats, branch states, and Eve's recovery bound",
            freq_ok and states_ok and recovery_ok,
            f"freq0={counts[0] / samples:.4f}, worst state gap={worst:.1e}, "
            f"mean recovery={mean_recovery:.4f}")


def test_criterion_07_ema_invisibility():
    attack = AttackModel("ema")
    tapped, _ = attack.intercept(make_w_state(), None)
    gap = float(np.max(np.abs(
        z_marginal(tapped, ("a", "b", "c")) - z_marginal(make_w_state(), ("a", "b", "c"))
    )))
    marginal_ok = gap <= 1e-12
    detections = 0
    config = ProtocolConfig(n=20, d=0.5, p=0.5, checker_mode="paper")
    for seed in range(1000):
        outcome = run_protocol(config, attack, np.random.default_rng((20_07, seed)))
        detections += outcome.aborted
    _report(7, "entangling tap leaves the Z statistics exactly W-like",
            marginal_ok and detections == 0,
            f"marginal gap={gap:.1e}, detections={detections}/1000")


def test_criterion_08_ema_decomposition():
    rng = np.random.default_rng(20_08)
    rsqrt2 = 1.0 / np.sqrt(2.0)
    bell_vectors = {
        "psi+": np.array([0, rsqrt2, rsqrt2, 0], dtype=complex),
        "psi-": np.array([0, rsqrt2, -rsqrt2, 0], dtype=complex),
        "phi+": np.array([rsqrt2, 0, 0, rsqrt2], dtype=complex),
        "phi-": np.array([rsqrt2, 0, 0, -rsqrt2], dtype=complex),
    }
    worst_weight = 0.0
    worst_rebuild = 0.0
    for _ in range(20):
        message = random_message(rng)
        a, b = (complex(x) for x in message.amplitudes)
        joint = tensor(make_message_state(a, b), corrupted_channel())
        rebuilt = np.zeros_like(joint.amplitudes)
        for outcome in enumerate_bell(joint, "m", "a"):
            worst_weight = max(worst_weight, abs(outcome.probability - 0.25))
            rebuilt = rebuilt + np.sqrt(outcome.probability) * np.kron(
                bell_vectors[outcome.name], outcome.residual.amplitudes
            )
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - joint.amplitudes))))
    ok = worst_weight <= 1e-12 and worst_rebuild <= 1e-12
    _report(8, "four equal-weight branches reassemble the tapped joint state",
            ok, f"weight gap={worst_weight:.1e}, rebuild gap={worst_rebuild:.1e}")


def test_criterion_09_quasi_security_limit():
    tail_ok = True
    positive_ok = True
    q = closed_form_round_detection(AttackModel("isra", 1.0), "paper", 1.0, 1.0)
    for n in range(1, 601):
        s = (1 - q) ** n
        if s <= 0.0:
            positive_ok = False
        if n >= 13 and s >= 1e-6:
            tail_ok = False
    s13 = (1 - q) ** 13
    _report(9, "worst-case escape probability: <1e-6 from n=13 on, never exactly 0",
            tail_ok and positive_ok, f"S(n=13)={s13:.2e}, tested n=1..600")


def test_criterion_10_strict_mode_dominance():
    attacks = {
        "none": AttackModel("none"),
        "imra": AttackModel("imra"),
        "isra": AttackModel("isra", y=0.5),
        "ema": AttackModel("ema"),
    }
    violations = []
    for kind, attack in attacks.items():
        for seed in range(1000):
            results = {}
            for mode in ("paper", "strict"):
                config = ProtocolConfig(n=20, d=0.5, p=0.5, checker_mode=mode)
                outcome = run_protocol(config, attack, np.random.default_rng((20_10, seed)))
                results[mode] = outcome.aborted
            if results["paper"] and not results["strict"]:
                violations.append((kind, seed))
    dominance_ok = not violations

    applied = 0
    caught = 0
    config = ProtocolConfig(n=20, d=1.0, p=0.0, checker_mode="strict")
    for seed in range(400):
        outcome = run_protocol(config, AttackModel("ema"), np.random.default_rng((20_10, 1, seed)))
        tally = outcome.report.tallies["x_rc0"]
        applied += tally.applied
        caught += tally.violations
    rate = caught / applied
    sigma = np.sqrt(0.25 / applied)
    rate_ok = abs(rate - 0.5) <= 4.0 * sigma
    _report(10, "strict checking dominates the analytic checker; X-round catch rate is 1/2",
            dominance_ok and rate_ok,
            f"{len(violations)} dominance violations, rate={rate:.4f} over {applied} rounds "
            f"(4sigma={4 * sigma:.4f})")


def test_criterion_11_sweep_determinism(tmp_path):
    args = [
        sys.executable, "-m", "wshare", "sweep",
        "--attack", "isra", "--isra-y", "0.5", "--n", "6",
        "--trials", "100", "--seed", "97",
    ]
    contents = {}
    for fmt in ("csv", "records"):
        paths = [tmp_path / f"{fmt}_{i}.out" for i in (1, 2)]
        for path in paths:
            proc = subprocess.run(args + ["--format", fmt, "--out", str(path)],
                                  capture_output=True, text=True, env=child_env())
            assert proc.returncode == 0, proc.stderr
        contents[fmt] = [p.read_bytes() for p in paths]
    ok = all(first == second for first, second in contents.values())
    _report(11, "repeated sweep invocations produce byte-identical files",
            ok, "csv and records formats")
