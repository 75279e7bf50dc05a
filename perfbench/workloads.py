"""The three benchmark workloads and their correctness gates.

Each workload is one ``wshare`` CLI invocation built from the benchmark
seed.  The gates compare the output against closed forms computed here;
nothing from ``wshare.analytic`` is imported, so a fast path in the
package cannot agree with itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

SIGMAS = 4.0

ISRA_Y = (0.0, 0.5, 1.0)
ISRA_N, ISRA_D, ISRA_P = 10, 0.5, 0.5
ISRA_TRIALS = 600

IMRA_N = (1, 2, 4)
IMRA_D = (0.5, 1.0)
IMRA_P = (0.0, 0.5)
IMRA_TRIALS = 400
IMRA_WORKERS = 2

RUN_N = 4000

# Haar-random message a|0> + b|1>: |a|^2 is uniform on [0, 1], so the
# ema-channel fidelity |a|^4 + |b|^4 has mean 2/3 and variance 1/45.
EMA_FIDELITY_MEAN = 2.0 / 3.0
EMA_FIDELITY_VAR = 1.0 / 45.0
# A W-state home qubit reads 0 with probability 2/3; those rounds are pairs.
PAIR_PROBABILITY = 2.0 / 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int, str, int], list[str]]  # (seed, out path, workers)
    workers: int
    operations: int  # grid points per call, or 1 for a run call
    trials: int  # protocol executions per call
    check: Callable[[str, int], list[str]]  # (output, exit status) -> failed ops


def _within(observed: float, mean: float, sigma: float) -> bool:
    return abs(observed - mean) <= SIGMAS * sigma


def _text_rows(text: str) -> list[dict[str, str]]:
    """Rows of the CLI's text table; columns start where their header does."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0]
    starts, pos = [], 0
    for name in header.split():
        pos = header.index(name, pos)
        starts.append((name, pos))
        pos += len(name)
    rows = []
    for line in lines[1:]:
        row = {}
        for i, (name, start) in enumerate(starts):
            stop = starts[i + 1][1] if i + 1 < len(starts) else None
            row[name] = line[start:stop].strip()
        rows.append(row)
    return rows


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _sweep_check(parse, points: dict, trials: int, expect_attack: str, expect_mode: str):
    """Gate every grid point of a sweep against its closed-form detection rate.

    ``points`` maps (y, p, d, n) to the sequence detection probability.
    """

    def check(text: str, status: int) -> list[str]:
        if status != 0:
            return [f"exit status {status}"] * len(points)
        try:
            rows = parse(text)
        except (ValueError, csv.Error) as exc:
            return [f"unparseable output: {exc}"] * len(points)
        seen: dict[tuple, dict] = {}
        for row in rows:
            try:
                key = (float(row["y"]) if row["y"] else None, float(row["p"]),
                       float(row["d"]), int(row["n"]))
            except (KeyError, TypeError, ValueError):
                return [f"malformed row {row}"] * len(points)
            if key not in points or key in seen:
                return [f"unexpected or repeated row {key}"] * len(points)
            seen[key] = row
        failed = []
        for key, q in points.items():
            row = seen.get(key)
            if row is None:
                failed.append(f"{key}: row missing")
                continue
            try:
                n_trials, detections = int(row["trials"]), int(row["detections"])
                analytic = float(row["analytic_success"])
            except (KeyError, TypeError, ValueError):
                failed.append(f"{key}: malformed row {row}")
                continue
            if (row.get("attack"), row.get("mode")) != (expect_attack, expect_mode):
                failed.append(f"{key}: attack/mode {row.get('attack')}/{row.get('mode')}")
            elif n_trials != trials or not 0 <= detections <= trials:
                failed.append(f"{key}: trials {n_trials}, detections {detections}")
            elif not _within(detections, trials * q, math.sqrt(trials * q * (1 - q))):
                failed.append(f"{key}: {detections}/{trials} detections, expected {trials * q:.1f}")
            elif abs(analytic - (1 - q)) > 1e-10:
                failed.append(f"{key}: analytic_success {analytic!r}, closed form {1 - q!r}")
        return failed

    return check


def _sequence_detection(round_detection: float, n: int) -> float:
    return 1.0 - (1.0 - round_detection) ** n


ISRA_POINTS = {
    (y, ISRA_P, ISRA_D, ISRA_N):
        _sequence_detection(ISRA_P * ISRA_D * (1 + y * y) / 3, ISRA_N)
    for y in ISRA_Y
}
IMRA_POINTS = {
    (None, p, d, n): _sequence_detection(d * (1 - p) / 3, n)
    for p in IMRA_P for d in IMRA_D for n in IMRA_N
}


def _run_check(text: str, status: int) -> list[str]:
    """The d = 0 ema run: passes, ~Binomial(N, 2/3) pairs, mean fidelity 2/3."""
    if status != 0:
        return [f"exit status {status}"]
    try:
        events = {}
        for line in text.splitlines():
            record = json.loads(line)
            events[record["event"]] = json.loads(record["detail"])
        verdict, count = events["verdict"], events["pair-count"]
        positions, fidelity = events["pair-positions"], events["teleport-fidelity-mean"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed transcript: {exc!r}"]
    if verdict != "pass":
        return [f"verdict {verdict!r}"]
    if not _within(count, RUN_N * PAIR_PROBABILITY,
                   math.sqrt(RUN_N * PAIR_PROBABILITY * (1 - PAIR_PROBABILITY))):
        return [f"{count} pairs from {RUN_N} rounds"]
    if len(positions) != count or positions != sorted(set(positions)) or not (
            1 <= positions[0] and positions[-1] <= RUN_N):
        return ["pair positions disagree with the pair count"]
    if not _within(fidelity, EMA_FIDELITY_MEAN, math.sqrt(EMA_FIDELITY_VAR / count)):
        return [f"teleport fidelity mean {fidelity!r} over {count} pairs"]
    return []


def _values(values) -> str:
    return ",".join(format(v, "g") for v in values)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-isra-paper",
            why="store-resend sweep of the paper's closed-form shape; per-round "
                "detection (measure_qubit, isra intercept) dominates, so a batched "
                "detection engine shows here first",
            argv=lambda seed, out, workers: [
                "sweep", "--attack", "isra", "--mode", "paper",
                "--y-values", _values(ISRA_Y), "--n", str(ISRA_N), "--d", str(ISRA_D),
                "--p", str(ISRA_P), "--format", "csv", "--trials", str(ISRA_TRIALS),
                "--workers", str(workers), "--seed", str(seed), "--out", out],
            workers=1,
            operations=len(ISRA_POINTS),
            trials=ISRA_TRIALS * len(ISRA_POINTS),
            check=_sweep_check(_csv_rows, ISRA_POINTS, ISRA_TRIALS, "isra", "paper"),
        ),
        Workload(
            name="run-ema-long",
            why="one long d=0 entangling-attack run: no detection phase at all, but "
                "teleport, Eve's recovery, the record_for scan and transcript output",
            argv=lambda seed, out, workers: [
                "run", "--n", str(RUN_N), "--d", "0", "--attack", "ema",
                "--format", "records", "--seed", str(seed), "--out", out],
            workers=1,
            operations=1,
            trials=1,
            check=_run_check,
        ),
        Workload(
            name="sweep-imra-strict-grid",
            why="12-point strict-mode measure-resend grid of 1-4 round trials over a "
                "2-process pool; per-trial and per-point costs weigh most here",
            argv=lambda seed, out, workers: [
                "sweep", "--attack", "imra", "--mode", "strict",
                "--n-values", _values(IMRA_N), "--d-values", _values(IMRA_D),
                "--p-values", _values(IMRA_P), "--trials", str(IMRA_TRIALS),
                "--workers", str(workers), "--seed", str(seed), "--out", out],
            workers=IMRA_WORKERS,
            operations=len(IMRA_POINTS),
            trials=IMRA_TRIALS * len(IMRA_POINTS),
            check=_sweep_check(_text_rows, IMRA_POINTS, IMRA_TRIALS, "imra", "strict"),
        ),
    )
}
