"""Experiment runner: single-run traces, Monte Carlo sweeps, curve data.

Verbs
-----
``run``
    One protocol execution with an optional attack; prints the ordered
    classical transcript plus teleportation and eavesdropper-recovery
    summaries.  Exit status 0 when the run passed checking, 2 when it
    aborted.
``sweep``
    Monte Carlo trials over a parameter grid; one result row per grid
    point with empirical detection/success rates, distillation yield,
    teleport fidelity, and the exact predicted success probability.
``curves``
    Analytic sequence-success data S(y, p, d, n) in three panels (vary y,
    vary d, vary p), each against the sequence length n.
``teleport-demo``
    The derived correction table and a batch of random teleportations,
    over the honest channel or the entangler-corrupted one.

All verbs share one flag set (``--n --d --p --mode --attack --isra-y
--trials --seed --format --out``), can read the same flags from a flat
JSON scenario file (``--scenario``; explicit flags win), and emit text,
CSV, or JSON-records output.  Every random draw descends from ``--seed``
— per-trial streams are seeded ``(seed, grid_index, trial_index)`` — so
identical invocations produce byte-identical output files.  Exit status:
0 success, 1 usage error, 2 protocol aborted (run verb only).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .analytic import isra_success_sequence, sequence_success_probability
from .attacks import ATTACK_KINDS, AttackModel, eve_recover_attempt
from .protocol import CheckerMode, ProtocolConfig, RunOutcome, run_protocol
from .teleport import (
    build_correction_table,
    corrupted_channel,
    psi_plus_pair,
    random_message,
    teleport,
)

_VERB_TRIALS = {"run": 1, "sweep": 1000, "curves": 1, "teleport-demo": 20}


class UsageError(Exception):
    """Bad invocation: flags, scenario file, or parameter ranges."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit(1)
        raise UsageError(message)


@dataclass
class ScenarioConfig:
    """One resolved invocation: verb, protocol parameters, attack, output."""

    verb: str
    n: int = 100
    d: float = 0.5
    p: float = 0.5
    mode: str = CheckerMode.PAPER.value
    attack: str = "none"
    isra_y: float = 0.5
    trials: int = 1
    seed: int = 0
    format: str = "text"
    out: str | None = None
    y_values: tuple[float, ...] | None = None
    p_values: tuple[float, ...] | None = None
    d_values: tuple[float, ...] | None = None
    n_values: tuple[int, ...] | None = None
    workers: int = 1


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wshare", description="Supervised entanglement-sharing protocol lab.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="verb", metavar="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", metavar="PATH", help="flat JSON file of these same flags")
    common.add_argument("--n", type=int, help="W-state sequence length")
    common.add_argument("--d", type=float, help="per-position detection probability")
    common.add_argument("--p", type=float, help="probability a directive basis is Z")
    common.add_argument("--mode", choices=[m.value for m in CheckerMode], help="checker semantics")
    common.add_argument("--attack", choices=ATTACK_KINDS)
    common.add_argument("--isra-y", type=float, dest="isra_y", help="fake-qubit |1> amplitude")
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int, help="master seed; everything derives from it")
    common.add_argument("--format", choices=("text", "csv", "records"))
    common.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    grids = argparse.ArgumentParser(add_help=False)
    grids.add_argument("--y-values", type=_float_list, dest="y_values", metavar="LIST",
                       help="comma-separated fake-qubit amplitudes")
    grids.add_argument("--p-values", type=_float_list, dest="p_values", metavar="LIST")
    grids.add_argument("--d-values", type=_float_list, dest="d_values", metavar="LIST")
    grids.add_argument("--n-values", type=_int_list, dest="n_values", metavar="LIST")

    subparsers.add_parser("run", parents=[common], help="execute one protocol run")
    sweep = subparsers.add_parser("sweep", parents=[common, grids],
                                  help="Monte Carlo trials over a parameter grid")
    sweep.add_argument("--workers", type=int,
                       help="parallel processes over grid points (at most one per point and per CPU)")
    subparsers.add_parser("curves", parents=[common, grids],
                          help="analytic success curves against sequence length")
    subparsers.add_parser("teleport-demo", parents=[common],
                          help="correction table and random teleportations")
    return parser


def _load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"scenario file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("scenario file must hold a flat JSON object")
    return {str(key).replace("-", "_"): value for key, value in data.items()}


_INT_KEYS = ("n", "trials", "seed", "workers")
_FLOAT_KEYS = ("d", "p", "isra_y")
_OPTIONAL_KEYS = ("out", "y_values", "p_values", "d_values", "n_values")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that converts to a float (no boolean, no huge integer)."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _scenario_value(name: str, value):
    """One scenario-file value, converted to the config's type.

    The JSON type must be exactly right: an integer (not a boolean or a
    float) for counts and seeds, a number for probabilities and amplitudes,
    a string for names and paths, and a list or the flag's comma-separated
    string for grids.  ``null`` is taken only where the default is unset.
    """
    if value is None and name in _OPTIONAL_KEYS:
        return None
    if name in _INT_KEYS:
        if _is_int(value):
            return value
        expected = "an integer"
    elif name in _FLOAT_KEYS:
        if _is_number(value):
            return float(value)
        expected = "a number"
    elif name.endswith("_values"):
        ints = name == "n_values"
        if isinstance(value, str):
            try:
                return _int_list(value) if ints else _float_list(value)
            except ValueError:
                pass
        elif isinstance(value, list) and all(_is_int(v) if ints else _is_number(v) for v in value):
            return tuple(value) if ints else tuple(float(v) for v in value)
        kind = "integers" if ints else "numbers"
        expected = f"a list of {kind} or a comma-separated string of them"
    else:
        if isinstance(value, str):
            return value
        expected = "a string"
    shown = json.dumps(value)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    raise UsageError(f"scenario key {name!r} must be {expected}, got {shown}")


def _build_scenario(args: argparse.Namespace) -> ScenarioConfig:
    """Merge defaults < scenario file < explicit flags into one config."""
    cfg = ScenarioConfig(verb=args.verb, trials=_VERB_TRIALS[args.verb])
    known = {f.name for f in fields(ScenarioConfig)} - {"verb"}
    file_values = _load_scenario(args.scenario) if getattr(args, "scenario", None) else {}
    unknown = set(file_values) - known
    if unknown:
        raise UsageError(f"unknown scenario keys: {', '.join(sorted(unknown))}")
    for name, value in file_values.items():
        setattr(cfg, name, _scenario_value(name, value))
    for name in known:
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(cfg, name, flag)
    _validate_scenario(cfg)
    return cfg


def _validate_scenario(cfg: ScenarioConfig) -> None:
    """Range-check every value once, for every verb, so later steps cannot fail."""
    if cfg.mode not in [m.value for m in CheckerMode]:
        raise UsageError(f"mode must be paper or strict, got {cfg.mode!r}")
    if cfg.attack not in ATTACK_KINDS:
        raise UsageError(f"unknown attack {cfg.attack!r}")
    if cfg.format not in ("text", "csv", "records"):
        raise UsageError(f"unknown format {cfg.format!r}")
    if cfg.trials < 1:
        raise UsageError("trials must be at least 1")
    if cfg.workers < 1:
        raise UsageError("workers must be at least 1")
    if cfg.seed < 0:
        raise UsageError("seed must be non-negative")
    if cfg.n < 1:
        raise UsageError(f"n must be a positive integer, got {cfg.n}")
    for name, value in (("d", cfg.d), ("p", cfg.p), ("isra-y", cfg.isra_y)):
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"{name} must be in [0, 1], got {value}")
    for name, values, lo, hi in (
        ("y-values", cfg.y_values, 0.0, 1.0),
        ("p-values", cfg.p_values, 0.0, 1.0),
        ("d-values", cfg.d_values, 0.0, 1.0),
        ("n-values", cfg.n_values, 1, math.inf),
    ):
        if values is not None and not values:
            raise UsageError(f"{name} is empty")
        if values is not None and any(not lo <= v <= hi for v in values):
            raise UsageError(f"{name} must lie in [{lo:g}, {hi:g}]")


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, complex):
        return f"{format(value.real, '.12g')}{'+' if value.imag >= 0 else '-'}{format(abs(value.imag), '.12g')}j"
    return str(value)


def _json_value(value):
    if isinstance(value, complex):
        return _cell(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _open_out(cfg: ScenarioConfig):
    if not cfg.out:
        return None
    try:
        return open(cfg.out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file {cfg.out!r}: {exc.strerror}")


def _emit_rows(columns: list[str], rows: list[dict], cfg: ScenarioConfig,
               header: bool = True, notes: list[str] | None = None) -> None:
    """Write rows in the selected format, to --out or stdout."""
    sink = _open_out(cfg)
    stream = sink or sys.stdout
    try:
        if cfg.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in columns])
        elif cfg.format == "records":
            for row in rows:
                record = {c: _json_value(row.get(c)) for c in columns}
                stream.write(json.dumps(record) + "\n")
        else:
            for note in notes or []:
                stream.write(f"# {note}\n")
            table = [[_cell(row.get(c)) for c in columns] for row in rows]
            if header:
                table.insert(0, list(columns))
            widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
            for line in table:
                rendered = "  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                stream.write(rendered.rstrip() + "\n")
    finally:
        if sink:
            sink.close()


# ---------------------------------------------------------------------------
# run


def _enrich_with_teleportation(
    outcome: RunOutcome, attack: AttackModel, rand: np.random.Generator
) -> RunOutcome:
    """Teleport one fresh random message over every distilled pair.

    When an attack was active, Eve also gets her recovery attempt per pair;
    the outcome records her mean fidelity.
    """
    if outcome.aborted or len(outcome.pairs) == 0:
        return outcome
    fidelities: list[float] = []
    recoveries: list[float] = []
    for position, pair in outcome.pairs:
        message = random_message(rand)
        result = teleport(message, pair, rand)
        fidelities.append(result.fidelity)
        if attack.kind != "none":
            bit = outcome.eve_bits[position - 1]
            recoveries.append(eve_recover_attempt(attack, bit, result, message))
    return replace(
        outcome,
        teleport_fidelities=tuple(fidelities),
        eve_recovery=(sum(recoveries) / len(recoveries)) if recoveries else None,
    )


def cmd_run(cfg: ScenarioConfig) -> int:
    config = ProtocolConfig(n=cfg.n, d=cfg.d, p=cfg.p, checker_mode=cfg.mode)
    attack = AttackModel(cfg.attack, cfg.isra_y if cfg.attack == "isra" else None)
    rand = np.random.default_rng(cfg.seed)
    outcome = run_protocol(config, attack, rand)
    outcome = _enrich_with_teleportation(outcome, attack, rand)

    rows = [
        {"seq": i, "speaker": speaker, "event": kind, "detail": json.dumps(_json_value(payload))}
        for i, (speaker, kind, payload) in enumerate(outcome.transcript)
    ]
    seq = len(rows)

    def summary(event, payload):
        nonlocal seq
        rows.append({"seq": seq, "speaker": "runner", "event": event,
                     "detail": json.dumps(_json_value(payload))})
        seq += 1

    summary("attack", cfg.attack)
    summary("checker-mode", cfg.mode)
    if not outcome.aborted:
        summary("pair-positions", outcome.pairs.positions)
        if outcome.yield_fraction is not None:
            summary("yield", round(outcome.yield_fraction, 12))
        if outcome.teleport_fidelities:
            mean_fid = sum(outcome.teleport_fidelities) / len(outcome.teleport_fidelities)
            summary("teleport-fidelity-mean", round(mean_fid, 12))
        if outcome.eve_recovery is not None:
            summary("eve-recovery-mean", round(outcome.eve_recovery, 12))
    _emit_rows(["seq", "speaker", "event", "detail"], rows, cfg,
               header=cfg.format != "text")
    return 2 if outcome.aborted else 0


# ---------------------------------------------------------------------------
# sweep


SWEEP_COLUMNS = [
    "attack", "mode", "y", "p", "d", "n", "trials",
    "detections", "detection_rate", "success_rate", "success_stderr",
    "yield_mean", "teleport_fidelity_mean", "analytic_success",
]


def _sweep_point(args: tuple) -> dict:
    """Run all trials of one grid point; deterministic given its arguments."""
    kind, mode_name, y, p, d, n, trials, seed, grid_index = args
    detections = 0
    yields: list[float] = []
    fidelities: list[float] = []
    config = ProtocolConfig(n=n, d=d, p=p, checker_mode=mode_name)
    attack = AttackModel(kind, y)  # y is None unless kind is isra
    for trial_index in range(trials):
        rand = np.random.default_rng((seed, grid_index, trial_index))
        outcome = run_protocol(config, attack, rand)
        if outcome.aborted:
            detections += 1
            continue
        if outcome.yield_fraction is not None:
            yields.append(outcome.yield_fraction)
        if len(outcome.pairs) > 0:
            position, pair = next(iter(outcome.pairs))
            message = random_message(rand)
            fidelities.append(teleport(message, pair, rand).fidelity)
    detection_rate = detections / trials
    success_rate = 1.0 - detection_rate
    if kind == "isra" and config.checker_mode is CheckerMode.PAPER:
        analytic = isra_success_sequence(y, p, d, n)
    else:
        analytic = sequence_success_probability(kind, config.checker_mode, p=p, d=d, n=n, y=y)
    return {
        "attack": kind,
        "mode": mode_name,
        "y": y,
        "p": p,
        "d": d,
        "n": n,
        "trials": trials,
        "detections": detections,
        "detection_rate": detection_rate,
        "success_rate": success_rate,
        "success_stderr": float(np.sqrt(success_rate * (1.0 - success_rate) / trials)),
        "yield_mean": (sum(yields) / len(yields)) if yields else None,
        "teleport_fidelity_mean": (sum(fidelities) / len(fidelities)) if fidelities else None,
        "analytic_success": analytic,
    }


def sweep_grid(cfg: ScenarioConfig) -> list[dict]:
    """Deterministic sweep rows for the configured grid (grid-then-trial order)."""
    if cfg.trials < 100:
        raise UsageError("sweep needs --trials of at least 100 for meaningful rates")
    if cfg.y_values is not None and cfg.attack != "isra":
        raise UsageError("--y-values only applies to the isra attack")
    y_values: tuple[float | None, ...]
    y_values = (cfg.y_values or (cfg.isra_y,)) if cfg.attack == "isra" else (None,)
    p_values = cfg.p_values or (cfg.p,)
    d_values = cfg.d_values or (cfg.d,)
    n_values = cfg.n_values or (cfg.n,)
    points = []
    grid_index = 0
    for y in y_values:
        for p in p_values:
            for d in d_values:
                for n in n_values:
                    points.append(
                        (cfg.attack, cfg.mode, y, p, d, n, cfg.trials, cfg.seed, grid_index)
                    )
                    grid_index += 1
    workers = min(cfg.workers, len(points), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, points))
    return [_sweep_point(point) for point in points]


def cmd_sweep(cfg: ScenarioConfig) -> int:
    rows = sweep_grid(cfg)
    _emit_rows(SWEEP_COLUMNS, rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# curves


CURVE_COLUMNS = ["panel", "y", "p", "d", "n", "success"]

_DEFAULT_CURVE_NS = tuple(range(1, 61))


def cmd_curves(cfg: ScenarioConfig) -> int:
    """Emit S(y, p, d, n) against n in three panels (vary y / vary d / vary p).

    The built-in value sets are illustrative defaults, not a reproduction of
    any particular figure; pass --y-values/--d-values/--p-values/--n-values
    to choose your own.  The curves are the store-resend closed form under
    the paper checker, so --mode strict and --attack imra/ema are refused.
    """
    if cfg.mode != CheckerMode.PAPER.value or cfg.attack not in ("none", "isra"):
        raise UsageError("curves plots the store-resend closed form under the paper checker: "
                         "it takes --mode paper and --attack none or isra only")
    defaults_used = all(v is None for v in (cfg.y_values, cfg.d_values, cfg.p_values, cfg.n_values))
    y_values = cfg.y_values if cfg.y_values is not None else (0.0, 0.5, 1.0)
    d_values = cfg.d_values if cfg.d_values is not None else (0.25, 0.5, 1.0)
    p_values = cfg.p_values if cfg.p_values is not None else (0.25, 0.5, 1.0)
    n_values = cfg.n_values if cfg.n_values is not None else _DEFAULT_CURVE_NS
    rows = []
    for y in y_values:
        for n in n_values:
            rows.append({"panel": "vary-y", "y": y, "p": cfg.p, "d": cfg.d, "n": n,
                         "success": isra_success_sequence(y, cfg.p, cfg.d, n)})
    for d in d_values:
        for n in n_values:
            rows.append({"panel": "vary-d", "y": cfg.isra_y, "p": cfg.p, "d": d, "n": n,
                         "success": isra_success_sequence(cfg.isra_y, cfg.p, d, n)})
    for p in p_values:
        for n in n_values:
            rows.append({"panel": "vary-p", "y": cfg.isra_y, "p": p, "d": cfg.d, "n": n,
                         "success": isra_success_sequence(cfg.isra_y, p, cfg.d, n)})
    notes = ["illustrative default ranges; not a reproduction of any published figure"] if defaults_used else None
    _emit_rows(CURVE_COLUMNS, rows, cfg, notes=notes)
    return 0


# ---------------------------------------------------------------------------
# teleport demo


DEMO_COLUMNS = ["section", "outcome", "correction", "a", "b", "fidelity", "expected_fidelity"]


def cmd_teleport_demo(cfg: ScenarioConfig) -> int:
    """Show the correction table, then teleport a batch of random messages.

    ``--attack ema`` swaps in the corrupted three-qubit channel the
    entangling interceptor leaves behind; other attacks never hand Alice a
    distilled pair to begin with, so they have no demo channel here.
    """
    if cfg.attack not in ("none", "ema"):
        raise UsageError("teleport-demo supports --attack none or ema only")
    rows = [
        {"section": "correction", "outcome": name, "correction": correction}
        for name, correction in build_correction_table().items()
    ]
    rand = np.random.default_rng(cfg.seed)
    channel = corrupted_channel() if cfg.attack == "ema" else psi_plus_pair()
    for _ in range(cfg.trials):
        message = random_message(rand)
        a, b = (complex(x) for x in message.amplitudes)
        result = teleport(message, channel, rand)
        expected = 1.0 if cfg.attack == "none" else abs(a) ** 4 + abs(b) ** 4
        rows.append({
            "section": "trial",
            "outcome": result.outcome_name,
            "correction": result.correction,
            "a": a,
            "b": b,
            "fidelity": result.fidelity,
            "expected_fidelity": expected,
        })
    _emit_rows(DEMO_COLUMNS, rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _build_scenario(args)
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "curves": cmd_curves,
            "teleport-demo": cmd_teleport_demo,
        }[cfg.verb]
        return handler(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
