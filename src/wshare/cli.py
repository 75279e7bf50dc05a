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
    Closed-form sequence-success data S(y, p, d, n) for any attack and
    checker in three panels (vary y, d, p), each against the length n.
``teleport-demo``
    The derived correction table and a batch of random teleportations,
    over the honest channel or the entangler-corrupted one.

Each flag is one row of :data:`_FLAGS`, which names the verbs that take it
and its type, default and range for each; ``wshare VERB --help`` lists
exactly that verb's flags.  Every verb also reads its flags from a flat
JSON scenario file (``--scenario``; explicit flags win), refuses any flag
or scenario key it does not take, and emits text, CSV, or JSON-records
output.  Every random draw descends from ``--seed``: ``run`` draws from
``default_rng(seed)`` and each sweep grid point from
``default_rng((seed, grid_index))``, in fixed blocks of trials (see
:mod:`wshare.protocol` for the layout), so identical invocations produce
byte-identical output files whatever ``--workers`` is.  A sweep starts
worker processes only for grids big enough to pay for them (at most one
per :data:`_ROUNDS_PER_WORKER` trial-rounds); smaller grids run in the
calling process.  Exit status:
0 success, 1 usage error or unwritable output, 2 protocol aborted (run
verb only).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np

from . import __version__
from .analytic import closed_form_round_detection
from .attacks import ATTACK_KINDS, AttackModel
from .protocol import CheckerMode, ProtocolConfig, run_protocol, run_trials, teleport_pairs
from .statevec import BELL_NAMES
from .teleport import (_bell_kernel, build_correction_table, corrupted_channel, psi_plus_pair,
                       random_amplitudes, teleport_batch)


class UsageError(Exception):
    """Bad invocation (flags, scenario file, parameter ranges), or output
    that cannot be written."""


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


# A value's JSON type -> how its flag text converts, and what its scenario value must be.
_KINDS = {
    "integer": (int, "an integer"),
    "number": (float, "a number"),
    "string": (str, "a string"),
    "integers": (_int_list, "a list of integers or a comma-separated string of them"),
    "numbers": (_float_list, "a list of numbers or a comma-separated string of them"),
}


class _Flag(NamedTuple):
    """One row of the flag table; the flag's scenario key is its name."""

    kind: str  # the value's JSON type, a key of _KINDS
    default: object  # None leaves it unset, and lets a scenario file say null
    domain: tuple | None  # (lo, hi) of a number or of each grid entry, or a string's choices
    verbs: str  # the verbs that take the flag
    help: str
    per_verb: dict = {}  # verb -> its own (default, domain)

    def use(self, verb: str) -> tuple | None:
        """``(default, domain)`` under ``verb``, or None if ``verb`` does not take the flag."""
        if verb not in self.verbs.split():
            return None
        return self.per_verb.get(verb, (self.default, self.domain))


_ALL = "run sweep curves teleport-demo"
_UNIT = (0.0, 1.0)
_COUNT = (1, math.inf)
_FLAGS = {
    "n": _Flag("integer", 100, _COUNT, "run sweep", "W-state sequence length"),
    "d": _Flag("number", 0.5, _UNIT, "run sweep curves", "per-position detection probability"),
    "p": _Flag("number", 0.5, _UNIT, "run sweep curves", "probability a directive basis is Z"),
    "mode": _Flag("string", "paper", tuple(m.value for m in CheckerMode), "run sweep curves", "checker semantics"),
    # curves plots store-resend unless told otherwise; teleport-demo has a
    # channel only for the attacks that leave Alice a pair.
    "attack": _Flag("string", "none", ATTACK_KINDS, _ALL, "eavesdropping attack",
                    {"curves": ("isra", ATTACK_KINDS), "teleport-demo": ("none", ("none", "ema"))}),
    "isra_y": _Flag("number", 0.5, _UNIT, "run sweep curves", "fake-qubit |1> amplitude"),
    # Below 100 trials a sweep's rates mean little.
    "trials": _Flag("integer", 20, _COUNT, "sweep teleport-demo", "trials per grid point, or teleportations",
                    {"sweep": (1000, (100, math.inf))}),
    "seed": _Flag("integer", 0, (0, math.inf), "run sweep teleport-demo",
                  "master seed; everything derives from it"),
    "format": _Flag("string", "text", ("text", "csv", "records"), _ALL, "output format"),
    "out": _Flag("string", None, None, _ALL, "write output here instead of stdout"),
    "workers": _Flag("integer", 1, _COUNT, "sweep",
                     "parallel processes over grid points (at most one per point, per usable CPU and "
                     "per 2^20 trial-rounds; smaller grids run in-process)"),
    "y_values": _Flag("numbers", None, _UNIT, "sweep curves", "comma-separated fake-qubit amplitudes"),
    "p_values": _Flag("numbers", None, _UNIT, "sweep curves", "comma-separated Z-basis probabilities"),
    "d_values": _Flag("numbers", None, _UNIT, "sweep curves", "comma-separated detection probabilities"),
    "n_values": _Flag("integers", None, _COUNT, "sweep curves", "comma-separated sequence lengths"),
}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Exits 1, not 2, on a usage error.

    A verb's parser adds the table's flags when it first parses, so a call
    builds one verb's flags only.  It accepts every flag, hiding from its
    help those the verb does not take, so that a flag and a scenario key
    meet the same refusal in :func:`_resolve`.
    """

    verb: str | None = None

    def __init__(self, **kwargs):
        # One terminal-width lookup per parser, not one per flag added.
        width = shutil.get_terminal_size().columns - 2
        super().__init__(**kwargs, formatter_class=functools.partial(argparse.HelpFormatter, width=width))

    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        """Write help or version text, failing as a row write does (argparse
        would swallow the error and exit 0)."""
        if message:
            file = file or sys.stderr
            with _write_failures(to_stdout=file is sys.stdout):
                file.write(message)
                file.flush()

    def parse_known_args(self, args=None, namespace=None):
        if self.verb is not None:
            self.add_argument("--scenario", metavar="PATH", help="flat JSON file of these same flags")
            for name, flag in _FLAGS.items():
                use = flag.use(self.verb)
                choices = use[1] if use and flag.kind == "string" else None
                self.add_argument(_option(name), type=_KINDS[flag.kind][0],
                                  metavar="|".join(choices) if choices else None,
                                  help=flag.help if use else argparse.SUPPRESS)
            self.verb = None
        return super().parse_known_args(args, namespace)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wshare", description="Supervised entanglement-sharing protocol lab.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="verb", metavar="verb", required=True)
    for verb, (_, help) in _VERBS.items():
        subparsers.add_parser(verb, help=help).verb = verb
    return parser


def _load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise UsageError(f"scenario file is not valid JSON: {exc}")
    except RecursionError:
        raise UsageError("scenario file nests too deeply")
    if not isinstance(data, dict):
        raise UsageError("scenario file must hold a flat JSON object")
    return {str(key).replace("-", "_"): value for key, value in data.items()}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that converts to a float (no boolean, no huge integer)."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _scenario_value(name: str, value):
    """One scenario-file value, typed exactly as its flag's JSON type says.

    An integer is never a boolean or a float, a number never a boolean,
    and a grid is a list or the flag's comma-separated string.  ``null``
    is taken only where the default is unset.
    """
    flag = _FLAGS[name]
    if value is None and flag.default is None:
        return None
    if flag.kind == "integer" and _is_int(value):
        return value
    if flag.kind == "number" and _is_number(value):
        return float(value)
    if flag.kind == "string" and isinstance(value, str):
        return value
    if flag.kind in ("integers", "numbers"):
        ints = flag.kind == "integers"
        if isinstance(value, str):
            try:
                return _KINDS[flag.kind][0](value)
            except ValueError:
                pass
        elif isinstance(value, list) and all(_is_int(v) if ints else _is_number(v) for v in value):
            return tuple(value) if ints else tuple(float(v) for v in value)
    shown = json.dumps(value)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    raise UsageError(f"scenario key {name!r} must be {_KINDS[flag.kind][1]}, got {shown}")


def _checked(verb: str, key: str, value, domain):
    """``value``, refused unless it lies in ``domain`` (choices, or a closed range)."""
    if value is None or domain is None:
        return value
    if isinstance(value, str):
        if value not in domain:
            raise UsageError(f"{verb} takes {key} {' or '.join(domain)}, got {value!r}")
        return value
    values = value if isinstance(value, tuple) else (value,)
    if not values:
        raise UsageError(f"{key} is empty")
    if not all(domain[0] <= v <= domain[1] for v in values):
        raise UsageError(f"{verb} needs {key} in [{domain[0]:g}, {domain[1]:g}], got {value}")
    return value


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Merge table defaults < scenario file < explicit flags into one config.

    The one place where a flag or scenario key that the verb does not take
    is refused (and a y grid without the isra attack), and where every
    value it does take is range-checked, so later steps cannot fail on them.
    """
    given = {}
    if args.scenario:
        data = _load_scenario(args.scenario)
        unknown = sorted(set(data) - set(_FLAGS))
        if unknown:
            raise UsageError(f"unknown scenario keys: {', '.join(unknown)}")
        given = {name: _scenario_value(name, value) for name, value in data.items()}
    given.update((name, value) for name, value in vars(args).items()
                 if name in _FLAGS and value is not None)
    refused = [_option(name) for name in given if _FLAGS[name].use(args.verb) is None]
    if refused:
        raise UsageError(f"{args.verb} does not take {', '.join(refused)}")
    cfg = argparse.Namespace(verb=args.verb)
    for name, flag in _FLAGS.items():
        use = flag.use(args.verb)
        if use is not None:
            setattr(cfg, name, _checked(args.verb, _option(name), given.get(name, use[0]), use[1]))
    if getattr(cfg, "y_values", None) is not None and cfg.attack != "isra":
        raise UsageError("--y-values only applies to the isra attack")
    return cfg


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


def _stdout_to_devnull() -> None:
    """Send what stdout still buffers to nowhere, so the interpreter's last
    flush does not fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


@contextlib.contextmanager
def _write_failures(to_stdout: bool):
    """Turn a failed write into a UsageError; a closed pipe stays a
    BrokenPipeError for :func:`main`."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        if to_stdout:
            _stdout_to_devnull()
        raise UsageError(f"cannot write output: {exc.strerror or exc}")


def _emit_rows(columns: list[str], rows: list[dict], cfg: argparse.Namespace,
               header: bool = True, notes: list[str] | None = None) -> None:
    """Write rows in the selected format, to --out or stdout; each row holds every column."""
    try:
        sink = open(cfg.out, "w", newline="") if cfg.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write output file {cfg.out!r}: {exc.strerror}")
    with _write_failures(to_stdout=not cfg.out), sink as stream:
        if cfg.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_cell(row[c]) for c in columns])
        elif cfg.format == "records":
            for row in rows:
                stream.write(json.dumps({c: row[c] for c in columns}, default=_cell) + "\n")
        else:
            for note in notes or []:
                stream.write(f"# {note}\n")
            table = [[_cell(row[c]) for c in columns] for row in rows]
            if header:
                table.insert(0, list(columns))
            widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
            for line in table:
                rendered = "  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                stream.write(rendered.rstrip() + "\n")
        stream.flush()


# ---------------------------------------------------------------------------
# run


def cmd_run(cfg: argparse.Namespace) -> int:
    config = ProtocolConfig(n=cfg.n, d=cfg.d, p=cfg.p, checker_mode=cfg.mode)
    attack = AttackModel(cfg.attack, cfg.isra_y if cfg.attack == "isra" else None)
    rand = np.random.default_rng(cfg.seed)
    outcome = run_protocol(config, attack, rand)
    events = [*outcome.transcript, ("runner", "attack", cfg.attack), ("runner", "checker-mode", cfg.mode)]
    if not outcome.aborted:
        events.append(("runner", "pair-positions", outcome.pairs.positions))
        if outcome.yield_fraction is not None:
            events.append(("runner", "yield", round(outcome.yield_fraction, 12)))
        if len(outcome.pairs):
            batch, recoveries = teleport_pairs(outcome, rand)
            fidelity = sum(batch.fidelities.tolist()) / len(outcome.pairs)
            events.append(("runner", "teleport-fidelity-mean", round(fidelity, 12)))
            if recoveries is not None:
                events.append(("runner", "eve-recovery-mean", round(float(recoveries.mean()), 12)))
    rows = [{"seq": i, "speaker": speaker, "event": event, "detail": json.dumps(payload, default=_cell)}
            for i, (speaker, event, payload) in enumerate(events)]
    _emit_rows(["seq", "speaker", "event", "detail"], rows, cfg, header=cfg.format != "text")
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
    config = ProtocolConfig(n=n, d=d, p=p, checker_mode=mode_name)
    attack = AttackModel(kind, y)  # y is None unless kind is isra
    stats = run_trials(config, attack, trials, np.random.default_rng((seed, grid_index)))
    detection_rate = stats.detections / trials
    success_rate = 1.0 - detection_rate
    analytic = (1.0 - closed_form_round_detection(kind, config.checker_mode, p, d, y)) ** n
    return dict(zip(SWEEP_COLUMNS, (
        kind, mode_name, y, p, d, n, trials, stats.detections, detection_rate, success_rate,
        float(np.sqrt(success_rate * (1.0 - success_rate) / trials)),
        stats.yield_mean, stats.fidelity_mean, analytic), strict=True))


# A worker process pays for its start only past this many trial-rounds
# (trials x n, summed over the grid): two workers on a two-point isra/strict
# grid break even with one process at about 2^21 trial-rounds in all.
_ROUNDS_PER_WORKER = 1 << 20


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(cfg: argparse.Namespace) -> int:
    """Emit one row per grid point, in grid-then-trial order."""
    y_values: tuple[float | None, ...]
    y_values = (cfg.y_values or (cfg.isra_y,)) if cfg.attack == "isra" else (None,)
    p_values = cfg.p_values or (cfg.p,)
    d_values = cfg.d_values or (cfg.d,)
    n_values = cfg.n_values or (cfg.n,)
    grid = list(itertools.product(y_values, p_values, d_values, n_values))
    points = [(cfg.attack, cfg.mode, y, p, d, n, cfg.trials, cfg.seed, grid_index)
              for grid_index, (y, p, d, n) in enumerate(grid)]
    trial_rounds = cfg.trials * sum(n for *_, n in grid)
    workers = min(cfg.workers, len(points), _usable_cpus(), trial_rounds // _ROUNDS_PER_WORKER)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(point) for point in points]
    _emit_rows(SWEEP_COLUMNS, rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# curves


CURVE_COLUMNS = ["panel", "y", "p", "d", "n", "success"]

_DEFAULT_CURVE_NS = tuple(range(1, 61))


def cmd_curves(cfg: argparse.Namespace) -> int:
    """Emit S(y, p, d, n) against n in three panels (vary y / vary d / vary p).

    The built-in value sets are illustrative defaults, not a reproduction of
    any particular figure; pass --y-values/--d-values/--p-values/--n-values
    to choose your own.  S is (1 - q)^n, q the closed form for --attack
    (default isra) under --mode; any other attack has no y, so its vary-y
    panel holds one curve.
    """
    defaults_used = all(v is None for v in (cfg.y_values, cfg.d_values, cfg.p_values, cfg.n_values))
    fixed_y = cfg.isra_y if cfg.attack == "isra" else None
    y_values = (cfg.y_values or (0.0, 0.5, 1.0)) if fixed_y is not None else (None,)
    d_values = cfg.d_values or (0.25, 0.5, 1.0)
    p_values = cfg.p_values or (0.25, 0.5, 1.0)
    n_values = cfg.n_values or _DEFAULT_CURVE_NS
    curves = ([("vary-y", y, cfg.p, cfg.d) for y in y_values]
              + [("vary-d", fixed_y, cfg.p, d) for d in d_values]
              + [("vary-p", fixed_y, p, cfg.d) for p in p_values])
    rows = [{"panel": panel, "y": y, "p": p, "d": d, "n": n,
             "success": (1.0 - closed_form_round_detection(cfg.attack, cfg.mode, p, d, y)) ** n}
            for panel, y, p, d in curves for n in n_values]
    notes = ["illustrative default ranges; not a reproduction of any published figure"] if defaults_used else None
    _emit_rows(CURVE_COLUMNS, rows, cfg, notes=notes)
    return 0


# ---------------------------------------------------------------------------
# teleport demo


DEMO_COLUMNS = ["section", "outcome", "correction", "a", "b", "fidelity", "expected_fidelity"]


def cmd_teleport_demo(cfg: argparse.Namespace) -> int:
    """Show the correction table, then teleport a batch of random messages.

    ``--attack ema`` swaps in the corrupted three-qubit channel the
    entangling interceptor leaves behind; other attacks never hand Alice a
    distilled pair to begin with, so they have no demo channel here.
    """
    table = build_correction_table()
    rows = [dict(zip(DEMO_COLUMNS, ("correction", name, correction, None, None, None, None), strict=True))
            for name, correction in table.items()]
    rand = np.random.default_rng(cfg.seed)
    kernel = _bell_kernel(corrupted_channel() if cfg.attack == "ema" else psi_plus_pair())
    messages, draws = np.empty((cfg.trials, 2), dtype=complex), np.empty(cfg.trials)
    for t in range(cfg.trials):  # each trial's message normals, then its uniform
        messages[t] = random_amplitudes(rand, 1)[0]
        draws[t] = rand.random()
    batch = teleport_batch(messages, (kernel,), np.zeros(cfg.trials, dtype=np.intp), draws)
    for (a, b), k, fidelity in zip(messages.tolist(), batch.outcomes.tolist(), batch.fidelities.tolist()):
        expected = 1.0 if cfg.attack == "none" else abs(a) ** 4 + abs(b) ** 4
        rows.append(dict(zip(DEMO_COLUMNS, ("trial", BELL_NAMES[k], table[BELL_NAMES[k]], a, b,
                                            fidelity, expected), strict=True)))
    _emit_rows(DEMO_COLUMNS, rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# entry point


_VERBS = {
    "run": (cmd_run, "execute one protocol run"),
    "sweep": (cmd_sweep, "Monte Carlo trials over a parameter grid"),
    "curves": (cmd_curves, "analytic success curves against sequence length"),
    "teleport-demo": (cmd_teleport_demo, "correction table and random teleportations"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _resolve(_build_parser().parse_args(argv))
        return _VERBS[cfg.verb][0](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; try a smaller --n, --trials or grid", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader went away
        _stdout_to_devnull()
        return 1


if __name__ == "__main__":
    sys.exit(main())
