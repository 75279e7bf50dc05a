"""Experiment runner: single-run traces, Monte Carlo sweeps, curve data.

Verbs
-----
``run``
    One protocol execution with an optional attack; prints the ordered
    classical transcript plus teleportation and eavesdropper-recovery
    summaries.
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

A call's verb and flags, from argv and a ``--scenario`` file, are read
against the flag table :data:`_FLAGS` by :func:`_parse` and :func:`_resolve`.
Every random draw descends from ``--seed`` (:func:`cmd_run`,
:func:`cmd_sweep`, :func:`cmd_teleport_demo`), so identical invocations
produce byte-identical output.  Exit status: 0 success, 1 usage error or
unwritable output, 2 protocol aborted (run verb only).
"""

import argparse
import contextlib
import csv
import functools
import itertools
import json
import locale  # argparse's gettext loads it on a parser's first message; load it here, not in the call
import math
import os
import shutil
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytic import closed_form_round_detection
from .attacks import ATTACK_KINDS, AttackModel
from .protocol import CheckerMode, ProtocolConfig, _round_tables, run_protocol, run_trials, teleport_pairs
from .statevec import BELL_NAMES
from .teleport import build_correction_table, teleport_batch, teleport_draws


class UsageError(Exception):
    """Bad invocation (flags, scenario file, parameter ranges), or output
    that cannot be written."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that converts to a float (no boolean, no huge integer)."""
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _grid_of(entry: type) -> Callable[[str], tuple]:
    """A grid flag's converter: comma-separated ``entry`` values to a tuple."""
    def convert(text: str) -> tuple:
        return tuple(entry(tok) for tok in text.split(",") if tok.strip() != "")
    convert.__name__ = f"{entry.__name__} list"  # argparse names the converter in a refusal
    return convert


# A value's JSON type -> its flag converter, the type of a value (or of a grid's
# entries), the JSON test a scenario value must pass, and what a scenario
# refusal says the value must be.  A scenario grid is a JSON list.
_KINDS = {
    "integer": (int, int, _is_int, "an integer"),
    "number": (float, float, _is_number, "a number"),
    "string": (str, str, lambda value: isinstance(value, str), "a string"),
    "integers": (_grid_of(int), int, lambda value: isinstance(value, list) and all(map(_is_int, value)),
                 "a list of integers"),
    "numbers": (_grid_of(float), float, lambda value: isinstance(value, list) and all(map(_is_number, value)),
                "a list of numbers"),
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


# A worker process pays for its start only past this many trials (summed over
# the grid; a trial's cost does not depend on n): two workers on a two-point
# grid lost to one process at 2^15 trials in all and won at 2^16 (2 vCPUs).
_TRIALS_PER_WORKER = 1 << 15
# A sweep's work bound, checked before any point is built, so every sweep ends: a point
# costs 21-30 us and 1.2 KB to build, and a trial 0.44-0.66 us in one process (2 vCPUs).
_SWEEP_BUDGET = {"grid points": 1 << 16, "trials over the grid": 1 << 30}


_ALL = "run sweep curves teleport-demo"
_UNIT = (0.0, 1.0)
_COUNT = (1, math.inf)
_FLAGS = {
    "n": _Flag("integer", 100, _COUNT, "run sweep", "W-state sequence length"),
    "d": _Flag("number", 0.5, _UNIT, "run sweep curves", "per-position detection probability"),
    "p": _Flag("number", 0.5, _UNIT, "run sweep curves", "probability a directive basis is Z"),
    "mode": _Flag("string", "paper", tuple(m.value for m in CheckerMode), "run sweep curves", "checker semantics"),
    # curves plots store-resend unless told otherwise; teleport-demo has no
    # --isra-y, and imra's channel depends on Eve's bit, so it takes none/ema.
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
                     f"per 2^{_TRIALS_PER_WORKER.bit_length() - 1} trials; smaller grids run in-process)"),
    "y_values": _Flag("numbers", None, _UNIT, "sweep curves", "comma-separated fake-qubit amplitudes"),
    "p_values": _Flag("numbers", None, _UNIT, "sweep curves", "comma-separated Z-basis probabilities"),
    "d_values": _Flag("numbers", None, _UNIT, "sweep curves", "comma-separated detection probabilities"),
    # curves raises a float to the power n, so its n must convert to a float.
    "n_values": _Flag("integers", None, _COUNT, "sweep curves", "comma-separated sequence lengths",
                      {"curves": (None, (1, sys.float_info.max))}),
}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


_GRID_OPTIONS = {_option(name) for name, flag in _FLAGS.items() if flag.kind in ("integers", "numbers")}


def _join_grid_values(args: list[str]) -> list[str]:
    """``args`` with each grid flag joined to a following value that starts with ``-`` and a
    digit, as ``--flag=value``: argparse would read ``-0,0.5`` as an option, not a value."""
    joined = []
    for arg in args:
        if joined and joined[-1] in _GRID_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


class _Parser(argparse.ArgumentParser):
    """Exits 1, not 2, on a usage error and on help it cannot write."""

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


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv``'s verb and flags, from that verb's parser alone: it takes every flag, hiding from its
    help those the verb does not take, so a flag and a scenario key meet one refusal in :func:`_resolve`.
    An ``argv`` that starts with no verb gets only the top-level help or version, or a refusal."""
    verb = argv[0] if argv else None
    if verb in _VERBS:
        parser = _Parser(prog=f"wshare {verb}")
        parser.add_argument("--scenario", metavar="PATH", help="flat JSON file of these same flags")
        for name, flag in _FLAGS.items():
            use = flag.use(verb)
            choices = use[1] if use and flag.kind == "string" else None
            parser.add_argument(_option(name), type=_KINDS[flag.kind][0],
                                metavar="|".join(choices) if choices else None,
                                help=flag.help if use else argparse.SUPPRESS)
        return parser.parse_args(_join_grid_values(argv[1:]), argparse.Namespace(verb=verb))
    parser = _Parser(prog="wshare", description="Supervised entanglement-sharing protocol lab.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="verb", metavar="verb", required=True)
    for verb, (_, help) in _VERBS.items():
        subparsers.add_parser(verb, help=help, add_help=False)  # listed in the help, never parsed
    parser.parse_args(argv)
    raise UsageError("the verb comes first: wshare VERB [flags]")


def _unique_keys(pairs: list) -> dict:
    """One JSON object, refused if it names a key twice (``isra-y`` and ``isra_y`` are one key)."""
    if len({key.replace("-", "_") for key, _ in pairs}) < len(pairs):
        raise UsageError("scenario file names a key twice")
    return dict(pairs)


def _load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read scenario file: {exc}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError both are
        raise UsageError(f"scenario file is not valid JSON: {exc}")
    except RecursionError:
        raise UsageError("scenario file nests too deeply")
    if not isinstance(data, dict):
        raise UsageError("scenario file must hold a flat JSON object")
    return {str(key).replace("-", "_"): value for key, value in data.items()}


def _scenario_value(name: str, value):
    """One scenario-file value, typed exactly as its flag's JSON type says (:data:`_KINDS`)."""
    flag = _FLAGS[name]
    _, entry, valid, text = _KINDS[flag.kind]
    if value is None and flag.default is None:
        return None
    if valid(value):
        return tuple(map(entry, value)) if isinstance(value, list) else entry(value)
    shown = json.dumps(value)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    raise UsageError(f"scenario key {name!r} must be {text}, got {shown}")


def _checked(verb: str, key: str, value, domain):
    """``value``, refused unless it lies in ``domain`` (choices, or a closed range); a
    zero number is unsigned."""
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
    values = tuple(v + 0 for v in values)  # -0.0 + 0 is 0.0, so no row prints -0; any other value is kept
    return values if isinstance(value, tuple) else values[0]


# A sweep's scalar and its grid; curves takes both, the scalar as its base point.
_GRIDS = {"n": "n_values", "d": "d_values", "p": "p_values", "isra_y": "y_values"}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Merge table defaults < scenario file < explicit flags into one config.

    The one place where a flag or scenario key that the verb does not take
    is refused (and a y or y grid without the isra attack, and a sweep scalar
    given with its grid), and where every value it does take is
    range-checked, so later steps cannot fail on them.  It also settles
    what the verbs read: ``isra_y`` is None unless the attack is isra, and
    a sweep's scalar given without its grid is a one-point grid.  A sweep
    past :data:`_SWEEP_BUDGET` is refused before any point is built.  An empty
    ``--scenario`` path is refused as any unreadable one is.
    """
    given = {}
    if args.scenario is not None:
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
    both = [f"{_option(one)} and {_option(grid)}" for one, grid in _GRIDS.items()
            if args.verb == "sweep" and one in given and given.get(grid) is not None]
    if both:
        raise UsageError(f"sweep takes a value or its grid, not both: {'; '.join(both)}")
    cfg = argparse.Namespace(verb=args.verb)
    for name, flag in _FLAGS.items():
        use = flag.use(args.verb)
        if use is not None:
            setattr(cfg, name, _checked(args.verb, _option(name), given.get(name, use[0]), use[1]))
    if cfg.attack != "isra":
        for name in ("isra_y", "y_values"):
            if given.get(name) is not None:
                raise UsageError(f"{_option(name)} only applies to the isra attack")
        cfg.isra_y = None
    if args.verb == "sweep":
        for one, grid in _GRIDS.items():
            if getattr(cfg, grid) is None:
                setattr(cfg, grid, (getattr(cfg, one),))
        points = math.prod(len(getattr(cfg, grid)) for grid in _GRIDS.values())
        for (what, limit), amount in zip(_SWEEP_BUDGET.items(), (points, points * cfg.trials)):
            if amount > limit:
                raise UsageError(f"sweep takes at most {limit:,} {what}, got {amount:,}")
    return cfg


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if value is None:
        return ""
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


def _emit_rows(columns: list[str], rows: list[tuple], cfg: argparse.Namespace,
               header: bool = True, notes: list[str] | None = None) -> None:
    """Write rows, one value per column in column order (else ``ValueError``), to --out or stdout."""
    try:
        sink = contextlib.nullcontext(sys.stdout) if cfg.out is None else open(cfg.out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file {cfg.out!r}: {exc.strerror}")
    named = (zip(columns, row, strict=True) for row in rows)
    with _write_failures(to_stdout=cfg.out is None), sink as stream:
        if cfg.format == "records":
            for row in named:
                stream.write(json.dumps(dict(row), default=_cell) + "\n")
        else:
            table = [[_cell(value) for _, value in row] for row in named]
            if cfg.format == "csv":
                csv.writer(stream, lineterminator="\n").writerows([columns, *table])
            else:
                for note in notes or []:
                    stream.write(f"# {note}\n")
                if header:
                    table.insert(0, list(columns))
                widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
                for line in table:
                    rendered = "  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                    stream.write(rendered.rstrip() + "\n")
        stream.flush()


# ---------------------------------------------------------------------------
# run


RUN_COLUMNS = ["seq", "speaker", "event", "detail"]


def cmd_run(cfg: argparse.Namespace) -> int:
    """Emit one run's transcript, drawn from ``default_rng(seed)``, then teleport over its pairs on the
    same stream; exit 2 when the run aborted."""
    config = ProtocolConfig(n=cfg.n, d=cfg.d, p=cfg.p, checker_mode=cfg.mode)
    attack = AttackModel(cfg.attack, cfg.isra_y)
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
    rows = [(i, speaker, event, json.dumps(payload)) for i, (speaker, event, payload) in enumerate(events)]
    _emit_rows(RUN_COLUMNS, rows, cfg, header=cfg.format != "text")
    return 2 if outcome.aborted else 0


# ---------------------------------------------------------------------------
# sweep


SWEEP_COLUMNS = [
    "attack", "mode", "y", "p", "d", "n", "trials",
    "detections", "detection_rate", "success_rate", "success_stderr",
    "yield_mean", "teleport_fidelity_mean", "analytic_success",
]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(cfg: argparse.Namespace) -> int:
    """Emit one row per grid point, in grid order.

    Point ``grid_index`` draws from ``default_rng((seed, grid_index))`` as
    :func:`~wshare.protocol.run_trials` says, so no byte depends on
    ``--workers``.  The calling process builds every point and every row,
    and runs the points through one ``run_trials`` call, or maps it over one
    contiguous share per worker, at most one per :data:`_TRIALS_PER_WORKER`.
    """
    grid = itertools.product(cfg.y_values, cfg.p_values, cfg.d_values, cfg.n_values)
    points = [(ProtocolConfig(n=n, d=d, p=p, checker_mode=cfg.mode), AttackModel(cfg.attack, y),  # y: None unless isra
               np.random.default_rng((cfg.seed, grid_index))) for grid_index, (y, p, d, n) in enumerate(grid)]
    workers = min(cfg.workers, len(points), _usable_cpus(), cfg.trials * len(points) // _TRIALS_PER_WORKER)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only when a pool starts

        shares = [points[len(points) * k // workers:len(points) * (k + 1) // workers] for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = [one for share in pool.map(functools.partial(run_trials, trials=cfg.trials), shares)
                     for one in share]
    else:
        stats = run_trials(points, cfg.trials)
    rows = []
    for (config, attack, _), one in zip(points, stats, strict=True):
        detection_rate = one.detections / cfg.trials
        success_rate = 1.0 - detection_rate
        analytic = (1.0 - closed_form_round_detection(attack, cfg.mode, config.p, config.d)) ** config.n
        rows.append((cfg.attack, cfg.mode, attack.y, config.p, config.d, config.n, cfg.trials, one.detections,
                     detection_rate, success_rate, float(np.sqrt(success_rate * (1.0 - success_rate) / cfg.trials)),
                     one.yield_mean, one.fidelity_mean, analytic))
    _emit_rows(SWEEP_COLUMNS, rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# curves


CURVE_COLUMNS = ["panel", "y", "p", "d", "n", "success"]

_DEFAULT_CURVE_NS = tuple(range(1, 61))


def cmd_curves(cfg: argparse.Namespace) -> int:
    """Emit S(y, p, d, n) against n in three panels (vary y / vary d / vary p).

    A grid not given takes an illustrative default, and the output says so.
    S is (1 - q)^n, q the closed form for --attack under --mode; any other
    attack than isra has no y, so its vary-y panel holds one curve.
    """
    defaults_used = all(v is None for v in (cfg.y_values, cfg.d_values, cfg.p_values, cfg.n_values))
    y_values = (cfg.y_values or (0.0, 0.5, 1.0)) if cfg.isra_y is not None else (None,)
    d_values = cfg.d_values or (0.25, 0.5, 1.0)
    p_values = cfg.p_values or (0.25, 0.5, 1.0)
    n_values = cfg.n_values or _DEFAULT_CURVE_NS
    curves = ([("vary-y", y, cfg.p, cfg.d) for y in y_values]
              + [("vary-d", cfg.isra_y, cfg.p, d) for d in d_values]
              + [("vary-p", cfg.isra_y, p, cfg.d) for p in p_values])
    rows = []
    for panel, y, p, d in curves:
        q = closed_form_round_detection(AttackModel(cfg.attack, y), cfg.mode, p, d)
        rows += [(panel, y, p, d, n, (1.0 - q) ** n) for n in n_values]
    notes = ["illustrative default ranges; not a reproduction of any published figure"] if defaults_used else None
    _emit_rows(CURVE_COLUMNS, rows, cfg, notes=notes)
    return 0


# ---------------------------------------------------------------------------
# teleport demo


DEMO_COLUMNS = ["section", "outcome", "correction", "a", "b", "fidelity", "expected_fidelity"]


def cmd_teleport_demo(cfg: argparse.Namespace) -> int:
    """Show the correction table, then teleport ``default_rng(seed)``'s batch of random messages.

    The channel is the attack's pair node in the round tables: with
    ``--attack ema``, the corrupted three-qubit channel the entangling
    interceptor leaves behind (:data:`_FLAGS` says why no other attack).
    """
    table = build_correction_table()
    rows = [("correction", name, correction, None, None, None, None) for name, correction in table.items()]
    kernels = _round_tables(AttackModel(cfg.attack)).kernels
    messages, draws = teleport_draws(np.random.default_rng(cfg.seed), cfg.trials)
    batch = teleport_batch(messages, kernels, np.zeros(cfg.trials, dtype=np.intp), draws)
    for (a, b), k, fidelity in zip(messages.tolist(), batch.outcomes.tolist(), batch.fidelities.tolist()):
        expected = 1.0 if cfg.attack == "none" else abs(a) ** 4 + abs(b) ** 4
        rows.append(("trial", BELL_NAMES[k], table[BELL_NAMES[k]], a, b, fidelity, expected))
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
        cfg = _resolve(_parse(sys.argv[1:] if argv is None else argv))
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
