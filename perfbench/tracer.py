"""Outside-in span tracer for one wshare CLI call.

The tracer never edits the package.  It replaces the module attributes
through which one layer calls the next (``wshare.cli.run_protocol``,
``wshare.protocol.measure_qubit``, ``AttackModel.intercept`` ...) with
timing wrappers.  Each call records one span: its name, its parent span,
and start and end times in nanoseconds.  Spans stay in memory and are
written out once, after the call returns; :func:`analyse` turns a span
file into the per-layer metrics.

A name that no longer exists is skipped, so a later refactor shows up as
``.calls = 0`` rather than as a crash.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

# (module in sys.modules, attribute path in it, span name).  The span name
# is "<callee layer>.<function>"; several call sites may share one name.
WRAP_TARGETS = (
    ("wshare.cli", "run_protocol", "protocol.run_protocol"),
    ("wshare.cli", "teleport", "teleport.teleport"),
    ("wshare.cli", "random_message", "teleport.random_message"),
    ("wshare.cli", "eve_recover_attempt", "attacks.eve_recover_attempt"),
    ("wshare.cli", "isra_success_sequence", "analytic.isra_success_sequence"),
    ("wshare.cli", "sequence_success_probability", "analytic.sequence_success_probability"),
    ("wshare.cli", "np.random.default_rng", "cli.default_rng"),
    ("wshare.cli", "default_rng", "cli.default_rng"),
    ("wshare.protocol", "select_detection_positions", "protocol.select_detection_positions"),
    ("wshare.protocol", "evaluate_checks", "protocol.evaluate_checks"),
    ("wshare.protocol", "extract_pairs", "protocol.extract_pairs"),
    ("wshare.protocol", "measure_qubit", "statevec.measure_qubit"),
    ("wshare.protocol", "discard_qubit", "statevec.discard_qubit"),
    ("wshare.attacks", "AttackModel.intercept", "attacks.intercept"),
    ("wshare.attacks", "AttackModel.record_for", "attacks.record_for"),
    ("wshare.attacks", "measure_qubit", "statevec.measure_qubit"),
    ("wshare.attacks", "tensor", "statevec.tensor"),
    ("wshare.attacks", "relabel", "statevec.relabel"),
    ("wshare.attacks", "apply_cnot", "statevec.apply_cnot"),
    ("wshare.attacks", "make_basis_state", "statevec.make_basis_state"),
    ("wshare.attacks", "reduced_fidelity", "statevec.reduced_fidelity"),
    ("wshare.attacks", "apply_correction", "teleport.apply_correction"),
    ("wshare.teleport", "tensor", "statevec.tensor"),
    ("wshare.teleport", "bell_measure", "statevec.bell_measure"),
    ("wshare.teleport", "enumerate_bell", "statevec.enumerate_bell"),
    ("wshare.teleport", "reduced_fidelity", "statevec.reduced_fidelity"),
    ("wshare.teleport", "apply_correction", "teleport.apply_correction"),
    ("wshare.statevec", "enumerate_bell", "statevec.enumerate_bell"),
)

LAYERS = ("protocol", "statevec", "attacks", "teleport", "analytic")

# Per-layer metrics: name -> unit.  Every traced run reports all of them;
# a function that was never called reports 0 calls and 0 us.
CALL_METRICS = {
    "cli.default_rng": ("calls", "us", "self_share"),
    "protocol.run_protocol": ("calls", "us", "self_share"),
    "protocol.evaluate_checks": ("us",),
    "protocol.extract_pairs": ("us",),
    "statevec.measure_qubit": ("calls", "us", "self_share"),
    "statevec.tensor": ("calls", "us"),
    "statevec.apply_cnot": ("calls", "us"),
    "statevec.bell_measure": ("calls", "us"),
    "statevec.enumerate_bell": ("calls", "us", "self_share"),
    "statevec.reduced_fidelity": ("us",),
    "attacks.intercept": ("calls", "us", "self_share"),
    "attacks.record_for": ("calls", "us", "self_share"),
    "attacks.eve_recover_attempt": ("calls", "us"),
    "teleport.teleport": ("calls", "us", "self_share"),
    "teleport.apply_correction": ("us",),
    "teleport.random_message": ("us",),
    "analytic.sequence_success_probability": ("calls", "us"),
    "analytic.isra_success_sequence": ("calls", "us"),
}
_SUFFIX_UNITS = {"calls": "count", "us": "us", "self_share": "ratio"}
PHASES = ("distribute", "detect", "check", "confirm")

PER_LAYER_UNITS = {
    "cli.self_share": "ratio",
    "cli.pool.efficiency": "ratio",
    "cli.output_bytes": "count",
    **{f"protocol.phase.{phase}_us": "us" for phase in PHASES},
    "protocol.abort_ratio": "ratio",
    "protocol.pair_yield": "ratio",
    "statevec.bell_branches_per_sample": "count",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"{name}.{suffix}": _SUFFIX_UNITS[suffix]
       for name, suffixes in CALL_METRICS.items() for suffix in suffixes},
    "trace.overhead": "ratio",
}


class Recorder:
    """Spans in four parallel lists; ``stack`` holds the open span ids."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack = [-1]
        self.counters = {"trials": 0, "aborted": 0, "pairs": 0, "surviving": 0}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def dump(self, path: str, wall_ns: int) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "span_name": self.span_name, "parent": self.parent,
                       "start": self.start, "end": self.end, "counters": self.counters,
                       "wall_ns": wall_ns}, fh)


def _observe_run(rec: Recorder, outcome) -> None:
    """Count aborted trials and distilled pairs at the run_protocol boundary."""
    try:
        aborted, pairs, surviving = outcome.aborted, len(outcome.pairs), outcome.surviving_count
    except (AttributeError, TypeError):
        return
    rec.counters["trials"] += 1
    rec.counters["aborted"] += int(aborted)
    if not aborted:
        rec.counters["pairs"] += pairs
        rec.counters["surviving"] += surviving


def _wrap(fn, rec: Recorder, name: str):
    name_id = rec.name_id(name)
    observe = _observe_run if name == "protocol.run_protocol" else None
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = len(rec.start)
        rec.span_name.append(name_id)
        rec.parent.append(rec.stack[-1])
        rec.end.append(0)
        rec.stack.append(span)
        rec.start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end[span] = clock()
            rec.stack.pop()
        if observe is not None:
            observe(rec, result)
        return result

    wrapper.__perfbench_span__ = name
    return wrapper


class _Proxy:
    """Stands in for a foreign module (numpy) on one caller's namespace only.

    Attributes set on the proxy shadow the module's; the rest pass through.
    """

    def __init__(self, target) -> None:
        object.__setattr__(self, "_target", target)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def _install(owner, path: list[str], rec: Recorder, name: str) -> bool:
    target = getattr(owner, path[0], None)
    if target is None:
        return False
    if len(path) == 1:
        if not callable(target) or hasattr(target, "__perfbench_span__"):
            return False
        setattr(owner, path[0], _wrap(target, rec, name))
        return True
    if isinstance(target, types.ModuleType) and not target.__name__.startswith("wshare"):
        proxy = _Proxy(target)
        if not _install(proxy, path[1:], rec, name):
            return False
        setattr(owner, path[0], proxy)
        return True
    return _install(target, path[1:], rec, name)


def install(rec: Recorder) -> None:
    """Wrap every target that exists in the imported package."""
    for module_name, attr_path, name in WRAP_TARGETS:
        module = sys.modules.get(module_name)
        if module is not None:
            _install(module, attr_path.split("."), rec, name)


def analyse(path: str) -> dict:
    """Per-layer metrics (without the untraced ratios) from one span file."""
    with open(path) as fh:
        data = json.load(fh)
    names, wall = data["names"], data["wall_ns"]
    count = len(data["start"])
    start, end, parent, span_name = data["start"], data["end"], data["parent"], data["span_name"]
    dur = [end[i] - start[i] for i in range(count)]
    child_ns = [0] * count
    for i in range(count):
        if dur[i] < 0 or (parent[i] >= 0 and not start[parent[i]] <= start[i] <= end[i] <= end[parent[i]]):
            raise ValueError(f"span {i} ({names[span_name[i]]}) does not nest in its parent")
        if parent[i] >= 0:
            child_ns[parent[i]] += dur[i]

    calls = {name: 0 for name in names}
    incl = {name: 0 for name in names}
    self_ns = {name: 0 for name in names}
    for i in range(count):
        name = names[span_name[i]]
        calls[name] += 1
        incl[name] += dur[i]
        self_ns[name] += dur[i] - child_ns[i]
    root_ns = sum(dur[i] for i in range(count) if parent[i] < 0)

    metrics: dict[str, float] = {}
    for name, suffixes in CALL_METRICS.items():
        n = calls.get(name, 0)
        values = {"calls": n, "us": incl.get(name, 0) / n / 1e3 if n else 0.0,
                  "self_share": self_ns.get(name, 0) / wall}
        for suffix in suffixes:
            metrics[f"{name}.{suffix}"] = values[suffix]
    metrics["cli.self_share"] = (wall - root_ns) / wall
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = sum(
            ns for name, ns in self_ns.items() if name.split(".")[0] == layer) / wall
    accounted = metrics["cli.self_share"] + metrics["cli.default_rng.self_share"] + sum(
        metrics[f"{layer}.self_share"] for layer in LAYERS)
    if abs(accounted - 1.0) > 1e-9:
        raise ValueError(f"layer self shares sum to {accounted!r}, not 1")

    bell = calls.get("statevec.bell_measure", 0)
    metrics["statevec.bell_branches_per_sample"] = (
        4 * calls.get("statevec.enumerate_bell", 0) / bell if bell else 0.0)
    counters = data["counters"]
    metrics["protocol.abort_ratio"] = (
        counters["aborted"] / counters["trials"] if counters["trials"] else 0.0)
    metrics["protocol.pair_yield"] = (
        counters["pairs"] / counters["surviving"] if counters["surviving"] else 0.0)
    metrics.update(_phases(names, span_name, parent, start, end))
    return metrics


def _phases(names, span_name, parent, start, end) -> dict[str, float]:
    """Mean us per run_protocol call in each phase, cut at two marker calls.

    distribute: run start -> select_detection_positions start;
    detect: -> evaluate_checks start; check: evaluate_checks itself;
    confirm: evaluate_checks end -> run end.
    """
    ids = {name: i for i, name in enumerate(names)}
    run_id = ids.get("protocol.run_protocol")
    select_id = ids.get("protocol.select_detection_positions")
    check_id = ids.get("protocol.evaluate_checks")
    marks: dict[int, dict[str, int]] = {}
    for i, sid in enumerate(span_name):
        p = parent[i]
        if p < 0 or span_name[p] != run_id:
            continue
        if sid == select_id:
            marks.setdefault(p, {}).setdefault("select", start[i])
        elif sid == check_id:
            marks.setdefault(p, {}).setdefault("check", i)
    totals = dict.fromkeys(PHASES, 0)
    runs = 0
    for run, mark in marks.items():
        if "select" not in mark or "check" not in mark:
            continue
        chk = mark["check"]
        totals["distribute"] += mark["select"] - start[run]
        totals["detect"] += start[chk] - mark["select"]
        totals["check"] += end[chk] - start[chk]
        totals["confirm"] += end[run] - end[chk]
        runs += 1
    return {f"protocol.phase.{phase}_us": totals[phase] / runs / 1e3 if runs else 0.0
            for phase in PHASES}
