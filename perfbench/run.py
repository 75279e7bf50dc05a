"""wshare benchmark: end-to-end metrics per workload, or a per-layer trace.

Run from the root of a checkout (numpy must be importable):

    python3 perfbench/run.py --workload sweep-isra-paper --seed 1 --seconds 35 --trace 0

Every measured call is one ``wshare.cli.main(argv)`` in a fresh
interpreter (``child.py``), repeated until ``--seconds`` have passed; the
end-to-end metrics are medians over those calls.  ``--trace 1`` instead
alternates calls under the span tracer (``tracer.py``) with untraced calls
of the same shape, and reports the per-layer metrics.  Every output is
checked by the gates in ``workloads.py`` and must be byte-identical to the
workload's other outputs.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every gate passed, 1 when one failed, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # kept out of tuning; re-check a claimed gain on it
DEFAULT_SECONDS = 35
MIN_CALLS = 3
DEADLINE_S = 170.0  # a run must end within 180 s, hung calls included

END_TO_END_UNITS = {"trials_per_ref": "1/ref", "run_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# setup_s is the package's own set-up (import wshare and the lazy builds),
# reported in seconds on a host where the reference kernel takes this long
# (its median on the baseline host), so that the host's speed swings cancel
# out of it as they do out of the ref-unit metrics.
REFERENCE_NOMINAL_S = 0.13
# Children may cache bytecode, as an installed package does, whatever the
# caller's environment says; the warm-up call writes the cache.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Call:
    label: str
    workers: int
    status: int | None = None  # the CLI's exit status; None if the child died
    process_setup_s: float = 0.0  # spawn to ready, less the first reference kernel
    package_setup_s: float = 0.0  # import wshare and the lazy builds
    wall_s: float = 0.0
    reference_s: float = 0.0  # the reference kernel, mean of before and after
    peak_rss_mb: float = 0.0
    output: str = ""
    versions: dict | None = None
    error: str = ""
    layers: dict | None = None  # per-layer metrics of a traced call


class Runner:
    """Spawns the child calls of one workload inside a private work dir."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float) -> None:
        self.workload, self.seed, self.workdir, self.deadline = workload, seed, workdir, deadline
        self.calls: list[Call] = []

    def call(self, workers: int, traced: bool = False) -> Call:
        out = self.workdir / "output.txt"
        result = self.workdir / "result.json"
        spans = self.workdir / "spans.json"
        for path in (out, result, spans):
            path.unlink(missing_ok=True)
        argv = self.workload.argv(self.seed, str(out), workers)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(SRC), str(result),
               str(spans) if traced else "-", "--", *argv]
        call = Call(label="traced" if traced else "untraced", workers=workers)
        self.calls.append(call)
        spawned = _clock()
        # A session of its own, so that a kill also reaches its pool workers.
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True, start_new_session=True, env=CHILD_ENV)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            call.error = f"still running {DEADLINE_S:g} s into the run; killed"
            return call
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0 or not result.exists():
            call.error = f"child exited {proc.returncode}: {stderr.strip()[-500:]}"
            return call
        data = json.loads(result.read_text())
        call.status = data["status"]
        call.process_setup_s = data["ready"] - spawned - data["reference_s"][0]
        call.package_setup_s = data["ready"] - data["package_start"]
        call.wall_s = data["done"] - data["ready"]
        call.reference_s = statistics.fmean(data["reference_s"])
        call.peak_rss_mb = data["peak_rss_kb"] / 1024.0
        call.versions = {k: data[k] for k in ("python", "numpy", "wshare")}
        call.output = out.read_text() if out.exists() else ""
        if traced:
            call.layers = tracer.analyse(str(spans))
        return call

    def repeat(self, shapes: list[tuple[int, bool]], seconds: float, started: float,
               min_rounds: int) -> None:
        """Cycle through (workers, traced) call shapes until the next round
        would overrun ``seconds``."""
        durations: list[float] = []
        while _clock() < self.deadline:
            elapsed = _clock() - started
            if len(durations) >= min_rounds and elapsed + statistics.median(durations) > seconds:
                return
            begun = _clock()
            for workers, traced in shapes:
                self.call(workers, traced)
            durations.append(_clock() - begun)

    def gate(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over every call of this workload."""
        ops = self.workload.operations
        first = next((c.output for c in self.calls if c.status is not None), None)
        verdicts: dict[str, list[str]] = {}
        failed, messages = 0, []
        for i, call in enumerate(self.calls, 1):
            if call.status is None:
                problems = [call.error] * ops
            elif call.output != first:
                problems = ["output differs from the workload's first output"] * ops
            else:
                if call.output not in verdicts:
                    verdicts[call.output] = self.workload.check(call.output, call.status)
                problems = verdicts[call.output]
            failed += len(problems)
            messages += [f"call {i} ({call.label}, {call.workers} worker(s)): {p}" for p in problems]
        return ops * len(self.calls), failed, messages


def _median(calls: list[Call], value) -> float:
    return statistics.median(value(c) for c in calls)


def _run_ref(call: Call) -> float:
    return call.wall_s / call.reference_s


def end_to_end(runner: Runner) -> tuple[dict[str, float], dict[str, float]]:
    """(reported metrics, raw wall-clock figures printed alongside them)."""
    timed = [c for c in runner.calls if c.status is not None]
    trials = runner.workload.trials
    metrics = {
        "trials_per_ref": _median(timed, lambda c: trials / _run_ref(c)),
        "run_ref": _median(timed, _run_ref),
        "setup_s": REFERENCE_NOMINAL_S * _median(timed, lambda c: c.package_setup_s / c.reference_s),
        "peak_rss_mb": _median(timed, lambda c: c.peak_rss_mb),
    }
    raw = {
        "trials_per_s": _median(timed, lambda c: trials / c.wall_s),
        "run_s": _median(timed, lambda c: c.wall_s),
        "process_setup_s": _median(timed, lambda c: c.process_setup_s),
        "package_setup_s": _median(timed, lambda c: c.package_setup_s),
        "reference_s": _median(timed, lambda c: c.reference_s),
    }
    return metrics, raw


def per_layer(runner: Runner, seconds: float, started: float) -> dict[str, float]:
    """Traced calls alternating with untraced calls of the same shape (and,
    for a pooled workload, of its own shape).  Traced calls run one process
    so that every span lands in it; their per-layer metrics are averaged."""
    workload = runner.workload
    shapes = [(1, True), (1, False)]
    if workload.workers > 1:
        shapes.append((workload.workers, False))
    runner.repeat(shapes, seconds, started, min_rounds=2)
    ok = [c for c in runner.calls if c.status is not None]
    traced = [c for c in ok if c.layers is not None]
    single = [c for c in ok if c.layers is None and c.workers == 1]
    pooled = [c for c in ok if c.workers > 1]
    if not traced or not single:
        return {}
    metrics = {}
    for name in traced[0].layers:
        values = [c.layers[name] for c in traced]
        # Counts repeat exactly at a fixed seed; keep them exact.
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.fmean(values)
    metrics["trace.overhead"] = _median(traced, _run_ref) / _median(single, _run_ref)
    metrics["cli.pool.efficiency"] = (
        _median(single, _run_ref) / (workload.workers * _median(pooled, _run_ref))
        if pooled else 0.0)
    metrics["cli.output_bytes"] = len(traced[0].output.encode())
    return metrics


def environment() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wshare").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    git_sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or git_sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": str(len(os.sched_getaffinity(0))), "cpu": cpu}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = _clock()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        # Compile the package's .pyc files outside any timed call.
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                        "import wshare.cli"], check=True, timeout=60, env=CHILD_ENV)
        runner = Runner(workload, seed, workdir, started + DEADLINE_S)
        metrics, raw = {}, {}
        if trace:
            metrics, units = per_layer(runner, seconds, started), tracer.PER_LAYER_UNITS
        else:
            runner.repeat([(workload.workers, False)], seconds, started, MIN_CALLS)
            units = END_TO_END_UNITS
            if any(c.status is not None for c in runner.calls):
                metrics, raw = end_to_end(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, messages = runner.gate()
    versions = next((c.versions for c in runner.calls if c.versions), {})

    print(f"# workload {workload.name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("# argv: wshare " + " ".join(workload.argv(seed, "OUT", workload.workers)))
    print("# env: " + "  ".join(f"{k}={v}" for k, v in {**environment(), **versions}.items()))
    for i, c in enumerate(runner.calls, 1):
        print(f"# call {i:2d} {c.label:8s} workers={c.workers} status={c.status} "
              f"process_setup_s={c.process_setup_s:.4f} package_setup_s={c.package_setup_s:.4f} "
              f"wall_s={c.wall_s:.4f} reference_s={c.reference_s:.4f} "
              f"peak_rss_mb={c.peak_rss_mb:.1f}")
    for message in messages[:20]:
        print(f"# FAILED {message}")
    for name, value in raw.items():
        print(f"# raw median {name} {value:.6g}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    print(f"{'error_rate':44s} {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exit, so that running children are
    # killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "wshare" / "cli.py").is_file():
        print(f"error: no wshare sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    summary = results[names[0]] if len(names) == 1 else results
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
