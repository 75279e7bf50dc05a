"""One fresh-process wshare CLI call, timed from the inside.

Usage: python3 child.py SRC_DIR RESULT_JSON SPANS_JSON|- -- CLI_ARGV...

It imports ``wshare`` from SRC_DIR (and refuses any other copy), finishes
the package's lazy builds, reads the monotonic clock ("ready"), calls
``wshare.cli.main(argv)`` and reads the clock again.  With a SPANS_JSON
path it installs the span tracer after the lazy builds and writes the
spans out after the call.  The timings, exit status, peak RSS and
versions go to RESULT_JSON.

Before the package is imported and again after the call, the process
times a fixed reference kernel.  A shared host swings by tens of percent
in speed as its other tenants come and go; dividing the call by the
reference kernel timed in the same process cancels most of that swing.
"""

import json
import os
import platform
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


REFERENCE_ITERATIONS = 16000


def reference_kernel(numpy) -> float:
    """Seconds for a fixed mix of interpreter and 8-amplitude numpy work,
    the same kind of work the package does per measurement."""
    rng = numpy.random.default_rng(12345)
    amps = numpy.zeros(8, dtype=complex)
    acc = 0.0
    start = _clock()
    for i in range(REFERENCE_ITERATIONS):
        amps[[4, 2, 1]] = rng.random()
        p0 = float(numpy.sum(numpy.abs(amps.reshape(2, 2, 2)[:, 0, :]) ** 2))
        record = {"round": i, "bits": (i & 1, p0 < 0.5)}
        acc += p0 + len(record)
    return _clock() - start


def main() -> None:
    src, result_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR RESULT_JSON SPANS_JSON|- -- CLI_ARGV...")
    sys.path.insert(0, src)
    import numpy

    reference_before = reference_kernel(numpy)
    package_start = _clock()
    import wshare
    import wshare.cli

    origin = os.path.realpath(wshare.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported wshare from {origin}, not from {src}")

    # The lazy builds every CLI call pays before its first trial.  A name a
    # later version no longer has is simply skipped.
    for module_name, attr in (("wshare.teleport", "build_correction_table"),
                              ("wshare.protocol", "_w_template")):
        build = getattr(sys.modules.get(module_name), attr, None)
        if callable(build):
            build()
    numpy.random.default_rng(0).random()

    recorder = None
    if spans_path != "-":
        import tracer  # next to this script, so already on sys.path

        recorder = tracer.Recorder()
        tracer.install(recorder)

    ready = _clock()
    start_ns = time.perf_counter_ns()
    status = wshare.cli.main(argv)
    wall_ns = time.perf_counter_ns() - start_ns
    done = _clock()

    if recorder is not None:
        recorder.dump(spans_path, wall_ns)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    reference_after = reference_kernel(numpy)
    with open(result_path, "w") as fh:
        json.dump({
            "package_start": package_start,
            "ready": ready,
            "reference_s": [reference_before, reference_after],
            "done": done,
            "status": status,
            "peak_rss_kb": max(own, workers),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "wshare": getattr(wshare, "__version__", "unknown"),
        }, fh)


if __name__ == "__main__":
    main()
