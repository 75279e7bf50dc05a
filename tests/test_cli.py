"""End-to-end command-line tests: in-process through ``main(argv)``, and
through a subprocess where the process itself is under test (the
``python -m wshare`` entry point, failed and closed stdout, the real pool,
cross-process byte determinism)."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wshare import cli, protocol
from wshare.analytic import round_detection_probability
from wshare.attacks import ATTACK_KINDS, AttackModel
from wshare.cli import CURVE_COLUMNS, SWEEP_COLUMNS, UsageError, _scenario_value, main

from helpers import child_env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wshare", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def call(capsys, *args):
    """``main(args)`` in this process, read like :func:`run_cli`'s result."""
    status = main(list(args))
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, status, out, err)


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "teleport-demo" in proc.stdout


def test_unknown_flag_exits_one(capsys):
    assert main(["run", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_verb_exits_one():
    assert main([]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("run", "--d", "1.5"),
        ("run", "--p", "-0.1"),
        ("run", "--n", "0"),
        ("run", "--isra-y", "2", "--attack", "isra"),
        ("sweep", "--trials", "50"),
        ("sweep", "--y-values", "0,2", "--attack", "isra"),
        ("sweep", "--y-values", "0,1"),  # y grid without the isra attack
        ("curves", "--n-values", ""),
        ("teleport-demo", "--attack", "imra"),
        ("sweep", "--n-values", ""),  # an empty grid used to fall back to --n
        ("sweep", "--n-values", ","),
        ("sweep", "--p", "1.5", "--p-values", "0.5"),  # out of range though unused
        ("teleport-demo", "--p", "7"),
        # curves, like sweep, takes a y grid only with the isra attack
        ("curves", "--attack", "none", "--y-values", "0,1"),
        ("curves", "--attack", "imra", "--mode", "strict", "--y-values", "0.5"),
        ("curves", "--mode", "lenient"),
        # flags the verb does not use, which used to be ignored without a word
        ("run", "--n", "5", "--seed", "1", "--trials", "50"),
        ("curves", "--trials", "9", "--seed", "4"),
        ("curves", "--n", "7"),
        ("teleport-demo", "--trials", "3", "--mode", "strict", "--n", "4", "--d", "0.9", "--isra-y", "0.2"),
        # an empty scenario path, which used to be ignored without a word
        ("run", "--n", "3", "--scenario", "", "--format", "csv"),
        ("run", "--n", "3", "--scenario=", "--format", "csv"),
        # a length no float can hold, which used to overflow (1 - q) ** n
        ("curves", "--n-values", str(10 ** 309)),
    ],
)
def test_bad_invocations_exit_one(flags, capsys):
    status, err = main(list(flags)), capsys.readouterr().err
    assert status == 1, err
    assert err.startswith("error:")


def test_honest_run_exits_zero_and_reports_pass(capsys):
    proc = call(capsys, "run", "--n", "8", "--d", "0.3", "--seed", "7")
    assert proc.returncode == 0
    assert '"pass"' in proc.stdout
    assert "teleport-fidelity-mean" in proc.stdout
    assert "1" in proc.stdout.splitlines()[-1]


def test_detected_run_exits_two(capsys):
    proc = call(
        capsys, "run", "--n", "30", "--d", "1", "--p", "1",
        "--attack", "isra", "--isra-y", "1", "--seed", "3",
    )
    assert proc.returncode == 2
    assert "abort" in proc.stdout


def test_run_records_format_is_parseable_jsonl(capsys):
    proc = call(capsys, "run", "--n", "6", "--seed", "1", "--format", "records")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows, "no records emitted"
    assert all(set(r) == {"seq", "speaker", "event", "detail"} for r in rows)
    assert [r["seq"] for r in rows] == list(range(len(rows)))
    speakers = {r["speaker"] for r in rows}
    assert speakers <= {"charlie", "alice", "bob", "runner"}


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_sweep_csv_schema_and_grid_order(capsys):
    proc = call(
        capsys, "sweep", "--attack", "isra", "--y-values", "0,1", "--n-values", "2,4",
        "--trials", "100", "--seed", "5", "--format", "csv",
    )
    assert proc.returncode == 0
    header, rows = _read_csv(proc.stdout)
    assert header == SWEEP_COLUMNS
    assert [(r[header.index("y")], r[header.index("n")]) for r in rows] == [
        ("0", "2"), ("0", "4"), ("1", "2"), ("1", "4")
    ]
    for row in rows:
        record = dict(zip(header, row))
        assert record["attack"] == "isra"
        assert record["trials"] == "100"
        total = float(record["detection_rate"]) + float(record["success_rate"])
        assert total == pytest.approx(1.0)
        assert 0.0 < float(record["analytic_success"]) < 1.0


def test_sweep_matches_analytic_within_noise(capsys):
    proc = call(
        capsys, "sweep", "--attack", "isra", "--isra-y", "1", "--p", "1", "--d", "1",
        "--n", "1", "--trials", "400", "--seed", "11", "--format", "csv",
    )
    header, rows = _read_csv(proc.stdout)
    record = dict(zip(header, rows[0]))
    # y=1, p=d=1, n=1: success is exactly 1/3
    assert float(record["analytic_success"]) == pytest.approx(1 / 3)
    stderr = float(record["success_stderr"])
    assert abs(float(record["success_rate"]) - 1 / 3) < 4 * max(stderr, 1e-3)


# The sweep columns a row may leave empty: y outside isra, and a mean over
# no trial (none survived, or none had a pair).
NULLABLE_SWEEP_COLUMNS = {"y", "yield_mean", "teleport_fidelity_mean"}


@pytest.mark.parametrize("attack", ["ema", "isra"])
def test_sweep_records_write_numbers(attack, capsys):
    # Every numeric column of a records row loads as a JSON number, not as
    # its string; at d = 1 nothing survives, so both means are null.
    y = ["--isra-y", "0.5"] if attack == "isra" else []
    proc = call(capsys, "sweep", "--attack", attack, "--mode", "strict", *y, "--d-values", "0.5,1",
                "--n", "5", "--trials", "100", "--seed", "10", "--format", "records")
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["d"] for row in rows] == [0.5, 1]
    for row in rows:
        for column in SWEEP_COLUMNS[2:]:
            value = row[column]
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            assert number or (value is None and column in NULLABLE_SWEEP_COLUMNS), (column, value)
    assert rows[1]["yield_mean"] is rows[1]["teleport_fidelity_mean"] is None


def test_sweep_honest_attack_never_detects(capsys):
    proc = call(capsys, "sweep", "--trials", "100", "--n", "10", "--seed", "2", "--format", "csv")
    header, rows = _read_csv(proc.stdout)
    record = dict(zip(header, rows[0]))
    assert record["detections"] == "0"
    assert record["y"] == ""  # no fake-qubit parameter without the isra attack
    assert float(record["analytic_success"]) == 1.0
    assert float(record["teleport_fidelity_mean"]) == pytest.approx(1.0)


def test_sweep_output_file_is_byte_deterministic(tmp_path):
    args = (
        "sweep", "--attack", "ema", "--mode", "strict", "--n", "6",
        "--trials", "120", "--seed", "13", "--format", "csv",
    )
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)).returncode == 0
    assert run_cli(*args, "--out", str(second)).returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_workers_do_not_change_output(tmp_path, capsys):
    base = (
        "sweep", "--attack", "isra", "--y-values", "0,0.5,1",
        "--n", "4", "--trials", "100", "--seed", "21", "--format", "csv",
    )
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert call(capsys, *base, "--out", str(serial)).returncode == 0
    assert call(capsys, *base, "--workers", "3", "--out", str(parallel)).returncode == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_across_blocks_is_identical_under_workers(tmp_path):
    n, trials = 16384, protocol._BLOCK_TRIALS * 3 // 2
    assert trials > protocol._BLOCK_TRIALS and trials % protocol._BLOCK_TRIALS  # a full block and a ragged one
    base = ("sweep", "--attack", "ema", "--d-values", "0,0.5", "--n", str(n),
            "--trials", str(trials), "--seed", "5", "--format", "csv")
    # Enough work for the sweep to start its 2-process pool.
    assert 2 * trials // cli._TRIALS_PER_WORKER >= 2
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(*base, "--out", str(serial)).returncode == 0
    assert run_cli(*base, "--workers", "2", "--out", str(parallel)).returncode == 0
    assert serial.read_bytes() == parallel.read_bytes()
    rows = list(csv.DictReader(io.StringIO(serial.read_text())))
    assert [row["detections"] for row in rows] == ["0", "0"]  # ema passes the paper checker
    assert all(float(row["yield_mean"]) == pytest.approx(2 / 3, abs=0.01) for row in rows)


def test_sweep_pool_shares_match_one_call(tmp_path, monkeypatch):
    # Three points over two workers: each worker makes one run_trials call
    # over its contiguous share (one point, then two), and the rows are
    # those of one call over the whole grid in this process.
    trials = 2 * cli._TRIALS_PER_WORKER // 3 + 1
    base = ["sweep", "--attack", "isra", "--y-values", "0,0.5,1", "--n", "3", "--trials", str(trials),
            "--seed", "8", "--format", "csv"]
    assert 3 * trials // cli._TRIALS_PER_WORKER == 2  # enough work for a 2-process pool
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main([*base, "--out", str(serial)]) == 0
    assert main([*base, "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert len(serial.read_text().splitlines()) == 4


@pytest.mark.parametrize("flag,value", [("--y-values", "-0,0.5"), ("--p-values", "-0.5,1"),
                                        ("--d-values", "-0"), ("--n-values", "-2,3")])
def test_grid_value_with_a_leading_minus_reads_as_joined(flag, value, tmp_path, capsys):
    # argparse would read "-0,0.5" as an option; either spelling gives the
    # same output or the same (range) refusal.
    base = ["sweep", "--attack", "isra", "--trials", "100", "--format", "csv"]
    if flag != "--n-values":
        base += ["--n", "3"]
    separate, joined = call(capsys, *base, flag, value), call(capsys, *base, f"{flag}={value}")
    assert (separate.returncode, separate.stdout, separate.stderr) == (joined.returncode, joined.stdout,
                                                                      joined.stderr)
    assert "expected one argument" not in separate.stderr
    if value in ("-0,0.5", "-0"):
        assert separate.returncode == 0 and len(_read_csv(separate.stdout)[1]) == value.count(",") + 1
    else:
        assert separate.returncode == 1 and separate.stderr.startswith(f"error: sweep needs {flag} in [")


def test_scenario_file_sets_flags_and_flags_override(tmp_path, capsys):
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({
        "attack": "isra", "isra-y": 0.25, "n": 3,
        "trials": 100, "seed": 9, "format": "csv",
    }))
    proc = call(capsys, "sweep", "--scenario", str(scenario))
    header, rows = _read_csv(proc.stdout)
    assert dict(zip(header, rows[0]))["y"] == "0.25"

    proc = call(capsys, "sweep", "--scenario", str(scenario), "--isra-y", "0.75")
    header, rows = _read_csv(proc.stdout)
    assert dict(zip(header, rows[0]))["y"] == "0.75"


@pytest.mark.parametrize("signed, unsigned", [
    (["sweep", "--p-values", "0.5,-0"], ["sweep", "--p-values", "0.5,0"]),
    (["sweep", "--attack", "isra", "--y-values", "-0"], ["sweep", "--attack", "isra", "--y-values", "0"]),
    (["curves", "--p", "-0"], ["curves", "--p", "0"]),
    ({"d": -0.0, "isra_y": -0.0, "attack": "isra"}, {"d": 0.0, "isra_y": 0.0, "attack": "isra"}),
], ids=["p-grid", "y-grid", "curves-p", "scenario"])
def test_negative_zero_prints_as_zero(signed, unsigned, tmp_path, capsys):
    # -0 lies in [0, 1], and a row prints it as 0, as if 0 were given.
    shown = []
    for argv in (signed, unsigned):
        if isinstance(argv, dict):
            (tmp_path / "scen.json").write_text(json.dumps(argv))
            argv = ["sweep", "--scenario", str(tmp_path / "scen.json")]
        if argv[0] == "sweep":
            argv = [*argv, "--n", "3", "--trials", "100", "--format", "csv"]
        proc = call(capsys, *argv)
        assert proc.returncode == 0, proc.stderr
        shown.append(proc.stdout)
    assert shown[0] == shown[1] and "-0" not in shown[0].replace(",", " ").split()


def test_scenario_file_rejects_unknown_keys(tmp_path, capsys):
    scenario = tmp_path / "scen.json"
    scenario.write_text('{"frobnicate": 3}')
    proc = call(capsys, "run", "--scenario", str(scenario))
    assert proc.returncode == 1
    assert "frobnicate" in proc.stderr


def test_scenario_file_must_hold_an_object(tmp_path, capsys):
    scenario = tmp_path / "scen.json"
    scenario.write_text("[1, 2]")
    proc = call(capsys, "run", "--scenario", str(scenario))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: scenario file must hold a flat JSON object\n"


def test_curves_row_count_and_schema(capsys):
    proc = call(
        capsys, "curves", "--y-values", "0,1", "--d-values", "0.5",
        "--p-values", "0.25,0.5,1", "--n-values", "1,2,3,4", "--format", "csv",
    )
    assert proc.returncode == 0
    header, rows = _read_csv(proc.stdout)
    assert header == CURVE_COLUMNS
    assert len(rows) == (2 + 1 + 3) * 4
    panels = [r[0] for r in rows]
    assert panels == ["vary-y"] * 8 + ["vary-d"] * 4 + ["vary-p"] * 12
    # success decreases along n within one curve
    succ = [float(r[header.index("success")]) for r in rows[:4]]
    assert succ == sorted(succ, reverse=True)


def test_curves_default_text_mentions_illustrative_ranges(capsys):
    proc = call(capsys, "curves")
    assert proc.returncode == 0
    assert proc.stdout.startswith("# illustrative default ranges")
    # 3 panels x 3 values x 60 lengths, plus note and header
    assert len(proc.stdout.splitlines()) == 2 + 9 * 60


def test_teleport_demo_honest(capsys):
    proc = call(capsys, "teleport-demo", "--trials", "5", "--seed", "2", "--format", "csv")
    assert proc.returncode == 0
    header, rows = _read_csv(proc.stdout)
    table = {r[header.index("outcome")]: r[header.index("correction")]
             for r in rows if r[0] == "correction"}
    assert table == {"psi+": "I", "psi-": "Z", "phi+": "X", "phi-": "XZ"}
    trials = [r for r in rows if r[0] == "trial"]
    assert len(trials) == 5
    for row in trials:
        assert float(row[header.index("fidelity")]) == pytest.approx(1.0)


def test_teleport_demo_ema_matches_expected_fidelity(capsys):
    proc = call(capsys, "teleport-demo", "--attack", "ema", "--trials", "6",
                   "--seed", "2", "--format", "csv")
    header, rows = _read_csv(proc.stdout)
    trials = [r for r in rows if r[0] == "trial"]
    assert len(trials) == 6
    for row in trials:
        fidelity = float(row[header.index("fidelity")])
        expected = float(row[header.index("expected_fidelity")])
        assert fidelity == pytest.approx(expected, abs=1e-9)
        assert fidelity < 1.0 - 1e-6  # the corrupted channel always loses fidelity


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as done:
        main(["--version"])
    assert done.value.code == 0
    assert "wshare" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# input boundary: scenario value types and the worker cap


@pytest.mark.parametrize(
    "scenario",
    [
        {"n": True},  # would run as n = 1
        {"n": 2.7},  # would run as n = 2
        {"out": 99},  # would be opened as file descriptor 99
        {"seed": "3"},
        {"d": False},
        {"isra-y": [0.5]},
        {"mode": 1},
        # (verb and flags, scenario): grids go to sweep, which takes them
        ("sweep", {"y-values": [0.5, True]}),
        ("sweep", {"n-values": [1, 2.0]}),
        ("sweep", {"n-values": "1,2.5"}),
        {"d": 10 ** 400},  # an integer beyond the float range
        {"out": "no-such-dir/out.txt"},
        {"out": ""},  # used to write to stdout
        ("sweep", {"n-values": []}),
        ("sweep", {"d-values": ","}),
        # a y grid without the isra attack, from a scenario key
        ("curves", {"attack": "ema", "y-values": [0.5]}),
        ("curves --attack none", {"y-values": [0.5]}),
        ("sweep", {"y-values": [0.5]}),
        # keys the verb does not use, which used to be ignored without a word
        ("run --n 5 --seed 1", {"workers": 4, "y-values": [0.5], "n-values": [3]}),
        ("sweep", {"n-values": "1,2"}),  # a grid is a JSON list, not the flag's text
        ("curves", {"n-values": [10 ** 309]}),  # a length no float can hold
    ],
)
def test_bad_scenario_values_exit_one(scenario, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args, scenario = scenario if isinstance(scenario, tuple) else ("run", scenario)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scenario))
    assert main([*args.split(), "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("raw", [
    b'{"n": 5',
    b'\xff\xfe{"n": 5}',
    b'{"n_values": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"n": 3, "n": 5}',  # used to run with the later value
    b'{"attack": "isra", "isra-y": 0.1, "isra_y": 0.9}',  # one key in two spellings
], ids=["invalid-json", "not-utf8", "deep-nesting", "key-twice", "key-twice-spelled-apart"])
def test_unreadable_scenario_files_exit_one(raw, tmp_path, capsys):
    path = tmp_path / "scen.json"
    path.write_bytes(raw)
    assert main(["sweep", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("engine,argv", [("run_protocol", ["run", "--n", "40000000"]),
                                         ("run_trials", ["sweep", "--n", "40000000"])],
                         ids=["run", "sweep"])
def test_out_of_memory_exits_one(engine, argv, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, engine, exhausted)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


HUGE = str(10 ** 23)


@pytest.mark.parametrize("argv", [
    ["run", "--n", HUGE],
    ["teleport-demo", "--trials", HUGE],
    ["teleport-demo", "--trials", str(2 ** 61)],
    ["sweep", "--n", str(10 ** 20), "--trials", "100"],
    ["sweep", "--n-values", str(10 ** 20), "--trials", "100"],
    ["run", "--n", str(2 ** 61), "--attack", "imra"],
    ["sweep", "--n-values", str(10 ** 309), "--trials", "100"],  # past the float range, which curves refuses
], ids=["run-n", "demo-trials", "demo-trials-2^61", "sweep-n", "sweep-n-values", "run-imra-2^61",
        "sweep-n-values-past-floats"])
def test_unaddressable_sizes_exit_one_before_allocating(argv, capsys):
    # Sizes no numpy array can address (numpy would raise ValueError) are
    # refused as out of memory before the engine allocates anything.
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    assert capsys.readouterr().err == "error: out of memory; try a smaller --n, --trials or grid\n"
    assert peak < 1 << 20


def test_unaddressable_curve_lengths_are_computed(capsys):
    for n in (10 ** 20, int(sys.float_info.max)):  # curves takes any n a float can hold
        assert main(["curves", "--n-values", str(n), "--format", "csv"]) == 0
        assert capsys.readouterr().out.count("\n") == 1 + 9


def test_closed_stdout_ends_without_traceback():
    # Far more output than a pipe holds, so the writer meets the closed end.
    argv = [sys.executable, "-m", "wshare", "teleport-demo", "--trials", "5000", "--seed", "1"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert proc.stdout.readline().startswith(b"section")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in proc.stderr.read()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
@pytest.mark.parametrize("args", [["run", "--n", "5"], ["curves", "--out", "/dev/full"],
                                  ["--help"], ["run", "--help"], ["--version"]],
                         ids=["stdout", "out", "help", "verb-help", "version"])
def test_failed_write_exits_one_without_traceback(args):
    argv = [sys.executable, "-m", "wshare", *args]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
                              env=child_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write output:")
    assert len(proc.stderr.splitlines()) == 1


def test_stdout_to_devnull_closes_what_it_opens(monkeypatch, tmp_path):
    opened = []

    def recorded(*args):
        opened.append(os_open(*args))
        return opened[-1]

    os_open = os.open
    with open(tmp_path / "stdout", "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        monkeypatch.setattr(os, "open", recorded)
        cli._stdout_to_devnull()
        monkeypatch.undo()
    assert len(opened) == 1
    with pytest.raises(OSError):
        os.fstat(opened[0])  # closed, so not leaked


def test_teleport_demo_builds_one_kernel(monkeypatch, tmp_path):
    # The demo's channel is its attack's pair node in the round tables, so
    # its kernel is built once per attack, however often the demo runs.
    calls = []

    def counted(*pairs):
        calls.append(pairs)
        return kernel(*pairs)

    kernel = protocol._bell_kernel
    monkeypatch.setattr(protocol, "_bell_kernel", counted)
    protocol._round_tables.cache_clear()
    for attack in ("none", "ema"):
        calls.clear()
        for _ in range(2):
            assert main(["teleport-demo", "--attack", attack, "--trials", "50",
                         "--out", str(tmp_path / attack)]) == 0
        assert len(calls) == 1, attack


def test_curves_accepts_isra_and_the_defaults(tmp_path):
    grid = ["curves", "--y-values", "0,1", "--n-values", "1,3", "--format", "csv"]
    outputs = []
    for extra in ([], ["--attack", "isra"], ["--attack", "isra", "--mode", "paper"]):
        out = tmp_path / f"out{len(outputs)}"
        assert main([*grid, *extra, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs.count(outputs[0]) == 3
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({"attack": "isra", "mode": "paper"}))
    out = tmp_path / "out-scenario"
    assert main([*grid, "--scenario", str(scenario), "--out", str(out)]) == 0
    assert out.read_bytes() == outputs[0]


def test_curves_compute_q_once_per_curve(monkeypatch, tmp_path):
    # q depends on the curve's (y, p, d), not on n: the default grid's nine
    # curves of 60 rows each make nine closed-form calls, one per curve.
    closed_form = cli.closed_form_round_detection
    calls = []

    def counted(attack, mode, p, d):
        calls.append((p, d, attack.y))
        return closed_form(attack, mode, p, d)

    monkeypatch.setattr(cli, "closed_form_round_detection", counted)
    out = tmp_path / "curves.csv"
    assert main(["curves", "--format", "csv", "--out", str(out)]) == 0
    _, rows = _read_csv(out.read_text())
    curves = list(dict.fromkeys(tuple(row[:4]) for row in rows))
    assert len(curves) == 9 and len(rows) == 9 * len(cli._DEFAULT_CURVE_NS)
    assert calls == [(float(p), float(d), float(y)) for _, y, p, d in curves]


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("attack", ATTACK_KINDS)
def test_curves_take_every_attack_and_mode(attack, mode, tmp_path):
    # Every row is the enumeration oracle's sequence success; only isra has
    # a y, so the other attacks print an empty y and one vary-y curve.
    base = ["curves", "--d-values", "0.5,1", "--p-values", "0,0.5", "--n-values", "1,3", "--format", "csv"]
    out, from_scenario = tmp_path / "flags.csv", tmp_path / "scenario.csv"
    assert main([*base, "--attack", attack, "--mode", mode, "--out", str(out)]) == 0
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({"attack": attack, "mode": mode}))
    assert main([*base, "--scenario", str(scenario), "--out", str(from_scenario)]) == 0
    assert out.read_bytes() == from_scenario.read_bytes()
    header, rows = _read_csv(out.read_text())
    assert header == CURVE_COLUMNS
    curves = 3 if attack == "isra" else 1
    assert [r[0] for r in rows] == ["vary-y"] * 2 * curves + ["vary-d"] * 4 + ["vary-p"] * 4
    for panel, y, p, d, n, success in rows:
        assert (y == "") == (attack != "isra")
        q = round_detection_probability(AttackModel(attack, float(y) if y else None), mode, float(p), float(d))
        expected = (1 - q) ** int(n)
        assert float(success) == pytest.approx(expected, abs=1e-11)
        if attack == "none" or (attack != "isra" and mode == "paper"):
            assert success == "1"


def _readme_verb_table() -> dict[str, set[str]]:
    """Each row of README's ``| verb | takes |`` table: the verb and its flags."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| verb | takes"))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        verb, takes = (cell.strip() for cell in line.strip("|").split("|"))
        flags = set(re.findall(r"--([a-z][a-z-]*)", takes))
        if "the four grids" in takes:
            flags |= {"y-values", "p-values", "d-values", "n-values"}
        table[verb.strip("`")] = flags
    return table


def test_readme_verb_table_lists_exactly_each_verbs_flags():
    assert _readme_verb_table() == TAKES


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Every scenario key's type (a grid's entry type in a list), written out
# here rather than read from the CLI's flag table; null is taken only by
# the keys whose default is unset.
SCENARIO_TYPES = {
    "n": int, "trials": int, "seed": int, "workers": int, "d": float, "p": float, "isra_y": float,
    "mode": str, "attack": str, "format": str, "out": str,
    "y_values": [float], "p_values": [float], "d_values": [float], "n_values": [int],
}
NULLABLE_KEYS = {"out", "y_values", "p_values", "d_values", "n_values"}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SCENARIO_TYPES)), JSON_VALUES)
def test_scenario_value_is_exactly_typed_or_rejected(name, value):
    # Any JSON value either raises UsageError or comes back as exactly the
    # key's type; booleans never pass for numbers, floats never for
    # integers.
    try:
        parsed = _scenario_value(name, value)
    except UsageError:
        return
    assert not isinstance(value, bool)
    expected = SCENARIO_TYPES[name]
    if parsed is None:
        assert value is None and name in NULLABLE_KEYS
    elif isinstance(expected, list):
        assert type(parsed) is tuple and all(type(v) is expected[0] for v in parsed)
    else:
        assert type(parsed) is expected
        assert type(value) is expected or (expected is float and type(value) is int)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["n", "trials", "seed", "workers"]), st.integers(-10 ** 6, 10 ** 6))
def test_scenario_integers_pass_through(name, value):
    assert _scenario_value(name, value) == value


# Which flags each verb takes, written out here rather than read from the
# CLI's flag table, so that the table is checked against something else.
TAKES = {
    "run": {"n", "d", "p", "mode", "attack", "isra-y", "seed", "format", "out"},
    "sweep": {"n", "d", "p", "mode", "attack", "isra-y", "trials", "seed", "format", "out",
              "workers", "y-values", "p-values", "d-values", "n-values"},
    "curves": {"d", "p", "isra-y", "mode", "attack", "y-values", "p-values", "d-values", "n-values",
               "format", "out"},
    "teleport-demo": {"attack", "trials", "seed", "format", "out"},
}
ALL_FLAGS = sorted(set().union(*TAKES.values()))
# One cheap invocation per verb that exits 0 (sweep needs 100 trials, and
# an isra attack for --isra-y and --y-values; with d = p = 0 a run selects
# no round, and with p = 0 every selected round is an X round, which the
# paper checker passes, so no single flag makes it abort).
BASE_ARGV = {
    "run": ["run", "--attack", "isra", "--d", "0", "--p", "0"],
    "sweep": ["sweep", "--trials", "100", "--attack", "isra"],
    "curves": ["curves"],
    "teleport-demo": ["teleport-demo"],
}
VALID_VALUES = {
    "n": 3, "d": 0.5, "p": 0.5, "mode": "paper", "attack": "none", "isra-y": 0.5,
    "trials": 100, "seed": 1, "format": "csv", "workers": 1,
    "y-values": [0.5], "p-values": [0.5], "d-values": [0.5], "n-values": [2],
}


@pytest.mark.parametrize("verb", sorted(TAKES))
@pytest.mark.parametrize("flag", ALL_FLAGS)
def test_each_verb_takes_exactly_its_flags(verb, flag, tmp_path, monkeypatch, capsys):
    # One valid value, as a flag and as a scenario key: refused (exit 1)
    # exactly when the verb does not take the flag.
    monkeypatch.chdir(tmp_path)
    value = str(tmp_path / "out.txt") if flag == "out" else VALID_VALUES[flag]
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({flag: value}))
    expected = 0 if flag in TAKES[verb] else 1
    assert main([*BASE_ARGV[verb], f"--{flag}", text]) == expected
    assert main([*BASE_ARGV[verb], "--scenario", str(scenario)]) == expected
    assert capsys.readouterr().err.count("error:") == 2 * expected


@pytest.mark.parametrize("scalar,grid", [("n", "n-values"), ("d", "d-values"), ("p", "p-values"),
                                         ("isra-y", "y-values")])
def test_sweep_refuses_a_scalar_with_its_grid(scalar, grid, tmp_path, capsys):
    # As a flag or a scenario key, either way round; curves takes both (its
    # scalar is the base point of the other panels).
    one, values = VALID_VALUES[scalar], ",".join(map(str, VALID_VALUES[grid]))
    scenario = tmp_path / "scen.json"
    for keys, flags in (({}, [f"--{scalar}", str(one), f"--{grid}", values]),
                        ({scalar: one}, [f"--{grid}", values]),
                        ({grid: VALID_VALUES[grid]}, [f"--{scalar}", str(one)]),
                        ({scalar: one, grid: VALID_VALUES[grid]}, [])):
        scenario.write_text(json.dumps(keys))
        assert main([*BASE_ARGV["sweep"], *flags, "--scenario", str(scenario)]) == 1, (keys, flags)
        assert f"--{scalar} and --{grid}" in capsys.readouterr().err
    if scalar != "n":  # curves has no --n
        assert main(["curves", f"--{scalar}", str(one), f"--{grid}", values,
                     "--out", str(tmp_path / "curves.csv")]) == 0


@pytest.mark.parametrize("argv,attack", [("run --d 0 --n 2", "ema"), ("run --d 0 --n 2", "none"),
                                         ("sweep --trials 100 --n 2", "imra"), ("curves", "ema")])
def test_isra_y_needs_the_isra_attack(argv, attack, tmp_path, monkeypatch, capsys):
    # As --y-values is: a fake-qubit amplitude for another attack, as a flag
    # or as a scenario key, used to be ignored without a word; the default
    # stays silent.
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({"attack": attack, "isra_y": 0.9}))
    base = [*argv.split(), "--out", "out.txt"]
    assert main([*base, "--attack", attack, "--isra-y", "0.3"]) == 1
    assert main([*base, "--scenario", str(scenario)]) == 1
    assert capsys.readouterr().err.count("error: --isra-y only applies to the isra attack") == 2
    assert main([*base, "--attack", attack]) == 0


@pytest.mark.parametrize("verb", sorted(TAKES))
def test_verb_help_lists_exactly_its_flags(verb, capsys):
    with pytest.raises(SystemExit) as done:
        main([verb, "--help"])
    assert done.value.code == 0
    assert set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) == TAKES[verb] | {"help", "scenario"}


UNIT_VALUES = st.floats(0.0, 1.0) | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1.5])
COUNT_VALUES = st.integers(1, 4) | st.integers(max_value=0) | st.sampled_from(["nan", "inf", "2.5"])


def _arg(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _grid(values):
    return st.lists(values, max_size=3).map(lambda vs: ",".join(map(_arg, vs)))


# In range, out of range, nan, infinite and junk values for every flag.
# Workers stay at one process at most, and n at 4 rounds at most.
HOSTILE_VALUES = {
    "n": COUNT_VALUES, "trials": COUNT_VALUES, "d": UNIT_VALUES, "p": UNIT_VALUES, "isra-y": UNIT_VALUES,
    "seed": st.integers(-3, 3) | st.sampled_from(["nan", "2.5"]),
    "workers": st.integers(-2, 1) | st.sampled_from(["nan", "2.5"]),
    "mode": st.sampled_from(["paper", "strict", "bogus"]),
    "attack": st.sampled_from([*ATTACK_KINDS, "bogus"]),
    "format": st.sampled_from(["text", "csv", "records", "bogus"]),
    "out": st.sampled_from(["", os.devnull, os.path.join(os.devnull, "out.txt")]),
    "y-values": _grid(UNIT_VALUES), "p-values": _grid(UNIT_VALUES), "d-values": _grid(UNIT_VALUES),
    "n-values": _grid(COUNT_VALUES),
}


@st.composite
def hostile_argv(draw):
    verb = draw(st.sampled_from(sorted(TAKES)))
    flags = draw(st.lists(st.sampled_from(ALL_FLAGS), unique=True, max_size=6))
    argv = ["sweep", "--trials", "100"] if verb == "sweep" else [verb]
    if verb == "sweep" and not {"n", "n-values"} & set(flags):
        argv += ["--n", "4"]  # a sweep refuses --n given with its grid
    argv += [f"--{flag}={_arg(draw(HOSTILE_VALUES[flag]))}" for flag in flags]
    return argv, set(flags) - TAKES[verb]


@settings(max_examples=200, deadline=None)
@given(hostile_argv())
def test_hostile_values_never_raise(case):
    # Hostile values for any flag of any verb end in a clean exit status,
    # never a traceback; a flag the verb does not take always exits 1.
    argv, refused = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    if status == 1:
        assert err.getvalue().startswith("error:")
    if refused:
        assert status == 1, (argv, err.getvalue())


class RecordingPool:
    """ProcessPoolExecutor stand-in: records max_workers, maps in-process."""

    seen: list = []

    def __init__(self, max_workers):
        RecordingPool.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def _capped_sweep(workers, points, out):
    """Sweep ``points`` grid points of 100 trials each with a RecordingPool;
    returns the output text."""
    RecordingPool.seen = []
    grid = list(range(1, points + 1))
    assert main(["sweep", "--d", "0", "--trials", "100", "--n-values", ",".join(map(str, grid)),
                 "--workers", str(workers), "--format", "records", "--out", str(out)]) == 0
    text = out.read_text()
    assert [json.loads(line)["n"] for line in text.splitlines()] == grid
    return text


def _set_cpus(monkeypatch, affinity, count=None):
    """An affinity mask of ``affinity`` CPUs (None: a platform without
    masks) on a host that reports ``count`` CPUs (None: unknown)."""
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: count)


@pytest.mark.parametrize(
    "workers,points,cpus,expected",
    [(1000, 3, 8, 3), (1000, 6, 4, 4), (2, 6, 4, 2), (1000, 6, None, None), (5, 1, 8, None)],
)
def test_workers_capped_by_grid_points_and_cpus(workers, points, cpus, expected, monkeypatch, tmp_path):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_TRIALS_PER_WORKER", 1)  # every trial pays for a worker
    _set_cpus(monkeypatch, cpus)
    _capped_sweep(workers, points, tmp_path / "rows.jsonl")
    assert RecordingPool.seen == ([] if expected is None else [expected])


@pytest.mark.parametrize("workers,points", [(1000, 3), (2, 6), (4, 4)])
def test_small_grids_run_in_process(workers, points, monkeypatch, tmp_path):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    _set_cpus(monkeypatch, 8)
    assert 100 * points < cli._TRIALS_PER_WORKER
    in_process = _capped_sweep(workers, points, tmp_path / "in_process.jsonl")
    assert RecordingPool.seen == []
    monkeypatch.setattr(cli, "_TRIALS_PER_WORKER", 1)
    pooled = _capped_sweep(workers, points, tmp_path / "pooled.jsonl")
    assert RecordingPool.seen == [min(workers, points)]
    assert in_process == pooled


@pytest.mark.parametrize("affinity,count,expected", [(1, 8, 1), (3, None, 3), (None, 6, 6), (None, None, 1)])
def test_usable_cpus_prefers_the_affinity_mask(affinity, count, expected, monkeypatch):
    _set_cpus(monkeypatch, affinity, count)
    assert cli._usable_cpus() == expected
