"""End-to-end command-line tests, run through subprocesses like a user would."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wshare import cli, protocol
from wshare.analytic import sequence_success_probability
from wshare.attacks import ATTACK_KINDS
from wshare.cli import CURVE_COLUMNS, SWEEP_COLUMNS, UsageError, _scenario_value, main


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "wshare", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "sweep" in proc.stdout and "teleport-demo" in proc.stdout


def test_unknown_flag_exits_one():
    proc = run_cli("run", "--frobnicate")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_missing_verb_exits_one():
    proc = run_cli()
    assert proc.returncode == 1


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
    ],
)
def test_bad_invocations_exit_one(flags):
    proc = run_cli(*flags)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")


def test_honest_run_exits_zero_and_reports_pass():
    proc = run_cli("run", "--n", "8", "--d", "0.3", "--seed", "7")
    assert proc.returncode == 0
    assert '"pass"' in proc.stdout
    assert "teleport-fidelity-mean" in proc.stdout
    assert "1" in proc.stdout.splitlines()[-1]


def test_detected_run_exits_two():
    proc = run_cli(
        "run", "--n", "30", "--d", "1", "--p", "1",
        "--attack", "isra", "--isra-y", "1", "--seed", "3",
    )
    assert proc.returncode == 2
    assert "abort" in proc.stdout


def test_run_records_format_is_parseable_jsonl():
    proc = run_cli("run", "--n", "6", "--seed", "1", "--format", "records")
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


def test_sweep_csv_schema_and_grid_order():
    proc = run_cli(
        "sweep", "--attack", "isra", "--y-values", "0,1", "--n-values", "2,4",
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


def test_sweep_matches_analytic_within_noise():
    proc = run_cli(
        "sweep", "--attack", "isra", "--isra-y", "1", "--p", "1", "--d", "1",
        "--n", "1", "--trials", "400", "--seed", "11", "--format", "csv",
    )
    header, rows = _read_csv(proc.stdout)
    record = dict(zip(header, rows[0]))
    # y=1, p=d=1, n=1: success is exactly 1/3
    assert float(record["analytic_success"]) == pytest.approx(1 / 3)
    stderr = float(record["success_stderr"])
    assert abs(float(record["success_rate"]) - 1 / 3) < 4 * max(stderr, 1e-3)


def test_sweep_honest_attack_never_detects():
    proc = run_cli("sweep", "--trials", "100", "--n", "10", "--seed", "2", "--format", "csv")
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


def test_sweep_workers_do_not_change_output(tmp_path):
    base = (
        "sweep", "--attack", "isra", "--y-values", "0,0.5,1",
        "--n", "4", "--trials", "100", "--seed", "21", "--format", "csv",
    )
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(*base, "--out", str(serial)).returncode == 0
    assert run_cli(*base, "--workers", "3", "--out", str(parallel)).returncode == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_block_size_bounds_every_block():
    for n in (1, 10, 4000, 10 ** 6):
        size = protocol._block_size(n)
        assert size >= 1 and size * n <= protocol._BLOCK_SLOTS, n


def test_sweep_across_blocks_is_identical_under_workers(tmp_path):
    n, trials = 16384, 150
    size = protocol._block_size(n)
    assert trials > 2 * size and trials % size  # two full blocks and a ragged one
    base = ("sweep", "--attack", "ema", "--d-values", "0,0.5", "--n", str(n),
            "--trials", str(trials), "--seed", "5", "--format", "csv")
    # Enough work for the sweep to start its 2-process pool.
    assert 2 * trials * n // cli._ROUNDS_PER_WORKER >= 2
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(*base, "--out", str(serial)).returncode == 0
    assert run_cli(*base, "--workers", "2", "--out", str(parallel)).returncode == 0
    assert serial.read_bytes() == parallel.read_bytes()
    rows = list(csv.DictReader(io.StringIO(serial.read_text())))
    assert [row["detections"] for row in rows] == ["0", "0"]  # ema passes the paper checker
    assert all(float(row["yield_mean"]) == pytest.approx(2 / 3, abs=0.01) for row in rows)


def test_scenario_file_sets_flags_and_flags_override(tmp_path):
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({
        "attack": "isra", "isra-y": 0.25, "n": 3,
        "trials": 100, "seed": 9, "format": "csv",
    }))
    proc = run_cli("sweep", "--scenario", str(scenario))
    header, rows = _read_csv(proc.stdout)
    assert dict(zip(header, rows[0]))["y"] == "0.25"

    proc = run_cli("sweep", "--scenario", str(scenario), "--isra-y", "0.75")
    header, rows = _read_csv(proc.stdout)
    assert dict(zip(header, rows[0]))["y"] == "0.75"


def test_scenario_file_rejects_unknown_keys(tmp_path):
    scenario = tmp_path / "scen.json"
    scenario.write_text('{"frobnicate": 3}')
    proc = run_cli("run", "--scenario", str(scenario))
    assert proc.returncode == 1
    assert "frobnicate" in proc.stderr


def test_curves_row_count_and_schema():
    proc = run_cli(
        "curves", "--y-values", "0,1", "--d-values", "0.5",
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


def test_curves_default_text_mentions_illustrative_ranges():
    proc = run_cli("curves")
    assert proc.returncode == 0
    assert proc.stdout.startswith("# illustrative default ranges")
    # 3 panels x 3 values x 60 lengths, plus note and header
    assert len(proc.stdout.splitlines()) == 2 + 9 * 60


def test_teleport_demo_honest():
    proc = run_cli("teleport-demo", "--trials", "5", "--seed", "2", "--format", "csv")
    assert proc.returncode == 0
    header, rows = _read_csv(proc.stdout)
    table = {r[header.index("outcome")]: r[header.index("correction")]
             for r in rows if r[0] == "correction"}
    assert table == {"psi+": "I", "psi-": "Z", "phi+": "X", "phi-": "XZ"}
    trials = [r for r in rows if r[0] == "trial"]
    assert len(trials) == 5
    for row in trials:
        assert float(row[header.index("fidelity")]) == pytest.approx(1.0)


def test_teleport_demo_ema_matches_expected_fidelity():
    proc = run_cli("teleport-demo", "--attack", "ema", "--trials", "6",
                   "--seed", "2", "--format", "csv")
    header, rows = _read_csv(proc.stdout)
    trials = [r for r in rows if r[0] == "trial"]
    assert len(trials) == 6
    for row in trials:
        fidelity = float(row[header.index("fidelity")])
        expected = float(row[header.index("expected_fidelity")])
        assert fidelity == pytest.approx(expected, abs=1e-9)
        assert fidelity < 1.0 - 1e-6  # the corrupted channel always loses fidelity


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "wshare" in proc.stdout


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
        ("sweep", {"n-values": []}),
        ("sweep", {"d-values": ","}),
        # a y grid without the isra attack, from a scenario key
        ("curves", {"attack": "ema", "y-values": [0.5]}),
        ("curves --attack none", {"y-values": [0.5]}),
        ("sweep", {"y-values": [0.5]}),
        # keys the verb does not use, which used to be ignored without a word
        ("run --n 5 --seed 1", {"workers": 4, "y-values": [0.5], "n-values": [3]}),
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
], ids=["invalid-json", "not-utf8", "deep-nesting"])
def test_unreadable_scenario_files_exit_one(raw, tmp_path, capsys):
    path = tmp_path / "scen.json"
    path.write_bytes(raw)
    assert main(["sweep", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("engine,argv", [("run_protocol", ["run", "--n", "40000000"]),
                                         ("run_trials", ["sweep", "--n", "40000000"])],
                         ids=["run", "sweep"])
def test_out_of_memory_exits_one(engine, argv, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, engine, exhausted)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_closed_stdout_ends_without_traceback():
    # Far more output than a pipe holds, so the writer meets the closed end.
    argv = [sys.executable, "-m", "wshare", "teleport-demo", "--trials", "5000", "--seed", "1"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
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
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
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
    calls = []

    def counted(pair):
        calls.append(pair)
        return kernel(pair)

    kernel = cli._bell_kernel
    monkeypatch.setattr(cli, "_bell_kernel", counted)
    for attack in ("none", "ema"):
        calls.clear()
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
        expected = sequence_success_probability(attack, mode, float(p), float(d), int(n), float(y) if y else None)
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
# an isra attack for --y-values).
BASE_ARGV = {
    "run": ["run"],
    "sweep": ["sweep", "--trials", "100", "--n", "2", "--attack", "isra"],
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


@pytest.mark.parametrize("verb", sorted(TAKES))
def test_verb_help_lists_exactly_its_flags(verb):
    proc = run_cli(verb, "--help")
    assert proc.returncode == 0
    assert set(re.findall(r"--([a-z][a-z-]*)", proc.stdout)) == TAKES[verb] | {"help", "scenario"}


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
    argv = ["sweep", "--trials", "100", "--n", "4"] if verb == "sweep" else [verb]
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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_ROUNDS_PER_WORKER", 1)  # every trial-round pays for a worker
    _set_cpus(monkeypatch, cpus)
    _capped_sweep(workers, points, tmp_path / "rows.jsonl")
    assert RecordingPool.seen == ([] if expected is None else [expected])


@pytest.mark.parametrize("workers,points", [(1000, 3), (2, 6), (4, 4)])
def test_small_grids_run_in_process(workers, points, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    _set_cpus(monkeypatch, 8)
    assert 100 * sum(range(1, points + 1)) < cli._ROUNDS_PER_WORKER
    in_process = _capped_sweep(workers, points, tmp_path / "in_process.jsonl")
    assert RecordingPool.seen == []
    monkeypatch.setattr(cli, "_ROUNDS_PER_WORKER", 1)
    pooled = _capped_sweep(workers, points, tmp_path / "pooled.jsonl")
    assert RecordingPool.seen == [min(workers, points)]
    assert in_process == pooled


@pytest.mark.parametrize("affinity,count,expected", [(1, 8, 1), (3, None, 3), (None, 6, 6), (None, None, 1)])
def test_usable_cpus_prefers_the_affinity_mask(affinity, count, expected, monkeypatch):
    _set_cpus(monkeypatch, affinity, count)
    assert cli._usable_cpus() == expected
