"""Kept mutants: small breaks of the program that named tests must catch.

Each entry replaces one exact snippet of a ``src/`` file and names the tests
that must then fail.  Run::

    python tests/mutants.py            # every mutant
    python tests/mutants.py --only NAME

Each mutant is applied alone to a temporary copy of the whole checkout (a
copy of ``src/`` alone would not do: pyproject's ``pythonpath = ["src"]``
puts the checkout's own ``src/`` first), and only its tests run there, with
``-x -p no:cacheprovider``.  The runner reports every mutant and exits 1 if
any survives or cannot be run.  Pytest does not collect this file;
``tests/test_mutants.py`` checks that every snippet still occurs exactly
once and that every listed test still exists, so a refactor that moves the
code has to move its mutant too.  A surviving mutant is a finding: record
it, with the gate that should catch it, rather than dropping it.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str  # occurs exactly once in ``path``
    new: str
    tests: tuple[str, ...]  # pytest ids, at least one of which must fail


PROTOCOL, STATEVEC, TELEPORT, CLI = (f"src/wshare/{name}.py" for name in ("protocol", "statevec", "teleport", "cli"))
GRID = "tests/test_protocol.py::test_grid_call_matches_one_point_calls"

MUTANTS = [
    Mutant("flush-at-the-cap", PROTOCOL,
           "if size + block > _BLOCK_TRIALS:", "if size + block >= _BLOCK_TRIALS:",
           (f"{GRID}[packed-points]",)),
    Mutant("fidelity-parts-shifted", PROTOCOL,
           "np.cumsum([w.size for w in which[:-1]])", "np.cumsum([w.size for w in which[1:]])",
           (f"{GRID}[imra-grid-with-d1]",
            "tests/test_golden.py::test_cli_output_matches_golden_hash[sweep-imra-strict]")),
    Mutant("yield-on-aborted-trials", PROTOCOL,
           "counted = ~aborted & (surviving > 0)", "counted = surviving > 0",
           ("tests/test_protocol.py::test_sampled_yield_mean_is_exact[isra-0.5-strict]",
            "tests/test_protocol.py::test_sampled_yield_mean_is_exact[imra-strict]")),
    Mutant("pairs-on-aborted-trials", PROTOCOL,
           "    pairs[aborted] = 0\n", "",
           ("tests/test_protocol.py::test_count_sampler_matches_round_draws[isra-strict]",
            "tests/test_protocol.py::test_count_sampler_matches_round_draws[imra-strict]")),
    Mutant("imra-first-branch-from-the-other-cell", PROTOCOL,
           "counts[teleported, 2] / pairs[teleported]", "counts[teleported, 3] / pairs[teleported]",
           ("tests/test_golden.py::test_cli_output_matches_golden_hash[sweep-imra-strict]",)),
    Mutant("z-rule-home-0-flipped", PROTOCOL,
           '"z_rc0": (z_round & ~home, alice == bob)', '"z_rc0": (z_round & ~home, alice != bob)',
           ("tests/test_acceptance.py::test_criterion_02_honest_soundness",
            "tests/test_protocol.py::test_violated_cell_is_q_by_three_routes[none-strict]")),
    Mutant("z-rule-home-1-weakened", PROTOCOL,
           '"z_rc1": (z_round & home, alice | bob)', '"z_rc1": (z_round & home, alice & bob)',
           ("tests/test_protocol.py::test_violated_cell_is_q_by_three_routes[isra-0.5-paper]",
            "tests/test_acceptance.py::test_criterion_04_isra_analytic_match")),
    Mutant("no-clamp", STATEVEC,
           "    if p0 <= _ZERO_PROB:\n        return 0.0\n    if 1.0 - p0 <= _ZERO_PROB:\n        return 1.0\n", "",
           ("tests/test_round_tree.py::test_table_thresholds_clamp_near_certain_branches[near-certain-home-0]",
            "tests/test_statevec.py::test_near_impossible_first_branch_is_never_drawn")),
    Mutant("unconjugated-references", TELEPORT,
           'np.einsum("tbja,tj->tba", rows, references.conj())', 'np.einsum("tbja,tj->tba", rows, references)',
           ("tests/test_teleport.py::test_kernel_matches_oracle_on_every_draw[0]",
            "tests/test_protocol.py::test_sampled_bob_fidelity_mean_is_exact[none-strict]")),
    Mutant("pool-shares-reversed", CLI,
           "for share in pool.map(sweep, shares)", "for share in reversed(list(pool.map(sweep, shares)))",
           ("tests/test_cli.py::test_sweep_pool_shares_match_one_call",)),
]


def _mutated_copy(mutant: Mutant, into: Path) -> Path:
    """A copy of the checkout under ``into`` with ``mutant`` applied."""
    copy = into / "checkout"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis",
                                                              ".benchmarks", ".work-*"))
    target = copy / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the snippet occurs {text.count(mutant.old)} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))
    return copy


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, or ``error`` when pytest could not run its tests."""
    with tempfile.TemporaryDirectory(prefix="wshare-mutant-") as scratch:
        copy = _mutated_copy(mutant, Path(scratch))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                                cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    # pytest exits 1 when a test failed and 0 when all passed; anything else
    # (no tests, a usage error, an interrupt) says nothing about the mutant
    return {0: "survived", 1: "killed"}.get(result.returncode, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Apply each kept mutant alone and run the tests that must catch it.")
    parser.add_argument("--only", metavar="NAME", choices=[mutant.name for mutant in MUTANTS],
                        help="run this mutant alone")
    args = parser.parse_args(argv)
    outcomes = {}
    for mutant in MUTANTS:
        if args.only in (None, mutant.name):
            start = time.perf_counter()
            outcomes[mutant.name] = run(mutant)
            print(f"{outcomes[mutant.name]:>8}  {mutant.name}  ({time.perf_counter() - start:.1f} s)", flush=True)
    failed = [name for name, outcome in outcomes.items() if outcome != "killed"]
    print(f"{len(outcomes) - len(failed)} of {len(outcomes)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
